"""Barriers, two-separations, and barrier transport across contractions.

A barrier of a graph is a vertex set with exactly as many odd
components outside it as it has members. A strict barrier additionally
has every odd component critical or a single vertex, and a matching
covered core (the bipartite graph obtained by collapsing each odd
component to one vertex and dropping everything else).

Strict barriers confined to one shore are what explains a dead cut: a
cut none of whose edges lies in any perfect matching. find_strict_barrier
locates one with a single construction: for a vertex a of a shore S,
the set {a} + A(g[S] - a), a plus the Gallai-Edmonds attachment set of
the shore subgraph without a, verified as a confined strict barrier
and tagged with S. g's cached perfect matching avoids the dead cut, so
D(g[S] - a) is read by one Edmonds search on g's own rows
(matching._shore_missable), and no shore subgraph is built. Each
candidate's core is read off the same matching, which pairs each member
with its own odd part, so no core graph is built either
(is_strict_barrier); barrier_core builds one only for a graph with no
perfect matching, and for the tests. The docstring of
_strict_barrier_in, its loop, proves that every such barrier is the
candidate of each of its members, so the construction misses none.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph import (
    Cut,
    EnumerationLimitError,
    Graph,
    GraphError,
    InternalInvariantError,
    _Value,
)
from .matching import (
    _dependence_row,
    _mate_walk,
    _search_mates,
    _shore_missable,
    is_admissible,
    is_critical,
    is_matchable,
    is_matching_covered,
)


class Barrier(_Value):
    """A vertex set with one odd component outside it per member."""

    __slots__ = ("members", "odd_parts", "graph")
    _compared = ("members", "odd_parts")

    def __init__(self, members: frozenset[int],
                 odd_parts: tuple[frozenset[int], ...], graph: Graph):
        set_members, set_odd_parts, set_graph = self._setters
        set_members(self, members)
        set_odd_parts(self, odd_parts)
        set_graph(self, graph)

    @property
    def is_nontrivial(self) -> bool:
        return len(self.members) >= 2

    def __repr__(self):
        parts = [sorted(p) for p in self.odd_parts]
        return f"Barrier({sorted(self.members)}, odd_parts={parts})"


def is_barrier(g: Graph, members) -> Barrier | None:
    """The Barrier on these members, or None if o(g - members) differs.

    Purely a component count; matchability of g is not required. The
    empty set and the full vertex set are rejected as malformed rather
    than returning None.

    Positive answers are memoized on g as plain data, members mapped to
    odd parts, so the memo holds no reference back to g and grows with
    the barriers found, not with the candidates tried; a negative answer
    is recomputed on every call.
    """
    members = frozenset(members)
    if not members:
        raise GraphError("barrier candidate is empty")
    if not members <= g.vertex_set:
        raise GraphError(
            f"not vertices of the graph: {sorted(members - g.vertex_set)}")
    if members == g.vertex_set:
        raise GraphError("barrier candidate is the whole vertex set")
    found = g._memo("barrier_parts", dict)
    odd = found.get(members)
    if odd is None:
        odd = tuple(p for p in g.components_without(members) if len(p) % 2)
        if len(odd) != len(members):
            return None
        found[members] = odd
    return Barrier(members, odd, g)


# free candidates around one vertex that enumerate_barriers takes, at most
BARRIER_LIMIT = 16


def enumerate_barriers(g: Graph) -> list[Barrier]:
    """All barriers of g, by size then lex order.

    Only the sweep's structure checks use this listing; the certify
    path reads dependence classes instead (classify_cut, and the
    reduction's barrier step in decompose.py), with no subset search.
    The listing opens with the single-vertex barriers, in vertex order,
    so a caller that wants only its first few asks _leading_barriers.

    Call u and v dependent when g - u - v is not matchable. Any two
    members u, v of a barrier B are dependent, in every graph: deleting
    the rest of B from g - u - v leaves |B| odd components against
    |B| - 2 deleted vertices, so Tutte's condition fails. Candidates
    therefore grow only as pairwise dependent sets, and is_barrier
    decides each one; when g has a perfect matching, the partners of v
    are read off its dependence row. In a matching covered graph
    dependence is the Kotzig-Lovasz canonical partition into maximal
    barriers, so the candidates are the subsets of one part, and a
    brick has no candidate beyond single vertices. In a graph with no
    perfect matching every pair may be dependent, and the search is the
    full subset scan. On three vertices or fewer a barrier has one
    member, so no row is read.

    Guard: the search is exponential only in the largest set of
    candidates around one vertex, that vertex plus its dependent
    partners; in a matching covered graph, the largest canonical part,
    however large the graph is. When that exceeds BARRIER_LIMIT,
    EnumerationLimitError is raised before any subset is tried. The
    result is cached on the graph as plain (members, odd parts) pairs,
    and the Barriers are built on return, so the cache holds no
    reference back to g.
    """
    got = g._memo("barriers", lambda: tuple(
        (b.members, b.odd_parts) for b in _search_barriers(g)))
    return [Barrier(members, parts, g) for members, parts in got]


def _dependent_partners(g: Graph) -> dict[int, frozenset[int]]:
    """Each vertex v mapped to the w != v with g - v - w not matchable.

    With a perfect matching these are everything but v and its
    dependence row, one Edmonds search per vertex. Otherwise g - v - w
    is matchable iff the cached maximum matching of g - v misses one
    vertex and w is in D(g - v), the vertices some maximum matching of
    g - v misses (_shore_missable on all of g - v): one blossom run and
    one search per vertex, and n induced subgraphs in g's cache.
    """
    pool = g.vertices
    if is_matchable(g):
        return {v: g.vertex_set - _dependence_row(g, v) - {v} for v in pool}
    rests = [g.without_vertices((v,)) for v in pool]
    return {v: h.vertex_set - (_shore_missable(h, h.vertex_set) or frozenset())
            for v, h in zip(pool, rests)}


def _leading_barriers(g: Graph, k: int) -> list[Barrier]:
    """enumerate_barriers(g)[:k], listed only when fewer than k single
    vertices are barriers: the listing opens with those, in vertex
    order. Up to BARRIER_LIMIT vertices its guard cannot fire, as no
    vertex has more candidates around it than g has vertices."""
    if 1 < g.n <= BARRIER_LIMIT:
        found = []
        for v in g.vertices:
            b = is_barrier(g, (v,))
            if b is not None:
                found.append(b)
                if len(found) == k:
                    return found
    return enumerate_barriers(g)[:k]


def _search_barriers(g: Graph) -> list[Barrier]:
    """enumerate_barriers' search: pairwise dependent vertex sets,
    tested by is_barrier in size then lex order."""
    # a barrier and its odd components are disjoint, so |B| <= n/2
    room = g.n // 2
    partners = _dependent_partners(g) if room >= 2 else {}
    widest = max((1 + len(p) for p in partners.values()), default=0)
    if widest > BARRIER_LIMIT:
        raise EnumerationLimitError(
            f"barrier enumeration over {widest} candidates "
            f"exceeds the guard of {BARRIER_LIMIT}")

    candidates: list[tuple[int, ...]] = []
    # (chosen, the vertices that may extend it)
    stack = [((), list(g.vertices))] if room else []
    while stack:
        chosen, options = stack.pop()
        for i, v in enumerate(options):
            extended = chosen + (v,)
            candidates.append(extended)
            if len(extended) < room:
                stack.append((extended, [w for w in options[i + 1:]
                                         if w in partners[v]]))
    candidates.sort(key=lambda members: (len(members), members))
    found = []
    for members in candidates:
        b = is_barrier(g, members)
        if b is not None:
            found.append(b)
    return found


def barrier_cuts(g: Graph, b: Barrier) -> tuple[Cut, ...]:
    """The boundary of each odd component, in component order."""
    if b.graph is not g:
        raise GraphError("barrier belongs to a different graph")
    return tuple(g.boundary(part) for part in b.odd_parts)


class TwoSeparation(_Value):
    """Two even-order sides meeting exactly in a separating vertex pair."""

    __slots__ = ("pair", "side1", "side2", "graph")
    _compared = ("pair", "side1", "side2")

    def __init__(self, pair: tuple[int, int], side1: frozenset[int],
                 side2: frozenset[int], graph: Graph):
        set_pair, set_side1, set_side2, set_graph = self._setters
        set_pair(self, pair)
        set_side1(self, side1)
        set_side2(self, side2)
        set_graph(self, graph)

    def __repr__(self):
        return (f"TwoSeparation(pair={self.pair}, "
                f"side1={sorted(self.side1)}, side2={sorted(self.side2)})")


def make_two_separation(g: Graph, pair, side1, side2) -> TwoSeparation:
    """Validate and canonicalize; the lex-smaller side becomes side1."""
    pair_set = frozenset(pair)
    if len(pair_set) != 2 or not pair_set <= g.vertex_set:
        raise GraphError(f"not a vertex pair of the graph: {sorted(pair)}")
    s1, s2 = frozenset(side1), frozenset(side2)
    if not (s1 <= g.vertex_set and s2 <= g.vertex_set):
        raise GraphError("sides contain vertices outside the graph")
    if s1 | s2 != g.vertex_set:
        raise GraphError("sides do not cover the vertex set")
    if s1 & s2 != pair_set:
        raise GraphError("sides must meet exactly in the separating pair")
    if len(s1) % 2 or len(s2) % 2:
        raise GraphError("both sides must have even order")
    if not s1 - pair_set or not s2 - pair_set:
        raise GraphError("both sides need a vertex besides the pair")
    far2 = s2 - pair_set
    for v in sorted(s1 - pair_set):
        for w in g.neighbors(v):
            if w in far2:
                raise GraphError(f"edge {v}-{w} crosses the separation")
    if sorted(s2) < sorted(s1):
        s1, s2 = s2, s1
    u, v = sorted(pair_set)
    return TwoSeparation((u, v), s1, s2, g)


# groupings find_2separations tries for one vertex pair, at most
GROUPING_LIMIT = 1 << 16


def find_2separations(g: Graph) -> list[TwoSeparation]:
    """All two-separations, sorted by (pair, side1).

    Every grouping of the components of g - {u, v} into two even sides
    counts, with the component holding the smallest vertex fixed on
    side one so each unordered split appears once. k components give
    2^(k-1) groupings, so the listing is exponential: when some pair
    has more than GROUPING_LIMIT, EnumerationLimitError is raised
    before any grouping is built. Only the sweep's structure checks use
    this listing; the witnesses of one cut come from twoseps_generating.
    The result is cached on the graph as plain (pair, side1, side2)
    triples, and the TwoSeparations are built on return, so the cache
    holds no reference back to g.
    """
    got = g._memo("twoseps", lambda: tuple(
        (s.pair, s.side1, s.side2) for s in _search_2separations(g)))
    return [TwoSeparation(pair, side1, side2, g)
            for pair, side1, side2 in got]


def _search_2separations(g: Graph) -> list[TwoSeparation]:
    """find_2separations' listing: every even grouping of the
    components of g - {u, v}, for each vertex pair, validated."""
    splits = []
    for u, v in combinations(g.vertices, 2):
        parts = g.components_without(frozenset((u, v)))
        if len(parts) < 2:
            continue
        if 1 << (len(parts) - 1) > GROUPING_LIMIT:
            raise EnumerationLimitError(
                f"two-separation listing over {len(parts)} components of "
                f"g - {{{u}, {v}}} exceeds the guard of {GROUPING_LIMIT} "
                "groupings")
        splits.append((u, v, parts))
    out = []
    for u, v, parts in splits:
        head, rest = parts[0], parts[1:]
        for bits in range(1 << len(rest)):
            group1 = set(head)
            group2: set[int] = set()
            for i, comp in enumerate(rest):
                (group1 if bits >> i & 1 else group2).update(comp)
            if not group2 or len(group1) % 2 or len(group2) % 2:
                continue
            try:
                out.append(make_two_separation(
                    g, (u, v), frozenset(group1 | {u, v}),
                    frozenset(group2 | {u, v})))
            except GraphError as exc:
                raise InternalInvariantError(
                    f"component grouping failed validation: {exc}") from exc
    out.sort(key=lambda s: (s.pair, sorted(s.side1)))
    return out


def twoseps_generating(g: Graph, c: Cut) -> list[TwoSeparation]:
    """The two-separations generating c, sorted by (pair, side1).

    A two-separation with pair {p, q} generates c = boundary(S) exactly
    when q is in S, p is not, and its sides are S + p and (V - S) + q;
    the other shore of c gives the same separations with p and q
    swapped. No edge joins S - q to (V - S) - p, so every cut edge has
    near end q or far end p (Lovasz-Plummer, Matching Theory, 1986).
    Hence one cut edge x0y0 fixes q = x0, with p the common far end of
    the cut edges not at x0, or p = y0, with q the common near end of
    the cut edges not at y0; when no cut edge is left, any vertex of
    the other side qualifies. That is O(n) candidate pairs, and each is
    checked by make_two_separation alone. A candidate it accepts
    generates c by construction: S and V - S partition V, with q in S
    and p not, so the sides S + p and (V - S) + q meet exactly in
    {p, q}. Whichever of them becomes side1, removing its own pair
    member gives S or V - S, and two_separation_cuts lists the boundary
    of that set, which is c.
    """
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    shore, far = c.shore, c.other_shore
    ends = sorted((u, v) if u in shore else (v, u)
                  for u, v in map(g.edge_ends, c.edge_ids))
    if not ends:  # g is disconnected: any pair across the cut may do
        candidates = {(p, q) for p in far for q in shore}
    else:
        x0, y0 = ends[0]
        far_ends = {y for x, y in ends if x != x0}
        near_ends = {x for x, y in ends if y != y0}
        candidates = set()
        if len(far_ends) <= 1:
            candidates.update((p, x0) for p in far_ends or far)
        if len(near_ends) <= 1:
            candidates.update((y0, q) for q in near_ends or shore)
    out = []
    for p, q in candidates:
        try:
            out.append(make_two_separation(g, (p, q), shore | {p}, far | {q}))
        except GraphError:
            continue
    out.sort(key=lambda s: (s.pair, sorted(s.side1)))
    return out


def two_separation_cuts(g: Graph, s: TwoSeparation) -> tuple[Cut, Cut]:
    """The two cuts a two-separation generates.

    With pair (u, v) sorted, these are the boundaries of side1 - u and
    side1 - v; the same cuts seen from side2 in the other order.
    """
    if s.graph is not g:
        raise GraphError("two-separation belongs to a different graph")
    u, v = s.pair
    return g.boundary(s.side1 - {u}), g.boundary(s.side1 - {v})


def barrier_core(g: Graph, b: Barrier) -> Graph:
    """Collapse each odd component of g - B onto a fresh vertex.

    Keeps exactly the edges between B and the odd components, ids
    preserved, parallels retained; edges inside B, inside components,
    and everything touching even components disappear. Fresh vertices
    are numbered consecutively from g.fresh_vertex() in component
    order.
    """
    if b.graph is not g:
        raise GraphError("barrier belongs to a different graph")
    start = g.fresh_vertex()
    label = {x: fresh for fresh, part in enumerate(b.odd_parts, start)
             for x in part}
    vertices = sorted(b.members) + [start + i for i in range(len(b.odd_parts))]
    edges: dict[int, tuple[int, int]] = {}
    for eid, (x, y) in g.edge_items():
        if x in b.members and y in label:
            edges[eid] = (x, label[y])
        elif y in b.members and x in label:
            edges[eid] = (label[x], y)
    return Graph(vertices, edges)


def is_strict_barrier(g: Graph, b: Barrier) -> bool:
    """True iff every odd component of g - B is a single vertex or
    critical, and the barrier core is matching covered.

    The core is read off g's cached maximum matching, with no core graph
    built (_core_covered), whenever that matching pairs each member of B
    with a vertex of its own odd part, as it does when g is matchable.
    Otherwise barrier_core builds the core for is_matching_covered. The
    answer is memoized on g, keyed by (members, odd parts).
    """
    if b.graph is not g:
        raise GraphError("barrier belongs to a different graph")
    strict = g._memo("strict_barriers", dict)
    key = (b.members, b.odd_parts)
    got = strict.get(key)
    if got is None:
        got = strict[key] = (
            all(len(part) == 1 or is_critical(g.induced(part))
                for part in b.odd_parts)
            and _core_covered(g, b))
    return got


def _core_covered(g: Graph, b: Barrier) -> bool:
    """Whether the barrier core of b is matching covered, read on g.

    Let M be g's cached maximum matching, and K_1..K_k the odd parts,
    k = |B|. When g is matchable, each K_j sends an M-edge to B: K_j has
    odd order, and its neighbours outside it lie in B. So the k members
    are matched into the k parts, one to each. Whenever M does that, the
    pairs (member, part of its mate) are a perfect matching of the core,
    which is bipartite, members against parts. The core is then matching
    covered iff D(M), over those pairs, is strongly connected, which
    makes it connected too (is_matching_covered's docstring): iff
    _mate_walk from the least member and its mate flags every position.
    Positions 0..k-1 are the members in order and k..2k-1 the parts,
    each row read from g's own rows, parallel edges merged. No core
    graph is built and no blossom runs. Otherwise, on some g with no
    perfect matching, barrier_core builds the core for
    is_matching_covered.
    """
    index, rows = g.positions()
    mates = _search_mates(g)
    k = len(b.odd_parts)
    part_of = [-1] * g.n
    for j, part in enumerate(b.odd_parts, k):
        for v in part:
            part_of[index[v]] = j
    match = [-1] * (2 * k)
    adj: list[list[int]] = [[] for _ in range(2 * k)]
    for i, v in enumerate(sorted(b.members)):
        p = index[v]
        j = part_of[mates[p]] if mates[p] >= 0 else -1
        if j < 0 or match[j] >= 0:
            return is_matching_covered(barrier_core(g, b))
        match[i], match[j] = j, i
        adj[i] = sorted({part_of[w] for w in rows[p] if part_of[w] >= 0})
        for t in adj[i]:
            adj[t].append(i)
    return all(_mate_walk(adj, match, (0, match[0])))


class ShoreBarrier(NamedTuple):
    """A strict barrier confined, odd parts included, to one cut shore."""

    barrier: Barrier
    shore: frozenset[int]


def _confined(g: Graph, members, shore: frozenset[int]) -> Barrier | None:
    """Verify a candidate: barrier of g, parts inside shore, strict."""
    b = is_barrier(g, members)
    if b is None:
        return None
    if any(not part <= shore for part in b.odd_parts):
        return None
    return b if is_strict_barrier(g, b) else None


def find_strict_barrier(g: Graph, x) -> ShoreBarrier:
    """A strict barrier confined to one shore of the dead cut at x.

    Preconditions, each checked here: g matchable, both shore subgraphs
    connected (g less either shore has one component, counted on g's
    rows with no subgraph built), and no boundary edge of x admissible.
    _strict_barrier_in then searches; the witness search of decompose.py
    calls it directly, on setups that meet these by construction (Fact 6
    there).
    """
    x = frozenset(x)
    if not x <= g.vertex_set:
        raise GraphError(f"not vertices of the graph: {sorted(x - g.vertex_set)}")
    if not x or x == g.vertex_set:
        raise GraphError("shore must be a nonempty proper subset")
    xbar = g.vertex_set - x
    if not is_matchable(g):
        raise GraphError("graph is not matchable")
    if len(g.components_without(xbar)) != 1 or \
            len(g.components_without(x)) != 1:
        raise GraphError("both shore subgraphs must be connected")
    for eid in sorted(g.boundary(x).edge_ids):
        if is_admissible(g, eid):
            raise GraphError(f"cut edge {eid} is admissible; the cut is not dead")
    if len(x) % 2:
        raise InternalInvariantError(
            "odd shore of a matchable graph without admissible cut edges")
    return _strict_barrier_in(g, x)


def _strict_barrier_in(g: Graph, x: frozenset[int]) -> ShoreBarrier:
    """find_strict_barrier's search, without its entry checks.

    For each shore S in the order (x, V - x), and each a in S
    (attachments first, the ends in S of the cut's edges, then the
    rest, each in vertex order) the candidate {a} + A(g[S] - a) is
    verified by _confined; the first hit is returned.

    The candidate costs one search, on g's own rows. The cut is dead,
    so g's cached perfect matching M lies inside the shores, and M less
    its edge at a leaves only a's mate unmatched in S - a. So
    R = _shore_missable(g, S - a) is D(g[S] - a), the vertices some
    maximum matching of g[S] - a misses: g[S] - a has odd order, so R is
    the set of t with g[S] - a - t matchable. Its attachments are
    A(g[S] - a) = N(R) - R - a, with N(R) the vertices of S adjacent to
    R, and the candidate is (N(R) + a) - R. No shore subgraph is built.
    A None from _shore_missable means that M is not perfect or meets
    the cut, which a matchable g with a dead cut rules out: it raises
    InternalInvariantError, and so does a search that finds no hit.

    A confined strict barrier exists; that is the structure theory
    behind the tight cut lemma (Lovasz-Plummer, Matching Theory, 1986,
    ch. 3 and 5), not re-proved here. It needs the connected shores: the
    edges 04 and 13 as one shore and 25 as the other, joined by 02, 24,
    15 and 35, make a dead cut with no barrier confined to either shore.

    The loop misses none: every strict barrier B confined to a shore S
    is the candidate of each of its members. Proof: write h = g[S]. The
    cut is dead, so every perfect matching M of g avoids it and is
    perfect on h. M matches B onto its odd parts K_1..K_k, one edge
    each, so M is perfect on every other component of h - B, and those
    are even. Fix a in B; D(h - a) = R is the set of t with h - a - t
    matchable.
    - t in K_i: the core is bipartite and matching covered, so every
      nonempty proper set of members has more neighbouring parts than
      members, and deleting a and K_i from it leaves a perfect matching
      (Hall). That matching sends B - a into the other parts, each
      entered at one vertex r_j; K_j - r_j and K_i - t are matchable,
      the parts being single vertices or critical; M covers the rest of
      h. So t is in D.
    - t in B - a: deleting the other k - 2 members from h - a - t
      leaves the k odd parts, so h - a - t is not matchable.
    - t in an even component E of h - B: deleting B - a (k - 1
      vertices) from h - a - t leaves the k odd parts and the odd set
      E - t, so h - a - t is not matchable.
    So D(h - a) is the union of the K_i. Their neighbours outside them
    lie in B, and each member of B has a core edge (the core is
    connected), so A(h - a) = B - a and the candidate is B itself.
    Hence the hit comes from the first shore holding a confined strict
    barrier, and finding none means the implementation is wrong: the
    internal error at the bottom.
    """
    ends = {w for eid in g.boundary(x).edge_ids for w in g.edge_ends(eid)}
    verts = g.vertices
    index, rows = g.positions()
    for shore in (x, g.vertex_set - x):
        attach = sorted(ends & shore)
        for a in attach + sorted(shore.difference(attach)):
            row = _shore_missable(g, shore - {a})
            if row is None:
                raise InternalInvariantError(
                    "a perfect matching meets the dead cut")
            reach = shore.intersection(
                verts[j] for v in row for j in rows[index[v]])
            hit = _confined(g, (reach | {a}) - row, shore)
            if hit is not None:
                return ShoreBarrier(hit, shore)
    raise InternalInvariantError(
        "no confined strict barrier exists for a dead cut; "
        "this contradicts the structure theory")


def _lift(g: Graph, inner: Graph, label: int, members: frozenset[int],
          replacement: set[int] | frozenset[int]) -> Barrier | None:
    """The barrier members of inner read back in g, or None when members
    is no barrier of inner.

    inner is a contraction of g whose new vertex is label, as each graph
    of the decomposition chain is of the one before it. A barrier that
    holds label lifts with the vertex set replacement in its place, and
    one that does not lifts unchanged.
    The result is checked with is_barrier on g, and a lift that is no
    barrier there raises InternalInvariantError. Both public lifts and
    the block-split pullback of decompose.find_noncrossing_witness pass
    the contraction they already hold.
    """
    if is_barrier(inner, members) is None:
        return None
    lifted = (members - {label}) | replacement if label in members else members
    result = is_barrier(g, lifted)
    if result is None:
        raise InternalInvariantError(
            f"lift of {sorted(members)} over contraction vertex {label} "
            "is not a barrier of the host")
    return result


def lift_barrier_over_odd_component(g: Graph, b: Barrier, y, b_prime) -> Barrier:
    """Transport a barrier of g/(complement of y) back to g.

    y must be an odd component of g - B for a nontrivial barrier B of
    the matching covered graph g. The contraction collapses everything
    outside y onto the fresh vertex label, and _lift reads b_prime back
    with all of B in the label's place. When b_prime uses the label,
    the components of the contraction less b_prime must be components
    of g less the lift, verbatim. Each side's components are its
    barrier's odd parts: g is matching covered, and so is the
    contraction, along the barrier cut of y, which is tight (Fact 1 of
    verify.py, Fact 3 of decompose.py). A barrier of a matching covered
    graph leaves no even component: every perfect matching pairs its
    members with its odd parts, so an edge from a member into an even
    component lies in none, and the graph is connected.
    """
    if b.graph is not g:
        raise GraphError("barrier belongs to a different graph")
    if not is_matching_covered(g):
        raise GraphError("graph is not matching covered")
    if not b.is_nontrivial:
        raise GraphError("barrier must be nontrivial")
    y = frozenset(y)
    if y not in b.odd_parts:
        raise GraphError("y is not an odd component of g - B")
    ybar_label = g.fresh_vertex()
    inner = g.contract(g.vertex_set - y, ybar_label)
    b_prime = frozenset(b_prime)
    if not b_prime <= inner.vertex_set:
        raise GraphError("inner barrier has vertices outside the contraction")
    result = _lift(g, inner, ybar_label, b_prime, b.members)
    if result is None:
        raise GraphError("not a barrier of the contraction")
    if ybar_label in b_prime:
        # inner components survive the lift verbatim
        host_parts = set(result.odd_parts)
        for part in is_barrier(inner, b_prime).odd_parts:
            if part not in host_parts:
                raise InternalInvariantError(
                    f"component {sorted(part)} not preserved by the lift")
    return result


def lift_barrier_over_2sep(g: Graph, s: TwoSeparation, d: Cut, b) -> Barrier:
    """Transport a barrier over the contraction of a two-separation cut.

    d must be one of the cuts the two-separation generates. Each shore
    of d gives one contraction of g, and each shore holds one member of
    the pair; the first contraction (d.shore first) in which b is a
    barrier fixes the direction, and _lift reads b back with the pair
    member on the contracted side in the label's place.
    """
    if s.graph is not g:
        raise GraphError("two-separation belongs to a different graph")
    if not is_matching_covered(g):
        raise GraphError("graph is not matching covered")
    if d not in two_separation_cuts(g, s):
        raise GraphError("cut does not arise from the two-separation")
    b = frozenset(b)
    ybar_label = g.fresh_vertex()
    for kept in (d.shore, d.other_shore):
        inner = g.contract(g.vertex_set - kept, ybar_label)
        if b <= inner.vertex_set:
            result = _lift(g, inner, ybar_label, b, frozenset(s.pair) - kept)
            if result is not None:
                return result
    raise GraphError("not a barrier of either contraction of the cut")
