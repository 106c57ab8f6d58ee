"""Perfect matchings and the predicates built on them.

The polynomial-time core is one Edmonds alternating search
(_alternating_search) over g's own position rows (Graph.positions: a
vertex's position is its rank in sorted label order) and g's maximum
matching over positions, computed once per graph; this module builds
no vertex index of its own. Everything else reduces to matchability
queries on vertex-deleted subgraphs, answered in one of three ways:

- Dependence rows. When g has a perfect matching M, row(x) is the set
  of v with g - x - v matchable: the outer vertices of one search from
  the mate x' of x in g - x, started from M - xx' (_row_search). One
  search answers every pair query at x, so n searches answer all
  O(n^2) of them. is_admissible and is_bicritical here, and the
  dependence classes of cuts.py, structure.py and decompose.py, read
  the rows, cached per graph. Each reduction step hands its
  contraction the rows it has cached, for one search (_carry_rows).
- Searches with targets. A search given target positions stops as
  soon as every target is outer; its flags are then exact on the
  targets only, so the caller reads its targets and nothing else, and
  such flags are never cached as a row. On a graph with an odd
  cycle, is_matching_covered runs at most one per vertex, busiest
  first: from the vertex with the most non-mate edges not yet covered,
  against all of those neighbours, and keeps what each search shows
  besides: the parent pointers lead each target back to the root,
  closing an alternating cycle whose edges all lie in perfect
  matchings, so later vertices have fewer targets or none
  (_covers_every_edge). On a graph small enough for tight-cut
  enumeration it files those searches, from which the perfect matching
  of each cycle is rebuilt with no search (_closed_cycles).
  _shore_missable runs a single one, on g's own rows with every vertex
  outside a shore dead, from the one shore vertex with no mate inside
  it, against every shore vertex, which is exact everywhere: it stops
  early only once all are outer. On the
  whole vertex set it is is_critical's test and barrier search's on a
  graph with no perfect matching; on a shore it is the reduction's
  barrier step, and on a shore less one vertex the dead-cut loop's
  candidate (structure._strict_barrier_in); no blossom runs on the
  shore subgraph.
- The bipartite digraph. On a bipartite g, with colour classes A and B
  and perfect matching M, let D(M) have an arc a -> a' for each edge
  ab with b = M(a'). g - a - M(a') is matchable iff a' reaches a, so a
  walk of D(M) from x's mate gives x's dependence row, and g is
  matching covered iff it is connected and D(M) strongly connected,
  which one walk from both ends of one M-edge decides (_mate_walk).
  No Edmonds search runs for either. A 2-colouring over the position
  rows, computed once per graph and stopped at the first odd cycle
  (_is_bipartite), selects this route; the input alone selects it.
  _dependence_row and is_matching_covered take it, so every reader of
  rows or coverage does, with no change of its own.

Co-matchability, whether two disjoint edges lie together in some
perfect matching, is decided by one routine, _comatchable_among, with
those searches alone: per edge uv, one search for a perfect matching
of g - u - v (_without_pair), then _row_search in g - u - v from it,
run to the end and kept in a memo. is_tight asks it of one cut's
edges, with a fresh memo. Tight-cut enumeration walks only the shores
that every perfect matching _matching_partners finds crosses once,
and asks it of those, through one memo that lives for the whole
enumeration. Those matchings are g's cached one and those of the
cycles the coverage test closed, with no search, then one search for
each edge class none of them holds: on a matching covered graph with
an odd cycle, none.

g's maximum matching is computed once per graph (_blossom_mates) and
cached as a position list (_search_mates), the form every search starts
from. matching_number, is_matchable and find_perfect_matching read it,
and every test for a perfect matching is is_matchable. They take g
alone: a question about g less a vertex set is asked on
g.without_vertices(...), which is memoized on g with its own cached
matching.

Exhaustive perfect-matching enumeration is kept only as the test
oracle for the polynomial routines; nothing in the package calls it,
and it calls nothing of the rest of this module. It refuses graphs
above ENUMERATION_LIMIT vertices instead of silently truncating, and
the limit has no override.
"""

from __future__ import annotations

from .graph import (
    EnumerationLimitError,
    Graph,
    GraphError,
    InternalInvariantError,
    _Value,
)

ENUMERATION_LIMIT = 24
# vertices cuts.enumerate_tight_cuts takes, at most: it walks at most
# n * 2^(n/2 - 2) shores, 1,024 at n = 16; _covers_every_edge files its
# closed cycles for it on graphs this small only
TIGHT_CUT_LIMIT = 16


class Matching(_Value):
    """A set of pairwise disjoint edges of a host graph."""

    __slots__ = ("edges", "graph")
    _compared = ("edges",)

    def __init__(self, edges: frozenset[int], graph: Graph):
        seen: set[int] = set()
        for eid in edges:
            u, v = graph.edge_ends(eid)
            if u in seen or v in seen:
                raise GraphError(f"edges share a vertex: {sorted(edges)}")
            seen.add(u)
            seen.add(v)
        set_edges, set_graph = self._setters
        set_edges(self, edges)
        set_graph(self, graph)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.graph.n

    def __repr__(self):
        return f"Matching({sorted(self.edges)})"


def _alternating_search(adj: list[list[int]], match: list[int],
                        dead: list[bool], root: int, targets=None,
                        parents: list[int] | None = None) -> list[bool] | None:
    """Edmonds' search from the exposed vertex root, ignoring dead
    vertices.

    Grows one alternating tree over a breadth-first queue, contracting
    blossoms onto their bases. An augmenting path is applied to match
    in place and None is returned. Otherwise the outer flags are
    returned: v is outer iff an even alternating path leads from root
    to v, iff swapping along it gives a matching of the same size that
    misses v instead of root (Edmonds 1965).

    A vertex once outer stays outer, so with a collection of target
    positions the search returns as soon as every target is outer.
    The flags are then exact on the targets (all outer) and may miss
    other outer vertices; a search that runs to the end is exact
    everywhere. Either way a caller reads its targets and nothing else.
    A search stopped early has not looked for an augmenting path, so
    targets are passed only when match is maximum in the live graph.

    A caller that passes parents, a list of n entries -1, gets the
    search's parent pointers in it. For an outer v the walk v, match[v],
    p[match[v]], match[p[match[v]]], ... ends at root and is an even
    alternating path from it: the walk the augmenting step applies
    (_augment).
    """
    n = len(adj)
    p = [-1] * n if parents is None else parents
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]
    pending = set() if targets is None else set(targets)
    pending.discard(root)
    if targets is not None and not pending:
        return outer

    def lca(a: int, b: int) -> int:
        used = [False] * n
        x = a
        while True:
            x = base[x]
            used[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, in_blossom: list) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for to in adj[v]:
            if dead[to] or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, curbase, to, in_blossom)
                mark_path(to, curbase, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = curbase
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
                            pending.discard(i)
                if targets is not None and not pending:
                    return outer
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    _augment(match, p, to, v)
                    return None
                outer[match[to]] = True
                queue.append(match[to])
                pending.discard(match[to])
                if targets is not None and not pending:
                    return outer
    return outer


def _augment(match: list[int], p: list[int], to: int, v: int) -> None:
    """Match the vertex to with the outer vertex v, in place, and flip
    the walk v, match[v], p[match[v]], match[p[match[v]]], ... back to
    the search's root, the one vertex on it that match leaves exposed:
    the even alternating path of _alternating_search's parent pointers.
    Every vertex of the walk, and to, ends up matched."""
    while True:
        nxt = match[v]
        match[to] = v
        match[v] = to
        if nxt == -1:
            return
        to = nxt
        v = p[to]


def _blossom_mates(g: Graph) -> list[int]:
    """Maximum matching of g over search positions: the position of
    each vertex's mate, or -1 if it is exposed.

    Starts from a greedy matching in sorted order, then runs
    _alternating_search from every exposed vertex once, O(V^3).
    Everything is sorted, so the result is deterministic.
    """
    _, adj = g.positions()
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    dead = [False] * n
    for v in range(n):
        if match[v] == -1:
            _alternating_search(adj, match, dead, v)
    return match


def _row_search(adj: list[list[int]], match: list[int], dead: list[bool],
                x: int, targets=None,
                parents: list[int] | None = None) -> list[bool]:
    """Outer flags of one search from the mate of x with x deleted, where
    match is a perfect matching of the live vertices.

    match less the edge at x is a maximum matching of the live graph
    less x that misses only the mate, so v is outer iff deleting v too
    leaves a perfect matching. The search cannot augment, since that
    graph has odd order, so it may stop early: with targets, the flags
    are exact on the targets only (see _alternating_search), and
    parents, if given, receives its parent pointers. match is consumed
    (less the edge at x, the search leaves it as it was); dead is
    restored.
    """
    mate = match[x]
    match[x] = match[mate] = -1
    dead[x] = True
    outer = _alternating_search(adj, match, dead, mate, targets, parents)
    dead[x] = False
    if outer is None:
        raise InternalInvariantError(
            "search from a mate augmented in a graph of odd order")
    return outer


def _search_mates(g: Graph) -> list[int]:
    """g's one cached maximum matching, as _blossom_mates' position
    list, built once per graph. Every existence test, row search and
    co-matchable search reads it; a search consumes its match, so
    callers copy it."""
    return g._memo("mates", _blossom_mates, g)


def _is_bipartite(g: Graph) -> bool:
    """True iff g has no odd cycle, from one 2-colouring over its
    position rows, computed once per graph (_two_colourable)."""
    return g._memo("bipartite", _two_colourable, g.positions()[1])


def _two_colourable(adj: list[list[int]]) -> bool:
    """Colour each component from its lowest position by a depth-first
    walk, the other colour on each neighbour; stop at the first edge
    whose ends got one colour, which closes an odd cycle."""
    colour = [-1] * len(adj)
    for root in range(len(adj)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            other = 1 - colour[v]
            for w in adj[v]:
                if colour[w] < 0:
                    colour[w] = other
                    stack.append(w)
                elif colour[w] != other:
                    return False
    return True


def _mate_walk(adj: list[list[int]], match: list[int], starts) -> list[bool]:
    """Flags of the positions reached from starts by steps v -> match[w],
    for w a neighbour of v, where match is a perfect matching of a
    bipartite graph: reachability in the digraph D(M).

    Let g have colour classes A and B and perfect matching M, and let
    D(M) have an arc a -> a' for each edge ab with b = M(a'). An edge
    parallel to aM(a) is a loop a -> a, which no walk needs.

    Lemma: for a, a' in A, g - a - M(a') is matchable iff a' reaches a
    in D(M). A path a' = a0 -> a1 -> ... -> ak = a uses the edges
    a_i M(a_i+1), so M(a'), a', M(a1), a1, ..., M(a), a is an
    M-alternating path with M-edges at both ends, and M swapped along
    it misses exactly M(a') and a (M less aM(a) when a' = a).
    Conversely, for a perfect matching N of g - a - M(a'), M xor N
    holds an alternating path from M(a') to a with M-edges at both
    ends; read from M(a'), each non-M edge a_i M(a_i+1) on it is an
    arc, so a' reaches a.

    A step from a in A follows D(M)'s arcs out of a. A step from
    b = M(a') in B goes to M(a) for each edge ab, an arc a -> a' taken
    backwards and written as mates. So a walk from a in A flags what a
    reaches, and a walk from M(a') flags the mates of what reaches a';
    the two never meet, as each stays in its own class.
    """
    seen = [False] * len(adj)
    for s in starts:
        seen[s] = True
    stack = list(starts)
    while stack:
        for w in adj[stack.pop()]:
            t = match[w]
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return seen


def _dependence_row(g: Graph, x: int) -> frozenset[int]:
    """Every v with g - x - v matchable, for g with a perfect matching.
    Rows are cached per graph, and only complete rows are.

    On a bipartite g, the vertices _mate_walk reaches from x's mate in
    g's cached perfect matching M, with no Edmonds search. Parity
    excludes x's own colour class: M pairs the classes, so deleting
    two vertices of one leaves them unbalanced. For x in A, v = M(a')
    is in the row iff a' reaches x in D(M) (the lemma of _mate_walk),
    and the walk from M(x) flags exactly those mates; for x in B,
    a is in it iff M(x) reaches a, which the walk from M(x) flags. It
    is _row_search's search with no blossom to shrink, as a blossom
    needs an odd cycle.

    Otherwise the outer vertices of _row_search from x's mate, run to
    the end.
    """
    rows = g._memo("dependence_rows", dict)
    got = rows.get(x)
    if got is None:
        index, adj = g.positions()
        mates = _search_mates(g)
        if _is_bipartite(g):
            outer = _mate_walk(adj, mates, (mates[index[x]],))
        else:
            outer = _row_search(adj, mates[:], [False] * len(adj),
                                index[x])
        got = rows[x] = frozenset(v for v, o in zip(g.vertices, outer) if o)
    return got


def _carry_rows(g: Graph, h: Graph, z: frozenset[int], y: int) -> None:
    """Give h = g/(Z -> y), one reduction step's contraction, the rows g
    has cached at vertices outside Z = z, instead of new searches.

    With K = V(g) - Z kept, row_h(v) = (row_g(v) & K) + ({y} if v is in
    row_h(y)) for each v in K whose row g has cached; row_h(y) is one
    search on h, run only when some row is carried. The v in K are
    dependent with y in h iff y is with v, so the formula holds once,
    for v, w in K, h - v - w is matchable iff g - v - w is.

    Proof. g is matching covered (Fact 3 of decompose.py), and the step
    cut, the boundary of Z, is witnessed, hence tight (Fact 1 of
    verify.py), so Z is odd.
    (<=) Part (b) of cuts.classify_cut's proof, with X = Z: a perfect
    matching of h - v - w has one edge at y, a cut edge, which lies in a
    perfect matching N of g that meets the cut only there, and N's edges
    inside Z complete it to one of g - v - w.
    (=>) A perfect matching N of g - v - w covers Z, which is odd, so it
    meets the cut an odd number of times. It meets it at most twice, as
    follows, so exactly once, and its edges outside Z, with the cut
    edge's end in Z renamed y, are a perfect matching of h - v - w.
    - Barrier step: K is the holder H of the barrier P inside Z. Every
      cut edge joins H to P, and the |P| - 1 other odd components of
      g - P lie in Z; each is odd and misses v and w, so N matches it
      to its own member of P, and at most one member is left for H:
      N meets the cut at most once.
    - Two-separation step: Z is a side of the separation less one
      vertex of the pair. No edge joins the two sides off the pair, so
      every cut edge ends in the pair, and N has at most one edge at
      each of its two vertices.
    The argument needs K to be such a holder or side, which every step
    of the reduction contracts around; it is not a rule for contraction
    in general.
    """
    carried = {v: row for v, row in g._memo("dependence_rows", dict).items()
               if v not in z}
    if not carried:
        return
    with_y = _dependence_row(h, y)
    rows = h._memo("dependence_rows", dict)
    for v, row in carried.items():
        rows.setdefault(v, (row - z) | ({y} if v in with_y else set()))


def _without_pair(adj: list[list[int]], start: list[int], i: int,
                  j: int) -> tuple[list[int], list[bool]] | None:
    """A perfect matching of g - i - j over positions, with its dead
    flags, from a perfect matching start of g; None when there is none.

    It is start less ij, with no search, when ij is in start;
    otherwise start less its edges at i and j leaves only the mates i'
    and j' exposed, so one search from i' in g - i - j augments iff
    g - i - j is matchable.
    """
    match = start[:]
    dead = [False] * len(adj)
    dead[i] = dead[j] = True
    if match[i] == j:
        match[i] = match[j] = -1
    else:
        a, b = match[i], match[j]
        match[i] = match[j] = match[a] = match[b] = -1
        if _alternating_search(adj, match, dead, a) is not None:
            return None
    return match, dead


def _closed_cycles(g: Graph):
    """(u, x, N) for each alternating cycle Q that _covers_every_edge
    closed on g, with N = M xor Q as a position list: the perfect
    matching through ux that the cycle shows, for M g's cached one.

    A filed search ran from u's mate u' in g - u, on M less uu'; each
    of its targets x is outer and adjacent to u. N is that matching
    with u matched to x and the walk x, match[x], p[match[x]], ... back
    to u' flipped (_augment): Q is the walk with the edges ux and uu'.
    It runs g's coverage test first, which files the searches once per
    graph on a graph of at most TIGHT_CUT_LIMIT vertices with an odd
    cycle found matching covered; on any other graph it yields nothing.
    """
    if not is_matching_covered(g):
        return
    for u, match, p, targets in g._memo("closed_cycles", tuple):
        for x in targets:
            cycle = match[:]
            _augment(cycle, p, u, x)
            yield u, x, cycle


def _matching_partners(g: Graph) -> tuple[list[list[int]], dict]:
    """A few perfect matchings of g, for g with one, as position lists,
    and the memo that _comatchable_among reads during one tight-cut
    enumeration.

    Parallel edges form one class, the pair ij of end positions, i < j.
    The matchings are g's cached one, first, then those of the
    alternating cycles g's coverage test closed (_closed_cycles, which
    runs the test first), with no search: on a matching covered g with
    an odd cycle they hold every class. Then, for each class ij in
    sorted order that none found so far holds, _without_pair's perfect
    matching of g - i - j plus ij, one search each: on a bipartite g,
    whose D(M) walk closes no explicit cycle, on a g that is not
    matching covered, and for an inadmissible class, where a None shows
    that ij is in no perfect matching.

    The memo holds, under every class ij, the first found matching
    through ij, from which _comatchable_among derives _without_pair's
    answer with no search on its first read, or the answer itself when
    a search was run for ij.
    """
    memo: dict = {}
    index, adj = g.positions()
    start = _search_mates(g)
    matchings: list[list[int]] = []

    def take(match: list[int]) -> None:
        matchings.append(match)
        for i, j in enumerate(match):
            if i < j:
                memo.setdefault((i, j), match)

    take(start)
    for _, _, cycle in _closed_cycles(g):
        take(cycle)
    for i, j in sorted({(index[u], index[v]) for _, (u, v) in g.edge_items()}):
        if (i, j) in memo:
            continue
        got = memo[i, j] = _without_pair(adj, start, i, j)
        if got is not None:
            match = got[0][:]
            match[i], match[j] = j, i
            take(match)
    return matchings, memo


def _comatchable_among(g: Graph, eids, memo: dict) -> bool:
    """True iff two of the edges eids lie together in some perfect
    matching of g, which must have one.

    Co-matchability depends only on the end positions, so parallel
    edges are one class ij, with i < j, and the classes go in sorted
    order. For each ij, _without_pair gives a perfect matching of
    g - i - j, or shows that ij is in no perfect matching; then for each
    later class xy disjoint from ij, one _row_search from x says whether
    g - i - j - x - y is matchable, and the first such y answers True.
    That is at most |eids|^2 / 2 searches, and no blossom run. Every
    step is exact, so the answer does not depend on which perfect
    matching of g - i - j is used.

    The memo is a dict that lives for one question (is_tight passes a
    fresh one) or for one graph's tight-cut enumeration, filled by
    _matching_partners with a perfect matching through every class, or
    _without_pair's answer for it. A class the memo has not seen starts
    from g's cached matching; a matching (a list) becomes the answer on
    its first read here, with no search when it holds ij. Each row
    search is kept in it under (i, j, x) and runs to the end, so its
    flags are exact at every y, and a later cut with edges at ij and x
    reads them without a search.
    """
    index, adj = g.positions()
    start = _search_mates(g)
    pos = sorted({(index[u], index[v]) for u, v in map(g.edge_ends, eids)})
    for k, (i, j) in enumerate(pos):
        got = memo.get((i, j), start)
        if type(got) is list:
            got = memo[i, j] = _without_pair(adj, got, i, j)
        if got is None:
            continue
        match, dead = got
        for x, y in pos[k + 1:]:
            if dead[x] or dead[y]:
                continue
            if (i, j, x) in memo:
                outer = memo[i, j, x]
            else:
                outer = memo[i, j, x] = _row_search(adj, match[:], dead, x)
            if outer[y]:
                return True
    return False


def matching_number(g: Graph) -> int:
    """Size of a maximum matching of g, read off its cached one. For
    g less a vertex set, ask on g.without_vertices(...)."""
    return (g.n - _search_mates(g).count(-1)) // 2


def is_matchable(g: Graph) -> bool:
    """True iff g has a perfect matching: even order, and the cached
    maximum matching exposes no vertex. Odd order is answered before
    any search runs.

    The graph on zero vertices counts as matchable (its empty matching
    is perfect); the single vertex does not.
    """
    return g.n % 2 == 0 and -1 not in _search_mates(g)


def find_perfect_matching(g: Graph) -> Matching | None:
    """g's cached maximum matching as a Matching when is_matchable(g),
    else None, computed once per graph.

    Parallel mates use the least edge id. The cache keeps the edge ids
    only, and the Matching is built on return, so the cache holds no
    reference back to g.
    """
    found = g._memo("perfect_matching", _perfect_matching_ids, g)
    return None if found is None else Matching(found, g)


def _perfect_matching_ids(g: Graph) -> frozenset[int] | None:
    if not is_matchable(g):
        return None
    verts = g.vertices
    return frozenset(min(g.edges_between(verts[i], verts[j]))
                     for i, j in enumerate(_search_mates(g)) if i < j)


def perfect_matching_masks(g: Graph) -> tuple[int, ...]:
    """All perfect matchings as edge-id bitmasks, sorted ascending.

    Parallel edges give distinct matchings. Backtracking always extends
    from the smallest uncovered vertex and abandons a branch once some
    uncovered vertex has no uncovered neighbour. That test is local, so
    a branch can still die deep down without a matching, and the work
    can exceed the number of matchings exponentially; the routine uses
    nothing else of this module, so it can check the rest.
    """
    if g.n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate perfect matchings on {g.n} vertices "
            f"(limit {ENUMERATION_LIMIT})")
    return g._memo("pm_masks", _backtrack_masks, g)


def _backtrack_masks(g: Graph) -> tuple[int, ...]:
    """perfect_matching_masks' backtracking over an explicit stack of
    (uncovered vertices, edges chosen) branches, so a call leaves no
    reference cycle behind; the masks are sorted on return, so the
    order branches are taken in does not show."""
    masks: list[int] = []
    stack = [(g.vertex_set, 0)] if g.n % 2 == 0 else []
    while stack:
        remaining, acc = stack.pop()
        if not remaining:
            masks.append(acc)
            continue
        if any(remaining.isdisjoint(g.neighbors(u)) for u in remaining):
            continue
        v = min(remaining)
        for w in g.neighbors(v):
            if w in remaining:
                rest = remaining - {v, w}
                stack.extend((rest, acc | 1 << eid)
                             for eid in g.edges_between(v, w))
    return tuple(sorted(masks))


def is_admissible(g: Graph, eid: int) -> bool:
    """True iff some perfect matching of g contains the edge uv: g has
    a perfect matching and v is in the dependence row of u."""
    u, v = g.edge_ends(eid)
    return is_matchable(g) and v in _dependence_row(g, u)


def _covers_every_edge(g: Graph) -> bool:
    """Every edge of g, which has a perfect matching M (the cached one),
    lies in one.

    An edge uv does iff g - u - v is matchable, iff v is in the
    dependence row of u; an edge of M needs no row. Each vertex keeps a
    count of its non-mate edges not yet known to be covered. Each round
    takes the vertex u with the largest count, the lowest position on
    ties, and runs one _row_search from its mate u' against its
    targets: every neighbour w != u', lower ones included, whose edge
    uw is not yet covered. The search stops once they are outer; its
    flags are read and dropped, never cached as a row. Afterwards u has
    no uncovered edge, so u is never a root again and there are at most
    n searches.

    The search also answers edges it was not asked about. For each
    target v, the walk v, match[v], p[match[v]], ... along its parent
    pointers is an even alternating path from u' to v in g - u (the
    walk _alternating_search's augmenting step applies), so with the
    edges u'u and uv it closes an M-alternating cycle Q through u.
    Every edge of Q lies in the perfect matching M xor Q. Its edges off
    M are marked covered, and both ends' counts drop; a vertex whose
    count reaches zero runs no search. A walk stops at a vertex an
    earlier walk of the same search passed, since the rest of its path
    is marked, so one search's walks take O(n) steps. Taking the
    busiest vertex first lets one search close the cycles that would
    otherwise take several.

    The answer does not depend on the order: an unmarked edge is asked
    about, and a target that is not outer is an edge in no perfect
    matching.

    On g of at most TIGHT_CUT_LIMIT vertices, an answer True files, once
    per graph, each search's root u, its match and parent lists and its
    targets: what rebuilds the perfect matching M xor Q of each cycle it
    closed (_closed_cycles), for tight-cut enumeration's shore walk.
    The lists are the ones the search ran on, so filing copies
    nothing; larger graphs, never enumerated, keep no record.
    """
    _, adj = g.positions()
    start = _search_mates(g)
    n = len(adj)
    dead = [False] * n
    # (u, match, parents, targets) per search, on graphs enumeration takes
    closed = [] if n <= TIGHT_CUT_LIMIT else None
    # a * n + b and b * n + a for each edge ab known to be covered
    covered: set[int] = set()
    # each vertex's non-mate neighbours whose edge is not yet covered;
    # every row holds the vertex's mate
    count = [len(row) - 1 for row in adj]
    while True:
        most = max(count)
        if not most:
            if closed is not None:
                g._memo("closed_cycles", tuple, closed)
            return True
        u = count.index(most)
        mate = start[u]
        row = u * n
        targets = [w for w in adj[u] if w != mate and row + w not in covered]
        match, p = start[:], [-1] * n
        outer = _row_search(adj, match, dead, u, targets, p)
        if not all(outer[w] for w in targets):
            return False
        if closed is not None:
            closed.append((u, match, p, targets))
        count[u] = 0
        for w in targets:
            covered.add(row + w)
            covered.add(w * n + u)
            count[w] -= 1
        # each walk ends at the root or where an earlier one passed
        walked = {mate}
        for x in targets:
            while x not in walked:
                walked.add(x)
                a = match[x]
                x = p[a]
                key = a * n + x
                if key not in covered:
                    covered.add(key)
                    covered.add(x * n + a)
                    count[a] -= 1
                    count[x] -= 1


def is_matching_covered(g: Graph) -> bool:
    """Connected, at least one edge, and every edge in some perfect
    matching, after one blossom run on g.

    A bipartite g, with cached perfect matching M and colour classes
    A, holding the vertex s at position 0, and B, is matching covered
    iff D(M) is strongly connected (Lovasz-Plummer, Matching Theory,
    1986, ch. 4), which one walk decides with no Edmonds search. An
    edge ab off M, with b = M(a'), lies in a perfect matching iff
    g - a - b is matchable, iff a' reaches a (_mate_walk's lemma): iff
    its arc a -> a' lies on a cycle. g is connected, so D(M), g with
    each M-edge contracted, is connected too, and every arc lies on a
    cycle iff D(M) is strongly connected: iff s reaches every A-vertex
    and every A-vertex reaches s. _mate_walk from s and M(s) flags both
    sets, the first as A-vertices and the second as their mates, so the
    answer is whether it flags every vertex.

    Otherwise at most one row search per vertex, none for an edge to a
    mate. Each search starts at the vertex with the most non-mate edges
    not yet covered, the lowest position on ties, asks about all of
    them, lower neighbours included, and clears that vertex; a vertex
    whose edges all lie on alternating cycles earlier searches closed
    runs none (_covers_every_edge). On g of at most TIGHT_CUT_LIMIT
    vertices found matching covered, those searches stay filed on g:
    tight-cut enumeration reads a perfect matching through every edge
    off them instead of searching for one (_matching_partners)."""
    def build() -> bool:
        if not (g.n >= 2 and g.m >= 1 and g.is_connected()
                and is_matchable(g)):
            return False
        if not _is_bipartite(g):
            return _covers_every_edge(g)
        mates = _search_mates(g)
        return all(_mate_walk(g.positions()[1], mates, (0, mates[0])))

    return g._memo("matching_covered", build)


def _shore_missable(g: Graph, side) -> frozenset[int] | None:
    """D(g[side]), the vertices some maximum matching of the subgraph
    induced by side misses, when exactly one vertex r of side has no
    mate inside side in g's cached maximum matching M; else None.

    M's edges inside side are then a matching of g[side] that misses
    only r. The other vertices of side are matched in pairs, so side has
    odd order and no matching of g[side] misses fewer: it is maximum.
    So the search from r, on g's own rows with every vertex outside
    side dead and M less its edge at r, cannot augment, and its outer
    vertices are those an even alternating path from r reaches, which
    are exactly D(g[side]) (_alternating_search; _row_search relies on
    the same fact). With every vertex of side as a target the search
    stops early only once all are outer, so its flags are exact either
    way, and no blossom runs on the subgraph.

    With side = V(g) no vertex is dead and r is the one vertex M
    misses: every maximum matching of g then misses one vertex, so
    g - v is matchable iff v is in D(g). is_critical asks it of every
    v, and structure._dependent_partners of g - v for each v. The
    barrier step of decompose.py (_shore_candidates) reads it for each
    shore S of the tight reference cut, which M meets once: r is the
    end in S of that one cut edge. The dead-cut loop of structure.py
    (_strict_barrier_in) reads it for S - a, for each vertex a of a
    shore S of a dead cut, which M avoids: r is a's mate.
    """
    index, adj = g.positions()
    match = _search_mates(g)[:]
    dead = [True] * g.n
    live = [index[v] for v in side]
    for i in live:
        dead[i] = False
    loose = [i for i in live if match[i] == -1 or dead[match[i]]]
    if len(loose) != 1:
        return None
    [r] = loose
    if match[r] != -1:
        match[match[r]] = -1
        match[r] = -1
    outer = _alternating_search(adj, match, dead, r, live)
    if outer is None:
        raise InternalInvariantError(
            "search from the sole exposed vertex of a maximum matching "
            "augmented")
    return frozenset(v for v, o in zip(g.vertices, outer) if o)


def is_critical(g: Graph) -> bool:
    """g - v matchable for every single vertex v.

    Requires at least two vertices, which forces odd order; the single
    vertex is not critical. One search decides it. g - v has even
    order n - 1, so it is matchable iff some maximum matching of g has
    (n - 1)/2 edges and misses v. So g is critical iff its cached
    maximum matching misses exactly one vertex, and every vertex is
    missed by some maximum matching: D(G) = V in the Gallai-Edmonds
    decomposition, read by _shore_missable on all of g.
    """
    if g.n < 2 or g.n % 2 == 0:
        return False
    missed = _shore_missable(g, g.vertex_set)
    return missed is not None and len(missed) == g.n


def is_bicritical(g: Graph) -> bool:
    """g - u - v matchable for every vertex pair; K2 qualifies.

    Two vertices qualify with or without an edge: deleting both leaves
    the empty graph. On four or more, a bicritical graph has a perfect
    matching: u has a neighbour w, or deleting two other vertices would
    leave u isolated, and a perfect matching of g - u - w plus uw is
    one of g. Then the pair condition says every dependence row is
    V - u.
    """
    if g.n < 2 or g.n % 2:
        return False
    return g.n == 2 or (is_matchable(g) and all(
        len(_dependence_row(g, u)) == g.n - 1 for u in g.vertices))
