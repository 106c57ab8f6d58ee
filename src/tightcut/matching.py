"""Perfect matchings and the predicates built on them.

The polynomial-time core is one Edmonds alternating search
(_alternating_search) over a vertex index, sorted adjacency and g's
cached maximum matching over positions, all built once per graph.
Everything else reduces to matchability queries on vertex-deleted
subgraphs, answered in one of two ways:

- Dependence rows. When g has a perfect matching M, row(x) is the set
  of v with g - x - v matchable: the outer vertices of one search from
  the mate x' of x in g - x, started from M - xx' (_row_search). One
  search answers every pair query at x, so n searches answer all
  O(n^2) of them. is_admissible and is_bicritical here, and the
  dependence classes of cuts.py, structure.py and decompose.py, read
  the rows, cached per graph.
- Searches with targets. A search given target positions stops as
  soon as every target is outer; its flags are then exact on the
  targets only, so the caller reads its targets and nothing else, and
  such flags are never cached as a row. is_matching_covered runs one
  per vertex against its higher non-mate neighbours, the co-matchable
  searches one per row they read, and _missable a single one from
  the vertex its maximum matching misses, against every vertex, which
  is exact everywhere: it stops early only once all are outer.
  is_critical reads it, and so do barrier search on a graph with no
  perfect matching and the reduction's barrier step, on each shore
  subgraph.

Co-matchability, whether two disjoint edges lie together in some
perfect matching, is decided by those searches alone: per edge uv, one
search for a perfect matching of g - u - v (_without_pair), then
_row_search in g - u - v from it. The co-matchable edge table
(_comatchable_masks), which tight-cut enumeration reads, runs them for
every edge; _comatchable_among, which is_tight calls, for the edges of
one cut.

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

from dataclasses import dataclass, field

from .graph import (
    EnumerationLimitError,
    Graph,
    GraphError,
    InternalInvariantError,
)

ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges of a host graph."""

    edges: frozenset[int]
    graph: Graph = field(compare=False, repr=False)

    def __post_init__(self):
        seen: set[int] = set()
        for eid in self.edges:
            u, v = self.graph.edge_ends(eid)
            if u in seen or v in seen:
                raise GraphError(f"edges share a vertex: {sorted(self.edges)}")
            seen.add(u)
            seen.add(v)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.graph.n

    def __repr__(self):
        return f"Matching({sorted(self.edges)})"


def _search_index(g: Graph) -> tuple[tuple[int, ...], dict[int, int],
                                     list[list[int]]]:
    """The sorted vertices of g, their positions, and sorted adjacency
    rows over positions (parallel edges merged), built once per graph."""
    return g._memo("search_index", _index_rows, g)


def _index_rows(g: Graph):
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    return verts, index, [[index[w] for w in g.neighbors(v)] for v in verts]


def _alternating_search(adj: list[list[int]], match: list[int],
                        dead: list[bool], root: int,
                        targets=None) -> list[bool] | None:
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
    """
    n = len(adj)
    p = [-1] * n
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
                    cur = to
                    while cur != -1:
                        prev = p[cur]
                        nxt = match[prev]
                        match[cur] = prev
                        match[prev] = cur
                        cur = nxt
                    return None
                outer[match[to]] = True
                queue.append(match[to])
                pending.discard(match[to])
                if targets is not None and not pending:
                    return outer
    return outer


def _blossom_mates(g: Graph) -> list[int]:
    """Maximum matching of g over search positions: the position of
    each vertex's mate, or -1 if it is exposed.

    Starts from a greedy matching in sorted order, then runs
    _alternating_search from every exposed vertex once, O(V^3).
    Everything is sorted, so the result is deterministic.
    """
    _, _, adj = _search_index(g)
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
                x: int, targets=None) -> list[bool]:
    """Outer flags of one search from the mate of x with x deleted, where
    match is a perfect matching of the live vertices.

    match less the edge at x is a maximum matching of the live graph
    less x that misses only the mate, so v is outer iff deleting v too
    leaves a perfect matching. The search cannot augment, since that
    graph has odd order, so it may stop early: with targets, the flags
    are exact on the targets only (see _alternating_search). match is
    consumed; dead is restored.
    """
    mate = match[x]
    match[x] = match[mate] = -1
    dead[x] = True
    outer = _alternating_search(adj, match, dead, mate, targets)
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


def _dependence_row(g: Graph, x: int) -> frozenset[int]:
    """Every v with g - x - v matchable, for g with a perfect matching:
    the outer vertices of _row_search from x's mate in g's cached
    perfect matching, run to the end. Rows are cached per graph, and
    only complete rows are.
    """
    rows = g._memo("dependence_rows", dict)
    got = rows.get(x)
    if got is None:
        verts, index, adj = _search_index(g)
        outer = _row_search(adj, _search_mates(g)[:],
                            [False] * len(verts), index[x])
        got = rows[x] = frozenset(v for v, o in zip(verts, outer) if o)
    return got


def _without_pair(adj: list[list[int]], start: list[int], i: int,
                  j: int) -> tuple[list[int], list[bool]] | None:
    """A perfect matching of g - i - j over positions, with its dead
    flags, from g's perfect matching start; None when there is none.

    It is start less ij when ij is in start; otherwise start less its
    edges at i and j leaves only the mates i' and j' exposed, so one
    search from i' in g - i - j augments iff g - i - j is matchable.
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


def _comatchable_masks(g: Graph) -> dict[int, int]:
    """Each edge id of g mapped to the bitmask of the edge ids that lie
    with it in some perfect matching, for g with a perfect matching.

    Co-matchability depends only on the end pairs, so parallel edges
    share one row, and it is symmetric: a pair uv takes its partners wz
    with w > min(u, v) from its own searches and the rest from earlier
    pairs. For uv, _without_pair gives a perfect matching N of
    g - u - v, or shows that uv is inadmissible and has no partner.
    Then for each w with a higher neighbour, one search from the N-mate
    of w in g - u - v - w gives every z with g - u - v - w - z
    matchable as an outer vertex (_row_search); that search stops once
    w's higher live neighbours, the only flags it reads, are outer.
    That is at most m * n searches, cached per graph.
    """
    return g._memo("comatchable", _comatchable_table, g)


def _comatchable_table(g: Graph) -> dict[int, int]:
    verts, index, adj = _search_index(g)
    n = len(verts)
    if not is_matchable(g):
        raise GraphError("co-matchable edges need a perfect matching")
    start = _search_mates(g)
    # (i, j) with i < j -> bitmask of the edges joining them
    bits: dict[tuple[int, int], int] = {}
    for eid, (u, v) in g.edge_items():
        key = (index[u], index[v])
        bits[key] = bits.get(key, 0) | 1 << eid
    partners = dict.fromkeys(bits, 0)
    above = [[z for z in adj[w] if z > w] for w in range(n)]
    for i, j in sorted(bits):
        got = _without_pair(adj, start, i, j)
        if got is None:
            continue
        match, dead = got
        for w in range(i + 1, n):
            if dead[w]:
                continue
            higher = [z for z in above[w] if not dead[z]]
            if not higher:
                continue
            outer = _row_search(adj, match[:], dead, w, higher)
            for z in higher:
                if outer[z]:
                    partners[i, j] |= bits[w, z]
                    partners[w, z] |= bits[i, j]
    return {eid: partners[index[u], index[v]]
            for eid, (u, v) in g.edge_items()}


def _comatchable_among(g: Graph, pairs) -> bool:
    """True iff two disjoint pairs among pairs, each the two ends of an
    edge of g, lie together in some perfect matching of g, which must
    have one.

    The pairs go in sorted position order. For each ij, _without_pair
    gives a perfect matching of g - i - j, or shows that ij is in no
    perfect matching; then for each later pair xy disjoint from ij, one
    _row_search from x with target y says whether g - i - j - x - y is
    matchable, and the first such y answers True. That is at most
    |pairs|^2 / 2 searches, and no blossom run.
    """
    _, index, adj = _search_index(g)
    start = _search_mates(g)
    pos = sorted((index[u], index[v]) for u, v in pairs)
    for k, (i, j) in enumerate(pos):
        got = _without_pair(adj, start, i, j)
        if got is None:
            continue
        match, dead = got
        for x, y in pos[k + 1:]:
            if not (dead[x] or dead[y]) and _row_search(
                    adj, match[:], dead, x, (y,))[y]:
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
    masks: list[int] = []
    if g.n % 2 == 0:

        def extend(remaining: frozenset, acc: int) -> None:
            if not remaining:
                masks.append(acc)
                return
            if any(remaining.isdisjoint(g.neighbors(u)) for u in remaining):
                return
            v = min(remaining)
            for w in g.neighbors(v):
                if w not in remaining:
                    continue
                rest = remaining - {v, w}
                for eid in g.edges_between(v, w):
                    extend(rest, acc | (1 << eid))

        extend(g.vertex_set, 0)
    return tuple(sorted(masks))


def all_perfect_matchings(g: Graph) -> list[Matching]:
    out = []
    for mask in perfect_matching_masks(g):
        eids = frozenset(eid for eid in g.edge_ids if mask >> eid & 1)
        out.append(Matching(eids, g))
    return out


def is_admissible(g: Graph, eid: int) -> bool:
    """True iff some perfect matching of g contains the edge uv: g has
    a perfect matching and v is in the dependence row of u."""
    u, v = g.edge_ends(eid)
    return is_matchable(g) and v in _dependence_row(g, u)


def _covers_every_edge(g: Graph) -> bool:
    """Every edge of g, which has a perfect matching, lies in one.

    An edge uv does iff g - u - v is matchable, iff v is in the
    dependence row of u. An edge joining u to its mate in the cached
    perfect matching needs no row. Each vertex u with another neighbour
    of higher label runs one _row_search, which stops once those
    neighbours are outer; the partial flags are read and dropped, never
    cached as a row.
    """
    _, _, adj = _search_index(g)
    start = _search_mates(g)
    dead = [False] * len(adj)
    for u, mate in enumerate(start):
        higher = [w for w in adj[u] if w > u and w != mate]
        if higher:
            outer = _row_search(adj, start[:], dead, u, higher)
            if not all(outer[w] for w in higher):
                return False
    return True


def is_matching_covered(g: Graph) -> bool:
    """Connected, at least one edge, and every edge in some perfect
    matching: one blossom run on g, then at most one row search per
    vertex and none for an edge to a mate (_covers_every_edge)."""
    return g._memo("matching_covered", lambda: (
        g.n >= 2 and g.m >= 1 and g.is_connected()
        and is_matchable(g) and _covers_every_edge(g)))


def _missable(g: Graph) -> frozenset[int] | None:
    """D(g), the vertices some maximum matching of g misses, when g's
    cached maximum matching M misses exactly one vertex r; else None.

    M is maximum, so the search from r cannot augment, and its outer
    vertices are those an even alternating path from r reaches, which
    are exactly D(g) (_alternating_search; _row_search relies on the
    same fact). With every vertex as a target the search stops early
    only once all are outer, so its flags are exact either way. Every
    maximum matching then misses one vertex, so g - v is matchable iff
    v is in D(g): is_critical asks it of every v, and
    structure._dependent_partners of g - v for each v. The barrier step
    of decompose.py (_shore_candidates) reads D(g[S]) of each shore S
    of the reference cut: the v in it are the vertices of S that are
    not dependent with the contracted other shore.
    """
    verts, _, adj = _search_index(g)
    start = _search_mates(g)
    if start.count(-1) != 1:
        return None
    n = len(adj)
    outer = _alternating_search(adj, start[:], [False] * n,
                                start.index(-1), range(n))
    if outer is None:
        raise InternalInvariantError(
            "search from the sole exposed vertex of a maximum matching "
            "augmented")
    return frozenset(v for v, o in zip(verts, outer) if o)


def is_critical(g: Graph) -> bool:
    """g - v matchable for every single vertex v.

    Requires at least two vertices, which forces odd order; the single
    vertex is not critical. One search decides it. g - v has even
    order n - 1, so it is matchable iff some maximum matching of g has
    (n - 1)/2 edges and misses v. So g is critical iff its cached
    maximum matching misses exactly one vertex, and every vertex is
    missed by some maximum matching: D(G) = V in the Gallai-Edmonds
    decomposition, read by _missable.
    """
    if g.n < 2 or g.n % 2 == 0:
        return False
    missed = _missable(g)
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
