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
  such flags are never cached as a row. is_tight's co-matchable
  searches run one per pair they ask about. is_matching_covered runs
  at most one per vertex, busiest first: from the vertex with the most
  non-mate edges not yet covered, against all of those neighbours, and
  keeps what each search shows besides: the parent pointers lead each
  target back to the root, closing an alternating cycle whose edges
  all lie in perfect matchings, so later vertices have fewer targets
  or none (_covers_every_edge). _missable runs a single one from the
  vertex its maximum matching misses, against every vertex, which is
  exact everywhere: it stops early only once all are outer.
  is_critical reads it, and so does barrier search on a graph with no
  perfect matching. _shore_missable runs the same search on g's own
  index with every vertex outside a shore dead, for the reduction's
  barrier step: no blossom runs on the shore subgraph.

Co-matchability, whether two disjoint edges lie together in some
perfect matching, is decided by one routine, _comatchable_among, with
those searches alone: per edge uv, one search for a perfect matching
of g - u - v (_without_pair), then _row_search in g - u - v from it.
is_tight asks it of one cut's edges. Tight-cut enumeration asks it only
of the shores that _matching_partners' few perfect matchings, one
search per edge class at most, leave unrefuted, through a memo of full
rows that lives for one enumeration.

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
    return verts, index, [[index[w] for w in row] for row in g.neighbor_rows()]


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
    alternating path from it: the walk the augmenting step applies.
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


def _matching_partners(g: Graph) -> tuple[dict[int, int], dict]:
    """Each edge's bit mapped to a mask of edges that lie with it in one
    of a few perfect matchings of g, for g with one: a subset of its
    co-matchable partners, found with at most one search per edge class.
    It also returns the memo that _comatchable_among reads during one
    tight-cut enumeration.

    Parallel edges form one class, the pair ij of end positions, i < j.
    The matchings are g's cached one, then, for each class ij in sorted
    order that none found so far contains, _without_pair's perfect
    matching of g - i - j plus ij; a None there shows that ij is in no
    perfect matching, and its edges get no partner. A perfect matching
    holds one edge of each of its classes, and any edge of a class may
    stand in for it, so two edges of two of its classes are
    co-matchable: an edge's mask, the edges of every found matching
    through its class less that class, lists partners only.

    The memo holds, under every class ij, _without_pair's answer for
    it: the first found matching through ij less ij, with no search, or
    the search's result.
    """
    memo: dict = {}
    _, index, adj = _search_index(g)
    start = _search_mates(g)
    keys = {1 << eid: (index[u], index[v]) for eid, (u, v) in g.edge_items()}
    bits: dict[tuple[int, int], int] = {}
    for bit, key in keys.items():
        bits[key] = bits.get(key, 0) | bit
    # class -> the edges of every found matching through it
    through = dict.fromkeys(bits, 0)

    def take(match: list[int]) -> None:
        classes = [(i, j) for i, j in enumerate(match) if i < j]
        edges = sum(bits[key] for key in classes)
        for key in classes:
            through[key] |= edges
            if key not in memo:
                memo[key] = _without_pair(adj, match, *key)

    take(start)
    for i, j in sorted(bits):
        if (i, j) in memo:
            continue
        got = memo[i, j] = _without_pair(adj, start, i, j)
        if got is not None:
            match = got[0][:]
            match[i], match[j] = j, i
            take(match)
    return {bit: through[key] & ~bits[key] for bit, key in keys.items()}, memo


def _comatchable_among(g: Graph, eids, memo: dict | None = None) -> bool:
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

    Without memo each row search has the target y and stops once y is
    outer, as is_tight asks. A memo is a dict that lives for one
    graph's tight-cut enumeration, filled by _matching_partners with
    _without_pair's answer for every class. Each row search is kept in
    it under (i, j, x) and runs to the end, so its flags are exact at
    every y, and a later cut with edges at ij and x reads them without
    a search.
    """
    _, index, adj = _search_index(g)
    start = _search_mates(g)
    pos = sorted({(index[u], index[v]) for u, v in map(g.edge_ends, eids)})
    for k, (i, j) in enumerate(pos):
        got = _without_pair(adj, start, i, j) if memo is None else memo[i, j]
        if got is None:
            continue
        match, dead = got
        for x, y in pos[k + 1:]:
            if dead[x] or dead[y]:
                continue
            if memo is None:
                outer = _row_search(adj, match[:], dead, x, (y,))
            elif (i, j, x) in memo:
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
    """
    _, _, adj = _search_index(g)
    start = _search_mates(g)
    n = len(adj)
    dead = [False] * n
    # a * n + b and b * n + a for each edge ab known to be covered
    covered: set[int] = set()
    # each vertex's non-mate neighbours whose edge is not yet covered;
    # every row holds the vertex's mate
    count = [len(row) - 1 for row in adj]
    while True:
        most = max(count)
        if not most:
            return True
        u = count.index(most)
        mate = start[u]
        row = u * n
        targets = [w for w in adj[u] if w != mate and row + w not in covered]
        match, p = start[:], [-1] * n
        outer = _row_search(adj, match, dead, u, targets, p)
        if not all(outer[w] for w in targets):
            return False
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
    matching: one blossom run on g, then at most one row search per
    vertex, none for an edge to a mate. Each search starts at the
    vertex with the most non-mate edges not yet covered, the lowest
    position on ties, asks about all of them, lower neighbours
    included, and clears that vertex; a vertex whose edges all lie on
    alternating cycles earlier searches closed runs none
    (_covers_every_edge)."""
    return g._memo("matching_covered", lambda: (
        g.n >= 2 and g.m >= 1 and g.is_connected()
        and is_matchable(g) and _covers_every_edge(g)))


def _missed_from(verts, adj: list[list[int]], match: list[int],
                 dead: list[bool], root: int) -> frozenset[int]:
    """D of the live graph, the vertices some maximum matching of it
    misses, where match is a maximum matching of the live vertices that
    misses only root.

    match is maximum, so the search from root cannot augment, and its
    outer vertices are those an even alternating path from root
    reaches, which are exactly D (_alternating_search; _row_search
    relies on the same fact). With every live vertex as a target the
    search stops early only once all are outer, so its flags are exact
    either way. match is consumed.
    """
    live = [i for i, d in enumerate(dead) if not d]
    outer = _alternating_search(adj, match, dead, root, live)
    if outer is None:
        raise InternalInvariantError(
            "search from the sole exposed vertex of a maximum matching "
            "augmented")
    return frozenset(v for v, o in zip(verts, outer) if o)


def _missable(g: Graph) -> frozenset[int] | None:
    """D(g), the vertices some maximum matching of g misses, when g's
    cached maximum matching M misses exactly one vertex r; else None.

    One search from r (_missed_from). Every maximum matching then
    misses one vertex, so g - v is matchable iff v is in D(g):
    is_critical asks it of every v, and structure._dependent_partners
    of g - v for each v.
    """
    verts, _, adj = _search_index(g)
    start = _search_mates(g)
    if start.count(-1) != 1:
        return None
    return _missed_from(verts, adj, start[:], [False] * len(adj),
                        start.index(-1))


def _shore_missable(g: Graph, side) -> frozenset[int] | None:
    """D(g[side]), the vertices some maximum matching of the subgraph
    induced by side misses, when exactly one vertex r of side has no
    mate inside side in g's cached maximum matching M; else None.

    M's edges inside side are then a matching of g[side] that misses
    only r. The other vertices of side are matched in pairs, so side has
    odd order and no matching of g[side] misses fewer: it is maximum.
    One search from r on g's own index, with every vertex outside side
    dead and M less its edge at r (_missed_from), gives D(g[side]), and
    no blossom runs on the subgraph. The barrier step of decompose.py
    (_shore_candidates) reads it for each shore S of the tight reference
    cut, which M meets once: r is the end in S of that one cut edge.
    """
    verts, index, adj = _search_index(g)
    match = _search_mates(g)[:]
    dead = [True] * len(adj)
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
    return _missed_from(verts, adj, match, dead, r)


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
