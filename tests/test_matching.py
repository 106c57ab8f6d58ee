"""Matching kernel against the brute-force oracle."""

from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tightcut import matching
from tightcut.cuts import classify_cut, enumerate_tight_cuts, is_tight
from tightcut.graph import EnumerationLimitError, Graph
from tightcut.instances import (
    CorpusSpec, canonical, enumerate_corpus, fixture_instances)
from tightcut.matching import (
    ENUMERATION_LIMIT,
    _dependence_row,
    _shore_missable,
    all_perfect_matchings,
    find_perfect_matching,
    is_admissible,
    is_bicritical,
    is_critical,
    is_matchable,
    is_matching_covered,
    matching_number,
    perfect_matching_masks,
)
from tightcut.structure import barrier_core, enumerate_barriers

from conftest import (
    brute_is_critical,
    brute_is_matching_covered,
    brute_matching_numbers,
    brute_max_matching,
    brute_perfect_matchings,
    cycle,
    glued,
    inflated,
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    return n, edges


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_matching_number_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    assert matching_number(g) == brute_max_matching(range(n), edges)


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_perfect_matching_enumeration_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    expected = brute_perfect_matchings(range(n), edges)
    got = {m.edges for m in all_perfect_matchings(g)}
    assert got == expected
    found = find_perfect_matching(g)
    assert (found is not None) == bool(expected)
    if found is not None:
        assert found.edges in expected
        assert found.is_perfect


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_admissibility_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    pms = brute_perfect_matchings(range(n), edges)
    assert is_matchable(g) == bool(pms)
    for eid in g.edge_ids:
        assert is_admissible(g, eid) == any(eid in pm for pm in pms)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_matching_covered_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    assert is_matching_covered(g) == brute_is_matching_covered(range(n), edges)


def brute_is_bicritical(g, nu):
    return g.n >= 2 and all(2 * nu(g.vertex_set - {u, v}) == g.n - 2
                            for u, v in combinations(g.vertices, 2))


def test_matching_covered_matches_oracle_on_every_small_graph():
    """Every graph on the labels range(n), n <= 6, edgeless ones
    included: 33,868 edge sets, 3,193 of them matching covered and
    1,711 bicritical. Two vertices are bicritical with or without their
    edge: deleting both leaves the empty graph."""
    covered = bicritical = 0
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = Graph(range(n), edges)
            got = is_matching_covered(g)
            assert got == brute_is_matching_covered(range(n), edges), edges
            covered += got
            got = is_bicritical(g)
            assert got == brute_is_bicritical(
                g, brute_matching_numbers(range(n), edges)), edges
            bicritical += got
    assert is_bicritical(Graph(range(2)))
    assert (covered, bicritical) == (3193, 1711)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_critical_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    assert is_critical(g) == brute_is_critical(range(n), edges)


def test_critical_matches_oracle_on_every_small_odd_graph():
    """Every labelled graph on n in {1, 3, 5} vertices, and seeded random
    graphs on 7 and 9, against the one-search-per-vertex oracle. The
    oracle calls K1 critical; the package does not, by convention."""
    critical = 0
    for n in (1, 3, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            got = is_critical(Graph(range(n), edges))
            assert got == (n > 1 and brute_is_critical(range(n), edges)), (
                edges)
            critical += got
    assert critical == 1 + 233  # the triangle, and 233 graphs on five
    rng = Random(7)
    for n in (7, 9):
        pairs = list(combinations(range(n), 2))
        for _ in range(150):
            edges = rng.sample(pairs, rng.randint(n - 1, 3 * n))
            got = is_critical(Graph(range(n), edges))
            assert got == brute_is_critical(range(n), edges), edges


def _spy_searches(monkeypatch):
    """The graph of every _blossom_mates run, and the root of every
    search run outside one."""
    blossoms, searches, inside = [], [], []
    blossom, search = matching._blossom_mates, matching._alternating_search

    def spy_blossom(g):
        blossoms.append(g)
        inside.append(g)
        try:
            return blossom(g)
        finally:
            inside.pop()

    def spy_search(adj, match, dead, root, targets=None, parents=None):
        if not inside:
            searches.append(root)
        return search(adj, match, dead, root, targets, parents)

    monkeypatch.setattr(matching, "_blossom_mates", spy_blossom)
    monkeypatch.setattr(matching, "_alternating_search", spy_search)
    return blossoms, searches


def test_is_critical_runs_one_search(monkeypatch):
    # one blossom run on g, then a single search from the vertex its
    # maximum matching misses, in place of one blossom run per vertex
    blossoms, searches = _spy_searches(monkeypatch)
    g = cycle(9)
    assert is_critical(g)
    assert blossoms == [g]
    assert len(searches) == 1


def test_matching_number_with_parallel_edges():
    g = Graph(range(2), [(0, 1), (0, 1)])
    assert matching_number(g) == 1
    assert {m.edges for m in all_perfect_matchings(g)} == {
        frozenset({0}), frozenset({1})}
    assert is_matching_covered(g)


def test_hand_values(c6, k4):
    assert matching_number(c6) == 3
    assert len(all_perfect_matchings(c6)) == 2
    assert len(all_perfect_matchings(k4)) == 3
    assert is_matching_covered(c6)
    assert is_matching_covered(k4)
    assert not is_matchable(cycle(5))


def test_odd_cycle_critical():
    assert is_critical(cycle(5))
    assert not is_critical(cycle(6))
    assert not is_critical(Graph(range(1)))  # K1 by convention


def test_bicritical():
    assert is_bicritical(Graph(range(4), [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    assert not is_bicritical(cycle(6))


def test_path_not_matching_covered():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert is_matchable(g)
    assert not is_matching_covered(g)  # middle edge in no matching


def test_enumeration_guard_is_fixed():
    assert ENUMERATION_LIMIT == 24
    assert len(perfect_matching_masks(cycle(ENUMERATION_LIMIT))) == 2
    with pytest.raises(EnumerationLimitError):
        perfect_matching_masks(cycle(ENUMERATION_LIMIT + 2))


def test_one_blossom_run_on_the_graph_itself(monkeypatch):
    # is_matchable(g) and find_perfect_matching share one cached maximum
    # matching of g, so g itself goes through blossom once, and is_tight
    # reads row searches from it with no blossom run of its own
    blossoms, _ = _spy_searches(monkeypatch)
    for g, shore in ((cycle(6), range(3)), (glued(6), range(11))):
        blossoms.clear()
        assert is_matching_covered(g)
        assert is_tight(g, g.boundary(shore))
        assert blossoms == [g]


def test_is_matching_covered_runs_rows_not_one_blossom_per_edge(monkeypatch):
    # the route for graphs with an odd cycle, asked of a bipartite one,
    # where is_matching_covered walks D(M) instead: one blossom run on
    # g, then at most one row search per vertex, in place of one
    # blossom run per edge (66 here)
    blossoms, row_searches = _spy_searches(monkeypatch)
    g = glued(6)
    assert g.n == 22 and g.m == 66
    assert matching._covers_every_edge(g)
    assert blossoms == [g]
    assert 0 < len(row_searches) <= g.n


def test_is_matching_covered_reads_no_row_for_a_mate(monkeypatch):
    # _covers_every_edge, the route for graphs with an odd cycle, on
    # C6: its cached perfect matching is 01, 23, 45, and an edge to a
    # mate needs no search. 0's search, for 05, walks 5, 4, 3, 2, 1
    # back to its root 1: the alternating cycle it closes holds every
    # edge, so 1 (for 12) and 3 (for 34) run none. The partial flags it
    # stops with are never cached as rows
    starts = []
    search = matching._row_search

    def spy(adj, match, dead, x, targets=None, parents=None):
        starts.append(x)
        return search(adj, match, dead, x, targets, parents)

    monkeypatch.setattr(matching, "_row_search", spy)
    g = cycle(6)
    assert matching._covers_every_edge(g)
    assert starts == [0]
    assert not g._cache.get("dependence_rows")


@pytest.mark.parametrize("k, most", [(6, 9), (20, 37)])
def test_is_matching_covered_search_count(monkeypatch, k, most):
    # the cycles earlier searches close leave later vertices fewer
    # targets: _covers_every_edge on glued k = 6 and k = 20 needs at
    # most 9 and 37 searches after the blossom run, against 15 and 57
    # with one search per vertex that has a higher non-mate neighbour
    blossoms, searches = _spy_searches(monkeypatch)
    g = glued(k)
    assert matching._covers_every_edge(g)
    assert blossoms == [g]
    assert 0 < len(searches) <= most


def test_bipartite_graphs_run_no_search(monkeypatch):
    """On bipartite graphs is_matching_covered and the dependence rows
    of both classify_cut shores walk D(M): after the blossom run on g,
    no Edmonds search runs at all."""
    blossoms, searches = _spy_searches(monkeypatch)
    for g, shore in ((cycle(6), range(3)), (glued(6), range(11)),
                     (glued(20), range(39))):
        blossoms.clear()
        assert is_matching_covered(g)
        assert classify_cut(g, g.boundary(shore)).witnessed
        assert len(g._cache["dependence_rows"]) == 2
        assert blossoms == [g]
    assert searches == []


def _coverage_searches(graphs, monkeypatch):
    """Searches after the blossom run of is_matching_covered on a fresh
    copy of each graph, all of which must be matching covered."""
    _, searches = _spy_searches(monkeypatch)
    for g in graphs:
        assert is_matching_covered(Graph(g.vertices, dict(g.edge_items())))
    return len(searches)


def test_busiest_vertex_first_search_counts(monkeypatch):
    """Taking the vertex with the most uncovered non-mate edges first,
    against all of them, needs at most 507 searches on the 120 random
    n = 12 and 14 graphs of the certify_mixed set-up (spec seeds 12 and
    14), 6 on the five fixtures and 47 on the fixtures inflated at
    k = 3..5, against 805, 10 and 70 with one search per vertex in
    order against its higher neighbours."""
    rand = [g for n, samples in ((12, 80), (14, 40))
            for g in enumerate_corpus(CorpusSpec("random", n=n,
                                                 samples=samples, seed=n))]
    assert len(rand) == 120
    fixtures = [g for _, g, _ in fixture_instances()]
    grown = [inflated(g, shore, k)[0] for _, g, shore in fixture_instances()
             for k in (3, 4, 5)]
    assert _coverage_searches(rand, monkeypatch) <= 507
    assert _coverage_searches(fixtures, monkeypatch) <= 6
    assert _coverage_searches(grown, monkeypatch) <= 47


def _edmonds_row(g, x):
    """x's dependence row from _row_search run to the end on g's cached
    perfect matching, whether or not g is bipartite: the Edmonds route,
    kept as an oracle for the walk _dependence_row takes on bipartite
    graphs."""
    index, adj = g.positions()
    outer = matching._row_search(adj, matching._search_mates(g)[:],
                                 [False] * g.n, index[x])
    return frozenset(v for v, o in zip(g.vertices, outer) if o)


def _per_edge_rule(g):
    """The per-edge rule, kept as an oracle for is_matching_covered:
    connected, matchable, and for every edge uv, v is in u's dependence
    row, read by _edmonds_row."""
    if not (g.n >= 2 and g.m >= 1 and g.is_connected() and is_matchable(g)):
        return False
    rows = {u: _edmonds_row(g, u) for u in g.vertices}
    return all(v in rows[u] for u, v in map(g.edge_ends, g.edge_ids))


def _with_a_dependent_pair_joined(g):
    """g plus an edge between 0 and the least vertex w, not 0 or a
    neighbour of it, with g - 0 - w not matchable; None if there is no
    such w. For matching covered g that edge lies in no perfect
    matching, and every other edge still does."""
    row = _dependence_row(g, 0)
    w = min((v for v in g.vertices if v != 0 and v not in row
             and v not in g.neighbors(0)), default=None)
    if w is None:
        return None
    return Graph(g.vertices, [*map(g.edge_ends, g.edge_ids), (0, w)])


def _relabelled_with_parallels(g, rng):
    """g on shuffled sparse labels, with a seeded third of its edges
    doubled and the edge list shuffled."""
    labels = rng.sample(range(5 * g.n), g.n)
    relabel = dict(zip(g.vertices, labels))
    edges = [(relabel[u], relabel[v]) for u, v in map(g.edge_ends,
                                                      g.edge_ids)]
    edges += [e for e in edges if rng.random() < 1 / 3]
    rng.shuffle(edges)
    return Graph(labels, edges)


def test_is_matching_covered_matches_the_per_edge_rule():
    """Glued K_{k,k} pairs for k <= 20 and the pinned fixture cuts
    inflated at k = 2..7, each also with one edge in no perfect
    matching added; each of them also on shuffled sparse labels with
    parallel edges, where the answer must not change, since the root
    choice reads positions only."""
    graphs = [glued(k) for k in range(2, 21)]
    graphs += [inflated(g, shore, k)[0] for _, g, shore in fixture_instances()
               for k in range(2, 8)]
    graphs += [h for h in map(_with_a_dependent_pair_joined, graphs)
               if h is not None]
    rng = Random(41)
    got = Counter()
    for g in graphs:
        fresh = Graph(g.vertices, dict(g.edge_items()))
        want = _per_edge_rule(fresh)
        assert is_matching_covered(g) == want, g
        h = _relabelled_with_parallels(g, rng)
        assert is_matching_covered(h) == want == _per_edge_rule(
            Graph(h.vertices, dict(h.edge_items()))), h
        got[want] += 1
    assert got[True] > 0 and got[False] > 0


def _planted_bipartite(rng, half):
    """A bipartite graph on range(2 * half), classes range(half) and the
    rest, with a perfect matching planted under a seeded number of
    random edges across, parallel ones included."""
    perm = rng.sample(range(half, 2 * half), half)
    edges = list(enumerate(perm))
    edges += [(rng.randrange(half), rng.randrange(half, 2 * half))
              for _ in range(rng.randint(0, 3 * half))]
    return Graph(range(2 * half), edges)


def _bipartite_graphs(exhaustive_corpus):
    """The bipartite members of the exhaustive corpus; 120 seeded planted
    ones on 4 to 14 vertices, connected and not, each also on shuffled
    sparse labels with a third of its edges doubled; glued K_{k,k}
    pairs for k <= 20; and the cores of every barrier of the
    fixtures."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus
              if matching._is_bipartite(g)]
    rng = Random(34)
    for half in range(2, 8):
        for _ in range(20):
            g = _planted_bipartite(rng, half)
            graphs += [g, _relabelled_with_parallels(g, rng)]
    graphs += [glued(k) for k in range(2, 21)]
    graphs += [barrier_core(g, b) for _, g, _ in fixture_instances()
               for b in enumerate_barriers(g)]
    return graphs


def test_bipartite_walks_match_edmonds_rows_and_the_oracles(
        exhaustive_corpus):
    """On bipartite graphs with a perfect matching, is_matching_covered
    and every dependence row, which walk D(M), against the Edmonds
    route (_per_edge_rule, _edmonds_row) on fresh copies, and on up to
    12 vertices against exhaustive recursion too: brute coverage, and
    the v with nu(g - x - v) = n/2 - 1."""
    seen = Counter()
    for g in _bipartite_graphs(exhaustive_corpus):
        edges = [e for _, e in g.edge_items()]
        h = Graph(g.vertices, dict(g.edge_items()))
        assert matching._is_bipartite(h) and is_matchable(h), h
        want = _per_edge_rule(Graph(g.vertices, dict(g.edge_items())))
        assert is_matching_covered(h) == want, h
        rows = {x: _dependence_row(h, x) for x in h.vertices}
        fresh = Graph(g.vertices, dict(g.edge_items()))
        assert rows == {x: _edmonds_row(fresh, x) for x in h.vertices}, h
        if h.n <= 12:
            assert want == brute_is_matching_covered(h.vertices, edges), h
            nu = brute_matching_numbers(h.vertices, edges)
            for x, row in rows.items():
                assert row == {v for v in h.vertices if v != x and 2 * nu(
                    h.vertex_set - {x, v}) == h.n - 2}, (h, x)
        seen[h.is_connected(), want] += 1
    assert seen[True, True] > 100 and seen[True, False] > 20
    assert seen[False, False] > 20


def test_is_matching_covered_finds_the_one_uncovered_edge():
    """Connected graphs of order 8 to 12 with a perfect matching and
    exactly one edge in no perfect matching: two members of a
    nontrivial barrier of a matching covered graph, joined. Every edge
    of a cycle the searches close lies in a perfect matching, so the
    joined pair is never marked covered."""
    seen = 0
    for n in (8, 10, 12):
        spec = CorpusSpec("random", n=n, samples=60, seed=n)
        for g in enumerate_corpus(spec):
            for b in enumerate_barriers(g):
                for u, w in combinations(sorted(b.members), 2):
                    edges = [*map(g.edge_ends, g.edge_ids), (u, w)]
                    h = Graph(g.vertices, edges)
                    assert is_matchable(h) and h.is_connected()
                    covered = set().union(*brute_perfect_matchings(
                        h.vertices, edges))
                    assert covered == set(range(len(edges) - 1))
                    assert is_matching_covered(h) == brute_is_matching_covered(
                        h.vertices, edges)
                    seen += 1
    assert seen == 106


def _pair_query_graphs(exhaustive_corpus):
    """The exhaustive corpus and the fixtures; 200 matchable n = 8 graphs
    that are not matching covered; even graphs with no perfect matching;
    odd-order graphs."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    rng = Random(11)
    pairs = list(combinations(range(8), 2))
    found = 0
    while found < 200:
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
        edges += [rng.choice(pairs) for _ in range(rng.randint(1, 12))]
        g = Graph(range(8), edges)
        if not is_matching_covered(g):
            graphs.append(g)
            found += 1
    graphs += [Graph.from_edges(edges) for edges in (
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        [(u, v) for u in range(2) for v in range(2, 6)],
        [(u, v) for u in range(3) for v in range(3, 9)] + [(0, 1)],
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
         (7, 8), (8, 9), (7, 9), (0, 1), (0, 4), (0, 7)])]
    graphs += [cycle(5), cycle(7), canonical("k4").without_vertices({0}),
               Graph(range(3)), Graph.from_edges([(0, 1), (1, 2)])]
    for n in (5, 7, 9):
        odd_pairs = list(combinations(range(n), 2))
        for _ in range(10):
            graphs.append(Graph(range(n), rng.sample(odd_pairs, 2 * n)))
    return graphs


def test_pair_queries_match_the_oracle(exhaustive_corpus):
    """Matchability and matching number of every induced subgraph
    g - S with |S| <= 4 against memoized exhaustive recursion; on
    graphs with a perfect matching, every dependence row against the
    vertices some maximum matching of g - a misses, and is_bicritical
    everywhere."""
    for g in _pair_query_graphs(exhaustive_corpus):
        edges = dict(g.edge_items())
        nu = brute_matching_numbers(g.vertices, edges.values())
        h = Graph(g.vertices, edges)  # fresh caches for the rows
        if 2 * nu(h.vertex_set) == h.n:
            for a in h.vertices:
                live = h.vertex_set - {a}
                exposed = {v for v in live if nu(live - {v}) == nu(live)}
                assert _dependence_row(h, a) == exposed, (h, a)
        assert is_bicritical(h) == brute_is_bicritical(h, nu), h
        for k in range(min(4, g.n) + 1):
            for removed in combinations(g.vertices, k):
                live = g.vertex_set.difference(removed)
                want = nu(live)
                sub = g.without_vertices(removed)
                assert is_matchable(sub) == (2 * want == len(live)), (
                    g, removed)
                assert matching_number(sub) == want, (g, removed)


def test_missable_matches_the_oracle(exhaustive_corpus):
    """_shore_missable on the whole vertex set against memoized
    exhaustive recursion: defined iff a maximum matching misses
    exactly one vertex, and then the v with
    nu(g - v) = nu(g). The graphs are those of the pair queries, of
    both parities, and seeded ones on 7 to 12 vertices with no perfect
    matching."""
    graphs = _pair_query_graphs(exhaustive_corpus)
    rng = Random(19)
    for n in range(7, 13):
        pairs = list(combinations(range(n), 2))
        for _ in range(15):
            graphs.append(Graph(range(n), [rng.choice(pairs)
                                           for _ in range(rng.randint(n, 2 * n))]))
    defined = 0
    for g in graphs:
        nu = brute_matching_numbers(g.vertices, [e for _, e in g.edge_items()])
        top = nu(g.vertex_set)
        want = None
        if g.n - 2 * top == 1:
            want = frozenset(v for v in g.vertices
                             if nu(g.vertex_set - {v}) == top)
        fresh = Graph(g.vertices, dict(g.edge_items()))
        assert _shore_missable(fresh, fresh.vertex_set) == want, g
        defined += want is not None
    assert defined > 50


def test_row_search_with_targets_agrees_with_the_full_row(exhaustive_corpus):
    """A search stopped once its targets are outer reads the same on
    them as the full dependence row, for every x and a seeded sample of
    target sets."""
    rng = Random(5)
    for g in _pair_query_graphs(exhaustive_corpus):
        h = Graph(g.vertices, dict(g.edge_items()))
        if not is_matchable(h):
            continue
        index, adj = h.positions()
        verts = h.vertices
        for x in h.vertices:
            row = _dependence_row(h, x)
            live = [v for v in verts if v != x]
            samples = [live, [rng.choice(live)]]
            samples += [rng.sample(live, rng.randint(1, len(live)))
                        for _ in range(3)]
            for targets in samples:
                outer = matching._row_search(
                    adj, matching._search_mates(h)[:], [False] * h.n,
                    index[x], [index[v] for v in targets])
                assert all(outer[index[v]] == (v in row)
                           for v in targets), (h, x, targets)


def test_early_stops_cache_no_partial_row(exhaustive_corpus):
    """is_matching_covered caches no dependence row, and after it and a
    tight-cut enumeration, whose searches stop early, the rows read
    next (classify_cut on each nontrivial tight cut, then
    _dependence_row at every vertex) equal those of a fresh copy."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    compared = 0
    for g in graphs:
        h = Graph(g.vertices, dict(g.edge_items()))
        assert is_matching_covered(h)
        assert "dependence_rows" not in h._cache, h
        for c in enumerate_tight_cuts(h, nontrivial_only=True):
            classify_cut(h, c)
        for x in h.vertices:
            _dependence_row(h, x)
        fresh = Graph(g.vertices, dict(g.edge_items()))
        for x, row in h._cache["dependence_rows"].items():
            assert row == _dependence_row(fresh, x), (h, x)
            compared += 1
    assert compared == sum(g.n for g in graphs)
