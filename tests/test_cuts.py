"""Tightness, tight-cut enumeration, and cut classification."""

from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import tightcut.cuts
from tightcut import matching
from tightcut.graph import Cut, EnumerationLimitError, Graph, GraphError
from tightcut.cuts import (
    TIGHT_CUT_LIMIT,
    _shores_crossed_once,
    classify_cut,
    enumerate_tight_cuts,
    is_tight,
    meets_once,
)
from tightcut.instances import (
    CorpusSpec, canonical, enumerate_corpus, fixture_instances)
from tightcut.matching import (
    _comatchable_among,
    _matching_partners,
    _row_search,
    _search_mates,
    _without_pair,
    is_matchable,
    is_matching_covered,
    perfect_matching_masks,
)
from tightcut.structure import enumerate_barriers

from conftest import (
    brute_barriers,
    brute_components,
    brute_is_tight,
    brute_matching_numbers,
    brute_perfect_matchings,
    count_calls,
    crossed_once_by_scan,
    cycle,
    glued,
    inflated,
)


# is_tight ---------------------------------------------------------------------

def test_is_tight_hand_cases(c6, k4):
    assert is_tight(c6, c6.boundary({0}))
    assert is_tight(c6, c6.boundary({0, 1, 2}))
    assert not is_tight(c6, c6.boundary({0, 2, 4}))
    assert is_tight(k4, k4.boundary({3}))
    assert not is_tight(k4, k4.boundary({0, 1}))  # the matching 01|23 misses it


def test_is_tight_validates(c6, k4):
    with pytest.raises(GraphError):
        is_tight(c6, k4.boundary({0}))
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(GraphError):
        is_tight(star, star.boundary({1}))


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=80, deadline=None)
def test_is_tight_matches_oracle(half, data):
    n = 2 * half
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = [(2 * i, 2 * i + 1) for i in range(half)]  # forces matchability
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
    edges = base + extra
    g = Graph(range(n), edges)
    shore = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                              min_size=1, max_size=n - 1))
    assert is_tight(g, g.boundary(shore)) == brute_is_tight(
        range(n), edges, shore)


def _check_every_shore(g):
    """is_tight against the enumeration oracle on every cut of g, odd and
    even shores alike; returns the number of cuts checked."""
    masks = perfect_matching_masks(g)
    anchor, rest = g.vertices[0], g.vertices[1:]
    checked = 0
    for size in range(g.n - 1):
        for combo in combinations(rest, size):
            c = g.boundary(frozenset((anchor,) + combo))
            cut_mask = sum(1 << eid for eid in c.edge_ids)
            want = all((mask & cut_mask).bit_count() == 1 for mask in masks)
            assert is_tight(g, c) == want, c
            checked += 1
    return checked


def test_is_tight_agrees_with_enumeration(exhaustive_corpus):
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    assert sum(_check_every_shore(g) for g in graphs) > 10_000


def _off_matching_covered(count=200):
    """Seeded graphs on 8 vertices with a perfect matching that are not
    matching covered; the random extra edges may repeat as parallels."""
    rng = Random(5)
    pairs = list(combinations(range(8), 2))
    while count:
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
        edges += [rng.choice(pairs) for _ in range(rng.randint(1, 12))]
        g = Graph(range(8), edges)
        if not is_matching_covered(g):
            yield g
            count -= 1


def test_is_tight_agrees_with_enumeration_off_matching_covered():
    for g in _off_matching_covered():
        _check_every_shore(g)


# enumerate_tight_cuts ----------------------------------------------------------

def test_enumerate_tight_cuts_c6(c6):
    cuts = enumerate_tight_cuts(c6)
    assert len(cuts) == 9
    nontrivial = enumerate_tight_cuts(c6, nontrivial_only=True)
    assert [c.shore for c in nontrivial] == [
        frozenset({0, 1, 2}), frozenset({0, 1, 5}), frozenset({0, 4, 5})]
    assert all(not c.is_trivial for c in nontrivial)


def test_bricks_have_no_nontrivial_tight_cuts(k4):
    assert enumerate_tight_cuts(k4, nontrivial_only=True) == []
    petersen = canonical("petersen")
    assert enumerate_tight_cuts(petersen, nontrivial_only=True) == []
    assert len(enumerate_tight_cuts(petersen)) == 10  # the trivial ones


def test_enumerate_tight_cuts_builds_cuts_only_for_tight_shores(monkeypatch):
    """Shores are tested as edge bitmasks, and only a tight one gets a
    Cut. On C12, 192 of the 1,024 odd shores through vertex 0 are left
    once by the cached perfect matching (one of its six edges split, 6 x
    2 ways, and any of the other five taken whole), and only the 36
    tight ones are built."""
    g = cycle(12)
    built = []

    def counted(*args):
        cut = Cut(*args)
        built.append(cut)
        return cut

    monkeypatch.setattr(tightcut.cuts, "Cut", counted)
    assert len(enumerate_tight_cuts(g)) == 36
    monkeypatch.setattr(tightcut.cuts, "Cut", Cut)
    assert len(built) == 36
    assert all(is_tight(g, cut) for cut in built)


def test_enumerated_cuts_are_the_boundaries_of_their_shores(
        exhaustive_corpus):
    """enumerate_tight_cuts builds each Cut from its shore's bitmask, not
    from Graph.boundary. On every graph of the exhaustive n <= 6 corpus,
    the fixtures, 30 random graphs on 8 to 12 vertices and both
    contractions of every nontrivial tight cut of the fixtures, whose
    parallel edges keep their own ids, each listed cut is its shore's
    boundary in shore and edge ids."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    graphs += [g for n in (8, 10, 12) for g in enumerate_corpus(
        CorpusSpec("random", n=n, samples=10, seed=n))]
    graphs += [h for _, g, _ in fixture_instances()
               for c in enumerate_tight_cuts(g, nontrivial_only=True)
               for h in g.cut_contractions(c)]
    compared = 0
    for g in graphs:
        for c in enumerate_tight_cuts(g):
            want = g.boundary(c.shore)
            assert c.graph is g
            assert (c.shore, c.edge_ids) == (want.shore, want.edge_ids), c
            compared += 1
    assert compared > 6 * len(graphs)


def test_enumerate_tight_cuts_guard_and_inputs():
    # the guard is fixed at 16 vertices: C16 passes, C18 does not
    assert TIGHT_CUT_LIMIT == 16
    assert len(enumerate_tight_cuts(cycle(16))) == 64
    with pytest.raises(EnumerationLimitError, match="exceeds the guard of 16"):
        enumerate_tight_cuts(cycle(18))
    odd = cycle(5)
    with pytest.raises(GraphError):
        enumerate_tight_cuts(odd)
    # the empty graph's empty matching is perfect, and it has no cut
    assert enumerate_tight_cuts(Graph([])) == []


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_enumerate_tight_cuts_is_complete(half, data):
    n = 2 * half
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = [(2 * i, 2 * i + 1) for i in range(half)]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
    edges = base + extra
    g = Graph(range(n), edges)
    got = {c.shore for c in enumerate_tight_cuts(g)}
    want = set()
    for size in range(1, n):
        for combo in __import__("itertools").combinations(range(1, n),
                                                          size - 1):
            shore = frozenset((0,) + combo)
            if brute_is_tight(range(n), edges, shore):
                want.add(shore)
    assert got == want


def _fixture_contractions():
    """Both contractions of every nontrivial tight cut of the fixtures:
    their edge ids are sparse, and some are parallel."""
    return [gi for _, g, _ in fixture_instances()
            for c in enumerate_tight_cuts(g, nontrivial_only=True)
            for gi in g.cut_contractions(c)]


def _random_graphs(orders, samples):
    return [g for n in orders
            for g in enumerate_corpus(CorpusSpec("random", n=n,
                                                 samples=samples, seed=101))]


def _comatchable_masks(g):
    """The eager co-matchable table, kept as the oracle of the
    enumeration's shore walk and exact test: each edge id of g, which has a
    perfect matching, mapped to the bitmask of the edge ids that lie
    with it in some perfect matching.

    Parallel edges share one row, and the relation is symmetric: a pair
    uv takes its partners wz with w > min(u, v) from its own searches
    and the rest from earlier pairs. For uv, _without_pair gives a
    perfect matching N of g - u - v, or shows that uv has no partner;
    then for each w with a higher live neighbour, one search from the
    N-mate of w in g - u - v - w marks every z with g - u - v - w - z
    matchable (_row_search), stopped once w's higher live neighbours
    are outer. At most m * n searches.
    """
    index, adj = g.positions()
    n = g.n
    assert is_matchable(g)
    start = _search_mates(g)
    # (i, j) with i < j -> bitmask of the edges joining them
    bits = {}
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


def _check_comatchable(g):
    """The co-matchable table of g against the brute-force matching
    numbers on every pair of edges: two edges lie in a common perfect
    matching iff they are disjoint and g less their four ends is
    matchable. Returns the number of disjoint pairs checked."""
    table = _comatchable_masks(g)
    items = g.edge_items()
    assert sorted(table) == [eid for eid, _ in items]
    nu = brute_matching_numbers(g.vertices, [ends for _, ends in items])
    checked = 0
    for e, (u, v) in items:
        for f, (w, z) in items:
            disjoint = not {u, v} & {w, z}
            want = disjoint and 2 * nu(g.vertex_set - {u, v, w, z}) == g.n - 4
            assert bool(table[e] >> f & 1) == want, (g, e, f)
            checked += disjoint
    return checked


def test_comatchable_table_matches_oracle_exhaustive(exhaustive_corpus):
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    assert sum(_check_comatchable(g) for g in graphs) > 100_000


def test_comatchable_table_matches_oracle_off_matching_covered():
    """Inadmissible edges have no partner, and parallel edges share a
    row."""
    graphs = list(_off_matching_covered())
    assert sum(_check_comatchable(g) for g in graphs) > 10_000
    assert any(len(g.edges_between(u, v)) > 1
               for g in graphs for _, (u, v) in g.edge_items())


def test_comatchable_table_matches_oracle_random_n12():
    assert sum(_check_comatchable(g)
               for g in _random_graphs((12,), 20)) > 10_000


def test_comatchable_table_matches_oracle_on_contractions():
    graphs = _fixture_contractions()
    assert sum(_check_comatchable(g) for g in graphs) > 5_000
    assert any(max(g.edge_ids) >= g.m for g in graphs)
    assert any(len(g.edges_between(u, v)) > 1
               for g in graphs for _, (u, v) in g.edge_items())


def _check_matchings(g):
    """_matching_partners' matchings and memo against brute force: each
    matching is a perfect matching of g, one of brute_perfect_matchings
    read as vertex pairs, and the memo holds, under every edge class
    ij, a matching through ij, or _without_pair's perfect matching of
    g - i - j, when brute_matching_numbers finds ij admissible, and None
    when not. Returns the number of disjoint ordered edge pairs and the
    number that lie together in one of the matchings."""
    matchings, memo = _matching_partners(g)
    verts, items = g.vertices, g.edge_items()
    ends = [uv for _, uv in items]
    perfect = {frozenset(ends[k] for k in pm)
               for pm in brute_perfect_matchings(verts, ends)}

    def pairs(match):
        return frozenset((verts[i], verts[j])
                         for i, j in enumerate(match) if i < j)

    found = set(map(pairs, matchings))
    assert found <= perfect, g
    index, _ = g.positions()
    nu = brute_matching_numbers(verts, ends)
    for u, v in set(ends):
        i, j = index[u], index[v]
        got = memo[i, j]
        if 2 * nu(g.vertex_set - {u, v}) != g.n - 2:
            assert got is None, (g, u, v)
            continue
        if type(got) is tuple:
            match, dead = got
            assert dead[i] and dead[j] and match[i] == match[j] == -1
            match = match[:]
            match[i], match[j] = j, i
        else:
            match = got
        assert match[i] == j and pairs(match) in found, (g, u, v)
    checked = listed = 0
    for u, v in ends:
        for w, z in ends:
            if not {u, v} & {w, z}:
                checked += 1
                listed += any({(u, v), (w, z)} <= held for held in found)
    return checked, listed


def test_partner_matchings_are_perfect_matchings(exhaustive_corpus):
    """On the co-matchable table tests' corpora, with their floors on
    the disjoint edge pairs: the exhaustive n <= 6 graphs, the graphs
    that are not matching covered (inadmissible edges, parallels),
    random n = 12 graphs and the fixture contractions (sparse ids,
    parallels). The matchings hold together at least a quarter of the
    disjoint pairs."""
    corpora = [
        ([g for corpus in exhaustive_corpus.values() for g in corpus],
         100_000),
        (list(_off_matching_covered()), 10_000),
        (_random_graphs((12,), 20), 10_000),
        (_fixture_contractions(), 5_000),
    ]
    for graphs, floor in corpora:
        checked, listed = map(sum, zip(*map(_check_matchings, graphs)))
        assert checked > floor
        assert listed > checked // 4


def test_memo_answers_as_fresh_searches():
    """_comatchable_among with the memo that one enumeration keeps,
    filled by _matching_partners and then by every question before, answers as
    it does with a fresh memo, on every shore the cached perfect matching
    crosses once and then on every two edges: the fixture
    contractions, and seeded n = 12 and 14 graphs with parallel edges
    and sparse labels."""
    graphs = _fixture_contractions()
    graphs += list(_parallel_graphs((12, 14), 5, seed=31))
    answers, rows = set(), 0
    for g in graphs:
        _, memo = _matching_partners(g)
        assert sum(len(key) == 2 for key in memo) == len(
            set(map(g.edge_ends, g.edge_ids))), g
        for _, cut in _shores_crossed_once(g, [_search_mates(g)]):
            eids = [e for e in g.edge_ids if cut >> e & 1]
            got = _comatchable_among(g, eids, memo)
            assert got == _comatchable_among(g, eids, {}), g
            answers.add(got)
        # then every two edges, so that rows of earlier cuts are read
        # at far ends they were not asked about
        for pair in combinations(g.edge_ids, 2):
            assert _comatchable_among(g, pair, memo) == \
                _comatchable_among(g, pair, {}), (g, pair)
        rows += sum(len(key) == 3 for key in memo)
    assert answers == {False, True} and rows > len(graphs)


def _pair_scan_tight(g, c):
    """The lemma's pair test with no row search: the cut of an odd
    shore, in a graph with a perfect matching, is tight iff no two
    disjoint cut edges leave g less their four ends matchable, each
    asked by a blossom run on that induced subgraph."""
    ends = [g.edge_ends(eid) for eid in c.edge_ids]
    return len(c.shore) % 2 == 1 and not any(
        not {u, v} & {w, z}
        and is_matchable(g.without_vertices({u, v, w, z}))
        for (u, v), (w, z) in combinations(ends, 2))


def _tight_by_pair_test(g, nontrivial_only=False):
    """Every odd shore through the smallest vertex, by size then lex
    order, kept when the pair scan says its cut is tight."""
    anchor, rest = g.vertices[0], g.vertices[1:]
    low = 3 if nontrivial_only else 1
    cuts = [g.boundary((anchor,) + combo)
            for size in range(low, g.n - low + 1, 2)
            for combo in combinations(rest, size - 1)]
    return [c for c in cuts if _pair_scan_tight(g, c)]


@pytest.mark.parametrize("nontrivial_only", [False, True])
def test_enumerate_tight_cuts_matches_pair_test(nontrivial_only):
    """The same cuts in the same order as the pair scan over every odd
    shore, on random graphs of orders 8 to 12 and on the fixture
    contractions."""
    graphs = _random_graphs((8, 10, 12), 12) + _fixture_contractions()
    nontrivial = 0
    for g in graphs:
        got = enumerate_tight_cuts(g, nontrivial_only)
        want = _tight_by_pair_test(g, nontrivial_only)
        assert [(c.shore, c.edge_ids) for c in got] == \
            [(c.shore, c.edge_ids) for c in want], g
        nontrivial += sum(not c.is_trivial for c in got)
    assert nontrivial > 50


def _tight_by_odd_shore_scan(g, nontrivial_only=False):
    """Every odd shore through the smallest vertex, by size then lex
    order, as edge bitmasks: kept when the cached perfect matching meets
    its cut once and no cut edge has a co-matchable partner in it."""
    partners = {1 << eid: mask
                for eid, mask in _comatchable_masks(g).items()}
    out = []
    for shore, cut in crossed_once_by_scan(g, [_search_mates(g)]):
        if nontrivial_only and len(shore) in (1, g.n - 1):
            continue
        left = cut
        while left:
            edge = left & -left
            if partners[edge] & cut:
                break
            left ^= edge
        else:
            out.append(g.boundary(shore))
    return out


def test_enumerate_tight_cuts_matches_the_eager_table(differential_corpus):
    """With the walk's matchings cut down only when first read, the
    same cuts in the same order as the eager co-matchable table's
    odd-shore scan, on the differential corpus."""
    nontrivial = 0
    for g in differential_corpus:
        got = [(c.shore, c.edge_ids) for c in enumerate_tight_cuts(g)]
        assert got == [(c.shore, c.edge_ids)
                       for c in _tight_by_odd_shore_scan(g)], g
        nontrivial += sum(1 < len(shore) < g.n - 1 for shore, _ in got)
    assert nontrivial > 1_000


def _parallel_graphs(orders, samples, seed):
    """Seeded graphs with a perfect matching on sparse, shuffled labels,
    with random extra edges that may repeat as parallels."""
    rng = Random(seed)
    for n in orders:
        for _ in range(samples):
            labels = rng.sample(range(3 * n), n)
            pairs = list(combinations(labels, 2))
            edges = [tuple(labels[i:i + 2]) for i in range(0, n, 2)]
            edges += [rng.choice(pairs) for _ in range(rng.randint(n, 3 * n))]
            rng.shuffle(edges)
            yield Graph(labels, edges)


def test_shore_walk_is_a_bijection_onto_the_shores_crossed_once():
    """With the cached perfect matching M alone, the walk yields each
    odd shore through the smallest vertex that M crosses once, exactly
    once, with its cut; n * 2^(n/2 - 2) of them."""
    graphs = list(_parallel_graphs((2, 4, 6, 8, 10), 6, seed=29))
    graphs += _fixture_contractions()
    for g in graphs:
        walked = [(tuple(sorted(members)), cut) for members, cut
                  in _shores_crossed_once(g, [_search_mates(g)])]
        assert len(walked) == g.n * 2 ** (g.n // 2) // 4
        assert sorted(walked, key=lambda t: (len(t[0]), t[0])) == \
            crossed_once_by_scan(g, [_search_mates(g)]), g


def test_shore_walk_counts_on_cycles():
    for n, count in ((12, 192), (16, 1_024)):
        g = cycle(n)
        assert sum(1 for _ in _shores_crossed_once(
            g, [_search_mates(g)])) == count


def test_shore_walk_yields_the_shores_every_matching_crosses_once(
        exhaustive_corpus):
    """With the matchings _matching_partners finds, the walk yields
    exactly the odd shores through the smallest vertex that every one
    of them crosses once, each once and with its cut: graphs with
    parallel edges and sparse labels, the fixture contractions, the
    exhaustive n <= 6 corpus and random n = 12 graphs. Somewhere a
    cycle's block is joined and somewhere a cycle through the crossing
    edge is checked, so the walk leaves out shores that M alone
    crosses once."""
    graphs = list(_parallel_graphs((2, 4, 6, 8, 10), 6, seed=29))
    graphs += _fixture_contractions()
    graphs += [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += _random_graphs((12,), 20)
    left_out = 0
    for g in graphs:
        matchings, _ = _matching_partners(g)
        walked = [(tuple(sorted(members)), cut) for members, cut
                  in _shores_crossed_once(g, matchings)]
        assert len(set(walked)) == len(walked), g
        assert sorted(walked, key=lambda t: (len(t[0]), t[0])) == \
            crossed_once_by_scan(g, matchings), g
        left_out += g.n * 2 ** (g.n // 2) // 4 - len(walked)
    assert left_out > 10_000


def test_shore_walk_yields_few_shores_on_the_benchmark_graphs(monkeypatch):
    """On the certify_mixed benchmark's 120 graphs at seed 0 the walk
    yields at most 2,400 shores, 1,520 of them trivial; walking every
    shore the cached perfect matching crosses once yields 33,280."""
    walked = Counter()
    walk = tightcut.cuts._shores_crossed_once

    def counted(*args):
        for shore in walk(*args):
            walked["shores"] += 1
            yield shore

    monkeypatch.setattr(tightcut.cuts, "_shores_crossed_once", counted)
    for g in _benchmark_graphs():
        enumerate_tight_cuts(g)
    assert walked["shores"] <= 2_400


@pytest.mark.parametrize("nontrivial_only", [False, True])
def test_enumerate_tight_cuts_matches_the_odd_shore_scan(nontrivial_only):
    """The same cuts in the same order as the scan over every odd shore,
    on random graphs of orders 14 and 16 with parallel edges and sparse
    labels, and on the fixture contractions, whose smallest vertex is
    not always 0."""
    contractions = _fixture_contractions()
    assert any(g.vertices[0] != 0 for g in contractions)
    graphs = list(_parallel_graphs((14, 16), 5, seed=31)) + contractions
    assert any(len(g.edges_between(u, v)) > 1
               for g in graphs for _, (u, v) in g.edge_items())
    nontrivial = 0
    for g in graphs:
        got = enumerate_tight_cuts(g, nontrivial_only)
        want = _tight_by_odd_shore_scan(g, nontrivial_only)
        assert [(c.shore, c.edge_ids) for c in got] == \
            [(c.shore, c.edge_ids) for c in want], g
        nontrivial += sum(not c.is_trivial for c in got)
    assert nontrivial > 50


def _benchmark_graphs():
    """The random n = 12 and 14 graphs of the certify_mixed benchmark at
    seed 0: 80 and 40 draws at seeds 12 and 14, each with its coverage
    test run, as enumerate_corpus leaves it."""
    graphs = [g for n, samples in ((12, 80), (14, 40))
              for g in enumerate_corpus(CorpusSpec("random", n=n,
                                                   samples=samples, seed=n))]
    assert len(graphs) == 120
    return graphs


def test_enumerate_tight_cuts_matches_the_table_on_tight_rich_graphs():
    """Both modes against the table oracle's odd-shore scan on the
    random graphs of the certify_mixed benchmark at seed 0, on C16, on
    glued K_{k,k} pairs at k = 3 and 4, and on the fixtures inflated at
    k = 3 that fit the guard."""
    graphs = _benchmark_graphs()
    graphs += [cycle(16), glued(3), glued(4)]
    graphs += [h for _, g, shore in fixture_instances()
               for h, _ in [inflated(g, shore, 3)] if h.n <= TIGHT_CUT_LIMIT]
    nontrivial = 0
    for g in graphs:
        want = [(c.shore, c.edge_ids) for c in _tight_by_odd_shore_scan(g)]
        got = [(c.shore, c.edge_ids) for c in enumerate_tight_cuts(g)]
        assert got == want, g
        got = [(c.shore, c.edge_ids)
               for c in enumerate_tight_cuts(g, nontrivial_only=True)]
        assert got == [(shore, ids) for shore, ids in want
                       if 1 < len(shore) < g.n - 1], g
        nontrivial += len(got)
    assert nontrivial > 150


def _enumeration_searches(graphs, monkeypatch):
    """Edmonds searches (_alternating_search calls) of one
    enumerate_tight_cuts on fresh copies of graphs, each with its
    maximum matching already cached."""
    copies = [Graph(g.vertices, dict(g.edge_items())) for g in graphs]
    for h in copies:
        _search_mates(h)
    counts = count_calls(monkeypatch, matching, "_alternating_search")
    for h in copies:
        enumerate_tight_cuts(h)
    return counts["_alternating_search"]


def test_enumeration_search_counts(monkeypatch):
    """The walk leaves few shores for the exact test, and the memo
    runs each row once. The copies' coverage test, which the walk
    asks for first, counts too: at most 218 searches on 20 random
    n = 12 graphs (3,216 with the eager co-matchable table), and at
    most 167 on the five tight-rich fixtures (the table's 397)."""
    assert _enumeration_searches(_random_graphs((12,), 20), monkeypatch) <= 218
    fixtures = [g for _, g, _ in fixture_instances()]
    assert len(fixtures) == 5
    assert _enumeration_searches(fixtures, monkeypatch) <= 167


def test_enumeration_after_the_coverage_test_search_counts(monkeypatch):
    """On the certify_mixed benchmark's graphs at seed 0, whose coverage
    test has run, the walk's matchings come from its closed cycles:
    at most 850 searches for the 120 enumerations (2,491 when the
    walk's matchings were searched for one per class)."""
    graphs = _benchmark_graphs()
    counts = count_calls(monkeypatch, matching, "_alternating_search")
    for g in graphs:
        enumerate_tight_cuts(g)
    assert counts["_alternating_search"] <= 850


def test_filter_runs_no_search_after_the_coverage_test(
        monkeypatch, exhaustive_corpus):
    """On a matching covered graph with an odd cycle, within the
    enumeration guard, the alternating cycles the coverage test closed
    hold every edge class, so _matching_partners runs no Edmonds search:
    the exhaustive n = 6 graphs with an odd cycle, 20 random n = 12
    graphs and the five fixtures."""
    graphs = [g for g in exhaustive_corpus[6]
              if not matching._is_bipartite(g)]
    graphs += _random_graphs((12,), 20)
    graphs += [g for _, g, _ in fixture_instances()]
    assert len(graphs) > 100
    for g in graphs:
        assert is_matching_covered(g) and not matching._is_bipartite(g)
        assert g.n <= TIGHT_CUT_LIMIT
    counts = count_calls(monkeypatch, matching, "_alternating_search")
    for g in graphs:
        _matching_partners(g)
    assert counts["_alternating_search"] == 0


def test_closed_cycles_are_perfect_matchings_through_their_edge(
        differential_corpus):
    """Each matching _closed_cycles rebuilds from a filed search is a
    perfect matching of g that holds the edge from the search's root to
    its target: on the differential corpus, on graphs with parallel
    edges and sparse labels at n = 12 and 14, and on the fixture
    contractions, with floors on the matchings checked."""
    corpora = [(differential_corpus, 11_000),
               (list(_parallel_graphs((12, 14), 10, seed=31)), 150),
               (_fixture_contractions(), 350)]
    for graphs, floor in corpora:
        checked = 0
        for g in graphs:
            verts = g.vertices
            for u, x, cycle_mates in matching._closed_cycles(g):
                assert cycle_mates[u] == x, g
                assert len(cycle_mates) == g.n, g
                for i, j in enumerate(cycle_mates):
                    assert cycle_mates[j] == i, g
                    assert g.has_edge(verts[i], verts[j]), g
                checked += 1
        assert checked > floor


def test_enumeration_does_not_depend_on_an_earlier_coverage_test():
    """The same cuts on a fresh graph, whose enumeration runs its
    coverage test itself, as on a copy whose coverage test ran first:
    random n = 12 graphs, graphs with parallel edges and sparse labels,
    some not matching covered, and the fixture contractions."""
    graphs = _random_graphs((12,), 20)
    graphs += list(_parallel_graphs((12, 14), 5, seed=31))
    graphs += _fixture_contractions()
    assert not all(map(is_matching_covered, graphs))
    for g in graphs:
        fresh, tested = (Graph(g.vertices, dict(g.edge_items()))
                         for _ in range(2))
        is_matching_covered(tested)
        assert [(c.shore, c.edge_ids) for c in enumerate_tight_cuts(fresh)] \
            == [(c.shore, c.edge_ids) for c in enumerate_tight_cuts(tested)]


def test_is_tight_matches_pair_scan_on_larger_cuts():
    """is_tight against the pair scan on the reference cut of glued
    K_{k,k} pairs for k = 3..6 and of every fixture inflated at k = 3
    and 4, and on a seeded sample of odd shores of those graphs that
    the cached perfect matching meets once."""
    cases = [(glued(k), range(2 * k - 1)) for k in range(3, 7)]
    cases += [inflated(g, shore, k) for _, g, shore in fixture_instances()
              for k in (3, 4)]
    rng = Random(23)
    tight = untight = 0
    for g, shore in cases:
        cuts = [g.boundary(shore)]
        while len(cuts) < 21:
            size = rng.randrange(3, g.n - 2, 2)
            c = g.boundary(rng.sample(g.vertices, size))
            if meets_once(g, c):
                cuts.append(c)
        for c in cuts:
            got = is_tight(g, c)
            assert got == _pair_scan_tight(g, c), (g, sorted(c.shore))
            tight += got
            untight += not got
        assert is_tight(g, cuts[0]), g
    assert tight > len(cases) and untight > 200


# classify_cut ------------------------------------------------------------------

def test_classify_nontrivial_c6(c6):
    c = c6.boundary({0, 1, 2})
    cls = classify_cut(c6, c)
    assert cls.witnessed
    witnesses = [(frozenset(b.members), i) for b, i in cls.barrier_witnesses]
    assert witnesses == [(frozenset({0, 2}), 1), (frozenset({3, 5}), 0)]
    assert [s.pair for s in cls.twosep_witnesses] == [(0, 3), (2, 5)]


def test_classify_trivial_c6(c6):
    cls = classify_cut(c6, c6.boundary({5}))
    assert cls.witnessed
    assert any(frozenset(b.members) == frozenset({5})
               for b, _ in cls.barrier_witnesses)


def test_classify_non_tight_cut(c6):
    # outside classify_cut's precondition, yet nothing witnesses the cut
    cls = classify_cut(c6, c6.boundary({0, 2, 4}))
    assert not cls.witnessed
    assert cls.barrier_witnesses == () and cls.twosep_witnesses == ()


def test_classify_validates(c6, k4):
    with pytest.raises(GraphError):
        classify_cut(c6, k4.boundary({0}))
    path = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert not is_matching_covered(path)
    with pytest.raises(GraphError):
        classify_cut(path, path.boundary({0}))


def test_every_nontrivial_tight_cut_of_c6_is_witnessed(c6):
    for c in enumerate_tight_cuts(c6, nontrivial_only=True):
        assert classify_cut(c6, c).witnessed


def _oracle_barrier_witnesses(c, barriers):
    """(members, shore index) for every barrier inside the opposite
    shore that has the shore among its odd components."""
    shores = c.shores()
    return [(b, i) for i, keep in enumerate(shores) for b, parts in barriers
            if b <= shores[1 - i] and keep in parts]


def _largest_per_shore(witnesses):
    """The largest witness of each shore, sorted like classify_cut's
    list, after checking that it contains every witness of its shore."""
    out = []
    for i in (0, 1):
        mine = [b for b, j in witnesses if j == i]
        if mine:
            top = max(mine, key=len)
            assert all(b <= top for b in mine), (sorted(top), i)
            out.append((top, i))
    return sorted(out, key=lambda t: (sorted(t[0]), t[1]))


def _anchored_shores(g):
    """Every proper shore holding the smallest vertex, one per cut."""
    anchor, rest = g.vertices[0], g.vertices[1:]
    for size in range(len(rest)):
        for combo in combinations(rest, size):
            yield frozenset((anchor,) + combo)


def test_classify_barrier_witnesses_match_oracle(exhaustive_corpus):
    """Every cut of the exhaustive corpus, tight or not, and every
    nontrivial tight cut of the fixtures: a shore gets a barrier exactly
    when the oracle finds a witness for it, and the listed one is the
    oracle's largest, which contains every other. classify_cut tests no
    tightness, and a cut that is not tight has no witness of either
    kind (Fact 1 in verify.py)."""
    cases = [(g, [g.boundary(shore) for shore in _anchored_shores(g)])
             for corpus in exhaustive_corpus.values() for g in corpus]
    cases += [(g, enumerate_tight_cuts(g, nontrivial_only=True))
              for _, g, _ in fixture_instances()]
    checked = witnessed = untight = several = 0
    for g, cuts in cases:
        edges = [ends for _, ends in g.edge_items()]
        pms = brute_perfect_matchings(g.vertices, edges)
        barriers = [(b, brute_components(g.vertices, edges, b))
                    for b in brute_barriers(g)]
        for c in cuts:
            cls = classify_cut(g, c)
            got = [(b.members, i) for b, i in cls.barrier_witnesses]
            want = _oracle_barrier_witnesses(c, barriers)
            assert got == _largest_per_shore(want), (g, sorted(c.shore))
            crossing = {i for i, (u, v) in enumerate(edges)
                        if (u in c.shore) != (v in c.shore)}
            if any(len(pm & crossing) != 1 for pm in pms):
                assert not cls.witnessed, (g, sorted(c.shore))
                untight += 1
            checked += 1
            witnessed += bool(want)
            several += len(want) > len(got)
    assert untight > 100 and 0 < witnessed < checked - untight
    assert several > 0


def _dependent_pairs(g, pool):
    """Pairs u < v of pool with g - u - v not matchable, by brute force."""
    nu = brute_matching_numbers(g.vertices,
                                [ends for _, ends in g.edge_items()])
    return {(u, v) for u, v in combinations(sorted(pool), 2)
            if 2 * nu(g.vertex_set - {u, v}) < g.n - 2}


def test_contraction_keeps_dependence_in_the_far_shore(exhaustive_corpus):
    """The lemma classify_cut's proof rests on, by brute force on both
    shores X of every nontrivial tight cut of the exhaustive corpus and
    the fixtures. With O the opposite shore and h = g/(X -> x), every
    pair of O dependent in g is dependent in h, and a neighbour a of X
    has the same dependent partners in O in g and in h. The converse of
    the first part fails: in h, x can cover only one of its
    neighbours."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    checked = strict = 0
    for g in graphs:
        for c in enumerate_tight_cuts(g, nontrivial_only=True):
            for shore in c.shores():
                far = g.vertex_set - shore
                in_g = _dependent_pairs(g, far)
                in_h = _dependent_pairs(g.contract(shore), far)
                assert in_g <= in_h, (g, sorted(shore))
                for a in {w for v in shore for w in g.neighbors(v)} - shore:
                    assert {p for p in in_g if a in p} == \
                        {p for p in in_h if a in p}, (g, sorted(shore), a)
                checked += 1
                strict += in_g != in_h
    assert checked > 100 and strict > 0
    # blocked_triangle, shore {0, 1, 2}: 3 and 4 reach the shore only
    # through x once 7 and 9 are gone, but g - 7 - 9 is matchable
    g = next(g for name, g, _ in fixture_instances()
             if name == "blocked_triangle")
    far = g.vertex_set - {0, 1, 2}
    assert _dependent_pairs(g.contract({0, 1, 2}), far) - \
        _dependent_pairs(g, far) == {(7, 9)}


def test_classify_inflated_fixture_cuts_match_barrier_search():
    """Both shores of every nontrivial tight cut of every fixture, with
    K_{k,k} spliced into the far shore for k = 2..7: on each shore the
    listed barrier is the largest of the barriers enumerate_barriers
    lists inside the opposite shore with the shore among its odd parts,
    and contains every other."""
    checked = several = 0
    for _, g, _ in fixture_instances():
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            for shore in cut.shores():
                for k in range(2, 8):
                    h, s = inflated(g, shore, k)
                    c = h.boundary(s)
                    shores = c.shores()
                    want = [(b.members, i) for i, keep in enumerate(shores)
                            for b in enumerate_barriers(h)
                            if b.members <= shores[1 - i]
                            and keep in b.odd_parts]
                    got = [(b.members, i)
                           for b, i in classify_cut(h, c).barrier_witnesses]
                    assert got == _largest_per_shore(want), (h, sorted(s))
                    checked += 1
                    several += len(want) > len(got)
    assert checked == 864 and several > 0
