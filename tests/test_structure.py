"""Barriers, two-separations, strict barriers, and the lifting maps."""

import time
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import tightcut.structure
import tightcut.sweep

from tightcut.cuts import enumerate_tight_cuts
from tightcut.graph import (
    EnumerationLimitError, Graph, GraphError, InternalInvariantError)
from tightcut.instances import (
    CorpusSpec,
    canonical,
    enumerate_corpus,
    fixture_instances,
)
from tightcut.matching import is_admissible, is_matchable, is_matching_covered
from tightcut.structure import (
    BARRIER_LIMIT,
    GROUPING_LIMIT,
    _core_covered,
    _dependent_partners,
    _leading_barriers,
    _strict_barrier_in,
    barrier_core,
    barrier_cuts,
    enumerate_barriers,
    find_2separations,
    find_strict_barrier,
    is_barrier,
    is_strict_barrier,
    lift_barrier_over_2sep,
    lift_barrier_over_odd_component,
    make_two_separation,
    two_separation_cuts,
    twoseps_generating,
)
from tightcut.sweep import SweepReport, dead_cut_setups

from conftest import (
    brute_barriers,
    brute_components,
    brute_confined_strict_barrier,
    brute_is_barrier,
    brute_matching_numbers,
    cycle,
    dependence_classes,
    gate_specs,
    theta,
)


# barriers -------------------------------------------------------------------

def test_is_barrier_hand_cases(c6):
    assert is_barrier(c6, {0}) is not None
    assert is_barrier(c6, {0, 2}) is not None
    assert is_barrier(c6, {0, 3}) is None          # two even arcs
    assert is_barrier(c6, {0, 2, 4}) is not None
    b = is_barrier(c6, {0, 2})
    assert set(b.odd_parts) == {frozenset({1}), frozenset({3, 4, 5})}
    assert b.is_nontrivial
    assert not is_barrier(c6, {0}).is_nontrivial


def test_is_barrier_rejects_malformed(c6):
    assert enumerate_barriers(c6)  # a warm memo changes no validation
    with pytest.raises(GraphError):
        is_barrier(c6, set())
    with pytest.raises(GraphError):
        is_barrier(c6, {9})
    with pytest.raises(GraphError):
        is_barrier(c6, set(range(6)))


@given(st.integers(min_value=2, max_value=7),
       st.data())
@settings(max_examples=80, deadline=None)
def test_is_barrier_matches_oracle(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=12))
    members = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                                min_size=1, max_size=n - 1))
    g = Graph(range(n), edges)
    assert (is_barrier(g, members) is not None) == brute_is_barrier(
        range(n), edges, members)


def test_enumerate_barriers_c6(c6):
    all_b = enumerate_barriers(c6)
    assert len(all_b) == 14
    assert {frozenset(b.members) for b in all_b if b.is_nontrivial} == {
        frozenset(p) for p in
        [(0, 2), (1, 3), (2, 4), (3, 5), (0, 4), (1, 5),
         (0, 2, 4), (1, 3, 5)]}


def test_bricks_have_only_trivial_barriers(k4):
    for g in (k4, canonical("petersen")):
        assert not any(b.is_nontrivial for b in enumerate_barriers(g))


def test_matching_covered_barriers_leave_only_odd_components(
        exhaustive_corpus):
    # the lemma that makes witness_from_edge's even-component guard
    # unreachable: in a matching covered graph, g - B has exactly |B|
    # components for every barrier B, all of them odd
    graphs = [g for n in (2, 4, 6) for g in exhaustive_corpus[n]]
    graphs += [g for _, g, _ in fixture_instances()]
    checked = 0
    for g in graphs:
        assert is_matching_covered(g)
        edges = [ends for _, ends in g.edge_items()]
        for b in enumerate_barriers(g):
            comps = brute_components(g.vertices, edges, b.members)
            assert all(len(comp) % 2 for comp in comps), (g, b)
            assert len(comps) == len(b.members), (g, b)
            checked += 1
    assert checked > len(graphs)


def _check_barrier_search(g):
    """enumerate_barriers against the oracle."""
    every = brute_barriers(g)
    assert [b.members for b in enumerate_barriers(g)] == every, g
    return len(every)


def test_barrier_search_matches_oracle_on_shores(exhaustive_corpus):
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    found = sum(_check_barrier_search(g) for g in graphs)
    assert found > len(graphs)


def test_barrier_search_matches_oracle_off_matching_covered():
    # dependence is no partition here, but Tutte's bound still holds
    rng = Random(6)
    pairs = list(combinations(range(8), 2))
    checked = 0
    while checked < 200:
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
        edges += [rng.choice(pairs) for _ in range(rng.randint(1, 12))]
        g = Graph(range(8), edges)
        if not is_matching_covered(g):
            _check_barrier_search(g)
            checked += 1


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 2), (0, 3)],                                  # star
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],          # 2 K3
    [(u, v) for u in range(2) for v in range(2, 6)],           # K_{2,4}
    [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
     (7, 8), (8, 9), (7, 9), (0, 1), (0, 4), (0, 7)],          # 3 K3 at 0
], ids=["star", "two_triangles", "k24", "triangle_flower"])
def test_barrier_search_matches_oracle_without_perfect_matching(edges):
    g = Graph.from_edges(edges)
    assert g.n % 2 == 0 and not is_matchable(g)
    _check_barrier_search(g)


def _lift_contractions(g):
    """Every contraction that sweep._lift_scenarios builds for g."""
    x = g.fresh_vertex()
    nontrivial = [b for b in enumerate_barriers(g) if b.is_nontrivial]
    out = [g.contract(g.vertex_set - y, x)
           for b in nontrivial[:tightcut.sweep._LIFT_BARRIER_CAP]
           for y in b.odd_parts]
    out += [g.contract(g.vertex_set - kept, x)
            for s in find_2separations(g)[:tightcut.sweep._LIFT_2SEP_CAP]
            for d in two_separation_cuts(g, s) for kept in d.shores()]
    return out


def test_leading_barriers_open_the_listing(differential_corpus):
    """_leading_barriers(h, k) is enumerate_barriers(h)[:k] for the
    sweep's caps k = 3 and 5 on every contraction _lift_scenarios
    builds, whether k single vertices are barriers or the helper lists
    them all."""
    listed = Counter()
    for g in differential_corpus:
        for h in _lift_contractions(g):
            for k in (3, 5):
                got = _leading_barriers(h, k)
                assert got == enumerate_barriers(h)[:k], (h, k)
                listed[sum(not b.is_nontrivial for b in got) < k] += 1
    assert listed[True] > 1_000 and listed[False] > 1_000


def test_single_vertex_barriers_match_a_component_walk(differential_corpus):
    """is_barrier on every single vertex of the differential corpus, of
    the contractions _lift_scenarios builds from it, and of graphs with
    cut vertices, several components or odd order, each a fresh copy:
    the odd parts of a component walk, and None where that walk finds
    other than one."""
    graphs = list(differential_corpus)
    graphs += [h for g in differential_corpus for h in _lift_contractions(g)]
    graphs += [Graph.from_edges(edges) for edges in (
        [(0, 1), (1, 2), (2, 3)],                          # path
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],  # bowtie
        [(0, 1), (0, 2), (0, 3)],                          # star
        [(0, 1), (2, 3)],                                  # two edges
        [(0, 1), (1, 2), (0, 2), (3, 4)],                  # triangle, edge
        [(i, (i + 1) % 5) for i in range(5)],              # C5
    )]
    answers = Counter()
    for g in graphs:
        g = Graph(g.vertices, dict(g.edge_items()))
        edges = [ends for _, ends in g.edge_items()]
        for v in g.vertices if g.n > 1 else ():
            odd = [part for part in brute_components(g.vertices, edges, {v})
                   if len(part) % 2]
            b = is_barrier(g, {v})
            if len(odd) == 1:
                assert b is not None and list(b.odd_parts) == odd, (g, v)
            else:
                assert b is None, (g, v)
            answers[b is not None, v in g.cut_vertices()] += 1
    assert min(answers.values()) > 0 and len(answers) == 4


def test_dependence_is_the_canonical_partition(exhaustive_corpus):
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    graphs += [canonical("k4"), canonical("petersen")]
    for g in graphs:
        assert is_matching_covered(g)
        classes = dependence_classes(g)
        edges = [ends for _, ends in g.edge_items()]
        for u, part in classes.items():
            # an equivalence relation: each member has the same class
            assert all(classes[v] == part for v in part), (g, u)
            assert is_barrier(g, part) is not None, (g, sorted(part))
            assert brute_is_barrier(g.vertices, edges, part)
    for name in ("k4", "petersen"):
        g = canonical(name)
        assert all(len(part) == 1
                   for part in dependence_classes(g).values())


def _check_partners(g):
    """_dependent_partners against the pairwise matchability queries and
    the brute-force matching number of every g - v - w."""
    nu = brute_matching_numbers(g.vertices, [ends for _, ends in g.edge_items()])
    brute = {v: frozenset(w for w in g.vertices if w != v
                          and 2 * nu(g.vertex_set - {v, w}) < g.n - 2)
             for v in g.vertices}
    pairwise = {v: part - {v} for v, part in dependence_classes(g).items()}
    assert _dependent_partners(Graph(g.vertices, dict(g.edge_items()))) == \
        pairwise == brute, g


def test_dependent_partners_from_rows_match_pairwise_queries(
        exhaustive_corpus):
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    rng = Random(6)
    pairs = list(combinations(range(8), 2))
    off_covered = 0
    while off_covered < 200:
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
        edges += [rng.choice(pairs) for _ in range(rng.randint(1, 12))]
        g = Graph(range(8), edges)
        if not is_matching_covered(g):
            graphs.append(g)
            off_covered += 1
    for g in graphs:
        assert is_matchable(g)
        _check_partners(g)


def test_dependent_partners_without_perfect_matching():
    rng = Random(8)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 8)
        pairs = list(combinations(range(n), 2))
        g = Graph(range(n), rng.sample(pairs, rng.randint(1, len(pairs))))
        if not is_matchable(g):
            _check_partners(g)
            checked += 1


def test_dependent_partners_without_perfect_matching_larger_orders():
    """Seeded graphs on 9 to 14 vertices with no perfect matching: the
    partners as _check_partners checks them, and barrier listing leaves
    at most one induced subgraph per vertex in g's cache, the g - v
    that each partner search reads."""
    rng = Random(12)
    checked = 0
    while checked < 30:
        n = rng.randint(9, 14)
        pairs = list(combinations(range(n), 2))
        g = Graph(range(n), [rng.choice(pairs)
                             for _ in range(rng.randint(n, 2 * n))])
        if is_matchable(g):
            continue
        _check_partners(g)
        h = Graph(g.vertices, dict(g.edge_items()))
        enumerate_barriers(h)
        induced = [key for key in h._cache
                   if isinstance(key, tuple) and key[0] == "induced"]
        assert 0 < len(induced) <= h.n
        checked += 1


def test_barrier_guard_counts_one_canonical_part():
    # the guard measures the largest canonical part, not the pool: C18
    # offers 18 candidates, but its two canonical parts hold 9 each
    assert BARRIER_LIMIT == 16
    assert len(enumerate_barriers(cycle(18))) == 1022
    k = Graph(range(34), [(u, v) for u in range(17) for v in range(17, 34)])
    with pytest.raises(EnumerationLimitError,
                       match="17 candidates exceeds the guard of 16"):
        enumerate_barriers(k)
    # a GraphError, so the command line reports it with exit code 2
    assert issubclass(EnumerationLimitError, GraphError)


def test_barrier_cuts(c6):
    b = is_barrier(c6, {0, 2})
    cuts = barrier_cuts(c6, b)
    # shores are canonical: lexicographically smaller side wins
    assert {c.shore for c in cuts} == {
        frozenset({0, 2, 3, 4, 5}), frozenset({0, 1, 2})}
    assert {frozenset(c.other_shore) for c in cuts} == {
        frozenset({1}), frozenset({3, 4, 5})}


# two-separations -------------------------------------------------------------

def test_find_2separations_c6(c6):
    seps = find_2separations(c6)
    assert [s.pair for s in seps] == [(0, 3), (1, 4), (2, 5)]
    s = seps[0]
    assert s.side1 == frozenset({0, 1, 2, 3})
    assert s.side2 == frozenset({0, 3, 4, 5})


def test_two_separation_cuts_c6(c6):
    s = find_2separations(c6)[0]
    cuts = two_separation_cuts(c6, s)
    assert {c.shore for c in cuts} == {
        frozenset({0, 4, 5}), frozenset({0, 1, 2})}


def test_make_two_separation_validation(c6):
    with pytest.raises(GraphError):
        make_two_separation(c6, (0, 3), {0, 1, 3}, {0, 3, 4, 5, 2})
    with pytest.raises(GraphError):  # crossing edge 1-2
        make_two_separation(c6, (0, 3), {0, 1, 3, 4}, {0, 2, 3, 5})
    with pytest.raises(GraphError):  # sides must cover everything
        make_two_separation(c6, (0, 3), {0, 1, 2, 3}, {0, 3})


def test_bricks_have_no_2separations(k4):
    assert find_2separations(k4) == []
    assert find_2separations(canonical("petersen")) == []


def test_twoseps_generating_c6(c6):
    c = c6.boundary({0, 1, 2})
    assert [s.pair for s in twoseps_generating(c6, c)] == [(0, 3), (2, 5)]
    assert twoseps_generating(c6, c6.boundary({0})) == []
    with pytest.raises(GraphError):
        twoseps_generating(c6, cycle(6).boundary({0, 1, 2}))


def test_twoseps_generating_matches_the_listing(exhaustive_corpus):
    # every nontrivial tight cut of the exhaustive corpus, the fixtures
    # and random matching covered graphs on 8 to 12 vertices
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    for n in (8, 10, 12):
        graphs += enumerate_corpus(
            CorpusSpec("random", n=n, samples=40, seed=1000 + n))
    cuts = witnessed = 0
    for g in graphs:
        listing = find_2separations(g)
        for c in enumerate_tight_cuts(g, nontrivial_only=True):
            want = [s for s in listing if c in two_separation_cuts(g, s)]
            got = twoseps_generating(g, c)
            assert got == want, (g, c)
            cuts += 1
            witnessed += bool(want)
    assert cuts > 2000 and 0 < witnessed < cuts


def test_twoseps_generating_matches_the_listing_on_any_cut():
    # graphs with cut vertices, or no edge across the cut, take the
    # branches a matching covered graph never reaches
    rng = Random(9)
    for _ in range(400):
        n = rng.choice([4, 6, 7, 8, 10])
        pairs = list(combinations(range(n), 2))
        g = Graph(range(n), rng.sample(pairs, rng.randint(0, len(pairs))))
        listing = find_2separations(g)
        for _ in range(5):
            c = g.boundary(rng.sample(range(n), rng.randint(1, n - 1)))
            assert twoseps_generating(g, c) == [
                s for s in listing if c in two_separation_cuts(g, s)], (g, c)


def test_twoseps_generating_returns_only_generating_separations(
        exhaustive_corpus):
    """The construction proof in twoseps_generating's docstring: every
    separation it returns generates the cut, on every cut through the
    smallest vertex of the exhaustive corpus and of 400 random graphs on
    4 to 8 vertices, some with no perfect matching, some disconnected."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    rng = Random(11)
    for _ in range(400):
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        graphs.append(
            Graph(range(n), rng.sample(pairs, rng.randint(0, len(pairs)))))
    assert any(not is_matchable(g) for g in graphs)
    assert any(not g.is_connected() for g in graphs)
    cuts = returned = 0
    for g in graphs:
        first, rest = g.vertices[0], g.vertices[1:]
        for k in range(len(rest)):
            for others in combinations(rest, k):
                c = g.boundary((first, *others))
                for s in twoseps_generating(g, c):
                    assert c in two_separation_cuts(g, s), (g, c, s)
                    returned += 1
                cuts += 1
    assert cuts > 100_000 and returned > 10_000


def test_find_2separations_guard_fails_fast():
    assert GROUPING_LIMIT == 1 << 16
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="18 components"):
        find_2separations(theta(18))
    assert time.perf_counter() - start < 1.0


# strict barriers -------------------------------------------------------------

def test_strictness_hand_cases(c6):
    loose = is_barrier(c6, {0, 2})
    # the path component 3-4-5 is not critical
    assert is_strict_barrier(c6, loose) is False
    tight = is_barrier(c6, {0, 2, 4})
    assert is_strict_barrier(c6, tight) is True
    core = barrier_core(c6, tight)
    assert core.n == 6
    assert core.m == 6
    assert is_matching_covered(core)


def _pairwise_dependent_sets(g):
    """Every nonempty vertex set whose members are pairwise dependent:
    the candidates enumerate_barriers tries, by size then lex order."""
    partners = _dependent_partners(g)
    out = []

    def grow(chosen, options):
        for i, v in enumerate(options):
            out.append(chosen + (v,))
            grow(chosen + (v,), [w for w in options[i + 1:]
                                 if w in partners[v]])

    grow((), list(g.vertices))
    return [frozenset(c) for c in out if len(c) < g.n]


def test_memoized_barrier_answers_match_a_fresh_graph(exhaustive_corpus):
    """is_barrier and is_strict_barrier answer on a graph whose memos
    are warm as on a freshly built copy, and the is_barrier memo holds
    exactly the barriers: no negative answer is stored."""
    graphs = [g for n in (2, 4, 6) for g in exhaustive_corpus[n]]
    graphs += [g for _, g, _ in fixture_instances()]
    strict_checked = 0
    for g in graphs:
        fresh = Graph(g.vertices, dict(g.edge_items()))
        listed = {b.members for b in enumerate_barriers(g)}
        for members in _pairwise_dependent_sets(g):
            want = is_barrier(fresh, members)
            for _ in range(2):
                got = is_barrier(g, members)
                assert (got is None) == (want is None), (g, members)
            if want is None:
                continue
            assert got.odd_parts == want.odd_parts, (g, members)
            want_strict = is_strict_barrier(fresh, want)
            for _ in range(2):
                assert is_strict_barrier(g, got) == want_strict, (g, members)
            strict_checked += 1
        assert set(g._cache["barrier_parts"]) == listed, g
    assert strict_checked > len(graphs)


def test_barrier_core_shape(c6):
    b = is_barrier(c6, {0, 2, 4})
    core = barrier_core(c6, b)
    # singleton components become fresh vertices 6, 7, 8 in order
    assert core.vertices == (0, 2, 4, 6, 7, 8)
    # 6 stands for 1 and 8 for 5: their edges to B come from theirs
    assert [core.edge_ends(e) for e in (0, 1, 4, 5)] == [
        (0, 6), (2, 6), (4, 8), (0, 8)]
    # edge ids survive from the host
    assert set(core.edge_ids) == set(range(6))


def test_barrier_core_drops_internal_and_even_edges():
    # even tail 1-2 plus a pendant triangle: B = {0}, odd part {4, 5, 6}
    g = Graph([0, 1, 2, 4, 5, 6],
              [(0, 1), (1, 2), (0, 4), (4, 5), (5, 6), (6, 4)])
    b = is_barrier(g, {0})
    assert b is not None
    assert b.odd_parts == (frozenset({4, 5, 6}),)
    core = barrier_core(g, b)
    assert core.vertices == (0, 7)
    assert set(core.edge_ids) == {2}  # only the bridge 0-4 survives


def test_core_read_off_the_matching_matches_the_built_core(
        monkeypatch, exhaustive_corpus):
    """is_strict_barrier reads the core off g's cached maximum matching
    (_core_covered) when it pairs each member with its own odd part, and
    builds barrier_core otherwise. Over every barrier of the exhaustive
    n <= 6 corpus, the fixtures and 300 random graphs on 6 to 10
    vertices, with and without a perfect matching, the answer is
    is_matching_covered of the built core; the built route runs only on
    graphs with no perfect matching, and both routes run."""
    built = []
    core = tightcut.structure.barrier_core

    def spied(g, b):
        built.append(g)
        return core(g, b)

    monkeypatch.setattr(tightcut.structure, "barrier_core", spied)
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    rng = Random(37)
    for _ in range(300):
        n = rng.randrange(6, 11)
        pairs = list(combinations(range(n), 2))
        graphs.append(Graph(range(n), rng.sample(pairs, rng.randint(n, 2 * n))))
    assert {is_matchable(g) for g in graphs[-300:]} == {False, True}
    read = checked = 0
    for g in graphs:
        for b in enumerate_barriers(g):
            before = len(built)
            assert _core_covered(g, b) == is_matching_covered(core(g, b)), b
            read += len(built) == before
            checked += 1
    assert 0 < read < checked
    assert not any(is_matchable(g) for g in built)


# find_strict_barrier ---------------------------------------------------------

def dead_cut_instance():
    """Path 4-5-0-1 with shore {0, 1}: its single cut edge is dead."""
    g = Graph([0, 1, 4, 5], [(4, 5), (5, 0), (0, 1)])
    return g, frozenset({0, 1})


def pivot_setups(g, c):
    """(stripped, dead shore) for each good edge of c and each endpoint
    with two distinct cross neighbours, as witness_from_edge builds
    them: the pivot loses its edges into its own shore, which leaves a
    dead cut at that shore less the pivot."""
    for eid in sorted(c.edge_ids):
        a, b = g.edge_ends(eid)
        u, v = (a, b) if a in c.shore else (b, a)
        if not (g.induced(c.shore - {u}).is_connected()
                and g.induced(c.other_shore - {v}).is_connected()):
            continue
        for pivot, pshore in ((u, c.shore), (v, c.other_shore)):
            if sum(w not in pshore for w in g.neighbors(pivot)) < 2:
                continue
            inward = [inc for inc in g.incident(pivot)
                      if set(g.edge_ends(inc)) - {pivot} <= pshore]
            yield g.without_edges(inward), pshore - {pivot}


@pytest.mark.parametrize("case", ["constructive", "exhaustive", "auto"])
def test_find_strict_barrier_on_dead_cut(case):
    """constructive: the exact answer on P4; exhaustive: the subset scan
    agrees on the shore and the members; auto: the cut given by its
    other shore is answered from that shore by the mirror barrier."""
    g, x = dead_cut_instance()
    hit = find_strict_barrier(g, x)
    b = is_barrier(g, hit.barrier.members)
    assert b is not None and is_strict_barrier(g, b)
    assert all(part <= hit.shore for part in b.odd_parts)
    assert is_matching_covered(barrier_core(g, hit.barrier))
    if case == "constructive":
        assert (hit.shore, b.members) == (x, frozenset({0}))
        assert b.odd_parts == (frozenset({1}),)
    elif case == "exhaustive":
        edges = [g.edge_ends(eid) for eid in g.edge_ids]
        assert hit.shore == x
        assert brute_confined_strict_barrier(g.vertices, edges, x) == b.members
    else:
        y = g.vertex_set - x
        mirror = find_strict_barrier(g, y)
        assert (mirror.shore, mirror.barrier.members) == (
            y, frozenset({5}))
        assert mirror.barrier.odd_parts == (frozenset({4}),)
        assert is_matching_covered(barrier_core(g, mirror.barrier))


def test_find_strict_barrier_on_a_pivot_stripped_fixture():
    g, shore = next((g, shore) for name, g, shore in fixture_instances()
                    if name == "blocked_triangle")
    stripped, x = next(pivot_setups(g, g.boundary(shore)))
    assert x == {0, 1}
    hit = find_strict_barrier(stripped, x)
    # the first shore {0, 1} holds none, so the hit is on the second
    assert hit.shore == stripped.vertex_set - x
    assert hit.barrier.members == {8}
    assert hit.barrier.odd_parts == (frozenset({2, 5, 6}),)


def test_find_strict_barrier_validates(c6):
    with pytest.raises(GraphError):
        find_strict_barrier(c6, set())
    with pytest.raises(GraphError):
        find_strict_barrier(c6, {0, 9})           # 9 is not a vertex
    with pytest.raises(GraphError):
        find_strict_barrier(c6, range(6))         # the whole vertex set
    with pytest.raises(GraphError, match="not matchable"):
        find_strict_barrier(Graph(range(4), [(0, 1), (0, 2), (0, 3)]), {0, 1})
    # C6's cuts all have admissible edges, so the cut is not dead
    with pytest.raises(GraphError):
        find_strict_barrier(c6, {0, 1})
    g, _ = dead_cut_instance()
    with pytest.raises(GraphError):
        find_strict_barrier(g, {0, 4})  # disconnected shore subgraph
    # a dead cut whose shore {0, 1, 3, 4} is two disjoint edges: no
    # strict barrier is confined to either shore, so the search needs
    # connected shores
    edges = [(0, 4), (1, 3), (2, 5), (0, 2), (2, 4), (1, 5), (3, 5)]
    g, x = Graph(range(6), edges), frozenset({0, 1, 3, 4})
    assert not any(is_admissible(g, eid) for eid in g.boundary(x).edge_ids)
    for shore in (x, g.vertex_set - x):
        assert brute_confined_strict_barrier(range(6), edges, shore) is None
    with pytest.raises(GraphError, match="connected"):
        find_strict_barrier(g, x)


def test_strict_barrier_loop_raises_on_a_live_cut(c6):
    """The loop runs no entry check. On a cut that C6's cached perfect
    matching 01, 23, 45 meets, no candidate of the shore {1, 2} is a
    confined strict barrier, and the read of D(g[S] - a) at a = 4 of
    S = {0, 3, 4, 5} finds 0, 3 and 5 unmatched and returns None. The
    loop raises the internal error that decompose_tight_cut's failure
    path turns into "cut is not tight"."""
    with pytest.raises(InternalInvariantError, match="meets the dead cut"):
        _strict_barrier_in(c6, frozenset({1, 2}))


@pytest.fixture(scope="module")
def dead_cut_setups_of_the_gate(exhaustive_corpus):
    """The sweep's dead-cut setups on the acceptance corpus, then the
    pivot-stripped setups of every good edge on the fixtures."""
    fixtures = [g for _, g, _ in fixture_instances()]
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for spec in gate_specs() if spec.mode == "random"
               for g in enumerate_corpus(spec)]
    gate, pivoted = [], []
    for g in graphs + fixtures:
        gate.extend(dead_cut_setups(
            g, enumerate_tight_cuts(g, nontrivial_only=True)))
    for g in fixtures:
        for c in enumerate_tight_cuts(g, nontrivial_only=True):
            pivoted.extend(pivot_setups(g, c))
    return gate, pivoted


def test_find_strict_barrier_matches_the_subset_scan(
        dead_cut_setups_of_the_gate):
    gate, pivoted = dead_cut_setups_of_the_gate
    assert len(gate) == 6800 and len(pivoted) == 206
    for inner, x in gate + pivoted:
        hit = find_strict_barrier(inner, x)
        shores = (x, inner.vertex_set - x)
        b = is_barrier(inner, hit.barrier.members)
        assert b is not None and hit.shore in shores, (inner, x)
        assert all(part <= hit.shore for part in b.odd_parts), (inner, x)
        assert is_strict_barrier(inner, b), (inner, x)
        # the scan finds one too, and the first shore holding one is the
        # shore the construction reports
        edges = [inner.edge_ends(eid) for eid in inner.edge_ids]
        first = next((shore for shore in shores
                      if brute_confined_strict_barrier(
                          inner.vertices, edges, shore) is not None), None)
        assert hit.shore == first, (inner, x)


# lifts ------------------------------------------------------------------------

def test_lift_over_odd_component_with_label(c6):
    b = is_barrier(c6, {0, 2})
    # contraction of everything outside {3,4,5} is a 4-cycle on 3,4,5,6
    lifted = lift_barrier_over_odd_component(c6, b, {3, 4, 5}, {4, 6})
    assert lifted.members == frozenset({0, 2, 4})


def test_lift_over_odd_component_verbatim(c6):
    b = is_barrier(c6, {0, 2})
    lifted = lift_barrier_over_odd_component(c6, b, {3, 4, 5}, {3, 5})
    assert lifted.members == frozenset({3, 5})


def test_lift_over_odd_component_validates(c6):
    b = is_barrier(c6, {0, 2})
    with pytest.raises(GraphError):
        lift_barrier_over_odd_component(c6, b, {3, 4}, {4, 6})
    trivial = is_barrier(c6, {0})
    with pytest.raises(GraphError):
        lift_barrier_over_odd_component(c6, trivial, {1, 2, 3, 4, 5}, {2})
    with pytest.raises(GraphError):
        lift_barrier_over_odd_component(c6, b, {3, 4, 5}, {3, 4})  # not a barrier


def test_lift_over_2sep_with_label(c6):
    s = find_2separations(c6)[0]            # pair (0, 3)
    d = c6.boundary({0, 1, 2})
    lifted = lift_barrier_over_2sep(c6, s, d, {1, 6})
    assert lifted.members == frozenset({1, 3})


def test_lift_over_2sep_verbatim(c6):
    s = find_2separations(c6)[0]
    d = c6.boundary({0, 1, 2})
    lifted = lift_barrier_over_2sep(c6, s, d, {0, 2})
    assert lifted.members == frozenset({0, 2})


def test_lift_over_2sep_validates(c6):
    s = find_2separations(c6)[0]
    with pytest.raises(GraphError):
        lift_barrier_over_2sep(c6, s, c6.boundary({1, 2}), {0, 2})
    d = c6.boundary({0, 1, 2})
    with pytest.raises(GraphError):
        lift_barrier_over_2sep(c6, s, d, {1, 2})  # barrier of neither side


def test_lifts_match_the_substitution_formula(monkeypatch, exhaustive_corpus):
    """On the sweep's lift scenarios of the exhaustive corpus and the
    fixtures, both public lifts return the substitution formula's
    members: the inner barrier with the contraction vertex replaced by
    all of B (odd component), or by the pair member on the contracted
    side of the first contraction, d.shore first, that has the barrier
    (two-separation); an inner barrier without that vertex unchanged.
    The sweep lifts only the first inner barriers, single vertices
    below the contraction vertex on a two-separation, so every inner
    barrier that holds that vertex is lifted over each two-separation
    too."""
    def substituted(members, label, replacement):
        members = frozenset(members)
        if label in members:
            return (members - {label}) | replacement
        return members

    seen = Counter()

    def over_odd_component(g, b, y, b_prime):
        got = lift_barrier_over_odd_component(g, b, y, b_prime)
        label = g.fresh_vertex()
        assert got.members == substituted(b_prime, label, b.members)
        seen["odd component", label in b_prime] += 1
        return got

    def over_2sep(g, s, d, b):
        got = lift_barrier_over_2sep(g, s, d, b)
        label = g.fresh_vertex()
        kept = next(
            k for k in (d.shore, d.other_shore)
            if set(b) <= k | {label} and is_barrier(
                g.contract(g.vertex_set - k, label), b) is not None)
        member = next(p for p in s.pair if p not in kept)
        assert got.members == substituted(b, label, {member})
        seen["two-separation", label in b] += 1
        return got

    monkeypatch.setattr(tightcut.sweep, "lift_barrier_over_odd_component",
                        over_odd_component)
    monkeypatch.setattr(tightcut.sweep, "lift_barrier_over_2sep", over_2sep)
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    report = SweepReport("lifts")
    for g in graphs:
        tightcut.sweep._lift_scenarios("", g, report)
    assert report.lift_scenarios == sum(seen.values())
    for g in graphs:
        label = g.fresh_vertex()
        for s in find_2separations(g):
            for d in two_separation_cuts(g, s):
                for kept in d.shores():
                    inner = g.contract(g.vertex_set - kept, label)
                    for bp in enumerate_barriers(inner):
                        if label in bp.members:
                            over_2sep(g, s, d, bp.members)
    assert min(seen.values()) > 100 and len(seen) == 4, seen
