"""Canonical graphs, corpus generation, and the pinned fixtures."""

from itertools import combinations
from random import Random

import pytest

from tightcut.cuts import is_tight
from tightcut.graph import Graph, GraphError
from tightcut.instances import (
    _DENSITY_SCHEDULE,
    EXHAUSTIVE_MAX_N,
    RANDOM_MAX_N,
    CorpusSpec,
    canonical,
    canonical_names,
    enumerate_corpus,
    fixture_instances,
)
from tightcut.matching import is_matching_covered

from conftest import brute_components, brute_is_matching_covered


# canonical graphs --------------------------------------------------------------

def test_canonical_names():
    names = canonical_names()
    assert set(names) >= {"K2", "K4", "K33", "PETERSEN", "PRISM", "CUBE",
                          "DOUBLE_K4", "C2K(k)"}
    assert names == tuple(sorted(names[:-1])) + ("C2K(k)",)


def test_canonical_lookup_is_forgiving():
    assert canonical("k4").n == 4
    assert canonical("  Petersen ").n == 10
    assert canonical("c2k(3)").n == 6


def test_canonical_c2k():
    doubled = canonical("C2K(1)")
    assert doubled.n == 2 and doubled.m == 2
    assert len(doubled.edges_between(0, 1)) == 2
    c8 = canonical("C2K(4)")
    assert c8.n == 8 and c8.m == 8
    with pytest.raises(GraphError):
        canonical("C2K(0)")


def test_canonical_rejects_unknown():
    with pytest.raises(GraphError, match="known:"):
        canonical("K5")


@pytest.mark.parametrize("name", [n for n in canonical_names()
                                  if n != "C2K(k)"] + ["C2K(2)"])
def test_canonical_graphs_are_matching_covered(name):
    g = canonical(name)
    assert is_matching_covered(g)


def test_canonical_shapes():
    assert canonical("K33").m == 9
    assert canonical("PRISM").m == 9
    assert canonical("CUBE").m == 12
    assert canonical("DOUBLE_K4").m == 11
    assert canonical("PETERSEN").m == 15


# exhaustive mode ----------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 6])
def test_exhaustive_matches_oracle(n):
    got = list(enumerate_corpus(CorpusSpec("exhaustive", n=n)))
    pairs = list(combinations(range(n), 2))
    want = []
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(brute_components(range(n), edges)) == 1 \
                and brute_is_matching_covered(range(n), edges):
            want.append(sorted(edges))
    assert [sorted(tuple(sorted(g.edge_ends(e))) for e in g.edge_ids)
            for g in got] == want
    # the generator decides no matching question on the graphs it
    # yields, so the sweep's is_matching_covered check is a real one
    assert not any("matching_covered" in g._cache for g in got)


def test_exhaustive_odd_n_is_empty():
    assert list(enumerate_corpus(CorpusSpec("exhaustive", n=5))) == []


def test_exhaustive_bounds():
    with pytest.raises(GraphError):
        list(enumerate_corpus(CorpusSpec("exhaustive", n=0)))
    with pytest.raises(GraphError):
        list(enumerate_corpus(
            CorpusSpec("exhaustive", n=EXHAUSTIVE_MAX_N + 1)))


# random mode --------------------------------------------------------------------

def edge_lists(graphs):
    return [sorted(tuple(sorted(g.edge_ends(e))) for e in g.edge_ids)
            for g in graphs]


def test_random_is_deterministic():
    spec = CorpusSpec("random", n=8, samples=5, seed=7)
    first = edge_lists(enumerate_corpus(spec))
    second = edge_lists(enumerate_corpus(spec))
    assert first == second
    assert len(first) == 5


def test_random_seed_changes_output():
    a = edge_lists(enumerate_corpus(CorpusSpec("random", n=8, samples=5,
                                               seed=0)))
    b = edge_lists(enumerate_corpus(CorpusSpec("random", n=8, samples=5,
                                               seed=1)))
    assert a != b


def _unfiltered_random(spec):
    """Random mode without the skip of draws that leave a vertex of
    degree below 2: every draw is built and tested."""
    rng = Random(spec.seed * 1_000_003 + spec.n)
    pairs = list(combinations(range(spec.n), 2))
    attempts = 0
    out = []
    while len(out) < spec.samples:
        density = _DENSITY_SCHEDULE[attempts % len(_DENSITY_SCHEDULE)]
        attempts += 1
        p = min(0.95, density / (spec.n - 1))
        edges = [pair for pair in pairs if rng.random() < p]
        g = Graph(range(spec.n), edges)
        if is_matching_covered(g):
            out.append(g)
    return out


@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_random_degree_skip_keeps_the_corpus(n):
    for seed in range(6):
        spec = CorpusSpec("random", n=n, samples=4, seed=seed)
        assert edge_lists(enumerate_corpus(spec)) \
            == edge_lists(_unfiltered_random(spec)), seed


def test_random_products_pass_filters():
    spec = CorpusSpec("random", n=10, samples=4, seed=3)
    out = list(enumerate_corpus(spec))
    assert len(out) == 4
    for g in out:
        assert g.n == 10
        assert g.is_connected()
        assert is_matching_covered(g)


def test_random_bounds():
    with pytest.raises(GraphError):
        list(enumerate_corpus(CorpusSpec("random", n=3, samples=1)))
    with pytest.raises(GraphError):
        list(enumerate_corpus(CorpusSpec("random", n=RANDOM_MAX_N + 2,
                                         samples=1)))
    with pytest.raises(GraphError):  # odd order cannot be matching covered
        list(enumerate_corpus(CorpusSpec("random", n=5, samples=1)))
    assert list(enumerate_corpus(CorpusSpec("random", n=8, samples=0))) == []


# named mode and mode validation --------------------------------------------------

def test_named_mode():
    spec = CorpusSpec("named", names=("K4", "PETERSEN"))
    out = list(enumerate_corpus(spec))
    assert [g.n for g in out] == [4, 10]


def test_unknown_mode():
    with pytest.raises(GraphError):
        list(enumerate_corpus(CorpusSpec("telepathic")))


# fixtures -----------------------------------------------------------------------

def test_fixture_instances_are_wired_for_decomposition():
    fixtures = fixture_instances()
    names = [name for name, _, _ in fixtures]
    assert names == ["double_bowtie", "shielded_bowtie", "blocked_triangle",
                     "bridged_triangle", "blocked_pair"]
    for name, g, shore in fixtures:
        assert is_matching_covered(g), name
        cut = g.boundary(shore)
        assert not cut.is_trivial, name
        assert is_tight(g, cut), name
