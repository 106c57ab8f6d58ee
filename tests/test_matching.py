"""Matching kernel against the brute-force oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from tightcut import matching
from tightcut.cuts import is_tight
from tightcut.graph import EnumerationLimitError, Graph
from tightcut.matching import (
    ENUMERATION_LIMIT,
    all_perfect_matchings,
    find_perfect_matching,
    is_admissible,
    is_bicritical,
    is_critical,
    is_matchable,
    is_matching_covered,
    matching_number,
    matching_structure,
    perfect_matching_masks,
)

from conftest import (
    brute_is_critical,
    brute_is_matching_covered,
    brute_max_matching,
    brute_perfect_matchings,
    cycle,
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
    if not is_matchable(g):
        return
    pms = brute_perfect_matchings(range(n), edges)
    for eid in g.edge_ids:
        assert is_admissible(g, eid) == any(eid in pm for pm in pms)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_matching_covered_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    assert is_matching_covered(g) == brute_is_matching_covered(range(n), edges)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_critical_matches_oracle(data):
    n, edges = data
    g = Graph(range(n), edges)
    assert is_critical(g) == brute_is_critical(range(n), edges)


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


def test_matching_structure_on_star():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    ms = matching_structure(g)
    assert ms.deficiency == 2
    assert ms.exposed == frozenset({1, 2, 3})
    assert ms.attachments == frozenset({0})
    assert ms.rest == frozenset()


def test_matching_structure_perfect_graph(c6):
    ms = matching_structure(c6)
    assert ms.deficiency == 0
    assert ms.exposed == frozenset()
    assert ms.rest == frozenset(range(6))


def test_matching_structure_with_removed(c6):
    ms = matching_structure(c6, removed={0})
    assert ms.deficiency == 1
    # odd path 1-2-3-4-5: every vertex of odd index in the path matters;
    # the avoidable ones are the odd-position endpoints 1, 3, 5
    assert ms.exposed == frozenset({1, 3, 5})
    assert ms.attachments == frozenset({2, 4})


def test_enumeration_guard_is_fixed():
    assert ENUMERATION_LIMIT == 24
    assert len(perfect_matching_masks(cycle(ENUMERATION_LIMIT))) == 2
    with pytest.raises(EnumerationLimitError):
        perfect_matching_masks(cycle(ENUMERATION_LIMIT + 2))


def test_one_blossom_run_on_the_graph_itself(monkeypatch):
    # matching_number(g) and find_perfect_matching share one maximum
    # matching of g, so g itself goes through blossom once
    removed_sets = []
    blossom = matching._blossom_mates

    def spy(g, removed):
        removed_sets.append(removed)
        return blossom(g, removed)

    monkeypatch.setattr(matching, "_blossom_mates", spy)
    g = cycle(6)
    assert is_matching_covered(g)
    assert is_tight(g, g.boundary({0, 1, 2}))
    assert removed_sets.count(frozenset()) == 1
