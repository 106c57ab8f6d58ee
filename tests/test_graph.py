"""Graph and Cut fundamentals, traced by hand on small graphs, and the
derived-graph fast paths against the validating constructor."""

import gc
import weakref
from itertools import combinations
from random import Random

import pytest

from tightcut.cuts import enumerate_tight_cuts
from tightcut.graph import Graph, GraphError
from tightcut.matching import find_perfect_matching
from tightcut.structure import (
    enumerate_barriers,
    find_2separations,
    is_barrier,
    is_strict_barrier,
)

from conftest import cycle


def test_vertices_and_edges_sorted(c6):
    assert c6.vertices == (0, 1, 2, 3, 4, 5)
    assert c6.n == 6
    assert c6.m == 6
    assert c6.edge_ids == (0, 1, 2, 3, 4, 5)
    assert c6.edge_ends(0) == (0, 1)
    assert c6.edge_ends(5) == (0, 5)


def test_endpoints_normalized():
    g = Graph([3, 7], [(7, 3)])
    assert g.edge_ends(0) == (3, 7)


def test_neighbors_degree_incident(c6):
    assert c6.neighbors(0) == (1, 5)
    assert c6.degree(0) == 2
    assert c6.incident(0) == (0, 5)
    assert c6.edges_between(0, 1) == (0,)
    assert c6.edges_between(0, 2) == ()
    assert c6.has_edge(0, 5)
    assert not c6.has_edge(0, 3)


def test_parallel_edges_kept():
    g = Graph([0, 1], [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.edges_between(0, 1) == (0, 1)
    assert g.degree(0) == 2


def test_loop_rejected():
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 0)])


def test_edge_outside_vertex_set_rejected():
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 2)])


def test_from_edges_infers_vertices():
    g = Graph.from_edges([(2, 5), (5, 9)], extra_vertices=[1])
    assert g.vertices == (1, 2, 5, 9)


def test_induced_keeps_edge_ids(c6):
    h = c6.induced({0, 1, 2})
    assert h.vertices == (0, 1, 2)
    assert h.edge_ids == (0, 1)
    assert h.edge_ends(1) == (1, 2)


def test_without_vertices_and_edges(c6):
    h = c6.without_vertices({3})
    assert h.vertices == (0, 1, 2, 4, 5)
    assert set(h.edge_ids) == {0, 1, 4, 5}
    h2 = c6.without_edges({0})
    assert h2.vertices == c6.vertices
    assert set(h2.edge_ids) == {1, 2, 3, 4, 5}


def test_components_and_connectivity():
    g = Graph(range(5), [(0, 1), (2, 3)])
    assert g.components() == (
        frozenset({0, 1}), frozenset({2, 3}), frozenset({4}))
    assert not g.is_connected()
    assert cycle(4).is_connected()


def test_components_without(c6):
    parts = c6.components_without({0, 3})
    assert set(parts) == {frozenset({1, 2}), frozenset({4, 5})}


# contraction ---------------------------------------------------------------

def test_contract_keeps_surviving_edge_ids(c6):
    h = c6.contract({3, 4, 5}, 9)
    assert h.vertices == (0, 1, 2, 9)
    # internal edges 3 and 4 vanish, the rest survive under their ids
    assert set(h.edge_ids) == {0, 1, 2, 5}
    assert h.edge_ends(2) == (2, 9)
    assert h.edge_ends(5) == (0, 9)


def test_contract_default_label_is_fresh(c6):
    h = c6.contract({3, 4, 5})
    assert h.vertices == (0, 1, 2, 6)


def test_contract_parallel_edges_from_cut():
    g = cycle(4)
    h = g.contract({1, 2, 3})
    assert h.n == 2
    assert h.edges_between(0, 4) == (0, 3)


def test_contract_provenance_accumulates(c6):
    h = c6.contract({3, 4, 5}, 9)
    assert h.provenance_of(9) == frozenset({3, 4, 5})
    assert h.provenance_of(0) == frozenset({0})
    h2 = h.contract({2, 9}, 10)
    assert h2.provenance_of(10) == frozenset({2, 3, 4, 5})


def test_contract_rejects_bad_input(c6):
    with pytest.raises(GraphError):
        c6.contract(set())
    with pytest.raises(GraphError):
        c6.contract(set(range(6)))
    with pytest.raises(GraphError):
        c6.contract({0, 1}, 4)  # label collides with survivor


# derived-graph fast paths ----------------------------------------------------

def fields(g: Graph):
    """Every field of g in its stored order, dict key order included."""
    return (g._vset, g._vlist, list(g._edges.items()),
            [(v, list(row.items())) for v, row in g._adj.items()],
            list(g.provenance.items()))


def random_multigraphs(count: int, seed: int):
    """Seeded graphs on sparse vertex labels with parallel edges, and a
    contraction of each, so some carry provenance."""
    rng = Random(seed)
    for _ in range(count):
        verts = rng.sample(range(30), rng.randint(2, 9))
        pairs = list(combinations(verts, 2))
        edges = [rng.choice(pairs) for _ in range(rng.randint(0, 16))]
        rng.shuffle(verts)
        g = Graph(verts, [(v, u) if rng.random() < 0.5 else (u, v)
                          for u, v in edges])
        yield g
        if g.n >= 3:
            yield g.contract(rng.sample(g.vertices, rng.randint(2, g.n - 1)))


def test_induced_matches_the_validating_constructor():
    rng = Random(11)
    with_provenance = with_parallels = 0
    for g in random_multigraphs(150, seed=7):
        for _ in range(4):
            keep = frozenset(rng.sample(g.vertices, rng.randint(0, g.n)))
            emap = {eid: uv for eid, uv in g.edge_items()
                    if uv[0] in keep and uv[1] in keep}
            prov = {v: p for v, p in g.provenance.items() if v in keep}
            old = Graph(keep, emap, provenance=prov)
            assert fields(g.induced(keep)) == fields(old)
            assert fields(g.without_vertices(g.vertex_set - keep)) == \
                fields(old)
            with_provenance += bool(prov)
            with_parallels += any(len(ids) > 1 for row in old._adj.values()
                                  for ids in row.values())
    assert with_provenance and with_parallels


def test_induced_is_memoized_and_validated(c6):
    assert c6.induced([2, 1, 0]) is c6.induced({0, 1, 2})
    assert c6.without_vertices({3, 4, 5}) is c6.induced({0, 1, 2})
    with pytest.raises(GraphError):
        c6.induced({0, 7})


def test_contract_is_memoized_per_part_and_label():
    rng = Random(3)
    for g in random_multigraphs(60, seed=5):
        if g.n < 3:
            continue
        part = rng.sample(g.vertices, rng.randint(1, g.n - 1))
        h = g.contract(part)
        assert g.contract(frozenset(reversed(part)), g.fresh_vertex()) is h
        fresh = Graph(g.vertices, dict(g.edge_items()),
                      provenance=g.provenance)
        assert fields(h) == fields(fresh.contract(part))
        other = g.contract(part, g.fresh_vertex() + 1)
        assert other is not h
        assert other.vertex_set != h.vertex_set


def test_graph_caches_hold_no_reference_to_their_graph():
    """Everything a graph caches, derived graphs included, is freed with
    the graph by reference counting alone."""
    gc.disable()
    try:
        g = cycle(6)
        assert find_perfect_matching(g) is not None
        assert enumerate_barriers(g)
        assert is_strict_barrier(g, is_barrier(g, {0, 2, 4}))
        assert find_2separations(g)
        assert g.contract({3, 4, 5}).n == 4
        assert g.induced({0, 1, 2}).m == 2
        assert {"perfect_matching", "barriers", "twoseps", "barrier_parts",
                "strict_barriers"} <= set(g._cache)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


# cut vertices and 2-connectivity ---------------------------------------------

def test_two_triangles_sharing_a_vertex_are_cut_there():
    g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert g.cut_vertices() == frozenset({2})
    assert not g.is_2connected()


def test_cycle_is_2connected(c6):
    assert c6.cut_vertices() == frozenset()
    assert c6.is_2connected()


def test_path_is_cut_at_its_inner_vertices():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert g.cut_vertices() == frozenset({1, 2})


def _cut_vertices_by_definition(g):
    """v is a cut vertex iff g - v has more components than g."""
    k = len(g.components())
    return frozenset(v for v in g.vertices
                     if len(g.without_vertices({v}).components()) > k)


def _cut_vertex_graphs(exhaustive_corpus):
    """Fresh copies of every exhaustive-corpus graph and of both shore
    subgraphs of each of its nontrivial tight cuts, then seeded random
    multigraphs with parallel edges, isolated vertices and several
    components."""
    for corpus in exhaustive_corpus.values():
        for g in corpus:
            yield Graph(g.vertices, dict(g.edge_items()))
            for c in enumerate_tight_cuts(g, nontrivial_only=True):
                for shore in c.shores():
                    h = g.induced(shore)
                    yield Graph(h.vertices, dict(h.edge_items()))
    rng = Random(11)
    for _ in range(600):
        n = rng.randint(1, 11)
        pairs = list(combinations(range(n), 2))
        edges = rng.choices(pairs, k=rng.randint(0, 2 * n)) if pairs else []
        edges += rng.sample(edges, len(edges) // 4)
        yield Graph(range(n), edges)


def test_cut_vertices_match_the_definition(exhaustive_corpus):
    seen = {"parallel": 0, "isolated": 0, "split": 0, "cut": 0}
    for g in _cut_vertex_graphs(exhaustive_corpus):
        got = g.cut_vertices()
        assert got == _cut_vertices_by_definition(g), g
        seen["parallel"] += len(set(map(g.edge_ends, g.edge_ids))) < g.m
        seen["isolated"] += any(g.degree(v) == 0 for v in g.vertices) \
            and g.n > 1
        seen["split"] += len(g.components()) > 1
        seen["cut"] += bool(got)
    # the sample reaches every case the search has to get right
    assert min(seen.values()) > 20, seen


def test_two_vertices_with_parallel_pair_2connected():
    g = Graph(range(2), [(0, 1), (0, 1)])
    assert g.is_2connected()
    assert not Graph(range(2), [(0, 1)]).is_2connected()


# cuts ------------------------------------------------------------------------

def test_boundary_canonicalizes_shore(c6):
    c = c6.boundary({3, 4, 5})
    assert c.shore == frozenset({0, 1, 2})
    assert c.other_shore == frozenset({3, 4, 5})
    assert c.edge_ids == frozenset({2, 5})
    assert c == c6.boundary({0, 1, 2})


def test_boundary_rejects_improper_shores(c6):
    with pytest.raises(GraphError):
        c6.boundary(set())
    with pytest.raises(GraphError):
        c6.boundary(set(range(6)))
    with pytest.raises(GraphError):
        c6.boundary({9})


def test_trivial_cut_flag(c6):
    assert c6.boundary({0}).is_trivial
    assert c6.boundary({1, 2, 3, 4, 5}).is_trivial
    assert not c6.boundary({0, 1, 2}).is_trivial


def test_cut_from_edge_ids_roundtrip(c6):
    c = c6.boundary({0, 1, 2})
    assert c6.cut_from_edge_ids(c.edge_ids) == c
    with pytest.raises(GraphError):
        c6.cut_from_edge_ids({0})  # single cycle edge is no cut
    with pytest.raises(GraphError):
        c6.cut_from_edge_ids({0, 99})


def test_cut_from_edge_ids_with_parallel_edges():
    """A neighbour stays on the same side while one of its parallel
    edges is left, and every shore round-trips through its edge ids."""
    g = Graph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    with pytest.raises(GraphError):
        g.cut_from_edge_ids({0, 2, 5})  # edge 1 still joins 0 and 1
    assert g.cut_from_edge_ids({0, 1, 4}).shore == frozenset({0})
    for size in (1, 2, 3):
        for shore in combinations(range(4), size):
            c = g.boundary(shore)
            assert g.cut_from_edge_ids(c.edge_ids) == c


def test_crossing_quadrants(c6):
    a = c6.boundary({0, 1, 2})
    b = c6.boundary({1, 2, 3})
    assert a.crosses(b)
    assert not a.crosses(a)
    nested = c6.boundary({1, 2})
    assert not a.crosses(nested)


def test_cross_needs_same_graph(c6, k4):
    with pytest.raises(GraphError):
        c6.boundary({0, 1, 2}).crosses(k4.boundary({0, 1}))


def test_tightness_transfers_to_contraction_by_edge_id(c6):
    c = c6.boundary({0, 1, 2})
    g1, g2 = c6.cut_contractions(c)
    assert {g1.n, g2.n} == {4}
    inner = g1.cut_from_edge_ids(c.edge_ids)
    assert inner.edge_ids == c.edge_ids
