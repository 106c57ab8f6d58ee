"""Graph and Cut fundamentals, traced by hand on small graphs, every
public method against answers from the edge list alone, and the
derived-graph fast paths against the validating constructor."""

import gc
import weakref
from collections.abc import Mapping
from itertools import combinations
from random import Random

import pytest

from tightcut.cuts import enumerate_tight_cuts
from tightcut.decompose import decompose_tight_cut
from tightcut.graph import Graph, GraphError
from tightcut.instances import CorpusSpec, fixture_instances
from tightcut.matching import find_perfect_matching
from tightcut.structure import (
    enumerate_barriers,
    find_2separations,
    is_barrier,
    is_strict_barrier,
)
from tightcut.sweep import SweepReport
from tightcut.verify import VerificationResult

from conftest import brute_components, cycle


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
    g = Graph.from_edges([(2, 5), (5, 9)])
    assert g.vertices == (2, 5, 9)


def test_from_edges_reads_an_iterator_once():
    g = Graph.from_edges((u, v) for u, v in [(0, 1), (1, 2)])
    assert g.vertices == (0, 1, 2)
    assert g.edge_items() == [(0, (0, 1)), (1, (1, 2))]


def test_from_edges_keeps_mapping_ids():
    g = Graph.from_edges({7: (3, 1), 2: (1, 4)})
    assert g.vertices == (1, 3, 4)
    assert g.edge_items() == [(2, (1, 4)), (7, (1, 3))]


def test_generic_value_constructor_binds_like_a_signature():
    """_Value's constructor, which the cold value types share, takes each
    field once, by position or keyword, fills in the class's defaults,
    and refuses what a written signature would refuse."""
    assert CorpusSpec("random", 8, seed=3) == CorpusSpec("random", 8, 0, 3, ())
    report = SweepReport(command="unit", elapsed=1.5)
    assert (report.instances, report.violations, report.elapsed) == (
        0, [], 1.5)
    assert VerificationResult(failures=(), ok=True).ok
    for args, kwargs in [((), {}), (("random", 8), {"n": 8}),
                         (("random",), {"size": 8}),
                         (("random", 8, 0, 0, (), 1), {})]:
        with pytest.raises(TypeError, match="CorpusSpec"):
            CorpusSpec(*args, **kwargs)
    with pytest.raises(TypeError, match="missing field 'failures'"):
        VerificationResult(True)


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


def test_contract_provenance_accumulates():
    """The bridged_triangle chain of cut {0, 1, 2}: its second step
    contracts the first step's label, and its two contractions give the
    graph that one contraction of all the input vertices the last label
    stands for gives."""
    [g] = [g for name, g, _ in fixture_instances()
           if name == "bridged_triangle"]
    cert = decompose_tight_cut(g, g.boundary({0, 1, 2}))
    assert [(step.contracted_shore, step.new_vertex)
            for step in cert.steps] == [({4, 8, 9}, 10), ({3, 7, 10}, 11)]
    assert g.contract({4, 8, 9}, 10).contract({3, 7, 10}, 11) \
        == cert.final_graph == g.contract({3, 4, 7, 8, 9}, 11)


def test_contract_rejects_bad_input(c6):
    with pytest.raises(GraphError):
        c6.contract(set())
    with pytest.raises(GraphError):
        c6.contract(set(range(6)))
    with pytest.raises(GraphError):
        c6.contract({0, 1}, 4)  # label collides with survivor
    for label in (2.5, "x"):
        with pytest.raises(GraphError, match="is not an int"):
            c6.contract({3, 4, 5}, label)


# every public method against the edge list -----------------------------------

def random_multigraphs(count: int, seed: int):
    """Seeded graphs on sparse vertex labels with parallel edges, each
    followed by a contraction of it."""
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


# a label no graph of random_multigraphs or its contractions uses
ABSENT = 99


def _check_against_the_edge_list(g: Graph, verts, emap, rng):
    """Every query of g against answers computed from its vertices and
    its edges emap (id -> ends, in any order and orientation) alone:
    plain edge scans, brute_components, and cut vertices found by
    deleting each vertex in turn."""
    verts = sorted(verts)
    ends = {eid: tuple(sorted(uv)) for eid, uv in sorted(emap.items())}
    pairs = list(ends.values())
    assert g.vertices == tuple(verts) and g.vertex_set == frozenset(verts)
    assert (g.n, g.m) == (len(verts), len(ends))
    # edges run in ascending id order, however the graph was built
    assert g.edge_ids == tuple(ends)
    assert g.edge_items() == list(ends.items())
    pos, rows = g.positions()
    assert pos == {v: i for i, v in enumerate(verts)}
    for v in verts:
        incident = [eid for eid, uv in ends.items() if v in uv]
        nbrs = sorted({w for eid in incident for w in ends[eid] if w != v})
        assert rows[pos[v]] == [pos[w] for w in nbrs]
        assert g.neighbors(v) == tuple(nbrs)
        assert g.incident(v) == tuple(incident)
        assert g.degree(v) == len(incident)
        for w in verts + [ABSENT]:
            between = tuple(eid for eid in incident if ends[eid] in
                            ((v, w), (w, v)))
            assert g.edges_between(v, w) == between
            assert g.has_edge(v, w) == bool(between)
    for query in (g.neighbors, g.incident, g.degree):
        with pytest.raises(GraphError):
            query(ABSENT)
    with pytest.raises(GraphError):
        g.edges_between(ABSENT, verts[0] if verts else ABSENT)
    comps = brute_components(verts, pairs)
    assert g.components() == tuple(comps)
    assert g.is_connected() == (len(comps) <= 1)
    for _ in range(3):
        banned = rng.sample(verts, rng.randint(0, len(verts)))
        assert g.components_without(banned) == tuple(
            brute_components(verts, pairs, banned))
    cuts = frozenset(v for v in verts
                     if len(brute_components(verts, pairs, {v})) > len(comps))
    assert g.cut_vertices() == cuts
    assert g.is_2connected() == (len(verts) >= 2 and len(comps) == 1 and (
        len(ends) >= 2 if len(verts) == 2 else not cuts))
    if len(verts) < 2:
        return
    # every cut: its edge ids -> its shore, the one holding verts[0]
    shores = {}
    for k in range(1, len(verts)):
        for rest in combinations(verts[1:], k - 1):
            shore = frozenset((verts[0],) + rest)
            cut = frozenset(eid for eid, (u, v) in ends.items()
                            if (u in shore) != (v in shore))
            c = g.boundary(g.vertex_set - shore)
            assert (c.shore, c.edge_ids) == (shore, cut)
            shores.setdefault(cut, shore)
    if len(comps) != 1:
        for cut in shores:
            if cut:
                with pytest.raises(GraphError):
                    g.cut_from_edge_ids(cut)
        return
    for cut, shore in shores.items():
        assert g.cut_from_edge_ids(cut).shore == shore
    for _ in range(4):
        some = frozenset(rng.sample(list(ends), rng.randint(1, len(ends))))
        if some not in shores:
            with pytest.raises(GraphError):
                g.cut_from_edge_ids(some)


def _derived(verts, emap, rng):
    """Random derived graphs of the graph with these fields, as (method,
    arguments, and the result's vertices and edges by definition, from
    the edge list alone)."""
    keep = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
    yield ("induced", (keep,), keep,
           {eid: uv for eid, uv in emap.items() if set(uv) <= keep})
    drop = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
    yield ("without_vertices", (drop,), frozenset(verts) - drop,
           {eid: uv for eid, uv in emap.items() if drop.isdisjoint(uv)})
    if len(verts) >= 2:
        part = frozenset(rng.sample(verts, rng.randint(1, len(verts) - 1)))
        # the label may sort after, before or among the survivors
        x = rng.choice([max(verts) + 1, min(verts) - 1,
                        rng.choice(sorted(part))])
        yield ("contract", (part, x), (frozenset(verts) - part) | {x},
               {eid: tuple(x if w in part else w for w in uv)
                for eid, uv in emap.items() if not set(uv) <= part})
    drop = rng.sample(list(emap), rng.randint(0, len(emap)))
    yield ("without_edges", (drop,), frozenset(verts),
           {eid: uv for eid, uv in emap.items() if eid not in drop})


def test_public_methods_match_the_edge_list():
    """Each graph of random_multigraphs is rebuilt from list input (edge
    ends in both orders) and from Mapping input on sparse shuffled ids;
    every public method of it, of its derived graphs (induced,
    without_vertices, contract, without_edges) and of theirs in turn is
    checked against the edge list."""
    rng = Random(13)
    seen = {"parallel": 0, "split": 0, "cut": 0}
    for g in random_multigraphs(40, seed=17):
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for _, (u, v) in g.edge_items()]
        verts = list(g.vertices)
        rng.shuffle(verts)
        ids = rng.sample(range(3 * g.m + 5), g.m)
        built = [(Graph(verts, edges), dict(enumerate(edges))),
                 (Graph(verts, dict(zip(ids, edges))), dict(zip(ids, edges)))]
        level = [(h, verts, emap) for h, emap in built]
        for depth in range(3):
            for h, vs, emap in level:
                _check_against_the_edge_list(h, vs, emap, rng)
                seen["parallel"] += len(set(map(frozenset, emap.values()))) \
                    < len(emap)
                seen["split"] += len(h.components()) > 1
                seen["cut"] += bool(h.cut_vertices())
            if depth < 2:
                level = [(getattr(h, name)(*args), list(vs2), emap2)
                         for h, vs, emap in level
                         for name, args, vs2, emap2 in _derived(
                             sorted(vs), emap, rng)]
    assert min(seen.values()) > 100, seen


def _reference_check(vertices, edges):
    """The constructor's input checks, in its order, kept as the oracle
    of its error text: int vertices, non-negative int edge ids, then,
    edge by edge in id order, no loop and both ends in the graph."""
    vset = set()
    for v in vertices:
        if not isinstance(v, int):
            raise GraphError(f"vertex {v!r} is not an int")
        vset.add(v)
    if isinstance(edges, Mapping):
        for eid in edges:
            if isinstance(eid, bool) or not isinstance(eid, int) or eid < 0:
                raise GraphError(f"edge id {eid!r} is not a non-negative int")
    items = sorted(edges.items()) if isinstance(edges, Mapping) \
        else enumerate(edges)
    for eid, (u, v) in items:
        if u == v:
            raise GraphError(f"loop at vertex {u} (edge {eid})")
        if u not in vset or v not in vset:
            raise GraphError(
                f"edge {eid} touches a vertex outside the graph: ({u}, {v})")


@pytest.mark.parametrize("vertices, edges", [
    ([0, 1, 2], [(0, 1), (2, 2)]),
    ([0, 1, 2], {7: (0, 1), 3: (1, 1)}),
    ([0, 1], [(0, 1), (0, 2)]),
    ([0, 1], {5: (3, 0), 2: (0, 1)}),
    ([0, "1", 2], [(0, 2)]),
    ([0, 1.0], [(0, 1)]),
    ([0, 1, None], [(0, 1), (1, 1)]),
    # edge ids are bit positions in the searches: no negative, non-int
    # or bool id, checked before sorting, which mixed types would fail
    ([0, 1, 2, 3], {-1: (0, 1), 0: (1, 2), 1: (2, 3), 2: (3, 0)}),
    ([0, 1, 2], {0: (0, 1), -1: (1, 1)}),
    ([0, 1, 2], {0: (0, 1), "1": (1, 2)}),
    ([0, 1], {True: (0, 1)}),
    ([0, 1], {1.0: (0, 1)}),
    ([0, 1], {None: (0, 1)}),
])
def test_constructor_rejects_as_the_reference_builder(vertices, edges):
    """Loops, edge ends outside the graph, non-int vertices and edge ids
    that are not non-negative ints raise the same GraphError, with the
    same text, as the reference."""
    with pytest.raises(GraphError) as want:
        _reference_check(vertices, edges)
    with pytest.raises(GraphError) as got:
        Graph(vertices, edges)
    assert str(got.value) == str(want.value)



def layout(g: Graph):
    """What g stores, read through its public accessors, dict key order
    included: vertices, edges in id order, positions and their rows."""
    pos, rows = g.positions()
    return (g.vertices, g.edge_items(), list(pos.items()), rows)


def test_induced_matches_the_validating_constructor():
    rng = Random(11)
    with_parallels = 0
    for g in random_multigraphs(150, seed=7):
        for _ in range(4):
            keep = frozenset(rng.sample(g.vertices, rng.randint(0, g.n)))
            emap = {eid: uv for eid, uv in g.edge_items()
                    if uv[0] in keep and uv[1] in keep}
            assert layout(g.induced(keep)) == layout(Graph(keep, emap))
            assert g.without_vertices(g.vertex_set - keep) is g.induced(keep)
            with_parallels += len(set(emap.values())) < len(emap)
    assert with_parallels


def test_induced_is_memoized_and_validated(c6):
    assert c6.induced([2, 1, 0]) is c6.induced({0, 1, 2})
    assert c6.without_vertices({3, 4, 5}) is c6.induced({0, 1, 2})
    with pytest.raises(GraphError):
        c6.induced({0, 7})


def test_contract_is_memoized_per_part_and_label():
    """A contraction equals the validating constructor's graph on its
    vertices and edges, key order included, whether its label sorts
    after, before or among the survivors."""
    rng = Random(3)
    for g in random_multigraphs(60, seed=5):
        if g.n < 3:
            continue
        part = rng.sample(g.vertices, rng.randint(1, g.n - 1))
        h = g.contract(part)
        assert g.contract(frozenset(reversed(part)), g.fresh_vertex()) is h
        other = g.contract(part, g.fresh_vertex() + 1)
        assert other is not h
        assert other.vertex_set != h.vertex_set
        rest = g.vertex_set - set(part)
        for x in (g.fresh_vertex(), g.vertices[0] - 1, rng.choice(part)):
            emap = {eid: tuple(x if w in part else w for w in uv)
                    for eid, uv in g.edge_items() if not set(uv) <= set(part)}
            assert layout(g.contract(part, x)) == layout(
                Graph(rest | {x}, emap))


def test_without_edges_matches_the_validating_constructor():
    rng = Random(23)
    for g in random_multigraphs(60, seed=29):
        drop = rng.sample(g.edge_ids, rng.randint(0, g.m))
        emap = {eid: uv for eid, uv in g.edge_items() if eid not in drop}
        assert layout(g.without_edges(drop)) == layout(
            Graph(g.vertex_set, emap))
    with pytest.raises(GraphError):
        g.without_edges([ABSENT])


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
    """An empty, foreign or whole-vertex-set shore raises, before and
    after every proper shore's cut is memoized."""
    for _ in range(2):
        for bad in (set(), {9}, {0, 9}, set(range(6))):
            with pytest.raises(GraphError, match="^a shore must be a "
                               "nonempty proper subset of the vertices$"):
                c6.boundary(bad)
        for size in range(1, 6):
            for shore in combinations(range(6), size):
                c6.boundary(shore)


def _boundary_by_edge_scan(g: Graph, shore):
    """The cut of shore from a scan of every edge, canonical by
    comparing the two shores' sorted lists."""
    s = frozenset(shore)
    comp = g.vertex_set - s
    eids = frozenset(eid for eid, (u, v) in g.edge_items()
                     if (u in s) != (v in s))
    return (s if sorted(s) < sorted(comp) else comp), eids


def test_boundary_matches_the_edge_scan():
    """Random shores of multigraphs on sparse labels and of their
    contractions, both shores of each: the same canonical shore and
    edge ids as scanning every edge."""
    rng = Random(13)
    checked = contracted = 0
    parent = None
    for g in random_multigraphs(200, seed=17):
        # a contraction comes right after its parent, which memoized it
        contraction = parent is not None and any(
            h is g for h in parent._cache.values())
        parent = g
        for _ in range(6):
            shore = rng.sample(g.vertices, rng.randint(1, g.n - 1))
            for side in (shore, g.vertex_set - frozenset(shore)):
                c = g.boundary(side)
                assert (c.shore, c.edge_ids) == _boundary_by_edge_scan(g, side)
                checked += 1
                contracted += contraction
    assert checked > 2_000 and contracted > 500


def test_memoized_boundary_matches_a_fresh_read(differential_corpus):
    """Every shore of the differential corpus through its smallest
    vertex, and that shore's complement: the boundary read twice, the
    second time from the memo, equals the read on a freshly built copy
    of the graph, and the edge scan."""
    checked = 0
    for g in differential_corpus:
        fresh = Graph(g.vertices, dict(g.edge_items()))
        first, rest = g.vertices[0], g.vertices[1:]
        for size in range(len(rest)):
            for combo in combinations(rest, size):
                shore = frozenset((first,) + combo)
                c = g.boundary(shore)
                assert g.boundary(g.vertex_set - shore) == c == \
                    fresh.boundary(g.vertex_set - shore), (g, shore)
                assert (c.shore, c.edge_ids) == _boundary_by_edge_scan(
                    g, shore), (g, shore)
                checked += 1
    assert checked > 100_000


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
