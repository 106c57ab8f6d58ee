"""Witness search and the tight-cut decomposition chain."""

import json
import sys
from collections import Counter
from itertools import combinations

import pytest

import tightcut.cuts
import tightcut.decompose
import tightcut.matching
import tightcut.sweep
from tightcut.certificate import DecompositionCertificate
from tightcut.cuts import (
    classify_cut, enumerate_tight_cuts, is_tight, meets_once)
from tightcut.decompose import (
    BRANCH_ALREADY_WITNESSED,
    BRANCH_BARRIER_PHASE,
    BRANCH_BLOCK_SPLIT,
    BRANCH_FAR_SHORE_BARRIER,
    BRANCH_GOOD_EDGE,
    BRANCH_ODD_SIDE_TWOSEP,
    BRANCH_PULLBACK_BARRIER,
    BRANCH_PULLBACK_TWOSEP,
    BRANCH_SOLE_CROSS_NEIGHBORS,
    BRANCH_TWOSEP_STEP,
    BranchTally,
    WitnessFinding,
    _finding_failure,
    _shore_candidates,
    decompose_tight_cut,
    find_noncrossing_witness,
    witness_from_edge,
)
from tightcut.graph import (
    EnumerationLimitError, Graph, GraphError, InternalInvariantError)
from tightcut.instances import CorpusSpec, enumerate_corpus, fixture_instances
from tightcut.matching import (
    ENUMERATION_LIMIT, _dependence_row, _shore_missable, is_matching_covered)
from tightcut.structure import (
    Barrier, TwoSeparation, enumerate_barriers, find_strict_barrier,
    is_barrier)
from tightcut.sweep import run_sweep
from tightcut.verify import verify_certificate

from conftest import (
    brute_is_matching_covered,
    brute_is_tight,
    brute_perfect_matchings,
    cycle,
    dependence_classes,
    gate_specs,
    glued,
    inflated,
    theta,
)


FIXTURES = {name: (g, shore) for name, g, shore in fixture_instances()}
# every nontrivial tight cut of every fixture: 72, 15 of them with r >= 2
FIXTURE_CUTS = [(name, g, c) for name, (g, _) in sorted(FIXTURES.items())
                for c in enumerate_tight_cuts(g, nontrivial_only=True)]


def fixture_cut(name):
    g, shore = FIXTURES[name]
    return g, g.boundary(shore)


def check_finding(g, c, finding):
    """The postconditions every witness finding promises."""
    assert not finding.cut.is_trivial
    assert is_tight(g, finding.cut)
    assert not finding.cut.crosses(c)
    w = finding.witness
    if isinstance(w, Barrier):
        assert w.is_nontrivial
        [shore] = [side for side in c.shores() if w.members < side]
        opposite = g.vertex_set - shore
        assert any(opposite <= part for part in w.odd_parts)
    else:
        assert isinstance(w, TwoSeparation)
        cuts = (g.boundary(w.side1 - {w.pair[0]}),
                g.boundary(w.side1 - {w.pair[1]}))
        assert finding.cut in cuts


# witness_from_edge -------------------------------------------------------------

def test_witness_from_edge_sole_cross(c6):
    c = c6.boundary({0, 1, 2})
    tally = BranchTally()
    finding = witness_from_edge(c6, c, 2, tally)  # edge 2-3
    check_finding(c6, c, finding)
    assert tally.counts[BRANCH_SOLE_CROSS_NEIGHBORS] == 1


def test_witness_from_edge_validates(c6):
    c = c6.boundary({0, 1, 2})
    with pytest.raises(GraphError):
        witness_from_edge(c6, c, 0)  # edge 0-1 is inside the shore
    with pytest.raises(GraphError):
        witness_from_edge(c6, c6.boundary({0}), 5)  # trivial reference


def test_witness_from_edge_rejects_bad_edges():
    g, c = fixture_cut("double_bowtie")
    near, far = g.induced(c.shore), g.induced(c.other_shore)
    for eid in c.edge_ids:
        a, b = g.edge_ends(eid)
        u, v = (a, b) if a in c.shore else (b, a)
        assert u in near.cut_vertices() or v in far.cut_vertices()
        with pytest.raises(GraphError):
            witness_from_edge(g, c, eid)


# find_noncrossing_witness ------------------------------------------------------

def test_find_witness_double_bowtie():
    g, c = fixture_cut("double_bowtie")
    tally = BranchTally()
    finding = find_noncrossing_witness(g, c, tally)
    check_finding(g, c, finding)
    assert isinstance(finding.witness, TwoSeparation)
    assert tally.counts == {BRANCH_BLOCK_SPLIT: 1,
                            BRANCH_ODD_SIDE_TWOSEP: 1,
                            BRANCH_PULLBACK_TWOSEP: 1}


def test_find_witness_shielded_bowtie():
    g, c = fixture_cut("shielded_bowtie")
    tally = BranchTally()
    finding = find_noncrossing_witness(g, c, tally)
    check_finding(g, c, finding)
    assert finding.witness.members == frozenset({0, 1})
    assert finding.cut.shore == frozenset({0, 1, 2})
    assert tally.counts == {BRANCH_BLOCK_SPLIT: 1,
                            BRANCH_FAR_SHORE_BARRIER: 1,
                            BRANCH_PULLBACK_BARRIER: 1}


def test_find_witness_blocked_triangle():
    g, c = fixture_cut("blocked_triangle")
    tally = BranchTally()
    finding = find_noncrossing_witness(g, c, tally)
    check_finding(g, c, finding)
    assert isinstance(finding.witness, Barrier)
    assert tally.counts == {BRANCH_GOOD_EDGE: 1,
                            BRANCH_SOLE_CROSS_NEIGHBORS: 1}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_find_witness_postconditions(name):
    g, shore = FIXTURES[name]
    c = g.boundary(shore)
    finding = find_noncrossing_witness(g, c)
    check_finding(g, c, finding)


def test_block_split_pivot_is_the_contraction_vertex(monkeypatch):
    """The lemma in _witness_from_edge's docstring, on every block split
    of a fixture sweep: the contraction vertex s has two or more
    distinct neighbours across the inner cut, the far endpoint has only
    s, and a barrier found contains s or lies in the far shore. A call
    is a block split when its graph is not the one the enclosing search
    was given; s is the one vertex the contraction added."""
    search = tightcut.decompose._find_noncrossing_witness
    from_edge = tightcut.decompose._witness_from_edge
    outer, splits = [], []

    def searched(g, c, tally):
        outer.append(g)
        try:
            return search(g, c, tally)
        finally:
            outer.pop()

    def spied(g, c, eid, tally):
        finding = from_edge(g, c, eid, tally)
        if g is not outer[-1]:
            [s] = g.vertex_set - outer[-1].vertex_set
            splits.append((g, c, eid, finding, s))
        return finding

    for module in (tightcut.decompose, tightcut.sweep):
        monkeypatch.setattr(module, "_find_noncrossing_witness", searched)
    monkeypatch.setattr(tightcut.decompose, "_witness_from_edge", spied)
    report = run_sweep([], include_fixtures=True)
    assert report.ok
    assert len(splits) == report.branch_counts[BRANCH_BLOCK_SPLIT] > 0
    for g, c, eid, finding, s in splits:
        near, far = ((c.shore, c.other_shore) if s in c.shore
                     else (c.other_shore, c.shore))
        [w] = set(g.edge_ends(eid)) - {s}
        assert len({x for x in g.neighbors(s) if x in far}) >= 2
        assert {x for x in g.neighbors(w) if x in near} == {s}
        if isinstance(finding.witness, Barrier):
            members = finding.witness.members
            assert s in members or members <= far
    assert {s in c.shore for _, c, _, _, s in splits} == {True, False}
    assert any(isinstance(f.witness, Barrier) for _, _, _, f, _ in splits)


def test_finding_contract_wants_the_opposite_shore_held():
    """Barrier {0, 1} leaves the triangles {2, 3, 4} and {5, 6, 7}. With
    the reference shore {0, ..., 4}, the boundary of the triangle inside
    it passes the verifier's witness rule, but the shore it generates
    misses the opposite shore; the other triangle's boundary holds it."""
    g = Graph(range(8), [(2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (5, 7),
                         (0, 2), (0, 5), (1, 3), (1, 6)])
    c = g.boundary({0, 1, 2, 3, 4})
    b = is_barrier(g, {0, 1})
    assert _finding_failure(g, c, WitnessFinding(g.boundary({2, 3, 4}), b)) \
        == "barrier cut shore does not hold the opposite shore"
    assert _finding_failure(g, c, WitnessFinding(c, b)) is None
    single = is_barrier(g, {0})
    assert _finding_failure(g, c, WitnessFinding(c, single)) == \
        "barrier is trivial or not properly inside a reference shore"


# decompose_tight_cut -----------------------------------------------------------

def test_decompose_already_witnessed(c6):
    c = c6.boundary({0, 1, 2})
    tally = BranchTally()
    cert = decompose_tight_cut(c6, c, tally)
    assert cert.r == 1
    assert cert.steps == ()
    assert cert.final_graph is c6
    assert cert.final_classification.witnessed
    assert tally.counts == {BRANCH_ALREADY_WITNESSED: 1}
    assert verify_certificate(c6, c, cert).ok


# the public entry points and how each is called on a graph and a cut
ENTRY_POINTS = {
    "decompose_tight_cut": decompose_tight_cut,
    "find_noncrossing_witness": find_noncrossing_witness,
    "witness_from_edge": lambda g, c: witness_from_edge(
        g, c, min(c.edge_ids)),
}


# name: (graph, shore, error message)
BAD_INPUTS = {
    # the chord 0-2 of C6 leaves vertex 1 no partner
    "not matching covered": (
        Graph(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)]),
        {0, 1, 2}, "not matching covered"),
    "not tight": (cycle(6), {0, 2, 4}, "not tight"),
    # the first shore of the exhaustive n = 6 corpus that the cached
    # perfect matching meets once but that is not tight: a C6 again
    "not tight, met once": (
        Graph(range(6), [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]),
        {0, 1, 4}, "not tight"),
    "trivial": (cycle(6), {0}, "trivial"),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_validate(entry, bad):
    """The entry checks are the only matching coverage tests of the
    reduction, so each public entry point must run them, and each must
    reject a cut that is not tight."""
    g, shore, message = BAD_INPUTS[bad]
    with pytest.raises(GraphError, match=message):
        ENTRY_POINTS[entry](g, g.boundary(shore))


def test_decompose_rejects_exactly_the_cuts_that_are_not_tight(
        exhaustive_corpus):
    """Every odd nontrivial shore of the exhaustive corpus and of 60
    random n = 10 graphs: decompose_tight_cut returns a certificate the
    verifier accepts iff every perfect matching meets the cut once
    (brute_is_tight's rule, on the perfect matchings listed once per
    graph), and otherwise raises GraphError("cut is not tight"). The
    cuts that are not tight but pass meets_once take the failure path:
    a failed reduction, then is_tight."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += enumerate_corpus(CorpusSpec("random", n=10, samples=60, seed=5))
    outcomes = Counter()
    for g in graphs:
        pms = brute_perfect_matchings(
            g.vertices, [g.edge_ends(e) for e in g.edge_ids])
        anchor, rest = g.vertices[0], g.vertices[1:]
        for size in range(2, g.n - 2, 2):
            for combo in combinations(rest, size):
                c = g.boundary({anchor, *combo})
                tight = all(len(pm & c.edge_ids) == 1 for pm in pms)
                try:
                    cert = decompose_tight_cut(g, c)
                except GraphError as exc:
                    assert not tight and str(exc) == "cut is not tight", c
                else:
                    assert tight and verify_certificate(g, c, cert).ok, c
                outcomes[tight, meets_once(g, c)] += 1
    assert outcomes == {(True, True): 2335, (False, True): 20993,
                        (False, False): 23312}


def test_decompose_rejects_past_the_matching_filter(monkeypatch):
    """A cut the cached perfect matching meets once passes the entry
    check; the reduction then fails, and one is_tight call tells bad
    input from a bug."""
    g, shore, _ = BAD_INPUTS["not tight, met once"]
    c = g.boundary(shore)
    assert meets_once(g, c) and not brute_is_tight(
        g.vertices, [g.edge_ends(e) for e in g.edge_ids], shore)
    calls = []

    def counted(h, d):
        calls.append(d)
        return is_tight(h, d)

    monkeypatch.setattr(tightcut.decompose, "is_tight", counted)
    with pytest.raises(GraphError, match="cut is not tight"):
        decompose_tight_cut(g, c)
    assert calls == [c]


def test_decompose_keeps_an_internal_error_on_a_tight_cut(c6, monkeypatch):
    """A failed reduction of a tight cut is a bug: is_tight clears the
    cut, and the internal error stands."""
    def broken(g, c, tally):
        raise InternalInvariantError("a made-up bug")

    monkeypatch.setattr(tightcut.decompose, "_reduce", broken)
    with pytest.raises(InternalInvariantError, match="a made-up bug"):
        decompose_tight_cut(c6, c6.boundary({0, 1, 2}))


EXPECTED = {
    # name: (r, frozen decomposition tally)
    "double_bowtie": (1, {BRANCH_ALREADY_WITNESSED: 1}),
    "shielded_bowtie": (1, {BRANCH_ALREADY_WITNESSED: 1}),
    "blocked_triangle": (2, {BRANCH_BARRIER_PHASE: 1}),
    "bridged_triangle": (3, {BRANCH_BARRIER_PHASE: 1,
                             BRANCH_GOOD_EDGE: 1,
                             BRANCH_ODD_SIDE_TWOSEP: 1,
                             BRANCH_TWOSEP_STEP: 1}),
    "blocked_pair": (3, {BRANCH_BARRIER_PHASE: 2}),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_decompose_fixture_chain(name):
    g, shore = FIXTURES[name]
    c = g.boundary(shore)
    tally = BranchTally()
    cert = decompose_tight_cut(g, c, tally)
    want_r, want_tally = EXPECTED[name]
    assert cert.r == want_r
    assert tally.counts == want_tally
    assert isinstance(cert, DecompositionCertificate)
    assert cert.input_graph is g and cert.input_cut == c
    sizes = [s.graph.n for s in cert.steps] + [cert.final_graph.n]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
    for step in cert.steps:
        assert is_tight(step.graph, step.cut)
        assert not step.cut.is_trivial
    if cert.r == 1:
        assert cert.final_classification.witnessed
    else:
        assert cert.final_classification.twosep_witnesses
    assert verify_certificate(g, c, cert).ok


def test_decompose_fixpoint_regression():
    """Three far-shore barriers tie on holder size. {1, 13} lies in the
    dependence class of the contracted near shore, so the candidates are
    the classes {6, 8} and {7, 12}. One barrier step per side is not
    enough: the loop must keep taking barrier steps until no shore has a
    candidate class."""
    g, _ = FIXTURES["blocked_pair"]
    shore = frozenset({0, 2, 3, 4, 5})
    c = g.boundary(shore)
    far = g.vertex_set - shore
    confined = {frozenset(b.members) for b in enumerate_barriers(g)
                if b.is_nontrivial and b.members < far}
    assert {frozenset({1, 13}), frozenset({6, 8}),
            frozenset({7, 12})} <= confined
    tally = BranchTally()
    cert = decompose_tight_cut(g, c, tally)
    assert cert.r == 4
    assert tally.counts == {BRANCH_BARRIER_PHASE: 3}
    assert [sorted(s.witness.members) for s in cert.steps] == [
        [7, 12], [6, 8], [0, 5]]
    assert verify_certificate(g, c, cert).ok


def test_decompose_takes_the_barrier_step_first():
    """Barrier steps come before two-separation steps: the confined
    barrier {5, 8} contracts {0, 5, 8}, which leaves a two-separation
    cut with pair (7, 10). Asking the witness search first breaks the
    reduction on this cut."""
    g = Graph(range(10), [
        (0, 5), (0, 8), (1, 3), (1, 5), (1, 7), (2, 4), (2, 5), (2, 6),
        (2, 7), (2, 9), (3, 5), (3, 7), (4, 5), (4, 7), (4, 8), (4, 9),
        (6, 7), (6, 8), (8, 9)])
    c = g.boundary({0, 1, 3, 5, 8})
    tally = BranchTally()
    cert = decompose_tight_cut(g, c, tally)
    assert cert.r == 2
    assert tally.counts == {BRANCH_BARRIER_PHASE: 1}
    (step,) = cert.steps
    assert step.witness.members == {5, 8}
    assert step.contracted_shore == {0, 5, 8}
    assert [s.pair for s in cert.final_classification.twosep_witnesses] == [
        (7, 10)]
    assert verify_certificate(g, c, cert).ok


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_decompose_classifies_once(name, monkeypatch):
    """One classification, of the input cut: no round classifies, and
    the final classification of a reduction is the stop test's list."""
    calls = []

    def counted(g, c):
        calls.append(c)
        return classify_cut(g, c)

    monkeypatch.setattr(tightcut.decompose, "classify_cut", counted)
    g, c = fixture_cut(name)
    cert = decompose_tight_cut(g, c)
    assert len(calls) == 1


def test_fixture_cuts():
    assert len(FIXTURE_CUTS) == 72
    assert sum(1 for _, g, c in FIXTURE_CUTS
               if not classify_cut(g, c).witnessed) == 15


@pytest.mark.parametrize("entry", ["decompose_tight_cut",
                                   "find_noncrossing_witness"])
def test_entry_points_test_their_input_once(entry, monkeypatch):
    """Matching coverage is tested on the caller's input and nowhere
    else: every later graph and cut is valid by Facts 3-5 of the
    decompose module. The witness search tests tightness there too; the
    decomposition's certificate proves it, so on a tight cut it runs no
    is_tight at all."""
    calls = Counter()
    want = Counter(is_tight=1 if entry == "find_noncrossing_witness" else 0,
                   is_matching_covered=1)

    def counted(name, check):
        def run(*args):
            calls[name] += 1
            return check(*args)
        return run

    monkeypatch.setattr(tightcut.decompose, "is_tight",
                        counted("is_tight", is_tight))
    monkeypatch.setattr(tightcut.decompose, "is_matching_covered",
                        counted("is_matching_covered", is_matching_covered))
    for _, g, c in FIXTURE_CUTS:
        calls.clear()
        getattr(tightcut.decompose, entry)(g, c)
        assert calls == want


def test_decompose_tests_no_tightness(monkeypatch):
    """On the 72 fixture cuts decompose_tight_cut asks is_tight nothing,
    under every name the package binds it to: classify_cut relies on
    its caller for tightness, and the certificate proves it."""
    calls = []

    def counted(h, d):
        calls.append(d)
        return is_tight(h, d)

    aliases = [module for key, module in sys.modules.items()
               if key.partition(".")[0] == "tightcut"
               and getattr(module, "is_tight", None) is is_tight]
    assert tightcut.cuts in aliases
    for module in aliases:
        monkeypatch.setattr(module, "is_tight", counted)
    for _, g, c in FIXTURE_CUTS:
        decompose_tight_cut(g, c)
    assert len(FIXTURE_CUTS) == 72 and calls == []


@pytest.mark.parametrize("entry, contracting", [
    # round steps, barrier and two-separation
    ("decompose_tight_cut",
     {"blocked_pair", "blocked_triangle", "bridged_triangle"}),
    # block splits
    ("find_noncrossing_witness", {"double_bowtie", "shielded_bowtie"}),
])
def test_contractions_keep_what_the_reduction_assumes(entry, contracting,
                                                      monkeypatch):
    """The guards Facts 3-5 replace, by brute force: every contraction
    the reduction makes collapses a shore of a tight cut, leaves a
    matching covered graph, and keeps the reference cut tight."""
    made = []
    contract = Graph.contract

    def recorded(host, shore, label):
        got = contract(host, shore, label)
        made.append((host, shore, got))
        return got

    monkeypatch.setattr(Graph, "contract", recorded)
    seen = set()
    for name, g, c in FIXTURE_CUTS:
        made.clear()
        getattr(tightcut.decompose, entry)(g, c)
        if made:
            seen.add(name)
        for host, shore, got in made:
            host_edges = [host.edge_ends(e) for e in sorted(host.edge_ids)]
            got_edges = [got.edge_ends(e) for e in sorted(got.edge_ids)]
            image = got.cut_from_edge_ids(c.edge_ids)
            assert brute_is_tight(host.vertices, host_edges, shore)
            assert brute_is_matching_covered(got.vertices, got_edges)
            assert brute_is_tight(got.vertices, got_edges, image.shore)
    assert seen == contracting


def test_contractions_map_the_reference_cut_by_its_shore(monkeypatch):
    """Every contraction that the reduction, the witness search and the
    replay make on the 72 fixture and 864 inflated cuts collapses a part
    strictly inside a shore X of the reference cut, and maps it to the
    cut with shore (X - part) + label, the cut its edge ids give. The
    barrier step contracts no whole shore: it reads g's own rows."""
    made = []
    contract = Graph.contract

    def recorded(host, part, label):
        got = contract(host, part, label)
        made.append((host, frozenset(part), label, got))
        return got

    monkeypatch.setattr(Graph, "contract", recorded)

    def mapped_by_shore(c):
        """Check, count and clear made."""
        count = 0
        for host, part, label, got in made:
            ref = host.cut_from_edge_ids(c.edge_ids)
            [shore] = [x for x in ref.shores() if part < x]
            image = got.boundary((shore - part) | {label})
            assert image == got.cut_from_edge_ids(c.edge_ids)
            count += 1
        made.clear()
        return count

    mapped = Counter()
    for g, c in [(g, c) for _, g, c in FIXTURE_CUTS] + list(
            inflated_fixture_cuts()):
        cert = decompose_tight_cut(g, c)
        mapped["decompose"] += mapped_by_shore(c)
        assert cert.final_classification.cut == \
            cert.final_graph.cut_from_edge_ids(c.edge_ids)
        find_noncrossing_witness(g, c)
        mapped["witness search"] += mapped_by_shore(c)
        assert verify_certificate(g, c, cert).ok
        mapped["replay"] += mapped_by_shore(c)
    assert mapped == {"decompose": 487, "witness search": 144, "replay": 487}


def inflated_fixture_cuts(ks=range(2, 8)):
    """Both shores of every nontrivial tight cut of every fixture, with
    K_{k,k} spliced into the far shore for each k in ks; for the default
    k = 2..7, 864 cuts."""
    for _, g, _ in fixture_instances():
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            for shore in cut.shores():
                for k in ks:
                    h, s = inflated(g, shore, k)
                    yield h, h.boundary(s)


def test_decompose_inflated_fixture_cuts():
    """The 864 inflated fixture cuts, 240 of them needing reduction
    rounds."""
    rs = Counter()
    for h, c in inflated_fixture_cuts():
        cert = decompose_tight_cut(h, c)
        rs[cert.r] += 1
        assert (cert.r == 1) == classify_cut(h, c).witnessed
        assert verifies_on_rebuilt_graph(cert)
    assert rs == {1: 624, 2: 59, 3: 142, 4: 38, 5: 1}


@pytest.mark.parametrize("k", [16, 20])
@pytest.mark.parametrize("name, r", [
    ("blocked_triangle", 2), ("bridged_triangle", 3), ("blocked_pair", 3)])
def test_decompose_inflated_fixture_past_the_barrier_guard(name, r, k):
    """The pinned cut of each r >= 2 fixture with K_{k,k} spliced into
    its far shore (n = 40 to 52). Each graph has a canonical part of
    more than 16 vertices, which the barrier listing's guard refuses;
    the barrier step reads dependence classes and needs no guard."""
    g, shore = FIXTURES[name]
    h, s = inflated(g, shore, k)
    with pytest.raises(EnumerationLimitError, match="exceeds the guard"):
        enumerate_barriers(h)
    cert = decompose_tight_cut(h, h.boundary(s))
    assert cert.r == r
    assert verifies_on_rebuilt_graph(cert)


def test_barrier_step_against_the_barrier_listing(monkeypatch):
    """Every (graph, tracked shores) the barrier step sees in the 72
    fixture and 864 inflated decompositions. For a shore S with
    opposite shore O and h = g/(O -> o), each candidate class of h (o
    not in it, two members or more) is a barrier enumerate_barriers
    lists inside S, maximal by inclusion among those; every nontrivial
    barrier it lists inside S lies in a candidate or in o's class; and
    the step picks the candidate of the first shore that has one with
    the smallest (holder size, holder, members). The shores the step
    skips, those before its start index, have no candidate."""
    seen = []
    step = tightcut.decompose._min_holder_barrier

    def recorded(g, tracked, start):
        got = step(g, tracked, start)
        seen.append((g, list(tracked), start, got))
        return got

    monkeypatch.setattr(tightcut.decompose, "_min_holder_barrier", recorded)
    for _, g, c in FIXTURE_CUTS:
        decompose_tight_cut(g, c)
    for h, c in inflated_fixture_cuts():
        decompose_tight_cut(h, c)
    in_own_class = 0
    for g, tracked, start, got in seen:
        listed = [b.members for b in enumerate_barriers(g) if b.is_nontrivial]
        want = None
        for i, side in enumerate(tracked):
            opposite = g.vertex_set - side
            o = g.fresh_vertex()
            # h = g/(O -> o) is matching covered, so its classes
            # partition its vertices; in order of least member
            classes = sorted(set(dependence_classes(
                g.contract(opposite, o)).values()), key=min)
            [own] = [p - {o} for p in classes if o in p]
            candidates = [p for p in classes if o not in p and len(p) >= 2]
            assert i >= start or not candidates
            inside = [m for m in listed if m <= side]
            for p in candidates:
                assert p in inside and not any(p < m for m in inside)
            for m in inside:
                assert m <= own or any(m <= p for p in candidates)
                in_own_class += m <= own
            if candidates and want is None:
                want = min(candidates,
                           key=lambda p: _holder_key(g, p, opposite))
                want_index = i
        if got is not None:
            assert (got[0].members, got[2]) == (want, want_index)
        else:
            assert want is None
    assert len(seen) == 742 and in_own_class > 0
    assert sum(start > 0 for _, _, start, _ in seen) == 216


def _holder_key(g, members, opposite):
    [holder] = [p for p in is_barrier(g, members).odd_parts if opposite <= p]
    return len(holder), sorted(holder), sorted(members)


def _contracted_candidates(g, side):
    """The barrier step's candidates of shore side, split the way the
    step once did: contract the opposite shore O to a fresh vertex o,
    read h = g/(O -> o)'s own rows, and keep each class of two or more
    members that avoids o, as (members, holder or None)."""
    opposite = g.vertex_set - side
    o = g.fresh_vertex()
    h = g.contract(opposite, o)
    left, found = set(h.vertices), []
    while left:
        part = left - _dependence_row(h, min(left))
        left -= part
        if o in part or len(part) < 2:
            continue
        b = is_barrier(g, part)
        found.append((frozenset(part), None if b is None else next(
            (p for p in b.odd_parts if opposite <= p), None)))
    return found


def _spy_on_the_barrier_step(monkeypatch):
    """Record, for every shore each _min_holder_barrier call reads, the
    pair (its candidates, or the InternalInvariantError it raised;
    _contracted_candidates of that shore), and check each pick against
    the oracle's candidates of the first shore that has one."""
    step = tightcut.decompose._min_holder_barrier
    reads = []

    def spied(g, tracked, start):
        want = None
        for i, side in enumerate(tracked[start:], start):
            oracle = _contracted_candidates(g, side)
            try:
                got = [(b.members, holder)
                       for b, holder in _shore_candidates(g, side)]
            except InternalInvariantError as exc:
                got = exc
            reads.append((got, oracle))
            if oracle and want is None:
                want = min(oracle, key=lambda t: (
                    len(t[1]), sorted(t[1]), sorted(t[0]))), i
            if got:
                break
        picked = step(g, tracked, start)
        if picked is not None:
            (members, holder), index = want
            barrier, cut, i = picked
            assert (barrier.members, i) == (members, index)
            assert holder in cut.shores()
        return picked

    monkeypatch.setattr(tightcut.decompose, "_min_holder_barrier", spied)
    return reads


def test_barrier_step_reads_the_contractions_classes(
        monkeypatch, exhaustive_corpus):
    """The candidates read off g's own rows are those of the contraction
    g/(O -> o), (members, holder) pairs and their order included, on
    every shore the barrier step reads: in the decompositions of the 72
    fixture cuts, of the 15 that need reduction rounds with K_{k,k}
    spliced in for k = 3, 4, 5, 8 and 20, and of the acceptance gate
    corpus's cuts with no classification witness."""
    reads = _spy_on_the_barrier_step(monkeypatch)
    rounds = [c for _, g, c in FIXTURE_CUTS if not classify_cut(g, c).witnessed]
    cuts = [c for _, _, c in FIXTURE_CUTS]
    for c in rounds:
        for k in (3, 4, 5, 8, 20):
            h, s = inflated(c.graph, c.shore, k)
            cuts.append(h.boundary(s))
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    for spec in gate_specs()[3:]:
        graphs += enumerate_corpus(spec)
    gate = [c for g in graphs for c in enumerate_tight_cuts(g, True)
            if not classify_cut(g, c).witnessed]
    assert (len(rounds), len(gate)) == (15, 6)
    for c in cuts + gate:
        decompose_tight_cut(c.graph, c)
    assert all(got == oracle for got, oracle in reads)
    assert len(reads) == 376


def test_barrier_step_on_the_rejection_rounds(monkeypatch, exhaustive_corpus):
    """The rounds test_decompose_rejects_exactly_the_cuts_that_are_not_tight
    runs on the exhaustive n <= 6 corpus: every odd nontrivial shore that
    the cached perfect matching meets once. The tight ones are all
    witnessed, so every round is on a cut that is not tight, where the
    proof that the candidates equal the contraction's needs tightness.
    They still do on most shores. On the rest the contraction has no
    candidate, while a class read off g's rows is no barrier with a
    holder: the step raises InternalInvariantError, and the failure
    path rejects the cut, as it did when the step built the
    contraction. A tight cut returns a one-graph certificate and never
    reaches the step."""
    reads = _spy_on_the_barrier_step(monkeypatch)
    seen = Counter()
    for g in (g for corpus in exhaustive_corpus.values() for g in corpus):
        anchor, rest = g.vertices[0], g.vertices[1:]
        for size in range(2, g.n - 2, 2):
            for combo in combinations(rest, size):
                c = g.boundary({anchor, *combo})
                if not meets_once(g, c):
                    continue
                reads.clear()
                try:
                    cert = decompose_tight_cut(g, c)
                except GraphError:
                    tight = False
                else:
                    tight = True
                    assert cert.r == 1 and not reads
                for got, oracle in reads:
                    if got == oracle:
                        seen["same"] += 1
                    else:
                        assert oracle == []
                        assert isinstance(got, InternalInvariantError)
                        seen["raised"] += 1
                seen[tight] += 1
    assert seen == {True: 2310, False: 16818, "same": 28784, "raised": 2711}


def test_barrier_step_runs_no_blossom_on_a_shore(monkeypatch):
    """Over the decompositions of the three r >= 2 fixtures inflated at
    k = 3, 4, 5, _blossom_mates runs only on the graphs of the
    reduction's chain and on graphs the witness search builds: the
    barrier step reads D(g[S]) off g's own cached perfect matching, and
    no shore subgraph g[S] goes through a blossom run."""
    blossoms, in_search, shores = [], [], []
    blossom = tightcut.matching._blossom_mates
    search = tightcut.decompose._find_noncrossing_witness
    candidates = tightcut.decompose._shore_candidates

    def spy_blossom(g):
        blossoms.append((g, bool(in_search)))
        return blossom(g)

    def spy_search(*args):
        in_search.append(True)
        try:
            return search(*args)
        finally:
            in_search.pop()

    def spy_candidates(g, side):
        shores.append(side)
        return candidates(g, side)

    monkeypatch.setattr(tightcut.matching, "_blossom_mates", spy_blossom)
    monkeypatch.setattr(tightcut.decompose, "_find_noncrossing_witness",
                        spy_search)
    monkeypatch.setattr(tightcut.decompose, "_shore_candidates",
                        spy_candidates)
    chains = 0
    for name in ("blocked_triangle", "bridged_triangle", "blocked_pair"):
        for k in (3, 4, 5):
            h, s = inflated(*FIXTURES[name], k)
            blossoms.clear()
            cert = decompose_tight_cut(h, h.boundary(s))
            chain = [h, *(step.graph for step in cert.steps),
                     cert.final_graph]
            chains += len(chain)
            assert all(any(g is x for x in chain) or by_search
                       for g, by_search in blossoms)
            assert not any(g.vertex_set in shores for g, _ in blossoms)
    assert chains == 33 and len(shores) > 0


def _shore_row(h, shore, a):
    """The oracle of the dead-cut loop's read of D(h[shore] - a): a's
    dependence row in the shore subgraph, after a blossom run on it."""
    return _dependence_row(h.induced(shore), a)


def test_dead_cut_setups_pass_the_entry_checks(monkeypatch, exhaustive_corpus):
    """Every (h, x) the witness search hands to _strict_barrier_in while
    decompose_tight_cut and find_noncrossing_witness run on every
    nontrivial tight cut of the fixtures, of the exhaustive n <= 6
    corpus, of 40 random n = 10 graphs and of the fixtures inflated at
    k = 3..5. Each passes find_strict_barrier's entry checks (Fact 6 of
    decompose.py), which then returns the same ShoreBarrier. And for
    each a of each shore S, the loop's read of D(h[S] - a),
    _shore_missable(h, S - a) on h's own rows, is a's dependence row in
    the shore subgraph h[S]."""
    loop = tightcut.decompose._strict_barrier_in
    setups = {}

    def spied(h, x):
        found = loop(h, x)
        setups.setdefault((id(h), x), (h, x, found))
        return found

    monkeypatch.setattr(tightcut.decompose, "_strict_barrier_in", spied)
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += enumerate_corpus(CorpusSpec("random", n=10, samples=40, seed=5))
    cuts = [c for _, _, c in FIXTURE_CUTS]
    cuts += [c for g in graphs for c in enumerate_tight_cuts(g, True)]
    cuts += [c for _, c in inflated_fixture_cuts(range(3, 6))]
    for c in cuts:
        decompose_tight_cut(c.graph, c)
        find_noncrossing_witness(c.graph, c)
    reads = 0
    for h, x, found in setups.values():
        assert find_strict_barrier(h, x) == found, (h, x)
        for shore in (x, h.vertex_set - x):
            for a in shore:
                assert _shore_missable(h, shore - {a}) == \
                    _shore_row(h, shore, a), (h, shore, a)
                reads += 1
    assert (len(cuts), len(setups), reads) == (2834, 2848, 21148)


@pytest.mark.parametrize("k", [7, 9])
def test_decompose_past_the_enumeration_limit(k):
    """Two K_{k,k}, each less one left vertex, whose right sides are
    joined by a perfect matching: those k edges form a tight cut of a
    graph on 4k - 2 vertices, more than perfect-matching enumeration
    takes. At k = 9 each shore holds 17 vertices, but its largest
    canonical part only 9, so barrier search stays under its guard."""
    g = glued(k)
    assert g.n > ENUMERATION_LIMIT
    c = g.boundary(range(2 * k - 1))
    cert = decompose_tight_cut(g, c)
    assert cert.r == 1 and cert.final_classification.witnessed
    assert verifies_on_rebuilt_graph(cert)


def verifies_on_rebuilt_graph(cert) -> bool:
    """Verify the certificate's JSON round trip against a graph built
    from that JSON alone, so that nothing the producer cached helps."""
    obj = json.loads(json.dumps(cert.to_json_dict()))
    block = obj["input"]
    h = Graph(range(block["graph"]["n"]),
              [tuple(pair) for pair in block["graph"]["edges"]])
    return verify_certificate(
        h, h.boundary(frozenset(block["cut_shore"])), obj).ok


def test_decompose_theta_past_the_two_separation_listing():
    """Hubs 0 and 1 joined by 20 paths of length 3 (n = 42). Deleting the
    hubs leaves 20 components, 2^19 groupings for a listing of all
    two-separations; the witness of the cut around hub 0 and its first
    path comes from one cut edge instead."""
    g = theta(20)
    c = g.boundary({0, 2, 3})
    cert = decompose_tight_cut(g, c)
    assert cert.r == 1
    assert [s.pair for s in cert.final_classification.twosep_witnesses] == [
        (0, 1)]
    assert verifies_on_rebuilt_graph(cert)


def test_decompose_all_nontrivial_cuts_of_blocked_pair():
    g, _ = FIXTURES["blocked_pair"]
    cuts = enumerate_tight_cuts(g, nontrivial_only=True)
    assert len(cuts) == 24
    for c in cuts:
        cert = decompose_tight_cut(g, c)
        assert verify_certificate(g, c, cert).ok
