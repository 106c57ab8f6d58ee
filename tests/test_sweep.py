"""The sweep harness: counters, violations, harvest, and JSON report."""

import gc
import json
from collections import Counter
from itertools import combinations

import pytest

import tightcut.instances
import tightcut.matching
import tightcut.structure
import tightcut.sweep
from tightcut.cuts import enumerate_tight_cuts
from tightcut.decompose import WitnessFinding, _find_noncrossing_witness
from tightcut.graph import Graph
from tightcut.instances import CorpusSpec, enumerate_corpus
from tightcut.structure import (
    Barrier,
    enumerate_barriers,
    find_2separations,
    two_separation_cuts,
)
from tightcut.sweep import run_sweep
from tightcut.verify import R_CROSSES, R_NOT_BARRIER, VerificationResult

from conftest import count_calls, cycle


def test_named_sweep_counters():
    report = run_sweep(
        [CorpusSpec("named", names=("K4", "PETERSEN", "C2K(3)"))],
        include_fixtures=False, command="unit")
    assert report.command == "unit"
    assert report.ok
    assert report.instances == 3
    # K4 and Petersen have only trivial tight cuts; C6 has three more
    assert report.graphs_with_nontrivial_tight_cut == 1
    assert report.nontrivial_tight_cuts == 3
    assert report.tight_cuts_checked == 4 + 10 + 9
    assert report.decompositions == 3
    assert report.witnesses_verified == 3
    assert report.contraction_checks == 6
    assert report.twosep_cut_checks == 6  # C6's three separations
    assert report.lift_scenarios > 0
    assert report.harvested == []  # C6 cuts are already witnessed
    assert report.elapsed > 0


def test_exhaustive_sweep_is_clean():
    report = run_sweep([CorpusSpec("exhaustive", n=4)],
                       include_fixtures=False)
    assert report.ok
    assert report.instances == 4
    # every matching covered graph on 4 vertices is brick-like: all of
    # its tight cuts are trivial, so nothing needs decomposing
    assert report.nontrivial_tight_cuts == 0
    assert report.decompositions == 0
    assert report.barrier_structure_checks > 0


def test_fixture_sweep_harvests_unwitnessed_cuts():
    report = run_sweep([], include_fixtures=True)
    assert report.ok
    assert report.instances == 5
    labels = {h["label"] for h in report.harvested}
    assert any("blocked_triangle" in lbl for lbl in labels)
    assert any("blocked_pair" in lbl for lbl in labels)
    for h in report.harvested:
        assert set(h) == {"label", "n", "edges", "shore", "r"}
        assert h["r"] >= 2
    assert report.branch_counts.get("barrier_cut_phase", 0) > 0


def test_unfiltered_corpus_surfaces_violations(monkeypatch):
    # let every connected edge set through, matching covered or not
    monkeypatch.setattr(tightcut.instances, "_is_matching_union",
                        lambda bits, matchings: True)
    report = run_sweep([CorpusSpec("exhaustive", n=4)],
                       include_fixtures=False)
    assert not report.ok
    kinds = {kind for kind, _, _ in report.violations}
    assert kinds <= {"matching_covered", "connectivity"}
    js = report.to_json_dict()
    assert js["ok"] is False
    assert all(set(v) == {"kind", "label", "detail"} for v in js["violations"])
    json.dumps(js)


def test_sweep_flags_cuts_missing_from_the_enumerations(monkeypatch):
    """The sweep reads tightness as membership in the enumerations. With
    the trivial cuts withheld from them, C6 gets its cut images in both
    contractions of each nontrivial cut, their downward transfers and
    its barrier cuts at single vertices flagged."""
    listed = tightcut.sweep.enumerate_tight_cuts
    monkeypatch.setattr(tightcut.sweep, "enumerate_tight_cuts",
                        lambda g: [c for c in listed(g) if not c.is_trivial])
    report = run_sweep([CorpusSpec("named", names=("C2K(3)",))],
                       include_fixtures=False)
    kinds = [kind for kind, _, _ in report.violations]
    assert kinds.count("contraction") == kinds.count("transfer") == 6
    assert kinds.count("barrier") > 0
    assert set(kinds) == {"contraction", "transfer", "barrier"}
    assert all(detail.endswith(("is not tight", "non-tight cut"))
               for _, _, detail in report.violations)


def test_named_sweep_takes_the_corpus_path(monkeypatch):
    """A named spec yields the same graphs through run_sweep as through
    enumerate_corpus, so the corpus filter applies to both."""
    keep = tightcut.instances.is_matching_covered
    monkeypatch.setattr(tightcut.instances, "is_matching_covered",
                        lambda g: keep(g) and g.n != 4)  # refuse K4
    spec = CorpusSpec("named", names=("K4", "PETERSEN"))
    report = run_sweep([spec], include_fixtures=False)
    assert report.instances == len(list(enumerate_corpus(spec))) == 1
    assert report.ok


def test_sweep_answers_on_the_host_graph(monkeypatch):
    """The structure checks ask their questions of the graph they hold.
    A sweep of 40 random n = 10 graphs (seed 5) and the fixtures builds
    at most 76 graphs through Graph() and lays out at most 751, against
    267 and 1,118 when each strict barrier's core was built as a graph
    and each dead-cut shore's subgraph was built to test connectivity."""
    made = count_calls(monkeypatch, Graph, "__init__", "_lay_out")
    report = run_sweep([CorpusSpec("random", n=10, samples=40, seed=5)])
    assert report.ok and report.instances == 45
    assert made["__init__"] <= 76 and made["_lay_out"] <= 751


def test_sweep_answers_each_question_once(monkeypatch):
    """On the same sweep the battery repeats no work it already holds:
    at most 71 barrier searches, 1,750 perfect matchings of g - u - v
    and 331 boundary edge-id reads, against 139, 2,617 and 1,730 when
    every lift contraction listed its barriers, every filter matching
    was cut down for every class it holds, and every boundary was read
    afresh."""
    searched = count_calls(monkeypatch, tightcut.structure,
                           "_search_barriers")
    paired = count_calls(monkeypatch, tightcut.matching, "_without_pair")
    read = count_calls(monkeypatch, Graph, "_boundary_ids")
    report = run_sweep([CorpusSpec("random", n=10, samples=40, seed=5)])
    assert report.ok and report.instances == 45
    assert searched["_search_barriers"] <= 71
    assert paired["_without_pair"] <= 1_750
    assert read["_boundary_ids"] <= 331


def _cyclic_garbage(run):
    """run()'s result, and a count by type of what it left that only the
    cyclic garbage collector frees: with DEBUG_SAVEALL, every
    unreachable object a collection finds stays in gc.garbage."""
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        left = Counter(type(x).__name__ for x in gc.garbage[before:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    return result, left


def test_sweep_leaves_no_cyclic_garbage():
    """A sweep leaves nothing that only the cyclic garbage collector
    frees (graph.py's module docstring): a sweep of the exhaustive
    n = 4 corpus, 40 random n = 10 graphs and the fixtures adds nothing
    to gc.garbage."""
    report, left = _cyclic_garbage(lambda: run_sweep(
        [CorpusSpec("exhaustive", n=4),
         CorpusSpec("random", n=10, samples=40, seed=5)]))
    assert report.ok and report.instances == 49
    assert not left, left


def test_matching_oracle_leaves_no_cyclic_garbage():
    """Nor does the exhaustive perfect-matching oracle, which the sweep
    never calls: ten calls on fresh C6 graphs, and one on a graph with
    parallel edges, add nothing to gc.garbage."""
    graphs = [cycle(6) for _ in range(10)]
    graphs.append(Graph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]))
    masks, left = _cyclic_garbage(
        lambda: [tightcut.matching.perfect_matching_masks(g) for g in graphs])
    assert masks[0] == masks[9] and len(masks[0]) == 2
    assert len(masks[10]) == 3
    assert not left, left


def test_host_tightness_by_shore_agrees_with_edge_ids(differential_corpus):
    """The sweep reads a host cut's tightness by its canonical shore:
    in a connected graph a shore fixes its cut, so that agrees with the
    edge-id test on every barrier cut and two-separation cut, and on
    every odd shore through the smallest vertex."""
    agreed = Counter()
    for g in differential_corpus:
        cuts = enumerate_tight_cuts(g)
        shores = {c.shore for c in cuts}
        ids = {c.edge_ids for c in cuts}
        first, rest = g.vertices[0], g.vertices[1:]
        parts = [part for b in enumerate_barriers(g) for part in b.odd_parts]
        parts += [d.other_shore for s in find_2separations(g)
                  for d in two_separation_cuts(g, s)]
        parts += [frozenset((first,) + combo)
                  for size in range(0, g.n - 1, 2)
                  for combo in combinations(rest, size)]
        for part in parts:
            shore = part if first in part else g.vertex_set - part
            tight = shore in shores
            assert tight == (g.boundary(part).edge_ids in ids), (g, part)
            agreed[tight] += 1
    assert agreed[True] > 40_000 and agreed[False] > 40_000


def test_report_json_roundtrip():
    report = run_sweep([CorpusSpec("named", names=("K4",))],
                       include_fixtures=False)
    js = json.loads(json.dumps(report.to_json_dict()))
    assert js["command"] == "sweep"
    assert js["instances"] == 1
    assert js["ok"] is True


def _not_a_barrier(finding, ref):
    # two adjacent vertices inside a reference shore of C6 leave one even
    # path, so they are no barrier
    g, shore = ref.graph, ref.shore
    members = next(frozenset((u, v)) for u in sorted(shore)
                   for v in g.neighbors(u) if v in shore)
    return WitnessFinding(finding.cut, Barrier(members, (), g))


def _crossing_cut(finding, ref):
    crossing = next(d for d in enumerate_tight_cuts(ref.graph, True)
                    if d.crosses(ref))
    return WitnessFinding(crossing, finding.witness)


def _no_witness(finding, ref):
    return WitnessFinding(finding.cut, None)


def _trivial_barrier(finding, ref):
    # a single vertex of a reference shore of C6 is a barrier, but trivial
    g = ref.graph
    return WitnessFinding(
        finding.cut, Barrier(frozenset({min(ref.shore)}), (), g))


@pytest.mark.parametrize(
    "tamper, reason",
    [(_not_a_barrier, R_NOT_BARRIER), (_crossing_cut, R_CROSSES),
     (_no_witness, "unknown witness None"),
     (_trivial_barrier,
      "barrier is trivial or not properly inside a reference shore")],
    ids=["not_a_barrier", "crossing_cut", "no_witness", "trivial_barrier"])
def test_sweep_rejects_tampered_witness(monkeypatch, tamper, reason):
    def tampered(g, c, tally):
        return tamper(_find_noncrossing_witness(g, c, tally), c)

    monkeypatch.setattr(tightcut.sweep, "_find_noncrossing_witness", tampered)
    report = run_sweep([CorpusSpec("named", names=("C2K(3)",))],
                       include_fixtures=False)
    assert report.witnesses_verified == 0
    witness = [v for v in report.violations if v[0] == "witness"]
    assert len(witness) == report.nontrivial_tight_cuts == 3
    assert all(detail == reason for _, _, detail in witness)


def test_sweep_rejects_a_strict_barrier_on_a_foreign_shore(monkeypatch):
    """The strict-barrier re-check wants the result tagged with a shore
    of the dead cut: a shore less one vertex gets each setup flagged
    once."""
    search = tightcut.sweep.find_strict_barrier

    def foreign(g, x):
        found = search(g, x)
        return found._replace(shore=found.shore - {min(found.shore)})

    monkeypatch.setattr(tightcut.sweep, "find_strict_barrier", foreign)
    report = run_sweep([CorpusSpec("named", names=("C2K(3)", "DOUBLE_K4"))],
                       include_fixtures=False)
    flagged = [v for v in report.violations if v[0] == "strict_barrier"]
    assert len(flagged) == len(report.violations)
    assert len(flagged) == report.strict_barrier_instances > 0
    assert len({detail for _, _, detail in flagged}) == 1


# every detector of the sweep, each fired by one planted fault ----------------

def _planted(*args):
    raise RuntimeError("planted")


def _patch(name, replace):
    """A plant that swaps sweep.py's name for replace(original)."""
    def plant(monkeypatch):
        original = getattr(tightcut.sweep, name)
        monkeypatch.setattr(tightcut.sweep, name, replace(original))
    return plant


def _uncovered_contractions(monkeypatch):
    # C6's contractions have 4 vertices, the host 6
    covered = tightcut.sweep.is_matching_covered
    monkeypatch.setattr(tightcut.sweep, "is_matching_covered",
                        lambda g: g.n != 4 and covered(g))


def _covered_path(monkeypatch):
    path = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(tightcut.sweep, "enumerate_corpus",
                        lambda spec: [path])
    monkeypatch.setattr(tightcut.sweep, "is_matching_covered",
                        lambda g: True)


def _pinned_odd_shore(monkeypatch):
    monkeypatch.setattr(tightcut.sweep, "fixture_instances", lambda: (
        ("c6", cycle(6), frozenset({0, 2, 4})),))


def _failed_replay(g, c, cert):
    return VerificationResult(False, (("final not witnessed", "$.final"),))


PLANTED = "RuntimeError('planted')"

# id: (plant, violation kind, a substring of its detail)
DETECTORS = {
    "host_not_matching_covered": (
        _patch("is_matching_covered", lambda f: lambda g: False),
        "matching_covered", "corpus graph is not matching covered"),
    "connectivity": (_covered_path, "connectivity", "must be 2-connected"),
    "fixture_pin": (_pinned_odd_shore, "fixture",
                    "pinned shore [0, 2, 4] is not a nontrivial tight cut"),
    "contraction_not_matching_covered": (
        _uncovered_contractions, "contraction", "is not matching covered"),
    "upward_transfer": (
        _patch("enumerate_tight_cuts", lambda f: lambda g: [
            c for c in f(g) if g.n != 6 or not c.is_trivial]),
        "transfer", "of the contraction lifts to a non-tight cut"),
    "contraction_raises": (
        _patch("enumerate_tight_cuts",
               lambda f: lambda g: _planted() if g.n == 4 else f(g)),
        "contraction", PLANTED),
    "witness_raises": (
        _patch("_find_noncrossing_witness", lambda f: _planted),
        "witness", PLANTED),
    "certificate_rejected": (
        _patch("verify_certificate", lambda f: _failed_replay),
        "certificate", "final not witnessed at $.final"),
    "certificate_raises": (
        _patch("decompose_tight_cut", lambda f: _planted),
        "certificate", PLANTED),
    "barrier_not_independent": (
        _patch("enumerate_barriers",
               lambda f: lambda g: [Barrier(frozenset({0, 1}), (), g)]),
        "barrier", "barrier [0, 1] is not independent"),
    "barrier_even_component": (
        _patch("enumerate_barriers",
               lambda f: lambda g: [Barrier(frozenset({0, 2}), (), g)]),
        "barrier", "barrier [0, 2] leaves an even component"),
    "barrier_cut_not_tight": (
        _patch("enumerate_barriers", lambda f: lambda g: [
            Barrier(frozenset({0}), (frozenset({1, 3, 5}),), g)]),
        "barrier", "barrier cut at [1, 3, 5] is not tight"),
    "barrier_raises": (
        _patch("enumerate_barriers", lambda f: _planted), "barrier", PLANTED),
    "twosep_trivial_cut": (
        _patch("two_separation_cuts",
               lambda f: lambda g, s: (g.boundary({0}),)),
        "twosep", "generates a trivial cut"),
    "twosep_cut_not_tight": (
        _patch("two_separation_cuts",
               lambda f: lambda g, s: (g.boundary({0, 2, 4}),)),
        "twosep", "generates a non-tight cut"),
    "twosep_raises": (
        _patch("find_2separations", lambda f: _planted), "twosep", PLANTED),
    "lift_raises": (
        _patch("lift_barrier_over_odd_component", lambda f: _planted),
        "lift", PLANTED),
    "strict_barrier_raises": (
        _patch("find_strict_barrier", lambda f: _planted),
        "strict_barrier", PLANTED),
}


@pytest.mark.parametrize("case", sorted(DETECTORS))
def test_every_detector_fires(monkeypatch, case):
    """One fault planted through a name sweep.py imports fails the C6
    sweep with the violation that fault should raise; the sweep is
    clean without it (test_named_sweep_counters)."""
    plant, kind, detail = DETECTORS[case]
    monkeypatch.setattr(tightcut.sweep, "fixture_instances", lambda: ())
    plant(monkeypatch)
    report = run_sweep([CorpusSpec("named", names=("C2K(3)",))],
                       include_fixtures=True)
    assert not report.ok
    assert any(k == kind and detail in d for k, _, d in report.violations), \
        report.violations
