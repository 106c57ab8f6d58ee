"""The sweep harness: counters, violations, harvest, and JSON report."""

import dataclasses
import json

import pytest

import tightcut.instances
import tightcut.sweep
from tightcut.cuts import enumerate_tight_cuts
from tightcut.decompose import _find_noncrossing_witness
from tightcut.instances import CorpusSpec, enumerate_corpus
from tightcut.structure import Barrier
from tightcut.sweep import run_sweep
from tightcut.verify import R_CROSSES, R_NOT_BARRIER


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
    return dataclasses.replace(finding, witness=Barrier(members, (), g))


def _crossing_cut(finding, ref):
    crossing = next(d for d in enumerate_tight_cuts(ref.graph, True)
                    if d.crosses(ref))
    return dataclasses.replace(finding, cut=crossing)


def _no_witness(finding, ref):
    return dataclasses.replace(finding, witness=None)


@pytest.mark.parametrize(
    "tamper, reason",
    [(_not_a_barrier, R_NOT_BARRIER), (_crossing_cut, R_CROSSES),
     (_no_witness, "unknown witness None")],
    ids=["not_a_barrier", "crossing_cut", "no_witness"])
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
