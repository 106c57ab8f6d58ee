"""Corpus sweeps: run every structural check we have over graph families.

A sweep walks a corpus and, per graph, re-checks the package's claims:
contractions of tight cuts stay matching covered and tightness
transfers along edge ids in both directions; every witness reported
for a tight cut passes the producer's WitnessFinding check
(decompose._finding_failure) once more, and the cut's certificate
replays in the verifier; barriers are independent with no even
components and their cuts are tight; two-separation cuts are tight;
barrier lifts land on barriers; and on dead-cut setups the
strict-barrier search returns a result tagged with a shore of the dead
cut that passes structure._confined there. Each contract has one
check, which the sweep re-runs rather than copies. A cut is harvested
when its certificate takes r >= 2 rounds, which the reduction gives
exactly when classify_cut lists no witness. Anything that fails lands
in the report's violations list instead of raising, so one bad graph
cannot hide the rest.

Every tightness question is answered from the enumerations, listed
once per graph. A host cut is tight iff its canonical shore is that of
a cut enumerate_tight_cuts listed for the host: in one connected graph
a shore fixes its cut. A cut of a contraction, or a contraction's cut
read in the host, is tight iff its edge-id set is that of a listed cut:
edge ids survive contraction, so the same set names the cut on both
sides. The sweep runs no per-cut tightness test, and its
witness search skips the is_tight entry test of
find_noncrossing_witness: every cut it asks about was just listed as
tight.
"""

from __future__ import annotations

import time
from typing import Sequence

from .certificate import graph_to_json
from .cuts import enumerate_tight_cuts
from .decompose import (
    BranchTally,
    _find_noncrossing_witness,
    _finding_failure,
    _shore_cut_vertices,
    decompose_tight_cut,
)
from .graph import Cut, Graph, _Value
from .instances import CorpusSpec, enumerate_corpus, fixture_instances
from .matching import is_matching_covered
from .structure import (
    _confined,
    _leading_barriers,
    enumerate_barriers,
    find_2separations,
    find_strict_barrier,
    lift_barrier_over_2sep,
    lift_barrier_over_odd_component,
    two_separation_cuts,
)
from .verify import verify_certificate

_LIFT_BARRIER_CAP = 3
_LIFT_INNER_CAP = 5
_LIFT_2SEP_CAP = 2
_LIFT_2SEP_INNER_CAP = 3
_STRICT_SETUP_CAP = 4


class SweepReport(_Value):
    """The sweep's counters, violations and harvest; mutable, unlike the
    other value types, so unhashable. Each of violations, branch_counts
    and harvested defaults to a fresh container."""

    __slots__ = (
        "command", "instances", "graphs_with_nontrivial_tight_cut",
        "tight_cuts_checked", "nontrivial_tight_cuts", "witnesses_verified",
        "contraction_checks", "transfer_checks", "barrier_structure_checks",
        "twosep_cut_checks", "lift_scenarios", "strict_barrier_instances",
        "decompositions", "violations", "branch_counts", "harvested",
        "elapsed")
    # every field after command: a counter at 0, unless named here
    _defaults = {**dict.fromkeys(__slots__[1:], int), "violations": list,
                 "branch_counts": dict, "harvested": list, "elapsed": float}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        """Every field in declaration order, with "ok" after "command"."""
        js = {"command": self.command, "ok": self.ok}
        js.update(zip(self.__slots__, self._fields()))
        js["violations"] = [
            {"kind": kind, "label": label, "detail": detail}
            for kind, label, detail in self.violations]
        js["branch_counts"] = dict(self.branch_counts)
        js["harvested"] = list(self.harvested)
        return js


def _flag(report: SweepReport, kind: str, label: str, detail: str) -> None:
    report.violations.append((kind, label, detail))


def _check_contractions(label: str, g: Graph, c: Cut, all_cuts, tight_ids,
                        report: SweepReport) -> None:
    g_shore, g_other = g.cut_contractions(c)
    for gi, kept in ((g_shore, c.shore), (g_other, c.other_shore)):
        if not is_matching_covered(gi):
            _flag(report, "contraction", label,
                  f"contraction onto {sorted(kept)} is not matching covered")
            continue
        gi_cuts = enumerate_tight_cuts(gi)
        gi_ids = {di.edge_ids for di in gi_cuts}
        if c.edge_ids not in gi_ids:
            _flag(report, "contraction", label,
                  f"cut image in the contraction onto {sorted(kept)} "
                  "is not tight")
        report.contraction_checks += 1
        # upward transfer: every tight cut of the contraction lifts,
        # by edge ids, to a tight cut of the host
        for di in gi_cuts:
            if di.edge_ids not in tight_ids:
                _flag(report, "transfer", label,
                      f"tight cut {sorted(di.shore)} of the contraction "
                      "lifts to a non-tight cut")
            report.transfer_checks += 1
        # downward transfer: tight cuts of the host living inside the
        # kept shore stay tight in the contraction
        for d in all_cuts:
            if d.shore <= kept or d.other_shore <= kept:
                if d.edge_ids not in gi_ids:
                    _flag(report, "transfer", label,
                          f"tight cut {sorted(d.shore)} of the host "
                          "maps to a non-tight cut")
                report.transfer_checks += 1


def _verify_finding(label: str, g: Graph, c: Cut, finding,
                    report: SweepReport) -> None:
    """Re-check the finding for the reference cut c with the check the
    producer ran, _finding_failure, and flag the reason it gives."""
    reason = _finding_failure(g, c, finding)
    if reason is not None:
        _flag(report, "witness", label, reason)
    else:
        report.witnesses_verified += 1


def _check_cut(label: str, g: Graph, c: Cut, all_cuts, tight_ids,
               report: SweepReport, tally: BranchTally) -> None:
    cut_label = f"{label}:shore{sorted(c.shore)}"
    try:
        _check_contractions(cut_label, g, c, all_cuts, tight_ids, report)
    except Exception as exc:
        _flag(report, "contraction", cut_label, repr(exc))
    try:
        finding = _find_noncrossing_witness(g, c, tally)
        _verify_finding(cut_label, g, c, finding, report)
    except Exception as exc:
        _flag(report, "witness", cut_label, repr(exc))
    try:
        cert = decompose_tight_cut(g, c, tally)
        report.decompositions += 1
        result = verify_certificate(g, c, cert.to_json_dict())
        if not result.ok:
            _flag(report, "certificate", cut_label,
                  "; ".join(f"{code} at {path}"
                            for code, path in result.failures))
        if cert.r > 1:
            report.harvested.append({
                "label": cut_label,
                **graph_to_json(g),
                "shore": sorted(c.shore),
                "r": cert.r,
            })
    except Exception as exc:
        _flag(report, "certificate", cut_label, repr(exc))


def _check_barriers(label: str, g: Graph, tight_shores, report: SweepReport
                    ) -> None:
    index, rows = g.positions()
    for b in enumerate_barriers(g):
        at = {index[v] for v in b.members}
        if any(j in at for i in at for j in rows[i]):
            _flag(report, "barrier", label,
                  f"barrier {sorted(b.members)} is not independent")
        # the odd parts fill V - B iff g - B has no even component
        if len(b.members) + sum(map(len, b.odd_parts)) != g.n:
            _flag(report, "barrier", label,
                  f"barrier {sorted(b.members)} leaves an even component")
        for part in b.odd_parts:
            if (part if g.vertices[0] in part else g.vertex_set - part
                    ) not in tight_shores:
                _flag(report, "barrier", label,
                      f"barrier cut at {sorted(part)} is not tight")
        report.barrier_structure_checks += 1


def _check_twoseps(label: str, g: Graph, tight_shores, report: SweepReport
                   ) -> None:
    for s in find_2separations(g):
        for d in two_separation_cuts(g, s):
            if d.is_trivial:
                _flag(report, "twosep", label,
                      f"two-separation {s.pair} generates a trivial cut")
            if d.shore not in tight_shores:
                _flag(report, "twosep", label,
                      f"two-separation {s.pair} generates a non-tight cut")
            report.twosep_cut_checks += 1


def _lift_scenarios(label: str, g: Graph, report: SweepReport) -> None:
    nontrivial = [b for b in enumerate_barriers(g) if b.is_nontrivial]
    for b in nontrivial[:_LIFT_BARRIER_CAP]:
        for y in b.odd_parts:
            inner = g.contract(g.vertex_set - y, g.fresh_vertex())
            for bp in _leading_barriers(inner, _LIFT_INNER_CAP):
                lift_barrier_over_odd_component(g, b, y, bp.members)
                report.lift_scenarios += 1
    for s in find_2separations(g)[:_LIFT_2SEP_CAP]:
        for d in two_separation_cuts(g, s):
            for kept in d.shores():
                inner = g.contract(g.vertex_set - kept, g.fresh_vertex())
                for bp in _leading_barriers(inner, _LIFT_2SEP_INNER_CAP):
                    lift_barrier_over_2sep(g, s, d, bp.members)
                    report.lift_scenarios += 1


def dead_cut_setups(g: Graph, cuts):
    """(inner, x) dead-cut inputs for find_strict_barrier, at most
    _STRICT_SETUP_CAP per graph.

    For each cut in order and each good edge uv of it in id order
    (decompose._shore_cut_vertices), with u on the shore side, inner is
    g - u - v and x is the shore less u.
    """
    budget = _STRICT_SETUP_CAP
    for c in cuts:
        cut_vertices = _shore_cut_vertices(g, c)
        for eid in sorted(c.edge_ids):
            u, v = g.edge_ends(eid)
            if u in c.other_shore:
                u, v = v, u
            if u in cut_vertices or v in cut_vertices:
                continue
            yield g.without_vertices((u, v)), c.shore - {u}
            budget -= 1
            if budget <= 0:
                return


def _strict_barrier_setups(label: str, g: Graph, cuts, report: SweepReport
                           ) -> None:
    for inner, x in dead_cut_setups(g, cuts):
        setup_label = f"{label}:dead{sorted(x)}"
        found = find_strict_barrier(inner, x)
        report.strict_barrier_instances += 1
        if found.shore not in (x, inner.vertex_set - x) or _confined(
                inner, found.barrier.members, found.shore) is None:
            _flag(report, "strict_barrier", setup_label,
                  "result is no strict barrier confined to a dead-cut shore")


def _check_graph(label: str, g: Graph, report: SweepReport,
                 tally: BranchTally, required_shore=None) -> None:
    report.instances += 1
    if not is_matching_covered(g):
        _flag(report, "matching_covered", label,
              "corpus graph is not matching covered")
        return
    if g.n >= 4 and not g.is_2connected():
        _flag(report, "connectivity", label,
              "matching covered graph on 4+ vertices must be 2-connected")
        return
    all_cuts = enumerate_tight_cuts(g)
    tight_ids = {c.edge_ids for c in all_cuts}
    tight_shores = {c.shore for c in all_cuts}
    report.tight_cuts_checked += len(all_cuts)
    nontrivial = [c for c in all_cuts if not c.is_trivial]
    if nontrivial:
        report.graphs_with_nontrivial_tight_cut += 1
    report.nontrivial_tight_cuts += len(nontrivial)
    if required_shore is not None:
        wanted = g.boundary(required_shore)
        if wanted not in nontrivial:
            _flag(report, "fixture", label,
                  f"pinned shore {sorted(required_shore)} is not a "
                  "nontrivial tight cut")
    for c in nontrivial:
        _check_cut(label, g, c, all_cuts, tight_ids, report, tally)
    try:
        _check_barriers(label, g, tight_shores, report)
    except Exception as exc:
        _flag(report, "barrier", label, repr(exc))
    try:
        _check_twoseps(label, g, tight_shores, report)
    except Exception as exc:
        _flag(report, "twosep", label, repr(exc))
    try:
        _lift_scenarios(label, g, report)
    except Exception as exc:
        _flag(report, "lift", label, repr(exc))
    try:
        _strict_barrier_setups(label, g, nontrivial, report)
    except Exception as exc:
        _flag(report, "strict_barrier", label, repr(exc))


def run_sweep(specs: Sequence[CorpusSpec], *, include_fixtures: bool = True,
              command: str = "sweep") -> SweepReport:
    """Run the full check battery over the corpora the specs describe."""
    report = SweepReport(command=command)
    tally = BranchTally()
    start = time.perf_counter()
    for spec in specs:
        for idx, g in enumerate(enumerate_corpus(spec), 1):
            if spec.mode == "exhaustive":
                label = f"exhaustive-n{spec.n}-#{idx}"
            elif spec.mode == "random":
                label = f"random-n{spec.n}-s{spec.seed}-#{idx}"
            else:
                label = f"named-#{idx}"
            _check_graph(label, g, report, tally)
    if include_fixtures:
        for name, g, shore in fixture_instances():
            _check_graph(f"fixture-{name}", g, report, tally,
                         required_shore=shore)
    report.branch_counts = dict(sorted(tally.counts.items()))
    report.elapsed = time.perf_counter() - start
    return report
