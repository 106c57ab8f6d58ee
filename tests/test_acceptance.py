"""The acceptance gate: one test per shipping criterion.

Each test prints a CRITERION n: PASS/FAIL line (also echoed in the
terminal summary) and then asserts, so a failing criterion fails the
suite. The shared corpus is exhaustive over n in {2, 4, 6} plus 501
seeded random graphs with n in {8, 10, 12} plus the pinned fixtures:
deterministic, and sized to finish well inside the ten-minute budget.

All nine criteria pass. The even-side case of witness_from_edge is an
invariant guard, not a required branch, and the proof that no input
reaches it is in that function's docstring in src/tightcut/decompose.py.
"""

import hashlib
import json

import pytest

import conftest
from tightcut.cuts import classify_cut, enumerate_tight_cuts, is_tight
from tightcut.decompose import REQUIRED_BRANCHES, decompose_tight_cut
from tightcut.instances import canonical, fixture_instances
from tightcut.sweep import run_sweep
from tightcut.verify import verify_certificate

from conftest import (
    GATE_SAMPLES_PER_ORDER, cycle, gate_specs, sha256_of_lines)
from mutations import mutation_targets, target_mutants

TIME_BUDGET_SECONDS = 600.0

# sha256 of the gate report's JSON without "elapsed", keys sorted: a
# change meant to alter no output leaves it as it is, and a change to it
# is a change of the specification
GATE_REPORT_SHA256 = (
    "d237ffb6fd7b2b5bc6d2785e9948e5db966d86b7d13d708cb524293667708314")
# sha256 (conftest.sha256_of_lines) of each mutant's json.dumps([label,
# failures]), in corpus order, pinned in the same sense
MUTANT_FAILURES_SHA256 = (
    "5f2b9a7abf674a7172afd6153db8d54e0a97e93c8baee2d7e60777b979bb5a03")


def conclude(n, problems, detail=""):
    ok = not problems
    text = detail if ok else "; ".join(problems[:4])
    conftest.CRITERIA[n] = (ok, text)
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
          + (f" ({text})" if text else ""))
    assert ok, f"criterion {n}: {text}"


@pytest.fixture(scope="module")
def report():
    return run_sweep(gate_specs(), include_fixtures=True,
                     command="acceptance")


def violations_of(report, *kinds):
    return [f"[{kind}] {label}: {detail}"
            for kind, label, detail in report.violations if kind in kinds]


def test_criterion_1_witnessed_cut_sweep(report):
    problems = violations_of(report, "matching_covered", "connectivity",
                             "witness", "fixture")
    if report.instances < 3 * GATE_SAMPLES_PER_ORDER:
        problems.append(f"corpus too small: {report.instances}")
    if report.graphs_with_nontrivial_tight_cut == 0:
        problems.append("no graph with a nontrivial tight cut")
    if report.witnesses_verified < report.graphs_with_nontrivial_tight_cut:
        problems.append("some graph yielded no verified witnessed cut")
    if report.elapsed > TIME_BUDGET_SECONDS:
        problems.append(f"sweep took {report.elapsed:.0f}s")
    conclude(1, problems,
             f"{report.instances} instances, "
             f"{report.nontrivial_tight_cuts} nontrivial tight cuts, "
             f"{report.elapsed:.0f}s")


def test_criterion_2_noncrossing_witness_per_cut(report):
    problems = violations_of(report, "witness")
    if report.witnesses_verified != report.nontrivial_tight_cuts:
        problems.append(
            f"verified {report.witnesses_verified} findings for "
            f"{report.nontrivial_tight_cuts} nontrivial tight cuts")
    conclude(2, problems,
             f"{report.witnesses_verified} findings re-verified")


def test_criterion_3_decomposition_chains(report):
    problems = violations_of(report, "certificate")
    if report.decompositions != report.nontrivial_tight_cuts:
        problems.append("not every nontrivial tight cut was decomposed")
    if not report.harvested:
        problems.append("no unwitnessed tight cut in the corpus")
    if any(h["r"] < 2 for h in report.harvested):
        problems.append("an unwitnessed cut produced r < 2")
    pinned = [h for h in report.harvested
              if h["label"].startswith("fixture-")]
    if not pinned:
        problems.append("no pinned regression instance")
    # replay one pinned chain step by step against first principles
    g = next(g for name, g, _ in fixture_instances()
             if name == "blocked_triangle")
    c = g.boundary(frozenset({0, 1, 2}))
    cert = decompose_tight_cut(g, c)
    if cert.r < 2:
        problems.append("pinned instance decomposed to r=1")
    replay_ref = c
    for step in cert.steps:
        if step.cut.is_trivial or not is_tight(step.graph, step.cut) \
                or step.cut.crosses(replay_ref) \
                or not classify_cut(step.graph, step.cut).witnessed:
            problems.append("pinned chain step is not a witnessed "
                            "noncrossing tight cut")
        next_g = step.graph.contract(step.contracted_shore, step.new_vertex)
        replay_ref = next_g.cut_from_edge_ids(replay_ref.edge_ids)
    if not cert.final_classification.twosep_witnesses:
        problems.append("pinned chain does not end in a two-separation cut")
    if not verify_certificate(g, c, cert).ok:
        problems.append("pinned certificate fails verification")
    conclude(3, problems,
             f"{len(report.harvested)} unwitnessed cuts, all r >= 2, "
             f"{len(pinned)} pinned")


def test_criterion_4_contraction_and_transfer(report):
    problems = violations_of(report, "contraction", "transfer")
    if report.contraction_checks != 2 * report.nontrivial_tight_cuts:
        problems.append(
            f"{report.contraction_checks} contraction checks for "
            f"{report.nontrivial_tight_cuts} cuts")
    if report.transfer_checks == 0:
        problems.append("no tightness transfer was exercised")
    conclude(4, problems,
             f"{report.contraction_checks} contractions, "
             f"{report.transfer_checks} transfers")


def test_criterion_5_lift_scenarios(report):
    problems = violations_of(report, "lift")
    if report.lift_scenarios < 1000:
        problems.append(f"only {report.lift_scenarios} lift scenarios")
    conclude(5, problems, f"{report.lift_scenarios} lifts, all barriers")


def test_criterion_6_strict_barrier_setups(report):
    problems = violations_of(report, "strict_barrier")
    if report.strict_barrier_instances < 200:
        problems.append(
            f"only {report.strict_barrier_instances} dead-cut setups")
    conclude(6, problems,
             f"{report.strict_barrier_instances} dead-cut setups, each a "
             "confined strict barrier")


def test_gate_report_is_pinned(report):
    summary = report.to_json_dict()
    del summary["elapsed"]
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_REPORT_SHA256


def test_criterion_7_brick_sanity():
    problems = []
    if enumerate_tight_cuts(canonical("K4"), nontrivial_only=True):
        problems.append("K4 reports a nontrivial tight cut")
    if enumerate_tight_cuts(canonical("PETERSEN"), nontrivial_only=True):
        problems.append("Petersen reports a nontrivial tight cut")
    c6 = cycle(6)
    cut = c6.boundary({0, 1, 2})
    if not is_tight(c6, cut):
        problems.append("C6 cut is not tight")
    if not classify_cut(c6, cut).witnessed:
        problems.append("C6 cut is not witnessed")
    conclude(7, problems, "K4/Petersen clean, C6 cut tight and witnessed")


def test_criterion_8_branch_coverage(report):
    missing = sorted(REQUIRED_BRANCHES - set(report.branch_counts))
    problems = [f"branch {name} never fired" for name in missing]
    fired = sorted(set(report.branch_counts) & REQUIRED_BRANCHES)
    conclude(8, problems, f"{len(fired)}/{len(REQUIRED_BRANCHES)} "
             "required branches fired")


def test_criterion_9_certificate_mutations():
    problems = []
    cases = target_mutants(mutation_targets())
    if len(cases) < 100:
        problems.append(f"only {len(cases)} mutants")
    accepted = rewarded = 0
    verdicts = []
    for g, c, label, mutated, expected in cases:
        result = verify_certificate(g, c, mutated)
        verdicts.append(json.dumps([label, result.failures]))
        if result.ok:
            accepted += 1
            problems.append(f"mutant accepted: {label}")
        elif expected not in {code for code, _ in result.failures}:
            rewarded += 1
            problems.append(f"wrong reason for {label}")
    if sha256_of_lines(verdicts) != MUTANT_FAILURES_SHA256:
        problems.append("mutant failures differ from their pin")
    conclude(9, problems[:6],
             f"{len(cases)} mutants, all rejected with expected reasons")
