"""End-to-end command line tests through main(argv)."""

import io
import json
import os
from collections import Counter
from itertools import combinations

import pytest

import tightcut.cli
from tightcut.cli import _set_text, main
from tightcut.cuts import (
    classify_cut, enumerate_tight_cuts, is_tight, meets_once)
from tightcut.decompose import decompose_tight_cut
from tightcut.edgelist import parse_edge_list, write_edge_list
from tightcut.graph import Graph, InternalInvariantError
from tightcut.instances import fixture_instances
from tightcut.matching import is_matching_covered
from tightcut.sweep import SweepReport
from tightcut.verify import VerificationResult, verify_certificate

from conftest import cycle, inflated


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.el"
    write_edge_list(cycle(6), path)
    return str(path)


@pytest.fixture
def blocked_file(tmp_path):
    g = next(g for name, g, _ in fixture_instances()
             if name == "blocked_triangle")
    path = tmp_path / "blocked.el"
    write_edge_list(g, path)
    return str(path)


# check ---------------------------------------------------------------------------

def test_check_plain(c6_file, capsys):
    assert main(["check", c6_file]) == 0
    out = capsys.readouterr().out
    assert "graph: 6 vertices, 6 edges" in out
    assert "matching covered: yes" in out
    assert "bicritical: no" in out


def test_check_with_cut(c6_file, capsys):
    assert main(["check", c6_file, "--cut", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "tight: yes" in out
    assert "witnessed: yes" in out
    assert "barrier witness {0, 2}" in out
    assert "two-separation witness on pair {0, 3}" in out


def test_check_cut_without_matching(tmp_path, capsys):
    star = tmp_path / "star.el"
    star.write_text("p 4 3\ne 0 1\ne 0 2\ne 0 3\n")
    assert main(["check", str(star), "--cut", "1"]) == 0
    out = capsys.readouterr().out
    assert "matchable: no" in out
    assert "tight: undefined" in out


def test_check_cut_not_matching_covered(tmp_path, capsys):
    path4 = tmp_path / "p4.el"
    path4.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    assert main(["check", str(path4), "--cut", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "matching covered: no" in out
    assert "tight: no" in out
    assert "witnessed" not in out


def test_check_classifies_only_tight_cuts(tmp_path, capsys, monkeypatch):
    """The even shore {1, 3} of the 40-cycle fails the cheap filter of
    tightness (meets_once), so check classifies nothing."""
    c40 = str(tmp_path / "c40.el")
    assert main(["generate", "C2K(20)", "--out", c40]) == 0
    monkeypatch.setattr(tightcut.cli, "classify_cut", None)
    assert main(["check", c40, "--cut", "1,3"]) == 0
    out = capsys.readouterr().out
    assert "tight: no" in out
    assert "witnessed: no" in out


def test_check_proves_a_witnessed_cut_tight_without_is_tight(
        c6_file, capsys, monkeypatch):
    """A listed witness proves the cut tight (Fact 1 in verify.py)."""
    monkeypatch.setattr(tightcut.cli, "is_tight", None)
    assert main(["check", c6_file, "--cut", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "tight: yes" in out and "witnessed: yes" in out


def _check_tail(g, c):
    """check's lines from "tight:" on, as is_tight, then classify_cut
    on a tight cut, state them."""
    tight = is_tight(g, c)
    lines = [f"tight: {'yes' if tight else 'no'}"]
    cls = classify_cut(g, c) if tight else None
    lines.append(f"witnessed: {'yes' if cls and cls.witnessed else 'no'}")
    if cls:
        lines += [f"  barrier witness {_set_text(b.members)}, "
                  f"odd component shore {_set_text(c.shores()[i])}"
                  for b, i in cls.barrier_witnesses]
        lines += [f"  two-separation witness on pair {_set_text(ts.pair)}"
                  for ts in cls.twosep_witnesses]
    return "\n".join(lines) + "\n"


def test_check_reports_what_is_tight_and_classify_cut_say(tmp_path, capsys):
    """On every nontrivial tight cut of every fixture, and on the first
    40 odd shores of each that pass the cheap filter (meets_once) but
    are not tight, check prints what is_tight and classify_cut say."""
    checked = Counter()
    for name, g, _ in fixture_instances():
        path = tmp_path / f"{name}.el"
        write_edge_list(g, path)
        tight = enumerate_tight_cuts(g, nontrivial_only=True)
        rest = g.vertices[1:]
        loose = [c for size in range(2, g.n - 2, 2)
                 for combo in combinations(rest, size)
                 if meets_once(g, c := g.boundary({g.vertices[0], *combo}))
                 and not is_tight(g, c)][:40]
        for c in tight + loose:
            assert main(["check", str(path), "--cut",
                         ",".join(map(str, sorted(c.shore)))]) == 0
            out = capsys.readouterr().out
            assert out[out.index("tight: "):] == _check_tail(g, c)
            checked[c in tight] += 1
    assert checked == {True: 72, False: 40 * 5}


def test_check_bad_inputs(c6_file, tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.el")]) == 2
    assert main(["check", c6_file, "--cut", "zero,one"]) == 2
    assert main(["check", c6_file, "--cut", "0,1,2,3,4,5"]) == 2
    broken = tmp_path / "broken.el"
    broken.write_text("p 2 1\ne 0 5\n")
    assert main(["check", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_edgeless_pair_is_bicritical(monkeypatch, capsys):
    # deleting both vertices leaves the empty graph, which is matchable
    monkeypatch.setattr("sys.stdin", io.StringIO("p 2 0\n"))
    assert main(["check", "-"]) == 0
    out = capsys.readouterr().out
    assert "matchable: no" in out
    assert "bicritical: yes" in out


def test_check_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p 2 1\ne 0 1\n"))
    assert main(["check", "-"]) == 0
    assert "graph: 2 vertices, 1 edges" in capsys.readouterr().out


# decompose -----------------------------------------------------------------------

def test_decompose_witnessed_to_file(c6_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["decompose", c6_file, "--cut", "0,1,2",
                 "--json", cert_path]) == 0
    out = capsys.readouterr().out
    assert "r = 1: the cut is already witnessed" in out
    assert "certificate verified" in out
    payload = json.loads(open(cert_path).read())
    assert payload["r"] == 1
    assert main(["verify", cert_path]) == 0
    assert "certificate OK (r=1)" in capsys.readouterr().out


def test_decompose_json_to_stdout(c6_file, capsys):
    assert main(["decompose", c6_file, "--cut", "0,1,2", "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["input"]["cut_shore"] == [0, 1, 2]
    assert "certificate verified" in captured.err


def test_decompose_chain_with_dot(blocked_file, tmp_path, capsys):
    dot_dir = str(tmp_path / "dots")
    cert_path = str(tmp_path / "cert.json")
    assert main(["decompose", blocked_file, "--cut", "0,1,2",
                 "--json", cert_path, "--dot", dot_dir]) == 0
    out = capsys.readouterr().out
    assert "step 1: barrier" in out
    assert "r = 2: final cut is a two-separation cut" in out
    assert sorted(os.listdir(dot_dir)) == ["final.dot", "step_01.dot"]
    step_text = open(os.path.join(dot_dir, "step_01.dot")).read()
    assert step_text.startswith('graph "step1" {')
    assert "color=red" in step_text
    assert main(["verify", cert_path]) == 0


def test_decompose_prints_a_two_separation_step(tmp_path, capsys):
    g = next(g for name, g, _ in fixture_instances()
             if name == "bridged_triangle")
    path = tmp_path / "bridged.el"
    write_edge_list(g, path)
    assert main(["decompose", str(path), "--cut", "0,1,2"]) == 0
    assert "step 2: two-separation pair {0, 10}, contract shore " \
        "{3, 7, 10} to vertex 11\n" in capsys.readouterr().out


def test_decompose_rejects_unusable_cuts(c6_file, capsys):
    assert main(["decompose", c6_file, "--cut", "0,2,4"]) == 2
    assert "not tight" in capsys.readouterr().err
    assert main(["decompose", c6_file, "--cut", "0"]) == 2
    assert "trivial" in capsys.readouterr().err
    assert main(["decompose", c6_file, "--cut", ","]) == 2
    assert "error: cut shore is empty" in capsys.readouterr().err


def test_decompose_exits_1_when_its_self_check_fails(
        c6_file, capsys, monkeypatch):
    failed = VerificationResult(False, (("final not witnessed", "$.final"),))
    monkeypatch.setattr(tightcut.cli, "verify_certificate",
                        lambda g, c, payload: failed)
    assert main(["decompose", c6_file, "--cut", "0,1,2"]) == 1
    captured = capsys.readouterr()
    assert "self-check failed: final not witnessed at $.final" in \
        captured.err
    assert "certificate verified" not in captured.out


def test_decompose_past_the_barrier_guard(tmp_path, capsys):
    """blocked_triangle with K_{15,15} spliced into its far shore
    (n = 38): the cut is unwitnessed, and the reduction's barrier step
    takes a dependence class of 17 vertices, more than the barrier
    listing's guard of 16 allows a subset search. Neither decompose nor
    verify runs a guarded search."""
    g = next(g for name, g, _ in fixture_instances()
             if name == "blocked_triangle")
    h, shore = inflated(g, {0, 1, 2}, 15)
    assert h.n == 38
    path = str(tmp_path / "inflated.el")
    write_edge_list(h, path)
    cut = ",".join(map(str, sorted(shore)))
    assert main(["decompose", path, "--cut", cut]) == 0
    out = capsys.readouterr().out
    assert "r = 2" in out and "certificate verified" in out


def test_split_complete_bipartite_past_the_barrier_guard(tmp_path, capsys):
    """K_{20,20} with right vertex 39 split into the path 39-40-41 from 0
    to 1 (n = 42). Each shore of the cut at the path has one largest
    barrier witness, a dependence class: the left side {0..19} for the
    path, {39, 41} for the rest. A search over barriers around the cut
    would face 18 candidates, more than the guard of 16."""
    edges = [(x, y) for x in range(20) for y in range(20, 39)]
    edges += [(0, 39), (39, 40), (40, 41), (41, 1)]
    path = str(tmp_path / "split.el")
    write_edge_list(Graph(range(42), edges), path)
    assert main(["check", path, "--cut", "39,40,41"]) == 0
    out = capsys.readouterr().out
    assert "witnessed: yes" in out
    left = "{" + ", ".join(map(str, range(20))) + "}"
    assert f"barrier witness {left}, odd component shore {{39, 40, 41}}" \
        in out
    assert "barrier witness {39, 41}, odd component shore {0," in out
    assert out.count("barrier witness") == 2
    assert main(["decompose", path, "--cut", "39,40,41"]) == 0
    out = capsys.readouterr().out
    assert "r = 1" in out and "certificate verified" in out


# verify --------------------------------------------------------------------------

def test_verify_rejects_tampered(c6_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["decompose", c6_file, "--cut", "0,1,2",
                 "--json", cert_path]) == 0
    capsys.readouterr()
    payload = json.loads(open(cert_path).read())
    payload["final"]["witnesses"] = []
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert main(["verify", str(tampered)]) == 1
    assert "certificate rejected: final not witnessed" in \
        capsys.readouterr().out


def test_verify_bad_files(tmp_path, capsys):
    not_json = tmp_path / "bad.json"
    not_json.write_text("{nope")
    assert main(["verify", str(not_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    hollow = tmp_path / "hollow.json"
    hollow.write_text(json.dumps({"input": {"graph": {"n": 2}}}))
    assert main(["verify", str(hollow)]) == 1
    assert capsys.readouterr().out == \
        "certificate rejected: schema violation at $\n"


@pytest.mark.parametrize("field, value, failure", [
    ("edges", [[True, 1]], "schema violation at $.input.graph.edges[0]"),
    ("edges", [[0]], "schema violation at $.input.graph.edges[0]"),
    ("edges", ["01"], "schema violation at $.input.graph.edges[0]"),
    ("n", "6", "schema violation at $.input.graph.n"),
    ("cut_shore", "012", "schema violation at $.input.cut_shore"),
    ("cut_shore", [0, 1, 9], "input mismatch at $.input.cut_shore"),
])
def test_verify_prints_the_librarys_path(c6_file, tmp_path, capsys,
                                         field, value, failure):
    """The schema walk runs before the host is built, so a malformed
    input block is rejected with the reason and path verify_certificate
    gives."""
    cert_path = str(tmp_path / "cert.json")
    main(["decompose", c6_file, "--cut", "0,1,2", "--json", cert_path])
    capsys.readouterr()
    payload = json.loads(open(cert_path).read())
    block = payload["input"]
    (block if field == "cut_shore" else block["graph"])[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().out == f"certificate rejected: {failure}\n"
    g = cycle(6)
    assert [f"{code} at {path}" for code, path in verify_certificate(
        g, g.boundary({0, 1, 2}), payload).failures] == [failure]


@pytest.mark.parametrize("n", [10**9, 10**30])
def test_verify_rejects_a_huge_declared_order(c6_file, tmp_path, capsys, n):
    """A certificate graph has no isolated vertex, so an order above
    twice the edge count is rejected before any graph is built."""
    cert_path = str(tmp_path / "cert.json")
    main(["decompose", c6_file, "--cut", "0,1,2", "--json", cert_path])
    capsys.readouterr()
    payload = json.loads(open(cert_path).read())
    payload["input"]["graph"]["n"] = n
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(payload))
    assert main(["verify", str(huge)]) == 1
    assert capsys.readouterr().out == \
        "certificate rejected: input mismatch at $\n"


def test_verify_keeps_the_certificates_vertex_labels(tmp_path, capsys):
    """A certificate carries its host's own labels: C6 on 10..15 with
    shore {10, 11, 12} verifies as it does through verify_certificate."""
    g = Graph(range(10, 16), [(10 + i, 10 + (i + 1) % 6) for i in range(6)])
    c = g.boundary({10, 11, 12})
    cert = decompose_tight_cut(g, c)
    assert verify_certificate(g, c, cert).ok
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(cert.to_json_dict()))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "certificate OK (r=1)\n"


def test_verify_stdin(c6_file, tmp_path, monkeypatch, capsys):
    cert_path = str(tmp_path / "cert.json")
    main(["decompose", c6_file, "--cut", "0,1,2", "--json", cert_path])
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(open(cert_path).read()))
    assert main(["verify", "-"]) == 0


# sweep ---------------------------------------------------------------------------

def test_sweep_exhaustive_with_report(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main(["sweep", "--mode", "exhaustive", "--max-n", "4",
                 "--no-fixtures", "--report", report_path]) == 0
    out = capsys.readouterr().out
    assert "instances: 5" in out  # K2 plus the four on 4 vertices
    assert "violations: 0" in out
    report = json.loads(open(report_path).read())
    assert report["ok"] is True
    assert report["command"] == "sweep --mode exhaustive --max-n 4"


def test_sweep_fixtures_harvest(tmp_path, capsys):
    harvest_dir = str(tmp_path / "harvest")
    assert main(["sweep", "--mode", "random", "--max-n", "4",
                 "--samples", "0", "--harvest", harvest_dir]) == 0
    out = capsys.readouterr().out
    assert "instances: 5" in out  # fixtures only
    files = sorted(os.listdir(harvest_dir))
    assert "manifest.json" in files
    harvested = [f for f in files if f.endswith(".el")]
    assert harvested
    g = parse_edge_list(open(os.path.join(harvest_dir, harvested[0])).read())
    assert is_matching_covered(g)


def test_sweep_random_splits_samples_over_orders(tmp_path, capsys):
    """Three samples up to n = 10 go to orders 8 and 10, two and one."""
    report_path = str(tmp_path / "report.json")
    assert main(["sweep", "--mode", "random", "--max-n", "10",
                 "--samples", "3", "--no-fixtures",
                 "--report", report_path]) == 0
    out = capsys.readouterr().out
    assert "instances: 3" in out
    assert "violations: 0" in out
    report = json.loads(open(report_path).read())
    assert report["command"] == \
        "sweep --mode random --max-n 10 --samples 3 --seed 0"


def test_sweep_exits_1_and_lists_violations(capsys, monkeypatch):
    def failing(specs, include_fixtures, command):
        report = SweepReport(command=command)
        report.violations.append(("twosep", "K4", "a made-up violation"))
        return report

    monkeypatch.setattr(tightcut.cli, "run_sweep", failing)
    assert main(["sweep", "--mode", "exhaustive", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "violations: 1" in out
    assert "  [twosep] K4: a made-up violation" in out


def test_sweep_bad_bounds(capsys):
    assert main(["sweep", "--mode", "exhaustive", "--max-n", "12"]) == 2
    assert main(["sweep", "--mode", "random", "--max-n", "40"]) == 2
    assert "error:" in capsys.readouterr().err


# generate ------------------------------------------------------------------------

def test_generate_canonical(tmp_path, capsys):
    out_path = str(tmp_path / "k4.el")
    assert main(["generate", "K4", "--out", out_path]) == 0
    assert "wrote 4 vertices, 6 edges" in capsys.readouterr().out
    g = parse_edge_list(open(out_path).read())
    assert g.n == 4 and g.m == 6


def test_generate_to_stdout(capsys):
    assert main(["generate", "petersen", "--out", "-"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 10 and g.m == 15


def test_generate_default_filename(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "C2K(3)"]) == 0
    assert (tmp_path / "c2k_3.el").exists()


def test_generate_random(capsys):
    assert main(["generate", "--random", "--n", "8", "--seed", "2",
                 "--out", "-"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.n == 8
    assert is_matching_covered(g)


def test_generate_usage_errors(capsys):
    assert main(["generate", "--random"]) == 2
    assert main(["generate"]) == 2
    assert "known names" in capsys.readouterr().err


# top level -----------------------------------------------------------------------

def test_internal_invariant_errors_exit_1(c6_file, capsys, monkeypatch):
    def broken(g, c):
        raise InternalInvariantError("a made-up bug")

    monkeypatch.setattr(tightcut.cli, "decompose_tight_cut", broken)
    assert main(["decompose", c6_file, "--cut", "0,1,2"]) == 1
    assert "internal invariant violated: a made-up bug" in \
        capsys.readouterr().err


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
