"""Certificate verification: honest replays pass, every mutant fails."""

import json
import re
import sys
from itertools import combinations

import pytest

import tightcut.cuts
import tightcut.verify
from tightcut.certificate import graph_to_json
from tightcut.cli import main
from tightcut.cuts import enumerate_tight_cuts, is_tight
from tightcut.decompose import decompose_tight_cut, find_noncrossing_witness
from tightcut.graph import Graph
from tightcut.instances import fixture_instances
from tightcut.structure import (
    Barrier,
    enumerate_barriers,
    find_2separations,
    two_separation_cuts,
)
from tightcut.verify import (
    R_CROSSES,
    R_INPUT,
    R_NO_GENERATE,
    R_NOT_BARRIER,
    R_NOT_TWOSEP,
    R_SCHEMA,
    R_TRIVIAL,
    verify_certificate,
    witness_failure,
)

from conftest import brute_is_tight, cycle
from mutations import mutation_targets, target_mutants


BASES = mutation_targets()
CORPUS = target_mutants(BASES)


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 100


def test_corpus_covers_every_reachable_reason():
    """Every reason code verify.py defines is reachable: a mutant
    expects it."""
    defined = {value for name, value in vars(tightcut.verify).items()
               if name.startswith("R_")}
    assert {code for _, _, _, _, code in CORPUS} == defined


@pytest.mark.parametrize("name", [b[0] for b in BASES])
def test_pristine_certificates_verify(name):
    _, g, c, cert = next(b for b in BASES if b[0] == name)
    assert verify_certificate(g, c, cert).ok
    roundtripped = json.loads(json.dumps(cert.to_json_dict()))
    assert verify_certificate(g, c, roundtripped).ok


@pytest.mark.parametrize(
    "case", CORPUS, ids=[label for _, _, label, _, _ in CORPUS])
def test_mutant_is_rejected(case):
    g, c, label, mutated, expected = case
    result = verify_certificate(g, c, mutated)
    assert not result.ok, label
    assert expected in {code for code, _ in result.failures}, (
        label, result.failures)


def test_final_entry_mutants_fail_at_their_entry():
    # the replay reaches every final entry, not only the first or the last
    cases = [(g, c, label, mutated) for g, c, label, mutated, _ in CORPUS
             if re.search(r":final\[\d+\]$", label)]
    assert len(cases) >= 20
    for g, c, label, mutated in cases:
        i = re.search(r"\[(\d+)\]$", label).group(1)
        paths = [path for _, path in verify_certificate(g, c, mutated).failures]
        assert paths and all(
            p.startswith(f"$.final.witnesses[{i}]") for p in paths), (
            label, paths)


def test_failures_carry_paths():
    _, g, c, cert = BASES[0]
    broken = cert.to_json_dict()
    del broken["input"]
    result = verify_certificate(g, c, broken)
    assert result.failures == ((R_SCHEMA, "$"),)
    assert "schema violation at $" in repr(result)


def test_non_dict_certificates(c6):
    c = c6.boundary({0, 1, 2})
    for junk in (17, [], "cert", None):
        result = verify_certificate(c6, c, junk)
        assert result.failures == ((R_SCHEMA, "$"),)


def test_input_preconditions(c6, k4):
    cert = next(b for b in BASES if b[0] == "c6")[3].to_json_dict()
    # trivial reference cut
    assert verify_certificate(
        c6, c6.boundary({0}), cert).failures == ((R_INPUT, "$"),)
    # non-tight reference cut: not the certificate's, which is tight
    assert verify_certificate(c6, c6.boundary({0, 2, 4}), cert).failures \
        == ((R_INPUT, "$.input.cut_shore"),)
    # cut of a different graph
    assert verify_certificate(
        c6, k4.boundary({0}), cert).failures == ((R_INPUT, "$"),)
    # host not matching covered
    path = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    pc = path.boundary({0, 1, 2})
    assert verify_certificate(
        path, pc, cert).failures == ((R_INPUT, "$"),)
    # host with an isolated vertex: not matching covered, so the replay
    # fails it before it compares any shape
    isolated = Graph(range(7), [c6.edge_ends(eid) for eid in c6.edge_ids])
    assert verify_certificate(isolated, isolated.boundary({0, 1, 2}),
                              cert).failures == ((R_INPUT, "$"),)


def test_tolerated_variations(c6):
    _, g, c, cert = next(b for b in BASES if b[0] == "c6")
    # the declared shore may be either side
    other = cert.to_json_dict()
    other["input"]["cut_shore"] = sorted(c.other_shore)
    assert verify_certificate(g, c, other).ok
    # the final witnesses may come in any order
    shuffled = cert.to_json_dict()
    shuffled["final"]["witnesses"].reverse()
    assert verify_certificate(g, c, shuffled).ok
    # but every entry is checked
    noisy = cert.to_json_dict()
    noisy["final"]["witnesses"].append({"bogus": True})
    (failure,) = verify_certificate(g, c, noisy).failures
    assert failure[0] == R_SCHEMA
    assert failure[1].startswith("$.final.witnesses[")



def _graph_objs(cert):
    """Each serialized graph of a JSON certificate with its path."""
    yield "$.input.graph", cert["input"]["graph"]
    for i, step in enumerate(cert["steps"]):
        yield f"$.steps[{i}].graph", step["graph"]
    yield "$.final.graph", cert["final"]["graph"]


class _Label(int):
    pass


@pytest.mark.parametrize("entry", [
    [True, 1], [1, 2, 3], [0.0, 1], [1, 1], "01", None, {}],
    ids=["bool", "three", "float", "loop", "string", "null", "dict"])
@pytest.mark.parametrize("where", ["input", "step", "final"])
def test_schema_walk_rejects_each_bad_edge_at_its_path(entry, where):
    """A bad edge entry in the input graph, a step graph or the final
    graph is the one failure, at its own path."""
    _, g, c, cert = next(b for b in BASES if b[0] == "blocked_triangle")
    bad = cert.to_json_dict()
    assert bad["steps"]
    path, obj = [(p, o) for p, o in _graph_objs(bad)
                 if p.startswith("$." + where)][0]
    obj["edges"][1] = entry
    assert verify_certificate(g, c, bad).failures == (
        (R_SCHEMA, f"{path}.edges[1]"),)


def test_schema_walk_accepts_reversed_pairs_and_int_subclasses():
    _, g, c, cert = next(b for b in BASES if b[0] == "blocked_triangle")
    reversed_pairs = cert.to_json_dict()
    subclassed = cert.to_json_dict()
    for (_, a), (_, b) in zip(_graph_objs(reversed_pairs),
                              _graph_objs(subclassed)):
        a["edges"] = [[y, x] for x, y in a["edges"]]
        b["edges"] = [[_Label(x), _Label(y)] for x, y in b["edges"]]
    assert verify_certificate(g, c, reversed_pairs).ok
    assert verify_certificate(g, c, subclassed).ok


# the shared witness rule --------------------------------------------------------

def _raw(witness):
    if isinstance(witness, Barrier):
        return witness.members
    return (witness.pair, witness.side1, witness.side2)


def test_witness_failure_reason_codes(c6):
    c = c6.boundary({0, 1, 2})
    barrier = frozenset({0, 2})  # g - {0, 2} = {1}, {3, 4, 5}
    twosep = ((0, 3), {0, 1, 2, 3}, {3, 4, 5, 0})
    assert witness_failure(c6, c, c, barrier) is None
    assert witness_failure(c6, c, c, twosep) is None
    # the cut-side codes come first, whatever the witness
    assert witness_failure(c6, c, c6.boundary({0}), barrier) == R_TRIVIAL
    assert witness_failure(c6, c, c6.boundary({1, 2, 3}), twosep) == R_CROSSES
    # g - {0, 1} is one even path
    assert witness_failure(c6, c, c, frozenset({0, 1})) == R_NOT_BARRIER
    assert witness_failure(c6, c, c, frozenset({9})) == R_NOT_BARRIER
    assert witness_failure(
        c6, c, c, ((0, 1), {0, 1, 2}, {0, 1, 3, 4, 5})) == R_NOT_TWOSEP
    # an even shore is no odd part of a barrier nor a two-separation cut
    assert witness_failure(c6, c, c6.boundary({0, 1}), barrier) == R_NO_GENERATE
    assert witness_failure(c6, c, c6.boundary({0, 1}), twosep) == R_NO_GENERATE
    # {1, 3} is a barrier with odd parts {2} and {0, 4, 5}
    assert witness_failure(c6, c, c, frozenset({1, 3})) == R_NO_GENERATE
    # (1, 4) generates the cuts at {2, 3, 4} and {1, 2, 3}
    assert witness_failure(
        c6, c, c, ((1, 4), {1, 2, 3, 4}, {4, 5, 0, 1})) == R_NO_GENERATE


@pytest.mark.parametrize("name", [f[0] for f in fixture_instances()])
def test_witness_failure_accepts_produced_witnesses(name):
    _, g, shore = next(f for f in fixture_instances() if f[0] == name)
    c = g.boundary(shore)
    finding = find_noncrossing_witness(g, c)
    assert witness_failure(g, c, finding.cut, _raw(finding.witness)) is None
    cert = decompose_tight_cut(g, c)
    for step in cert.steps:
        reference = step.graph.cut_from_edge_ids(c.edge_ids)
        assert witness_failure(
            step.graph, reference, step.cut, _raw(step.witness)) is None
    if cert.steps:
        # an unwitnessed reference cut is generated by no witness of g
        assert witness_failure(
            g, c, c, _raw(cert.steps[0].witness)) == R_NO_GENERATE


@pytest.mark.parametrize("name", [f[0] for f in fixture_instances()])
def test_verify_runs_no_tightness_test(name, monkeypatch):
    """The witnesses prove every cut of the chain tight, so the replay
    asks is_tight nothing, under any name the package binds it to."""
    _, g, shore = next(f for f in fixture_instances() if f[0] == name)
    c = g.boundary(shore)
    cert = decompose_tight_cut(g, c)
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
    assert verify_certificate(g, c, cert).ok
    assert calls == []


def _odd_shores(g):
    """Every odd shore holding the smallest vertex, one per cut."""
    anchor, rest = g.vertices[0], g.vertices[1:]
    for size in range(0, g.n - 1, 2):
        for combo in combinations(rest, size):
            yield frozenset((anchor,) + combo)


def test_nontight_inputs_are_rejected():
    """With no tightness test of its own, the replay still refuses a
    genuine certificate of a tight cut handed in for a non-tight one:
    its witnesses prove only tight cuts tight."""
    cases = [("c6", cycle(6), frozenset({0, 1, 2})), *fixture_instances()]
    rejected = 0
    for name, g, shore in cases:
        cert = decompose_tight_cut(g, g.boundary(shore)).to_json_dict()
        tight = {d.shore for d in enumerate_tight_cuts(g)}
        for x in _odd_shores(g):
            if x in tight:
                continue
            forged = dict(cert, input=dict(cert["input"], cut_shore=sorted(x)))
            result = verify_certificate(g, g.boundary(x), forged)
            assert not result.ok, (name, sorted(x))
            rejected += 1
    assert rejected == 5001


def test_witness_rule_accepts_only_tight_cuts(exhaustive_corpus):
    """Fact 1 against the perfect-matching oracle: every barrier and
    two-separation cut the witness rule accepts is tight."""
    graphs = [g for corpus in exhaustive_corpus.values() for g in corpus]
    graphs += [g for _, g, _ in fixture_instances()]
    accepted = 0
    for g in graphs:
        edges = [g.edge_ends(eid) for eid in g.edge_ids]
        pairs = [(part, b.members) for b in enumerate_barriers(g)
                 for part in b.odd_parts]
        pairs += [(d.shore, (s.pair, s.side1, s.side2))
                  for s in find_2separations(g)
                  for d in two_separation_cuts(g, s)]
        for shore, raw in pairs:
            d = g.boundary(shore)
            reason = witness_failure(g, d, d, raw)
            assert reason in (None, R_TRIVIAL), (sorted(shore), reason)
            if reason is None:
                assert brute_is_tight(g.vertices, edges, shore), sorted(shore)
                accepted += 1
    assert accepted > 0


def test_final_claims_replay_past_the_barrier_search(tmp_path, capsys):
    """K_{20,20} with right vertex 39 split into the path 39-40-41 from 0
    to 1. The cut around the path has the barrier witness {0, 1}, which
    no producer lists (classify_cut lists the largest, the left side
    {0..19}), and a search over barriers around it would face 18
    candidates, more than the guard of 16. The verifier replays the
    listed witness instead of searching."""
    edges = [(x, y) for x in range(20) for y in range(20, 39)]
    edges += [(0, 39), (39, 40), (40, 41), (41, 1)]
    g = Graph(range(42), edges)
    shore = frozenset({39, 40, 41})
    c = g.boundary(shore)
    graph = graph_to_json(g)
    cert = {
        "input": {"graph": graph, "cut_shore": sorted(shore)},
        "steps": [],
        "final": {"graph": graph,
                  "witnesses": [{"kind": "barrier", "members": [0, 1]}]},
        "r": 1,
    }
    assert verify_certificate(g, c, cert).ok
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 0
    assert "certificate OK (r=1)" in capsys.readouterr().out


def test_serialized_blocks_share_no_list():
    """graph_to_json reads a graph's edge pairs once per graph, but every
    call returns lists of its own: an r = 1 certificate serializes its
    graph twice, and the mutation corpus edits one block in place."""
    cases = [(cycle(6), {0, 1, 2})]
    cases += [(g, shore) for _, g, shore in fixture_instances()]
    rounds = set()
    for g, shore in cases:
        cert = decompose_tight_cut(g, g.boundary(shore)).to_json_dict()
        blocks = [cert["input"]["graph"], cert["final"]["graph"]]
        blocks += [step["graph"] for step in cert["steps"]]
        blocks += [graph_to_json(g), graph_to_json(g)]
        lists = [x for b in blocks for x in (b["edges"], *b["edges"])]
        assert len({id(x) for x in lists}) == len(lists)
        assert blocks[-1] == blocks[-2] == cert["input"]["graph"]
        rounds.add(cert["r"])
    assert 1 in rounds and max(rounds) > 1
