"""The package's value types: Cut, Matching, Barrier, TwoSeparation,
CutClassification, WitnessFinding, Step, DecompositionCertificate,
VerificationResult, CorpusSpec and SweepReport.

Each compares equal only to an object of its own class with equal
compared fields, and a graph back-reference is not compared. A hashable
one hashes as the tuple of its compared fields, so set and dict order
follow the fields alone; Step and DecompositionCertificate compare
graphs, which are unhashable, and SweepReport is mutable. All but
SweepReport refuse assignment and deletion. Copies and pickle round
trips give equal objects, and every repr is pinned. Every one of them
compares and hashes through the one base, graph._Value: no class body
defines __eq__ or a __hash__ method, and Cut, Matching, Barrier and
TwoSeparation keep only their own constructor. No value type generates
code, and importing the package never loads the dataclasses module;
the package's one generated code is structure.ShoreBarrier's, a
typing.NamedTuple, whose class creation evals a __new__.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from tightcut.certificate import DecompositionCertificate, Step
from tightcut.cuts import CutClassification, classify_cut
from tightcut.decompose import (
    WitnessFinding,
    decompose_tight_cut,
    find_noncrossing_witness,
)
from tightcut.graph import Cut, Graph, GraphError
from tightcut.instances import CorpusSpec, fixture_instances
from tightcut.matching import Matching
from tightcut.structure import Barrier, TwoSeparation, find_2separations
from tightcut.sweep import SweepReport
from tightcut.verify import VerificationResult, verify_certificate

from conftest import cycle

SRC = Path(__file__).resolve().parent.parent / "src"

# the compared fields of each class, in declaration order; a graph
# back-reference, where a class has one, comes last and is not compared
COMPARED = {
    Cut: ("shore", "edge_ids"),
    Matching: ("edges",),
    Barrier: ("members", "odd_parts"),
    TwoSeparation: ("pair", "side1", "side2"),
    CutClassification: ("cut", "barrier_witnesses", "twosep_witnesses"),
    WitnessFinding: ("cut", "witness"),
    Step: ("graph", "cut", "witness", "contracted_shore", "new_vertex"),
    DecompositionCertificate: ("input_graph", "input_cut", "steps",
                               "final_graph", "final_classification"),
    VerificationResult: ("ok", "failures"),
    CorpusSpec: ("mode", "n", "samples", "seed", "names"),
    SweepReport: (
        "command", "instances", "graphs_with_nontrivial_tight_cut",
        "tight_cuts_checked", "nontrivial_tight_cuts", "witnesses_verified",
        "contraction_checks", "transfer_checks", "barrier_structure_checks",
        "twosep_cut_checks", "lift_scenarios", "strict_barrier_instances",
        "decompositions", "violations", "branch_counts", "harvested",
        "elapsed"),
}
BACK_REFERENCED = (Cut, Matching, Barrier, TwoSeparation)
UNHASHABLE = (Step, DecompositionCertificate, SweepReport)


def _values() -> dict[str, object]:
    """One object of every value type, named; some classes twice."""
    c6 = cycle(6)
    c6_cut = c6.boundary({0, 1, 2})
    _, g, shore = next(f for f in fixture_instances()
                       if f[0] == "blocked_triangle")
    c = g.boundary(shore)
    cert = decompose_tight_cut(g, c)
    report = SweepReport("unit")
    report.instances = 3
    report.violations.append(("witness", "C6", "detail"))
    report.branch_counts["x"] = 1
    return {
        "cut": c6_cut,
        "matching": Matching(frozenset({0, 3}), c6),
        "barrier": classify_cut(c6, c6_cut).barrier_witnesses[0][0],
        "twosep": find_2separations(c6)[0],
        "classification": classify_cut(c6, c6_cut),
        "empty_classification": classify_cut(g, c),
        "finding": find_noncrossing_witness(g, c),
        "step": cert.steps[0],
        "certificate": cert,
        "verified": verify_certificate(g, c, cert),
        "refuted": VerificationResult(False, (("cut trivial", "$.r"),)),
        "spec": CorpusSpec("random", 8),
        "report": report,
    }


VALUES = _values()
NAMES = sorted(VALUES)
FROZEN = [name for name in NAMES if type(VALUES[name]) is not SweepReport]


def _compared(x) -> tuple:
    return tuple(getattr(x, f) for f in COMPARED[type(x)])


def _declared(x) -> tuple[str, ...]:
    """Every constructor field of x, in order."""
    return COMPARED[type(x)] + (("graph",) if type(x) in BACK_REFERENCED
                                else ())


def test_every_value_type_has_a_fixture():
    assert {type(x) for x in VALUES.values()} == set(COMPARED)


def test_value_types_compare_and_hash_in_the_base():
    """One comparison rule: no value type writes its own __eq__ or
    __hash__ (the mutable SweepReport sets __hash__ to None), and each
    names its compared fields in _compared. The four hot types keep
    their own constructor."""
    for cls in COMPARED:
        assert "__eq__" not in vars(cls), cls
        assert vars(cls).get("__hash__") is None, cls
        assert cls._compared == COMPARED[cls], cls
    assert all("__init__" in vars(cls) for cls in BACK_REFERENCED)


@pytest.mark.parametrize("name", NAMES)
def test_equal_to_its_own_fields_only(name):
    x = VALUES[name]
    same = type(x)(*(getattr(x, f) for f in _declared(x)))
    assert same == x and not same != x
    for other in VALUES.values():
        if type(other) is not type(x):
            assert x.__eq__(other) is NotImplemented
            assert x != other
    assert x.__eq__(object()) is NotImplemented


@pytest.mark.parametrize(
    "name", [n for n in NAMES if type(VALUES[n]) in BACK_REFERENCED])
def test_equality_ignores_the_graph(name):
    x = VALUES[name]
    # a different, unequal graph that still holds every edge of x
    bigger = Graph(range(8), {**{e: x.graph.edge_ends(e)
                                 for e in x.graph.edge_ids}, 99: (6, 7)})
    assert bigger != x.graph
    moved = type(x)(*_compared(x), bigger)
    assert moved == x and hash(moved) == hash(x)


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_compared_fields_hash(name):
    x = VALUES[name]
    if type(x) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(_compared(x))


@pytest.mark.parametrize("name", FROZEN)
def test_fields_refuse_assignment_and_deletion(name):
    x = VALUES[name]
    for f in _declared(x):
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
        assert getattr(x, f) is before
    with pytest.raises(AttributeError):
        x.unknown = 1


def test_sweep_report_stays_mutable():
    report = SweepReport("unit")
    report.instances += 2
    report.elapsed = 1.5
    assert (report.instances, report.elapsed) == (2, 1.5)
    assert SweepReport("unit").violations is not SweepReport("unit").violations


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal(name):
    x = VALUES[name]
    shallow = copy.copy(x)
    assert type(shallow) is type(x) and shallow == x
    assert all(getattr(shallow, f) is getattr(x, f) for f in _declared(x))
    for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x
        if type(x) in BACK_REFERENCED:
            assert twin.graph == x.graph


def test_matching_refuses_edges_that_share_a_vertex():
    with pytest.raises(GraphError, match="edges share a vertex"):
        Matching(frozenset({0, 1}), cycle(6))


REPRS = {
    "cut": "Cut(shore=[0, 1, 2], edges=[2, 5])",
    "matching": "Matching([0, 3])",
    "barrier": "Barrier([0, 2], odd_parts=[[1], [3, 4, 5]])",
    "twosep": "TwoSeparation(pair=(0, 3), side1=[0, 1, 2, 3], "
              "side2=[0, 3, 4, 5])",
    "classification": (
        "CutClassification(cut=Cut(shore=[0, 1, 2], edges=[2, 5]), "
        "barrier_witnesses=((Barrier([0, 2], odd_parts=[[1], [3, 4, 5]]), "
        "1), (Barrier([3, 5], odd_parts=[[0, 1, 2], [4]]), 0)), "
        "twosep_witnesses=(TwoSeparation(pair=(0, 3), side1=[0, 1, 2, 3], "
        "side2=[0, 3, 4, 5]), TwoSeparation(pair=(2, 5), "
        "side1=[0, 1, 2, 5], side2=[2, 3, 4, 5])))"),
    "empty_classification": (
        "CutClassification(cut=Cut(shore=[0, 1, 2], edges=[3, 4, 5, 6]), "
        "barrier_witnesses=(), twosep_witnesses=())"),
    "finding": (
        "WitnessFinding(cut=Cut(shore=[0, 1, 2, 4, 5, 6, 9], "
        "edges=[3, 8, 9, 10]), witness=Barrier([3, 8], "
        "odd_parts=[[0, 1, 2, 4, 5, 6, 9], [7]]))"),
    "step": (
        "Step(graph=Graph(n=10, m=14), cut=Cut(shore=[0, 1, 2, 5, 6], "
        "edges=[3, 4, 9, 10]), witness=Barrier([3, 4, 8], "
        "odd_parts=[[0, 1, 2, 5, 6], [7], [9]]), "
        "contracted_shore=frozenset({3, 4, 7, 8, 9}), new_vertex=10)"),
    "certificate": (
        "DecompositionCertificate(input_graph=Graph(n=10, m=14), "
        "input_cut=Cut(shore=[0, 1, 2], edges=[3, 4, 5, 6]), "
        "steps=(Step(graph=Graph(n=10, m=14), cut=Cut(shore=[0, 1, 2, 5, 6], "
        "edges=[3, 4, 9, 10]), witness=Barrier([3, 4, 8], "
        "odd_parts=[[0, 1, 2, 5, 6], [7], [9]]), "
        "contracted_shore=frozenset({3, 4, 7, 8, 9}), new_vertex=10),), "
        "final_graph=Graph(n=6, m=10), "
        "final_classification=CutClassification(cut=Cut(shore=[0, 1, 2], "
        "edges=[3, 4, 5, 6]), barrier_witnesses=(), "
        "twosep_witnesses=(TwoSeparation(pair=(2, 10), "
        "side1=[0, 1, 2, 10], side2=[2, 5, 6, 10]),)))"),
    "verified": "VerificationResult(ok)",
    "refuted": "VerificationResult(failed: cut trivial at $.r)",
    "spec": "CorpusSpec(mode='random', n=8, samples=0, seed=0, names=())",
    "report": (
        "SweepReport(command='unit', instances=3, "
        "graphs_with_nontrivial_tight_cut=0, tight_cuts_checked=0, "
        "nontrivial_tight_cuts=0, witnesses_verified=0, "
        "contraction_checks=0, transfer_checks=0, "
        "barrier_structure_checks=0, twosep_cut_checks=0, lift_scenarios=0, "
        "strict_barrier_instances=0, decompositions=0, "
        "violations=[('witness', 'C6', 'detail')], branch_counts={'x': 1}, "
        "harvested=[], elapsed=0.0)"),
}


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_pinned(name):
    assert repr(VALUES[name]) == REPRS[name]


def test_corpus_spec_keyword_defaults():
    spec = CorpusSpec("named", names=("K4",))
    assert _compared(spec) == ("named", 0, 0, 0, ("K4",))
    assert CorpusSpec(mode="exhaustive", n=4) == CorpusSpec("exhaustive", 4,
                                                           0, 0, ())


def test_sweep_report_json_keys_in_declaration_order():
    js = VALUES["report"].to_json_dict()
    assert list(js) == ["command", "ok", *COMPARED[SweepReport][1:]]
    assert js["ok"] is False
    assert js["violations"] == [
        {"kind": "witness", "label": "C6", "detail": "detail"}]


def test_import_loads_no_dataclasses():
    # -S: no site hooks, so only the package's own imports count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tightcut; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
