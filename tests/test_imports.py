"""No module in src/ or tests/ imports a name it never uses, no module
in src/ but matching.py touches the exhaustive test oracles, only
structure.py, sweep.py and the package's __init__.py name the
two-separation and barrier listings, verify.py names no search routine
of the producer and no tightness test, imports from the package only
the primitives its docstring lists and never names cut_from_edge_ids,
decompose.py tests matching coverage only in its entry check, runs
is_tight only on entry to the witness search and when a decomposition
fails, and names no is_matchable, cuts.py names neither is_matchable
nor matching_number, only _maximum_matching runs _blossom_mates, no
module in src/ defines matching_structure or MatchingStructure,
classify_cut tests no tightness, sweep.py names neither is_tight
nor cut_from_edge_ids and a sweep runs no is_tight, and src/ has no assert
statement: python -O strips them, so invariant guards raise
InternalInvariantError instead.

Standard library only, so the check runs where no linter is installed.
An imported name counts as used when it appears as a bare name anywhere
in the module, or when the module's __all__ re-exports it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import tightcut.cuts
from tightcut.decompose import find_noncrossing_witness
from tightcut.instances import CorpusSpec, canonical
from tightcut.sweep import run_sweep

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/**/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/**/*.py")])
# perfect-matching enumeration survives only as an oracle for tests
ORACLES = {"perfect_matching_masks", "all_perfect_matchings"}
# the exponential two-separation and barrier listings stay off the certify
# path: only the sweep's structure checks use them
LISTING = {"find_2separations", "enumerate_barriers"}
LISTING_MODULES = {"structure.py", "sweep.py", "__init__.py"}
# the verifier replays witnesses through primitives it shares with the
# producer, and runs none of the producer's searches, nor a tightness
# test: its witnesses prove every cut of the chain tight
SEARCHES = {"classify_cut", "twoseps_generating", "enumerate_barriers",
            "find_2separations", "find_noncrossing_witness",
            "decompose_tight_cut", "is_tight"}
# the producer tests its caller's input once; the graphs and cuts it
# builds are valid by the facts in its docstring
ENTRY_TESTS = {"is_matching_covered", "meets_once"}
# the public entry points whose witness does not prove the cut tight,
# so they run the full tightness test on entry
TIGHT_ON_ENTRY = {"find_noncrossing_witness", "witness_from_edge"}
# everything the verifier imports from the package, which its docstring
# lists after "Both sides rely on"
SHARED = {"is_matching_covered", "is_barrier", "make_two_separation",
          "two_separation_cuts", "Graph", "GraphError", "Cut",
          "DecompositionCertificate"}


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for every imported name the module never uses."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_unused_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path as osp\n"
                     "from json import dumps, loads as parse\n"
                     "__all__ = ['osp']\n"
                     "print(dumps)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "parse")]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def oracle_references(tree: ast.Module, names=ORACLES) -> list[tuple[int, str]]:
    """(line, name) for every name, attribute, import or string that
    mentions one of names, by default the exhaustive oracles."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in names:
            found.add((node.lineno, name))
    return sorted(found)


def test_detector_flags_oracle_references():
    tree = ast.parse("from .matching import all_perfect_matchings as apm\n"
                     "import tightcut.matching as m\n"
                     "m.perfect_matching_masks(g)\n"
                     "__all__ = ['perfect_matching_masks']\n")
    assert oracle_references(tree) == [
        (1, "all_perfect_matchings"), (3, "perfect_matching_masks"),
        (4, "perfect_matching_masks")]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "matching.py"],
    ids=lambda p: p.relative_to(ROOT).as_posix())
def test_exhaustive_oracles_stay_out_of_src(path):
    assert oracle_references(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name not in LISTING_MODULES],
    ids=lambda p: p.relative_to(ROOT).as_posix())
def test_two_separation_listing_stays_off_the_certify_path(path):
    assert oracle_references(ast.parse(path.read_text()), LISTING) == []


def test_verifier_runs_no_search():
    path = ROOT / "src" / "tightcut" / "verify.py"
    assert oracle_references(ast.parse(path.read_text()), SEARCHES) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines or assigns at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def test_verifier_shares_the_listed_primitives():
    """The package names verify.py imports are SHARED, its docstring
    names exactly those, and it never names cut_from_edge_ids: the
    replay maps the reference cut by its shore."""
    path = ROOT / "src" / "tightcut" / "verify.py"
    tree = ast.parse(path.read_text())
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert imported == SHARED
    package = set().union(*(top_level_names(ast.parse(p.read_text()))
                            for p in PACKAGE))
    sentence = re.search(r"Both sides rely on (.*?)\.\s",
                         ast.get_docstring(tree), re.S).group(1)
    assert set(re.findall(r"\w+", sentence)) & package == SHARED
    assert "cut_from_edge_ids" not in path.read_text()


def test_decompose_tests_only_its_input():
    path = ROOT / "src" / "tightcut" / "decompose.py"
    tree = ast.parse(path.read_text())
    [entry] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "_require_decomposable"]
    rest = ast.Module([node for node in tree.body if node is not entry
                       and not isinstance(node, ast.ImportFrom)], [])
    assert oracle_references(rest, ENTRY_TESTS) == []
    assert {name for _, name in oracle_references(entry, ENTRY_TESTS)} == \
        ENTRY_TESTS


def test_decompose_runs_is_tight_only_to_reject():
    """decompose_tight_cut names is_tight only inside its handler of
    InternalInvariantError: its certificate proves the cut tight, and
    is_tight only tells bad input from a bug. The other functions
    that name it are the witness entry points, in the statement after
    their entry check."""
    path = ROOT / "src" / "tightcut" / "decompose.py"
    body = [node for node in ast.parse(path.read_text()).body
            if not isinstance(node, ast.ImportFrom)]
    naming = {getattr(node, "name", None) for node in body
              if oracle_references(node, {"is_tight"})}
    assert naming == TIGHT_ON_ENTRY | {"decompose_tight_cut"}
    functions = {node.name: node for node in body
                 if isinstance(node, ast.FunctionDef)}
    decompose = functions["decompose_tight_cut"]
    handled = [ref for node in ast.walk(decompose)
               if isinstance(node, ast.ExceptHandler)
               and isinstance(node.type, ast.Name)
               and node.type.id == "InternalInvariantError"
               for ref in oracle_references(ast.Module(node.body, []),
                                            {"is_tight"})]
    assert handled == oracle_references(decompose, {"is_tight"}) != []
    for name in TIGHT_ON_ENTRY:
        body = functions[name].body
        [at] = [i for i, stmt in enumerate(body)
                if oracle_references(ast.Module([stmt], []), {"is_tight"})]
        assert "_require_decomposable" in ast.unparse(body[at - 1])


def test_sweep_reads_tightness_from_enumerations(monkeypatch):
    """The sweep answers every tightness question by looking an edge-id
    set up among the tight cuts enumerate_tight_cuts listed, for the
    host or for a contraction: it runs no pair scan and recovers no cut
    from edge ids. Nor does anything it calls: its witness search skips
    the public entry's tightness test, and a whole sweep, certificates
    and their replay included, makes no is_tight call."""
    path = ROOT / "src" / "tightcut" / "sweep.py"
    assert oracle_references(ast.parse(path.read_text()),
                             {"is_tight", "cut_from_edge_ids"}) == []
    original = tightcut.cuts.is_tight
    calls = []

    def counted(g, c):
        calls.append(c)
        return original(g, c)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tightcut" and \
                getattr(module, "is_tight", None) is original:
            monkeypatch.setattr(module, "is_tight", counted)
    report = run_sweep([CorpusSpec("named", names=("C2K(4)", "DOUBLE_K4")),
                        CorpusSpec("random", n=8, samples=6, seed=3)],
                       include_fixtures=False)
    assert report.ok
    assert report.witnesses_verified == report.nontrivial_tight_cuts > 3
    assert calls == []
    # the count is live: the public entry still tests tightness
    g = canonical("C2K(3)")
    find_noncrossing_witness(g, g.boundary({0, 1, 2}))
    assert len(calls) == 1


def test_decompose_reads_dependence_rows():
    """The reduction's barrier step reads each dependence class off one
    row of the contraction, so decompose.py asks no pair query."""
    path = ROOT / "src" / "tightcut" / "decompose.py"
    assert oracle_references(ast.parse(path.read_text()),
                             {"is_matchable"}) == []


@pytest.mark.parametrize(
    "path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_pairwise_matching_structure(path):
    """Every dependence question reads the rows: no module defines a
    separate exposed/attachment split."""
    assert top_level_names(ast.parse(path.read_text())) & {
        "matching_structure", "MatchingStructure"} == set()


def test_one_co_matchability_algorithm():
    """cuts.py decides tightness with the co-matchable row searches and
    asks no removed-set query, and nothing in src/ but _maximum_matching,
    which caches g's own maximum matching, runs a blossom."""
    path = ROOT / "src" / "tightcut" / "cuts.py"
    assert oracle_references(ast.parse(path.read_text()),
                             {"is_matchable", "matching_number"}) == []
    callers = {(p.name, getattr(node, "name", None))
               for p in PACKAGE for node in ast.parse(p.read_text()).body
               if oracle_references(node, {"_blossom_mates"})}
    assert callers == {("matching.py", "_maximum_matching")}


def test_classify_cut_tests_no_tightness():
    """It lists only witnesses it has checked, and a witnessed cut is
    tight (Fact 1 in verify.py), so it needs no tightness test: on a
    tight cut the certify path runs none."""
    path = ROOT / "src" / "tightcut" / "cuts.py"
    [classify] = [node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "classify_cut"]
    assert oracle_references(classify, {"is_tight"}) == []


def assert_lines(tree: ast.Module) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_detector_flags_asserts():
    tree = ast.parse("def f(x):\n"
                     "    if x:\n"
                     "        assert x > 0, 'positive'\n"
                     "    return x\n")
    assert assert_lines(tree) == [3]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_asserts_in_src(path):
    assert assert_lines(ast.parse(path.read_text())) == []
