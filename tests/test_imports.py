"""No module in src/ or tests/ imports a name it never uses, no module
in src/ but matching.py touches the exhaustive test oracles, only
structure.py, sweep.py and the package's __init__.py name the
two-separation and barrier listings, verify.py names no search routine
of the producer and no tightness test, imports from the package only
the primitives its docstring lists and never names cut_from_edge_ids,
decompose.py tests matching coverage only in its entry check, runs
is_tight only on entry to the witness search and when a decomposition
fails, and names no is_matchable, cuts.py names neither is_matchable
nor matching_number, no module in src/ defines or names the eager
co-matchable table (a test oracle), _comatchable_among's memo has no
default, only _search_mates runs _blossom_mates,
matching.py keeps no second maximum matching, matching_number,
is_matchable and is_matching_covered take g alone and _dependence_row
(g, x), no module in src/ but matching.py names the 2-colouring that
selects the bipartite route or its memo key, Graph has no block
decomposition, every name
bench/tracer.py traces is defined, no module in src/ defines
matching_structure or MatchingStructure, classify_cut tests no
tightness, sweep.py names neither is_tight nor cut_from_edge_ids and a
sweep runs no is_tight, sweep.py names none of the checks the producer
already wraps (witness_failure, is_barrier, is_strict_barrier,
classify_cut, _require_decomposable), decompose.py defines no
_require_witness, _witness_from_edge takes (g, c, eid, tally) and no
pivot, _min_holder_barrier and its _shore_candidates name neither
contract nor fresh_vertex (the barrier step reads the graph's own
dependence rows), decompose.py names no find_strict_barrier and defines
no _dead_cut_barrier, _strict_barrier_in names neither induced nor
_dependence_row and structure.py defines no _attachments (the dead-cut
search is called without entry checks and builds no shore subgraph),
no module in src/ but graph.py names a graph's _cache
(every per-graph memo goes through Graph._memo) or its adjacency fields,
no module names a second vertex index beside the graph's own, and src/
has no assert statement: python -O strips them, so invariant
guards raise InternalInvariantError instead.

Standard library only, so the check runs where no linter is installed.
An imported name counts as used when it appears as a bare name anywhere
in the module, or when the module's __all__ re-exports it: __all__ may
be a literal list, or built from a top-level table of names, as the
package's __init__.py builds it.
"""

import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import tightcut.cuts
from tightcut.decompose import _witness_from_edge, find_noncrossing_witness
from tightcut.graph import Graph
from tightcut.instances import CorpusSpec, canonical
from tightcut.matching import (
    _comatchable_among, _dependence_row, is_matchable, is_matching_covered,
    matching_number)
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
# the eager co-matchable table, kept in tests/ as the enumeration's oracle
TABLE = {"_comatchable_masks", "_comatchable_table"}
# the producer tests its caller's input once; the graphs and cuts it
# builds are valid by the facts in its docstring
ENTRY_TESTS = {"is_matching_covered", "meets_once"}
# the public entry points whose witness does not prove the cut tight,
# so they run the full tightness test on entry
TIGHT_ON_ENTRY = {"find_noncrossing_witness", "witness_from_edge"}
# everything the verifier imports from the package, which its docstring
# lists after "Both sides rely on"
SHARED = {"is_matching_covered", "is_barrier", "make_two_separation",
          "two_separation_cuts", "Graph", "GraphError", "Cut", "_Value"}


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
    used.update(exported(tree))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used)


def exported(tree: ast.Module) -> set[str]:
    """The strings __all__ is built from: those in its value, and in the
    value of each top-level name that value reads, such as the package's
    table of module -> names."""
    values = {t.id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    if "__all__" not in values:
        return set()
    exprs = [values["__all__"]]
    exprs += [values[node.id] for node in ast.walk(exprs[0])
              if isinstance(node, ast.Name) and node.id in values]
    return {node.value for expr in exprs for node in ast.walk(expr)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_detector_flags_unused_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path as osp\n"
                     "from json import dumps, loads as parse\n"
                     "__all__ = ['osp']\n"
                     "print(dumps)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "parse")]


def test_detector_reads_an_all_built_from_a_table():
    tree = ast.parse("from json import dumps, loads\n"
                     "from os import sep\n"
                     "_TABLE = {'json': ('dumps',), 'os': ('sep',)}\n"
                     "__all__ = sorted(n for ns in _TABLE.values() "
                     "for n in ns)\n")
    assert unused_imports(tree) == [(1, "loads")]


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


def test_sweep_rechecks_with_the_producers_checks():
    """The sweep re-checks a WitnessFinding with decompose's
    _finding_failure and a strict barrier with structure._confined, and
    trusts decompose_tight_cut's own classification, so it names none
    of the checks those wrap."""
    path = ROOT / "src" / "tightcut" / "sweep.py"
    assert oracle_references(ast.parse(path.read_text()), {
        "witness_failure", "is_barrier", "is_strict_barrier",
        "classify_cut", "_require_decomposable"}) == []


def test_decompose_states_the_finding_contract_once():
    """_finding_failure is the one WitnessFinding check: no second
    wrapper of the witness rule is left beside it."""
    path = ROOT / "src" / "tightcut" / "decompose.py"
    names = top_level_names(ast.parse(path.read_text()))
    assert "_finding_failure" in names
    assert "_require_witness" not in names


def test_block_split_forces_no_pivot():
    """The ordinary pivot rule picks the contraction vertex, so the
    block split passes no pivot."""
    assert list(inspect.signature(_witness_from_edge).parameters) == [
        "g", "c", "eid", "tally"]


def test_decompose_reads_dependence_rows():
    """The reduction's barrier step reads each dependence class off one
    row of the current graph, so decompose.py asks no pair query."""
    path = ROOT / "src" / "tightcut" / "decompose.py"
    assert oracle_references(ast.parse(path.read_text()),
                             {"is_matchable"}) == []


def test_barrier_step_builds_no_contraction():
    """The barrier step reads each candidate off the current graph's own
    dependence rows: neither it nor its per-shore helper contracts the
    opposite shore to a fresh vertex."""
    path = ROOT / "src" / "tightcut" / "decompose.py"
    steps = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in {
                 "_min_holder_barrier", "_shore_candidates"}]
    assert len(steps) == 2
    for node in steps:
        assert oracle_references(node, {"contract", "fresh_vertex"}) == []


def test_dead_cut_search_reads_its_own_graph():
    """The witness search hands its dead cuts, valid by Fact 6 of
    decompose.py, straight to the structure loop, with no entry check;
    the loop reads each candidate off its graph's own rows, building no
    shore subgraph, and finds attachments from the cut's edge ends."""
    src = ROOT / "src" / "tightcut"
    decompose = ast.parse((src / "decompose.py").read_text())
    assert oracle_references(decompose, {"find_strict_barrier"}) == []
    assert "_dead_cut_barrier" not in top_level_names(decompose)
    structure = ast.parse((src / "structure.py").read_text())
    [loop] = [node for node in structure.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "_strict_barrier_in"]
    assert oracle_references(loop, {"induced", "_dependence_row"}) == []
    assert "_attachments" not in top_level_names(structure)


@pytest.mark.parametrize(
    "path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_pairwise_matching_structure(path):
    """Every dependence question reads the rows: no module defines a
    separate exposed/attachment split."""
    assert top_level_names(ast.parse(path.read_text())) & {
        "matching_structure", "MatchingStructure"} == set()


def test_one_co_matchability_algorithm():
    """cuts.py decides tightness with the co-matchable row searches and
    asks no removed-set query, and nothing in src/ but _search_mates,
    which caches g's own maximum matching, runs a blossom."""
    path = ROOT / "src" / "tightcut" / "cuts.py"
    assert oracle_references(ast.parse(path.read_text()),
                             {"is_matchable", "matching_number"}) == []
    callers = {(p.name, getattr(node, "name", None))
               for p in PACKAGE for node in ast.parse(p.read_text()).body
               if oracle_references(node, {"_blossom_mates"})}
    assert callers == {("matching.py", "_search_mates")}


def test_comatchable_among_has_one_mode():
    """_comatchable_among always reads and fills a memo: its memo
    parameter has no default and no branch tests it for None."""
    memo = inspect.signature(_comatchable_among).parameters["memo"]
    assert memo.default is inspect.Parameter.empty
    assert "memo is None" not in inspect.getsource(_comatchable_among)


@pytest.mark.parametrize(
    "path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_comatchable_table_is_a_test_oracle(path):
    """The eager co-matchable table lives in tests/test_cuts.py only:
    no module in src/ defines or names it, so _comatchable_among is the
    package's one co-matchability routine."""
    tree = ast.parse(path.read_text())
    assert top_level_names(tree) & TABLE == set()
    assert oracle_references(tree, TABLE) == []


def test_matching_keeps_one_maximum_matching():
    """The position list _search_mates caches is g's only maximum
    matching: no mate dict is kept beside it."""
    path = ROOT / "src" / "tightcut" / "matching.py"
    assert "_maximum_matching" not in top_level_names(
        ast.parse(path.read_text()))


@pytest.mark.parametrize("query", [matching_number, is_matchable],
                         ids=lambda f: f.__name__)
def test_matching_queries_take_the_graph_alone(query):
    """A question about g less a vertex set is asked on
    g.without_vertices(...), not through a removed option."""
    assert list(inspect.signature(query).parameters) == ["g"]


def test_graph_has_no_block_decomposition():
    """cut_vertices is one low-point search; nothing reads blocks."""
    assert not hasattr(Graph, "blocks")


def test_every_traced_name_resolves():
    """bench/tracer.py wraps every name in its TRACED table, and a
    traced run fails when one is missing, so each must stay defined:
    functions on their module, methods on their class. The tracer
    imports only the standard library; its source is executed here
    without writing bytecode next to it."""
    path = ROOT / "bench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    missing = []
    for mod, attrs in tracer.TRACED.items():
        module = importlib.import_module(f"tightcut.{mod}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod}.{attr}")
    assert missing == []


def test_classify_cut_tests_no_tightness():
    """It lists only witnesses it has checked, and a witnessed cut is
    tight (Fact 1 in verify.py), so it needs no tightness test: on a
    tight cut the certify path runs none."""
    path = ROOT / "src" / "tightcut" / "cuts.py"
    [classify] = [node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "classify_cut"]
    assert oracle_references(classify, {"is_tight"}) == []


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "graph.py"],
    ids=lambda p: p.relative_to(ROOT).as_posix())
def test_only_graph_names_the_cache(path):
    """Every per-graph memo goes through Graph._memo, the one place
    that reads and fills a graph's cache."""
    assert oracle_references(ast.parse(path.read_text()), {"_cache"}) == []


# Graph's adjacency fields, and the names of a second vertex index built
# from them beside the graph's own
ADJACENCY_FIELDS = {"_adj", "_pos", "_rows", "_row_ids"}
SECOND_INDEX = {"_search_index", "_index_rows", "neighbor_rows",
                "search_index"}
# the fields of a graph's layout, and the private routine that writes
# them on a graph made without __init__
LAYOUT_FIELDS = {"_vlist", "_pos", "_rows", "_row_ids", "_edges"}
BUILDER = {"_lay_out", "__new__"}


@pytest.mark.parametrize(
    "path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_one_adjacency_structure(path):
    """Every graph walk outside graph.py reads the adjacency through
    Graph's methods, positions() for the searches, no module builds or
    names a second vertex index. No module but graph.py names the layout
    routine or makes a graph without the checking constructor, and in
    graph.py that routine alone assigns the layout fields: the
    constructor and every derived graph are laid out by it."""
    tree = ast.parse(path.read_text())
    if path.name == "graph.py":
        assert layout_writers(tree) == {"_lay_out"}
        names = SECOND_INDEX
    else:
        names = SECOND_INDEX | ADJACENCY_FIELDS | BUILDER
    assert oracle_references(tree, names) == []


def layout_writers(tree: ast.Module) -> set[str]:
    """The functions that assign one of LAYOUT_FIELDS as an attribute,
    with "" for an assignment outside every function."""
    inside = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                inside.setdefault(node, fn.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and node.attr in LAYOUT_FIELDS:
            found.add(inside.get(node, ""))
    return found


def test_detector_flags_layout_writers():
    tree = ast.parse("class G:\n"
                     "    def a(self):\n"
                     "        self._rows = rows = []\n"
                     "    def b(self, other):\n"
                     "        other._edges, x = {}, 1\n"
                     "        return self._pos\n"
                     "G()._vlist = ()\n")
    assert layout_writers(tree) == {"a", "b", ""}


# the 2-colouring that sends a bipartite graph's coverage test and
# dependence rows to D(M)'s walks, and its memo key
COLOURING = {"_is_bipartite", "_two_colourable", "bipartite"}


def test_bipartite_route_takes_no_option():
    """The input alone selects D(M)'s walks: the coverage test takes g
    alone and a dependence row (g, x), as on every other graph."""
    assert list(inspect.signature(is_matching_covered).parameters) == ["g"]
    assert list(inspect.signature(_dependence_row).parameters) == ["g", "x"]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "matching.py"],
    ids=lambda p: p.relative_to(ROOT).as_posix())
def test_only_matching_names_the_colouring(path):
    """Every reader of coverage or rows gets the bipartite route through
    is_matching_covered and _dependence_row: no other module names the
    colouring or its memo key."""
    assert oracle_references(ast.parse(path.read_text()), COLOURING) == []


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
