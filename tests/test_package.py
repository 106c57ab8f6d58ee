"""The package's public surface, and a ratchet on the size of its source.

``import tightcut`` exports the same 71 names, each defined at the top
level of the module named below and bound to the object that module
holds, and it loads every module of the package but cli.py, so a tracer
installed after the import finds them all in sys.modules.

The code lines of src/tightcut/*.py, counted by code_lines, stay at or
under CODE_LINE_BOUND. A change that removes code lowers the bound to
its new count; one that needs more lines raises it and says why in
CHANGES.md.
"""

import ast
import importlib
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import tightcut

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = sorted((SRC / "tightcut").glob("*.py"))

# each public name, under the module that defines it
PUBLIC = {
    "certificate": ("DecompositionCertificate", "Step", "graph_to_json",
                    "witness_to_json"),
    "cuts": ("CutClassification", "classify_cut", "enumerate_tight_cuts",
             "is_tight"),
    "decompose": (
        "BRANCH_ALREADY_WITNESSED", "BRANCH_BARRIER_PHASE",
        "BRANCH_BLOCK_SPLIT", "BRANCH_FAR_SHORE_BARRIER", "BRANCH_GOOD_EDGE",
        "BRANCH_ODD_SIDE_BARRIER", "BRANCH_ODD_SIDE_TWOSEP",
        "BRANCH_PULLBACK_BARRIER", "BRANCH_PULLBACK_TWOSEP",
        "BRANCH_SOLE_CROSS_NEIGHBORS", "BRANCH_TWOSEP_STEP",
        "REQUIRED_BRANCHES", "BranchTally", "WitnessFinding",
        "decompose_tight_cut", "find_noncrossing_witness",
        "witness_from_edge"),
    "dot": ("graph_to_dot",),
    "edgelist": ("ParseError", "format_edge_list", "parse_edge_list",
                 "read_edge_list", "write_edge_list"),
    "graph": ("Cut", "EnumerationLimitError", "Graph", "GraphError",
              "InternalInvariantError"),
    "instances": ("EXHAUSTIVE_MAX_N", "RANDOM_MAX_N", "CorpusSpec",
                  "canonical", "canonical_names", "enumerate_corpus",
                  "fixture_instances"),
    "matching": ("ENUMERATION_LIMIT", "Matching", "find_perfect_matching",
                 "is_admissible", "is_bicritical", "is_critical",
                 "is_matchable", "is_matching_covered", "matching_number"),
    "structure": (
        "Barrier", "ShoreBarrier", "TwoSeparation", "barrier_core",
        "barrier_cuts", "enumerate_barriers", "find_2separations",
        "find_strict_barrier", "is_barrier", "is_strict_barrier",
        "lift_barrier_over_2sep", "lift_barrier_over_odd_component",
        "make_two_separation", "two_separation_cuts", "twoseps_generating"),
    "sweep": ("SweepReport", "run_sweep"),
    "verify": ("VerificationResult", "verify_certificate"),
}

CODE_LINE_BOUND = 2_713


def test_all_lists_the_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 71
    assert list(tightcut.__all__) == sorted(names)


def test_each_export_is_its_defining_modules_object():
    for module, names in PUBLIC.items():
        path = SRC / "tightcut" / f"{module}.py"
        defined = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        owner = importlib.import_module(f"tightcut.{module}")
        for name in names:
            assert name in defined, (module, name)
            assert getattr(tightcut, name) is getattr(owner, name), name


def test_import_loads_every_module_but_the_cli():
    # -S: no site hooks, so only the package's own imports count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tightcut; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('tightcut.')))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    expected = sorted(f"tightcut.{p.stem}" for p in PACKAGE
                      if p.stem not in {"__init__", "cli"})
    assert out.stdout.strip() == repr(expected)


# tokens that hold no code: a line of only these is blank or a comment
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines holding a token other than a comment, a newline or
    indentation, outside every module, class and function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_skip_docstrings_comments_and_blanks():
    text = ('"""Module\ndocstring."""\n\n'
            "# a comment\n"
            "def f(x):\n"
            "    '''Function docstring.'''\n"
            "    s = '''a string\n"
            "    on two lines'''\n"
            "    return (x,\n"
            "            s)  # trailing comment\n")
    assert code_lines(text) == 5


def test_source_stays_under_the_code_line_bound():
    # on failure, the count per module shows where the lines went
    counts = {p.name: code_lines(p.read_text()) for p in PACKAGE}
    assert sum(counts.values()) <= CODE_LINE_BOUND, counts
