"""Tight cuts in matching covered graphs.

Find witnesses for nontrivial tight cuts (barriers and two-vertex
separations), decompose the stubborn ones by repeated contraction, and
verify every step from first principles.

Importing the package imports every module but cli.py, and binds each
public name below from the module that defines it.
"""

import importlib

# each public name, under the module that defines it
_EXPORTS = {
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

for _module, _names in _EXPORTS.items():
    _module = importlib.import_module(f".{_module}", __name__)
    globals().update({name: getattr(_module, name) for name in _names})
del _module, _names

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
