"""Command line front end.

Subcommands: check (report facts about a graph and optionally one cut),
decompose (produce and verify a decomposition certificate), verify
(re-check a certificate file), sweep (run the check battery over a
corpus), generate (write instance files).

Exit codes: 0 verified success, 1 property violation or failed
verification, 2 usage, parse, or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .certificate import DecompositionCertificate
from .cuts import classify_cut, is_tight, meets_once
from .decompose import decompose_tight_cut
from .dot import graph_to_dot
from .edgelist import format_edge_list, parse_edge_list
from .graph import Graph, GraphError, InternalInvariantError
from .instances import (
    RANDOM_MAX_N,
    EXHAUSTIVE_MAX_N,
    CorpusSpec,
    canonical,
    canonical_names,
    enumerate_corpus,
)
from .matching import (
    is_bicritical,
    is_critical,
    is_matchable,
    is_matching_covered,
)
from .structure import Barrier
from .sweep import run_sweep
from .verify import verify_certificate, verify_json


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for -."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path} is not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    """Write text to the file at path, or to stdout for -."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _refuse_stdout(option: str, path: str | None) -> None:
    """An option that names a directory takes no -, and says so before
    any work, rather than make a directory named -."""
    if path == "-":
        raise GraphError(f"{option} needs a directory, not -")


def _human(path: str | None):
    """Where a command prints its summary: stderr when its output file
    is - (stdout), so that stdout holds the output alone."""
    return sys.stderr if path == "-" else sys.stdout


def _parse_shore(text: str) -> frozenset[int]:
    try:
        labels = frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise GraphError(f"cut shore must be comma-separated integers: {text!r}")
    if not labels:
        raise GraphError("cut shore is empty")
    return labels


def _set_text(vs) -> str:
    return "{" + ", ".join(str(v) for v in sorted(vs)) + "}"


def _witness_text(witness) -> str:
    if isinstance(witness, Barrier):
        return f"barrier {_set_text(witness.members)}"
    return f"two-separation pair {_set_text(witness.pair)}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_check(args) -> int:
    g = parse_edge_list(_read_text(args.graph))
    print(f"graph: {g.n} vertices, {g.m} edges")
    print(f"connected: {_yesno(g.is_connected())}")
    print(f"matchable: {_yesno(is_matchable(g))}")
    mc = is_matching_covered(g)
    print(f"matching covered: {_yesno(mc)}")
    print(f"2-connected: {_yesno(g.is_2connected())}")
    print(f"critical: {_yesno(is_critical(g))}")
    print(f"bicritical: {_yesno(is_bicritical(g))}")
    if args.cut is None:
        return 0
    shore = _parse_shore(args.cut)
    c = g.boundary(shore)
    print(f"cut: shore {_set_text(c.shore)}, {c.size} boundary edges, "
          f"trivial: {_yesno(c.is_trivial)}")
    if not is_matchable(g):
        print("tight: undefined (graph has no perfect matching)")
        return 0
    # only tight cuts have witnesses, and a listed one proves the cut
    # tight (Fact 1 in verify.py): is_tight runs only without one
    cls = classify_cut(g, c) if mc and meets_once(g, c) else None
    witnessed = cls is not None and cls.witnessed
    print(f"tight: {_yesno(witnessed or is_tight(g, c))}")
    if not mc:
        return 0
    print(f"witnessed: {_yesno(witnessed)}")
    if witnessed:
        for barrier, i in cls.barrier_witnesses:
            print(f"  barrier witness {_set_text(barrier.members)}, "
                  f"odd component shore {_set_text(c.shores()[i])}")
        for ts in cls.twosep_witnesses:
            print(f"  two-separation witness on pair {_set_text(ts.pair)}")
    return 0


def _write_dot_files(cert: DecompositionCertificate, directory: str) -> None:
    """One dot file per step and one for the final graph. A contraction
    vertex is boxed with the input vertices it stands for, read off the
    certificate's steps: the union of what each vertex of its contracted
    shore stands for, an input vertex standing for itself."""
    os.makedirs(directory, exist_ok=True)
    origins: dict[int, frozenset[int]] = {}
    for index, step in enumerate(cert.steps, 1):
        contracted = step.graph.boundary(step.contracted_shore)
        text = graph_to_dot(
            step.graph, highlight=step.cut.edge_ids,
            secondary=contracted.edge_ids, origins=origins,
            name=f"step{index}")
        _write_text(os.path.join(directory, f"step_{index:02d}.dot"), text)
        origins[step.new_vertex] = frozenset().union(*(
            origins.pop(v, {v}) for v in step.contracted_shore))
    _write_text(os.path.join(directory, "final.dot"), graph_to_dot(
        cert.final_graph, highlight=cert.final_classification.cut.edge_ids,
        origins=origins, name="final"))


def cmd_decompose(args) -> int:
    _refuse_stdout("--dot", args.dot)
    g = parse_edge_list(_read_text(args.graph))
    shore = _parse_shore(args.cut)
    c = g.boundary(shore)
    cert = decompose_tight_cut(g, c)
    human = _human(args.json)
    print(f"input: {g.n} vertices, {g.m} edges, "
          f"cut shore {_set_text(c.shore)}", file=human)
    for index, step in enumerate(cert.steps, 1):
        print(f"step {index}: {_witness_text(step.witness)}, contract shore "
              f"{_set_text(step.contracted_shore)} to vertex "
              f"{step.new_vertex}", file=human)
    if cert.r == 1:
        print("r = 1: the cut is already witnessed", file=human)
    else:
        pairs = ", ".join(_set_text(ts.pair)
                          for ts in cert.final_classification.twosep_witnesses)
        print(f"r = {cert.r}: final cut is a two-separation cut "
              f"(pair {pairs})", file=human)
    payload = cert.to_json_dict()
    result = verify_certificate(g, c, payload)
    if args.json is not None:
        _write_text(args.json, json.dumps(payload, indent=2) + "\n")
    if args.dot is not None:
        _write_dot_files(cert, args.dot)
    if not result.ok:
        for code, path in result.failures:
            print(f"self-check failed: {code} at {path}", file=sys.stderr)
        return 1
    print("certificate verified", file=human)
    return 0


def cmd_verify(args) -> int:
    text = _read_text(args.certificate)
    try:
        cert = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an int past sys.get_int_max_str_digits, or
        # nesting past the parser's recursion limit
        raise GraphError(f"invalid JSON: {exc}") from None
    result = verify_json(cert)
    if result.ok:
        print(f"certificate OK (r={cert['r']})")
        return 0
    for code, path in result.failures:
        print(f"certificate rejected: {code} at {path}")
    return 1


def _sweep_specs(args) -> list[CorpusSpec]:
    if args.mode == "exhaustive":
        max_n = args.max_n if args.max_n is not None else EXHAUSTIVE_MAX_N - 1
        if not 2 <= max_n <= EXHAUSTIVE_MAX_N:
            raise GraphError(
                f"exhaustive sweeps handle 2 <= max-n <= {EXHAUSTIVE_MAX_N}")
        return [CorpusSpec("exhaustive", n=n)
                for n in range(2, max_n + 1, 2)]
    max_n = args.max_n if args.max_n is not None else 12
    if not 4 <= max_n <= RANDOM_MAX_N:
        raise GraphError(f"random sweeps handle 4 <= max-n <= {RANDOM_MAX_N}")
    if args.samples < 0:
        raise GraphError("random sweeps need samples >= 0")
    low = 8 if max_n >= 8 else 4
    ns = list(range(low, max_n + 1, 2))
    share = args.samples // len(ns)
    extra = args.samples - share * len(ns)
    specs = []
    for index, n in enumerate(ns):
        samples = share + (1 if index < extra else 0)
        if samples:
            specs.append(CorpusSpec("random", n=n, samples=samples,
                                    seed=args.seed))
    return specs


def cmd_sweep(args) -> int:
    _refuse_stdout("--harvest", args.harvest)
    specs = _sweep_specs(args)
    command = f"sweep --mode {args.mode}"
    if args.max_n is not None:
        command += f" --max-n {args.max_n}"
    if args.mode == "random":
        command += f" --samples {args.samples} --seed {args.seed}"
    report = run_sweep(specs, include_fixtures=not args.no_fixtures,
                       command=command)
    human = _human(args.report)
    print(f"instances: {report.instances}", file=human)
    print(f"tight cuts checked: {report.tight_cuts_checked} "
          f"({report.nontrivial_tight_cuts} nontrivial, on "
          f"{report.graphs_with_nontrivial_tight_cut} graphs)", file=human)
    print(f"witnesses verified: {report.witnesses_verified}", file=human)
    print(f"contraction checks: {report.contraction_checks}, "
          f"transfer checks: {report.transfer_checks}", file=human)
    print(f"barrier checks: {report.barrier_structure_checks}, "
          f"two-separation cut checks: {report.twosep_cut_checks}",
          file=human)
    print(f"lift scenarios: {report.lift_scenarios}, strict-barrier setups: "
          f"{report.strict_barrier_instances}, decompositions: "
          f"{report.decompositions}", file=human)
    if report.branch_counts:
        inner = ", ".join(f"{k}={v}" for k, v in report.branch_counts.items())
        print(f"branch counts: {inner}", file=human)
    print(f"not-witnessed instances harvested: {len(report.harvested)}",
          file=human)
    print(f"elapsed: {report.elapsed:.1f}s", file=human)
    if args.report is not None:
        _write_text(args.report,
                    json.dumps(report.to_json_dict(), indent=2) + "\n")
    if args.harvest is not None and report.harvested:
        os.makedirs(args.harvest, exist_ok=True)
        for entry in report.harvested:
            name = re.sub(r"[^a-z0-9]+", "_", entry["label"].lower())
            g = Graph(range(entry["n"]),
                      [tuple(pair) for pair in entry["edges"]])
            comment = (f"tight cut with shore {entry['shore']} is not "
                       f"witnessed; decomposition has r={entry['r']}")
            _write_text(os.path.join(args.harvest, name + ".el"),
                        format_edge_list(g, comment=comment))
        _write_text(os.path.join(args.harvest, "manifest.json"),
                    json.dumps(report.harvested, indent=2) + "\n")
    if not report.ok:
        print(f"violations: {len(report.violations)}", file=human)
        for kind, label, detail in report.violations[:20]:
            print(f"  [{kind}] {label}: {detail}", file=human)
        return 1
    print("violations: 0", file=human)
    return 0


def cmd_generate(args) -> int:
    if args.random:
        if args.n is None:
            raise GraphError("--random needs --n")
        spec = CorpusSpec("random", n=args.n, samples=1, seed=args.seed)
        g = next(iter(enumerate_corpus(spec)))
        default_name = f"random_n{args.n}_s{args.seed}.el"
        comment = f"random matching covered graph, n={args.n}, seed={args.seed}"
    else:
        if args.name is None:
            raise GraphError(
                "give a canonical name or --random; known names: "
                + ", ".join(canonical_names()))
        g = canonical(args.name)
        default_name = re.sub(r"[^a-z0-9]+", "_",
                              args.name.strip().lower()).strip("_") + ".el"
        comment = f"canonical graph {args.name.strip().upper()}"
    out = args.out if args.out is not None else default_name
    _write_text(out, format_edge_list(g, comment=comment))
    print(f"wrote {g.n} vertices, {g.m} edges to {out}", file=_human(out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightcut",
        description="tight cuts in matching covered graphs: check, "
                    "decompose, verify, sweep, generate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report facts about a graph")
    p.add_argument("graph", help="edge list file, or - for stdin")
    p.add_argument("--cut", help="comma-separated shore, e.g. 0,1,2")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose",
                       help="decompose a nontrivial tight cut")
    p.add_argument("graph", help="edge list file, or - for stdin")
    p.add_argument("--cut", required=True,
                   help="comma-separated shore, e.g. 0,1,2")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="write the certificate as JSON (default stdout)")
    p.add_argument("--dot", metavar="DIR",
                   help="write per-step dot renderings into DIR")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate", help="certificate JSON, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run the check battery over a corpus")
    p.add_argument("--mode", required=True,
                   choices=("exhaustive", "random"))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--samples", type=int, default=50,
                   help="total random samples, split over orders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", metavar="FILE",
                   help="write the full report as JSON, - for stdout")
    p.add_argument("--harvest", metavar="DIR",
                   help="write not-witnessed instances as edge lists")
    p.add_argument("--no-fixtures", action="store_true",
                   help="skip the pinned fixture instances")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="write an instance file")
    p.add_argument("name", nargs="?", default=None,
                   help="canonical name: " + ", ".join(canonical_names()))
    p.add_argument("--random", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE",
                   help="output path, - for stdout (default derived)")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
