#!/usr/bin/env python3
"""Benchmark for tightcut, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their bounds are listed in BENCHMARK.json. One
run, in a single process with no threads:

1. set-up, at least SETUP_MIN times and until SETUP_S have been spent:
   a fresh import of the package from src/ plus building the workload's
   inputs; setup_s is the median;
2. warm-up, excluded from the timed metrics: the max_order walk over
   the glued family, whose result is the max_order metric;
3. round(--seconds / pass_s) timed passes over the inputs, at least one,
   checking every output. pass_s is each workload's pass duration when
   it was defined, so the sample count, and with it the tail percentile,
   is the same on every run and every commit. A cut's latency is the
   median of its repetitions and the percentiles are taken over cuts;
   throughput is the median pass's;
4. with --trace 1, the same number of passes again (after a fresh
   build of the inputs) with every traced function wrapped; the traced
   outputs must equal the untraced ones.

Without --trace, the machine's speed is sampled through steps 1 to 3
(see speed.py) and every time reported is scaled to the reference speed,
because on a shared host the same work ran up to 1.5x slower for a whole
run. The traced run reports unscaled times.

The last line of standard output is the JSON result. The exit code is
0 when every check passed, 1 when one failed, 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import speed
from tracer import HOT, PREDICATES, Tracer
from workloads import WORKLOADS, digest, max_order_walk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_MIN = 3
SETUP_S = 1.0


def fresh_import():
    """Import tightcut from this checkout, dropping any earlier import."""
    for key in [k for k in sys.modules
                if k == "tightcut" or k.startswith("tightcut.")]:
        del sys.modules[key]
    tc = importlib.import_module("tightcut")
    if Path(tc.__file__).resolve().parent != SRC / "tightcut":
        raise RuntimeError(f"imported tightcut from {tc.__file__}")
    return tc


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) for the highest of TAIL_PERCENTILES
    with at least ten samples beyond it, else the median."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        i = min(n - 1, int(pct / 100.0 * n))
        if n - 1 - i >= 10:
            break
    return xs[i], pct, n


def per_cut(passes, scaled) -> list[tuple[int, list, list]]:
    """(r, decompose seconds, verify seconds) of every cut certified,
    the times one per repetition and scaled to the reference speed."""
    cuts = {}
    for p in passes:
        for item, r, (t0, t1, t2) in p.ops:
            _, dec, ver = cuts.setdefault(item, (r, [], []))
            dec.append(scaled(t0, t1))
            ver.append(scaled(t1, t2))
    return list(cuts.values())


def end_to_end(passes, setups, max_order, samples) -> tuple[dict, list[str]]:
    """The end-to-end metrics; setups are the (start, end) clock readings
    of each set-up.

    Every interval is scaled to the reference speed. The latency
    samples are one per cut, the median over its repetitions (every cut
    is repeated as often), so that the percentiles rank cuts, not the
    host's good and bad moments.
    """
    scaled = speed.Speed(samples).scaled
    cuts = per_cut(passes, scaled)
    med = statistics.median
    dec = [med(ds) for _, ds, _ in cuts]
    ver = [med(vs) for _, _, vs in cuts]
    once = [(r, med(d + v for d, v in zip(ds, vs))) for r, ds, vs in cuts]
    walls = [scaled(p.start, p.end) for p in passes]
    dec_tail, dec_pct, dec_n = tail(dec)
    ver_tail, ver_pct, ver_n = tail(ver)
    values = {
        "setup_s": med(scaled(*span) for span in setups),
        "graphs_per_s": med(p.graphs / w for p, w in zip(passes, walls)),
        "cuts_per_s": med(p.cuts / w for p, w in zip(passes, walls)),
        "decompose_ms_p50": med(dec) * 1e3,
        "decompose_ms_tail": dec_tail * 1e3,
        "verify_ms_p50": med(ver) * 1e3,
        "verify_ms_tail": ver_tail * 1e3,
        "glued_s": sum(t for r, t in once if r == 1),
        "inflated_s": sum(t for r, t in once if r != 1),
        "max_order": max_order,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    took = [t for _, t in samples]
    notes = [
        f"decompose_ms_tail is p{dec_pct:g} of {dec_n} samples",
        f"verify_ms_tail is p{ver_pct:g} of {ver_n} samples",
        f"{len(passes)} timed passes: {sum(walls):.3f} s scaled, "
        f"{sum(p.wall_s for p in passes):.3f} s unscaled",
        f"set-up {len(setups)} times, unscaled: "
        + " ".join(f"{b - a:.4f}" for a, b in setups),
        f"speed: {len(took)} reference samples, median "
        f"{med(took) * 1e3:.3f} ms (scaled to "
        f"{speed.REFERENCE_S * 1e3:g} ms)" if took else "speed: no samples",
    ]
    return values, notes


def per_layer(tracer, passes, overhead_s) -> dict:
    values = {}
    for name, row in tracer.totals().items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_ms"] = row["self_ms"]
        values[f"{name}.cum_ms"] = row["cum_ms"]
        if name in PREDICATES:
            values[f"{name}.true_ratio"] = (
                row["truthy"] / row["calls"] if row["calls"] else 0.0)
    calls = values["matching.matching_number.calls"]
    runs = tracer.calls_from("matching._blossom_mates",
                             "matching.matching_number")
    values["matching.cache_hit_ratio"] = 1.0 - runs / calls if calls else 0.0
    for p in passes:
        for branch, count in p.branches.items():
            key = f"decompose.branch.{branch}"
            values[key] = values.get(key, 0) + count
        for counter, count in p.counters.items():
            key = f"sweep.{counter}"
            values[key] = values.get(key, 0) + count
    values["trace.overhead_s"] = overhead_s
    return values


def select(spec: list[dict], values: dict, default=None) -> dict:
    """The metrics BENCHMARK.json lists, in its order and units."""
    out = {}
    for metric in spec:
        value = values.get(metric["name"], default)
        if value is None:
            raise KeyError(f"no value for metric {metric['name']}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tightcut" / "__init__.py").is_file():
        print(f"bench: no tightcut package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    print(f"bench: {args.workload} seed={args.seed} python {env['python']} "
          f"nproc {env['nproc']}")

    if not args.trace:
        speed.start()
    try:
        setups, build_times = [], []
        while (len(setups) < SETUP_MIN
               or sum(b - a for a, b in setups) < SETUP_S):
            t0 = speed.clock()
            tc = fresh_import()
            t1 = speed.clock()
            inputs = workload.build(tc)
            t2 = speed.clock()
            setups.append((t0, t2))
            build_times.append(t2 - t1)
            gc.collect()   # drop the previous import, so peak RSS stays put
        input_digest = digest(inputs)

        max_order, attempted, failed, stop = max_order_walk(tc)
        print(f"max_order walk: {max_order} (stopped at {stop})")
        problems = [f"max_order walk: {stop}"] if failed else []

        count = max(1, round(args.seconds / workload.pass_s))
        passes = [workload.run_pass(tc, inputs) for _ in range(count)]
    finally:
        samples = [] if args.trace else speed.stop()
    problems += [problem for p in passes for problem in p.problems]
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    outputs = [p.outputs() for p in passes]
    if len(set(outputs)) != 1:
        failed += 1
        problems.append("outputs differ between passes")

    if args.trace:
        tracer = Tracer()
        try:
            sites = tracer.install()
        except RuntimeError as exc:
            failed += 1
            problems.append(f"tracer self-check: {exc}")
            sites = 0
        t0 = speed.clock()
        traced_inputs = workload.build(tc)
        traced_build = speed.clock() - t0
        traced = [workload.run_pass(tc, traced_inputs) for _ in range(count)]
        tracer.uninstall()
        overhead = (traced_build + sum(p.wall_s for p in traced)
                    - build_times[-1] - sum(p.wall_s for p in passes))
        attempted += sum(p.attempted for p in traced)
        failed += sum(p.failed for p in traced)
        if digest(traced_inputs) != input_digest:
            failed += 1
            problems.append("traced set-up built different inputs")
        if [p.outputs() for p in traced] != outputs:
            failed += 1
            problems.append("traced outputs differ from untraced outputs")
        values = per_layer(tracer, traced, overhead)
        # a branch or sweep counter the workload never reaches reads 0
        metrics = select(spec["per_layer"], values, default=0)
        notes = [f"tracer rebound {sites} sites; aggregated only: "
                 f"{', '.join(sorted(HOT))}",
                 f"{len(traced)} passes: untraced "
                 f"{sum(p.wall_s for p in passes):.3f} s, traced "
                 f"{sum(p.wall_s for p in traced):.3f} s; overhead with "
                 f"set-up {overhead:.3f} s"]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"env": env, "metrics": metrics})
        notes.append(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(passes, setups, max_order, samples)
        values["ok_share"] = 1.0 - failed / attempted
        metrics = select(spec["end_to_end"], values)

    correct = failed == 0 and not problems
    for name, metric in metrics.items():
        print(f"  {name:52s} {metric['value']:>14.6g} {metric['unit']}")
    for line in notes:
        print(f"  # {line}")
    print(f"  # failed {failed} of {attempted} operations "
          f"(failed_share {failed / attempted:.6g}); "
          f"outputs digest {outputs[0][:16]}")
    for problem in problems[:20]:
        print(f"  ! {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
