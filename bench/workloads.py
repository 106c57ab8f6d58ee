"""The benchmark's workloads and the instances they are built from.

Every workload calls tightcut only through its public API, given as the
freshly imported package ``tc``. Inputs are plain data (order, edge
list, shore), so every operation of every pass builds its graphs anew
and no memo on a Graph survives from one operation into the next.

One certification, as the ``tightcut decompose`` and ``tightcut verify``
commands perform it, is: build the graph, decompose the cut, serialize
the certificate to JSON text; then parse the text, rebuild the graph
from the certificate's input block, and verify. The verifier never sees
the producer's Graph: its cache holds the perfect matchings and
matchability answers decompose computed, and on glued n = 22 verify
took 26 ms on the shared graph against about 600 ms on a fresh one.
"""

from __future__ import annotations

import hashlib
import json
import signal
from dataclasses import dataclass, field, replace

from speed import clock

# acceptance gate corpus (tests/test_acceptance.py); seed 0 is that corpus
SWEEP_EXHAUSTIVE_N = (2, 4, 6)
SWEEP_RANDOM_N = (8, 10, 12)
SWEEP_SAMPLES = 167
SWEEP_SEED0_INSTANCES = 3699
SWEEP_SEED0_NONTRIVIAL_CUTS = 2598
FIXTURE_REPEATS = 8

# certify_mixed: per order, (graphs drawn, cuts certified). Set-up
# draws a fixed number of random matching covered graphs and takes the
# first witnessed nontrivial tight cut of each that has one (20 to 37
# of 80 at n = 12, 12 to 27 of 40 at n = 14 over seeds 0-15); a pass
# certifies a fixed number of them, so set-up work, cut count and mix
# are the same on every seed. The cuts needing reduction rounds (r >= 2)
# are pinned fixtures and k = 3 inflated rungs, the same on every seed.
MIXED = {12: (80, 24), 14: (40, 16)}

# order_ladder rungs; the max_order walk goes up to GLUED_CAP_K
GLUED_K = range(2, 7)
INFLATED_K = range(3, 6)
INFLATED_FIXTURES = ("blocked_triangle", "bridged_triangle", "blocked_pair")
GLUED_CAP_K = 16
RUNG_BUDGET_S = 5.0


@dataclass(frozen=True)
class Instance:
    """One nontrivial tight cut to certify, as plain data."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    shore: frozenset[int]
    source: int          # index of the graph the cut belongs to
    witnessed: bool      # so its certificate must have r = 1


def instance_of(label: str, g, shore, source: int, witnessed: bool
                ) -> Instance:
    edges = tuple(g.edge_ends(eid) for eid in g.edge_ids)
    return Instance(label, g.n, edges, frozenset(shore), source, witnessed)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b"\n")
    return h.hexdigest()


# constructed families --------------------------------------------------

def glued(k: int) -> tuple[int, list, frozenset[int]]:
    """Two K_{k,k} spliced at one vertex each: n = 4k - 2, r = 1.

    Deleting a left vertex from each copy leaves k right vertices per
    copy; the splice joins them by a perfect matching, whose k edges
    form the tight reference cut. Vertices 0..2k-2 are the first copy.
    """
    a_left = range(0, k - 1)
    a_right = range(k - 1, 2 * k - 1)
    b_left = range(2 * k - 1, 3 * k - 2)
    b_right = range(3 * k - 2, 4 * k - 2)
    edges = [(u, v) for u in a_left for v in a_right]
    edges += [(u, v) for u in b_left for v in b_right]
    edges += list(zip(a_right, b_right))
    return 4 * k - 2, edges, frozenset(range(2 * k - 1))


def inflated(g, shore, k: int) -> tuple[int, list, frozenset[int]]:
    """Splice K_{k,k} into g at its highest-labelled far-shore vertex v.

    v is replaced by K_{k,k} minus one vertex h. The k neighbours of h
    take over v's edges, round robin, so that each keeps at least one
    edge outside and v's edges all survive. The inserted part is
    bipartite with one more vertex on the attached side, so its own cut
    and the reference cut stay tight and the graph matching covered.
    """
    far = g.vertex_set - shore
    v = max(far)
    nbrs = sorted(w for eid in g.edge_ids for w in g.edge_ends(eid)
                  if v in g.edge_ends(eid) and w != v)
    base = [g.edge_ends(eid) for eid in g.edge_ids
            if v not in g.edge_ends(eid)]
    start = max(g.vertices) + 1
    left = [start + i for i in range(k - 1)]
    right = [start + k - 1 + j for j in range(k)]
    edges = base + [(x, y) for x in left for y in right]
    edges += [(right[i % k], nbrs[i % len(nbrs)])
              for i in range(max(k, len(nbrs)))]
    order = sorted(g.vertex_set - {v}) + left + right
    label = {x: i for i, x in enumerate(order)}
    return (len(order), [(label[a], label[b]) for a, b in edges],
            frozenset(label[x] for x in shore))


def ladder_instances(tc) -> list[Instance]:
    out = []
    for k in GLUED_K:
        n, edges, shore = glued(k)
        out.append(Instance(f"glued-k{k}", n, tuple(edges), shore, len(out),
                            True))
    fixtures = {name: (g, shore) for name, g, shore in tc.fixture_instances()}
    for name in INFLATED_FIXTURES:
        g, shore = fixtures[name]
        for k in INFLATED_K:
            n, edges, s = inflated(g, shore, k)
            out.append(Instance(f"inflated-{name}-k{k}", n, tuple(edges), s,
                                len(out), False))
    return out


# one certification -----------------------------------------------------

@dataclass
class Outcome:
    # clock() at the start, between decompose and verify, and at the end
    times: tuple[float, float, float]
    r: int
    ok: bool
    text: str


def certify(tc, inst: Instance, tally) -> Outcome:
    """Decompose, round-trip the certificate through JSON, verify fresh."""
    t0 = clock()
    g = tc.Graph(range(inst.n), inst.edges)
    cert = tc.decompose_tight_cut(g, g.boundary(inst.shore), tally)
    text = json.dumps(cert.to_json_dict())
    t1 = clock()
    obj = json.loads(text)
    block = obj["input"]
    h = tc.Graph(range(block["graph"]["n"]),
                 [tuple(pair) for pair in block["graph"]["edges"]])
    result = tc.verify_certificate(
        h, h.boundary(frozenset(block["cut_shore"])), obj)
    t2 = clock()
    return Outcome((t0, t1, t2), obj["r"], result.ok, text)


class RungBudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise RungBudgetExceeded()


def max_order_walk(tc) -> tuple[int, int, int, str]:
    """Largest glued order that decomposes and verifies.

    Walks k upward to GLUED_CAP_K and stops at the first rung that hits
    a size guard or runs past RUNG_BUDGET_S; that rung is not a failure.
    Returns (max order, rungs attempted, rungs failed, why it stopped).
    """
    best = attempted = failed = 0
    stop = f"cap k={GLUED_CAP_K}"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for k in range(2, GLUED_CAP_K + 1):
            n, edges, shore = glued(k)
            inst = Instance(f"walk-k{k}", n, tuple(edges), shore, 0, True)
            signal.setitimer(signal.ITIMER_REAL, RUNG_BUDGET_S)
            try:
                got = certify(tc, inst, tc.BranchTally())
            except tc.EnumerationLimitError as exc:
                stop = f"n={n}: {type(exc).__name__}"
                break
            except RungBudgetExceeded:
                stop = f"n={n}: over the {RUNG_BUDGET_S:g} s budget"
                break
            except Exception as exc:  # a crash is a failed rung
                attempted += 1
                failed += 1
                stop = f"n={n}: {type(exc).__name__}: {exc}"
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            attempted += 1
            if not got.ok or got.r != 1:
                failed += 1
                stop = f"n={n}: certificate rejected or r != 1"
                break
            best = n
    finally:
        signal.signal(signal.SIGALRM, previous)
    return best, attempted, failed, stop


# pass records ----------------------------------------------------------

@dataclass
class PassRecord:
    """What one timed pass did; times are clock() readings."""

    start: float = 0.0
    end: float = 0.0
    graphs: int = 0
    cuts: int = 0
    attempted: int = 0
    failed: int = 0
    # (item id, r, (start, decompose done, verify done)); an item may repeat
    ops: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    branches: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def outputs(self) -> str:
        return digest(self.digests + sorted(self.branches.items())
                      + sorted(self.counters.items()))


# workloads -------------------------------------------------------------

def certify_all(tc, inputs: list[Instance], rec: PassRecord, tally) -> None:
    """Certify every input once, recording times, digests and failures."""
    for index, inst in enumerate(inputs):
        rec.attempted += 1
        try:
            got = certify(tc, inst, tally)
        except Exception as exc:  # count it and keep going
            rec.failed += 1
            rec.problems.append(f"{inst.label}: {type(exc).__name__}: {exc}")
            continue
        rec.ops.append((index, got.r, got.times))
        rec.digests.append(hashlib.sha256(got.text.encode()).hexdigest())
        problem = None
        if not got.ok:
            problem = "certificate rejected"
        elif inst.witnessed != (got.r == 1):
            problem = f"r = {got.r} but witnessed = {inst.witnessed}"
        if problem:
            rec.failed += 1
            rec.problems.append(f"{inst.label}: {problem}")


def fixture_cuts(tc) -> list[Instance]:
    """Every nontrivial tight cut of the pinned fixtures (72: 15 r >= 2)."""
    out = []
    for source, (name, g, _) in enumerate(tc.fixture_instances()):
        for c in tc.enumerate_tight_cuts(g, nontrivial_only=True):
            out.append(instance_of(f"fixture-{name}", g, c.shore, source,
                                   tc.classify_cut(g, c).witnessed))
    return out


class CertifyCorpus:
    """Certify a fixed list of cuts; shared by certify_mixed and order_ladder."""

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, tc, inputs: list[Instance]) -> PassRecord:
        rec = PassRecord()
        tally = tc.BranchTally()
        rec.start = clock()
        certify_all(tc, inputs, rec, tally)
        rec.end = clock()
        rec.cuts = len(inputs)
        rec.graphs = len({inst.source for inst in inputs})
        rec.branches = dict(tally.counts)
        return rec


class CertifyMixed(CertifyCorpus):
    """The first witnessed nontrivial tight cut of random graphs at
    n = 12 and 14 (see MIXED), the pinned fixtures and the k = 3
    inflated rungs."""

    name = "certify_mixed"
    pass_s = 1.5

    def build(self, tc) -> list[Instance]:
        out = []
        for n, (draws, certified) in MIXED.items():
            spec = tc.CorpusSpec("random", n=n, samples=draws,
                                 seed=self.seed * 1000 + n)
            found = []
            for idx, g in enumerate(tc.enumerate_corpus(spec)):
                cut = next((c for c in tc.enumerate_tight_cuts(
                    g, nontrivial_only=True)
                    if tc.classify_cut(g, c).witnessed), None)
                if cut is not None:
                    found.append(instance_of(f"random-n{n}-#{idx}", g,
                                             cut.shore, 0, True))
            # a seed that found fewer certifies some of them twice
            for i in range(certified):
                out.append(replace(found[i % len(found)], source=len(out)))
        for name, g, shore in tc.fixture_instances():
            witnessed = tc.classify_cut(g, g.boundary(shore)).witnessed
            out.append(instance_of(f"fixture-{name}", g, shore, len(out),
                                   witnessed))
        # the smallest inflated rungs double the r >= 2 side
        for inst in ladder_instances(tc):
            if inst.label.startswith("inflated") and inst.label.endswith(
                    f"-k{INFLATED_K[0]}"):
                out.append(replace(inst, source=len(out)))
        return out


class OrderLadder(CertifyCorpus):
    """The glued and inflated families, one certification per rung."""

    name = "order_ladder"
    pass_s = 2.5

    def build(self, tc) -> list[Instance]:
        return ladder_instances(tc)


class AcceptanceSweep:
    """One run_sweep call over the acceptance gate's corpus.

    The sweep's own decompose and verify calls are single samples of
    sub-millisecond work, whose times moved by a third between runs on a
    shared host. Its latencies and per-cut family times therefore come
    from certifying every nontrivial tight cut of the fixtures, the part
    of the corpus every seed shares, FIXTURE_REPEATS times after the
    timed sweep; throughput is the sweep's.
    """

    name = "acceptance_sweep"
    pass_s = 34.0

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, tc) -> tuple[list, list[Instance]]:
        specs = [tc.CorpusSpec("exhaustive", n=n) for n in SWEEP_EXHAUSTIVE_N]
        specs += [tc.CorpusSpec("random", n=n, samples=SWEEP_SAMPLES,
                                seed=self.seed * 1000 + n)
                  for n in SWEEP_RANDOM_N]
        return specs, fixture_cuts(tc)

    def run_pass(self, tc, inputs) -> PassRecord:
        specs, cuts = inputs
        start = clock()
        report = tc.run_sweep(specs, include_fixtures=True,
                              command="acceptance")
        rec = PassRecord(start=start, end=clock(), graphs=report.instances,
                         cuts=report.nontrivial_tight_cuts,
                         attempted=report.instances)
        # a rejected certificate is a sweep violation too
        rec.failed += len({label.split(":", 1)[0]
                           for _, label, _ in report.violations})
        rec.problems += [f"[{kind}] {label}: {detail}"
                         for kind, label, detail in report.violations[:5]]
        if self.seed == 0 and (
                report.instances != SWEEP_SEED0_INSTANCES
                or report.nontrivial_tight_cuts != SWEEP_SEED0_NONTRIVIAL_CUTS):
            rec.failed += 1
            rec.problems.append(
                f"seed 0 corpus drifted: {report.instances} instances, "
                f"{report.nontrivial_tight_cuts} nontrivial tight cuts "
                f"(want {SWEEP_SEED0_INSTANCES}, {SWEEP_SEED0_NONTRIVIAL_CUTS})")
        summary = report.to_json_dict()
        del summary["elapsed"]
        rec.counters = {key: value for key, value in summary.items()
                        if isinstance(value, int) and not isinstance(value, bool)}
        rec.branches = dict(report.branch_counts)
        rec.digests.append(digest([json.dumps(summary, sort_keys=True)]))
        for _ in range(FIXTURE_REPEATS):
            certify_all(tc, cuts, rec, tc.BranchTally())
        return rec


WORKLOADS = {cls.name: cls for cls in (AcceptanceSweep, CertifyMixed,
                                       OrderLadder)}
