"""Canonical graphs, generated corpora, and pinned fixtures.

Exhaustive mode walks every labeled simple graph on n vertices (desk
scale, n <= 7) and keeps the connected matching covered ones. It runs
no matching search: a graph is matching covered when it is connected
and every edge lies in a perfect matching (Lovasz-Plummer, Matching
Theory, 1986, ch. 5), so an edge set on n vertices qualifies exactly
when it is connected and equals the union of the perfect matchings of
K_n it contains. The walk builds a Graph only for the edge bitmasks
that pass this union rule and keeps it when Graph.is_connected says so
(the disconnected unions, 3 at n = 4 and 75 at n = 6, are built and
dropped); the sweep re-checks every graph with is_matching_covered, so
that check stays a differential test of the production algorithm.
Random mode uses rejection sampling over a cycling density schedule;
the distribution is deliberately NOT uniform over matching covered
graphs, it just spreads densities enough to vary the structure. Same
spec, same graphs, always.
"""

from __future__ import annotations

import re
from itertools import combinations
from random import Random

from .graph import Graph, GraphError, _Value
from .matching import is_matching_covered

EXHAUSTIVE_MAX_N = 7
RANDOM_MAX_N = 14

_DENSITY_SCHEDULE = (3.0, 3.5, 4.0, 4.5, 5.0)


def _complete(n: int) -> Graph:
    return Graph(range(n), list(combinations(range(n), 2)))


def _cycle_2k(k: int) -> Graph:
    if k == 1:
        # a doubled edge; the smallest graph with a parallel pair
        return Graph(range(2), [(0, 1), (0, 1)])
    n = 2 * k
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(range(10), outer + spokes + inner)


def _prism() -> Graph:
    return Graph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                            (0, 3), (1, 4), (2, 5)])


def _cube() -> Graph:
    edges = [
        (u, v) for u, v in combinations(range(8), 2)
        if bin(u ^ v).count("1") == 1]
    return Graph(range(8), edges)


def _double_k4() -> Graph:
    first = list(combinations((0, 1, 2, 3), 2))
    second = [(u, v) for u, v in combinations((0, 1, 4, 5), 2)
              if (u, v) != (0, 1)]
    return Graph(range(6), first + second)


_BUILDERS = {
    "K2": lambda: _complete(2),
    "K4": lambda: _complete(4),
    "K33": lambda: Graph(range(6), [(u, v) for u in (0, 1, 2)
                                    for v in (3, 4, 5)]),
    "PETERSEN": _petersen,
    "PRISM": _prism,
    "CUBE": _cube,
    "DOUBLE_K4": _double_k4,
}


def canonical_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS)) + ("C2K(k)",)


def canonical(name: str) -> Graph:
    key = name.strip().upper()
    m = re.fullmatch(r"C2K\((\d+)\)", key)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise GraphError("C2K(k) needs k >= 1")
        return _cycle_2k(k)
    builder = _BUILDERS.get(key)
    if builder is None:
        raise GraphError(
            f"unknown canonical graph {name!r}; "
            f"known: {', '.join(canonical_names())}")
    return builder()


class CorpusSpec(_Value):
    """What to generate: mode is "exhaustive", "random", or "named"."""

    __slots__ = ("mode", "n", "samples", "seed", "names")
    _defaults = {"n": int, "samples": int, "seed": int, "names": tuple}


def _complete_matchings(n: int) -> list[int]:
    """The perfect matchings of K_n as bitmasks over the pairs of
    range(n) in combinations order: (n - 1)!! of them, none at odd n."""
    index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    out = []
    # (vertices left to match, the mask so far), the first pair tried last
    # in, so matchings come out in the order of a depth-first recursion
    stack = [(tuple(range(n)), 0)]
    while stack:
        free, mask = stack.pop()
        if not free:
            out.append(mask)
            continue
        u = free[0]
        for j in range(len(free) - 1, 0, -1):
            stack.append((free[1:j] + free[j + 1:],
                          mask | 1 << index[u, free[j]]))
    return out


def _is_matching_union(bits: int, matchings: list[int]) -> bool:
    """True iff bits is the union of the matchings it contains."""
    cover = 0
    for pm in matchings:
        if bits & pm == pm:
            cover |= pm
    return cover == bits


def _exhaustive(spec: CorpusSpec):
    if not 1 <= spec.n <= EXHAUSTIVE_MAX_N:
        raise GraphError(
            f"exhaustive mode handles 1 <= n <= {EXHAUSTIVE_MAX_N}")
    if spec.n % 2:  # no perfect matching; n = 7 would walk 2^21 subsets
        return
    pairs = list(combinations(range(spec.n), 2))
    matchings = _complete_matchings(spec.n)
    for bits in range(1, 1 << len(pairs)):
        if not _is_matching_union(bits, matchings):
            continue
        g = Graph(range(spec.n), [pairs[i] for i in range(len(pairs))
                                  if bits >> i & 1])
        if g.is_connected():
            yield g


def _random(spec: CorpusSpec):
    if not 4 <= spec.n <= RANDOM_MAX_N:
        raise GraphError(f"random mode handles 4 <= n <= {RANDOM_MAX_N}")
    if spec.n % 2:
        raise GraphError("odd order cannot be matching covered")
    if spec.samples <= 0:
        return
    rng = Random(spec.seed * 1_000_003 + spec.n)
    pairs = list(combinations(range(spec.n), 2))
    produced = 0
    attempts = 0
    budget = 20_000 * spec.samples
    while produced < spec.samples:
        if attempts >= budget:
            raise GraphError(
                f"rejection sampling gave up after {attempts} attempts")
        density = _DENSITY_SCHEDULE[attempts % len(_DENSITY_SCHEDULE)]
        attempts += 1
        p = min(0.95, density / (spec.n - 1))
        edges = [pair for pair in pairs if rng.random() < p]
        # a matching covered graph on 4 or more vertices is 2-connected,
        # so a draw leaving a vertex with one neighbour or none is dropped
        # before a Graph is built
        degree = [0] * spec.n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) < 2:
            continue
        g = Graph(range(spec.n), edges)
        if is_matching_covered(g):
            produced += 1
            yield g


def enumerate_corpus(spec: CorpusSpec):
    """Yield the corpus a spec describes, deterministically."""
    if spec.mode == "exhaustive":
        yield from _exhaustive(spec)
    elif spec.mode == "random":
        yield from _random(spec)
    elif spec.mode == "named":
        for name in spec.names:
            g = canonical(name)
            if is_matching_covered(g):
                yield g
    else:
        raise GraphError(f"unknown corpus mode: {spec.mode!r}")


def _double_bowtie(dropped=()) -> Graph:
    # two triangle pairs hinged at 0 and 5; every cut edge is anchored
    # at one of the hinges, so no cut edge is good. The edges in dropped
    # are left out, keeping the order of the rest
    side_a = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    side_b = [(5, 6), (5, 7), (6, 7), (5, 8), (5, 9), (8, 9)]
    across = [(1, 5), (2, 5), (3, 5), (4, 5),
              (0, 6), (0, 7), (0, 8), (0, 9)]
    return Graph(range(10), [
        e for e in side_a + side_b + across if e not in dropped])


def _shielded_bowtie() -> Graph:
    # double bowtie with corner 2 shielded from the cut and the 0-1
    # chord dropped; the block split then pulls a barrier back up
    # instead of a 2-separation
    return _double_bowtie(dropped={(0, 1), (2, 5)})


def _blocked_triangle(bridges=()) -> Graph:
    # triangle 0-1-2 behind a funnel: all three crossing matchings
    # need two partners inside the star at 8, so no witness exists
    # at the cut itself and the search must contract first. Edges in
    # bridges are added after the funnel's
    return Graph(range(10), [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (1, 4), (2, 5), (2, 6),
        (8, 7), (8, 9), (8, 6), (8, 5),
        (4, 9), (5, 6), (3, 7), *bridges,
    ])


def _bridged_triangle() -> Graph:
    # blocked triangle plus bridges 3-8 and 0-7; one barrier round
    # per side is not enough and the reduction has to walk through
    # an intermediate unwitnessed cut
    return _blocked_triangle(bridges=[(3, 8), (0, 7)])


def _blocked_pair() -> Graph:
    # two funnel gadgets facing each other; both shores carry a
    # confined barrier, so the decomposition runs two barrier rounds
    side_a = [(0, 4), (4, 5), (5, 6), (6, 1), (5, 2), (5, 3), (2, 3)]
    side_b = [(7, 11), (11, 12), (12, 13), (13, 8),
              (12, 9), (12, 10), (9, 10), (10, 13)]
    across = [(0, 7), (1, 8), (2, 9), (3, 9)]
    return Graph(range(14), side_a + side_b + across)


def fixture_instances() -> tuple[tuple[str, Graph, frozenset[int]], ...]:
    """Hand-built (name, graph, shore) cases exercising rare branches."""
    return (
        ("double_bowtie", _double_bowtie(), frozenset({0, 1, 2, 3, 4})),
        ("shielded_bowtie", _shielded_bowtie(), frozenset({0, 1, 2, 3, 4})),
        ("blocked_triangle", _blocked_triangle(), frozenset({0, 1, 2})),
        ("bridged_triangle", _bridged_triangle(), frozenset({0, 1, 2})),
        ("blocked_pair", _blocked_pair(), frozenset(range(7))),
    )
