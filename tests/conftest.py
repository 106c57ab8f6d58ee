"""Shared fixtures and independent brute-force oracles.

The brute-force oracles work on plain (vertices, edges) data and never
call into the package, so they can vouch for it. Edge ids are list
positions, matching what Graph(range(n), edges) assigns. Two oracles
call in: dependence_classes asks only is_matchable, one vertex pair at
a time, and all_perfect_matchings reads the package's exhaustive
enumeration, matching.perfect_matching_masks, which no production code
calls.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations

import pytest

from tightcut.graph import Graph
from tightcut.instances import CorpusSpec, enumerate_corpus, fixture_instances
from tightcut.matching import Matching, is_matchable, perfect_matching_masks

# acceptance criteria register: test_acceptance records one verdict per
# criterion here; the summary hook prints them after the test run
CRITERIA: dict[int, tuple[bool, str]] = {}


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(CRITERIA):
        ok, detail = CRITERIA[n]
        line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


# brute-force oracles -----------------------------------------------------

def brute_max_matching(vertices, edges) -> int:
    """Maximum matching size by exhaustive recursion."""
    verts = sorted(vertices)
    incident = {v: [] for v in verts}
    for eid, (u, v) in enumerate(edges):
        incident[u].append((eid, v))
        incident[v].append((eid, u))

    def rec(free: frozenset[int]) -> int:
        for v in verts:
            if v in free:
                break
        else:
            return 0
        best = rec(free - {v})
        for _, w in incident[v]:
            if w in free and w != v:
                best = max(best, 1 + rec(free - {v, w}))
        return best

    return rec(frozenset(verts))


def brute_matching_numbers(vertices, edges):
    """nu(live): maximum matching size of the subgraph induced on the
    vertex set live, by memoized recursion; one memo per graph serves
    every vertex-deleted subgraph of it."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    memo: dict[frozenset[int], int] = {frozenset(): 0}

    def nu(live) -> int:
        live = frozenset(live)
        got = memo.get(live)
        if got is None:
            v = min(live)
            rest = live - {v}
            got = max([nu(rest)] + [1 + nu(rest - {w})
                                    for w in adj[v] & rest])
            memo[live] = got
        return got

    return nu


def brute_perfect_matchings(vertices, edges) -> set[frozenset[int]]:
    """All perfect matchings as frozensets of edge positions."""
    verts = sorted(vertices)
    if len(verts) % 2:
        return set()
    incident = {v: [] for v in verts}
    for eid, (u, v) in enumerate(edges):
        incident[u].append((eid, v))
        incident[v].append((eid, u))
    out: set[frozenset[int]] = set()

    def rec(free: frozenset[int], used: frozenset[int]) -> None:
        if not free:
            out.add(used)
            return
        v = min(free)
        for eid, w in incident[v]:
            if w in free and w != v:
                rec(free - {v, w}, used | {eid})

    rec(frozenset(verts), frozenset())
    return out


def brute_is_tight(vertices, edges, shore) -> bool:
    """Every perfect matching crosses the shore exactly once."""
    shore = frozenset(shore)
    pms = brute_perfect_matchings(vertices, edges)
    if not pms:
        raise ValueError("no perfect matchings")
    cut = {
        eid for eid, (u, v) in enumerate(edges)
        if (u in shore) != (v in shore)}
    return all(len(pm & cut) == 1 for pm in pms)


def crossed_once_by_scan(g, matchings):
    """Every odd shore through the smallest vertex of g that each of
    matchings crosses once, as (sorted shore, cut as an edge-id
    bitmask), by size then lex order. A matching is a position list,
    the mate's position at each vertex's position in sorted label
    order, and crosses a shore once when exactly one of its vertex
    pairs has one end inside; g is read for its vertices and edges
    only."""
    verts = g.vertices
    incidence = dict.fromkeys(verts, 0)
    for eid, (u, v) in g.edge_items():
        incidence[u] ^= 1 << eid
        incidence[v] ^= 1 << eid
    pairs = [[(verts[i], verts[j]) for i, j in enumerate(match) if i < j]
             for match in matchings]
    anchor, rest = verts[0], verts[1:]
    out = []
    for size in range(1, g.n, 2):
        for combo in combinations(rest, size - 1):
            shore = {anchor, *combo}
            if all(sum((u in shore) != (v in shore) for u, v in edges) == 1
                   for edges in pairs):
                cut = 0
                for v in shore:
                    cut ^= incidence[v]
                out.append(((anchor,) + combo, cut))
    return out


def brute_components(vertices, edges, removed=frozenset()):
    removed = frozenset(removed)
    live = set(vertices) - removed
    adj = {v: set() for v in live}
    for u, v in edges:
        if u in live and v in live:
            adj[u].add(v)
            adj[v].add(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(live):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def brute_is_barrier(vertices, edges, members) -> bool:
    members = frozenset(members)
    odd = sum(
        1 for comp in brute_components(vertices, edges, members)
        if len(comp) % 2)
    return odd == len(members)


def brute_barriers(g: Graph) -> list[frozenset[int]]:
    """Every barrier of g by size then lex order, by the subset oracle.
    The whole vertex set leaves no odd component, so it is never one."""
    edges = [ends for _, ends in g.edge_items()]
    return [frozenset(combo)
            for size in range(1, g.n)
            for combo in combinations(g.vertices, size)
            if brute_is_barrier(g.vertices, edges, combo)]


def brute_is_matching_covered(vertices, edges) -> bool:
    verts = set(vertices)
    if len(verts) < 2 or not edges:
        return False
    if len(brute_components(vertices, edges)) != 1:
        return False
    pms = brute_perfect_matchings(vertices, edges)
    if not pms:
        return False
    covered = set()
    for pm in pms:
        covered |= pm
    return covered == set(range(len(edges)))


def brute_is_critical(vertices, edges) -> bool:
    verts = sorted(vertices)
    if not verts or len(verts) % 2 == 0:
        return False
    for v in verts:
        rest = [e for e in edges if v not in e]
        kept = [u for u in verts if u != v]
        if brute_max_matching(kept, rest) * 2 != len(kept):
            return False
    return True


def brute_confined_strict_barrier(vertices, edges, shore):
    """The first subset of shore, by size then lex order, that is a
    strict barrier with every odd component inside shore, or None.

    Strict: every odd component is a single vertex or critical, and the
    core (members against odd components, each collapsed to one vertex,
    parallel edges kept) is matching covered. The barrier and its odd
    components both fit inside the shore, so sizes stop at half of it.
    """
    shore = frozenset(shore)
    pool = sorted(shore)
    for size in range(1, len(pool) // 2 + 1):
        for members in combinations(pool, size):
            members = frozenset(members)
            odd = [comp for comp in brute_components(vertices, edges, members)
                   if len(comp) % 2]
            if len(odd) != size or not all(comp <= shore for comp in odd):
                continue
            if not all(brute_is_critical(comp, [(u, v) for u, v in edges
                                                if u in comp and v in comp])
                       for comp in odd):
                continue
            label = {v: i for i, comp in enumerate(odd) for v in comp}
            core_edges = [(("b", u), ("k", label[w]))
                          for a, b in edges
                          for u, w in ((a, b), (b, a))
                          if u in members and w in label]
            core_vertices = ([("b", v) for v in members]
                             + [("k", i) for i in range(len(odd))])
            if brute_is_matching_covered(core_vertices, core_edges):
                return members
    return None


def dependence_classes(g: Graph) -> dict[int, frozenset[int]]:
    """Map each vertex u to u and every v with g - u - v not matchable,
    from one is_matchable query per vertex pair."""
    classes = {u: {u} for u in g.vertices}
    for u, v in combinations(g.vertices, 2):
        if not is_matchable(g.without_vertices({u, v})):
            classes[u].add(v)
            classes[v].add(u)
    return {u: frozenset(part) for u, part in classes.items()}


def all_perfect_matchings(g: Graph) -> list[Matching]:
    """Every perfect matching of g, from perfect_matching_masks."""
    return [Matching(frozenset(e for e in g.edge_ids if mask >> e & 1), g)
            for mask in perfect_matching_masks(g)]


# shared graphs ------------------------------------------------------------

def cycle(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def glued(k: int) -> Graph:
    """Two K_{k,k}, each less one left vertex, whose right sides are
    joined by a perfect matching: matching covered, n = 4k - 2. Those k
    edges form a tight cut with shore range(2k - 1)."""
    n = 4 * k - 2
    left_a, right_a = range(0, k - 1), range(k - 1, 2 * k - 1)
    left_b, right_b = range(2 * k - 1, 3 * k - 2), range(3 * k - 2, n)
    edges = [(u, v) for u in left_a for v in right_a]
    edges += [(u, v) for u in left_b for v in right_b]
    edges += list(zip(right_a, right_b))
    return Graph(range(n), edges)


def theta(k: int) -> Graph:
    """Hubs 0 and 1 joined by k paths 0 - a_i - b_i - 1 of length 3, with
    a_i = 2 + 2i and b_i = 3 + 2i: matching covered, n = 2k + 2."""
    edges = []
    for i in range(k):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (a, b), (b, 1)]
    return Graph(range(2 * k + 2), edges)


def inflated(g: Graph, shore, k: int) -> tuple[Graph, frozenset[int]]:
    """Splice K_{k,k} into g at its highest-labelled far-shore vertex v,
    relabelled to range(n); returns the graph and the shore's image.

    v is replaced by K_{k,k} minus one vertex h. The k neighbours of h
    take over v's edges, round robin, so that each keeps at least one
    edge outside and v's edges all survive. The inserted part is
    bipartite with one more vertex on the attached side, so its own cut
    and the reference cut stay tight and the graph matching covered.
    The benchmark keeps its own copy in bench/workloads.py.
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
    return (Graph(range(len(order)), [(label[a], label[b]) for a, b in edges]),
            frozenset(label[x] for x in shore))

def count_calls(monkeypatch, owner, *names) -> Counter:
    """Wrap each named function of owner, a class or a module, so that
    every call through owner counts under its name in the Counter
    returned; monkeypatch undoes the wrapping."""
    counts: Counter = Counter()
    for name in names:

        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def sha256_of_lines(texts) -> str:
    """sha256 of the texts, each ended by a newline: the form of the
    output pins the tests compare."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


# the acceptance gate's corpus specs: exhaustive over n in {2, 4, 6} and
# this many seeded random graphs for each n in {8, 10, 12}, with seed n;
# the gate's sweep adds the pinned fixtures
GATE_SAMPLES_PER_ORDER = 167


def gate_specs() -> list[CorpusSpec]:
    specs = [CorpusSpec("exhaustive", n=n) for n in (2, 4, 6)]
    specs += [CorpusSpec("random", n=n, samples=GATE_SAMPLES_PER_ORDER,
                         seed=n) for n in (8, 10, 12)]
    return specs


@pytest.fixture(scope="session")
def exhaustive_corpus() -> dict[int, tuple[Graph, ...]]:
    """Every matching covered graph on n in {2, 4, 6} vertices, built once
    per session: n = 6 alone walks 2^15 edge subsets."""
    return {n: tuple(enumerate_corpus(CorpusSpec("exhaustive", n=n)))
            for n in (2, 4, 6)}


@pytest.fixture(scope="session")
def differential_corpus(exhaustive_corpus) -> tuple[Graph, ...]:
    """The fast paths' differential corpus: the exhaustive n <= 6
    graphs, the pinned fixtures and 40 random n = 10 graphs (seed 5)."""
    graphs = [g for n in (2, 4, 6) for g in exhaustive_corpus[n]]
    graphs += [g for _, g, _ in fixture_instances()]
    graphs += enumerate_corpus(CorpusSpec("random", n=10, samples=40, seed=5))
    return tuple(graphs)


@pytest.fixture
def c6() -> Graph:
    return cycle(6)


@pytest.fixture
def k4() -> Graph:
    return Graph(range(4), list(combinations(range(4), 2)))
