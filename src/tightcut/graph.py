"""Loopless multigraphs with stable integer edge ids.

Vertices are plain ints. Every edge carries an integer id assigned at
construction; contractions and deletions keep the surviving ids, so an
edge of a derived graph is identifiable with the edge of the parent
graph it came from. That identity is what lets a cut keep its meaning
while the graph around it is contracted step by step.

All graph values are immutable. A graph memoizes what it derives in
its own cache, and Graph._memo is the only way into that cache: every
module asks it for a per-graph value by key, and it builds the value on
the first call only. ``induced`` and ``contract`` thus return the same
object for the same arguments, with whatever that object has cached in
turn. No cache holds a reference back to its graph, so a graph and
everything derived from it is freed by reference counting alone,
without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Invalid input to a graph operation."""


class EnumerationLimitError(GraphError):
    """An exhaustive routine refused to run above its size bound."""


class InternalInvariantError(RuntimeError):
    """A constructed witness failed its own re-verification.

    Raised at points where the underlying theory guarantees success, so
    this is always a bug report, never a data error.
    """


class Graph:
    """Undirected loopless multigraph on integer vertices.

    ``provenance`` maps a contracted vertex to the frozenset of original
    vertices it stands for; plain vertices have no entry and stand for
    themselves.
    """

    __slots__ = ("_vset", "_vlist", "_edges", "_adj", "provenance", "_cache",
                 "__weakref__")

    def __init__(self, vertices: Iterable[int], edges=(), *,
                 provenance: Mapping[int, frozenset] | None = None):
        vset = set()
        for v in vertices:
            if not isinstance(v, int):
                raise GraphError(f"vertex {v!r} is not an int")
            vset.add(v)
        if isinstance(edges, Mapping):
            items = sorted(edges.items())
        else:
            items = list(enumerate(edges))
        emap: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in items:
            if u == v:
                raise GraphError(f"loop at vertex {u} (edge {eid})")
            if u not in vset or v not in vset:
                raise GraphError(
                    f"edge {eid} touches a vertex outside the graph: ({u}, {v})")
            emap[eid] = (u, v) if u < v else (v, u)
        self._vset = frozenset(vset)
        self._vlist = tuple(sorted(vset))
        self._edges = emap
        # emap runs in ascending id order, so one stable sort by end pair
        # groups parallel edges with their ids ascending. The pairs (u, x)
        # with u < x sort before every (x, w), each run in ascending order,
        # so x meets its lower neighbours before its higher ones and every
        # row comes out sorted, as if each had been sorted on its own.
        adj: dict[int, dict[int, tuple[int, ...]]] = {
            v: {} for v in self._vlist}
        order = sorted(emap.items(), key=itemgetter(1))
        last = len(order) - 1
        run: list[int] = []
        for i, (eid, uv) in enumerate(order):
            run.append(eid)
            if i == last or order[i + 1][1] != uv:
                u, v = uv
                adj[u][v] = adj[v][u] = tuple(run)
                run.clear()
        self._adj = adj
        self.provenance = {
            v: frozenset(tag)
            for v, tag in (provenance or {}).items()
            if v in self._vset
        }
        self._cache: dict = {}

    @classmethod
    def from_edges(cls, edges, extra_vertices: Iterable[int] = ()) -> "Graph":
        """Build a graph whose vertex set is inferred from the edge ends."""
        pairs = edges.values() if isinstance(edges, Mapping) else edges
        verts = set(extra_vertices)
        for u, v in pairs:
            verts.add(u)
            verts.add(v)
        return cls(verts, edges)

    def _memo(self, key, build, *args):
        """The value cached under key, from build(*args) on a miss only.

        The caching rule, for every per-graph memo of the package: a
        value is computed once per graph and stored as plain data, never
        as an object that refers back to the graph (a Matching, a
        Barrier), which is built on return instead. A graph may hold its
        derived graphs, since they refer to nothing above them. A miss
        is a key not yet stored, so None and False are cached answers
        too. A value that grows, such as a dict of rows, is built empty
        here and filled by its owner.
        """
        cache = self._cache
        if key not in cache:
            cache[key] = build(*args)
        return cache[key]

    # basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vlist

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vset

    @property
    def n(self) -> int:
        return len(self._vlist)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._edges))

    def edge_ends(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def edge_items(self) -> list[tuple[int, tuple[int, int]]]:
        """(edge id, (u, v)) pairs in edge id order."""
        return [(eid, self._edges[eid]) for eid in sorted(self._edges)]

    def __contains__(self, v) -> bool:
        return v in self._vset

    def _adj_of(self, v) -> dict[int, tuple[int, ...]]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def neighbors(self, v) -> tuple[int, ...]:
        return tuple(self._adj_of(v))

    def neighbor_rows(self) -> Iterable[Iterable[int]]:
        """Each vertex's neighbours in sorted order, one row per vertex in
        the order of vertices, without building a tuple per vertex.
        Parallel edges give one neighbour. Read-only: the rows are the
        graph's own adjacency."""
        return self._adj.values()

    def incident(self, v) -> tuple[int, ...]:
        out: list[int] = []
        for ids in self._adj_of(v).values():
            out.extend(ids)
        return tuple(sorted(out))

    def degree(self, v) -> int:
        return sum(len(ids) for ids in self._adj_of(v).values())

    def edges_between(self, u, v) -> tuple[int, ...]:
        return self._adj_of(u).get(v, ())

    def has_edge(self, u, v) -> bool:
        return bool(self.edges_between(u, v))

    def provenance_of(self, v) -> frozenset[int]:
        if v not in self._vset:
            raise GraphError(f"unknown vertex {v}")
        return self.provenance.get(v, frozenset((v,)))

    def fresh_vertex(self) -> int:
        return self._vlist[-1] + 1 if self._vlist else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vset == other._vset and self._edges == other._edges

    __hash__ = None  # mutable cache inside; structural eq only

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # derived graphs ---------------------------------------------------

    def induced(self, keep) -> "Graph":
        s = frozenset(keep)
        bad = s - self._vset
        if bad:
            raise GraphError(f"not vertices of the graph: {sorted(bad)}")
        return self._memo(("induced", s), self._restricted, s)

    def _restricted(self, s: frozenset) -> "Graph":
        """The subgraph induced on s, a subset of the vertices, filtered
        from this graph's own fields.

        Every field of a Graph is kept in sorted order, and filtering
        keeps that order, so the result equals Graph(s, edges,
        provenance=...) field for field, key order included. The checks
        __init__ runs (int vertices, no loops, edge ends inside the
        vertex set) hold for any subgraph of a valid graph, so they and
        the re-sort are skipped.
        """
        child = Graph.__new__(Graph)
        child._vset = s
        child._vlist = tuple(v for v in self._vlist if v in s)
        child._edges = {eid: uv for eid, uv in self._edges.items()
                        if uv[0] in s and uv[1] in s}
        adj = self._adj
        child._adj = {v: {w: ids for w, ids in adj[v].items() if w in s}
                      for v in child._vlist}
        child.provenance = {v: p for v, p in self.provenance.items()
                            if v in s}
        child._cache = {}
        return child

    def without_vertices(self, drop) -> "Graph":
        return self.induced(self._vset - frozenset(drop))

    def without_edges(self, eids) -> "Graph":
        drop = frozenset(eids)
        bad = drop - set(self._edges)
        if bad:
            raise GraphError(f"unknown edge ids: {sorted(bad)}")
        emap = {eid: uv for eid, uv in self._edges.items() if eid not in drop}
        return Graph(self._vset, emap, provenance=self.provenance)

    def contract(self, part, new_vertex: int | None = None) -> "Graph":
        """Shrink ``part`` to a single vertex.

        Edges inside the part disappear; every other edge keeps its id,
        with endpoints inside the part replaced by ``new_vertex``. The
        new vertex's provenance is the union of the part's provenance.
        """
        s = frozenset(part)
        if not s or not s <= self._vset:
            raise GraphError("can only contract a nonempty subset of the vertices")
        if s == self._vset:
            raise GraphError("cannot contract the whole vertex set")
        if new_vertex is None:
            new_vertex = self.fresh_vertex()
        if new_vertex in self._vset - s:
            raise GraphError(
                f"contraction label {new_vertex} clashes with a surviving vertex")
        return self._memo(("contract", s, new_vertex), self._contracted, s,
                          new_vertex)

    def _contracted(self, s: frozenset, new_vertex: int) -> "Graph":
        """contract's result, built once per (part, label)."""
        emap: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in self._edges.items():
            iu = u in s
            iv = v in s
            if iu and iv:
                continue
            if iu:
                emap[eid] = (new_vertex, v)
            elif iv:
                emap[eid] = (u, new_vertex)
            else:
                emap[eid] = (u, v)
        rest = self._vset - s
        prov = {v: p for v, p in self.provenance.items() if v in rest}
        merged: frozenset[int] = frozenset()
        for w in sorted(s):
            merged |= self.provenance_of(w)
        prov[new_vertex] = merged
        return Graph(rest | {new_vertex}, emap, provenance=prov)

    # cuts ---------------------------------------------------------------

    def boundary(self, shore) -> "Cut":
        """The cut with the given shore, stored canonically.

        The canonical shore is the lexicographically smaller one as a
        sorted list. The two shores are disjoint and cover V, so their
        sorted lists differ first at their first elements: the shore
        holding the smallest vertex is the smaller. The cut's edges are
        read from the adjacency of the shore with fewer vertices.
        """
        s = frozenset(shore)
        if not s or not s <= self._vset or s == self._vset:
            raise GraphError("a shore must be a nonempty proper subset of the vertices")
        comp = self._vset - s
        small = s if len(s) <= len(comp) else comp
        adj = self._adj
        eids = frozenset(eid for v in small for w, ids in adj[v].items()
                         if w not in small for eid in ids)
        canon = s if self._vlist[0] in s else comp
        return Cut(shore=canon, edge_ids=eids, graph=self)

    def cut_from_edge_ids(self, eids) -> "Cut":
        """Recover the cut whose boundary is exactly this edge set.

        The graph must be connected, so the shore is determined up to
        complement; raises when the edges do not form a cut.
        """
        ids = frozenset(eids)
        bad = ids - set(self._edges)
        if bad:
            raise GraphError(f"unknown edge ids: {sorted(bad)}")
        if not ids:
            raise GraphError("a cut has at least one edge")
        if not self.is_connected():
            raise GraphError("cut recovery needs a connected graph")
        # label the components of the graph minus the edges: a neighbour
        # stays reachable while some parallel edge to it survives
        comp_of: dict[int, int] = {}
        count = 0
        for root in self._vlist:
            if root in comp_of:
                continue
            comp_of[root] = count
            stack = [root]
            while stack:
                v = stack.pop()
                for w, parallel in self._adj[v].items():
                    if w not in comp_of and not ids.issuperset(parallel):
                        comp_of[w] = count
                        stack.append(w)
            count += 1
        # 2-color the components along the removed edges
        links: dict[int, set[int]] = {i: set() for i in range(count)}
        for eid in ids:
            u, v = self._edges[eid]
            cu, cv = comp_of[u], comp_of[v]
            if cu == cv:
                raise GraphError(
                    f"edge {eid} has both ends on one side; not a cut")
            links[cu].add(cv)
            links[cv].add(cu)
        color = {0: 0}
        queue = [0]
        while queue:
            i = queue.pop()
            for j in links[i]:
                if j not in color:
                    color[j] = 1 - color[i]
                    queue.append(j)
                elif color[j] == color[i]:
                    raise GraphError("edge set is not the boundary of a shore")
        shore = frozenset(v for v, i in comp_of.items() if color[i] == 0)
        cut = self.boundary(shore)
        if cut.edge_ids != ids:
            raise GraphError("edge set is not the boundary of a shore")
        return cut

    def cut_contractions(self, cut: "Cut") -> tuple["Graph", "Graph"]:
        """Both contractions of a nontrivial cut: (keep shore, keep complement).

        Each contraction labels its new vertex ``fresh_vertex()`` of this
        graph; the two results are separate graphs.
        """
        if cut.graph is not self and cut.graph != self:
            raise GraphError("cut belongs to a different graph")
        if cut.is_trivial:
            raise GraphError("contractions of a trivial cut are the graph itself")
        x = self.fresh_vertex()
        g_shore = self.contract(self._vset - cut.shore, x)
        g_other = self.contract(cut.shore, x)
        return g_shore, g_other

    # connectivity -------------------------------------------------------

    def components_without(self, banned) -> tuple[frozenset[int], ...]:
        """Connected components after deleting ``banned``, ordered by
        smallest member."""
        banned = frozenset(banned)
        seen = set(banned)
        out = []
        for root in self._vlist:
            if root in seen:
                continue
            comp = {root}
            seen.add(root)
            stack = [root]
            while stack:
                v = stack.pop()
                for w in self._adj[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            out.append(frozenset(comp))
        return tuple(out)

    def components(self) -> tuple[frozenset[int], ...]:
        return self._memo("components", self.components_without, ())

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def cut_vertices(self) -> frozenset[int]:
        """The vertices whose deletion leaves more components, found
        once per graph (_low_points)."""
        return self._memo("cut_vertices", self._low_points)

    def _low_points(self) -> frozenset[int]:
        """cut_vertices' search: one iterative low-point search per
        component (Hopcroft and Tarjan 1973).

        disc[v] is v's discovery time in the depth-first search, and
        low[v] the least discovery time that one edge reaches from v's
        subtree. A non-root v is a cut vertex iff some child w has
        low[w] >= disc[v], so nothing below w reaches above v; a root
        is one iff it has two or more children. The search walks
        distinct neighbours and lets the edge back to the parent count
        in low: that edge, or a parallel copy of it, lowers low[w] to
        disc[v] at most, which the test allows, so parallel edges change
        nothing.
        """
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        out = set()
        for root in self._vlist:
            if root in disc:
                continue
            disc[root] = low[root] = len(disc)
            children = 0
            stack = [(root, iter(self._adj[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if w not in disc:
                        disc[w] = low[w] = len(disc)
                        stack.append((w, iter(self._adj[w])))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if not stack:
                        continue
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if u == root:
                        children += 1
                    elif low[v] >= disc[u]:
                        out.add(u)
            if children >= 2:
                out.add(root)
        return frozenset(out)

    def is_2connected(self) -> bool:
        """2-connectivity in the cycle sense.

        Two vertices joined by parallel edges already lie on a common
        cycle, so a 2-vertex multigraph with two or more edges counts.
        """
        if self.n < 2 or not self.is_connected():
            return False
        if self.n == 2:
            return self.m >= 2
        return not self.cut_vertices()


@dataclass(frozen=True)
class Cut:
    """An edge cut, stored by its lexicographically smaller shore."""

    shore: frozenset[int]
    edge_ids: frozenset[int]
    graph: Graph = field(compare=False, repr=False)

    @property
    def other_shore(self) -> frozenset[int]:
        return self.graph.vertex_set - self.shore

    def shores(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.shore, self.other_shore)

    @property
    def size(self) -> int:
        return len(self.edge_ids)

    @property
    def is_trivial(self) -> bool:
        return len(self.shore) == 1 or len(self.other_shore) == 1

    def crosses(self, other: "Cut") -> bool:
        """True iff all four shore quadrants are nonempty.

        False whenever a shore of one cut contains a shore of the other,
        and in particular a cut never crosses itself.
        """
        if self.graph is not other.graph and self.graph != other.graph:
            raise GraphError("cuts of different graphs cannot cross")
        x, y = self.shore, other.shore
        vs = self.graph.vertex_set
        xc, yc = vs - x, vs - y
        return bool(x & y) and bool(x & yc) and bool(xc & y) and bool(xc & yc)

    def __repr__(self) -> str:
        return f"Cut(shore={sorted(self.shore)}, edges={sorted(self.edge_ids)})"
