"""Loopless multigraphs with stable integer edge ids.

Vertices are plain ints. Every edge carries an integer id assigned at
construction; contractions and deletions keep the surviving ids, so an
edge of a derived graph is identifiable with the edge of the parent
graph it came from. That identity is what lets a cut keep its meaning
while the graph around it is contracted step by step.

A graph keeps one adjacency structure, position lists (see Graph): a
vertex's position is its rank in sorted label order, so a walk over
positions visits vertices in label order. One routine lays every graph
out, in one sorted pass: the constructor's, after it checks its input,
and every derived graph's (induced, contract, without_edges), from its
parent's edges filtered, which are valid already and not checked again.
A graph records nothing of where its vertices came from: what a
contraction vertex stands for is read off the certificate's steps
(cli._write_dot_files).

All graph values are immutable. Cut here, and the value types of the
other modules (Matching, Barrier, TwoSeparation, CutClassification,
WitnessFinding, Step, DecompositionCertificate, VerificationResult and
CorpusSpec), derive from one private base, _Value, as does the mutable
SweepReport. Each lists its fields in __slots__, in constructor order.
The base writes them through the slot descriptors, compares and hashes
them, refuses every later assignment or deletion, rebuilds copies and
pickles through the constructor and gives the field-list repr, so no
value type generates code. The package's one generated code is
structure.ShoreBarrier's: it is a typing.NamedTuple, whose class
creation evals a __new__ on import. The four hot types (see _Value)
keep their own constructor, comparison and hash.

A graph memoizes what it derives in its own cache, and Graph._memo is
the only way into that cache: every module asks it for a per-graph
value by key, and it builds the value on the first call only.
``induced`` and ``contract`` thus return the same object for the same
arguments, with whatever that object has cached in turn, and
``boundary`` reads each canonical shore's edge ids once. No cache holds
a reference back to its graph, so a graph and everything derived from
it is freed by reference counting alone, without waiting for the cyclic
garbage collector
(tests/test_sweep.py::test_sweep_leaves_no_cyclic_garbage).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, count
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


class _Value:
    """Base of the value types: fields in __slots__, in constructor
    order, set by __init__ alone.

    The generic __init__, __eq__ and __hash__ serve the cold types, each
    built at most a few thousand times per gate sweep: they take the
    fields by position or keyword, and compare and hash all of them.
    Cut, Matching, Barrier and TwoSeparation, built up to 238,062 times,
    write their own, which construct about three times and compare about
    eight times faster, and leave the graph back-reference out.
    """

    __slots__ = ()
    # each optional field's type; the field defaults to the type's empty
    # value (0, 0.0, (), or a fresh list or dict)
    _defaults: dict = {}

    def __init_subclass__(cls):
        # the __set__ of each slot descriptor, in slot order: the one way
        # an __init__ writes its fields past __setattr__'s refusal
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.__slots__
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name]())
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs or len(values) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, "
                            f"each once, by position or keyword")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__name__}({inner})"


class Graph:
    """Undirected loopless multigraph on integer vertices.

    A vertex's position is its rank in sorted label order. The one
    adjacency structure is over positions: each position has a row of
    its neighbours' positions, ascending, parallel edges merged, and,
    alongside, the ascending ids of the edges to each of them. The
    label queries translate through the label -> position map; the
    searches of matching.py read the rows themselves (positions).
    ``_edges`` maps each edge id to its sorted ends, in ascending id
    order in every graph, however it was built: the constructor sorts
    Mapping input and numbers list input in order, and every derived
    graph filters a parent's ``_edges`` in order. _lay_out alone writes
    these fields, for the constructor once its checks pass and for
    every derived graph straight from the filtered edges.

    Edge ids are non-negative ints, bools excluded: the searches of
    matching.py and cuts.py use them as bit positions.
    """

    __slots__ = ("_vset", "_vlist", "_pos", "_rows", "_row_ids", "_edges",
                 "_cache", "__weakref__")

    def __init__(self, vertices: Iterable[int], edges=()):
        vset = set()
        for v in vertices:
            if isinstance(v, bool) or not isinstance(v, int):
                raise GraphError(f"vertex {v!r} is not an int")
            vset.add(v)
        if isinstance(edges, Mapping):
            for eid in edges:
                if isinstance(eid, bool) or not isinstance(eid, int) or eid < 0:
                    raise GraphError(
                        f"edge id {eid!r} is not a non-negative int")
            items = sorted(edges.items())
        else:
            items = enumerate(edges)
        emap: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in items:
            if u == v:
                raise GraphError(f"loop at vertex {u} (edge {eid})")
            if u not in vset or v not in vset:
                raise GraphError(
                    f"edge {eid} touches a vertex outside the graph: ({u}, {v})")
            emap[eid] = (u, v) if u < v else (v, u)
        self._lay_out(frozenset(vset), emap)

    def _lay_out(self, vset: frozenset, edges: dict) -> "Graph":
        """Fill every field of this graph from valid parts, and return it.

        The one writer of the layout, for the constructor and every
        derived graph alike. It checks nothing: edges maps ascending ids
        to sorted ends inside vset, with no loop. A derived graph
        filters its parent's edges, which keeps them valid and in order.
        """
        # each end pair's edge ids; edges run in ascending id order, so
        # each tuple is ascending too
        parallel: dict[tuple[int, int], tuple[int, ...]] = {}
        for eid, uv in edges.items():
            parallel[uv] = parallel.get(uv, ()) + (eid,)
        self._vset = vset
        self._vlist = verts = tuple(sorted(vset))
        self._edges = edges
        self._pos = pos = dict(zip(verts, range(len(verts))))
        self._rows = rows = [[] for _ in verts]
        self._row_ids = row_ids = [[] for _ in verts]
        # the pairs (u, x) with u < x sort before every (x, w), so in
        # sorted pair order x meets its lower neighbours before its
        # higher ones, each in ascending order, and every row comes out
        # sorted, as if each had been sorted on its own
        for (u, v), ids in sorted(parallel.items()):
            i, j = pos[u], pos[v]
            rows[i].append(j)
            row_ids[i].append(ids)
            rows[j].append(i)
            row_ids[j].append(ids)
        self._cache: dict = {}
        return self

    @classmethod
    def from_edges(cls, edges) -> "Graph":
        """Build a graph whose vertex set is inferred from the edge ends.

        A Mapping keeps its edge ids; any other iterable of pairs is read
        once, into a list, and numbered in order as by the constructor.
        """
        if isinstance(edges, Mapping):
            pairs = edges.values()
        else:
            pairs = edges = list(edges)
        verts = set()
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
        return tuple(self._edges)

    def edge_ends(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def edge_items(self) -> list[tuple[int, tuple[int, int]]]:
        """(edge id, (u, v)) pairs in edge id order."""
        return list(self._edges.items())

    def __contains__(self, v) -> bool:
        return v in self._vset

    def positions(self) -> tuple[dict[int, int], list[list[int]]]:
        """The position of each vertex, and each position's row of
        neighbour positions, ascending, parallel edges merged. Read-only:
        both are the graph's own adjacency."""
        return self._pos, self._rows

    def _position(self, v) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def neighbors(self, v) -> tuple[int, ...]:
        verts = self._vlist
        return tuple([verts[j] for j in self._rows[self._position(v)]])

    def incident(self, v) -> tuple[int, ...]:
        return tuple(sorted(chain.from_iterable(
            self._row_ids[self._position(v)])))

    def degree(self, v) -> int:
        return sum(map(len, self._row_ids[self._position(v)]))

    def edges_between(self, u, v) -> tuple[int, ...]:
        i = self._position(u)
        row, j = self._rows[i], self._pos.get(v, -1)
        k = bisect_left(row, j)
        return self._row_ids[i][k] if row[k:k + 1] == [j] else ()

    def has_edge(self, u, v) -> bool:
        return bool(self.edges_between(u, v))

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
        """induced's result, filtered from this graph's fields."""
        return Graph.__new__(Graph)._lay_out(
            s,
            {eid: uv for eid, uv in self._edges.items()
             if uv[0] in s and uv[1] in s})

    def without_vertices(self, drop) -> "Graph":
        return self.induced(self._vset - frozenset(drop))

    def without_edges(self, eids) -> "Graph":
        drop = frozenset(eids)
        bad = drop - set(self._edges)
        if bad:
            raise GraphError(f"unknown edge ids: {sorted(bad)}")
        return Graph.__new__(Graph)._lay_out(
            self._vset,
            {eid: uv for eid, uv in self._edges.items() if eid not in drop})

    def contract(self, part, new_vertex: int | None = None) -> "Graph":
        """Shrink ``part`` to a single vertex.

        Edges inside the part disappear; every other edge keeps its id,
        with endpoints inside the part replaced by ``new_vertex``. The
        result does not record the part: a certificate's steps do.
        """
        s = frozenset(part)
        if not s or not s <= self._vset:
            raise GraphError("can only contract a nonempty subset of the vertices")
        if s == self._vset:
            raise GraphError("cannot contract the whole vertex set")
        if new_vertex is None:
            new_vertex = self.fresh_vertex()
        if isinstance(new_vertex, bool) or not isinstance(new_vertex, int):
            raise GraphError(f"vertex {new_vertex!r} is not an int")
        if new_vertex in self._vset - s:
            raise GraphError(
                f"contraction label {new_vertex} clashes with a surviving vertex")
        return self._memo(("contract", s, new_vertex), self._contracted, s,
                          new_vertex)

    def _contracted(self, s: frozenset, x: int) -> "Graph":
        """contract's result, built once per (part, label) from this
        graph's fields; x may sort anywhere among the survivors."""
        emap: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in self._edges.items():
            iu = u in s
            iv = v in s
            if iu and iv:
                continue
            if iu or iv:
                w = u if iv else v
                emap[eid] = (x, w) if x < w else (w, x)
            else:
                emap[eid] = (u, v)
        return Graph.__new__(Graph)._lay_out((self._vset - s) | {x}, emap)

    # cuts ---------------------------------------------------------------

    def boundary(self, shore) -> "Cut":
        """The cut with the given shore, stored canonically.

        The canonical shore is the lexicographically smaller one as a
        sorted list. The two shores are disjoint and cover V, so their
        sorted lists differ first at their first elements: the shore
        holding the smallest vertex is the smaller. Each canonical
        shore's edge ids are read once per graph (_boundary_ids) and
        memoized as a frozenset.
        """
        s = frozenset(shore)
        if not s or not s <= self._vset or s == self._vset:
            raise GraphError("a shore must be a nonempty proper subset of the vertices")
        canon = s if self._vlist[0] in s else self._vset - s
        return Cut(canon, self._memo(("boundary", canon), self._boundary_ids,
                                     canon), self)

    def _boundary_ids(self, shore: frozenset) -> frozenset[int]:
        """The ids of the edges leaving shore, read from the adjacency of
        whichever of it and its complement has fewer vertices."""
        comp = self._vset - shore
        small = shore if len(shore) <= len(comp) else comp
        verts, pos, rows, row_ids = (self._vlist, self._pos, self._rows,
                                     self._row_ids)
        return frozenset(eid for i in map(pos.__getitem__, small)
                         for j, ids in zip(rows[i], row_ids[i])
                         if verts[j] not in small for eid in ids)

    def cut_from_edge_ids(self, eids) -> "Cut":
        """Recover the cut whose boundary is exactly this edge set.

        The graph must be connected, so the shore is determined up to
        complement; raises when the edges do not form a cut. One search
        from the first vertex gives every vertex a side: an edge of the
        set changes sides, any other edge keeps it. The set is a cut iff
        no edge contradicts the sides, and then it is the boundary of
        the first vertex's side.
        """
        ids = frozenset(eids)
        bad = ids - set(self._edges)
        if bad:
            raise GraphError(f"unknown edge ids: {sorted(bad)}")
        if not ids:
            raise GraphError("a cut has at least one edge")
        if not self.is_connected():
            raise GraphError("cut recovery needs a connected graph")
        rows, row_ids = self._rows, self._row_ids
        side = [-1] * len(rows)
        side[0] = 0
        stack = [0]
        while stack:
            i = stack.pop()
            for j, parallel in zip(rows[i], row_ids[i]):
                for eid in parallel:
                    want = side[i] ^ (eid in ids)
                    if side[j] < 0:
                        side[j] = want
                        stack.append(j)
                    elif side[j] != want:
                        raise GraphError(
                            "edge set is not the boundary of a shore")
        return self.boundary(v for v, k in zip(self._vlist, side) if not k)

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
        verts, rows, pos = self._vlist, self._rows, self._pos
        seen = [False] * len(verts)
        for v in banned:
            if v in pos:
                seen[pos[v]] = True
        out = []
        for root in range(len(verts)):
            if seen[root]:
                continue
            comp = {verts[root]}
            seen[root] = True
            stack = [root]
            while stack:
                for j in rows[stack.pop()]:
                    if not seen[j]:
                        seen[j] = True
                        comp.add(verts[j])
                        stack.append(j)
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
        verts, rows = self._vlist, self._rows
        disc = [-1] * len(rows)
        low = disc[:]
        clock = count()
        out = set()
        for root in range(len(rows)):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = next(clock)
            children = 0
            stack = [(root, iter(rows[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if disc[w] < 0:
                        disc[w] = low[w] = next(clock)
                        stack.append((w, iter(rows[w])))
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
                        out.add(verts[u])
            if children >= 2:
                out.add(verts[root])
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


class Cut(_Value):
    """An edge cut, stored by its lexicographically smaller shore."""

    __slots__ = ("shore", "edge_ids", "graph")

    def __init__(self, shore: frozenset[int], edge_ids: frozenset[int],
                 graph: Graph):
        set_shore, set_edge_ids, set_graph = self._setters
        set_shore(self, shore)
        set_edge_ids(self, edge_ids)
        set_graph(self, graph)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shore == other.shore and self.edge_ids == other.edge_ids

    def __hash__(self):
        return hash((self.shore, self.edge_ids))

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
