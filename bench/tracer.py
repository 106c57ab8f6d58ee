"""Per-function tracing of the tightcut package, installed from outside.

The package's modules import each other's functions by name (for
example ``from .matching import is_matchable``), so wrapping a function
where it is defined is not enough: every module-level alias in every
loaded ``tightcut`` module is rebound to the wrapper, and ``install``
checks afterwards that no alias of an original is left. Methods are
wrapped on their class, which every caller goes through.

Each wrapped call is a span (name, start, end, parent). A span's self
time is its duration minus the time covered by its child spans; its
cumulative time counts only the outermost active call of a name, so
recursion is not counted twice. The hot functions, which run hundreds
of thousands to millions of times in a sweep, are only aggregated by
(name, parent); every other span is also kept individually in compact
arrays, with the nearest kept span as its parent. Nothing is written
until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# module -> the functions traced in it, as attribute paths on the module
TRACED = {
    "graph": ("Graph.__init__", "Graph.components_without", "Graph.boundary",
              "Graph.contract", "Graph.cut_from_edge_ids", "Graph.induced"),
    "matching": ("matching_number", "_blossom_mates", "is_matchable",
                 "perfect_matching_masks", "is_matching_covered"),
    "cuts": ("is_tight", "enumerate_tight_cuts", "classify_cut"),
    "structure": ("is_barrier", "enumerate_barriers", "find_2separations",
                  "find_strict_barrier", "lift_barrier_over_odd_component",
                  "lift_barrier_over_2sep"),
    "decompose": ("decompose_tight_cut", "find_noncrossing_witness",
                  "witness_from_edge"),
    "verify": ("verify_certificate",),
    "certificate": ("DecompositionCertificate.to_json_dict",),
    "instances": ("enumerate_corpus",),
    "sweep": ("run_sweep",),
}

# predicates also report the share of calls that answered truthy
PREDICATES = frozenset({
    "matching.is_matchable", "matching.is_matching_covered", "cuts.is_tight",
    "structure.is_barrier",
})

# aggregated only, never kept as spans: the hot leaves, and the per-shore
# tightness test with the PM enumeration and blossom runs under it
# (together about 6M calls in one acceptance sweep)
HOT = frozenset({
    "graph.Graph.components_without", "matching.is_matchable",
    "matching.matching_number", "structure.is_barrier", "graph.Graph.boundary",
    "graph.Graph.__init__", "cuts.is_tight", "matching.perfect_matching_masks",
    "matching._blossom_mates",
})

NAMES = tuple(f"{mod}.{attr}" for mod, attrs in TRACED.items()
              for attr in attrs)

_ROOT = -1


def package_modules(package: str = "tightcut") -> list:
    """Every loaded module of the package, the package itself first."""
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))]


def _resolve(package: str, name: str):
    """(owner object, attribute, original function) for a traced name."""
    mod_name, _, path = name.partition(".")
    owner = sys.modules[f"{package}.{mod_name}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def rebind(modules, original, replacement) -> int:
    """Point every module-level alias of ``original`` at ``replacement``."""
    sites = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                sites += 1
    return sites


def leftover_aliases(modules, originals) -> list[str]:
    """Module attributes and class attributes still bound to an original."""
    ids = {id(fn) for fn in originals}
    left = []
    for mod in modules:
        for key, value in vars(mod).items():
            if id(value) in ids:
                left.append(f"{mod.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if id(member) in ids:
                        left.append(f"{mod.__name__}.{key}.{attr}")
    return left


class Tracer:
    """Wraps the traced functions and aggregates their spans."""

    def __init__(self, package: str = "tightcut"):
        self.package = package
        self.names = NAMES
        self._index = {name: i for i, name in enumerate(NAMES)}
        # (name id, parent name id) -> [calls, self s, cum s, truthy]
        self.edges: dict[tuple[int, int], list] = {}
        # kept spans: name id, parent span index, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open calls: [name id, child seconds, span index for children,
        #              own span index or -1, parent name id]
        self._stack: list[list] = []
        self._depth = [0] * len(NAMES)
        self._installed: list[tuple] = []
        self.t0 = time.perf_counter()

    # installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function; returns the number of rebound sites.

        Raises RuntimeError when an alias of an original survives or a
        traced name cannot be found, so a partial trace never passes as
        a full one.
        """
        modules = package_modules(self.package)
        originals = []
        sites = 0
        for name in self.names:
            owner, attr, fn = _resolve(self.package, name)
            wrapper = self._wrap(fn, self._index[name], name)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                sites += 1
            else:
                got = rebind(modules, fn, wrapper)
                if got == 0:
                    raise RuntimeError(f"no module binds {name}")
                sites += got
            self._installed.append((owner, attr, fn, wrapper))
            originals.append(fn)
        left = leftover_aliases(modules, originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"tracer missed aliases: {', '.join(left)}")
        return sites

    def uninstall(self) -> None:
        modules = package_modules(self.package)
        for owner, attr, fn, wrapper in reversed(self._installed):
            if inspect.isclass(owner):
                setattr(owner, attr, fn)
            else:
                rebind(modules, wrapper, fn)
        self._installed.clear()

    # recording --------------------------------------------------------

    def _wrap(self, fn, key: int, name: str):
        stack = self._stack
        depth = self._depth
        edges = self.edges
        clock = time.perf_counter
        keep = name not in HOT
        predicate = name in PREDICATES
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def enter():
            if stack:
                parent = stack[-1]
                pkey, pspan = parent[0], parent[2]
            else:
                pkey, pspan = _ROOT, -1
            own = -1
            if keep:
                own = len(span_name)
                span_name.append(key)
                span_parent.append(pspan)
                span_start.append(0.0)
                span_end.append(0.0)
            frame = [key, 0.0, own if keep else pspan, own, pkey]
            stack.append(frame)
            depth[key] += 1
            return frame

        def leave(frame, t0, t1, truthy, counted):
            stack.pop()
            depth[key] -= 1
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            if frame[3] >= 0:
                span_start[frame[3]] = t0
                span_end[frame[3]] = t1
            ek = (key, frame[4])
            row = edges.get(ek)
            if row is None:
                row = edges[ek] = [0, 0.0, 0.0, 0]
            if counted:
                row[0] += 1
                if truthy:
                    row[3] += 1
            row[1] += dur - frame[1]
            if depth[key] == 0:
                row[2] += dur

        if inspect.isgeneratorfunction(fn):
            # each resume is a span; only the first counts as a call
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = enter()
                    t0 = clock()
                    done = False
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    finally:
                        leave(frame, t0, clock(), False, first)
                    first = False
                    if done:
                        return
                    yield item
            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                frame = enter()
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(frame, t0, clock(), predicate and result, True)
            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # results ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per function: calls, self_ms, cum_ms, truthy calls."""
        out = {name: {"calls": 0, "self_ms": 0.0, "cum_ms": 0.0, "truthy": 0}
               for name in self.names}
        for (key, _), (calls, self_s, cum_s, truthy) in self.edges.items():
            row = out[self.names[key]]
            row["calls"] += calls
            row["self_ms"] += self_s * 1e3
            row["cum_ms"] += cum_s * 1e3
            row["truthy"] += truthy
        return out

    def calls_from(self, name: str, parent: str) -> int:
        row = self.edges.get((self._index[name], self._index[parent]))
        return row[0] if row else 0

    def dump(self, path, extra: dict) -> None:
        """Write the aggregated table and every kept span as JSON."""
        parent_name = {_ROOT: None}
        parent_name.update(enumerate(self.names))
        doc = dict(extra)
        doc["edges"] = [
            {"name": self.names[k], "parent": parent_name[p], "calls": r[0],
             "self_ms": r[1] * 1e3, "cum_ms": r[2] * 1e3, "truthy": r[3]}
            for (k, p), r in sorted(self.edges.items())]
        doc["span_names"] = list(self.names)
        doc["spans"] = {
            "fields": ["name", "parent_span", "start_s", "end_s"],
            "name": self.span_name.tolist(),
            "parent_span": self.span_parent.tolist(),
            "start_s": [round(t - self.t0, 7) for t in self.span_start],
            "end_s": [round(t - self.t0, 7) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
