"""Independent replay of decomposition certificates.

verify_certificate trusts nothing from the certificate body: it walks
the JSON schema once, recording each declared graph's shape (vertex
count and sorted edge pairs; edge ids are not serialized), then
recomputes the whole contraction chain from the host graph, checking
each recomputed graph against its declared shape, re-validating each
witness from first principles, and replaying the final witnesses.
Failures carry a reason code and the JSON path of the offending field.

witness_failure states, once, the rule every contraction step and, with
the final cut as its own reference, every final witness obeys: the cut
is nontrivial, does not cross the reference, and a valid barrier or
two-separation generates it. The producer calls it too, inside the
WitnessFinding check that the sweep re-runs.
The final block lists witnesses in a step's witness form; at least one
is required, and a two-separation among them after a reduction. The
producer lists the largest barrier witness per shore and every
two-separation; that the list is complete stays unchecked.

No cut is tested for tightness: the witnesses prove it. Each graph of
the chain has a perfect matching M (the host is matching covered, and M
meets a tight cut once, so it leaves one in each contraction).
Fact 1: barrier and two-separation cuts are tight. If g - B has |B| odd
components, each sends at least one of the |B| edges of M at B, so
exactly one, and its cut holds every edge leaving it. For a
two-separation {u, v} with even sides S1, S2, 0 or 2 vertices of
A = S1 - {u, v} are matched to u or v, so the cut at A + v (A + u is
symmetric) holds one edge of M: the one at v (uv, or into S2) with 0,
the one from u into A with 2.
Fact 2: if C does not cross a tight cut D and h collapses a D-shore
inside a shore of C, then C tight in h makes C tight in g: M less its
edges inside that shore is a perfect matching of h meeting C in the
same edges. The converse holds for matching covered g, and the
producer relies on it (Fact 4 in decompose.py).
The replay checks that each witness generates its cut and each
contracted shore lies strictly inside a reference shore; by Fact 1, then
Fact 2 once per step back from the last graph, the input cut is tight.
The image of the reference cut is its old shore with the contracted
part replaced by the new vertex: no cut edge lies inside that part, so
every one keeps its id, and both image shores keep two or more vertices.

The verifier is independent of the producer's search, not of its
primitives. Both sides rely on is_matching_covered, is_barrier,
make_two_separation and two_separation_cuts; on Graph, its methods
boundary and contract, and GraphError; on Cut and its crosses; and on
_Value, the base of every value type. A Graph handed in by the caller
also keeps whatever the producer memoized on it, matchings, barrier
answers and strictness answers included, and so do its memoized
contractions: a replayed contraction the producer also built is the
producer's object, with its caches.
"""

from __future__ import annotations

from .graph import Cut, Graph, GraphError, _Value
from .matching import is_matching_covered
from .structure import is_barrier, make_two_separation, two_separation_cuts

R_SCHEMA = "schema violation"
R_INPUT = "input mismatch"
R_CONTRACTION = "contraction mismatch"
R_NOT_BARRIER = "witness not a barrier"
R_NOT_TWOSEP = "witness not a two-separation"
R_NO_GENERATE = "witness does not generate cut"
R_TRIVIAL = "cut trivial"
R_CROSSES = "cut crosses reference"
R_SHORE = "contracted shore not a cut shore"
R_REMOVES = "contraction removes reference shore"
R_FINAL_2SEP = "final not a two-separation cut"
R_FINAL_WITNESSED = "final not witnessed"
R_STEPS = "step count mismatch"


class VerificationResult(_Value):
    __slots__ = ("ok", "failures")

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        if self.ok:
            return "VerificationResult(ok)"
        inner = "; ".join(f"{code} at {path}" for code, path in self.failures)
        return f"VerificationResult(failed: {inner})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vertex_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _check_graph_obj(obj, path, failures, shapes) -> None:
    """Check a serialized graph and record its shape, (n, sorted edge
    pairs), under its path.

    Edge i must be a list of two distinct ints (bools are not ints
    here), in either order; anything else fails at path.edges[i]. Each
    entry costs one list test, one unpacking and two int tests, the
    exact-type test first, and the pairs are sorted in place: this walk
    is a fixed cost of every verification.
    """
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        failures.append((R_SCHEMA, path))
        return
    if not _is_int(obj["n"]) or obj["n"] < 0:
        failures.append((R_SCHEMA, path + ".n"))
    if not isinstance(obj["edges"], list):
        failures.append((R_SCHEMA, path + ".edges"))
        return
    pairs = []
    for i, e in enumerate(obj["edges"]):
        if isinstance(e, list) and len(e) == 2:
            a, b = e
            if ((type(a) is int or _is_int(a))
                    and (type(b) is int or _is_int(b)) and a != b):
                pairs.append((a, b) if a < b else (b, a))
                continue
        failures.append((R_SCHEMA, f"{path}.edges[{i}]"))
    pairs.sort()
    shapes[path] = (obj["n"], pairs)


def _check_witness_obj(obj, path, failures) -> None:
    if not isinstance(obj, dict) or "kind" not in obj:
        failures.append((R_SCHEMA, path))
    elif obj["kind"] == "barrier":
        if set(obj) != {"kind", "members"} or not _is_vertex_list(
                obj.get("members")) or not obj["members"]:
            failures.append((R_SCHEMA, path))
    elif obj["kind"] == "twosep":
        if set(obj) != {"kind", "pair", "side1", "side2"}:
            failures.append((R_SCHEMA, path))
            return
        pair = obj["pair"]
        if not _is_vertex_list(pair) or len(pair) != 2 or pair[0] == pair[1]:
            failures.append((R_SCHEMA, path + ".pair"))
        for name in ("side1", "side2"):
            if not _is_vertex_list(obj[name]) or not obj[name]:
                failures.append((R_SCHEMA, f"{path}.{name}"))
    else:
        failures.append((R_SCHEMA, path + ".kind"))


def _check_schema(cert, failures) -> dict:
    """Check cert, appending to failures; the schema holds iff none is
    appended. Returns the shape of each serialized graph by its path."""
    shapes: dict = {}
    if not isinstance(cert, dict) or set(cert) != {
            "input", "steps", "final", "r"}:
        failures.append((R_SCHEMA, "$"))
        return shapes
    inp = cert["input"]
    if not isinstance(inp, dict) or set(inp) != {"graph", "cut_shore"}:
        failures.append((R_SCHEMA, "$.input"))
    else:
        _check_graph_obj(inp["graph"], "$.input.graph", failures, shapes)
        if not _is_vertex_list(inp["cut_shore"]) or not inp["cut_shore"]:
            failures.append((R_SCHEMA, "$.input.cut_shore"))
    steps = cert["steps"]
    if not isinstance(steps, list):
        failures.append((R_SCHEMA, "$.steps"))
    else:
        required = {"graph", "cut_shore", "witness", "contracted_shore",
                    "new_vertex"}
        for i, step in enumerate(steps):
            path = f"$.steps[{i}]"
            if not isinstance(step, dict) or set(step) != required:
                failures.append((R_SCHEMA, path))
                continue
            _check_graph_obj(step["graph"], path + ".graph", failures, shapes)
            for name in ("cut_shore", "contracted_shore"):
                if not _is_vertex_list(step[name]) or not step[name]:
                    failures.append((R_SCHEMA, f"{path}.{name}"))
            _check_witness_obj(step["witness"], path + ".witness", failures)
            if not _is_int(step["new_vertex"]):
                failures.append((R_SCHEMA, path + ".new_vertex"))
    final = cert["final"]
    if not isinstance(final, dict) or set(final) != {"graph", "witnesses"}:
        failures.append((R_SCHEMA, "$.final"))
    else:
        _check_graph_obj(final["graph"], "$.final.graph", failures, shapes)
        if not isinstance(final["witnesses"], list):
            failures.append((R_SCHEMA, "$.final.witnesses"))
        else:
            for i, obj in enumerate(final["witnesses"]):
                _check_witness_obj(obj, f"$.final.witnesses[{i}]", failures)
    if not _is_int(cert["r"]) or cert["r"] < 1:
        failures.append((R_SCHEMA, "$.r"))
    return shapes


def _same_shape(g: Graph, shape) -> bool:
    return g._memo("shape", _shape, g) == shape


def _shape(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """g's shape as _check_graph_obj records it, (n, sorted edge pairs),
    built once per graph: a replay compares a graph more than once, the
    host twice when r = 1. No replayed graph has an isolated vertex,
    whose label the pairs would not record: _replay fails any host that
    is not matching covered, so connected, before it compares a shape,
    and a contraction of a connected graph that keeps two or more
    vertices is connected."""
    return g.n, sorted(map(g.edge_ends, g.edge_ids))


def _raw(obj):
    """A serialized witness in the form witness_failure takes."""
    if "members" in obj:
        return frozenset(obj["members"])
    return (tuple(obj["pair"]), frozenset(obj["side1"]), frozenset(obj["side2"]))


def witness_failure(g: Graph, reference: Cut, cut: Cut, witness) -> str | None:
    """Why cut is no valid contraction step against reference, or None.

    The witness comes raw: a set of barrier members, or a
    (pair, side1, side2) tuple for a two-separation. It is re-validated
    here. The first failing reason code is returned, in this order:
    R_TRIVIAL, R_CROSSES, R_NOT_BARRIER or R_NOT_TWOSEP for an invalid
    witness, else R_NO_GENERATE. A cut that passes is tight (Fact 1).
    """
    if cut.is_trivial:
        return R_TRIVIAL
    if cut.crosses(reference):
        return R_CROSSES
    if isinstance(witness, tuple):
        try:
            ts = make_two_separation(g, *witness)
        except GraphError:
            return R_NOT_TWOSEP
        if cut not in two_separation_cuts(g, ts):
            return R_NO_GENERATE
        return None
    try:
        b = is_barrier(g, witness)
    except GraphError:
        return R_NOT_BARRIER
    if b is None:
        return R_NOT_BARRIER
    if cut.shore not in b.odd_parts and cut.other_shore not in b.odd_parts:
        return R_NO_GENERATE
    return None


def verify_certificate(g: Graph, c: Cut, cert) -> VerificationResult:
    """Replay the chain from (g, c) and check the certificate against it.

    cert is the JSON form, or an object whose to_json_dict gives it, as
    a DecompositionCertificate's does.
    """
    if hasattr(cert, "to_json_dict"):
        cert = cert.to_json_dict()
    failures: list[tuple[str, str]] = []
    shapes = _check_schema(cert, failures)
    if failures:
        return VerificationResult(False, tuple(failures))
    return _replay(g, c, cert, shapes)


def verify_json(cert) -> VerificationResult:
    """Check a certificate's JSON form against the host graph and cut
    its own input block declares, as `tightcut verify` does.

    The schema walk runs first, so a malformed input block fails at the
    path verify_certificate names. Only then is the host built, on the
    certificate's own vertex labels, from the sorted pairs the walk
    checked; no replay outcome depends on the edge ids that order
    gives. A certificate graph has no isolated vertex, so an order
    above twice the edge count fails with R_INPUT at $ before any graph
    is built, and a declared cut shore that is no shore of the host
    fails with R_INPUT at $.input.cut_shore, as it does in
    verify_certificate.
    """
    failures: list[tuple[str, str]] = []
    shapes = _check_schema(cert, failures)
    if failures:
        return VerificationResult(False, tuple(failures))
    n, pairs = shapes["$.input.graph"]
    if n > 2 * len(pairs):
        return VerificationResult(False, ((R_INPUT, "$"),))
    g = Graph.from_edges(pairs)
    try:
        c = g.boundary(frozenset(cert["input"]["cut_shore"]))
    except GraphError:
        return VerificationResult(False, ((R_INPUT, "$.input.cut_shore"),))
    return _replay(g, c, cert, shapes)


def _replay(g: Graph, c: Cut, cert, shapes) -> VerificationResult:
    """verify_certificate after its schema walk, which gave shapes."""

    def fail(code: str, path: str) -> VerificationResult:
        return VerificationResult(False, ((code, path),))

    if c.graph is not g or not is_matching_covered(g) or c.is_trivial:
        return fail(R_INPUT, "$")
    if not _same_shape(g, shapes["$.input.graph"]):
        return fail(R_INPUT, "$.input.graph")
    declared = frozenset(cert["input"]["cut_shore"])
    if declared not in c.shores():
        return fail(R_INPUT, "$.input.cut_shore")
    if cert["r"] != len(cert["steps"]) + 1:
        return fail(R_STEPS, "$.r")

    cur_g, cur_c = g, c
    for i, step in enumerate(cert["steps"]):
        path = f"$.steps[{i}]"
        if not _same_shape(cur_g, shapes[path + ".graph"]):
            return fail(R_CONTRACTION, path + ".graph")
        shore = frozenset(step["cut_shore"])
        try:
            step_cut = cur_g.boundary(shore)
        except GraphError:
            return fail(R_SCHEMA, path + ".cut_shore")
        reason = witness_failure(cur_g, cur_c, step_cut, _raw(step["witness"]))
        if reason is not None:
            suffix = (".cut_shore" if reason in (R_TRIVIAL, R_CROSSES)
                      else ".witness")
            return fail(reason, path + suffix)

        contracted = frozenset(step["contracted_shore"])
        if contracted not in step_cut.shores():
            return fail(R_SHORE, path + ".contracted_shore")
        kept = next((s for s in cur_c.shores() if contracted < s), None)
        if kept is None:
            return fail(R_REMOVES, path + ".contracted_shore")
        label = step["new_vertex"]
        try:
            cur_g = cur_g.contract(contracted, label)
        except GraphError:
            return fail(R_CONTRACTION, path + ".new_vertex")
        cur_c = cur_g.boundary((kept - contracted) | {label})

    if not _same_shape(cur_g, shapes["$.final.graph"]):
        return fail(R_CONTRACTION, "$.final.graph")
    witnesses = cert["final"]["witnesses"]
    path = "$.final.witnesses"
    if cert["r"] > 1 and all(w["kind"] != "twosep" for w in witnesses):
        return fail(R_FINAL_2SEP, path)
    if not witnesses:
        return fail(R_FINAL_WITNESSED, path)
    for i, w in enumerate(witnesses):
        if witness_failure(cur_g, cur_c, cur_c, _raw(w)) is not None:
            code = R_FINAL_WITNESSED if w["kind"] == "barrier" else R_FINAL_2SEP
            return fail(code, f"{path}[{i}]")
    return VerificationResult(True, ())
