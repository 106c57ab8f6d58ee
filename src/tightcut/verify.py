"""Independent replay of decomposition certificates.

verify_certificate trusts nothing from the certificate body: it walks
the JSON schema first, then recomputes the whole contraction chain from
the host graph, checking each declared graph against the recomputed one
by shape (vertex labels and edge multiset; edge ids are not serialized),
re-validating each witness from first principles, and replaying the
final claims. Failures carry a reason code and the JSON path of the
offending field.

witness_failure states, once, the rule every contraction step obeys:
the cut is tight, nontrivial, does not cross the reference cut, and is
generated by a valid barrier or two-separation. The decomposition
procedure and the sweep call it too. A final claim is held to the last
part alone, _generation_failure, because the replay has already proved
the final cut tight and nontrivial, and a cut never crosses itself.
That the final lists hold every witness of the cut stays unchecked.

The verifier is independent of the producer's search, not of its
primitives. Both sides rely on is_matching_covered, is_tight,
is_barrier, make_two_separation, two_separation_cuts, Cut.crosses and
the Graph methods boundary, contract and cut_from_edge_ids. A Graph
handed in by the caller also keeps whatever the producer memoized on
it, matchings included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificate import DecompositionCertificate
from .cuts import is_tight
from .graph import Cut, Graph, GraphError
from .matching import is_matching_covered
from .structure import is_barrier, make_two_separation, two_separation_cuts

R_SCHEMA = "schema violation"
R_INPUT = "input mismatch"
R_CONTRACTION = "contraction mismatch"
R_NOT_BARRIER = "witness not a barrier"
R_NOT_TWOSEP = "witness not a two-separation"
R_NO_GENERATE = "witness does not generate cut"
R_NOT_TIGHT = "cut not tight"
R_TRIVIAL = "cut trivial"
R_CROSSES = "cut crosses reference"
R_REF = "reference cut corrupted"
R_SHORE = "contracted shore not a cut shore"
R_REMOVES = "contraction removes reference shore"
R_FINAL_2SEP = "final not a two-separation cut"
R_FINAL_WITNESSED = "final not witnessed"
R_STEPS = "step count mismatch"


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[tuple[str, str], ...]

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


def _check_graph_obj(obj, path, failures) -> bool:
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        failures.append((R_SCHEMA, path))
        return False
    ok = True
    if not _is_int(obj["n"]) or obj["n"] < 0:
        failures.append((R_SCHEMA, path + ".n"))
        ok = False
    if not isinstance(obj["edges"], list):
        failures.append((R_SCHEMA, path + ".edges"))
        return False
    for i, e in enumerate(obj["edges"]):
        if (not isinstance(e, list) or len(e) != 2
                or not all(_is_int(v) for v in e) or e[0] == e[1]):
            failures.append((R_SCHEMA, f"{path}.edges[{i}]"))
            ok = False
    return ok


def _check_witness_obj(obj, path, failures) -> bool:
    if not isinstance(obj, dict) or "kind" not in obj:
        failures.append((R_SCHEMA, path))
        return False
    kind = obj["kind"]
    if kind == "barrier":
        if set(obj) != {"kind", "members"} or not _is_vertex_list(
                obj.get("members")) or not obj["members"]:
            failures.append((R_SCHEMA, path))
            return False
        return True
    if kind == "twosep":
        if set(obj) != {"kind", "pair", "side1", "side2"}:
            failures.append((R_SCHEMA, path))
            return False
        ok = True
        pair = obj["pair"]
        if not _is_vertex_list(pair) or len(pair) != 2 or pair[0] == pair[1]:
            failures.append((R_SCHEMA, path + ".pair"))
            ok = False
        for name in ("side1", "side2"):
            if not _is_vertex_list(obj[name]) or not obj[name]:
                failures.append((R_SCHEMA, f"{path}.{name}"))
                ok = False
        return ok
    failures.append((R_SCHEMA, path + ".kind"))
    return False


def _check_claim(obj, kind, path, failures) -> bool:
    """A final claim is a step witness less its kind; a barrier claim adds
    the index of the shore it leaves as an odd part."""
    if not isinstance(obj, dict) or "kind" in obj:
        failures.append((R_SCHEMA, path))
        return False
    witness = dict(obj, kind=kind)
    if kind == "barrier":
        index = witness.pop("shore_index", None)
        if not _is_int(index) or index not in (0, 1):
            failures.append((R_SCHEMA, path + ".shore_index"))
            return False
    return _check_witness_obj(witness, path, failures)


def _check_schema(cert, failures) -> bool:
    if not isinstance(cert, dict) or set(cert) != {
            "input", "steps", "final", "r"}:
        failures.append((R_SCHEMA, "$"))
        return False
    ok = True
    inp = cert["input"]
    if not isinstance(inp, dict) or set(inp) != {"graph", "cut_shore"}:
        failures.append((R_SCHEMA, "$.input"))
        ok = False
    else:
        ok = _check_graph_obj(inp["graph"], "$.input.graph", failures) and ok
        if not _is_vertex_list(inp["cut_shore"]) or not inp["cut_shore"]:
            failures.append((R_SCHEMA, "$.input.cut_shore"))
            ok = False
    steps = cert["steps"]
    if not isinstance(steps, list):
        failures.append((R_SCHEMA, "$.steps"))
        ok = False
    else:
        required = {"graph", "cut_shore", "witness", "contracted_shore",
                    "new_vertex"}
        for i, step in enumerate(steps):
            path = f"$.steps[{i}]"
            if not isinstance(step, dict) or set(step) != required:
                failures.append((R_SCHEMA, path))
                ok = False
                continue
            ok = _check_graph_obj(step["graph"], path + ".graph", failures) and ok
            for name in ("cut_shore", "contracted_shore"):
                if not _is_vertex_list(step[name]) or not step[name]:
                    failures.append((R_SCHEMA, f"{path}.{name}"))
                    ok = False
            ok = _check_witness_obj(
                step["witness"], path + ".witness", failures) and ok
            if not _is_int(step["new_vertex"]):
                failures.append((R_SCHEMA, path + ".new_vertex"))
                ok = False
    final = cert["final"]
    if not isinstance(final, dict) or set(final) != {"graph", "classification"}:
        failures.append((R_SCHEMA, "$.final"))
        ok = False
    else:
        ok = _check_graph_obj(final["graph"], "$.final.graph", failures) and ok
        cls = final["classification"]
        if not isinstance(cls, dict) or not {
                "tight", "trivial", "witnessed", "barriers",
                "two_separations"} <= set(cls):
            failures.append((R_SCHEMA, "$.final.classification"))
            ok = False
        else:
            for name in ("tight", "trivial", "witnessed"):
                if not isinstance(cls[name], bool):
                    failures.append(
                        (R_SCHEMA, f"$.final.classification.{name}"))
                    ok = False
            for name, kind in (("barriers", "barrier"),
                               ("two_separations", "twosep")):
                path = f"$.final.classification.{name}"
                if not isinstance(cls[name], list):
                    failures.append((R_SCHEMA, path))
                    ok = False
                    continue
                for i, obj in enumerate(cls[name]):
                    ok = _check_claim(
                        obj, kind, f"{path}[{i}]", failures) and ok
    if not _is_int(cert["r"]) or cert["r"] < 1:
        failures.append((R_SCHEMA, "$.r"))
        ok = False
    return ok


def _same_shape(g: Graph, obj: dict) -> bool:
    if obj["n"] != g.n:
        return False
    mine = sorted(tuple(sorted(g.edge_ends(eid))) for eid in g.edge_ids)
    theirs = sorted((min(e), max(e)) for e in obj["edges"])
    if mine != theirs:
        return False
    # isolated vertices have no serialized identity, so require none
    return g.vertex_set == {v for pair in mine for v in pair}


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
    R_NOT_TIGHT, R_TRIVIAL, R_CROSSES, then _generation_failure's.
    """
    if not is_tight(g, cut):
        return R_NOT_TIGHT
    if cut.is_trivial:
        return R_TRIVIAL
    if cut.crosses(reference):
        return R_CROSSES
    return _generation_failure(g, cut, witness)


def _generation_failure(g: Graph, cut: Cut, witness) -> str | None:
    """Why the raw witness does not generate cut, or None: R_NOT_BARRIER
    or R_NOT_TWOSEP for an invalid witness, else R_NO_GENERATE."""
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
    # a tight cut has an odd shore, so only odd components can match it
    if cut.shore not in b.odd_parts and cut.other_shore not in b.odd_parts:
        return R_NO_GENERATE
    return None


def verify_certificate(g: Graph, c: Cut, cert) -> VerificationResult:
    """Replay the chain from (g, c) and check the certificate against it."""
    if isinstance(cert, DecompositionCertificate):
        cert = cert.to_json_dict()
    failures: list[tuple[str, str]] = []
    if not _check_schema(cert, failures):
        return VerificationResult(False, tuple(failures))

    def fail(code: str, path: str) -> VerificationResult:
        return VerificationResult(False, ((code, path),))

    if c.graph is not g or not is_matching_covered(g):
        return fail(R_INPUT, "$")
    if not is_tight(g, c):
        return fail(R_INPUT, "$")
    if c.is_trivial:
        return fail(R_INPUT, "$")
    if not _same_shape(g, cert["input"]["graph"]):
        return fail(R_INPUT, "$.input.graph")
    declared = frozenset(cert["input"]["cut_shore"])
    if declared not in c.shores():
        return fail(R_INPUT, "$.input.cut_shore")
    if cert["r"] != len(cert["steps"]) + 1:
        return fail(R_STEPS, "$.r")

    cur_g, cur_c = g, c
    for i, step in enumerate(cert["steps"]):
        path = f"$.steps[{i}]"
        if not _same_shape(cur_g, step["graph"]):
            return fail(R_CONTRACTION, path + ".graph")
        shore = frozenset(step["cut_shore"])
        try:
            step_cut = cur_g.boundary(shore)
        except GraphError:
            return fail(R_SCHEMA, path + ".cut_shore")
        reason = witness_failure(cur_g, cur_c, step_cut, _raw(step["witness"]))
        if reason is not None:
            suffix = (".cut_shore" if reason in (R_NOT_TIGHT, R_TRIVIAL,
                                                 R_CROSSES) else ".witness")
            return fail(reason, path + suffix)

        contracted = frozenset(step["contracted_shore"])
        if contracted not in step_cut.shores():
            return fail(R_SHORE, path + ".contracted_shore")
        if not (contracted < cur_c.shore or contracted < cur_c.other_shore):
            return fail(R_REMOVES, path + ".contracted_shore")
        label = step["new_vertex"]
        try:
            cur_g = cur_g.contract(contracted, label)
        except GraphError:
            return fail(R_CONTRACTION, path + ".new_vertex")
        try:
            cur_c = cur_g.cut_from_edge_ids(cur_c.edge_ids)
        except GraphError:
            return fail(R_REF, path)
        if cur_c.is_trivial or not is_tight(cur_g, cur_c):
            return fail(R_REF, path)

    if not _same_shape(cur_g, cert["final"]["graph"]):
        return fail(R_CONTRACTION, "$.final.graph")
    claims = cert["final"]["classification"]
    path = "$.final.classification"
    if not claims["witnessed"]:
        # honest certs always end witnessed; a false flag is tampering
        return fail(R_FINAL_WITNESSED, path)
    if cert["r"] > 1 and not claims["two_separations"]:
        return fail(R_FINAL_2SEP, path)
    # the replay has proved cur_c tight and nontrivial, so a claim need
    # only generate it
    if not claims["tight"]:
        return fail(R_FINAL_WITNESSED, path + ".tight")
    if claims["trivial"]:
        return fail(R_FINAL_WITNESSED, path + ".trivial")
    if not claims["barriers"] and not claims["two_separations"]:
        return fail(R_FINAL_WITNESSED, path)
    for name, code in (("barriers", R_FINAL_WITNESSED),
                       ("two_separations", R_FINAL_2SEP)):
        for i, claim in enumerate(claims[name]):
            raw = _raw(claim)
            # the shore among the odd parts avoids the barrier, which meets
            # the other shore, so shore_index names the one it avoids
            if _generation_failure(cur_g, cur_c, raw) is not None or (
                    name == "barriers"
                    and raw & cur_c.shores()[claim["shore_index"]]):
                return fail(code, f"{path}.{name}[{i}]")
    return VerificationResult(True, ())
