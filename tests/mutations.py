"""Certificate mutation corpus for the verifier tests.

mutation_targets builds the genuine certificates the corpus mutates and
target_mutants mutates each of them; the verifier unit tests and the
acceptance gate share both. mutation_corpus takes one genuine
DecompositionCertificate and returns (label, mutated_json,
expected_reason) triples. Schema mutants are generated mechanically,
one per structural position; semantic mutants are built against the
real replay chain so the expected reason code is known, not guessed.
The final witnesses are mutated like everything else: schema mutants
reach each entry of the list, and semantic mutants add an invalid,
non-generating or stale barrier or two-separation, spoil each entry in
place, or drop the ones the verifier requires.
"""

import copy
from itertools import combinations

from tightcut.cuts import enumerate_tight_cuts
from tightcut.decompose import decompose_tight_cut
from tightcut.graph import GraphError
from tightcut.instances import fixture_instances
from tightcut.structure import enumerate_barriers, find_2separations, \
    is_barrier, two_separation_cuts
from tightcut.verify import (
    R_CONTRACTION,
    R_CROSSES,
    R_FINAL_2SEP,
    R_FINAL_WITNESSED,
    R_INPUT,
    R_NO_GENERATE,
    R_NOT_BARRIER,
    R_NOT_TWOSEP,
    R_REMOVES,
    R_SCHEMA,
    R_SHORE,
    R_STEPS,
    R_TRIVIAL,
)

from conftest import cycle


def _addresses(obj, trail=()):
    yield trail, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _addresses(v, trail + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _addresses(v, trail + (i,))


def _navigate(cert, trail):
    node = cert
    for k in trail[:-1]:
        node = node[k]
    return node


def _without(cert, trail):
    out = copy.deepcopy(cert)
    del _navigate(out, trail)[trail[-1]]
    return out


def _replaced(cert, trail, value):
    out = copy.deepcopy(cert)
    _navigate(out, trail)[trail[-1]] = value
    return out


def _fmt(trail):
    return ".".join(str(k) for k in trail)


def _signature(trail):
    return tuple("*" if isinstance(k, int) else k for k in trail)


def _schema_mutants(base):
    seen = set()
    for trail, node in _addresses(base):
        if isinstance(node, dict):
            for k in node:
                sub = trail + (k,)
                sig = ("del",) + _signature(sub)
                if sig not in seen:
                    seen.add(sig)
                    yield f"del:{_fmt(sub)}", _without(base, sub), R_SCHEMA
        elif isinstance(node, bool):
            sig = ("bool",) + _signature(trail)
            if sig not in seen:
                seen.add(sig)
                yield f"bool:{_fmt(trail)}", _replaced(base, trail, "yes"), \
                    R_SCHEMA
        elif isinstance(node, int):
            sig = ("int",) + _signature(trail)
            if sig not in seen:
                seen.add(sig)
                yield f"int:{_fmt(trail)}", _replaced(base, trail, "bogus"), \
                    R_SCHEMA
        elif isinstance(node, list):
            sig = ("list",) + _signature(trail)
            if sig not in seen:
                seen.add(sig)
                yield f"list:{_fmt(trail)}", _replaced(base, trail, 17), \
                    R_SCHEMA


def _hand_schema_mutants(base):
    def with_extra(trail):
        out = copy.deepcopy(base)
        node = out
        for k in trail:
            node = node[k]
        node["extra"] = 1
        return out

    yield "extra:$", with_extra(()), R_SCHEMA
    yield "extra:input", with_extra(("input",)), R_SCHEMA
    yield "extra:final", with_extra(("final",)), R_SCHEMA
    # the final block's earlier form has no reader
    yield ("classification:final", _replaced(base, ("final",), {
        "graph": base["final"]["graph"], "classification": {
            "tight": True, "trivial": False, "witnessed": True,
            "barriers": [], "two_separations": []}}), R_SCHEMA)
    yield "neg-n", _replaced(base, ("input", "graph", "n"), -1), R_SCHEMA
    yield "zero-r", _replaced(base, ("r",), 0), R_SCHEMA
    yield ("loop-edge", _replaced(base, ("input", "graph", "edges", 0),
                                  [0, 0]), R_SCHEMA)
    yield ("short-edge", _replaced(base, ("input", "graph", "edges", 0),
                                   [0]), R_SCHEMA)
    yield ("empty-shore", _replaced(base, ("input", "cut_shore"), []),
           R_SCHEMA)
    if base["steps"]:
        yield "extra:step", with_extra(("steps", 0)), R_SCHEMA
        yield "extra:witness", with_extra(("steps", 0, "witness")), R_SCHEMA
        yield ("bad-kind", _replaced(base, ("steps", 0, "witness", "kind"),
                                     "magic"), R_SCHEMA)
        w = base["steps"][0]["witness"]
        if w["kind"] == "barrier":
            yield ("empty-members",
                   _replaced(base, ("steps", 0, "witness", "members"), []),
                   R_SCHEMA)
    # every final entry is schema-checked, and its kind must match its fields
    for i, w in enumerate(base["final"]["witnesses"]):
        kind = ("final", "witnesses", i, "kind")
        yield (f"extra:final-witness[{i}]",
               with_extra(("final", "witnesses", i)), R_SCHEMA)
        yield f"bad-kind:final[{i}]", _replaced(base, kind, "magic"), R_SCHEMA
        other = "twosep" if w["kind"] == "barrier" else "barrier"
        yield f"retyped:final[{i}]", _replaced(base, kind, other), R_SCHEMA
    for i, step in enumerate(base["steps"]):
        if step["witness"]["kind"] == "twosep":
            pair = step["witness"]["pair"]
            yield (f"long-pair[{i}]",
                   _replaced(base, ("steps", i, "witness", "pair"),
                             pair + [pair[0]]), R_SCHEMA)
            yield (f"same-pair[{i}]",
                   _replaced(base, ("steps", i, "witness", "pair"),
                             [pair[0], pair[0]]), R_SCHEMA)
            break


def _probe_nonbarrier(g):
    for size in (2, 3):
        if size >= g.n:
            break
        for combo in combinations(g.vertices, size):
            if is_barrier(g, set(combo)) is None:
                return sorted(combo)
    return None


def _probe_nongenerating_barrier(g, step_cut):
    shores = set(step_cut.shores())
    for v in g.vertices:
        b = is_barrier(g, {v})
        if b is None:
            continue
        if not shores & set(g.components_without(frozenset({v}))):
            return [v]
    for b in enumerate_barriers(g):
        if b.is_nontrivial and not shores & set(
                g.components_without(b.members)):
            return sorted(b.members)
    return None


def _generates(g, cut, members):
    try:
        b = is_barrier(g, set(members))
    except GraphError:
        return False
    return b is not None and bool(set(cut.shores()) & set(b.odd_parts))


def _probe_grown_barrier(g, cut, members):
    # members plus one vertex that no longer make a barrier generating cut
    for v in g.vertices:
        if v not in members and not _generates(g, cut, set(members) | {v}):
            return sorted(set(members) | {v})
    return None


def _probe_stale_barrier(cert):
    # a step's barrier, replayed against the final cut it did not generate
    for step in cert.steps:
        members = step.to_json_dict()["witness"].get("members")
        if members and not _generates(cert.final_graph,
                                      cert.final_classification.cut, members):
            return members
    return None


def _probe_nontight_shore(c):
    # even proper shores are never tight: crossings have even parity. Two
    # vertices of the smaller reference shore never cross the reference,
    # so only the generation check is left to refuse them
    return sorted(min(c.shores(), key=len))[:2]


def _probe_crossing_shore(g, c):
    if g.n > 16:
        return None
    for cut in enumerate_tight_cuts(g, nontrivial_only=True):
        if cut.crosses(c):
            return sorted(cut.shore)
    return None


def _probe_other_twosep(g, step_cut):
    for s in find_2separations(g):
        if step_cut not in two_separation_cuts(g, s):
            return s
    return None


def _semantic_mutants(cert):
    base = cert.to_json_dict()
    g, c = cert.input_graph, cert.input_cut

    yield ("shape:$.input.graph",
           _replaced(base, ("input", "graph", "n"), g.n + 2), R_INPUT)
    edges = base["input"]["graph"]["edges"] + [list(g.edge_ends(0))]
    yield ("edges:$.input.graph",
           _replaced(base, ("input", "graph", "edges"), edges), R_INPUT)
    shore = sorted(c.shore)
    if len(shore) > 1:
        yield ("shore:$.input.cut_shore",
               _replaced(base, ("input", "cut_shore"), shore[:-1]), R_INPUT)
    yield "r:+1", _replaced(base, ("r",), base["r"] + 1), R_STEPS

    if cert.steps:
        step0 = cert.steps[0]
        g0, cut0, ref0 = step0.graph, step0.cut, cert.input_cut
        prefix = ("steps", 0)
        tampered = base["steps"][0]["graph"]["edges"] + [
            list(g0.edge_ends(next(iter(g0.edge_ids))))]
        yield ("shape:steps[0].graph",
               _replaced(base, prefix + ("graph", "edges"), tampered),
               R_CONTRACTION)
        yield ("nontight:steps[0]",
               _replaced(base, prefix + ("cut_shore",),
                         _probe_nontight_shore(ref0)), R_NO_GENERATE)
        yield ("trivial:steps[0]",
               _replaced(base, prefix + ("cut_shore",), [g0.vertices[0]]),
               R_TRIVIAL)
        crossing = _probe_crossing_shore(g0, ref0)
        if crossing is not None:
            yield ("crossing:steps[0]",
                   _replaced(base, prefix + ("cut_shore",), crossing),
                   R_CROSSES)
        yield ("ghost-shore:steps[0]",
               _replaced(base, prefix + ("cut_shore",),
                         [g0.vertices[0], max(g0.vertices) + 99]), R_SCHEMA)

        if step0.to_json_dict()["witness"]["kind"] == "barrier":
            nonbarrier = _probe_nonbarrier(g0)
            if nonbarrier is not None:
                yield ("nonbarrier:steps[0]",
                       _replaced(base, prefix + ("witness", "members"),
                                 nonbarrier), R_NOT_BARRIER)
            yield ("ghost-barrier:steps[0]",
                   _replaced(base, prefix + ("witness", "members"),
                             [g0.vertices[0], max(g0.vertices) + 99]),
                   R_NOT_BARRIER)
            lazy = _probe_nongenerating_barrier(g0, cut0)
            if lazy is not None:
                yield ("lazy-barrier:steps[0]",
                       _replaced(base, prefix + ("witness", "members"), lazy),
                       R_NO_GENERATE)

        contracted = frozenset(base["steps"][0]["contracted_shore"])
        if len(contracted) > 1:
            yield ("subshore:steps[0]",
                   _replaced(base, prefix + ("contracted_shore",),
                             sorted(contracted)[:-1]), R_SHORE)
        other = next(s for s in cut0.shores() if s != contracted)
        if not (other < ref0.shore or other < ref0.other_shore):
            yield ("keep-shore:steps[0]",
                   _replaced(base, prefix + ("contracted_shore",),
                             sorted(other)), R_REMOVES)
        survivor = min(set(g0.vertices) - contracted)
        yield ("label-clash:steps[0]",
               _replaced(base, prefix + ("new_vertex",), survivor),
               R_CONTRACTION)

        for i, step in enumerate(cert.steps):
            js = step.to_json_dict()
            if js["witness"]["kind"] != "twosep":
                continue
            pair = set(js["witness"]["pair"])
            side1 = js["witness"]["side1"]
            trimmed = [v for v in side1 if v not in pair]
            if trimmed:
                yield (f"broken-sides:steps[{i}]",
                       _replaced(base, ("steps", i, "witness", "side1"),
                                 [v for v in side1 if v != trimmed[0]]),
                       R_NOT_TWOSEP)
            alt = _probe_other_twosep(step.graph, step.cut)
            if alt is not None:
                out = copy.deepcopy(base)
                w = out["steps"][i]["witness"]
                w["pair"] = list(alt.pair)
                w["side1"] = sorted(alt.side1)
                w["side2"] = sorted(alt.side2)
                yield f"alien-twosep:steps[{i}]", out, R_NO_GENERATE
            break

        final_edges = base["final"]["graph"]["edges"]
        extra = final_edges + [final_edges[0]] if final_edges else [[0, 1]]
        yield ("shape:$.final.graph",
               _replaced(base, ("final", "graph", "edges"), extra),
               R_CONTRACTION)
        yield ("no-twoseps:final",
               _replaced(base, ("final", "witnesses"),
                         [w for w in base["final"]["witnesses"]
                          if w["kind"] != "twosep"]), R_FINAL_2SEP)
        if len(cert.steps) >= 2:
            out = copy.deepcopy(base)
            out["steps"] = [out["steps"][1], out["steps"][0]] \
                + out["steps"][2:]
            yield "swapped-steps", out, R_CONTRACTION
        out = copy.deepcopy(base)
        out["steps"] = out["steps"][:-1]
        out["r"] -= 1
        yield "truncated-steps", out, R_CONTRACTION

    witnesses = base["final"]["witnesses"]
    ghost = {"kind": "barrier", "members": [999]}
    yield ("ghost-barrier:final",
           _replaced(base, ("final", "witnesses"), witnesses + [ghost]),
           R_FINAL_WITNESSED)
    bogus = {"kind": "twosep", "pair": [0, 1], "side1": [0, 1],
             "side2": [0, 1]}
    yield ("bogus-twosep:final",
           _replaced(base, ("final", "witnesses"), witnesses + [bogus]),
           R_FINAL_2SEP)
    final_g, final_c = cert.final_graph, cert.final_classification.cut
    lazy = _probe_nongenerating_barrier(final_g, final_c)
    if lazy is not None:
        yield ("lazy-barrier:final",
               _replaced(base, ("final", "witnesses"),
                         witnesses + [{"kind": "barrier", "members": lazy}]),
               R_FINAL_WITNESSED)
    alt = _probe_other_twosep(final_g, final_c)
    if alt is not None:
        alien = {"kind": "twosep", "pair": list(alt.pair),
                 "side1": sorted(alt.side1), "side2": sorted(alt.side2)}
        yield ("alien-twosep:final",
               _replaced(base, ("final", "witnesses"), witnesses + [alien]),
               R_FINAL_2SEP)
    stale = _probe_stale_barrier(cert)
    if stale is not None:
        yield ("stale-barrier:final",
               _replaced(base, ("final", "witnesses"),
                         [{"kind": "barrier", "members": stale}] + witnesses),
               R_FINAL_WITNESSED)
    # one bad entry among good ones is found wherever it stands
    for i, w in enumerate(witnesses):
        at = ("final", "witnesses", i)
        if w["kind"] == "barrier":
            yield (f"ghost-barrier:final[{i}]", _replaced(base, at, ghost),
                   R_FINAL_WITNESSED)
            grown = _probe_grown_barrier(final_g, final_c, w["members"])
            if grown is not None:
                yield (f"grown-barrier:final[{i}]",
                       _replaced(base, at + ("members",), grown),
                       R_FINAL_WITNESSED)
            continue
        yield (f"bogus-twosep:final[{i}]", _replaced(base, at, bogus),
               R_FINAL_2SEP)
        pair = set(w["pair"])
        trimmed = [v for v in w["side1"] if v not in pair]
        if trimmed:
            yield (f"broken-sides:final[{i}]",
                   _replaced(base, at + ("side1",),
                             [v for v in w["side1"] if v != trimmed[0]]),
                   R_FINAL_2SEP)
    if not cert.steps:
        yield ("no-witnesses:final",
               _replaced(base, ("final", "witnesses"), []), R_FINAL_WITNESSED)


def mutation_corpus(name, cert):
    """Every mutant for one certificate, labels prefixed by name."""
    base = cert.to_json_dict()
    out = []
    for label, mutated, code in _schema_mutants(base):
        out.append((f"{name}/{label}", mutated, code))
    for label, mutated, code in _hand_schema_mutants(base):
        out.append((f"{name}/{label}", mutated, code))
    for label, mutated, code in _semantic_mutants(cert):
        out.append((f"{name}/{label}", mutated, code))
    return out


def mutation_targets():
    """(name, graph, cut, certificate) for each certificate the corpus
    mutates: C6 and three fixtures, one of them at a tied shore."""
    fixtures = {name: (g, shore) for name, g, shore in fixture_instances()}
    targets = [("c6", cycle(6), frozenset({0, 1, 2}))]
    for name in ("blocked_triangle", "bridged_triangle"):
        g, shore = fixtures[name]
        targets.append((name, g, shore))
    g, _ = fixtures["blocked_pair"]
    targets.append(("blocked_pair_tie", g, frozenset({0, 2, 3, 4, 5})))
    out = []
    for name, g, shore in targets:
        c = g.boundary(shore)
        out.append((name, g, c, decompose_tight_cut(g, c)))
    return out


def target_mutants(targets):
    """(graph, cut, label, mutated_json, expected_reason) for every
    mutant of every target."""
    return [(g, c, label, mutated, code)
            for name, g, c, cert in targets
            for label, mutated, code in mutation_corpus(name, cert)]
