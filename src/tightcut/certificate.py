"""Decomposition certificates and their JSON form.

A certificate replays a chain of contractions: each step records the
graph it acted on, the witnessed cut it used, the structural witness
(barrier or two-separation), the contracted shore, and the fresh
vertex label. The final block records the last graph and, for the
cut's image in it, the largest barrier witness per shore, then every
two-separation witness, in the same witness form. Graphs embed as
{"n": ..., "edges": [[u, v], ...]} with real vertex labels in the edge
list; edge ids are not serialized, so verification compares shapes,
not ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import CutClassification
from .graph import Cut, Graph
from .structure import Barrier, TwoSeparation


def graph_to_json(g: Graph) -> dict:
    """g's JSON form. The edge pairs, in edge id order, are read once per
    graph, since an r = 1 certificate serializes its graph twice; every
    call returns fresh lists, so no two blocks share one."""
    pairs = g._memo("edge_pairs", _edge_pairs, g)
    return {"n": g.n, "edges": [list(pair) for pair in pairs]}


def _edge_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    return tuple(map(g.edge_ends, g.edge_ids))


def witness_to_json(witness) -> dict:
    if isinstance(witness, Barrier):
        return {"kind": "barrier", "members": sorted(witness.members)}
    if isinstance(witness, TwoSeparation):
        return {
            "kind": "twosep",
            "pair": list(witness.pair),
            "side1": sorted(witness.side1),
            "side2": sorted(witness.side2),
        }
    raise TypeError(f"not a certificate witness: {witness!r}")


@dataclass(frozen=True)
class Step:
    """One contraction: a witnessed cut of graph and the shore removed."""

    graph: Graph
    cut: Cut
    witness: Barrier | TwoSeparation
    contracted_shore: frozenset[int]
    new_vertex: int

    def to_json_dict(self) -> dict:
        return {
            "graph": graph_to_json(self.graph),
            "cut_shore": sorted(self.cut.shore),
            "witness": witness_to_json(self.witness),
            "contracted_shore": sorted(self.contracted_shore),
            "new_vertex": self.new_vertex,
        }


@dataclass(frozen=True)
class DecompositionCertificate:
    """The full reduction of a tight cut to a witnessed form.

    r counts the graphs in the chain: r = 1 means the input cut was
    already witnessed; otherwise the final graph is where the cut
    became a two-separation cut.
    """

    input_graph: Graph
    input_cut: Cut
    steps: tuple[Step, ...]
    final_graph: Graph
    final_classification: CutClassification

    @property
    def r(self) -> int:
        return len(self.steps) + 1

    def to_json_dict(self) -> dict:
        final = self.final_classification
        return {
            "input": {
                "graph": graph_to_json(self.input_graph),
                "cut_shore": sorted(self.input_cut.shore),
            },
            "steps": [step.to_json_dict() for step in self.steps],
            "final": {
                "graph": graph_to_json(self.final_graph),
                "witnesses": [
                    witness_to_json(b) for b, _ in final.barrier_witnesses
                ] + [witness_to_json(s) for s in final.twosep_witnesses],
            },
            "r": self.r,
        }
