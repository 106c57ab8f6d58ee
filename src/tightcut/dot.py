"""Render graphs to Graphviz dot, mostly for eyeballing decompositions."""

from __future__ import annotations

from .graph import Graph


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, *, highlight: frozenset[int] = frozenset(),
                 secondary: frozenset[int] = frozenset(),
                 origins: dict[int, frozenset[int]] = {},
                 name: str = "G") -> str:
    """Dot source for g; highlight/secondary are edge id sets.

    origins maps a contraction vertex to the original vertices it stands
    for; those vertices come out as boxes labeled with their origin set,
    highlighted edges red and thick, secondary edges dashed blue.
    Output is deterministic.
    """
    lines = [f"graph {_quote(name)} {{"]
    lines.append("  node [shape=circle];")
    for v in g.vertices:
        if v not in origins:
            lines.append(f"  {v};")
        else:
            label = "{" + ",".join(str(u) for u in sorted(origins[v])) + "}"
            lines.append(f"  {v} [shape=box, label={_quote(str(v) + ' ' + label)}];")
    for eid, (u, v) in g.edge_items():
        attrs = [f"label={_quote(str(eid))}"]
        if eid in highlight:
            attrs.append("color=red, penwidth=2")
        elif eid in secondary:
            attrs.append("color=blue, style=dashed")
        lines.append(f"  {u} -- {v} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
