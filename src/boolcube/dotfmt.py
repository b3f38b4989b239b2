"""Graphviz DOT rendering for graphs and state graphs.

Positive arcs render with arrowhead=normal, negative arcs with arrowhead=tee
and a sign="-" attribute.  State-graph nodes are labeled with bitstrings and
fixed points are double-circled.  Every name is a quoted string with \\ and "
escaped, so any vertex label renders as one DOT name.
"""

from __future__ import annotations

from .hypercube import code_names
from .dynamics import StateGraph
from .siggraph import SignedDigraph


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def digraph_dot(g: SignedDigraph) -> str:
    lines = ["digraph interaction {"]
    for v in g.vertices:
        lines.append(f"  {_quote(v)};")
    for src, sign, dst in g.arc_list():
        if sign == 1:
            lines.append(f"  {_quote(src)} -> {_quote(dst)} [arrowhead=normal];")
        else:
            lines.append(f'  {_quote(src)} -> {_quote(dst)} [arrowhead=tee, sign="-"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def state_graph_dot(sg: StateGraph) -> str:
    names = list(map(_quote, code_names(len(sg.components))))
    lines = ["digraph dynamics {"]
    for name, diff in zip(names, sg.unstable):
        lines.append(f"  {name} [shape={'circle' if diff else 'doublecircle'}];")
    lines.extend(f"  {names[src]} -> {names[dst]};" for src, dst in sg.arc_list())
    lines.append("}")
    return "\n".join(lines) + "\n"
