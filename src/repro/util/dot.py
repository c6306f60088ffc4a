"""Minimal Graphviz DOT emission.

:meth:`repro.pdg.ProgramDependenceGraph.to_dot` writes its graphs through
this helper.  It builds DOT text without the ``graphviz`` package, which is
not available offline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class DotGraph:
    """Accumulates nodes and edges and renders them as DOT source text."""

    def __init__(self, name: str = "G", directed: bool = True) -> None:
        self.name = name
        self.directed = directed
        self._nodes: Dict[str, Dict[str, str]] = {}
        self._edges: List[Tuple[str, str, Dict[str, str]]] = []

    def add_node(self, node_id: str, label: Optional[str] = None, **attrs: str) -> None:
        merged = dict(attrs)
        if label is not None:
            merged["label"] = label
        self._nodes[node_id] = merged

    def add_edge(self, src: str, dst: str, label: Optional[str] = None, **attrs: str) -> None:
        merged = dict(attrs)
        if label is not None:
            merged["label"] = label
        # Ensure endpoints exist even when the caller never declared them.
        self._nodes.setdefault(src, {})
        self._nodes.setdefault(dst, {})
        self._edges.append((src, dst, merged))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _render_attrs(self, attrs: Dict[str, str]) -> str:
        if not attrs:
            return ""
        parts = ['{}="{}"'.format(key, _escape(value)) for key, value in attrs.items()]
        return " [{}]".format(", ".join(parts))

    def to_dot(self) -> str:
        kind = "digraph" if self.directed else "graph"
        arrow = "->" if self.directed else "--"
        lines = ["{} {} {{".format(kind, self.name)]
        for node_id, attrs in self._nodes.items():
            lines.append('  "{}"{};'.format(_escape(node_id), self._render_attrs(attrs)))
        for src, dst, attrs in self._edges:
            lines.append(
                '  "{}" {} "{}"{};'.format(
                    _escape(src), arrow, _escape(dst), self._render_attrs(attrs)
                )
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_dot())
