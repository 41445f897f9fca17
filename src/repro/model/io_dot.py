"""Import task DAGs from Graphviz DOT files.

A pragmatic reader for the DOT dialect produced by :mod:`repro.viz.dot` and
by common DAG-benchmark tooling: node statements carry the WCET either in a
``wcet`` attribute or as the parenthesised number of a ``label`` ("``v3
(3.5)``"), and edge statements use ``->``.  Subgraphs, ports and HTML labels
are out of scope -- this is a workload importer, not a general DOT parser --
and anything unsupported raises :class:`~repro.errors.ModelError` rather than
being silently dropped.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import ModelError
from repro.model.dag import DAG, VertexId
from repro.model.serialization import _decode_vertex

__all__ = ["parse_dot", "load_dot"]

_NODE_RE = re.compile(
    r"^\s*(?P<id>\"[^\"]+\"|[\w.]+)\s*(?:\[(?P<attrs>[^\]]*)\])?\s*;?\s*$"
)
_EDGE_RE = re.compile(
    r"^\s*(?P<src>\"[^\"]+\"|[\w.]+)\s*->\s*(?P<dst>\"[^\"]+\"|[\w.]+)"
    r"\s*(?:\[(?P<attrs>[^\]]*)\])?\s*;?\s*$"
)
_ATTR_RE = re.compile(r"(\w+)\s*=\s*(\"[^\"]*\"|[\w.+-]+)")
_LABEL_WCET_RE = re.compile(r"\(([-+0-9.eE]+)\)\s*$")
_SKIP_RE = re.compile(
    r"^\s*(//.*|#.*"
    r"|(graph|node|edge)\s*\[[^\]]*\]"  # default-attribute statements
    r"|rankdir\s*=\s*\S+"  # layout directives
    r"|label\s*=\s*(\"[^\"]*\"|\S+)"  # graph-level label
    r"|labelloc\s*=\s*(\"[^\"]*\"|\S+)"
    r")\s*;?\s*$"
)


def _unquote(token: str) -> str:
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


def _attrs(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    return {key: _unquote(value) for key, value in _ATTR_RE.findall(text)}


def parse_dot(source: str, default_wcet: float | None = None) -> DAG:
    """Parse a DOT digraph into a :class:`~repro.model.dag.DAG`.

    WCET resolution per node, in order: a ``wcet`` attribute; the trailing
    ``(number)`` of a ``label`` attribute; *default_wcet*.  A node with no
    resolvable WCET is an error (``default_wcet=None``).

    Raises
    ------
    ModelError
        On missing ``digraph`` header, unparseable statements, missing
        WCETs, or (via the DAG constructor) cycles.
    """
    lines = source.splitlines()
    body_started = False
    wcets: dict[VertexId, float] = {}
    edges: list[tuple[VertexId, VertexId]] = []
    endpoints: set[VertexId] = set()
    for raw in lines:
        line = raw.strip()
        if not body_started:
            if line.startswith("digraph"):
                body_started = True
                continue
            if not line:
                continue
            raise ModelError(f"expected 'digraph' header, found {line!r}")
        if line in ("}", ""):
            continue
        if _SKIP_RE.match(line):
            continue
        edge_match = _EDGE_RE.match(line)
        if edge_match:
            src = _decode_vertex(_unquote(edge_match.group("src")))
            dst = _decode_vertex(_unquote(edge_match.group("dst")))
            edges.append((src, dst))
            endpoints.update((src, dst))
            continue
        node_match = _NODE_RE.match(line)
        if node_match:
            vertex = _decode_vertex(_unquote(node_match.group("id")))
            attrs = _attrs(node_match.group("attrs"))
            wcet: float | None = None
            if "wcet" in attrs:
                wcet = float(attrs["wcet"])
            elif "label" in attrs:
                found = _LABEL_WCET_RE.search(attrs["label"])
                if found:
                    wcet = float(found.group(1))
            if wcet is None:
                wcet = default_wcet
            if wcet is None:
                raise ModelError(
                    f"node {vertex!r} has no wcet attribute, no '(n)' label "
                    "suffix, and no default_wcet was given"
                )
            wcets[vertex] = wcet
            continue
        raise ModelError(f"unparseable DOT statement: {line!r}")
    if not body_started:
        raise ModelError("no 'digraph' header found")
    # Edge-only vertices take the default WCET.
    for vertex in endpoints:
        if vertex not in wcets:
            if default_wcet is None:
                raise ModelError(
                    f"vertex {vertex!r} appears only in edges and no "
                    "default_wcet was given"
                )
            wcets[vertex] = default_wcet
    if not wcets:
        raise ModelError("DOT graph declares no vertices")
    return DAG(wcets, edges)


def load_dot(path: str | Path, default_wcet: float | None = None) -> DAG:
    """Read and parse a DOT file (see :func:`parse_dot`)."""
    return parse_dot(Path(path).read_text(), default_wcet=default_wcet)
