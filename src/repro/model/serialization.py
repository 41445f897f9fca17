"""JSON (de)serialisation of task models.

Round-trips :class:`~repro.model.dag.DAG`, :class:`~repro.model.task.SporadicDAGTask`
and :class:`~repro.model.taskset.TaskSystem` through plain JSON-compatible
dictionaries, so generated workloads and experiment inputs can be stored on
disk and reloaded bit-for-bit.

Vertex identifiers are stored as strings and restored as ``int`` when they
look like integers (the generators in this package always use integer ids).
The codec is strict both ways: a DAG is encoded only if every id decodes
back to itself, and a dictionary is decoded only if every id is the
encoding of the vertex it decodes to -- so two distinct ids (``"1"`` and
``"01"``, or ``1`` and ``"1"``) can never merge into one vertex.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ModelError
from repro.model.dag import DAG, VertexId
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem

__all__ = [
    "dag_to_dict",
    "dag_from_dict",
    "task_to_dict",
    "task_from_dict",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]

_FORMAT_VERSION = 1


def _encode_vertex(vertex: VertexId) -> str:
    return str(vertex)


def _decode_vertex(text: str) -> VertexId:
    # int() parses no string that starts with a letter, so a named vertex
    # (``mProjectPP00``) skips the raised-and-caught ValueError.
    if isinstance(text, str) and text[:1].isalpha():
        return text
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


def dag_to_dict(dag: DAG) -> dict[str, Any]:
    """Encode a DAG as a JSON-compatible dictionary.

    Raises :class:`ModelError` for a vertex whose encoding does not decode
    back to the same id of the same type (``"1"``, ``"07"``, ``True``).
    """
    ids: dict[VertexId, str] = {}
    for vertex in dag.wcets:
        text = _encode_vertex(vertex)
        if type(vertex) is not int:  # an int always round-trips
            decoded = _decode_vertex(text)
            if decoded != vertex or type(decoded) is not type(vertex):
                raise ModelError(
                    f"vertex id {vertex!r} does not survive encoding: "
                    f"{text!r} decodes to {decoded!r}"
                )
        ids[vertex] = text
    return {
        "wcets": {ids[v]: w for v, w in dag.wcets.items()},
        "edges": [[ids[u], ids[v]] for u, v in dag.edges],
    }


def dag_from_dict(data: dict[str, Any]) -> DAG:
    """Decode a DAG from :func:`dag_to_dict` output.

    Raises :class:`ModelError` for an id -- a ``wcets`` key or an edge
    endpoint -- that is not the encoding of the vertex it decodes to
    (``"01"``, ``" 1"``, ``"+1"``, a non-string endpoint).
    """
    try:
        sent = data["wcets"].items()
        pairs = data["edges"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed DAG dictionary: {exc}") from exc
    ids: dict[str, VertexId] = {}
    wcets: dict[VertexId, float] = {}
    try:
        for text, wcet in sent:
            vertex = _decode_vertex(text)
            if _encode_vertex(vertex) != text:
                raise ModelError(
                    f"vertex id {text!r} is not the encoding of the vertex "
                    f"{vertex!r} it decodes to"
                )
            ids[text] = vertex
            wcets[vertex] = float(wcet)
        # Every endpoint must be one of the ids just checked.
        edges = [(ids[u], ids[v]) for u, v in pairs]
    except KeyError as exc:
        raise ModelError(
            f"edge endpoint {exc.args[0]!r} is not a vertex id of the DAG"
        ) from None
    except TypeError as exc:
        raise ModelError(f"malformed DAG dictionary: {exc}") from exc
    return DAG(wcets, edges)


def task_to_dict(task: SporadicDAGTask) -> dict[str, Any]:
    """Encode a sporadic DAG task as a JSON-compatible dictionary."""
    return {
        "dag": dag_to_dict(task.dag),
        "deadline": task.deadline,
        "period": task.period,
        "name": task.name,
    }


def task_from_dict(data: dict[str, Any]) -> SporadicDAGTask:
    """Decode a task from :func:`task_to_dict` output."""
    try:
        return SporadicDAGTask(
            dag=dag_from_dict(data["dag"]),
            deadline=float(data["deadline"]),
            period=float(data["period"]),
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed task dictionary: {exc}") from exc


def system_to_dict(system: TaskSystem) -> dict[str, Any]:
    """Encode a task system as a JSON-compatible dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "tasks": [task_to_dict(t) for t in system],
    }


def system_from_dict(data: dict[str, Any]) -> TaskSystem:
    """Decode a task system from :func:`system_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported task-system format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        tasks = [task_from_dict(t) for t in data["tasks"]]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed task-system dictionary: {exc}") from exc
    return TaskSystem(tasks)


def save_system(system: TaskSystem, path: str | Path) -> None:
    """Write *system* to *path* as pretty-printed JSON (atomic write)."""
    from repro.io import atomic_write_text

    atomic_write_text(path, json.dumps(system_to_dict(system), indent=2))


def load_system(path: str | Path) -> TaskSystem:
    """Load a task system previously written by :func:`save_system`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON: {exc}") from exc
    return system_from_dict(data)
