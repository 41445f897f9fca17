"""Wire protocol of the admission service: line-delimited JSON.

One request or response per line, UTF-8 JSON objects, ``\\n``-terminated --
the same framing as the journal itself, so a replication subscriber can
write the streamed lines to its local journal verbatim.  Requests carry an
``op`` field:

``{"op": "admit", "task": {...serialized task...}}``
    admit one task; the response carries the full
    :class:`~repro.online.controller.AdmissionDecision` (rejections are
    ``ok`` responses with ``decision.accepted == false`` -- only protocol
    violations and caller errors are ``ok: false``).
``{"op": "depart", "task_id": "..."}``
    release one admitted task.
``{"op": "query"}``
    state summary: seq, admitted count, free processors, journal offset,
    replication cursors.
``{"op": "metrics"}``
    Prometheus text exposition (also served over the HTTP shim).
``{"op": "ping"}``
    liveness probe.
``{"op": "subscribe", "from": n}``
    switch this connection to replication mode: the server first streams
    the journal backlog from record *n*, then every newly committed record,
    each as ``{"record": {...}}``; the subscriber sends
    ``{"op": "ack", "n": k}`` lines back (k = records applied) which feed
    the primary's :class:`~repro.online.persist.ReplicationCursor`.

Responses are ``{"ok": true, "op": ..., ...}`` or
``{"ok": false, "error": "...", "code": "..."}``.  Errors never tear the
connection down; an unparsable line gets an error response and the
connection stays usable.
"""

from __future__ import annotations

import dataclasses
import json

from repro.errors import ServiceError
from repro.online.controller import AdmissionDecision, DepartureReceipt

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "encode",
    "decode",
    "ok_response",
    "error_response",
    "decision_to_dict",
    "decision_from_dict",
    "receipt_to_dict",
    "receipt_from_dict",
]

PROTOCOL_VERSION = 1

#: Upper bound on one request/response line.  A serialized DAG task with a
#: few hundred vertices is tens of KiB; 4 MiB leaves two orders of magnitude
#: of headroom while still bounding a misbehaving client's memory use.
MAX_LINE_BYTES = 4 * 1024 * 1024


def encode(message: dict) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object, refusing a key it repeats (``json.loads`` alone
    keeps the last value, so ``{"op": "admit", "op": "ping"}`` would be a
    ping)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ServiceError(f"duplicate key {key!r} in a protocol object")
            seen.add(key)
    return obj


def decode(line: bytes | str) -> dict:
    """Parse one protocol line into a request/response object.

    Raises :class:`ServiceError` on unparsable JSON (nesting too deep for
    the parser included), an object that repeats a key at any depth, or a
    non-object payload -- the server answers those with an error response
    instead of dropping the connection.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ServiceError(f"unparsable protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError(
            f"protocol line must be a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(op: str, **fields) -> dict:
    """Build a success response envelope for operation ``op``."""
    return {"ok": True, "op": op, **fields}


def error_response(code: str, message: str) -> dict:
    """Build an error response envelope with a machine-readable ``code``."""
    return {"ok": False, "code": code, "error": message}


# ---------------------------------------------------------------------------
# dataclass round-trips (tuples become lists on the wire)
# ---------------------------------------------------------------------------
def decision_to_dict(decision: AdmissionDecision) -> dict:
    """Serialize an :class:`AdmissionDecision` to a JSON-safe dict."""
    payload = dataclasses.asdict(decision)
    payload["processors"] = list(decision.processors)
    return payload


def decision_from_dict(payload: dict) -> AdmissionDecision:
    """Rebuild an :class:`AdmissionDecision` from its wire dict.

    Raises :class:`ServiceError` on missing or ill-typed fields.
    """
    try:
        return AdmissionDecision(
            accepted=bool(payload["accepted"]),
            task_id=payload["task_id"],
            kind=payload["kind"],
            seq=int(payload["seq"]),
            processors=tuple(payload["processors"]),
            reason=payload.get("reason"),
            latency_seconds=float(payload.get("latency_seconds", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed admit decision payload: {exc}") from exc


def receipt_to_dict(receipt: DepartureReceipt) -> dict:
    """Serialize a :class:`DepartureReceipt` to a JSON-safe dict."""
    payload = dataclasses.asdict(receipt)
    payload["released"] = list(receipt.released)
    return payload


def receipt_from_dict(payload: dict) -> DepartureReceipt:
    """Rebuild a :class:`DepartureReceipt` from its wire dict.

    Raises :class:`ServiceError` on missing or ill-typed fields.
    """
    try:
        return DepartureReceipt(
            task_id=payload["task_id"],
            kind=payload["kind"],
            seq=int(payload["seq"]),
            released=tuple(payload["released"]),
            migrations=int(payload["migrations"]),
            clean=bool(payload["clean"]),
            latency_seconds=float(payload.get("latency_seconds", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed departure receipt payload: {exc}") from exc
