"""Durable controller state: checkpoints + an append-only event journal.

PR 3's :class:`~repro.online.controller.AdmissionController` treats admitted
state as a contract -- but a process crash used to void it: the snapshot had
no restore path and nothing recorded the event history.  This module makes
the contract survive the scheduler, with the classic database recipe:

* a **checkpoint** is the controller's lossless
  :meth:`~repro.online.controller.AdmissionController.snapshot`, wrapped
  with the journal offset it reflects and published atomically
  (:func:`write_checkpoint` -- temp file + fsync + ``os.replace``, so a
  crash mid-rotation leaves the previous checkpoint intact);
* a :class:`Journal` is an append-only JSONL log of **every** decision --
  accepted and rejected admits (with the full serialized task), departures,
  compaction passes -- fsynced per commit, with crash-torn final records
  detected (and physically truncated) on open;
* :func:`recover` = restore the latest checkpoint (or rebuild from the
  journal's genesis record) + replay the journal tail through the real
  controller.  Replay is *oracle-checked*: each journal record carries the
  original decision outcome, and the deterministic controller must
  reproduce it exactly -- any divergence raises
  :class:`~repro.errors.PersistenceError` instead of silently serving from
  a wrong state.

The durability point is ``Journal.append`` returning under the default
``fsync="always"`` policy: an event is part of history once its record is
fsynced, and :class:`DurableController` applies the event to the in-memory
state *before* journaling it, so a crash between the two replays the event
from the previous record boundary -- sound either way because the
controller is a deterministic function of its event history.  Under the
``batch`` policy the durability point moves to :meth:`Journal.sync` (one
group commit per coalesced admit batch, the admission-service fast path);
``off`` trades durability for speed in experiments.

The journal doubles as the replication stream: :class:`JournalFollower`
tail-reads complete records as a writer appends them (never consuming a
torn tail), and :class:`ReplicationCursor` tracks how far a warm standby
has streamed and acknowledged, bounding failover staleness to the
in-flight window.  See :mod:`repro.service` for the server/standby pair
built on these pieces.

Typical use::

    journal = Journal("ctl.journal")
    durable = DurableController(
        AdmissionController(16), journal,
        checkpoint_path="ctl.ckpt.json", checkpoint_every=50,
    )
    durable.admit(task); durable.depart(task.name)

    # after a crash:
    controller, report = recover("ctl.ckpt.json", "ctl.journal")
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.errors import OnlineError, PersistenceError
from repro.io import atomic_write_text, read_jsonl
from repro.model.serialization import task_from_dict, task_to_dict
from repro.model.task import SporadicDAGTask
from repro.obs.events import Checkpoint, Recovery, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import span as _span
from repro.online.controller import (
    AdmissionController,
    AdmissionDecision,
    DepartureReceipt,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "FSYNC_POLICIES",
    "Journal",
    "JournalFollower",
    "ReplicationCursor",
    "DurableController",
    "RecoveryReport",
    "write_checkpoint",
    "load_checkpoint",
    "recover",
]

_log = get_logger(__name__)

#: Version of the journal record format (the ``genesis`` record carries it).
JOURNAL_SCHEMA = 1
#: Version of the checkpoint *wrapper*; the embedded controller state is
#: versioned separately by ``snapshot()["schema_version"]``.
CHECKPOINT_SCHEMA = 1


def _dump(record: dict) -> str:
    # No sort_keys: the serialized task must round-trip with its vertex
    # order intact.  JSON object order is what dag_from_dict rebuilds the
    # DAG in, and that order is a List-Scheduling tie-break -- sorting keys
    # here would make a replayed controller diverge from the original.
    return json.dumps(record, separators=(",", ":"))


#: Durability policies for :class:`Journal` appends, weakest-to-strongest
#: cost: ``"off"`` never forces stable storage (simulated-crash replays),
#: ``"batch"`` defers the fsync to the next :meth:`Journal.sync` (the
#: admission service's group commit: one fsync per coalesced batch),
#: ``"always"`` fsyncs every append (the PR 4 default, one fsync per event).
FSYNC_POLICIES = ("always", "batch", "off")


class Journal:
    """Append-only JSONL event log with a configurable fsync policy.

    Opening an existing journal scans it once: a crash-torn final record
    (unparsable *and* missing its newline) is logged, counted in
    ``online.journal.torn_tails`` and physically truncated away so the next
    append starts at a record boundary; any earlier unparsable record is
    mid-file corruption and raises :class:`PersistenceError`.  Records are
    numbered contiguously by an ``n`` field assigned here -- a gap on read
    also raises, so silent record loss cannot masquerade as a short history.

    *fsync* selects the durability point (see :data:`FSYNC_POLICIES`):

    ``"always"``
        each :meth:`append` is fsynced before returning -- an event is part
        of history the moment its commit call returns;
    ``"batch"``
        appends are written and flushed to the OS, but the fsync is deferred
        to the next :meth:`sync` -- the group-commit mode the admission
        service uses (one fsync per coalesced batch of concurrent arrivals);
        a host crash may lose the current unsynced group, a process crash
        may not;
    ``"off"``
        appends are flushed but never fsynced -- for bulk experiment replays
        where the "crash" is simulated anyway.

    The legacy boolean (``True``/``False`` from the PR 4 API) is still
    accepted and maps to ``"always"``/``"off"``.
    """

    def __init__(self, path: str | Path, fsync: str | bool = "always") -> None:
        if isinstance(fsync, bool):
            fsync = "always" if fsync else "off"
        if fsync not in FSYNC_POLICIES:
            raise OnlineError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._dirty = False  # batch mode: unsynced appends pending
        self._truncate_torn_tail()
        records, torn = read_jsonl(self._path) if self._path.exists() else ([], False)
        assert not torn  # the tail was physically truncated above
        _validate_contiguous(records, self._path)
        self._entries = len(records)
        self._handle = open(self._path, "a", encoding="utf-8")

    def _truncate_torn_tail(self) -> None:
        if not self._path.exists():
            return
        raw = self._path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when no complete record survived
        _log.warning(
            "%s: truncating torn tail (%d byte(s) after the last complete "
            "record) left by a crashed writer",
            self._path, len(raw) - keep,
        )
        if _metrics.enabled:
            _metrics.incr("online.journal.torn_tails")
        with open(self._path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def entries(self) -> int:
        """Number of complete records in the journal (== the next ``n``)."""
        return self._entries

    @property
    def fsync_policy(self) -> str:
        """The configured durability policy (see :data:`FSYNC_POLICIES`)."""
        return self._fsync

    def append(self, record: dict) -> int:
        """Commit one record; returns its index ``n``.

        Under the ``"always"`` policy the event is durable when this
        returns; under ``"batch"`` it is durable at the next :meth:`sync`
        (and flushed to the OS either way).  A *record* that already carries
        an ``n`` field (a replicated record from another journal) keeps it
        -- the standby's journal is a verbatim copy, and the contiguity
        check on reopen still applies.
        """
        n = self._entries
        with _span("online.journal.append", n=n, fsync=self._fsync):
            started = time.perf_counter() if _metrics.enabled else 0.0
            self._handle.write(_dump({"n": n, **record}) + "\n")
            self._handle.flush()
            if self._fsync == "always":
                os.fsync(self._handle.fileno())
            elif self._fsync == "batch":
                self._dirty = True
            self._entries = n + 1
            if _metrics.enabled:
                _metrics.incr("online.journal.appends")
                _metrics.record_time(
                    "online.journal.append_seconds",
                    time.perf_counter() - started,
                )
        return n

    def sync(self) -> None:
        """Force pending appends to stable storage (the group-commit point).

        Only meaningful under the ``"batch"`` policy, and only when appends
        are pending: ``"always"`` has nothing to flush and ``"off"`` opted
        out of durability entirely, so both are no-ops.
        """
        if self._fsync != "batch" or not self._dirty:
            return
        started = time.perf_counter() if _metrics.enabled else 0.0
        os.fsync(self._handle.fileno())
        self._dirty = False
        if _metrics.enabled:
            _metrics.incr("online.journal.group_syncs")
            _metrics.record_time(
                "online.journal.sync_seconds", time.perf_counter() - started
            )

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def read(path: str | Path) -> tuple[list[dict], bool]:
        """All complete records of a journal plus whether a torn tail was
        skipped (the file is not modified; use the constructor to also
        truncate)."""
        records, torn = read_jsonl(path)
        _validate_contiguous(records, path)
        return records, torn


def _validate_contiguous(records: list[dict], path: str | Path) -> None:
    for expected, record in enumerate(records):
        if record.get("n") != expected:
            raise PersistenceError(
                f"{path}: journal record {expected} carries n={record.get('n')!r}; "
                "records are missing or reordered (mid-file corruption)"
            )


class JournalFollower:
    """Incremental (tail-follow) reader of a live journal file.

    Each :meth:`poll` returns the complete records appended since the last
    poll, in order, never consuming a partially written final line -- the
    follower only advances past newline-terminated records, so it can run
    concurrently with a writer that is mid-append.  Contiguity of the ``n``
    numbering is enforced across polls; a gap raises
    :class:`PersistenceError` exactly like a mid-file corruption on open.

    This is the replication substrate for a standby that shares the
    primary's filesystem, and the catch-up reader the admission service uses
    to stream journal history to a newly subscribed replica.
    """

    def __init__(self, path: str | Path, start: int = 0) -> None:
        if start < 0:
            raise OnlineError(f"start offset must be >= 0, got {start}")
        self._path = Path(path)
        self._position = 0  # byte offset of the first unconsumed record
        self._next = 0  # record number the next poll must yield first
        if start:
            # Fast-forward through (and validate) the skipped prefix.
            skipped = self.poll(limit=start)
            if len(skipped) < start:
                raise PersistenceError(
                    f"{self._path}: cannot start following at record {start}; "
                    f"journal holds only {len(skipped)} complete record(s)"
                )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def position(self) -> int:
        """Record number the next :meth:`poll` result starts at."""
        return self._next

    def poll(self, limit: int | None = None) -> list[dict]:
        """New complete records since the last poll (empty when none).

        With *limit* set, at most that many records are consumed; the rest
        stay buffered in the file for the next poll.
        """
        if not self._path.exists():
            return []
        with open(self._path, "rb") as handle:
            handle.seek(self._position)
            raw = handle.read()
        records: list[dict] = []
        offset = 0
        while offset < len(raw):
            if limit is not None and len(records) >= limit:
                break
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # torn tail (or mid-append): leave it for next poll
            line = raw[offset : newline + 1]
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise PersistenceError(
                        f"{self._path}: unparsable newline-terminated record "
                        f"at byte {self._position + offset} (mid-file "
                        f"corruption): {exc}"
                    ) from exc
                if record.get("n") != self._next:
                    raise PersistenceError(
                        f"{self._path}: expected record {self._next}, found "
                        f"n={record.get('n')!r}; records are missing or "
                        "reordered"
                    )
                records.append(record)
                self._next += 1
            offset = newline + 1
            self._position += len(line)
        return records


@dataclass
class ReplicationCursor:
    """Progress of one journal follower (a warm standby) against a primary.

    ``streamed`` counts records handed to the follower's transport;
    ``acked`` counts records the follower confirmed *applied* (its
    acknowledgement offset).  The primary's failover-staleness bound is the
    in-flight window ``entries - acked`` -- everything older is already live
    in the standby's state, not merely in its socket buffer.
    """

    streamed: int = 0
    acked: int = 0

    def advance(self, streamed: int) -> None:
        if streamed > self.streamed:
            self.streamed = streamed

    def acknowledge(self, acked: int) -> None:
        """Record the follower's applied-offset acknowledgement.

        Acknowledgements are monotone; a stale or duplicated ack (replicas
        may re-send on reconnect) is ignored, an ack beyond what was ever
        streamed is a protocol violation.
        """
        if acked > self.streamed:
            raise PersistenceError(
                f"replica acknowledged {acked} record(s) but only "
                f"{self.streamed} were streamed to it"
            )
        if acked > self.acked:
            self.acked = acked

    @property
    def lag(self) -> int:
        """Records streamed but not yet acknowledged (the in-flight window)."""
        return self.streamed - self.acked


# ---------------------------------------------------------------------------
# journal records
# ---------------------------------------------------------------------------
def genesis_record(controller: AdmissionController) -> dict:
    """The journal's first record: enough to rebuild an empty controller."""
    snapshot = controller.snapshot()
    return {
        "kind": "genesis",
        "journal_schema": JOURNAL_SCHEMA,
        "processors": controller.total_processors,
        "ls_order": snapshot["ls_order"],
        "repack_on_departure": snapshot["repack_on_departure"],
    }


def admit_record(task: SporadicDAGTask, decision: AdmissionDecision) -> dict:
    """One admit decision -- rejected arrivals included, so replay reproduces
    the sequence counter exactly."""
    return {
        "kind": "admit",
        "id": decision.task_id,
        "task": task_to_dict(task),
        "accepted": decision.accepted,
        "decided": decision.kind,
        "processors": list(decision.processors),
        "reason": decision.reason,
    }


def depart_record(receipt: DepartureReceipt) -> dict:
    return {
        "kind": "depart",
        "id": receipt.task_id,
        "decided": receipt.kind,
        "released": list(receipt.released),
        "migrations": receipt.migrations,
        "clean": receipt.clean,
    }


def compact_record(migrations: int, clean: bool) -> dict:
    return {"kind": "compact", "migrations": migrations, "clean": clean}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
def write_checkpoint(
    controller: AdmissionController,
    path: str | Path,
    journal_entries: int,
) -> None:
    """Atomically publish a checkpoint of *controller* to *path*.

    *journal_entries* is the number of journal records the snapshot already
    reflects; :func:`recover` replays only records from that offset on.  The
    write is temp-file + fsync + ``os.replace``, so rotation can never leave
    a torn checkpoint -- a crash mid-write keeps the previous generation.
    """
    started = time.perf_counter()
    with _span("online.checkpoint.write", journal_entries=journal_entries):
        snapshot = controller.snapshot()
        document = {
            "checkpoint_schema": CHECKPOINT_SCHEMA,
            "journal_entries": journal_entries,
            "state": snapshot,
        }
        atomic_write_text(Path(path), json.dumps(document, indent=2) + "\n")
    elapsed = time.perf_counter() - started
    if _metrics.enabled:
        _metrics.incr("online.checkpoint.writes")
        _metrics.record_time("online.checkpoint.seconds", elapsed)
    ctx = current_context()
    if ctx is not None:
        ctx.record(
            Checkpoint(
                path=str(path),
                journal_entries=journal_entries,
                admitted=snapshot["admitted"],
                seq=snapshot["seq"],
            )
        )
    _log.info(
        "CHECKPOINT %s: %d admitted task(s) at journal offset %d",
        path, snapshot["admitted"], journal_entries,
    )


def load_checkpoint(path: str | Path) -> tuple[AdmissionController, int]:
    """Restore a controller from a checkpoint file.

    Returns ``(controller, journal_entries)`` where *journal_entries* is the
    journal offset the checkpoint reflects.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"{path}: checkpoint is not valid JSON: {exc}") from exc
    version = document.get("checkpoint_schema")
    if version != CHECKPOINT_SCHEMA:
        raise PersistenceError(
            f"{path}: unsupported checkpoint_schema {version!r} "
            f"(this build reads version {CHECKPOINT_SCHEMA})"
        )
    try:
        journal_entries = int(document["journal_entries"])
        state = document["state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"{path}: malformed checkpoint: {exc}") from exc
    return AdmissionController.restore(state), journal_entries


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one :func:`recover` run."""

    checkpoint_used: bool
    journal_entries: int  # complete records found in the journal
    replayed: int  # records applied on top of the starting state
    torn_tail: bool  # a crash-torn final record was skipped
    admitted: int  # tasks admitted in the recovered state
    elapsed_seconds: float

    def describe(self) -> str:
        source = (
            "latest checkpoint" if self.checkpoint_used else "journal genesis"
        )
        lines = [
            f"recovered from {source}: replayed {self.replayed} of "
            f"{self.journal_entries} journal record(s) in "
            f"{self.elapsed_seconds:.3f}s",
            f"{self.admitted} task(s) admitted in the recovered state",
        ]
        if self.torn_tail:
            lines.append("a crash-torn final journal record was skipped")
        return "\n".join(lines)


def _replay_record(controller: AdmissionController, record: dict) -> None:
    """Apply one journal record, cross-checking the recorded outcome."""
    kind = record.get("kind")
    n = record.get("n")
    try:
        if kind == "admit":
            task = task_from_dict(record["task"])
            decision = controller.admit(task)
            recorded = (
                record["accepted"], record["decided"],
                tuple(record["processors"]),
            )
            replayed = (decision.accepted, decision.kind, decision.processors)
        elif kind == "depart":
            receipt = controller.depart(record["id"])
            recorded = (
                record["decided"], tuple(record["released"]),
                record["migrations"], record["clean"],
            )
            replayed = (
                receipt.kind, receipt.released,
                receipt.migrations, receipt.clean,
            )
        elif kind == "compact":
            migrations, clean = controller.compact()
            recorded = (record["migrations"], record["clean"])
            replayed = (migrations, clean)
        else:
            raise PersistenceError(
                f"journal record {n} has unknown kind {kind!r}"
            )
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError, OnlineError) as exc:
        raise PersistenceError(
            f"journal record {n} ({kind}) cannot be replayed: {exc}"
        ) from exc
    if recorded != replayed:
        raise PersistenceError(
            f"journal record {n} ({kind} {record.get('id', '')!r}) diverged "
            f"on replay: journal says {recorded}, controller produced "
            f"{replayed} -- the durable state does not describe this build's "
            "deterministic history"
        )


def recover(
    checkpoint: str | Path | None,
    journal: str | Path,
    verify: bool = False,
    exact: bool = False,
) -> tuple[AdmissionController, RecoveryReport]:
    """Rebuild a controller after a crash: restore + replay-from-offset.

    *checkpoint* may be ``None`` (or a not-yet-existing path): recovery then
    replays the whole journal from its genesis record.  A torn final journal
    record -- the normal post-crash state -- is skipped with a warning; any
    other corruption, a journal/checkpoint offset mismatch, or a replayed
    decision diverging from the recorded one raises
    :class:`PersistenceError`.

    With ``verify=True`` the recovered state is additionally oracle-checked:
    it must pass :meth:`AdmissionController.verify` (pseudo-polynomial exact
    test with ``exact=True``) and, while canonical, match the from-scratch
    batch re-analysis (:meth:`AdmissionController.matches_batch`).  A
    checkpoint's ``canonical`` claim is checked the same way before the
    replay (:meth:`AdmissionController.confirm_canonical`) and cleared if
    the re-analysis refutes it.

    Returns ``(controller, report)``.
    """
    with _span("online.recover", journal=str(journal)) as sp:
        controller, report = _recover(checkpoint, journal, verify, exact)
        sp.set(
            replayed=report.replayed,
            checkpoint_used=report.checkpoint_used,
            torn_tail=report.torn_tail,
        )
        return controller, report


def _recover(
    checkpoint: str | Path | None,
    journal: str | Path,
    verify: bool,
    exact: bool,
) -> tuple[AdmissionController, RecoveryReport]:
    started = time.perf_counter()
    records, torn = Journal.read(journal)
    if not records:
        raise PersistenceError(
            f"{journal}: journal holds no complete record; nothing to recover"
        )
    checkpoint_used = False
    if checkpoint is not None and Path(checkpoint).exists():
        controller, start = load_checkpoint(checkpoint)
        checkpoint_used = True
        if start > len(records):
            raise PersistenceError(
                f"checkpoint reflects {start} journal record(s) but "
                f"{journal} holds only {len(records)}; the journal was "
                "truncated behind the checkpoint's back"
            )
        if verify and controller.canonical and not controller.confirm_canonical():
            # The flag picks the departure replay; the journal's departures
            # must not take the canonical shortcut on a refuted claim.
            _log.warning(
                "%s: checkpoint claims a canonical packing that differs from "
                "the batch re-analysis; departures replay every bucket",
                checkpoint,
            )
    else:
        genesis = records[0]
        if genesis.get("kind") != "genesis":
            raise PersistenceError(
                f"{journal}: first record is {genesis.get('kind')!r}, not "
                "genesis; cannot recover without a checkpoint"
            )
        schema = genesis.get("journal_schema")
        if schema != JOURNAL_SCHEMA:
            raise PersistenceError(
                f"{journal}: unsupported journal_schema {schema!r} "
                f"(this build reads version {JOURNAL_SCHEMA})"
            )
        try:
            controller = AdmissionController(
                int(genesis["processors"]),
                ls_order=str(genesis["ls_order"]),
                repack_on_departure=bool(genesis["repack_on_departure"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"{journal}: malformed genesis record: {exc}"
            ) from exc
        start = 1
    replayed = 0
    for record in records[start:]:
        if _metrics.enabled:
            replay_started = time.perf_counter()
            _replay_record(controller, record)
            _metrics.record_time(
                "online.recover.replay_seconds",
                time.perf_counter() - replay_started,
            )
        else:
            _replay_record(controller, record)
        replayed += 1
    if verify:
        if not controller.verify(exact=exact):
            raise PersistenceError(
                "recovered state fails the schedulability verification"
            )
        if controller.canonical and not controller.matches_batch():
            raise PersistenceError(
                "recovered state diverges from the from-scratch batch "
                "re-analysis"
            )
    elapsed = time.perf_counter() - started
    if _metrics.enabled:
        _metrics.incr("online.recover.runs")
        _metrics.incr("online.recover.replayed", replayed)
        if torn:
            _metrics.incr("online.recover.torn_tails")
        _metrics.record_time("online.recover.seconds", elapsed)
    ctx = current_context()
    if ctx is not None:
        ctx.record(
            Recovery(
                checkpoint_used=checkpoint_used,
                journal_entries=len(records),
                replayed=replayed,
                torn_tail=torn,
                admitted=controller.admitted_count,
            )
        )
    report = RecoveryReport(
        checkpoint_used=checkpoint_used,
        journal_entries=len(records),
        replayed=replayed,
        torn_tail=torn,
        admitted=controller.admitted_count,
        elapsed_seconds=elapsed,
    )
    _log.info("RECOVER: %s", "; ".join(report.describe().splitlines()))
    return controller, report


# ---------------------------------------------------------------------------
# the journaling wrapper
# ---------------------------------------------------------------------------
class DurableController:
    """An :class:`AdmissionController` whose decisions survive a crash.

    Wraps a controller with a :class:`Journal` and (optionally) rotating
    checkpoints: every ``admit``/``depart``/``compact`` is applied, then
    committed to the journal; after every *checkpoint_every* committed
    events the full state is atomically re-published to *checkpoint_path*.
    Caller errors (duplicate id, unknown departure) raise before any state
    change and are never journaled.

    Everything else -- ``verify``, ``matches_batch``, ``snapshot``,
    inspection properties -- delegates to the wrapped controller, so a
    ``DurableController`` drops into every API taking an
    :class:`AdmissionController` (``replay`` included).
    """

    def __init__(
        self,
        controller: AdmissionController,
        journal: Journal,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise OnlineError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint_path is None:
            raise OnlineError(
                "checkpoint_every requires a checkpoint_path to rotate into"
            )
        self._controller = controller
        self._journal = journal
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        if journal.entries == 0:
            journal.append(genesis_record(controller))

    @property
    def controller(self) -> AdmissionController:
        return self._controller

    @property
    def journal(self) -> Journal:
        return self._journal

    def __getattr__(self, name: str):
        return getattr(self._controller, name)

    def _committed(self) -> None:
        self._since_checkpoint += 1
        if (
            self._checkpoint_every
            and self._since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    def admit(self, task: SporadicDAGTask) -> AdmissionDecision:
        with _span("online.commit", op="admit", task=getattr(task, "name", None)):
            decision = self._controller.admit(task)
            self._journal.append(admit_record(task, decision))
            self._committed()
            return decision

    def admit_many(
        self, tasks: Iterable[SporadicDAGTask]
    ) -> list[AdmissionDecision]:
        """Commit a coalesced batch of arrivals with one group fsync.

        Each task is applied and journaled exactly as :meth:`admit` would
        (same decisions, same record contents, same order), but under the
        ``batch`` fsync policy the journal is flushed once after the whole
        group instead of once per record -- this is the durability point for
        the entire batch, and the throughput lever the admission service
        relies on.  Under ``always``/``off`` policies the call degrades to a
        plain sequential loop.
        """
        tasks = list(tasks)
        with _span("online.commit_group", op="admit_many", size=len(tasks)):
            decisions = []
            try:
                for task in tasks:
                    decision = self._controller.admit(task)
                    self._journal.append(admit_record(task, decision))
                    decisions.append(decision)
            finally:
                # Whatever was applied must be durable, even if a later
                # task in the batch raised a caller error.
                self._journal.sync()
            for _ in decisions:
                self._committed()
            return decisions

    def depart(self, task_id: str) -> DepartureReceipt:
        with _span("online.commit", op="depart", task=task_id):
            receipt = self._controller.depart(task_id)
            self._journal.append(depart_record(receipt))
            self._committed()
            return receipt

    def compact(self) -> tuple[int, bool]:
        with _span("online.commit", op="compact"):
            migrations, clean = self._controller.compact()
            self._journal.append(compact_record(migrations, clean))
            self._committed()
            return migrations, clean

    def checkpoint(self) -> None:
        """Publish the current state to *checkpoint_path* atomically."""
        if self._checkpoint_path is None:
            raise OnlineError("no checkpoint_path configured")
        write_checkpoint(
            self._controller, self._checkpoint_path, self._journal.entries
        )
        self._since_checkpoint = 0

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "DurableController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
