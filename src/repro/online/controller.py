"""Online admission control: incremental FEDCONS over a live task population.

Batch :func:`repro.core.fedcons.fedcons` analyses a frozen task set once.  An
:class:`AdmissionController` maintains the *same* federated-scheduling state
on ``m`` processors while tasks arrive and depart at run time, processing
each event incrementally:

* a **high-density admit** runs MINPROCS against the processors not yet
  dedicated (one List-Scheduling search, served from the
  :mod:`repro.core.cache` MINPROCS cache when enabled) and carves the cluster
  out of the shared pool's empty tail;
* a **low-density admit** is a first-fit probe of the per-processor
  :class:`~repro.core.shard.ShardState` demand ledgers using the
  order-independently sound ``DBF*`` test -- ``O(affected test points)`` per
  candidate processor, never a full re-partition;
* a **departure** releases a dedicated cluster back to the shared pool
  (high-density) or removes the task from its shard and replays the
  placements of later-admitted low-density tasks (the compaction pass) so
  freed capacity is actually reusable.

Canonical equivalence (the batch oracle)
----------------------------------------

An online controller cannot reorder history, so its canonical reference is
FEDCONS over the *currently admitted tasks in admission order* with the
partition phase in ``GIVEN`` order under the order-independent
``DBF_APPROX_ALL_POINTS`` admission test -- exactly what
:meth:`AdmissionController.reanalyze` runs.  While :attr:`canonical` is true
(always, unless a compaction pass was rejected by its safety check or
``repack_on_departure=False`` suspended compaction), the incremental state
equals that from-scratch re-analysis *exactly*: same accept/reject decision
for every event, same per-task cluster sizes, same shared-pool size, and the
same task-to-bucket assignment.  The supporting invariants:

1. a task's minimal cluster size ``mu*`` is independent of the processor
   budget (MINPROCS stops at the first fitting ``mu``), and re-analysis
   budgets only grow as earlier tasks depart;
2. first-fit placement is *prefix-stable*: adding or removing empty buckets
   on the right never changes where tasks land, and low-density tasks always
   fit an empty bucket (``delta < 1``), so occupied buckets form a prefix;
3. a newly admitted task is last in admission order, so its probe sequence
   in the incremental state equals its probe sequence in the re-analysis;
4. after a low-density departure, tasks admitted *before* it are unaffected
   (their probes never saw it) and tasks admitted after are replayed
   first-fit from the surviving prefix -- which is precisely the re-analysis.
   By the same argument a bucket whose contents the replay has not changed
   answers every probe as it did at admission, so only the buckets that
   diverged are rebuilt and probed (:meth:`AdmissionController._replay_suffix`).

First-fit is not monotone under removal: very rarely, the replay after a
departure cannot place every surviving task.  The compaction pass is
transactional -- migrations are committed only if every replayed placement
passes the same ``DBF*`` test -- so in that case the pre-departure
assignment (minus the departed task) is kept.  The state remains sound
(demand only decreased) but :attr:`canonical` turns false until a successful
:meth:`compact` restores the canonical packing.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import OnlineError, PersistenceError
from repro.core.fedcons import FailureReason, FedConsResult, fedcons
from repro.core.list_scheduling import PRIORITY_ORDERS
from repro.core.minprocs import minprocs
from repro.core.partition import AdmissionTest, PartitionResult, TaskOrder
from repro.core.schedule import Schedule, Slot
from repro.core.shard import ShardState
from repro.model.serialization import (
    _decode_vertex,
    _encode_vertex,
    task_from_dict,
    task_to_dict,
)
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem
from repro.obs.events import Admission, Departure, Reclamation, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import current_span as _current_span
from repro.obs.spans import span as _span

__all__ = [
    "SNAPSHOT_SCHEMA",
    "HIGH_DENSITY",
    "LOW_DENSITY",
    "AdmissionDecision",
    "DepartureReceipt",
    "AdmissionController",
    "template_digest",
]

_log = get_logger(__name__)

HIGH_DENSITY = "high_density"
LOW_DENSITY = "low_density"

#: Version of the lossless :meth:`AdmissionController.snapshot` format.
#: Version 1 was the summary-only (irrecoverable) format of PR 3; version 2
#: adds everything :meth:`AdmissionController.restore` needs for exact
#: reconstruction.
SNAPSHOT_SCHEMA = 2

#: Rejection reason for a task that is not constrained-deadline (batch
#: ``fedcons`` raises ``ModelError`` instead; an online server must not).
NOT_CONSTRAINED = "not_constrained"

@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one ``admit(task)`` request.

    ``processors`` holds the granted physical processor indices: the whole
    dedicated cluster for a high-density task, the single shared processor
    for a low-density one, empty on rejection.
    """

    accepted: bool
    task_id: str
    kind: str  # HIGH_DENSITY | LOW_DENSITY
    seq: int
    processors: tuple[int, ...] = ()
    reason: str | None = None
    latency_seconds: float = 0.0


@dataclass(frozen=True)
class DepartureReceipt:
    """Outcome of one ``depart(task_id)`` request.

    ``released`` lists the physical processors returned to the shared pool
    (the dedicated cluster; empty for a low-density departure -- its shard
    capacity is reclaimed in place).  ``migrations`` counts low-density tasks
    the compaction pass moved; ``clean`` is whether that pass passed its
    ``DBF*`` safety obligation and was committed.
    """

    task_id: str
    kind: str
    seq: int
    released: tuple[int, ...] = ()
    migrations: int = 0
    clean: bool = True
    latency_seconds: float = 0.0


@dataclass
class _LowEntry:
    """Book-keeping for one admitted low-density task."""

    task: SporadicDAGTask
    sporadic: SporadicTask
    seq: int  # admission sequence number: the canonical order & shard rank
    bucket: int  # current shared-bucket index

    __slots__ = ("task", "sporadic", "seq", "bucket")


@dataclass
class _Cluster:
    """Book-keeping for one admitted high-density task."""

    task: SporadicDAGTask
    processors: tuple[int, ...]
    schedule: Schedule
    seq: int

    __slots__ = ("task", "processors", "schedule", "seq")


def _admission_order(shard: ShardState) -> list[SporadicTask]:
    """A shared bucket's tasks in admission order: its ledger by rank."""
    return [task for task, _ in sorted(shard.entries, key=itemgetter(1))]


def _template_to_dict(schedule: Schedule) -> dict:
    """JSON-ready lossless encoding of one dedicated LS template."""
    return {
        "processors": schedule.processors,
        "makespan": schedule.makespan,
        "slots": [
            [_encode_vertex(s.vertex), s.start, s.end, s.processor]
            for s in schedule.slots
        ],
        "digest": template_digest(schedule),
    }


def _template_from_dict(data: dict, task: SporadicDAGTask) -> Schedule:
    """Rebuild (and integrity-check) a template from its snapshot record."""
    try:
        slots = [
            Slot(
                start=float(start), end=float(end),
                processor=int(proc), vertex=_decode_vertex(vertex),
            )
            for vertex, start, end, proc in data["slots"]
        ]
        schedule = Schedule(task.dag, slots, int(data["processors"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"malformed template record for task {task.name!r}: {exc}"
        ) from exc
    expected = data.get("digest")
    if expected is not None and template_digest(schedule) != expected:
        raise PersistenceError(
            f"template digest mismatch for task {task.name!r}: the snapshot "
            "does not describe the schedule it claims to"
        )
    return schedule


def template_digest(schedule: Schedule) -> str:
    """Content digest of a dedicated LS template.

    A stable blake2b over the cluster size and the (sorted) slot table --
    float-exact via JSON's repr round-trip -- so a restored snapshot can
    prove its templates are bit-identical to what the original controller
    held, without re-running MINPROCS.
    """
    payload = json.dumps(
        {
            "m": schedule.processors,
            "slots": sorted(
                [_encode_vertex(s.vertex), s.start, s.end, s.processor]
                for s in schedule.slots
            ),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


class AdmissionController:
    """Live FEDCONS state on ``m`` processors with incremental admit/depart.

    Parameters
    ----------
    processors:
        Platform size ``m`` (>= 1).
    ls_order:
        List-Scheduling priority order for MINPROCS templates: a key of
        :data:`~repro.core.list_scheduling.PRIORITY_ORDERS`.
    repack_on_departure:
        Run the compaction pass after each low-density departure (default).
        Disabling it makes departures O(bucket) but suspends canonical
        equivalence with the batch re-analysis until :meth:`compact` is
        called; the state stays sound either way.
    """

    def __init__(
        self,
        processors: int,
        ls_order: str = "longest_path",
        repack_on_departure: bool = True,
    ) -> None:
        if processors < 1:
            raise OnlineError(
                f"platform must have >= 1 processor, got {processors}"
            )
        if ls_order not in PRIORITY_ORDERS:
            raise OnlineError(
                f"unknown priority order {ls_order!r}; available: "
                f"{sorted(PRIORITY_ORDERS)}"
            )
        self._m = processors
        self._ls_order = ls_order
        self._repack = repack_on_departure
        #: every admitted task in admission order (the canonical system order)
        self._tasks: dict[str, SporadicDAGTask] = {}
        self._clusters: dict[str, _Cluster] = {}
        self._low: dict[str, _LowEntry] = {}
        #: physical processor behind each shared bucket, in bucket order
        self._shared: list[int] = list(range(processors))
        #: each shared bucket's tasks, ranked by admission sequence number
        self._shards: list[ShardState] = [ShardState() for _ in range(processors)]
        self._seq = 0
        self._canonical = True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def total_processors(self) -> int:
        """Platform size ``m``."""
        return self._m

    @property
    def canonical(self) -> bool:
        """Whether the state provably equals the batch re-analysis."""
        return self._canonical

    @property
    def repack_enabled(self) -> bool:
        """Whether departures trigger the compaction pass."""
        return self._repack

    @property
    def admitted_ids(self) -> tuple[str, ...]:
        """Ids of every admitted task, in admission order."""
        return tuple(self._tasks)

    @property
    def seq(self) -> int:
        """Number of state-changing events processed (the event counter)."""
        return self._seq

    @property
    def admitted_count(self) -> int:
        return len(self._tasks)

    @property
    def dedicated_processor_count(self) -> int:
        return sum(len(c.processors) for c in self._clusters.values())

    @property
    def shared_processor_count(self) -> int:
        return len(self._shared)

    @property
    def shared_processors(self) -> tuple[int, ...]:
        """Physical indices behind the shared buckets, in bucket order."""
        return tuple(self._shared)

    def cluster_of(self, task_id: str) -> tuple[int, ...]:
        """Physical processors dedicated to high-density task *task_id*."""
        try:
            return self._clusters[task_id].processors
        except KeyError:
            raise OnlineError(
                f"no admitted high-density task {task_id!r}"
            ) from None

    def bucket_of(self, task_id: str) -> int:
        """Shared-bucket index holding low-density task *task_id*."""
        try:
            return self._low[task_id].bucket
        except KeyError:
            raise OnlineError(f"no admitted low-density task {task_id!r}") from None

    def to_partition_result(self) -> PartitionResult:
        """The shared pool's current assignment as a :class:`PartitionResult`."""
        return PartitionResult(
            success=True,
            assignment=tuple(
                tuple(_admission_order(shard)) for shard in self._shards
            ),
            processors=len(self._shared),
            dag_tasks={e.sporadic.name: e.task for e in self._low.values()},
        )

    def verify(self, exact: bool = False) -> bool:
        """Soundness check of the whole deployment.

        Every dedicated template must meet its deadline and every shared
        bucket must pass the uniprocessor EDF test (``DBF*`` by default,
        the pseudo-polynomial exact criterion with ``exact=True``).
        """
        for cluster in self._clusters.values():
            if not cluster.schedule.meets_deadline(cluster.task.deadline):
                return False
        return self.to_partition_result().verify(exact=exact)

    def snapshot(self) -> dict:
        """Lossless, JSON-ready image of the live state (schema-versioned).

        Everything :meth:`restore` needs for *exact* reconstruction is
        captured: the admission-test configuration (``ls_order``,
        ``repack_on_departure``), the sequence counter and ``canonical``
        flag, the full free-pool layout (physical processor behind every
        shared bucket, *including empty buckets* -- first-fit placement
        depends on their positions), and per admitted task its serialized
        model, admission sequence number, and either the dedicated LS
        template (slots + digest; restoring never re-runs MINPROCS) or the
        shared-bucket index.  The summary keys of the original format are
        retained on top for dashboards and logs.

        The result is a pure function of the controller state:
        ``snapshot -> restore -> snapshot`` is a fixed point, which the
        crash-recovery suite pins.
        """
        tasks: list[dict] = []
        for name, task in self._tasks.items():
            cluster = self._clusters.get(name)
            if cluster is not None:
                tasks.append(
                    {
                        "id": name,
                        "kind": HIGH_DENSITY,
                        "seq": cluster.seq,
                        "task": task_to_dict(task),
                        "cluster": list(cluster.processors),
                        "template": _template_to_dict(cluster.schedule),
                    }
                )
            else:
                entry = self._low[name]
                tasks.append(
                    {
                        "id": name,
                        "kind": LOW_DENSITY,
                        "seq": entry.seq,
                        "task": task_to_dict(task),
                        "bucket": entry.bucket,
                    }
                )
        return {
            "schema_version": SNAPSHOT_SCHEMA,
            "processors": self._m,
            "ls_order": self._ls_order,
            "repack_on_departure": self._repack,
            "seq": self._seq,
            "admitted": len(self._tasks),
            "high_density": len(self._clusters),
            "low_density": len(self._low),
            "dedicated_processors": self.dedicated_processor_count,
            "shared_processors": len(self._shared),
            "occupied_shared": self._occupied(),
            "shared_utilization": sum(s.utilization for s in self._shards),
            "canonical": self._canonical,
            "pool": list(self._shared),
            "clusters": {
                name: list(c.processors) for name, c in self._clusters.items()
            },
            "buckets": {
                self._shared[k]: [t.name for t in _admission_order(shard)]
                for k, shard in enumerate(self._shards)
                if len(shard)
            },
            "tasks": tasks,
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "AdmissionController":
        """Rebuild a controller from a :meth:`snapshot` -- exactly.

        No analysis is re-run: dedicated templates are reloaded from their
        serialized slots (and integrity-checked against the stored digest),
        and the per-bucket ``DBF*`` ledgers are recomputed left-to-right
        from the sorted entries, which by the :class:`ShardState`
        history-independence guarantee reproduces the original floats bit
        for bit.  ``restore(snapshot(c))`` is indistinguishable from ``c``:
        same snapshot, same future decisions.

        The ``canonical`` flag is taken as stored, and it matters: it picks
        the departure replay.  A snapshot that claims a canonical packing it
        does not hold sends departures down the diverged-bucket shortcut,
        which stays sound but leaves first-fit order.
        :meth:`confirm_canonical` checks the claim; ``recover(...,
        verify=True)`` runs it on every checkpoint it loads.

        Raises
        ------
        PersistenceError
            On an unsupported ``schema_version`` or a structurally
            inconsistent snapshot (missing or non-integer fields, a
            platform size or ``ls_order`` the constructor refuses,
            overlapping processor grants, digest mismatches, out-of-range
            bucket indices...).
        """
        version = snapshot.get("schema_version")
        if version != SNAPSHOT_SCHEMA:
            raise PersistenceError(
                f"unsupported snapshot schema_version {version!r} "
                f"(this build reads version {SNAPSHOT_SCHEMA}); summary-only "
                "version-1 snapshots cannot be restored"
            )
        try:
            m = int(snapshot["processors"])
            pool = [int(p) for p in snapshot["pool"]]
            task_records = snapshot["tasks"]
            seq = int(snapshot["seq"])
            canonical = bool(snapshot["canonical"])
            ls_order = str(snapshot["ls_order"])
            repack = bool(snapshot["repack_on_departure"])
            controller = cls(m, ls_order=ls_order, repack_on_departure=repack)
        except (KeyError, TypeError, ValueError, OnlineError) as exc:
            raise PersistenceError(f"malformed snapshot: {exc}") from exc
        controller._shared = pool
        members: list[list[tuple[SporadicTask, int]]] = [[] for _ in pool]
        granted: set[int] = set()
        # Admission (seq) order: the canonical system order of _tasks.
        try:
            task_records = sorted(task_records, key=lambda r: int(r["seq"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed snapshot task record: {exc}") from exc
        for record in task_records:
            try:
                name = str(record["id"])
                kind = record["kind"]
                task = task_from_dict(record["task"])
                task_seq = int(record["seq"])
                if kind == HIGH_DENSITY:
                    processors = tuple(int(p) for p in record["cluster"])
                    template = record["template"]
                elif kind == LOW_DENSITY:
                    bucket = int(record["bucket"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"malformed snapshot task record: {exc}"
                ) from exc
            if task.name != name or name in controller._tasks:
                raise PersistenceError(
                    f"snapshot task record {name!r} is inconsistent with its "
                    "serialized task model"
                )
            if kind == HIGH_DENSITY:
                schedule = _template_from_dict(template, task)
                if schedule.processors != len(processors):
                    raise PersistenceError(
                        f"template of {name!r} is sized for "
                        f"{schedule.processors} processors but the snapshot "
                        f"grants {len(processors)}"
                    )
                if not schedule.meets_deadline(task.deadline):
                    raise PersistenceError(
                        f"restored template of {name!r} misses its deadline "
                        f"({schedule.makespan:g} > {task.deadline:g})"
                    )
                granted.update(processors)
                controller._clusters[name] = _Cluster(
                    task=task, processors=processors,
                    schedule=schedule, seq=task_seq,
                )
            elif kind == LOW_DENSITY:
                if not 0 <= bucket < len(pool):
                    raise PersistenceError(
                        f"task {name!r} sits in bucket {bucket} but the "
                        f"snapshot pool has {len(pool)} buckets"
                    )
                entry = _LowEntry(
                    task=task, sporadic=task.to_sporadic(),
                    seq=task_seq, bucket=bucket,
                )
                members[bucket].append((entry.sporadic, task_seq))
                controller._low[name] = entry
            else:
                raise PersistenceError(
                    f"task {name!r} has unknown kind {kind!r}"
                )
            controller._tasks[name] = task
        claimed = sorted(granted) + sorted(pool)
        if sorted(claimed) != list(range(m)) or len(claimed) != m:
            raise PersistenceError(
                "snapshot processor grants and pool do not partition "
                f"the {m}-processor platform"
            )
        controller._shards = [ShardState(bucket) for bucket in members]
        controller._seq = seq
        controller._canonical = canonical
        return controller

    # ------------------------------------------------------------------
    # the batch oracle
    # ------------------------------------------------------------------
    def reanalyze(self) -> FedConsResult | None:
        """From-scratch FEDCONS of the admitted set in canonical order.

        ``None`` when no task is admitted.  This is the reference the
        incremental state is measured against: partition order ``GIVEN``
        (admission order -- an online system cannot reorder history) under
        the order-independently sound ``DBF*`` test.
        """
        if not self._tasks:
            return None
        return fedcons(
            TaskSystem(self._tasks.values()),
            self._m,
            ls_order=self._ls_order,
            partition_order=TaskOrder.GIVEN,
            partition_admission=AdmissionTest.DBF_APPROX_ALL_POINTS,
        )

    def matches_batch(self, batch: FedConsResult | None = None) -> bool:
        """Whether the incremental state equals the batch re-analysis.

        Compares acceptance, per-task cluster sizes, the shared-pool size and
        the bucket-by-bucket task assignment.  Guaranteed true while
        :attr:`canonical` holds; callers may pass a precomputed *batch*
        result to avoid re-running :meth:`reanalyze`.
        """
        if batch is None:
            batch = self.reanalyze()
        if batch is None:
            return not self._tasks
        if not batch.success:
            return False
        mine = {
            name: len(c.processors) for name, c in self._clusters.items()
        }
        theirs = {
            a.task.name: a.cluster_size for a in batch.allocations
        }
        if mine != theirs:
            return False
        if batch.shared_processor_count != len(self._shared):
            return False
        assert batch.partition is not None
        batch_buckets = [
            tuple(t.name for t in bucket) for bucket in batch.partition.assignment
        ]
        mine_buckets = [
            tuple(t.name for t in _admission_order(shard))
            for shard in self._shards
        ]
        return batch_buckets == mine_buckets

    def confirm_canonical(self) -> bool:
        """Clear :attr:`canonical` unless :meth:`matches_batch` confirms it.

        The flag picks the departure replay: while it holds, a low-density
        departure rebuilds and probes only the diverged buckets, which is
        exact only for the canonical packing.  :meth:`restore` takes the
        flag from the snapshot as stored; this is the one-off check for a
        snapshot that is not trusted.  Returns the resulting flag.
        """
        if self._canonical and not self.matches_batch():
            self._canonical = False
        return self._canonical

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, task: SporadicDAGTask) -> AdmissionDecision:
        """Process one arrival; O(one MINPROCS) or O(probe * test points).

        Raises
        ------
        OnlineError
            If the task is unnamed or its name collides with an admitted
            task (caller errors); schedulability problems are *rejections*,
            not exceptions.
        """
        started = time.perf_counter()
        if not isinstance(task, SporadicDAGTask):
            raise OnlineError(
                f"admit() takes a SporadicDAGTask, got {type(task).__name__}"
            )
        if not task.name:
            raise OnlineError("online tasks must carry a unique non-empty name")
        if task.name in self._tasks:
            raise OnlineError(f"task id {task.name!r} is already admitted")
        with _span("online.admit", task=task.name):
            self._seq += 1
            kind = HIGH_DENSITY if task.is_high_density else LOW_DENSITY
            if not task.is_constrained_deadline:
                return self._decided(task, kind, started, reason=NOT_CONSTRAINED)
            if task.span > task.deadline:
                return self._decided(
                    task, kind, started,
                    reason=FailureReason.STRUCTURALLY_INFEASIBLE.value,
                )
            if kind == HIGH_DENSITY:
                return self._admit_high(task, started)
            return self._admit_low(task, started)

    def _admit_high(
        self, task: SporadicDAGTask, started: float
    ) -> AdmissionDecision:
        budget = len(self._shared)
        result = minprocs(task, budget, order=self._ls_order)
        if result is None:
            return self._decided(
                task, HIGH_DENSITY, started,
                reason=FailureReason.HIGH_DENSITY_PHASE.value,
            )
        new_pool = budget - result.processors
        highest_occupied = max(
            (k for k, shard in enumerate(self._shards) if len(shard)),
            default=-1,
        )
        if highest_occupied >= new_pool:
            # The shrunken shared pool could no longer carry the admitted
            # low-density tasks: the batch re-analysis would fail in the
            # PARTITION phase, so the arrival is turned away.
            return self._decided(
                task, HIGH_DENSITY, started,
                reason=FailureReason.PARTITION_PHASE.value,
                detail={"cluster": result.processors, "pool_after": new_pool},
            )
        granted = tuple(self._shared[new_pool:])
        del self._shared[new_pool:]
        del self._shards[new_pool:]
        self._clusters[task.name] = _Cluster(
            task=task,
            processors=granted,
            schedule=result.schedule,
            seq=self._seq,
        )
        self._tasks[task.name] = task
        return self._decided(
            task, HIGH_DENSITY, started, processors=granted,
            detail={"cluster": len(granted), "attempts": result.attempts},
        )

    def _admit_low(
        self, task: SporadicDAGTask, started: float
    ) -> AdmissionDecision:
        """First-fit scan of the shared shards with the order-independent
        ``DBF*`` probe, each ``fits_all_points`` one pass over the shard's
        prefix-sum ledger."""
        sporadic = task.to_sporadic()
        placed: int | None = None
        # The scan is timed as a whole (one clock pair per admission, not
        # per probe), and annotates the enclosing ``online.admit`` span
        # rather than opening one of its own: per-probe clock reads -- or a
        # span whose extent is essentially the whole admission -- would cost
        # a large fraction of a cheap DBF* probe and break the <= 5%
        # telemetry overhead budget.
        timing = _metrics.enabled
        scan_started = time.perf_counter() if timing else 0.0
        for k, shard in enumerate(self._shards):
            if shard.fits_all_points(sporadic):
                self._place_low(task, sporadic, k)
                placed = k
                break
        probes = len(self._shards) if placed is None else placed + 1
        if timing:
            _metrics.incr("online.placement_probes", probes)
            _metrics.record_time(
                "online.probe_scan_seconds",
                time.perf_counter() - scan_started,
            )
            _metrics.observe("online.probes_per_admission", probes)
        active = _current_span()
        if active is not None:
            active.set(buckets=len(self._shards), probes=probes, bucket=placed)
        if placed is None:
            return self._decided(
                task, LOW_DENSITY, started,
                reason=FailureReason.PARTITION_PHASE.value,
            )
        return self._decided(
            task, LOW_DENSITY, started, processors=(self._shared[placed],),
            detail={"bucket": placed},
        )

    def _place_low(
        self, task: SporadicDAGTask, sporadic: SporadicTask, bucket: int
    ) -> None:
        """Commit a low-density placement into shared bucket *bucket*."""
        entry = _LowEntry(
            task=task, sporadic=sporadic, seq=self._seq, bucket=bucket
        )
        self._shards[bucket].add(sporadic, entry.seq)
        self._low[task.name] = entry
        self._tasks[task.name] = task

    def _decided(
        self,
        task: SporadicDAGTask,
        kind: str,
        started: float,
        processors: tuple[int, ...] = (),
        reason: str | None = None,
        detail: dict | None = None,
    ) -> AdmissionDecision:
        """Report one admit outcome: a rejection iff *reason* is given."""
        accepted = reason is None
        latency = time.perf_counter() - started
        if _metrics.enabled:
            _metrics.incr(
                "online.admit_accepted" if accepted else "online.admit_rejected"
            )
            _metrics.record_time("online.admit_seconds", latency)
        active = _current_span()
        if active is not None:
            if accepted:
                active.set(kind=kind, accepted=True, processors=list(processors))
            else:
                active.set(kind=kind, accepted=False, reason=reason)
        ctx = current_context()
        if ctx is not None:
            ctx.record(
                Admission(
                    task=task.name,
                    kind=kind,
                    accepted=accepted,
                    seq=self._seq,
                    processors=processors,
                    reason=reason,
                    detail=detail or {},
                )
            )
        if accepted:
            _log.info(
                "ADMIT %s (%s): processors %s", task.name, kind, list(processors)
            )
        else:
            _log.info("REJECT %s (%s): %s", task.name, kind, reason)
        return AdmissionDecision(
            accepted=accepted,
            task_id=task.name,
            kind=kind,
            seq=self._seq,
            processors=processors,
            reason=reason,
            latency_seconds=latency,
        )

    # ------------------------------------------------------------------
    # departure & reclamation
    # ------------------------------------------------------------------
    def depart(self, task_id: str) -> DepartureReceipt:
        """Process one departure, reclaiming the task's capacity.

        Raises
        ------
        OnlineError
            If *task_id* is not currently admitted.
        """
        started = time.perf_counter()
        # Validate before bumping the sequence counter: a failed request must
        # not mutate state, or a journal replay (which only sees successful
        # events) could never reproduce the counter.
        if task_id not in self._clusters and task_id not in self._low:
            raise OnlineError(f"no admitted task {task_id!r} to depart")
        with _span("online.depart", task=task_id):
            self._seq += 1
            if task_id in self._clusters:
                return self._depart_high(task_id, started)
            return self._depart_low(task_id, started)

    def _depart_high(self, task_id: str, started: float) -> DepartureReceipt:
        cluster = self._clusters.pop(task_id)
        del self._tasks[task_id]
        # Freed processors join the shared pool as new rightmost (empty)
        # buckets: first-fit is prefix-stable, so every existing placement --
        # and hence canonical equivalence -- is untouched, and the very next
        # high-density admit can carve its cluster from this tail.
        for proc in cluster.processors:
            self._shared.append(proc)
            self._shards.append(ShardState())
        return self._departed(
            task_id, HIGH_DENSITY, started, released=cluster.processors
        )

    def _depart_low(self, task_id: str, started: float) -> DepartureReceipt:
        entry = self._low.pop(task_id)
        del self._tasks[task_id]
        self._shards[entry.bucket].remove(entry.sporadic.name)
        migrations = 0
        clean = True
        if self._repack:
            occupied_before = self._occupied()
            # A canonical packing diverges only where the departed task sat;
            # any other packing is replayed bucket by bucket from scratch.
            diverged = (
                (entry.bucket,) if self._canonical
                else range(len(self._shards))
            )
            migrations, clean = self._replay_suffix(entry.seq, diverged)
            if clean and _metrics.enabled:
                # Buckets the compaction emptied: capacity consolidated back
                # into whole reusable processors, the quantity EXP-O showed
                # fragmentation was eating.
                freed = occupied_before - self._occupied()
                _metrics.incr("online.compaction_freed_processors", freed)
            if clean:
                # A clean compaction restores the canonical packing even if a
                # previous pass had been rejected.
                self._restore_canonical_if_complete(entry.seq)
            else:
                self._canonical = False
                if _metrics.enabled:
                    _metrics.incr("online.repack_anomalies")
        else:
            self._canonical = False
        return self._departed(
            task_id, LOW_DENSITY, started, migrations=migrations, clean=clean
        )

    def _departed(
        self,
        task_id: str,
        kind: str,
        started: float,
        released: tuple[int, ...] = (),
        migrations: int = 0,
        clean: bool = True,
    ) -> DepartureReceipt:
        """Report one departure and its reclamation pass."""
        ctx = current_context()
        if ctx is not None:
            ctx.record(
                Departure(
                    task=task_id,
                    kind=kind,
                    seq=self._seq,
                    released=released,
                    migrations=migrations,
                )
            )
            ctx.record(
                Reclamation(
                    source=task_id,
                    processors=released,
                    migrations=migrations,
                    clean=clean,
                )
            )
        latency = time.perf_counter() - started
        if _metrics.enabled:
            _metrics.incr("online.departures")
            if kind == LOW_DENSITY:
                _metrics.incr("online.migrations", migrations)
            _metrics.record_time("online.depart_seconds", latency)
        if kind == HIGH_DENSITY:
            _log.info(
                "DEPART %s (high-density): released processors %s",
                task_id, list(released),
            )
        else:
            _log.info(
                "DEPART %s (low-density): %d migration(s), %s",
                task_id, migrations, "clean" if clean else "compaction kept old",
            )
        return DepartureReceipt(
            task_id=task_id,
            kind=kind,
            seq=self._seq,
            released=released,
            migrations=migrations,
            clean=clean,
            latency_seconds=latency,
        )

    def _occupied(self) -> int:
        """Number of shared buckets holding at least one task."""
        return sum(1 for shard in self._shards if len(shard))

    def _restore_canonical_if_complete(self, from_seq: int) -> None:
        """A clean suffix replay re-canonicalises iff it covered every task
        that could be out of canonical position.

        After a *rejected* pass at sequence ``s``, tasks admitted before
        ``s`` may sit off-canonically; a later clean replay from a smaller
        sequence covers them.  Conservatively: only a replay from the very
        first low entry (or a state that was already canonical) restores the
        flag -- :meth:`compact` always qualifies.
        """
        if self._canonical:
            return
        first_seq = min(
            (e.seq for e in self._low.values()), default=float("inf")
        )
        if from_seq < first_seq:
            self._canonical = True

    def _replay_suffix(
        self, after_seq: int, diverged: Iterable[int]
    ) -> tuple[int, bool]:
        """First-fit replay of low entries admitted after *after_seq*.

        Only *diverged* buckets are rebuilt and probed: the ones passed in,
        every bucket an entry leaves, and every bucket first-fit has to
        probe past an entry's own diverged bucket.  A diverged bucket gets a
        fresh ``ShardState`` of its replayed contents; a clean one keeps its
        ``ShardState``.  Passing only the departed task's
        bucket is exact when the packing is canonical (each entry's bucket
        is its first fit among the buckets restricted to earlier-admitted
        entries): a clean bucket restricted that way holds what it held
        before the replay, so a clean bucket left of an entry's bucket is a
        known reject and its own clean bucket a known accept.  Passing every
        bucket replays every placement from scratch.

        Transactional: the replayed assignment replaces the current one only
        if every task places (each individual migration thereby re-proven by
        the same ``DBF*`` test that admitted it); otherwise the pre-replay
        assignment is kept and ``(0, False)`` returned.
        """
        suffix = [e for e in self._low.values() if e.seq > after_seq]
        if not suffix:
            return 0, True
        new_shards = list(self._shards)
        is_diverged = [False] * len(new_shards)
        # Diverged bucket indices, ascending: the first-fit probe order.
        order: list[int] = []

        def diverge(k: int, before_seq: int) -> None:
            # Clean until now, so the bucket's replayed contents are its
            # entries admitted before the entry being replayed.
            new_shards[k] = ShardState(
                (task, seq) for task, seq in self._shards[k].entries
                if seq < before_seq
            )
            is_diverged[k] = True
            insort(order, k)

        for k in diverged:
            diverge(k, after_seq)
        moved: list[tuple[_LowEntry, int]] = []
        for entry in suffix:
            home = entry.bucket
            target = None
            for k in order:
                if k > home:
                    break
                if new_shards[k].fits_all_points(entry.sporadic):
                    target = k
                    break
            if target is None:
                if not is_diverged[home]:
                    continue  # its clean bucket: the known accept
                for k in range(home + 1, len(new_shards)):
                    if not is_diverged[k]:
                        diverge(k, entry.seq)
                    if new_shards[k].fits_all_points(entry.sporadic):
                        target = k
                        break
                else:
                    # First-fit anomaly: the survivors no longer pack under
                    # first-fit.  Safety obligation violated -> keep the old
                    # (sound) assignment.
                    return 0, False
            if target != home:
                moved.append((entry, target))
                if not is_diverged[home]:
                    diverge(home, entry.seq)
            new_shards[target].add(entry.sporadic, entry.seq)
        for entry, k in moved:
            entry.bucket = k
        self._shards = new_shards
        return len(moved), True

    def compact(self) -> tuple[int, bool]:
        """Full defragmentation: replay *every* low-density placement.

        Returns ``(migrations, clean)``.  A clean pass leaves the shared pool
        in exactly the canonical (batch re-analysis) packing and restores
        :attr:`canonical`; a rejected pass changes nothing.
        """
        occupied_before = self._occupied()
        migrations, clean = self._replay_suffix(0, range(len(self._shards)))
        if clean:
            if _metrics.enabled:
                freed = occupied_before - self._occupied()
                _metrics.incr("online.compaction_freed_processors", freed)
            self._canonical = True
        return migrations, clean
