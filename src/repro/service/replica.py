"""Warm-standby replication: apply the primary's journal as it streams.

:class:`StandbyReplica` is the socket-free core: it consumes journal
records (from any transport) strictly in order, applies each through the
real controller with the same oracle cross-check recovery uses
(:func:`~repro.online.persist.replay_record` -- a divergence raises
instead of silently shadowing a different state), and writes the record
*verbatim* -- original ``n`` included -- to its own local journal.  The
standby's journal is therefore byte-for-byte replayable by
:func:`~repro.online.persist.recover`, which is exactly what
:meth:`StandbyReplica.promote` does on primary death: group-sync the local
journal, run ``recover(verify=True)``, and cross-check the recovered
snapshot against the live applied state.  Failover cost is one recovery
pass; failover *staleness* is bounded by the in-flight window the
primary's :class:`~repro.online.persist.ReplicationCursor` tracks, because
everything acknowledged is already applied here, not merely buffered.

:class:`StandbyFollower` is the asyncio transport: subscribe to a primary,
feed the replica, acknowledge applied offsets, and flag the moment the
primary's connection drops (the failover clock starts there).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError
from repro.obs.events import Promotion, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import span as _span
from repro.online.controller import AdmissionController
from repro.online.persist import (
    Journal,
    RecoveryReport,
    controller_from_genesis,
    controller_from_records,
    recover,
    replay_record,
    write_checkpoint,
)
from repro.service.protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["StandbyReplica", "StandbyFollower", "PromotionReport"]

_log = get_logger(__name__)


@dataclass(frozen=True)
class PromotionReport:
    """Outcome of one standby takeover."""

    replicated: int  # journal records applied before promotion
    staleness: int  # primary records known missed (in-flight window)
    verified: bool  # recover(verify=True) + snapshot equality passed
    failover_seconds: float  # promote() call to serving-ready
    recovery: RecoveryReport

    def describe(self) -> str:
        verdict = "verified" if self.verified else "UNVERIFIED"
        return (
            f"standby promoted ({verdict}) in {self.failover_seconds:.3f}s: "
            f"{self.replicated} record(s) replicated, "
            f"{self.staleness} known missed"
        )


class StandbyReplica:
    """Apply a primary's journal records as they arrive; promote on death.

    The replica accepts records only in contiguous ``n`` order starting
    where its local journal ends -- a gap means the transport lost a
    committed record and raises :class:`ServiceError` rather than building
    a silently diverged state.  Resuming from an existing local journal is
    supported: the constructor replays it back into a live controller, and
    :attr:`applied` tells the transport where to subscribe from.  A local
    journal that does not replay raises, with the journal closed.
    """

    def __init__(
        self,
        journal_path: str | Path,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        fsync: str = "batch",
    ) -> None:
        self._journal = Journal(journal_path, fsync=fsync)
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        self._controller: AdmissionController | None = None
        try:
            if self._journal.entries:
                records, _ = Journal.read(self._journal.path)
                self._controller = controller_from_records(records)
        except BaseException:
            self._journal.close()
            raise

    @property
    def applied(self) -> int:
        """Records applied == local journal entries == next expected ``n``."""
        return self._journal.entries

    @property
    def controller(self) -> AdmissionController | None:
        """The live applied state (``None`` before the genesis record)."""
        return self._controller

    @property
    def journal(self) -> Journal:
        return self._journal

    def apply(self, record: dict) -> None:
        """Apply one streamed record and journal it verbatim.

        The record becomes locally durable per the journal's fsync policy
        (call :meth:`sync` at a batch boundary under ``"batch"``).
        """
        n = record.get("n")
        if n != self._journal.entries:
            raise ServiceError(
                f"replication gap: expected record {self._journal.entries}, "
                f"got n={n!r}"
            )
        started = time.perf_counter() if _metrics.enabled else 0.0
        if n == 0:
            self._controller = controller_from_genesis(record)
        else:  # the gap check above puts the genesis record first
            replay_record(self._controller, record)
        self._journal.append(record)  # keeps the record's own ``n``
        if _metrics.enabled:
            _metrics.incr("service.replica.applied")
            _metrics.record_time(
                "service.replica.apply_seconds",
                time.perf_counter() - started,
            )
        self._since_checkpoint += 1
        if (
            self._checkpoint_every
            and self._checkpoint_path is not None
            and self._since_checkpoint >= self._checkpoint_every
            and self._controller is not None
        ):
            self._journal.sync()
            write_checkpoint(
                self._controller, self._checkpoint_path, self._journal.entries
            )
            self._since_checkpoint = 0

    def sync(self) -> None:
        """Group-commit pending applied records to the local journal."""
        self._journal.sync()

    def promote(
        self,
        verify: bool = True,
        exact: bool = False,
        staleness: int = 0,
    ) -> tuple[AdmissionController, PromotionReport]:
        """Take over from a dead primary; returns the serving controller.

        Finishes the local journal (group sync), runs
        :func:`~repro.online.persist.recover` over it (``verify=True`` adds
        the schedulability + batch-oracle checks), and cross-checks the
        recovered snapshot against the live applied state -- the two were
        built by different code paths from the same records, so equality is
        a strong end-to-end check of the replication channel.  *staleness*
        is the caller's bound on primary records never streamed (the
        in-flight window at death) and is only reported, not repaired.
        """
        if self._controller is None:
            raise ServiceError("cannot promote before the genesis record")
        started = time.perf_counter()
        with _span("service.promote", replicated=self.applied):
            self._journal.sync()
            recovered, recovery = recover(
                self._checkpoint_path
                if self._checkpoint_path is not None
                and self._checkpoint_path.exists()
                else None,
                self._journal.path,
                verify=verify,
                exact=exact,
            )
            if recovered.snapshot() != self._controller.snapshot():
                raise ServiceError(
                    "promotion aborted: recovered state diverges from the "
                    "live applied state -- the replication channel delivered "
                    "records the journal does not contain (or vice versa)"
                )
        failover = time.perf_counter() - started
        report = PromotionReport(
            replicated=self.applied,
            staleness=staleness,
            verified=verify,
            failover_seconds=failover,
            recovery=recovery,
        )
        if _metrics.enabled:
            _metrics.incr("service.promotions")
            _metrics.record_time("service.failover_seconds", failover)
            _metrics.observe("service.failover_staleness", staleness)
        ctx = current_context()
        if ctx is not None:
            ctx.record(Promotion(
                replicated=report.replicated,
                staleness=report.staleness,
                verified=report.verified,
                failover_seconds=report.failover_seconds,
            ))
        _log.info("PROMOTE: %s", report.describe())
        return self._controller, report

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "StandbyReplica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class StandbyFollower:
    """Asyncio transport feeding a :class:`StandbyReplica` from a primary.

    Subscribes at the replica's :attr:`~StandbyReplica.applied` offset
    (idempotent across reconnects), applies every streamed record, syncs
    the local journal and acknowledges once per drained burst, and records
    the wall-clock instant the primary's connection dropped -- the moment
    the failover clock starts.
    """

    def __init__(
        self,
        replica: StandbyReplica,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._replica = replica
        self._host = host
        self._port = port
        self.primary_dead = asyncio.Event()
        self.death_time: float | None = None  # perf_counter at disconnect
        self.subscribed = asyncio.Event()

    @property
    def replica(self) -> StandbyReplica:
        return self._replica

    async def follow(self) -> None:
        """Stream from the primary until it dies (EOF/reset); then return."""
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=MAX_LINE_BYTES
        )
        try:
            writer.write(encode(
                {"op": "subscribe", "from": self._replica.applied}
            ))
            await writer.drain()
            response = decode(await reader.readline())
            if not response.get("ok"):
                raise ServiceError(
                    f"primary refused subscription: {response.get('error')}"
                )
            self.subscribed.set()
            while True:
                line = await reader.readline()
                if not line:
                    break  # primary is gone
                burst = [line]
                # Drain whatever else is already in flight before syncing,
                # so one fsync covers the primary's whole committed batch.
                while True:
                    try:
                        more = await asyncio.wait_for(
                            reader.readline(), timeout=0.001
                        )
                    except (asyncio.TimeoutError, TimeoutError):
                        break
                    if not more:
                        break
                    burst.append(more)
                applied_any = False
                for raw in burst:
                    message = decode(raw)
                    record = message.get("record")
                    if record is None:
                        continue
                    self._replica.apply(record)
                    applied_any = True
                if applied_any:
                    self._replica.sync()
                    try:
                        writer.write(encode(
                            {"op": "ack", "n": self._replica.applied}
                        ))
                        await writer.drain()
                    except ConnectionError:
                        break
        except ConnectionError:
            pass
        finally:
            self.death_time = time.perf_counter()
            self.primary_dead.set()
            writer.close()
