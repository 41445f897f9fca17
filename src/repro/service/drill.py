"""Kill-primary failover drill: the service's end-to-end fire drill.

One drill = spawn a real primary (``fedcons-serve serve`` in a child
process), attach an in-process :class:`~repro.service.replica.StandbyReplica`
over the replication protocol, drive concurrent admissions at it, then
``SIGKILL`` the primary mid-load and promote the standby.  The report
answers the questions that matter for the ISSUE's acceptance bar:

* **failover time** -- wall clock from the standby noticing the dead
  connection to ``promote(verify=True)`` returning a serving controller;
* **staleness** -- records the primary had committed to its on-disk
  journal but the standby never applied (the in-flight window);
* **consistency** -- the promoted state must equal a fresh replay of the
  primary's journal prefix it claims to cover, and (when nothing was in
  flight) a full ``recover(verify=True)`` of the primary's journal.

The same helpers back ``fedcons-serve drill``, the EXP-S soak experiment
and ``benchmarks/test_bench_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError
from repro.model.serialization import task_to_dict
from repro.model.task import SporadicDAGTask
from repro.obs.logging import get_logger
from repro.online.persist import Journal, controller_from_records
from repro.service.protocol import MAX_LINE_BYTES, decode, encode
from repro.service.replica import PromotionReport, StandbyFollower, StandbyReplica

__all__ = [
    "PrimaryHandle",
    "DrillReport",
    "spawn_primary",
    "drive_admissions",
    "run_drill",
    "controller_from_records",
]

_log = get_logger(__name__)


@dataclass
class PrimaryHandle:
    """A ``fedcons-serve serve`` child process and its announced ports."""

    process: subprocess.Popen
    tcp_port: int
    http_port: int | None
    journal: Path

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL -- no shutdown courtesy, that is the point."""
        try:
            self.process.kill()
        except ProcessLookupError:
            pass
        self.process.wait()

    def terminate(self) -> None:
        try:
            self.process.send_signal(signal.SIGTERM)
            self.process.wait(timeout=10)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            self.kill()


@dataclass(frozen=True)
class DrillReport:
    """Outcome of one kill-primary drill."""

    attempted: int  # admissions sent before the kill
    accepted: int  # ... that came back accepted
    committed: int  # records in the primary's on-disk journal at death
    replicated: int  # records the standby had applied at death
    staleness: int  # committed - replicated (the in-flight window)
    failover_seconds: float  # death detection -> serving controller
    promotion: PromotionReport
    verified: bool  # recover(verify=True) passed during promotion
    prefix_consistent: bool  # promoted state == replay of primary prefix
    admissions_per_sec: float  # sustained rate before the kill

    def describe(self) -> str:
        return (
            f"drill: {self.accepted}/{self.attempted} accepted at "
            f"{self.admissions_per_sec:.0f} adm/s; primary died with "
            f"{self.committed} committed / {self.replicated} replicated "
            f"(staleness {self.staleness}); failover "
            f"{self.failover_seconds * 1e3:.1f} ms "
            f"({'verified' if self.verified else 'UNVERIFIED'}, prefix "
            f"{'consistent' if self.prefix_consistent else 'DIVERGED'})"
        )


def spawn_primary(
    journal: str | Path,
    processors: int = 16,
    fsync: str = "batch",
    http: bool = False,
    max_batch: int = 128,
    timeout: float = 30.0,
) -> PrimaryHandle:
    """Start a primary in a child process; block until it announces ready.

    The child prints one JSON readiness line (``--announce``) carrying the
    OS-assigned ports; everything after that is its own logging.
    """
    command = [
        sys.executable, "-m", "repro.service.cli", "serve",
        "--journal", str(journal),
        "--processors", str(processors),
        "--port", "0",
        "--fsync", fsync,
        "--max-batch", str(max_batch),
        "--announce",
    ]
    if http:
        command += ["--http-port", "0"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    assert process.stdout is not None
    deadline = time.monotonic() + timeout
    line = process.stdout.readline()
    if not line:
        process.kill()
        raise ServiceError("primary exited before announcing readiness")
    if time.monotonic() > deadline:
        process.kill()
        raise ServiceError("primary took too long to announce readiness")
    try:
        announcement = json.loads(line)
    except json.JSONDecodeError as exc:
        process.kill()
        raise ServiceError(
            f"primary announced garbage: {line!r} ({exc})"
        ) from exc
    if not announcement.get("ready"):
        process.kill()
        raise ServiceError(f"primary announced failure: {announcement}")
    return PrimaryHandle(
        process=process,
        tcp_port=int(announcement["tcp_port"]),
        http_port=announcement.get("http_port"),
        journal=Path(journal),
    )


async def _admit_worker(
    host: str,
    port: int,
    tasks: list[SporadicDAGTask],
    results: list,
) -> None:
    """One open-loop connection: admit its share until done or primary dies."""
    try:
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
    except ConnectionError:
        return
    try:
        for task in tasks:
            writer.write(encode({"op": "admit", "task": task_to_dict(task)}))
            await writer.drain()
            line = await reader.readline()
            if not line:
                return  # primary died mid-request
            response = decode(line)
            results.append(response)
    except ConnectionError:
        return
    finally:
        writer.close()


async def drive_admissions(
    host: str,
    port: int,
    tasks: list[SporadicDAGTask],
    concurrency: int = 4,
) -> tuple[list[dict], float]:
    """Admit *tasks* over *concurrency* connections; returns (responses, secs).

    Connections submit their shares concurrently, so the server sees the
    overlapping arrivals its commit loop exists to coalesce.  Responses are
    whatever came back before the primary (possibly) died.
    """
    shares: list[list[SporadicDAGTask]] = [[] for _ in range(concurrency)]
    for index, task in enumerate(tasks):
        shares[index % concurrency].append(task)
    results: list[dict] = []
    started = time.perf_counter()
    await asyncio.gather(*(
        _admit_worker(host, port, share, results)
        for share in shares if share
    ))
    return results, time.perf_counter() - started


async def _run_drill_async(
    tasks: list[SporadicDAGTask],
    workdir: Path,
    processors: int,
    concurrency: int,
    kill_after: int,
    verify: bool,
) -> DrillReport:
    primary = spawn_primary(
        workdir / "primary.journal", processors=processors, fsync="batch"
    )
    replica = StandbyReplica(workdir / "standby.journal")
    follower = StandbyFollower(
        replica, host="127.0.0.1", port=primary.tcp_port
    )
    follow_task = asyncio.create_task(follower.follow())
    try:
        await asyncio.wait_for(follower.subscribed.wait(), timeout=30)
        drive_task = asyncio.create_task(
            drive_admissions(
                "127.0.0.1", primary.tcp_port, tasks, concurrency
            )
        )
        # Let the soak run until the standby has applied enough history,
        # then murder the primary mid-load.
        while replica.applied < kill_after and not drive_task.done():
            await asyncio.sleep(0.002)
        os.kill(primary.pid, signal.SIGKILL)
        primary.process.wait()
        responses, elapsed = await drive_task
        await asyncio.wait_for(follower.primary_dead.wait(), timeout=30)
        await follow_task

        detection = follower.death_time or time.perf_counter()
        controller, promotion = replica.promote(verify=verify)
        failover = time.perf_counter() - detection

        committed_records, _ = Journal.read(primary.journal)
        committed = len(committed_records)
        replicated = replica.applied
        staleness = committed - replicated
        # The promoted state must equal a replay of exactly the primary
        # prefix it claims to cover -- byte-identical decisions.
        prefix = controller_from_records(committed_records[:replicated])
        prefix_consistent = prefix.snapshot() == controller.snapshot()

        accepted = sum(
            1 for r in responses
            if r.get("ok") and r.get("decision", {}).get("accepted")
        )
        rate = len(responses) / elapsed if elapsed > 0 else 0.0
        return DrillReport(
            attempted=len(responses),
            accepted=accepted,
            committed=committed,
            replicated=replicated,
            staleness=staleness,
            failover_seconds=failover,
            promotion=promotion,
            verified=promotion.verified,
            prefix_consistent=prefix_consistent,
            admissions_per_sec=rate,
        )
    finally:
        if primary.process.poll() is None:
            primary.kill()
        if not follow_task.done():
            follow_task.cancel()
            try:
                await follow_task
            except asyncio.CancelledError:
                pass
        replica.close()


def run_drill(
    tasks: list[SporadicDAGTask],
    workdir: str | Path,
    processors: int = 16,
    concurrency: int = 4,
    kill_after: int = 0,
    verify: bool = True,
) -> DrillReport:
    """Run one kill-primary drill to completion (blocking entry point).

    *kill_after* is the number of journal records the standby must have
    applied before the SIGKILL lands (0 = kill as soon as replication is
    flowing); the load keeps running while the primary dies, which is what
    makes the measured staleness honest.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = asyncio.run(_run_drill_async(
        tasks, workdir, processors, concurrency, kill_after, verify
    ))
    _log.info("DRILL: %s", report.describe())
    return report
