"""Drive a live admission server: spawn, open/closed-loop load, server metrics.

One asyncio client process holds two TCP connections to a real primary
spawned by :func:`repro.service.drill.spawn_primary`.  Requests are
pre-encoded before a phase starts, so the client spends its time on the
socket, not on serialization.  Responses on one connection arrive in
request order, which is how each response is matched to its request.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.obs.metrics import Histogram
from repro.service.drill import spawn_primary
from repro.service.protocol import MAX_LINE_BYTES, encode

import speed
from workloads import Event

CONNECTIONS = 2
WINDOW = 32
#: A phase that has not drained this long after its last send is a failure.
DRAIN_TIMEOUT_S = 60.0
#: The server runs on the first usable CPU, the client on the last one.
_USABLE = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = _USABLE[0], _USABLE[-1]


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of process *pid* so far (/proc/PID/stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of process *pid* (VmHWM in /proc/PID/status)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


@dataclass
class Request:
    """One sent request and, once answered, its response."""

    event: Event | None
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: dict | None = None


@dataclass
class Phase:
    """Everything one load phase against one fresh server observed.

    ``server_cpu_s`` and ``peak_rss_mb`` are the server's, over the load;
    ``slowdown`` is the server CPU's over the load (see speed.py).
    """

    requests: list[Request]
    elapsed_s: float
    server_cpu_s: float
    peak_rss_mb: float
    slowdown: float
    metrics_text: str
    state: dict
    journal: Path
    lags_s: list[float]

    @property
    def failed(self) -> list[Request]:
        return [r for r in self.requests if not (r.response or {}).get("ok")]


class _Connection:
    """One pipelined connection: FIFO of in-flight requests plus a reader."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.inflight: deque[tuple[Request, asyncio.Future]] = deque()
        self.slots = asyncio.Semaphore(WINDOW)

    def send(self, request: Request, line: bytes) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        request.sent = time.perf_counter()
        self.inflight.append((request, future))
        self.writer.write(line)
        return future

    async def read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                for request, future in self.inflight:
                    future.set_exception(ConnectionError("server closed"))
                return
            received = time.perf_counter()
            request, future = self.inflight.popleft()
            request.received = received
            request.response = json.loads(line)
            future.set_result(request.response)
            self.slots.release()


async def _run_phase(port: int, events: list[Event], rate: float | None) -> dict:
    """Send *events* open-loop at *rate* requests/s, or closed-loop when
    *rate* is ``None`` (each connection keeps :data:`WINDOW` in flight).

    A depart goes out only once its task's admit came back accepted.  It
    waits for that response in a task of its own, so a slow admit delays
    its depart (whose latency still counts from its due time) but not the
    generator: the open loop keeps its schedule.  ``requests`` are in the
    order they were sent; ``lags_s`` is how late the generator reached each
    event.
    """
    connections = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES
        )
        connections.append(_Connection(reader, writer))
    readers = [asyncio.create_task(c.read_loop()) for c in connections]
    admits: dict[str, asyncio.Future] = {}
    pending: list[asyncio.Future] = []
    requests: list[Request] = []
    lags: list[float] = []

    def send(connection: _Connection, event: Event, due: float) -> asyncio.Future:
        request = Request(event, due)
        future = connection.send(request, event.line)
        if not rate:
            request.due = request.sent
        requests.append(request)
        return future

    async def depart(connection: _Connection, event: Event, due: float):
        admitted = await admits[event.task_id]
        if admitted.get("decision", {}).get("accepted"):
            return await send(connection, event, due)
        if not rate:
            connection.slots.release()
        return None

    try:
        started = time.perf_counter()
        for index, event in enumerate(events):
            connection = connections[index % CONNECTIONS]
            due = started + index / rate if rate else 0.0
            if rate:
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(time.perf_counter() - due)
            else:
                await connection.slots.acquire()
            if event.op == "admit":
                admits[event.task_id] = send(connection, event, due)
                pending.append(admits[event.task_id])
            else:
                pending.append(asyncio.ensure_future(depart(connection, event, due)))
        await asyncio.wait_for(asyncio.gather(*pending), DRAIN_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        # Read-only ops after the load: the server's own histograms and the
        # state the final query reports (read-your-writes on connection 0).
        probe = connections[0]
        metrics = await probe.send(Request(None, 0.0), encode({"op": "metrics"}))
        query = await probe.send(Request(None, 0.0), encode({"op": "query"}))
    finally:
        for connection in connections:
            connection.writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return {
        "requests": requests,
        "elapsed_s": elapsed,
        "metrics_text": metrics["text"],
        "state": query["state"],
        "lags_s": lags,
    }


def run_phase(
    journal: Path, processors: int, events: list[Event], rate: float | None
) -> Phase:
    """Spawn a fresh primary on *journal*, load it, stop it; see _run_phase.

    The server is pinned to :data:`SERVER_CPU`; the caller runs on
    :data:`CLIENT_CPU`.
    """
    primary = spawn_primary(journal, processors=processors, fsync="batch")
    try:
        os.sched_setaffinity(primary.pid, {SERVER_CPU})
        # A collection of the client's heap would stall the generator for
        # tens of milliseconds; the load allocates little, so none runs.
        gc.collect()
        gc.disable()
        # Only the server's CPU gets a spinner: with both CPUs kept busy the
        # host descheduled them for 10-15 ms at a time, inflating latency.
        with speed.Spinner(SERVER_CPU) as spinner:
            cpu_before = _cpu_s(primary.pid)
            observed = asyncio.run(_run_phase(primary.tcp_port, events, rate))
            server_cpu_s = _cpu_s(primary.pid) - cpu_before
            peak_rss_mb = _peak_rss_mb(primary.pid)
    finally:
        gc.enable()
        primary.terminate()
        primary.process.stdout.close()
    return Phase(
        server_cpu_s=server_cpu_s,
        peak_rss_mb=peak_rss_mb,
        slowdown=spinner.slowdown,
        journal=journal,
        **observed,
    )


def spawn_s(journal: Path, processors: int) -> float:
    """Seconds from spawning a primary on a new *journal* to its readiness
    line; stops it and deletes the journal."""
    spawned = time.perf_counter()
    primary = spawn_primary(journal, processors=processors, fsync="batch")
    elapsed = time.perf_counter() - spawned
    primary.terminate()
    primary.process.stdout.close()
    journal.unlink()
    return elapsed


# ---------------------------------------------------------------------------
# the server's Prometheus exposition (the `metrics` op)
# ---------------------------------------------------------------------------
def parse_prometheus(text: str) -> dict[str, float]:
    """Sample lines of a Prometheus text exposition as ``{series: value}``."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return samples


def histogram(samples: dict[str, float], name: str) -> Histogram:
    """Rebuild timer *name*'s :class:`Histogram` from its exposition.

    Bucket ``i`` is exposed with upper bound ``2**(i/8)``; the extrema come
    from the timer's ``_min``/``_max`` gauges.
    """
    prefix = f"{name}_hist_bucket{{le=\""
    buckets = {}
    previous = 0
    for series, cumulative in samples.items():
        if series.startswith(prefix) and not series.endswith('"+Inf"}'):
            upper = float(series[len(prefix):-2])
            buckets[str(round(math.log2(upper) * 8))] = int(cumulative) - previous
            previous = int(cumulative)
    sketch = Histogram()
    count = int(samples.get(f"{name}_hist_count", 0))
    if count:
        sketch.merge_dict({
            "count": count,
            "min": samples[f"{name}_min"],
            "max": samples[f"{name}_max"],
            "sum": samples[f"{name}_hist_sum"],
            "buckets": buckets,
        })
    return sketch
