"""The batch-sizing workload: platform and speed queries, in process.

No socket, journal or controller: seeded systems go through
:func:`~repro.analysis.sensitivity.minimum_platform` (phase 1) and then
:func:`~repro.analysis.speedup.minimum_fedcons_speed` (phase 2) inside
:func:`~repro.core.cache.caching`, which is how ``fedcons-experiments``
runs by default.  In phase 1 the MINPROCS cache serves the repeated
analyses of one system at different ``m``; in phase 2 every probe scales
the system into fresh DAG digests, so the caches only cost lookups.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.sensitivity import minimum_platform
from repro.analysis.speedup import minimum_fedcons_speed
from repro.core.cache import caches, caching
from repro.core.fedcons import fedcons
from repro.generation.tasksets import SystemConfig, generate_system
from repro.obs.metrics import collecting, metrics
from repro.model.taskset import TaskSystem

import speed

PHASES = ("platform", "speed")
#: Measured wall time of one round of batch_systems() on the reference
#: machine (2 cores, see README.md): a run of S seconds measures
#: round(S / ROUND_SECONDS) rounds.
ROUND_SECONDS = 3.5
#: Probe the machine's speed at least this often during a phase.
PROBE_INTERVAL_S = 0.25
#: The speed search's tolerance (minimum_fedcons_speed's default).
SPEED_TOLERANCE = 1e-3

#: What one cold start does: import the package and analyse one system.
COLD_START = (
    "from repro.generation.tasksets import SystemConfig, generate_system;"
    "from repro.core.fedcons import fedcons;"
    "fedcons(generate_system(SystemConfig(tasks=16, processors=8), 0), 8)"
)


@dataclass
class BatchPhase:
    """One phase over every system: answers, per-query raw latency, CPU and
    machine slowdown, plus the phase's counters, timers and cache hit rates.
    """

    answers: list
    latencies_s: list[float]
    cpu_s: list[float]
    slowdowns: list[float]
    counters: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)


def cold_start_s(src: Path) -> float:
    """Wall time of a fresh interpreter that imports repro and runs FEDCONS."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", COLD_START],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    return time.perf_counter() - started


def warm_up() -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    system = generate_system(SystemConfig(tasks=8, processors=4), 0)
    minimum_platform(system)
    minimum_fedcons_speed(system, 4, tolerance=SPEED_TOLERANCE)


def _query(phase: str, system: TaskSystem, processors: int):
    if phase == "platform":
        return minimum_platform(system)
    return minimum_fedcons_speed(system, processors, tolerance=SPEED_TOLERANCE)


def _timed_queries(phase: str, systems: list[tuple[TaskSystem, int]]):
    """Answers, raw latencies, CPU times and slowdowns of one phase.

    The machine's speed is probed whenever :data:`PROBE_INTERVAL_S` has
    passed; each query is tagged with the mean of the probes around it.
    """
    answers, latencies, cpu, slowdowns = [], [], [], []
    probes = [speed.slowdown()]
    block = 0
    probed = time.perf_counter()
    for index, (system, processors) in enumerate(systems):
        cpu_started = time.process_time()
        started = time.perf_counter()
        answers.append(_query(phase, system, processors))
        latencies.append(time.perf_counter() - started)
        cpu.append(time.process_time() - cpu_started)
        if time.perf_counter() - probed >= PROBE_INTERVAL_S or index == len(systems) - 1:
            probes.append(speed.slowdown())
            probed = time.perf_counter()
            slowdowns.extend([(probes[-2] + probes[-1]) / 2] * (index + 1 - block))
            block = index + 1
    return answers, latencies, cpu, slowdowns


def run_phases(
    systems: list[tuple[TaskSystem, int]], traced: bool
) -> dict[str, BatchPhase]:
    """Both phases in order under one cache scope.

    With *traced* set the metrics registry collects each phase's counters
    and timers; otherwise it stays off, as end-to-end numbers require.
    """
    phases = {}
    with caching():
        for phase in PHASES:
            hits = {name: (c.hits, c.misses) for name, c in _caches().items()}
            with collecting() if traced else nullcontext(metrics) as registry:
                timed = _timed_queries(phase, systems)
                snapshot = registry.snapshot()
            phases[phase] = BatchPhase(
                *timed,
                counters=snapshot["counters"],
                timers=snapshot["timers"],
                cache={
                    name: _rate(c.hits - hits[name][0], c.misses - hits[name][1])
                    for name, c in _caches().items()
                },
            )
    return phases


def _caches() -> dict:
    return {"minprocs": caches.minprocs, "compiled": caches.compiled,
            "dbf_star": caches.dbf_star}


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def digest(phases: dict[str, BatchPhase]) -> str:
    """Content digest of every answer of both phases."""
    payload = json.dumps({p: phases[p].answers for p in PHASES})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def certificate_failures(
    systems: list[tuple[TaskSystem, int]], phases: dict[str, BatchPhase]
) -> int:
    """Answers that an uncached FEDCONS does not confirm.

    A minimum platform ``m`` must be accepted at ``m`` and rejected at
    ``m - 1`` (acceptance is monotone in ``m``).  A minimum speed must be
    accepted; the search's lower bracket is not re-checked, because
    first-fit partitioning makes acceptance non-monotone in speed at the
    search's resolution.
    """
    failures = 0
    for (system, processors), m, least_speed in zip(
        systems, phases["platform"].answers, phases["speed"].answers
    ):
        if m is None or not fedcons(system, m).success:
            failures += 1
        elif m > 1 and fedcons(system, m - 1).success:
            failures += 1
        if not math.isfinite(least_speed) or not fedcons(
            system.scaled(least_speed), processors
        ).success:
            failures += 1
    return failures
