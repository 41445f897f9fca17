"""Seeded inputs of the end-to-end benchmark's four workloads.

Every input is a pure function of ``(workload, seed, seconds)``: the service
workloads become a list of pre-encoded protocol request lines with their
task ids, the batch workload a list of ``(system, processors)`` pairs.  The
program under test only ever sees these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.generation.adversarial import hardness_dial
from repro.generation.families import family_names
from repro.generation.tasksets import SystemConfig, generate_system, generate_task
from repro.generation.traces import TraceConfig, generate_trace
from repro.model.serialization import task_to_dict
from repro.model.task import SporadicDAGTask
from repro.model.taskset import TaskSystem
from repro.service.protocol import encode


@dataclass(frozen=True)
class ServiceWorkload:
    """One traffic mix against a live server.

    ``rate`` is the open-loop arrival rate (requests/s) and fixes the event
    count: ``rate * seconds`` events, so one open-loop phase lasts the run's
    ``--seconds``.
    """

    name: str
    processors: int
    rate: float
    trace: TraceConfig


@dataclass(frozen=True)
class Event:
    """One request of a service workload: ``op`` is ``admit`` or ``depart``."""

    op: str
    task_id: str
    line: bytes


_LOW_SHAPE = SystemConfig(min_vertices=8, max_vertices=20, deadline_ratio=(0.35, 1.0))

SERVICE_WORKLOADS = {
    w.name: w
    for w in (
        # Admit-only low-density arrivals filling a wide platform: the shard
        # ledgers grow crowded, so first-fit probes, the protocol and group
        # fsync carry the cost; MINPROCS and departures do almost none.
        ServiceWorkload(
            "svc-fill", 320, 250.0,
            TraceConfig(
                processors=320, mean_lifetime=1e12, heavy_fraction=0.0,
                utilization_low=0.02, utilization_high=0.2, shape=_LOW_SHAPE,
            ),
        ),
        # Steady state: every arrival departs again after ~150 events, and a
        # low-density departure replays the later placements (compaction).
        ServiceWorkload(
            "svc-churn", 64, 200.0,
            TraceConfig(
                processors=64, mean_lifetime=150.0, heavy_fraction=0.05,
                shape=_LOW_SHAPE,
            ),
        ),
        # Mostly high-density arrivals with 40-160 vertex workflow DAGs and
        # Chen gadget tasks: task parsing and MINPROCS/list scheduling carry
        # the cost.  The trace only provides the arrival/departure skeleton;
        # heavy arrivals are substituted by heavy_arrivals().
        ServiceWorkload(
            "svc-heavy", 96, 100.0,
            TraceConfig(
                processors=96, mean_lifetime=40.0, heavy_fraction=0.0,
                shape=_LOW_SHAPE,
            ),
        ),
    )
}

#: svc-heavy: the workflow families heavy arrivals cycle through, then one
#: Chen gadget task; utilization and deadline ratio of the workflow tasks.
HEAVY_FAMILIES = tuple(family_names("pegasus")) + ("chen",)
HEAVY_SHAPE = SystemConfig(
    min_vertices=40, max_vertices=160, deadline_ratio=(0.05, 0.3)
)
HEAVY_UTILIZATION = (1.0, 3.0)
HEAVY_FRACTION = 0.7
#: Gadget index k: gadget tasks have density up to k (k=6 -> clusters <= 6).
GADGET_K = 6

BATCH_PROCESSORS = (16, 64)
BATCH_UTILIZATIONS = (0.3, 0.6)
BATCH_GADGET_K = (3, 5)

WORKLOADS = tuple(SERVICE_WORKLOADS) + ("batch-sizing",)


def heavy_arrivals(
    names: list[str], rng: np.random.Generator
) -> list[SporadicDAGTask]:
    """svc-heavy arrivals: 70% high-density, the rest low-density.

    High-density arrivals draw their shape round-robin from the Pegasus
    families and the Chen gadget dial, so the mix is the same for every seed.
    """
    gadgets = [task for g in hardness_dial(GADGET_K) for task in g.system]
    tasks = []
    heavy = 0
    for name in names:
        if rng.random() >= HEAVY_FRACTION:
            utilization = rng.uniform(0.05, 0.45)
            tasks.append(generate_task(utilization, _LOW_SHAPE, rng, name=name))
            continue
        family = HEAVY_FAMILIES[heavy % len(HEAVY_FAMILIES)]
        heavy += 1
        if family == "chen":
            base = gadgets[int(rng.integers(len(gadgets)))]
            tasks.append(SporadicDAGTask(
                dag=base.dag, deadline=base.deadline, period=base.period,
                name=name,
            ))
            continue
        shape = replace(HEAVY_SHAPE, dag_kind=family)
        utilization = rng.uniform(*HEAVY_UTILIZATION)
        tasks.append(generate_task(utilization, shape, rng, name=name))
    return tasks


def service_events(name: str, seed: int, seconds: float) -> list[Event]:
    """The request sequence of service workload *name*."""
    workload = SERVICE_WORKLOADS[name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    config = replace(workload.trace, events=max(1, round(workload.rate * seconds)))
    trace = generate_trace(config, rng)
    tasks = {e.task_id: e.task for e in trace if e.op == "admit"}
    if name == "svc-heavy":
        tasks = dict(zip(tasks, heavy_arrivals(list(tasks), rng)))
    events = []
    for e in trace:
        if e.op == "admit":
            message = {"op": "admit", "task": task_to_dict(tasks[e.task_id])}
        else:
            message = {"op": "depart", "task_id": e.task_id}
        events.append(Event(e.op, e.task_id, encode(message)))
    return events


def batch_systems(seed: int, rounds: int) -> list[tuple[TaskSystem, int]]:
    """Stratified seeded systems of the batch-sizing workload.

    Each of the *rounds* holds one ``2m``-task system per generatable zoo
    family (random and elementary groups), ``m`` in
    :data:`BATCH_PROCESSORS` and ``U/m`` in :data:`BATCH_UTILIZATIONS`, then
    every Chen gadget of the hardness dials on its own ``2k + 1`` platform.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("batch-sizing")])
    families = family_names("random") + family_names("elementary")
    gadgets = [g for k in BATCH_GADGET_K for g in hardness_dial(k)]
    systems = []
    for _ in range(rounds):
        for m in BATCH_PROCESSORS:
            for utilization in BATCH_UTILIZATIONS:
                for family in families:
                    config = SystemConfig(
                        tasks=2 * m, processors=m,
                        normalized_utilization=utilization, dag_kind=family,
                        min_vertices=8, max_vertices=20,
                    )
                    systems.append((generate_system(config, rng), m))
        systems.extend((g.system, g.processors) for g in gadgets)
    return systems
