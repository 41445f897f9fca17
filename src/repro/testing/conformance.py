"""Differential conformance harness over every maintained analysis path.

The repo deliberately keeps several routes to the same verdict: compiled
kernels vs. pure-Python reference, incremental online admission vs. batch
``fedcons``, the approximate ``DBF*`` test vs. the exact processor-demand
criterion, and discrete-event simulation vs. the analytic acceptance.  Each
pair comes with a documented soundness relation; this module runs one task
system through *all* of them and asserts every relation at once:

``kernel_identity``
    With the kernels on and off, :func:`repro.core.fedcons.fedcons` must
    return **bit-identical** deployments (same clusters, same makespans,
    same partition), and the per-bucket EDF tests must return identical
    verdicts.  The kernels are promised to be value-transparent.
``approx_implies_exact``
    ``DBF*`` dominates ``dbf``, so the approximate test is sufficient:
    on any shared bucket an approx *accept* must imply an exact (QPA)
    *accept* -- one-sided, never the reverse.  Accepted deployments must
    also survive ``PartitionResult.verify(exact=True)``.
``online_matches_batch``
    Replaying the system through :class:`repro.online.AdmissionController`
    (admissions, then a wave of departures) must leave a state that is
    sound (``verify(exact=True)``) and, whenever the controller reports
    ``canonical``, equal to the batch re-analysis (``matches_batch()``).
``analytic_implies_simulation``
    An accepted deployment must simulate with **zero** deadline misses,
    under the synchronous-periodic WCET pattern and under a sporadic
    early-completion pattern (the anomaly-prone one).
``speed_view_identity``
    :func:`~repro.analysis.speedup.minimum_fedcons_speed`, whose probes see
    the system through :func:`~repro.core.fedcons.fedcons_accepts`, must
    return the same float as the same search over scaled copies
    (``fedcons(system.scaled(s), m).success``).  Two bisections end on the
    same speed only if every probe verdict agreed, so one check covers
    every probe.

:func:`check_system` evaluates one instance; :func:`run_conformance`
drives a stream of them and aggregates a :class:`ConformanceReport`.
:func:`default_instances` mixes random systems with the Chen adversarial
family (:mod:`repro.generation.adversarial`) scaled to sit on *both* sides
of its analytic acceptance threshold, so the near-tight frontier is a
standing fixture of every run.  The module is executable::

    PYTHONPATH=src python -m repro.testing.conformance --instances 500
    REPRO_KERNELS=0 PYTHONPATH=src python -m repro.testing.conformance \
        --fixtures tests/data/gadgets/*.json

Exit status 1 signals at least one relation violation -- the CI
``adversarial`` job runs exactly these two commands.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.speedup import minimum_accepting_speed, minimum_fedcons_speed
from repro.core.dbf import edf_approx_test, edf_exact_test
from repro.core.fedcons import FedConsResult, fedcons
from repro.core.kernels import use_kernels
from repro.generation.adversarial import HARDNESS_GRADES, chen_gadget
from repro.generation.tasksets import SystemConfig, generate_system
from repro.model.serialization import system_from_dict
from repro.model.taskset import TaskSystem
from repro.online.controller import AdmissionController
from repro.parallel.seeds import sample_rng
from repro.sim.executor import simulate_deployment
from repro.sim.workload import ExecutionTimeModel, ReleasePattern

__all__ = [
    "RELATIONS",
    "ConformanceInstance",
    "ConformanceReport",
    "Violation",
    "adversarial_instances",
    "check_system",
    "default_instances",
    "fingerprint",
    "load_fixture_instance",
    "random_instances",
    "run_conformance",
    "main",
]

#: The relations the harness asserts, in evaluation order.
RELATIONS = (
    "kernel_identity",
    "approx_implies_exact",
    "online_matches_batch",
    "analytic_implies_simulation",
    "speed_view_identity",
)

_EXP_ID = "CONF"  # seed-derivation namespace for the random stream


@dataclass(frozen=True)
class Violation:
    """One broken soundness relation on one instance."""

    relation: str
    label: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.relation}] {self.label}: {self.detail}"


@dataclass(frozen=True)
class ConformanceInstance:
    """One unit of work: a task system, its platform, and a display label."""

    label: str
    system: TaskSystem
    processors: int


@dataclass
class ConformanceReport:
    """Aggregated outcome of a conformance run."""

    instances: int = 0
    checks: Counter = field(default_factory=Counter)
    violations: list[Violation] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff no relation was violated."""
        return not self.violations

    def describe(self) -> str:
        """Human-readable summary (one line per relation + violations)."""
        lines = [
            f"conformance: {self.instances} instance(s), "
            f"{sum(self.checks.values())} check(s), "
            f"{len(self.violations)} violation(s) "
            f"in {self.elapsed_seconds:.1f}s"
        ]
        for relation in RELATIONS:
            lines.append(f"  {relation:<28} {self.checks.get(relation, 0):>6}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)


def fingerprint(result: FedConsResult) -> tuple:
    """A canonical, bit-exact encoding of a FEDCONS deployment.

    Two results compare equal under this fingerprint iff they describe the
    same verdict, the same dedicated clusters with bit-identical template
    makespans, and the same shared-pool partition (task parameters encoded
    via ``float.hex`` so ``==`` means *bit* equality, not tolerance).
    """
    partition = None
    if result.partition is not None:
        partition = (
            result.partition.success,
            result.partition.processors,
            result.partition.failed_task.name
            if result.partition.failed_task is not None
            else None,
            tuple(
                tuple(
                    (
                        task.name,
                        float(task.wcet).hex(),
                        float(task.deadline).hex(),
                        float(task.period).hex(),
                    )
                    for task in bucket
                )
                for bucket in result.partition.assignment
            ),
        )
    return (
        result.success,
        result.reason.value if result.reason is not None else None,
        result.total_processors,
        tuple(
            (
                alloc.task.name,
                alloc.processors,
                float(alloc.schedule.makespan).hex(),
            )
            for alloc in result.allocations
        ),
        result.shared_processors,
        partition,
        result.failed_task.name if result.failed_task is not None else None,
    )


def _nonempty_buckets(result: FedConsResult) -> list[tuple]:
    if result.partition is None:
        return []
    return [bucket for bucket in result.partition.assignment if bucket]


def _check_kernel_identity(
    instance: ConformanceInstance, violations: list[Violation]
) -> tuple[FedConsResult, int]:
    """Kernels on vs. off: identical deployment, identical bucket verdicts."""
    with use_kernels(True):
        result_on = fedcons(instance.system, instance.processors)
        verdicts_on = [
            (edf_approx_test(bucket), edf_exact_test(bucket))
            for bucket in _nonempty_buckets(result_on)
        ]
    with use_kernels(False):
        result_off = fedcons(instance.system, instance.processors)
        verdicts_off = [
            (edf_approx_test(bucket), edf_exact_test(bucket))
            for bucket in _nonempty_buckets(result_off)
        ]
    checks = 1
    if fingerprint(result_on) != fingerprint(result_off):
        violations.append(
            Violation(
                "kernel_identity",
                instance.label,
                "fedcons deployments differ between kernel settings: "
                f"on={fingerprint(result_on)!r} off={fingerprint(result_off)!r}",
            )
        )
    checks += len(verdicts_on)
    if verdicts_on != verdicts_off:
        violations.append(
            Violation(
                "kernel_identity",
                instance.label,
                "per-bucket EDF verdicts differ between kernel settings: "
                f"on={verdicts_on!r} off={verdicts_off!r}",
            )
        )
    return result_on, checks


def _check_approx_implies_exact(
    instance: ConformanceInstance,
    result: FedConsResult,
    violations: list[Violation],
) -> int:
    """DBF* accept must imply exact (QPA) accept; accepted states verify."""
    checks = 0
    for k, bucket in enumerate(_nonempty_buckets(result)):
        checks += 1
        if edf_approx_test(bucket) and not edf_exact_test(bucket):
            names = ", ".join(t.name or "?" for t in bucket)
            violations.append(
                Violation(
                    "approx_implies_exact",
                    instance.label,
                    f"bucket {k} [{names}]: DBF* accepts but the exact "
                    "processor-demand criterion rejects (DBF* must dominate)",
                )
            )
    if result.success and result.partition is not None:
        checks += 1
        if not result.partition.verify(exact=True):
            violations.append(
                Violation(
                    "approx_implies_exact",
                    instance.label,
                    "accepted deployment fails PartitionResult.verify("
                    "exact=True)",
                )
            )
    return checks


def _check_online_matches_batch(
    instance: ConformanceInstance, violations: list[Violation]
) -> int:
    """Incremental admit/depart must track the batch re-analysis."""

    def assert_state(controller: AdmissionController, stage: str) -> int:
        done = 1
        if not controller.verify(exact=True):
            violations.append(
                Violation(
                    "online_matches_batch",
                    instance.label,
                    f"controller state fails verify(exact=True) after {stage}",
                )
            )
        if controller.canonical:
            done += 1
            if not controller.matches_batch():
                violations.append(
                    Violation(
                        "online_matches_batch",
                        instance.label,
                        f"canonical controller diverges from batch "
                        f"reanalyze() after {stage}",
                    )
                )
        return done

    controller = AdmissionController(instance.processors)
    admitted: list[str] = []
    for task in instance.system:
        decision = controller.admit(task)
        if decision.accepted:
            admitted.append(decision.task_id)
    checks = assert_state(controller, "admissions")
    if len(admitted) > 1:
        for task_id in admitted[1::3]:
            controller.depart(task_id)
        checks += assert_state(controller, "departures")
    return checks


def _check_analytic_implies_simulation(
    instance: ConformanceInstance,
    result: FedConsResult,
    violations: list[Violation],
    seed: int,
) -> int:
    """Accepted deployments must simulate without any deadline miss."""
    if not result.success:
        return 0
    horizon = 2.0 * max(task.period for task in instance.system)
    runs = (
        ("periodic/WCET", ReleasePattern.PERIODIC, ExecutionTimeModel.WCET),
        (
            "sporadic/early-completion",
            ReleasePattern.UNIFORM,
            ExecutionTimeModel.UNIFORM_FRACTION,
        ),
    )
    checks = 0
    for offset, (label, pattern, exec_model) in enumerate(runs):
        report = simulate_deployment(
            result,
            horizon,
            rng=seed + offset,
            pattern=pattern,
            exec_model=exec_model,
        )
        checks += 1
        if not report.ok:
            miss = report.deadline_misses[0]
            violations.append(
                Violation(
                    "analytic_implies_simulation",
                    instance.label,
                    f"accepted deployment missed {len(report.deadline_misses)}"
                    f" deadline(s) under {label} (first: {miss})",
                )
            )
    return checks


def _check_speed_view_identity(
    instance: ConformanceInstance, violations: list[Violation]
) -> int:
    """The speed search over the speed view == over scaled copies."""
    processors = instance.processors
    view = minimum_fedcons_speed(instance.system, processors)
    oracle = minimum_accepting_speed(
        lambda scaled: fedcons(scaled, processors).success, instance.system
    )
    if view != oracle:
        violations.append(
            Violation(
                "speed_view_identity",
                instance.label,
                f"minimum_fedcons_speed returned {view!r}, the search over "
                f"scaled copies {oracle!r}",
            )
        )
    return 1


def check_system(
    instance: ConformanceInstance,
    seed: int = 0,
    simulate: bool = True,
    online: bool = True,
) -> tuple[Counter, list[Violation]]:
    """Run one instance through every analysis path and relation.

    Returns the per-relation check counts and any violations.  *simulate* /
    *online* gate the two expensive legs (the kernel, approx/exact and
    speed-view legs always run).
    """
    violations: list[Violation] = []
    checks: Counter = Counter()
    result, n = _check_kernel_identity(instance, violations)
    checks["kernel_identity"] += n
    checks["approx_implies_exact"] += _check_approx_implies_exact(
        instance, result, violations
    )
    checks["speed_view_identity"] += _check_speed_view_identity(
        instance, violations
    )
    if online:
        checks["online_matches_batch"] += _check_online_matches_batch(
            instance, violations
        )
    if simulate:
        checks["analytic_implies_simulation"] += (
            _check_analytic_implies_simulation(
                instance, result, violations, seed
            )
        )
    return checks, violations


# ----------------------------------------------------------------------
# instance streams
# ----------------------------------------------------------------------

#: Round-robin recipe grid for the random stream (kept small and fast).
_RANDOM_GRID = tuple(
    (kind, tasks, processors, utilization)
    for kind in ("erdos_renyi", "layered", "nested_fork_join", "series_parallel")
    for tasks, processors in ((3, 4), (5, 6), (8, 8))
    for utilization in (0.3, 0.6, 0.85)
)

#: Speed multipliers (relative to the analytic threshold) for the
#: adversarial stream: just below, at, and just above the frontier.
_FRONTIER_SCALES = (0.95, 1.0, 1.1)


def random_instances(count: int, seed: int = 0) -> Iterator[ConformanceInstance]:
    """*count* small random systems cycling DAG kinds, sizes and loads."""
    for index in range(count):
        kind, tasks, processors, utilization = _RANDOM_GRID[
            index % len(_RANDOM_GRID)
        ]
        config = SystemConfig(
            tasks=tasks,
            processors=processors,
            normalized_utilization=utilization,
            dag_kind=kind,
            min_vertices=3,
            max_vertices=8,
        )
        system = generate_system(config, sample_rng(seed, _EXP_ID, index, 0))
        yield ConformanceInstance(
            label=f"random#{index} {kind} n={tasks} m={processors} "
            f"u={utilization}",
            system=system,
            processors=processors,
        )


def adversarial_instances(
    count: int, max_k: int = 3
) -> Iterator[ConformanceInstance]:
    """*count* Chen-gadget instances straddling the acceptance frontier.

    Cycles family index, hardness grade and a speed multiplier around the
    analytic threshold (the density), so the stream always contains
    instances FEDCONS barely rejects and instances it barely accepts --
    the exact regime where path divergence would hide.
    """
    recipes = [
        (k, grade, scale)
        for k in range(1, max_k + 1)
        for grade in HARDNESS_GRADES
        for scale in _FRONTIER_SCALES
    ]
    for index in range(count):
        k, grade, scale = recipes[index % len(recipes)]
        gadget = chen_gadget(k, hardness=grade)
        speed = scale * gadget.predicted_speed
        yield ConformanceInstance(
            label=f"chen#{index} k={k} h={grade} x{scale}",
            system=gadget.system.scaled(speed),
            processors=gadget.processors,
        )


def default_instances(
    count: int, seed: int = 0, adversarial_fraction: float = 0.3
) -> Iterator[ConformanceInstance]:
    """The standing mix: random systems + the adversarial frontier."""
    if not 0.0 <= adversarial_fraction <= 1.0:
        raise ValueError(
            f"adversarial_fraction must be in [0, 1], got {adversarial_fraction}"
        )
    adversarial_count = round(count * adversarial_fraction)
    yield from adversarial_instances(adversarial_count)
    yield from random_instances(count - adversarial_count, seed=seed)


def load_fixture_instance(path: str | Path) -> ConformanceInstance:
    """A :class:`ConformanceInstance` from a committed JSON gadget fixture."""
    data = json.loads(Path(path).read_text())
    return ConformanceInstance(
        label=str(data.get("label", Path(path).stem)),
        system=system_from_dict(data["system"]),
        processors=int(data["processors"]),
    )


def run_conformance(
    instances: Iterable[ConformanceInstance],
    seed: int = 0,
    simulate: bool = True,
    online: bool = True,
    progress: bool = False,
) -> ConformanceReport:
    """Drive every instance through :func:`check_system` and aggregate."""
    report = ConformanceReport()
    started = time.perf_counter()
    for index, instance in enumerate(instances):
        checks, violations = check_system(
            instance, seed=seed + index, simulate=simulate, online=online
        )
        report.instances += 1
        report.checks.update(checks)
        report.violations.extend(violations)
        if progress and (index + 1) % 50 == 0:  # pragma: no cover - cosmetic
            print(
                f"  ... {index + 1} instances, "
                f"{len(report.violations)} violation(s)",
                file=sys.stderr,
            )
    report.elapsed_seconds = time.perf_counter() - started
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: run the harness over the default mix and/or fixture files."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.conformance",
        description="Differential conformance harness: run task systems "
        "through every analysis path and assert the soundness relations.",
    )
    parser.add_argument(
        "--instances", type=int, default=500,
        help="generated instances (random + adversarial mix; default 500)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--adversarial-fraction", type=float, default=0.3,
        help="fraction of generated instances drawn from the Chen family",
    )
    parser.add_argument(
        "--fixtures", nargs="*", default=[], metavar="FIXTURE.json",
        help="committed gadget fixtures to check in addition to (or, with "
        "--instances 0, instead of) the generated mix",
    )
    parser.add_argument(
        "--no-simulate", action="store_true",
        help="skip the simulation leg (fast analytic-only run)",
    )
    parser.add_argument(
        "--no-online", action="store_true",
        help="skip the online-controller leg",
    )
    args = parser.parse_args(argv)
    if args.instances < 0:
        parser.error(f"--instances must be >= 0, got {args.instances}")

    def stream() -> Iterator[ConformanceInstance]:
        for path in args.fixtures:
            yield load_fixture_instance(path)
        yield from default_instances(
            args.instances,
            seed=args.seed,
            adversarial_fraction=args.adversarial_fraction,
        )

    report = run_conformance(
        stream(),
        seed=args.seed,
        simulate=not args.no_simulate,
        online=not args.no_online,
        progress=True,
    )
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
