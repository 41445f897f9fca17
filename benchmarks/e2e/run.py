"""End-to-end benchmark of the FEDCONS admission service and batch analysis.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload svc-fill --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl

One run prints every metric by name and unit, checks the program's outputs,
appends a summary to ``benchmarks/e2e/history.jsonl`` and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  Exit status: 0 when every check passed, 1 when one failed,
3 when the open-loop generator fell behind its schedule in every attempt
(the run is invalid and reports nothing).  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark runs from a plain checkout: import the package from src/.
sys.path.insert(0, str(ROOT / "src"))

import argparse
import datetime
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext

import numpy

from repro.core.kernels import kernel_backend
from repro.errors import PersistenceError, ServiceError
from repro.obs.metrics import collecting, percentile
from repro.obs.metrics import metrics as global_registry
from repro.online.persist import Journal, recover
from repro.parallel.engine import available_cpus
from repro.service.drill import controller_from_records

import batch
import compare
import live
import replay
import speed
from workloads import SERVICE_WORKLOADS, WORKLOADS, batch_systems, service_events

SPEC_PATH = ROOT / "BENCHMARK.json"
CALIBRATION_PATH = HERE / "calibration.json"
HISTORY_PATH = HERE / "history.jsonl"

#: Set-up is timed in blocks of repeats, each block beside its own spinner.
#: A spinner gets the CPU only in the gaps of a start-up, a few iterations
#: per block, so one block's slowdown reading can be off by 1.5x; the
#: median over blocks is not.
SETUP_BLOCKS = 3
SETUP_REPEATS = 3
#: Open-loop validity: generator lag p99 and achieved / offered rate, and
#: how many open-loop phases a run may try before it is invalid.
MAX_LAG_P99_S = 0.005
MIN_ACHIEVED_RATIO = 0.98
OPEN_ATTEMPTS = 3
#: Per-layer metrics that only the batch workload measures.
BATCH_ONLY = ("platform.", "speed.", "batch.")


class InvalidRun(Exception):
    """The open-loop generator could not keep its schedule."""


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _timing(prefix: str, samples_s: list[float]) -> dict:
    """``prefix.p50`` and ``prefix.p99`` in microseconds, and ``prefix.n``,
    of per-call times."""
    if not samples_s:
        return {f"{prefix}.p50": 0.0, f"{prefix}.p99": 0.0, f"{prefix}.n": 0}
    return {
        f"{prefix}.p50": 1e6 * percentile(samples_s, 50),
        f"{prefix}.p99": 1e6 * percentile(samples_s, 99),
        f"{prefix}.n": len(samples_s),
    }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _setup_s(start, quick: bool) -> float:
    """Set-up time in reference-machine units: per block, the median of
    *start*'s timings divided by the slowdown of the client's CPU, which
    runs them; the median over blocks."""
    blocks = []
    for _ in range(1 if quick else SETUP_BLOCKS):
        with speed.Spinner(live.CLIENT_CPU) as spinner:
            times = [start() for _ in range(1 if quick else SETUP_REPEATS)]
        blocks.append(statistics.median(times) / spinner.slowdown)
    return statistics.median(blocks)


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------
def _check_acks(phase: live.Phase) -> tuple[int, list[dict]]:
    """Failed requests plus acks that differ from the committed journal.

    Every acked decision must equal the journal record of its task, and the
    journal must hold one record per request.  Returns the count and the
    journal's records.
    """
    records, _ = Journal.read(phase.journal)
    admits = {r["id"]: r for r in records if r.get("kind") == "admit"}
    departs = {r["id"]: r for r in records if r.get("kind") == "depart"}
    failures = len(phase.failed) + (len(records) - 1 != len(phase.requests))
    for request in phase.requests:
        response = request.response or {}
        task_id = request.event.task_id
        if "decision" in response:
            d, record = response["decision"], admits.get(task_id, {})
            failures += (d["accepted"], d["kind"], d["processors"]) != (
                record.get("accepted"), record.get("decided"),
                record.get("processors"),
            )
        elif "receipt" in response:
            r, record = response["receipt"], departs.get(task_id, {})
            failures += (r["kind"], r["released"], r["migrations"], r["clean"]) != (
                record.get("decided"), record.get("released"),
                record.get("migrations"), record.get("clean"),
            )
    return failures, records


def _replay(rebuild):
    """``(controller, seconds)`` of *rebuild*, a journal replay that checks
    every record against the decision it recorded; the controller is
    ``None`` when the replay diverged."""
    started = time.perf_counter()
    try:
        controller = rebuild()
    except (PersistenceError, ServiceError) as exc:
        print(f"journal replay failed: {exc}", file=sys.stderr)
        controller = None
    return controller, time.perf_counter() - started


def _check_state(phase: live.Phase, records: list[dict], controller) -> int:
    """1 unless *controller*, replayed from the journal's *records*, holds
    the state the final query reported."""
    if controller is None:
        return 1
    state = phase.state
    return int((
        state["seq"], state["admitted_ids"], state["dedicated"],
        state["shared"], state["canonical"], state["journal_entries"],
    ) != (
        controller.seq, list(controller.admitted_ids),
        controller.dedicated_processor_count,
        controller.shared_processor_count, controller.canonical, len(records),
    ))


def run_service(name: str, seed: int, seconds: float, traced: bool,
                workdir: Path, quick: bool) -> tuple[int, int, dict, dict]:
    """One service-workload run: ``(attempted, failed, metrics, outputs)``.

    The end-to-end set-up and CPU times are divided by the slowdown of the
    CPU that spent them, so they read in reference-machine units (see
    speed.py); the per-layer metrics are as measured.
    """
    workload = SERVICE_WORKLOADS[name]
    events = service_events(name, seed, seconds)
    m = workload.processors
    # A child starts on its parent's CPU: the spawns run on the client's.
    setup_s = _setup_s(lambda: live.spawn_s(workdir / "setup.journal", m), quick)
    # Open-loop validity: a phase whose generator fell behind its schedule
    # is discarded and re-run on a fresh server.
    for attempt in range(OPEN_ATTEMPTS):
        opened = live.run_phase(
            workdir / f"open{attempt}.journal", m, events, workload.rate
        )
        lag_p99 = percentile(opened.lags_s, 99)
        first_due = opened.requests[0].due
        achieved = (
            max(r.due for r in opened.requests) - first_due + 1 / workload.rate
        ) / (max(r.sent for r in opened.requests) - first_due + 1 / workload.rate)
        behind = (
            f"{name}: generator lag p99 {_ms(lag_p99):.2f} ms, achieved / "
            f"offered rate {achieved:.3f}"
        )
        if lag_p99 <= MAX_LAG_P99_S and achieved >= MIN_ACHIEVED_RATIO:
            break
        print(f"discarded open loop: {behind}", file=sys.stderr)
    else:
        raise InvalidRun(behind)
    closed = live.run_phase(workdir / "closed.journal", m, events, None)

    # Correctness: acks against journals; the open-loop journal recovered
    # with verification (timed), the closed-loop journal replayed.
    failed, records = _check_acks(opened)
    with collecting() if traced else nullcontext(global_registry) as registry:
        controller, recover_s = _replay(
            lambda: recover(None, opened.journal, verify=True)[0]
        )
        replay_timer = registry.timer("online.recover.replay_seconds")
    failed += _check_state(opened, records, controller)
    closed_failed, closed_records = _check_acks(closed)
    replayed, _ = _replay(lambda: controller_from_records(closed_records))
    failed += closed_failed + _check_state(closed, closed_records, replayed)
    attempted = len(opened.requests) + len(closed.requests)
    decisions = [
        r.response["decision"] for r in opened.requests
        if "decision" in (r.response or {})
    ]
    outputs = {"accept_ratio": _per(sum(d["accepted"] for d in decisions), len(decisions))}

    requests = len(opened.requests)
    if not traced:
        return attempted, failed, {
            "setup_s": setup_s,
            "cpu_ms_per_op": _ms(opened.server_cpu_s / opened.slowdown / requests),
            "peak_rss_mb": max(opened.peak_rss_mb, closed.peak_rss_mb),
        }, outputs

    # Traced replay of the open-loop journal, in process.
    samples = live.parse_prometheus(opened.metrics_text)
    batch_mean = _per(
        samples.get("service_batch_size_hist_sum", 0.0),
        samples.get("service_batch_size_hist_count", 0.0),
    )
    items = replay.request_lines(records)
    batch_size = max(1, round(batch_mean))
    plain = replay.replay(records[0], items, workdir / "plain.journal",
                          batch_size, traced=False)
    timed = replay.replay(records[0], items, workdir / "traced.journal",
                          batch_size, traced=True)
    failed += plain.mismatches + timed.mismatches
    layer_s = sum(sum(v) for v in timed.samples.values())
    latencies = [r.received - r.due for r in opened.requests]
    request_ms = live.histogram(samples, "service_request_seconds")
    rtts = [r.received - r.sent for r in opened.requests]
    low_admits = timed.admits - timed.high_admits
    metrics = {
        "machine.slowdown": opened.slowdown,
        "latency.p50_ms": _ms(percentile(latencies, 50)),
        "latency.p95_ms": _ms(percentile(latencies, 95)),
        "latency.p99_ms": _ms(percentile(latencies, 99)),
        "latency.n": len(latencies),
        "loop.lag_p99_ms": _ms(lag_p99),
        "loop.achieved_ratio": achieved,
        "persist.recover_s": recover_s,
        "persist.replay_us_per_record": 1e6 * replay_timer.mean,
        "protocol.request_kib": statistics.fmean(
            len(r.event.line) for r in opened.requests
        ) / 1024,
        "controller.accept_ratio": _per(timed.accepted, timed.admits),
        "controller.probes_per_low_admit": _per(
            timed.counters.get("online.placement_probes", 0), low_admits
        ),
        "minprocs.ls_runs_per_high_admit": _per(
            timed.counters.get("minprocs_ls_runs", 0), timed.high_admits
        ),
        "controller.migrations_per_depart": _per(timed.migrations, timed.departs),
        "journal.syncs_per_req": _per(
            samples.get("online_journal_group_syncs_total", 0.0), requests
        ),
        "journal.bytes_per_req": _per(opened.journal.stat().st_size, requests),
        "server.request_ms_p50": _ms(request_ms.quantile(0.5)),
        "server.request_ms_p99": _ms(request_ms.quantile(0.99)),
        "server.batch_size_mean": batch_mean,
        "server.saturation_ops_s": len(closed.requests) / closed.elapsed_s,
        "server.unattributed_cpu_us_per_req":
            1e6 * (opened.server_cpu_s - layer_s) / requests,
        "client.wire_ms_p50": _ms(percentile(rtts, 50)),
        "trace.overhead_ratio": timed.wall_s / plain.wall_s,
        "trace.coverage": layer_s / timed.wall_s,
    }
    for layer in replay.LAYERS:
        metrics.update(_timing(layer + "_us", timed.samples.get(layer, [])))
    return attempted, failed, metrics, outputs


# ---------------------------------------------------------------------------
# the batch workload
# ---------------------------------------------------------------------------
def run_batch(seed: int, seconds: float, traced: bool,
              quick: bool) -> tuple[int, int, dict, dict]:
    """One batch-sizing run: ``(attempted, failed, metrics, outputs)``.

    As for the service workloads, the end-to-end times read in
    reference-machine units and the per-layer ones are as measured.
    """
    setup_s = _setup_s(lambda: batch.cold_start_s(ROOT / "src"), quick)
    rounds = max(1, round(seconds / batch.ROUND_SECONDS))
    systems = batch_systems(seed, rounds)
    if quick:
        systems = systems[:: max(1, len(systems) // 8)]
    batch.warm_up()
    phases = batch.run_phases(systems, traced=False)
    digest = batch.digest(phases)
    failed = batch.certificate_failures(systems, phases)
    calibration = json.loads(CALIBRATION_PATH.read_text(encoding="utf-8"))
    pinned = calibration["batch_digests"].get(f"{seed}x{rounds}")
    if pinned is not None and not quick:
        failed += digest != pinned
    attempted = 2 * len(systems)
    outputs = {"digest": f"{seed}x{rounds}:{digest}"}
    if not traced:
        cpu = sum(
            c / k for p in phases.values() for c, k in zip(p.cpu_s, p.slowdowns)
        )
        return attempted, failed, {
            "setup_s": setup_s,
            "cpu_ms_per_op": _ms(cpu / attempted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, outputs
    counted = batch.run_phases(systems, traced=True)
    failed += batch.digest(counted) != digest
    queries = [t for p in phases.values() for t in p.latencies_s]
    counted_s = sum(sum(p.latencies_s) for p in counted.values())
    fedcons_s = sum(
        p.timers.get("fedcons.total_seconds", {}).get("total_seconds", 0.0)
        for p in counted.values()
    )
    metrics = {
        "machine.slowdown": statistics.median(
            k for p in phases.values() for k in p.slowdowns
        ),
        "latency.p50_ms": _ms(percentile(queries, 50)),
        "latency.p95_ms": _ms(percentile(queries, 95)),
        "latency.p99_ms": _ms(percentile(queries, 99)),
        "latency.n": len(queries),
        "trace.overhead_ratio": counted_s / sum(queries),
        "trace.coverage": fedcons_s / counted_s,
    }
    for name, phase in phases.items():
        metrics[f"batch.{name}_queries_per_s"] = len(systems) / sum(phase.latencies_s)
    for name, phase in counted.items():
        fedcons_total = phase.timers.get("fedcons.total_seconds", {})
        minprocs_total = phase.timers.get("fedcons.minprocs_seconds", {})
        metrics.update({
            f"{name}.fedcons.calls_per_query":
                phase.counters.get("fedcons_invocations", 0) / len(systems),
            f"{name}.fedcons.minprocs_share": _per(
                minprocs_total.get("total_seconds", 0.0),
                fedcons_total.get("total_seconds", 0.0),
            ),
            f"{name}.minprocs.ls_runs":
                phase.counters.get("minprocs_ls_runs", 0) / len(systems),
            f"{name}.list_scheduling.vertices":
                phase.counters.get("list_schedule_vertices", 0) / len(systems),
            f"{name}.partition.placement_attempts":
                phase.counters.get("partition_placement_attempts", 0) / len(systems),
        })
        for cache, rate in phase.cache.items():
            metrics[f"{name}.cache.{cache}_hit_rate"] = rate
    return attempted, failed, metrics, outputs


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def _filesystem(path: Path) -> str:
    """Type of the filesystem holding *path* (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, fstype = fields[1], fields[2]
    return fstype


def fingerprint(workdir: Path) -> dict:
    """The machine a result was measured on, and what it could not measure."""
    cores = available_cpus()
    numba = importlib.util.find_spec("numba") is not None
    unmeasured = []
    if cores < 4:
        unmeasured.append(f"multicore scaling needs >= 4 usable cores; this machine has {cores}")
    if not numba:
        unmeasured.append("jit kernels: numba is not installed")
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "kernel_backend": kernel_backend(),
        "journal_fs": _filesystem(workdir),
        "unmeasured": unmeasured,
    }


def _layer_metrics(names: list[str], computed: dict, service: bool) -> dict:
    """*computed* completed with zeros for the other workload kind's layers."""
    values = {}
    for name in names:
        if name in computed:
            values[name] = computed.pop(name)
        elif name.startswith(BATCH_ONLY) == service:
            values[name] = 0.0
        else:
            raise KeyError(f"per-layer metric {name!r} was not measured")
    if computed:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(computed)}")
    return values


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep journals and result.json in this directory")
    parser.add_argument("--history", type=Path, default=HISTORY_PATH,
                        help="JSONL file the run summary is appended to")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: one set-up sample, 8 batch systems")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], spec)
    args = _parse(argv)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace)
    workdir = args.out or HERE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    machine = fingerprint(workdir)  # before the run pins itself to one CPU
    os.sched_setaffinity(0, {live.CLIENT_CPU})
    try:
        if args.workload in SERVICE_WORKLOADS:
            attempted, failed, computed, outputs = run_service(
                args.workload, args.seed, seconds, traced, workdir, args.quick
            )
        else:
            attempted, failed, computed, outputs = run_batch(
                args.seed, seconds, traced, args.quick
            )
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.out is None:
            shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if traced else "end_to_end"
    specs = spec[section]
    names = [m["name"] for m in specs]
    if traced:
        computed = _layer_metrics(names, computed, args.workload in SERVICE_WORKLOADS)
    elif set(computed) != set(names):
        raise KeyError(f"end-to-end metrics differ from BENCHMARK.json: {sorted(computed)}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in specs}
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print("fingerprint " + json.dumps(machine))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    summary = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "quick": args.quick,
        "correct": result["correct"], "attempted": attempted, "failed": failed,
        "metrics": {name: metric["value"] for name, metric in metrics.items()},
        "outputs": outputs,
        "fingerprint": machine,
    }
    compare.append_history(args.history, summary)
    if args.out is not None:
        (args.out / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
