"""Service bench: batched admission throughput + verified failover time.

Two gates from the admission-as-a-service tentpole, both measured against a
*real* primary process (spawned ``fedcons-serve serve``, batch group
commit, durability on):

* **Throughput** -- concurrent clients pipeline an admit-heavy trace at the
  server; sustained admissions/sec must be >= 500 *and* >= 20x the
  per-event full-re-analysis baseline (re-running the two-phase FEDCONS
  batch analysis after every event -- what a service without incremental
  state would pay).  Decisions are cross-checked record by record against a
  fresh sequential replay of the committed journal: the coalesced batches
  must be byte-identical to the sequential golden order the journal
  defines.

* **Failover** -- a kill-primary drill (SIGKILL mid-load) promotes the
  warm standby with ``recover(verify=True)``; the verified takeover must
  finish within 2x the time of a checkpoint recovery of the same state
  (the non-replicated alternative), and the measured failover time and
  replication staleness land in ``benchmarks/BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from repro.generation.tasksets import SystemConfig
from repro.generation.traces import TraceConfig, generate_trace
from repro.online import Journal, recover, write_checkpoint
from repro.online.persist import replay_record
from repro.service.drill import (
    controller_from_records,
    drive_admissions,
    run_drill,
    spawn_primary,
)

ARTIFACT = Path(__file__).parent / "BENCH_service.json"

_SEED = 0
_CONCURRENCY = 8
_LOAD_CONFIG = TraceConfig(
    events=700,
    processors=128,
    mean_lifetime=1e6,  # nothing departs: the admitted population grows
    heavy_fraction=0.05,
    utilization_low=0.02,
    utilization_high=0.28,
    shape=SystemConfig(
        min_vertices=8, max_vertices=20, deadline_ratio=(0.35, 1.0)
    ),
)
_DRILL_CONFIG = TraceConfig(events=160, processors=16)


def test_bench_service(tmp_path):
    results: dict = {"seed": _SEED}

    # ------------------------------------------------------------------
    # throughput: concurrent pipelined clients vs a real batched primary
    # ------------------------------------------------------------------
    trace = generate_trace(_LOAD_CONFIG, _SEED)
    tasks = [e.task for e in trace if e.op == "admit" and e.task is not None]
    primary = spawn_primary(
        tmp_path / "load.journal",
        processors=_LOAD_CONFIG.processors,
        fsync="batch",
    )
    try:
        responses, elapsed = asyncio.run(drive_admissions(
            "127.0.0.1", primary.tcp_port, tasks, concurrency=_CONCURRENCY
        ))
    finally:
        primary.terminate()
    assert len(responses) == len(tasks), (
        f"load run incomplete: {len(responses)}/{len(tasks)} responses"
    )
    accepted = sum(
        1 for r in responses
        if r.get("ok") and r.get("decision", {}).get("accepted")
    )
    sustained = len(responses) / elapsed

    # Byte-identical decisions: the journal defines the canonical sequential
    # order; replaying it oracle-checks every recorded decision against a
    # fresh controller (any divergence raises inside replay_record).
    records, _ = Journal.read(tmp_path / "load.journal")
    sequential = controller_from_records(records)
    assert sequential.admitted_count == accepted

    # Baseline: per-event full re-analysis of the same committed sequence.
    baseline = controller_from_records(records[:1])
    baseline_seconds = 0.0
    for record in records[1:]:
        replay_record(baseline, record)
        started = time.perf_counter()
        baseline.reanalyze()
        baseline_seconds += time.perf_counter() - started
    baseline_rate = len(tasks) / baseline_seconds
    speedup = sustained / baseline_rate

    results.update({
        "load_events": len(tasks),
        "load_processors": _LOAD_CONFIG.processors,
        "concurrency": _CONCURRENCY,
        "accepted": accepted,
        "elapsed_seconds": elapsed,
        "sustained_admissions_per_sec": sustained,
        "baseline_reanalysis_seconds": baseline_seconds,
        "baseline_admissions_per_sec": baseline_rate,
        "speedup_vs_per_event_reanalysis": speedup,
        "decisions_sequential_identical": True,  # asserted above
    })

    print(
        f"\nservice throughput: {len(tasks)} admits in {elapsed:.3f}s = "
        f"{sustained:.0f}/s (baseline re-analysis {baseline_rate:.1f}/s, "
        f"{speedup:.0f}x)"
    )

    # ------------------------------------------------------------------
    # failover drill: SIGKILL mid-load, verified standby promotion
    # ------------------------------------------------------------------
    drill_trace = generate_trace(_DRILL_CONFIG, _SEED + 1)
    drill_tasks = [
        e.task for e in drill_trace if e.op == "admit" and e.task is not None
    ]
    report = run_drill(
        drill_tasks, tmp_path / "drill",
        processors=_DRILL_CONFIG.processors,
        concurrency=4,
        kill_after=max(8, len(drill_tasks) // 2),
    )
    assert report.verified, "promotion skipped the recover(verify=True) gate"
    assert report.prefix_consistent, (
        "promoted standby diverges from the primary's journal prefix"
    )
    assert report.staleness >= 0

    # Comparator: checkpoint recovery of the very state the standby serves
    # (rebuild from its journal, checkpoint 50 records behind the end -- the
    # cadence benchmarks/test_bench_recovery.py uses -- then time a verified
    # recover: the non-replicated failover alternative).
    standby_records, _ = Journal.read(tmp_path / "drill" / "standby.journal")
    comparator_journal = tmp_path / "comparator.journal"
    with Journal(comparator_journal, fsync="off") as journal:
        for record in standby_records:
            journal.append(record)
    checkpoint_offset = max(1, len(standby_records) - 50)
    at_offset = controller_from_records(standby_records[:checkpoint_offset])
    checkpoint_path = tmp_path / "comparator.ckpt.json"
    write_checkpoint(at_offset, checkpoint_path, checkpoint_offset)
    started = time.perf_counter()
    recovered, _ = recover(checkpoint_path, comparator_journal, verify=True)
    checkpoint_recovery_seconds = time.perf_counter() - started
    ratio = report.failover_seconds / checkpoint_recovery_seconds

    results.update({
        "drill_events": len(drill_tasks),
        "drill_attempted": report.attempted,
        "drill_accepted": report.accepted,
        "drill_admissions_per_sec": report.admissions_per_sec,
        "committed_at_death": report.committed,
        "replicated_at_death": report.replicated,
        "replication_staleness": report.staleness,
        "failover_seconds": report.failover_seconds,
        "promotion_verified": report.verified,
        "prefix_consistent": report.prefix_consistent,
        "checkpoint_recovery_seconds": checkpoint_recovery_seconds,
        "failover_vs_checkpoint_recovery": ratio,
    })

    ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")

    print(
        f"failover: {1e3 * report.failover_seconds:.1f} ms verified takeover "
        f"(staleness {report.staleness}) vs checkpoint recovery "
        f"{1e3 * checkpoint_recovery_seconds:.1f} ms ({ratio:.2f}x)"
    )

    # The tentpole's acceptance criteria.
    assert sustained >= 500.0, (
        f"batched admission sustained only {sustained:.0f}/s (< 500/s)"
    )
    assert speedup >= 20.0, (
        f"service throughput only {speedup:.1f}x the per-event "
        f"re-analysis baseline ({sustained:.0f}/s vs {baseline_rate:.1f}/s)"
    )
    assert ratio <= 2.0, (
        f"verified failover took {ratio:.2f}x a checkpoint recovery "
        f"({report.failover_seconds:.3f}s vs "
        f"{checkpoint_recovery_seconds:.3f}s)"
    )
