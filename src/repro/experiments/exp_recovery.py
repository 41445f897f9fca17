"""EXP-R: crash-injection soak and recovery throughput of the durable state.

The persistence layer (:mod:`repro.online.persist`) claims that a crash at
*any* point costs at most the torn final journal record, and that restoring
from a rotated checkpoint is an order of magnitude cheaper than replaying
the server's whole history.  This experiment measures both claims under
generated traffic:

* **Crash-injection soak** -- journal generated arrival/departure traces
  through a :class:`~repro.online.DurableController` with checkpoint
  rotation, then simulate crashes: truncate the journal at sampled record
  boundaries *and* at raw byte offsets inside the final record (the
  signature a killed writer actually leaves), recover each wreck, and
  cross-check the result against an oracle controller replayed to the same
  boundary -- snapshot-identical state, exact verification passing.

* **Recovery throughput** -- time recovery of the full journal from the
  latest checkpoint vs from the genesis record, across scenarios.  The
  committed benchmark (``benchmarks/test_bench_recovery.py``) enforces the
  >= 10x criterion on a 1000-event journal; here the ratio is reported as
  an experiment table across smaller scenarios.

The soak also exercises the flight recorder as the crash post-mortem
artifact: each scenario's first wreck is journaled with the ring armed, and
the resulting dump -- the decision events immediately preceding the
simulated crash -- is validated and counted in the table.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.experiments.reporting import Table
from repro.generation.traces import TraceConfig, generate_trace
from repro.obs import flight_recording, tracing
from repro.online.controller import AdmissionController
from repro.online.persist import (
    DurableController,
    Journal,
    controller_from_genesis,
    load_checkpoint,
    recover,
    replay_record,
)
from repro.online.trace import replay

__all__ = ["run"]

#: (label, trace configuration, checkpoint interval) scenarios.
_SCENARIOS: tuple[tuple[str, TraceConfig, int], ...] = (
    (
        "steady m=8",
        TraceConfig(events=80, processors=8, mean_lifetime=25.0),
        20,
    ),
    (
        "saturated m=16",
        TraceConfig(
            events=120, processors=16, mean_lifetime=80.0,
            heavy_fraction=0.35,
        ),
        25,
    ),
    (
        "churny m=8",
        TraceConfig(events=100, processors=8, mean_lifetime=6.0),
        20,
    ),
)


def _build_wreck(
    directory: Path,
    label: str,
    config: TraceConfig,
    every: int,
    seed: int,
    flight_dump: Path | None = None,
) -> tuple[Path, Path, list[bytes]]:
    """Journal one trace with rotation; return (journal, checkpoint, lines).

    With *flight_dump* set, the trace is journaled with the flight-recorder
    ring armed and the ring is dumped to that path once the journal closes --
    the post-mortem artifact a crashed writer would leave behind.
    """
    slug = label.replace(" ", "_").replace("=", "")
    journal_path = directory / f"{slug}_{seed}.journal"
    checkpoint_path = directory / f"{slug}_{seed}.ckpt.json"
    with Journal(journal_path, fsync="off") as journal:
        durable = DurableController(
            AdmissionController(config.processors), journal,
            checkpoint_path=checkpoint_path, checkpoint_every=every,
        )
        events = generate_trace(config, seed)
        if flight_dump is None:
            replay(durable, events)
        else:
            with flight_recording(capacity=64) as recorder:
                with tracing():
                    replay(durable, events)
            recorder.dump(flight_dump, reason="EXP-R simulated crash")
    return (
        journal_path,
        checkpoint_path,
        journal_path.read_bytes().splitlines(keepends=True),
    )


def _crash_table(samples: int, seed: int, boundary_stride: int) -> Table:
    table = Table(
        title="EXP-R: crash-injection soak (recover + oracle cross-check)",
        columns=[
            "scenario",
            "seeds",
            "journal records",
            "boundary crashes",
            "torn-byte crashes",
            "recoveries ok",
            "torn tails skipped",
            "flight entries",
        ],
    )
    with tempfile.TemporaryDirectory(prefix="exp_recovery_") as tmp:
        directory = Path(tmp)
        for label, config, every in _SCENARIOS:
            records = boundaries = torn_crashes = ok = torn_skipped = 0
            flight_entries = 0
            for offset in range(samples):
                # Arm the flight recorder on each scenario's first wreck so
                # the soak leaves the post-mortem artifact a real crash would.
                dump_path = (
                    directory / "flight.json" if offset == 0 else None
                )
                journal_path, checkpoint_path, lines = _build_wreck(
                    directory, label, config, every, seed + offset,
                    flight_dump=dump_path,
                )
                if dump_path is not None:
                    dump = json.loads(dump_path.read_text())
                    entries = dump["entries"]
                    assert entries, "flight dump captured no pre-crash events"
                    decisions = [
                        e for e in entries
                        if e["kind"] == "event"
                        and e["data"]["event"] in ("Admission", "Departure")
                    ]
                    assert decisions, "flight dump holds no decision events"
                    # The ring's newest decision must be the journal's final
                    # committed record -- the event a post-mortem cares about.
                    assert decisions[-1]["data"]["seq"] == len(lines) - 1
                    flight_entries += len(entries)
                records += len(lines)
                # Replay an oracle controller record by record so every
                # sampled boundary has a reference snapshot.
                oracle_records, _ = Journal.read(journal_path)
                oracle = controller_from_genesis(oracle_records[0])
                reference: dict[int, dict] = {1: oracle.snapshot()}
                for k, record in enumerate(oracle_records[1:], start=2):
                    replay_record(oracle, record)
                    reference[k] = oracle.snapshot()
                cut = directory / "cut.journal"
                # Record-boundary crashes (sampled with a stride).
                for k in range(1, len(lines) + 1, boundary_stride):
                    cut.write_bytes(b"".join(lines[:k]))
                    controller, report = recover(None, cut)
                    assert controller.snapshot() == reference[k]
                    assert controller.verify(exact=True)
                    boundaries += 1
                    ok += 1
                # Torn-byte crashes inside the final record.
                final = lines[-1]
                for extra in range(1, len(final), max(1, len(final) // 8)):
                    cut.write_bytes(b"".join(lines[:-1]) + final[:extra])
                    controller, report = recover(checkpoint_path, cut)
                    assert report.torn_tail
                    assert controller.snapshot() == reference[len(lines) - 1]
                    torn_crashes += 1
                    torn_skipped += int(report.torn_tail)
                    ok += 1
            table.add_row(
                label, samples, records, boundaries, torn_crashes, ok,
                torn_skipped, flight_entries,
            )
    table.notes.append(
        "each crash truncates the journal (at a record boundary, or "
        "mid-record to forge the torn tail a killed writer leaves), "
        "recovers, and asserts the result is snapshot-identical to an "
        "oracle controller replayed to the same boundary and passes "
        "verify(exact=True).  Torn tails must be detected and skipped, "
        "never parsed."
    )
    table.notes.append(
        "'flight entries' counts ring entries in the post-mortem flight "
        "dump of each scenario's first wreck; the dump's newest decision "
        "event is asserted to be the journal's final committed record."
    )
    return table


def _throughput_table(samples: int, seed: int) -> Table:
    table = Table(
        title="EXP-R: recovery throughput (latest checkpoint vs genesis replay)",
        columns=[
            "scenario",
            "journal records",
            "tail replayed",
            "checkpoint recovery s",
            "genesis replay s",
            "speedup",
        ],
    )
    with tempfile.TemporaryDirectory(prefix="exp_recovery_") as tmp:
        directory = Path(tmp)
        for label, config, every in _SCENARIOS:
            entries = tail = 0
            ckpt_seconds = genesis_seconds = 0.0
            for offset in range(samples):
                journal_path, checkpoint_path, lines = _build_wreck(
                    directory, label, config, every, seed + offset
                )
                entries += len(lines)
                _, checkpoint_offset = load_checkpoint(checkpoint_path)
                tail += len(lines) - checkpoint_offset
                started = time.perf_counter()
                from_ckpt, _ = recover(checkpoint_path, journal_path)
                ckpt_seconds += time.perf_counter() - started
                started = time.perf_counter()
                from_genesis, _ = recover(None, journal_path)
                genesis_seconds += time.perf_counter() - started
                assert from_ckpt.snapshot() == from_genesis.snapshot()
            table.add_row(
                label, entries, tail, ckpt_seconds, genesis_seconds,
                genesis_seconds / ckpt_seconds if ckpt_seconds else 0.0,
            )
    table.notes.append(
        "checkpoint recovery restores the lossless snapshot (templates "
        "reload from serialized slots, DBF* ledgers recompute from sorted "
        "entries -- no MINPROCS re-run) and replays only the journal tail; "
        "genesis replay re-runs the full history through the controller.  "
        "The committed benchmark pins the >= 10x criterion on a 1000-event "
        "journal."
    )
    return table


def run(samples: int = 3, seed: int = 0, quick: bool = False) -> list[Table]:
    """Crash-injection soak + recovery-throughput comparison."""
    if quick:
        samples = min(samples, 1)
    boundary_stride = 10 if quick else 4
    return [
        _crash_table(samples, seed, boundary_stride),
        _throughput_table(samples, seed),
    ]
