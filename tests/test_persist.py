"""Crash-recovery tests: atomic writers, torn-tail readers, snapshot
restore, the event journal, and checkpoint + replay recovery.

The load-bearing guarantees pinned here:

* **atomic publish** -- an artifact writer that fails leaves the previous
  file intact and no temporary droppings;
* **torn-tail tolerance** -- a JSONL file whose writer died mid-record loses
  exactly that record, with a warning; any *other* corruption raises the
  typed :class:`~repro.errors.PersistenceError` instead of silently
  dropping data;
* **snapshot fixed point** -- ``restore(snapshot(c))`` is indistinguishable
  from ``c``: identical snapshot, bit-identical shard ledgers, identical
  future decisions (driven by hypothesis over random traces);
* **crash recovery** -- truncating the golden 200-event journal at *every*
  record boundary (and at every byte of its final records) and recovering
  yields a state that passes the exact schedulability verification and
  matches the from-scratch batch re-analysis;
* **oracle-checked replay** -- a journal whose recorded outcome diverges
  from what the deterministic controller reproduces is rejected, never
  served.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, OnlineError, PersistenceError
from repro.generation.traces import TraceConfig, generate_trace
from repro.io import atomic_write_text, atomic_writer, read_jsonl
from repro.model.dag import DAG
from repro.model.serialization import task_to_dict
from repro.model.task import SporadicDAGTask
from repro.obs import Checkpoint, Recovery, collecting, tracing
from repro.online import (
    SNAPSHOT_SCHEMA,
    AdmissionController,
    DurableController,
    Journal,
    JournalFollower,
    load_checkpoint,
    load_trace,
    recover,
    replay,
    write_checkpoint,
)
from repro.online.cli import admit_main
from repro.online.persist import genesis_record, replay_record

from strategies import high_task, low_task

DATA = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA / "online_trace.jsonl"
M = 16  # platform size the golden trace was generated for
_DROP = object()  # a corruption that deletes the key instead of setting it


def _journal_from_golden(directory: Path) -> Path:
    """Replay the committed golden trace through a journaling controller."""
    path = directory / "golden.journal"
    with Journal(path, fsync="off") as journal:
        durable = DurableController(AdmissionController(M), journal)
        replay(durable, load_trace(GOLDEN_TRACE))
    return path


@pytest.fixture(scope="module")
def golden_journal(tmp_path_factory) -> tuple[Path, list[bytes]]:
    """The golden journal plus its raw lines (for surgical truncation)."""
    path = _journal_from_golden(tmp_path_factory.mktemp("journal"))
    return path, path.read_bytes().splitlines(keepends=True)


@pytest.fixture(scope="module")
def boundary_snapshots(golden_journal) -> list[dict]:
    """``boundary_snapshots[k]`` = lossless snapshot after journal records
    ``0..k`` (record 0 is genesis), built by one incremental replay."""
    path, _ = golden_journal
    records, torn = Journal.read(path)
    assert not torn
    controller = AdmissionController(int(records[0]["processors"]))
    snapshots = [controller.snapshot()]
    for record in records[1:]:
        replay_record(controller, record)
        snapshots.append(controller.snapshot())
    return snapshots


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------
class TestAtomicWriter:
    def test_publishes_complete_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]  # no temp droppings

    def test_failure_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous generation")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("half-serialized garb")
                raise RuntimeError("simulated crash mid-write")
        assert target.read_text() == "previous generation"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_without_prior_file_creates_nothing(self, tmp_path):
        target = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("doomed")
                raise RuntimeError("crash")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_non_write_modes(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_writer(tmp_path / "x", mode="a"):
                pass


# ---------------------------------------------------------------------------
# torn-tail-tolerant JSONL reading
# ---------------------------------------------------------------------------
class TestReadJsonl:
    def test_torn_final_line_is_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 0}\n{"n": 1}\n{"n": 2, "tr')  # no newline
        with caplog.at_level("WARNING"):
            records, torn = read_jsonl(path)
        assert [r["n"] for r in records] == [0, 1]
        assert torn
        assert any("torn" in r.message for r in caplog.records)

    def test_newline_terminated_garbage_is_corruption(self, tmp_path):
        # A complete (newline-terminated) line that does not parse was fully
        # written by someone: that is damage, not a crash signature.
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 0}\n{"n": 1, "tr\n')
        with pytest.raises(PersistenceError):
            read_jsonl(path)

    def test_mid_file_garbage_is_corruption(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 0}\nnot json\n{"n": 2}')
        with pytest.raises(PersistenceError):
            read_jsonl(path)

    def test_corruption_is_typed_online_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(OnlineError):  # PersistenceError specialises it
            read_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 0}\n\n{"n": 1}\n')
        records, torn = read_jsonl(path)
        assert [r["n"] for r in records] == [0, 1]
        assert not torn


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_appends_are_numbered_contiguously(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            assert journal.append({"kind": "compact", "migrations": 0}) == 0
            assert journal.append({"kind": "compact", "migrations": 1}) == 1
        with Journal(path, fsync="off") as journal:  # reopen continues
            assert journal.entries == 2
            assert journal.append({"kind": "compact", "migrations": 2}) == 2
        records, torn = Journal.read(path)
        assert [r["n"] for r in records] == [0, 1, 2]
        assert not torn

    def test_torn_tail_is_physically_truncated_on_open(self, tmp_path, caplog):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            journal.append({"kind": "compact", "migrations": 0})
        clean = path.read_bytes()
        path.write_bytes(clean + b'{"n": 1, "kind": "comp')  # crash mid-write
        with caplog.at_level("WARNING"):
            with Journal(path, fsync="off") as journal:
                assert journal.entries == 1
                journal.append({"kind": "compact", "migrations": 1})
        assert any("torn" in r.message for r in caplog.records)
        records, _ = Journal.read(path)
        assert [r["n"] for r in records] == [0, 1]

    def test_numbering_gap_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"n": 0, "kind": "genesis"}\n{"n": 2, "kind": "compact"}\n')
        with pytest.raises(PersistenceError):
            Journal(path, fsync="off")

    def test_read_does_not_modify_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        torn_bytes = b'{"n": 0, "kind": "genesis"}\n{"n": 1, "ki'
        path.write_bytes(torn_bytes)
        records, torn = Journal.read(path)
        assert torn and len(records) == 1
        assert path.read_bytes() == torn_bytes

    @pytest.mark.parametrize("policy", [True, False, "sometimes"])
    def test_unknown_fsync_policy_rejected(self, tmp_path, policy):
        with pytest.raises(OnlineError, match="fsync policy"):
            Journal(tmp_path / "j.jsonl", fsync=policy)


# ---------------------------------------------------------------------------
# one framing rule for every journal reader
# ---------------------------------------------------------------------------
#: Every reader of journal bytes; each must raise on a damaged record.
_READERS = {
    "open": lambda path: Journal(path, fsync="off").close(),
    "read": Journal.read,
    "recover": lambda path: recover(None, path),
    "follow": lambda path: JournalFollower(path).poll(),
}


class TestFramingRule:
    """A record is committed iff its newline is on disk; a committed line
    that is not a UTF-8 JSON object carrying the next ``n`` is corruption."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("line", [
        b'{"n": 1, "kind": "compact", "migrations": 0, "clean": true, '
        b'"note": "\xff"}\n',
        b"[1, 2]\n",
    ], ids=["invalid_utf8", "json_array"])
    def test_damaged_committed_record_is_corruption(
        self, tmp_path, reader, line
    ):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            journal.append(genesis_record(AdmissionController(4)))
        path.write_bytes(path.read_bytes() + line)
        with pytest.raises(PersistenceError):
            _READERS[reader](path)

    def test_recover_then_reopen_serves_what_the_journal_holds(
        self, tmp_path
    ):
        """Recovery and the reopened journal agree on a final record that
        lacks only its newline: it is not committed, so neither keeps it, and
        the served state stays the state a second recovery rebuilds."""
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(4), journal)
            for name in ("t0", "t1", "t2"):
                durable.admit(low_task(name, 0.2))
        path.write_bytes(path.read_bytes()[:-1])  # strip the final newline
        controller, report = recover(None, path)
        assert report.torn_tail
        with Journal(path, fsync="off") as journal:
            served = DurableController(controller, journal)
            served.admit(low_task("t3", 0.2))
        again, _ = recover(None, path)
        assert served.admitted_ids == ("t0", "t1", "t3")
        assert again.snapshot() == served.snapshot()


# ---------------------------------------------------------------------------
# the journal holds exactly the task the controller analysed
# ---------------------------------------------------------------------------
class TestStrictEncoding:
    def test_admit_refuses_ids_that_collide_once_encoded(self, tmp_path):
        """``7`` and ``"07"`` would journal as one vertex: the admit raises
        before the controller runs, and nothing is recorded."""
        path = tmp_path / "j.jsonl"
        task = SporadicDAGTask(
            dag=DAG({7: 1.0, "07": 2.0}), deadline=10.0, period=10.0,
            name="t",
        )
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(4), journal)
            before, committed = durable.snapshot(), path.read_bytes()
            with pytest.raises(ModelError, match="'07'"):
                durable.admit(task)
            assert durable.snapshot() == before
            assert journal.entries == 1
        assert path.read_bytes() == committed


# ---------------------------------------------------------------------------
# snapshot restore
# ---------------------------------------------------------------------------
class TestSnapshotRestore:
    def test_snapshot_restore_is_a_fixed_point_on_golden_state(
        self, golden_journal
    ):
        path, _ = golden_journal
        controller, _ = recover(None, path)
        snapshot = controller.snapshot()
        restored = AdmissionController.restore(snapshot)
        assert restored.snapshot() == snapshot
        # The DBF* ledgers must be reproduced bit for bit, not just
        # structurally: future admission decisions compare exact floats.
        for mine, theirs in zip(controller._shards, restored._shards):
            assert mine.state_vector() == theirs.state_vector()

    def test_restored_controller_makes_identical_future_decisions(
        self, golden_journal
    ):
        path, _ = golden_journal
        controller, _ = recover(None, path)
        restored = AdmissionController.restore(controller.snapshot())
        for probe in (
            low_task("probe-low", utilization=0.3),
            high_task("probe-high", width=2),
        ):
            a = controller.admit(probe)
            b = restored.admit(probe)
            assert (a.accepted, a.kind, a.processors, a.seq, a.reason) == (
                b.accepted, b.kind, b.processors, b.seq, b.reason
            )
        if "probe-low" in controller.admitted_ids:
            a = controller.depart("probe-low")
            b = restored.depart("probe-low")
            assert (a.kind, a.released, a.migrations, a.clean) == (
                b.kind, b.released, b.migrations, b.clean
            )
        assert restored.snapshot() == controller.snapshot()

    def test_empty_controller_round_trips(self):
        controller = AdmissionController(4, repack_on_departure=False)
        restored = AdmissionController.restore(controller.snapshot())
        assert restored.snapshot() == controller.snapshot()
        assert restored.repack_enabled is False

    def test_unsupported_schema_version_rejected(self):
        snapshot = AdmissionController(4).snapshot()
        snapshot["schema_version"] = 1
        with pytest.raises(PersistenceError):
            AdmissionController.restore(snapshot)

    def test_tampered_template_digest_rejected(self, golden_journal):
        path, _ = golden_journal
        controller, _ = recover(None, path)
        snapshot = controller.snapshot()
        tampered = json.loads(json.dumps(snapshot))
        for record in tampered["tasks"]:
            if record["kind"] == "high_density":
                slot = record["template"]["slots"][0]
                slot[1] = slot[1] + 0.125  # shift one slot start
                break
        else:
            pytest.skip("golden state holds no high-density task")
        with pytest.raises(PersistenceError):
            AdmissionController.restore(tampered)

    def test_non_partitioning_pool_rejected(self, golden_journal):
        path, _ = golden_journal
        controller, _ = recover(None, path)
        snapshot = json.loads(json.dumps(controller.snapshot()))
        assert snapshot["pool"], "golden state has no shared pool"
        snapshot["pool"][0] = M + 7  # a processor that does not exist
        with pytest.raises(PersistenceError):
            AdmissionController.restore(snapshot)

    @pytest.mark.parametrize(
        ("kind", "key", "value"),
        [
            ("low_density", "bucket", _DROP),
            ("low_density", "bucket", "first"),
            ("high_density", "cluster", _DROP),
            ("high_density", "template", _DROP),
            ("high_density", "cluster", ["p0", "p1"]),
        ],
        ids=[
            "no-bucket", "non-integer-bucket", "no-cluster", "no-template",
            "non-integer-processor",
        ],
    )
    def test_malformed_task_record_rejected(self, kind, key, value):
        controller = AdmissionController(8)
        assert controller.admit(low_task("low")).accepted
        assert controller.admit(high_task("high", width=2)).accepted
        snapshot = controller.snapshot()
        record = next(r for r in snapshot["tasks"] if r["kind"] == kind)
        if value is _DROP:
            del record[key]
        else:
            record[key] = value
        with pytest.raises(PersistenceError):
            AdmissionController.restore(snapshot)

    def test_verified_recovery_rejects_a_record_without_bucket(
        self, tmp_path
    ):
        journal_path = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "c.json"
        with Journal(journal_path, fsync="off") as journal:
            durable = DurableController(
                AdmissionController(8), journal, checkpoint_path=checkpoint
            )
            durable.admit(low_task("low"))
            durable.checkpoint()
        document = json.loads(checkpoint.read_text())
        del document["state"]["tasks"][0]["bucket"]
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(PersistenceError):
            recover(checkpoint, journal_path, verify=True)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        prefix=st.integers(min_value=0, max_value=60),
    )
    def test_round_trip_over_random_traces(self, seed, prefix):
        events = generate_trace(
            TraceConfig(events=60, processors=8, heavy_fraction=0.3), seed
        )
        controller = AdmissionController(8)
        replay(controller, events[:prefix])
        snapshot = controller.snapshot()
        restored = AdmissionController.restore(snapshot)
        assert restored.snapshot() == snapshot
        for mine, theirs in zip(controller._shards, restored._shards):
            assert mine.state_vector() == theirs.state_vector()
        # Both controllers must decide the remaining suffix identically.
        mine = replay(controller, events[prefix:])
        theirs = replay(restored, events[prefix:])
        assert [r.csv_row() for r in mine.records] == [
            r.csv_row() for r in theirs.records
        ]


# ---------------------------------------------------------------------------
# crash injection
# ---------------------------------------------------------------------------
class TestCrashInjection:
    def test_recover_at_every_event_boundary(
        self, tmp_path, golden_journal, boundary_snapshots
    ):
        """Acceptance: a crash after *any* committed event of the golden
        200-event trace recovers to a state that equals the incremental
        history, passes the exact verification, and matches the batch
        re-analysis."""
        _, lines = golden_journal
        cut = tmp_path / "cut.journal"
        for k in range(1, len(lines) + 1):
            cut.write_bytes(b"".join(lines[:k]))
            controller, report = recover(None, cut)
            assert not report.torn_tail
            assert report.replayed == k - 1
            assert controller.snapshot() == boundary_snapshots[k - 1]
            assert controller.verify(exact=True)
            assert controller.canonical
            assert controller.matches_batch()

    def test_recover_at_every_byte_of_the_final_records(
        self, tmp_path, golden_journal, boundary_snapshots
    ):
        """Byte-granular truncation across the last two journal records:
        every cut either lands on a boundary (clean recovery) or leaves a
        torn tail that is skipped, recovering the last committed state.  A
        record is committed iff its newline is on disk, so a cut is torn iff
        it does not end at a newline."""
        _, lines = golden_journal
        base = b"".join(lines[:-2])
        tail = b"".join(lines[-2:])
        checkpoint = tmp_path / "c.json"
        cut = tmp_path / "cut.journal"
        # Checkpoint at the len-2 boundary so each recovery replays <= 2
        # records -- the byte sweep stays fast without losing coverage.
        seed = AdmissionController.restore(
            dict(boundary_snapshots[len(lines) - 3])
        )
        write_checkpoint(seed, checkpoint, journal_entries=len(lines) - 2)
        for extra in range(len(tail) + 1):
            cut.write_bytes(base + tail[:extra])
            controller, report = recover(checkpoint, cut)
            assert report.torn_tail == (
                not (base + tail[:extra]).endswith(b"\n")
            )
            # The tail records that survived the cut whole:
            survived = tail[:extra].count(b"\n")
            k = len(lines) - 2 + survived
            assert controller.snapshot() == boundary_snapshots[k - 1]

    def test_empty_journal_is_not_recoverable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(PersistenceError):
            recover(None, path)

    def test_checkpoint_ahead_of_journal_rejected(
        self, tmp_path, golden_journal
    ):
        _, lines = golden_journal
        checkpoint = tmp_path / "c.json"
        cut = tmp_path / "cut.journal"
        full = tmp_path / "full.journal"
        full.write_bytes(b"".join(lines))
        controller, _ = recover(None, full)
        write_checkpoint(controller, checkpoint, journal_entries=len(lines))
        cut.write_bytes(b"".join(lines[: len(lines) // 2]))
        with pytest.raises(PersistenceError):
            recover(checkpoint, cut)

    def test_divergent_recorded_outcome_rejected(self, tmp_path, golden_journal):
        _, lines = golden_journal
        records = [json.loads(line) for line in lines]
        flipped = next(
            i for i, r in enumerate(records) if r.get("kind") == "admit"
        )
        records[flipped]["accepted"] = not records[flipped]["accepted"]
        path = tmp_path / "tampered.journal"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        with pytest.raises(PersistenceError, match="diverged"):
            recover(None, path)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            journal.append(
                {
                    "kind": "genesis", "journal_schema": 1, "processors": 4,
                    "ls_order": "longest_path", "repack_on_departure": True,
                }
            )
            journal.append({"kind": "meteor_strike"})
        with pytest.raises(PersistenceError, match="unknown kind"):
            recover(None, path)

    def test_journal_without_genesis_needs_a_checkpoint(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            journal.append({"kind": "compact", "migrations": 0, "clean": True})
        with pytest.raises(PersistenceError, match="genesis"):
            recover(None, path)

    def test_unknown_priority_order_in_genesis_rejected(self, tmp_path):
        # An unchecked order would first fail inside list scheduling, at the
        # high-density admit; the genesis record must be refused before it.
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            genesis = genesis_record(AdmissionController(4))
            journal.append({**genesis, "ls_order": "bogus"})
            journal.append(
                {
                    "kind": "admit", "id": "h",
                    "task": task_to_dict(high_task("h")), "accepted": True,
                    "decided": "high_density", "processors": [0, 1, 2],
                    "reason": "",
                }
            )
        with pytest.raises(PersistenceError, match="priority order"):
            recover(None, path)

    @pytest.mark.parametrize(
        "field, value", [("ls_order", "bogus"), ("processors", 0)]
    )
    def test_snapshot_the_constructor_refuses_rejected(self, field, value):
        snapshot = AdmissionController(4).snapshot()
        snapshot[field] = value
        with pytest.raises(PersistenceError, match="malformed snapshot"):
            AdmissionController.restore(snapshot)

    def test_constructor_refuses_unknown_priority_order(self):
        with pytest.raises(OnlineError, match="unknown priority order"):
            AdmissionController(4, ls_order="bogus")

    def test_deadline_missing_template_rejected(self):
        # Forge a snapshot whose template misses its deadline; restore()
        # must refuse it even with the (optional) digest stripped, so the
        # deadline check itself is what trips.
        controller = AdmissionController(4)
        controller.admit(high_task("h", width=3))
        snapshot = json.loads(json.dumps(controller.snapshot()))
        record = next(
            r for r in snapshot["tasks"] if r["kind"] == "high_density"
        )
        for slot in record["template"]["slots"]:
            slot[1] += 5.0
            slot[2] += 5.0
        record["template"]["makespan"] += 5.0
        del record["template"]["digest"]
        with pytest.raises(PersistenceError, match="deadline"):
            AdmissionController.restore(snapshot)


# ---------------------------------------------------------------------------
# checkpoint rotation
# ---------------------------------------------------------------------------
class TestCheckpointRotation:
    def test_rotation_every_n_events(self, tmp_path):
        events = load_trace(GOLDEN_TRACE)[:60]
        journal = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "c.json"
        with Journal(journal, fsync="off") as j:
            durable = DurableController(
                AdmissionController(M), j,
                checkpoint_path=checkpoint, checkpoint_every=10,
            )
            replay(durable, events)
            entries = j.entries
        assert checkpoint.exists()
        restored, offset = load_checkpoint(checkpoint)
        assert offset % 10 == 1  # genesis record + k * 10 committed events
        assert entries - offset < 10  # never more than one window behind
        # Recovery from the rotated checkpoint equals full genesis replay.
        from_ckpt, r1 = recover(checkpoint, journal)
        from_genesis, r2 = recover(None, journal)
        assert r1.checkpoint_used and not r2.checkpoint_used
        assert r1.replayed == entries - offset
        assert from_ckpt.snapshot() == from_genesis.snapshot()
        assert set(tmp_path.iterdir()) == {journal, checkpoint}  # no temps

    def test_checkpoint_syncs_the_journal_first(self, tmp_path):
        """Under the batch policy a checkpoint never reflects a record the
        journal could still lose in a host crash."""
        checkpoint = tmp_path / "c.json"
        with collecting() as registry:
            with Journal(tmp_path / "j.jsonl", fsync="batch") as j:
                durable = DurableController(
                    AdmissionController(4), j,
                    checkpoint_path=checkpoint, checkpoint_every=1,
                )
                durable.admit(low_task("a"))
                assert registry.counter("online.journal.group_syncs") == 1
        assert load_checkpoint(checkpoint)[1] == 2  # genesis + the admit

    def test_explicit_checkpoint_requires_a_path(self, tmp_path):
        with Journal(tmp_path / "j.jsonl", fsync="off") as j:
            durable = DurableController(AdmissionController(4), j)
            with pytest.raises(OnlineError):
                durable.checkpoint()

    def test_checkpoint_every_requires_a_path(self, tmp_path):
        with Journal(tmp_path / "j.jsonl", fsync="off") as j:
            with pytest.raises(OnlineError):
                DurableController(
                    AdmissionController(4), j, checkpoint_every=5
                )

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"checkpoint_schema": 99, "journal_entries": 0}')
        with pytest.raises(PersistenceError):
            load_checkpoint(path)
        path.write_text("{ torn")
        with pytest.raises(PersistenceError):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_recovery_and_checkpoint_events_and_metrics(self, tmp_path):
        events = load_trace(GOLDEN_TRACE)[:40]
        journal = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "c.json"
        with collecting() as registry, tracing() as ctx:
            with Journal(journal, fsync="off") as j:
                durable = DurableController(
                    AdmissionController(M), j,
                    checkpoint_path=checkpoint, checkpoint_every=8,
                )
                replay(durable, events)
                entries = j.entries
            controller, report = recover(checkpoint, journal)
        checkpoints = ctx.events_of(Checkpoint)
        assert checkpoints and all(
            c.path == str(checkpoint) for c in checkpoints
        )
        recoveries = ctx.events_of(Recovery)
        assert len(recoveries) == 1
        assert recoveries[0].checkpoint_used
        assert recoveries[0].replayed == report.replayed
        assert recoveries[0].admitted == controller.admitted_count
        assert registry.counter("online.journal.appends") == entries
        assert registry.counter("online.checkpoint.writes") == len(checkpoints)
        assert registry.counter("online.recover.runs") == 1
        assert registry.counter("online.recover.replayed") == report.replayed
        assert registry.timer("online.recover.seconds").count == 1

    def test_torn_tail_metric(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as j:
            j.append(
                {
                    "kind": "genesis", "journal_schema": 1, "processors": 4,
                    "ls_order": "longest_path", "repack_on_departure": True,
                }
            )
        path.write_bytes(path.read_bytes() + b'{"n": 1, "ki')
        with collecting() as registry:
            recover(None, path)
        assert registry.counter("online.recover.torn_tails") == 1


# ---------------------------------------------------------------------------
# the CLI loop: replay --journal -> crash -> recover -> replay --recover
# ---------------------------------------------------------------------------
class TestDurableCli:
    def test_crash_resume_reaches_the_clean_end_state(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        checkpoint = tmp_path / "c.json"
        # The clean reference: replay everything in one go.
        reference = AdmissionController(M)
        replay(reference, load_trace(GOLDEN_TRACE))
        # "Crash" after 100 events: journal the first half only.
        with Journal(journal, fsync="off") as j:
            durable = DurableController(
                AdmissionController(M), j,
                checkpoint_path=checkpoint, checkpoint_every=30,
            )
            replay(durable, load_trace(GOLDEN_TRACE)[:100])
        # Tear the tail the way a crashed writer would.
        with open(journal, "ab") as handle:
            handle.write(b'{"n": 9999, "kind": "admit", "id": "half')
        exit_code = admit_main(
            [
                "replay", str(GOLDEN_TRACE), "-m", str(M),
                "--journal", str(journal), "--checkpoint", str(checkpoint),
                "--checkpoint-every", "30", "--recover", "--fsync", "off",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "resuming at trace event" in out
        recovered, _ = recover(checkpoint, journal)
        assert recovered.snapshot() == reference.snapshot()

    def test_recover_subcommand_verifies_and_snapshots(self, tmp_path, capsys):
        journal = _journal_from_golden(tmp_path)
        snapshot_path = tmp_path / "state.json"
        exit_code = admit_main(
            [
                "recover", str(journal), "--verify", "--exact",
                "--snapshot", str(snapshot_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "recovered from journal genesis" in out
        assert "verified" in out
        restored = AdmissionController.restore(
            json.loads(snapshot_path.read_text())
        )
        reference, _ = recover(None, journal)
        assert restored.snapshot() == reference.snapshot()

    def test_recover_subcommand_fails_cleanly_on_corruption(
        self, tmp_path, capsys
    ):
        path = tmp_path / "j.jsonl"
        path.write_text('{"n": 0, "kind": "genesis"}\ngarbage\n{"n": 2}\n')
        exit_code = admit_main(["recover", str(path)])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_flag_validation(self, tmp_path, capsys):
        trace = str(GOLDEN_TRACE)
        assert admit_main(
            ["replay", trace, "-m", str(M), "--checkpoint-every", "5"]
        ) == 2
        assert admit_main(["replay", trace, "-m", str(M), "--recover"]) == 2
        capsys.readouterr()

    def test_resume_rejects_foreign_journal(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        other = generate_trace(
            TraceConfig(events=30, processors=M, heavy_fraction=0.3), 9
        )
        with Journal(journal, fsync="off") as j:
            durable = DurableController(AdmissionController(M), j)
            replay(durable, other)
        exit_code = admit_main(
            [
                "replay", str(GOLDEN_TRACE), "-m", str(M),
                "--journal", str(journal), "--recover", "--fsync", "off",
            ]
        )
        assert exit_code == 2
        assert "not produced by this trace" in capsys.readouterr().err
