"""Tests of the online admission subsystem (:mod:`repro.online`).

The load-bearing property is *batch equivalence*: after any prefix of an
arrival/departure stream, the incremental controller state must equal a
from-scratch FEDCONS of the admitted set in admission order -- same
accept/reject decisions, same cluster sizes, same shared-pool size, same
task-to-bucket assignment -- and every accepted prefix must pass the exact
(pseudo-polynomial) schedulability verification.  Hypothesis drives this over
random traces; the remaining classes pin the shard ledger algebra, the
partition refactor, controller error handling, reclamation, trace round-trips
and the CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbf import edf_approx_test, total_dbf_approx
from repro.core.partition import (
    AdmissionTest,
    TaskOrder,
    partition_sporadic,
)
from repro.core.shard import ShardState
from repro.errors import AnalysisError, OnlineError
from repro.generation.traces import TraceConfig, generate_trace
from repro.model.dag import DAG
from repro.model.sporadic import SporadicTask
from repro.model.task import SporadicDAGTask
from repro.obs import Admission, Departure, Reclamation, collecting, tracing
from repro.online import (
    HIGH_DENSITY,
    LOW_DENSITY,
    AdmissionController,
    TraceEvent,
    load_trace,
    replay,
    save_trace,
)
from repro.online.cli import admit_main

from strategies import high_task, low_task, parallel_task, random_sporadics

_TOL = 1e-9


# ---------------------------------------------------------------------------
# the incremental demand ledger
# ---------------------------------------------------------------------------
class TestShardState:
    def test_demand_matches_total_dbf_approx(self):
        rng = np.random.default_rng(7)
        tasks = random_sporadics(rng, 12)
        shard = ShardState((task, i) for i, task in enumerate(tasks))
        points = [0.0] + [t.deadline for t in tasks] + list(rng.uniform(0, 30, 20))
        for t in points:
            assert shard.demand(t) == pytest.approx(
                total_dbf_approx(tasks, t), abs=1e-9
            )

    def test_history_independence(self):
        # Arrays are a pure function of the sorted contents: any
        # add/remove history yields the same sums as a fresh build.
        rng = np.random.default_rng(11)
        tasks = random_sporadics(rng, 8)
        churny = ShardState()
        for i, task in enumerate(tasks):
            churny.add(task, i)
        for victim in (tasks[3], tasks[0], tasks[6]):
            churny.remove(victim.name)
            churny.add(victim, tasks.index(victim))
        fresh = ShardState((task, i) for i, task in enumerate(tasks))
        assert churny.tasks == fresh.tasks
        for t in (0.0, 1.0, 5.0, 17.3, 100.0):
            assert churny.demand(t) == fresh.demand(t)  # bit-equal

    def test_add_remove_roundtrip(self):
        task = SporadicTask(wcet=1.0, deadline=4.0, period=8.0, name="x")
        shard = ShardState()
        assert len(shard) == 0 and shard.utilization == 0.0
        shard.add(task, 0)
        assert len(shard) == 1
        assert shard.demand(4.0) == pytest.approx(1.0)
        assert shard.remove("x") is task
        assert len(shard) == 0 and shard.demand(4.0) == 0.0

    def test_remove_unknown_raises(self):
        with pytest.raises(AnalysisError):
            ShardState().remove("ghost")

    def test_fits_at_deadline_matches_demand_condition(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            bucket = random_sporadics(rng, int(rng.integers(0, 6)))
            shard = ShardState((t, i) for i, t in enumerate(bucket))
            (candidate,) = random_sporadics(rng, 1)
            # The historical _fits_demand bucket scan, verbatim.
            demand = total_dbf_approx(bucket, candidate.deadline)
            rate = sum(t.utilization for t in bucket)
            expected = (
                candidate.deadline - demand >= candidate.wcet - _TOL
                and 1.0 - rate >= candidate.utilization - _TOL
            )
            assert shard.fits_at_deadline(candidate) == expected

    def test_fits_all_points_implies_edf_approx(self):
        rng = np.random.default_rng(5)
        accepted = 0
        for trial in range(60):
            shard = ShardState()
            tasks: list[SporadicTask] = []
            for i, task in enumerate(random_sporadics(rng, 6)):
                if shard.fits_all_points(task):
                    shard.add(task, i)
                    tasks.append(task)
                    accepted += 1
                    assert edf_approx_test(tasks)
        assert accepted > 0

    def test_fits_all_points_is_order_safe(self):
        # A short-deadline newcomer must be checked against *later* test
        # points too: here it fits at its own deadline but overloads an
        # existing task's deadline.
        resident = SporadicTask(wcet=9.0, deadline=10.0, period=10.0, name="r")
        shard = ShardState([(resident, 0)])
        newcomer = SporadicTask(wcet=2.0, deadline=2.0, period=100.0, name="n")
        assert shard.fits_at_deadline(newcomer)  # t=2: demand 0, slack ok
        assert not shard.fits_all_points(newcomer)  # t=10: 9 + 2 + u*8 > 10

    def test_fits_all_points_reads_whole_duplicate_group(self):
        # Two residents share the test point t=10: its demand is 8, not the
        # 4 read at the first index of the group.
        shard = ShardState([
            (SporadicTask(wcet=4.0, deadline=10.0, period=10.0, name="a"), 0),
            (SporadicTask(wcet=4.0, deadline=10.0, period=100.0, name="b"), 1),
        ])
        newcomer = SporadicTask(wcet=2.0, deadline=2.5, period=100.0, name="n")
        assert shard.fits_at_deadline(newcomer)
        assert not shard.fits_all_points(newcomer)  # 8 + 2 + 0.02*7.5 > 10


# ---------------------------------------------------------------------------
# the partition refactor riding on the same ledgers
# ---------------------------------------------------------------------------
class TestPartitionIncremental:
    def _reference_first_fit(self, tasks, processors):
        """The pre-refactor bucket-scanning partition, reimplemented."""
        ordered = sorted(tasks, key=lambda t: (t.deadline, t.wcet, t.period))
        buckets: list[list[SporadicTask]] = [[] for _ in range(processors)]
        for task in ordered:
            for bucket in buckets:
                demand = total_dbf_approx(bucket, task.deadline)
                rate = sum(t.utilization for t in bucket)
                if (
                    task.deadline - demand >= task.wcet - _TOL
                    and 1.0 - rate >= task.utilization - _TOL
                ):
                    bucket.append(task)
                    break
            else:
                return None
        return tuple(tuple(b) for b in buckets)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(17)
        agreements = 0
        for trial in range(40):
            tasks = random_sporadics(rng, int(rng.integers(2, 12)))
            m = int(rng.integers(1, 5))
            result = partition_sporadic(tasks, m)
            expected = self._reference_first_fit(tasks, m)
            if expected is None:
                assert not result.success
            else:
                assert result.success
                assert result.assignment == expected
                agreements += 1
        assert agreements > 0

    def test_all_points_test_equals_dbf_approx_in_deadline_order(self):
        # In non-decreasing deadline order the extra checkpoints are
        # redundant: the two admission tests must agree bucket for bucket.
        rng = np.random.default_rng(23)
        for trial in range(30):
            tasks = random_sporadics(rng, int(rng.integers(2, 14)))
            m = int(rng.integers(1, 5))
            a = partition_sporadic(
                tasks, m, admission=AdmissionTest.DBF_APPROX
            )
            b = partition_sporadic(
                tasks, m, admission=AdmissionTest.DBF_APPROX_ALL_POINTS
            )
            assert a.success == b.success
            if a.success:
                assert a.assignment == b.assignment

    def test_given_order_all_points_is_sound(self):
        rng = np.random.default_rng(29)
        for trial in range(30):
            tasks = random_sporadics(rng, int(rng.integers(2, 10)))
            result = partition_sporadic(
                tasks,
                3,
                order=TaskOrder.GIVEN,
                admission=AdmissionTest.DBF_APPROX_ALL_POINTS,
            )
            if result.success:
                assert result.verify(exact=True)


# ---------------------------------------------------------------------------
# controller basics
# ---------------------------------------------------------------------------
class TestControllerBasics:
    def test_caller_errors_raise(self):
        controller = AdmissionController(4)
        with pytest.raises(OnlineError):
            AdmissionController(0)
        with pytest.raises(OnlineError):
            controller.admit("not a task")
        with pytest.raises(OnlineError):
            controller.admit(low_task(""))  # unnamed
        assert controller.admit(low_task("a")).accepted
        with pytest.raises(OnlineError):
            controller.admit(low_task("a"))  # duplicate id
        with pytest.raises(OnlineError):
            controller.depart("ghost")
        with pytest.raises(OnlineError):
            controller.cluster_of("a")  # low-density task has no cluster
        with pytest.raises(OnlineError):
            controller.bucket_of("ghost")

    def test_schedulability_problems_reject_not_raise(self):
        controller = AdmissionController(2)
        # D > T: not constrained-deadline (batch fedcons raises ModelError).
        loose = parallel_task(1, 1.0, 9.0, 5.0, "loose")
        decision = controller.admit(loose)
        assert not decision.accepted and decision.reason == "not_constrained"
        # span > D: infeasible on any number of processors.
        chain = SporadicDAGTask(
            dag=DAG({0: 3.0, 1: 3.0}, [(0, 1)]), deadline=4.0, period=10.0,
            name="chain",
        )
        decision = controller.admit(chain)
        assert not decision.accepted
        assert decision.reason == "structurally_infeasible"
        # An oversized high-density task outgrows the platform.
        wide = high_task("wide", width=5)
        decision = controller.admit(wide)
        assert not decision.accepted
        assert decision.reason == "high_density_phase"
        assert controller.admitted_count == 0
        assert controller.matches_batch()  # trivially: nothing admitted

    def test_rejection_leaves_state_unchanged(self):
        controller = AdmissionController(4)
        controller.admit(high_task("h", width=3))
        controller.admit(low_task("l"))
        before = controller.snapshot()
        assert not controller.admit(high_task("h2", width=3)).accepted
        after = controller.snapshot()
        # Only the sequence counter advances on a rejection (rejected
        # arrivals are part of the event history the journal replays).
        assert after.pop("seq") == before.pop("seq") + 1
        assert after == before

    def test_high_density_admit_carves_right_tail(self):
        controller = AdmissionController(5)
        decision = controller.admit(high_task("h", width=3))
        assert decision.accepted and decision.kind == HIGH_DENSITY
        assert decision.processors == (2, 3, 4)
        assert controller.cluster_of("h") == (2, 3, 4)
        assert controller.shared_processors == (0, 1)
        assert controller.dedicated_processor_count == 3

    def test_low_density_admit_first_fit(self):
        controller = AdmissionController(2)
        first = controller.admit(low_task("a", utilization=0.6))
        second = controller.admit(low_task("b", utilization=0.6))
        third = controller.admit(low_task("c", utilization=0.6))
        assert first.accepted and first.kind == LOW_DENSITY
        assert controller.bucket_of("a") == 0
        assert second.accepted and controller.bucket_of("b") == 1
        assert not third.accepted  # both buckets saturated
        assert third.reason == "partition_phase"
        assert controller.verify(exact=True)

    def test_empty_controller(self):
        controller = AdmissionController(3)
        assert controller.reanalyze() is None
        assert controller.matches_batch()
        assert controller.verify(exact=True)
        assert controller.canonical
        assert controller.snapshot()["admitted"] == 0


# ---------------------------------------------------------------------------
# reclamation regressions
# ---------------------------------------------------------------------------
class TestReclamation:
    def test_departed_cluster_is_reusable_by_next_admit(self):
        controller = AdmissionController(6)
        first = controller.admit(high_task("h1", width=3))
        second = controller.admit(high_task("h2", width=2))
        assert first.processors == (3, 4, 5)
        assert second.processors == (1, 2)
        receipt = controller.depart("h1")
        assert receipt.released == (3, 4, 5)
        assert controller.shared_processors == (0, 3, 4, 5)
        # The freed physical processors carry the very next cluster.
        third = controller.admit(high_task("h3", width=3))
        assert third.accepted
        assert third.processors == (3, 4, 5)
        assert controller.matches_batch()

    def test_high_departure_keeps_low_placements(self):
        controller = AdmissionController(4)
        controller.admit(low_task("a"))
        controller.admit(high_task("h", width=3))
        assert controller.shared_processors == (0,)
        controller.depart("h")
        assert controller.shared_processors == (0, 1, 2, 3)
        assert controller.bucket_of("a") == 0
        assert controller.canonical and controller.matches_batch()

    def test_low_departure_compacts(self):
        controller = AdmissionController(3)
        for name in ("a", "b", "c"):
            # u = 0.6 each: one per bucket.
            assert controller.admit(low_task(name, utilization=0.6)).accepted
        assert [controller.bucket_of(n) for n in "abc"] == [0, 1, 2]
        receipt = controller.depart("a")
        assert receipt.kind == LOW_DENSITY and receipt.clean
        # b and c replay first-fit into the freed prefix.
        assert receipt.migrations == 2
        assert controller.bucket_of("b") == 0
        assert controller.bucket_of("c") == 1
        assert controller.canonical and controller.matches_batch()
        assert controller.verify(exact=True)

    def test_no_repack_suspends_canonicity_until_compact(self):
        controller = AdmissionController(3, repack_on_departure=False)
        for name in ("a", "b", "c"):
            controller.admit(low_task(name, utilization=0.6))
        controller.depart("a")
        assert not controller.canonical
        assert controller.bucket_of("b") == 1  # left in place
        assert controller.verify(exact=True)  # but still sound
        migrations, clean = controller.compact()
        assert clean and migrations == 2
        assert controller.canonical and controller.matches_batch()


# ---------------------------------------------------------------------------
# the batch oracle, property-tested over random traces
# ---------------------------------------------------------------------------
class TestOracle:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_every_prefix_matches_batch_and_verifies_exactly(self, seed):
        config = TraceConfig(events=30, processors=8, mean_lifetime=10.0)
        events = generate_trace(config, seed)
        controller = AdmissionController(8)
        admitted: set[str] = set()
        for event in events:
            if event.op == "admit":
                if controller.admit(event.task).accepted:
                    admitted.add(event.task_id)
            elif event.task_id in admitted:
                controller.depart(event.task_id)
                admitted.discard(event.task_id)
            else:
                continue  # departure of a rejected arrival: no-op
            if controller.canonical:
                assert controller.matches_batch(), (
                    f"diverged after {event.op} {event.task_id}"
                )
            assert controller.verify(exact=True)

    def test_replay_oracle_checkpoints(self):
        events = generate_trace(TraceConfig(events=50, processors=8), 1)
        controller = AdmissionController(8)
        report = replay(controller, events, oracle_every=1)
        assert report.oracle_checks > 0
        assert report.events == 50
        assert report.accepted + report.rejected + report.departed \
            + report.absent == 50
        assert controller.verify(exact=True)


# ---------------------------------------------------------------------------
# traces: round-trips, determinism, replay
# ---------------------------------------------------------------------------
class TestTraces:
    def test_event_validation(self):
        with pytest.raises(OnlineError):
            TraceEvent(op="nope", task_id="x")
        with pytest.raises(OnlineError):
            TraceEvent(op="admit", task_id="x")  # admit without a task

    def test_save_load_roundtrip(self, tmp_path):
        events = generate_trace(TraceConfig(events=30, processors=4), 2)
        path = tmp_path / "trace.jsonl"
        save_trace(events, path)
        loaded = load_trace(path)

        def normalized(event):
            # A DAG's to_dict lists edges in its (insertion-dependent)
            # topological order; the round-trip preserves the graph, not
            # that order, so compare canonicalized structures.
            record = json.loads(json.dumps(event.to_dict(), sort_keys=True))
            if "task" in record:
                record["task"]["dag"]["edges"] = sorted(
                    record["task"]["dag"]["edges"]
                )
            return record

        assert [normalized(e) for e in loaded] == [normalized(e) for e in events]
        for before, after in zip(events, loaded):
            if before.task is not None:
                assert after.task.volume == before.task.volume
                assert after.task.span == before.task.span

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "admit"\n')
        with pytest.raises(OnlineError):
            load_trace(path)

    def test_generator_is_deterministic(self):
        config = TraceConfig(events=40, processors=8)
        a = generate_trace(config, 5)
        b = generate_trace(config, 5)
        c = generate_trace(config, 6)
        assert [e.to_dict() for e in a] == [e.to_dict() for e in b]
        assert [e.to_dict() for e in a] != [e.to_dict() for e in c]

    def test_replay_is_deterministic(self):
        events = generate_trace(TraceConfig(events=60, processors=8), 9)
        rows = []
        for _ in range(2):
            report = replay(AdmissionController(8), events)
            rows.append([r.csv_row() for r in report.records])
        assert rows[0] == rows[1]

    def test_departures_reference_prior_arrivals(self):
        events = generate_trace(TraceConfig(events=80, processors=8), 4)
        seen: set[str] = set()
        for event in events:
            if event.op == "admit":
                assert event.task_id not in seen
                seen.add(event.task_id)
            else:
                assert event.task_id in seen


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_generate_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        csv_out = tmp_path / "t.csv"
        metrics_out = tmp_path / "m.json"
        assert admit_main(
            ["generate", str(trace), "--events", "40", "-m", "8", "--seed", "0"]
        ) == 0
        assert trace.is_file()
        assert admit_main(
            [
                "replay", str(trace), "-m", "8", "--oracle-every", "10",
                "--csv", str(csv_out), "--metrics", str(metrics_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 40 events" in out
        assert "batch oracle verified" in out
        header = csv_out.read_text().splitlines()[0]
        assert header == "seq,op,task_id,kind,outcome,reason,processors,migrations"
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["online.admit_accepted"] > 0

    def test_replay_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert admit_main(
            ["replay", str(tmp_path / "absent.jsonl"), "-m", "4"]
        ) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# observability integration
# ---------------------------------------------------------------------------
class TestObservability:
    def test_events_and_metrics(self):
        with tracing() as trace, collecting() as registry:
            controller = AdmissionController(4)
            controller.admit(high_task("h", width=3))
            controller.admit(low_task("l"))
            controller.admit(high_task("too-wide", width=9))  # rejected
            controller.depart("h")
            controller.depart("l")
        admissions = trace.events_of(Admission)
        assert [a.accepted for a in admissions] == [True, True, False]
        assert admissions[0].kind == HIGH_DENSITY
        assert admissions[1].kind == LOW_DENSITY
        departures = trace.events_of(Departure)
        assert [d.task for d in departures] == ["h", "l"]
        reclamations = trace.events_of(Reclamation)
        assert len(reclamations) == 2
        assert reclamations[0].processors == (1, 2, 3)
        assert all(r.clean for r in reclamations)
        counters = registry.snapshot()["counters"]
        assert counters["online.admit_accepted"] == 2
        assert counters["online.admit_rejected"] == 1
        assert counters["online.departures"] == 2
        assert counters["online.placement_probes"] >= 1
        timers = registry.snapshot()["timers"]
        assert timers["online.admit_seconds"]["count"] == 3
        assert timers["online.depart_seconds"]["count"] == 2
