"""The compaction replay behind low-density departures.

A low-density departure replays first-fit for every task admitted after the
departed one, probing only the buckets whose contents diverged from the
current packing.  That shortcut is exact only while the packing is
canonical, so these tests pin both halves:

* on crowded churn traces (few processors, short lifetimes, heavy arrivals
  reshaping the pool), every canonical state after a low-density departure
  equals a from-scratch replay of every placement, the batch re-analysis,
  and freshly built shard ledgers, float for float;
* a non-canonical packing is replayed over every bucket, not just the
  departed task's, and a verified recovery does not trust a checkpoint
  that claims canonical for such a packing;
* a seeded trace whose replay hits a first-fit anomaly keeps the old
  assignment, turns non-canonical, replays later departures over every
  bucket, and a final ``compact()`` restores the canonical packing.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import ShardState
from repro.generation.traces import TraceConfig, generate_trace
from repro.obs import collecting
from repro.online import (
    LOW_DENSITY,
    AdmissionController,
    DurableController,
    Journal,
    recover,
    write_checkpoint,
)
from repro.online.controller import DepartureReceipt

from strategies import low_task


def _assignment(controller: AdmissionController) -> list[list[str]]:
    return [
        [task.name for task in bucket]
        for bucket in controller.to_partition_result().assignment
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    processors=st.integers(min_value=2, max_value=5),
    mean_lifetime=st.floats(min_value=4.0, max_value=20.0),
    heavy_fraction=st.sampled_from([0.1, 0.25]),
)
def test_canonical_departures_equal_full_replay(
    seed, processors, mean_lifetime, heavy_fraction
):
    config = TraceConfig(
        events=50, processors=processors, mean_lifetime=mean_lifetime,
        heavy_fraction=heavy_fraction, utilization_low=0.1,
        utilization_high=0.6,
    )
    controller = AdmissionController(processors)
    admitted: set[str] = set()
    for event in generate_trace(config, seed):
        if event.op == "admit":
            if controller.admit(event.task).accepted:
                admitted.add(event.task_id)
            continue
        if event.task_id not in admitted:
            continue
        admitted.discard(event.task_id)
        receipt = controller.depart(event.task_id)
        if receipt.kind != LOW_DENSITY or not controller.canonical:
            continue
        snapshot = controller.snapshot()
        rebuilt = AdmissionController.restore(snapshot)
        assert rebuilt.compact() == (0, True)
        assert rebuilt.snapshot() == snapshot
        assert controller.matches_batch()
        for shard in controller._shards:
            assert shard.state_vector() == ShardState(shard.entries).state_vector()


def _parked_snapshot(canonical: bool) -> dict:
    """a, b, c on three buckets, with c parked in bucket 2: a sound packing
    first-fit would not produce (it puts c in bucket 0)."""
    controller = AdmissionController(3)
    for name, utilization in (("a", 0.6), ("b", 0.6), ("c", 0.1)):
        assert controller.admit(low_task(name, utilization)).accepted
    assert [controller.bucket_of(n) for n in "abc"] == [0, 1, 0]
    snapshot = controller.snapshot()
    for record in snapshot["tasks"]:
        if record["id"] == "c":
            record["bucket"] = 2
    snapshot["canonical"] = canonical
    return snapshot


def test_non_canonical_departure_replays_every_bucket():
    controller = AdmissionController.restore(_parked_snapshot(False))
    receipt = controller.depart("b")
    # Only b's bucket changed, yet c must replay against every bucket: the
    # first fit of c is bucket 0, not the emptied bucket 1.
    assert receipt.clean and receipt.migrations == 1
    assert controller.bucket_of("c") == 0
    assert controller.matches_batch()


def test_recover_clears_a_refuted_canonical_claim(tmp_path):
    # The primary knows its packing is not canonical; its checkpoint is then
    # edited to claim it is.  Trusting the claim, b's departure would move c
    # into the emptied bucket 1 -- the same receipt as the primary's, but a
    # packing the batch re-analysis refutes.
    primary = AdmissionController.restore(_parked_snapshot(False))
    journal_path = tmp_path / "ctl.journal"
    checkpoint_path = tmp_path / "ctl.ckpt.json"
    with Journal(journal_path, fsync="off") as journal:
        durable = DurableController(primary, journal)
        write_checkpoint(primary, checkpoint_path, journal.entries)
        receipt = durable.depart("b")
    assert receipt.migrations == 1 and primary.bucket_of("c") == 0
    document = json.loads(checkpoint_path.read_text())
    document["state"]["canonical"] = True
    checkpoint_path.write_text(json.dumps(document))

    assert not AdmissionController.restore(document["state"]).confirm_canonical()
    recovered, report = recover(checkpoint_path, journal_path, verify=True)
    assert report.checkpoint_used and report.replayed == 1
    assert not recovered.canonical
    assert recovered.snapshot() == primary.snapshot()


def test_compaction_anomaly_then_compact_restores_canonical():
    config = TraceConfig(
        events=60, processors=4, mean_lifetime=15.0, heavy_fraction=0.0,
        utilization_low=0.2, utilization_high=0.7,
    )
    events = generate_trace(config, 53)
    controller = AdmissionController(4)
    admitted: set[str] = set()
    later_departures = 0
    with collecting() as registry:
        for index, event in enumerate(events):
            if event.op == "admit":
                if controller.admit(event.task).accepted:
                    admitted.add(event.task_id)
                continue
            if event.task_id not in admitted:
                continue
            admitted.discard(event.task_id)
            before = _assignment(controller)
            receipt = controller.depart(event.task_id)
            if index < 41:
                assert receipt.clean
            elif index == 41:
                assert dataclasses.replace(receipt, latency_seconds=0.0) == (
                    DepartureReceipt(
                        task_id="t0006", kind=LOW_DENSITY, seq=37,
                        migrations=0, clean=False,
                    )
                )
                assert _assignment(controller) == [
                    [name for name in bucket if name != "t0006"]
                    for bucket in before
                ]
                assert not controller.canonical
                assert controller.verify(exact=True)
            else:
                later_departures += 1
        assert registry.counter("online.repack_anomalies") == 1
    # Later departures replayed every bucket; none re-canonicalised.
    assert later_departures > 0
    assert not controller.canonical
    migrations, clean = controller.compact()
    assert clean and migrations > 0
    assert controller.canonical and controller.matches_batch()
    assert controller.verify(exact=True)
