"""Service-layer tests: wire protocol, batched admits, replication, failover.

The load-bearing guarantees pinned here:

* **batch = sequential** -- tasks pipelined on one connection to an
  in-process server, which the commit loop coalesces into batches, are
  bit-identical to a loop of ``DurableController.admit``: same decisions
  (wall-clock latency aside), same lossless snapshot (shard ledgers
  included), same sequence counter, same journal records -- driven by
  hypothesis over random DAG-task batches, by random generated traces,
  and by the adversarial gadget frontier;
* **journal tail-follow** -- :class:`JournalFollower` delivers exactly the
  committed records in order, never consumes a torn tail, and rejects
  gaps/garbage with the typed error;
* **replication cursors** -- streamed/acked offsets are monotone and an
  acknowledgement beyond what was streamed is a protocol violation;
* **the server** -- admits/departs/queries over a real socket, batching
  under pipelining, one fsync per batch however admits and departs mix,
  per-request error responses that never tear the connection down,
  subscribers that are sent only fsynced records, ack convergence, and the
  HTTP shim;
* **warm standby** -- streamed records applied through the oracle-checked
  replay path; promotion == ``recover(verify=True)`` of the journal
  prefix, at *every* record boundary of the golden 200-event trace
  (the service-level twin of the crash-recovery boundary sweep in
  ``test_persist.py``);
* **one genesis parser** -- recovery, the standby and the drill refuse a
  malformed genesis record with the same typed error.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError, ServiceError
from repro.generation.adversarial import chen_gadget
from repro.generation.traces import TraceConfig, generate_trace
from repro.model.serialization import task_to_dict
from repro.obs import collecting
from repro.online import (
    AdmissionController,
    DurableController,
    Journal,
    JournalFollower,
    ReplicationCursor,
    load_trace,
    recover,
    replay,
)
from repro.online.persist import genesis_record
from repro.service import (
    AdmissionServer,
    StandbyReplica,
    controller_from_records,
    decision_from_dict,
    decision_to_dict,
    decode,
    encode,
    receipt_from_dict,
    receipt_to_dict,
)
from repro.service.protocol import error_response, ok_response
from repro.service.server import _Pending, _Subscribe

from strategies import dag_tasks, high_task, low_task

DATA = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA / "online_trace.jsonl"
M = 16  # platform size the golden trace was generated for


def _named(tasks) -> list:
    """Unique names for strategy-drawn tasks (admission requires them)."""
    return [
        dataclasses.replace(task, name=f"t{i}") for i, task in enumerate(tasks)
    ]


def _no_latency(decision):
    return dataclasses.replace(decision, latency_seconds=0.0)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "admit", "task": {"name": "a"}, "n": 3}
        assert decode(encode(message)) == message
        assert encode(message).endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError):
            decode(b"{truncated")
        with pytest.raises(ServiceError):
            decode(b"[1, 2, 3]\n")  # an array is not a request
        with pytest.raises(ServiceError):
            decode(b"[" * 100000)  # too deep: the parser's RecursionError

    @pytest.mark.parametrize("line", [
        b'{"op": "admit", "op": "ping"}\n',
        b'{"op": "admit", "task": {"dag": {"wcets": {"1": 1, "1": 2}}}}\n',
        b'{"op": "query", "x": [{"a": 1, "a": 1}]}\n',
    ], ids=["top_level", "nested", "in_array"])
    def test_decode_refuses_duplicate_keys_at_any_depth(self, line):
        with pytest.raises(ServiceError, match="duplicate key"):
            decode(line)

    def test_decode_refuses_invalid_utf8(self):
        # Replacing bad bytes would decode both names as "a\ufffd".
        for byte in (b"\xff", b"\xfe"):
            with pytest.raises(ServiceError, match="not UTF-8"):
                decode(b'{"op": "depart", "task_id": "a' + byte + b'"}\n')
        assert decode('{"task_id": "a\u00ff"}'.encode()) == {
            "task_id": "a\u00ff"
        }

    def test_response_shapes(self):
        ok = ok_response("ping", extra=1)
        assert ok["ok"] and ok["op"] == "ping" and ok["extra"] == 1
        err = error_response("bad_request", "nope")
        assert not err["ok"] and err["code"] == "bad_request"

    def test_decision_round_trip(self):
        controller = AdmissionController(8)
        decision = controller.admit(high_task("h", width=3))
        back = decision_from_dict(
            json.loads(json.dumps(decision_to_dict(decision)))
        )
        assert back == decision
        assert isinstance(back.processors, tuple)

    def test_receipt_round_trip(self):
        controller = AdmissionController(8)
        controller.admit(low_task("a"))
        receipt = controller.depart("a")
        back = receipt_from_dict(
            json.loads(json.dumps(receipt_to_dict(receipt)))
        )
        assert back == receipt
        assert isinstance(back.released, tuple)

    def test_malformed_payloads_raise_typed_error(self):
        with pytest.raises(ServiceError):
            decision_from_dict({"accepted": True})
        with pytest.raises(ServiceError):
            receipt_from_dict({"task_id": "a"})


# ---------------------------------------------------------------------------
# commit loop == sequential admits (the coalescing correctness core)
# ---------------------------------------------------------------------------
def _assert_batch_equals_sequential(processors: int, tasks: list) -> None:
    """*tasks* pipelined on one connection to an in-process server
    (``fsync="batch"``) == a loop of ``admit`` on a second durable
    controller."""
    with tempfile.TemporaryDirectory() as scratch:
        served_path = Path(scratch) / "server.jsonl"
        seq_path = Path(scratch) / "seq.jsonl"

        async def serve():
            server = await _start_server(Path(scratch), processors)
            try:
                responses = await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in tasks
                ))
            finally:
                await server.aclose()
            return server.durable, responses

        served, responses = asyncio.run(serve())
        with Journal(seq_path, fsync="off") as journal:
            sequential = DurableController(
                AdmissionController(processors), journal
            )
            seq_decisions = [sequential.admit(task) for task in tasks]
        served_records, _ = Journal.read(served_path)
        seq_records, _ = Journal.read(seq_path)
    assert all(r["ok"] for r in responses), responses
    assert [
        _no_latency(decision_from_dict(r["decision"])) for r in responses
    ] == [_no_latency(d) for d in seq_decisions]
    # Snapshots are lossless (shard ledgers bit for bit) and exclude
    # wall-clock, so equality here is the bit-identity claim.
    assert served.snapshot() == sequential.snapshot()
    assert served.seq == sequential.seq
    assert served_records == seq_records


class TestAdmitManyEquivalence:
    """Batch = sequential, driven through the server's commit loop."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batch=st.lists(dag_tasks(), min_size=1, max_size=8),
        processors=st.integers(min_value=1, max_value=24),
    )
    def test_random_batches(self, batch, processors):
        _assert_batch_equals_sequential(processors, _named(batch))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_traces(self, seed):
        config = TraceConfig(events=120, processors=16)
        tasks = [
            e.task for e in generate_trace(config, rng=seed)
            if e.op == "admit" and e.task is not None
        ]
        _assert_batch_equals_sequential(config.processors, tasks)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("hardness", [0.4, 1.0])
    def test_gadget_frontier(self, k, hardness):
        gadget = chen_gadget(k, hardness=hardness)
        _assert_batch_equals_sequential(
            gadget.processors, list(gadget.system)
        )

    def test_mixed_with_departures_interleaved(self, tmp_path):
        """Durable groups of admits, each synced once, between departures
        match the sequential history."""
        sequential = AdmissionController(16)
        first = [low_task(f"a{i}", 0.3) for i in range(6)]
        second = [high_task("h", width=3)] + [
            low_task(f"b{i}", 0.5) for i in range(4)
        ]
        with Journal(tmp_path / "j.jsonl", fsync="batch") as journal:
            durable = DurableController(AdmissionController(16), journal)
            for task in first:
                durable.admit(task)
                sequential.admit(task)
            journal.sync()
            for controller in (durable, sequential):
                controller.depart("a2")
                controller.depart("a4")
            for task in second:
                durable.admit(task)
                sequential.admit(task)
            journal.sync()
        assert durable.snapshot() == sequential.snapshot()

    def test_durable_batches_journal_identically(self):
        _assert_batch_equals_sequential(
            8, [low_task(f"x{i}", 0.4) for i in range(5)]
        )


# ---------------------------------------------------------------------------
# journal tail-following + replication cursors
# ---------------------------------------------------------------------------
class TestJournalFollower:
    def test_streams_appends_in_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(8), journal)
            follower = JournalFollower(path)
            first = follower.poll()
            assert [r["kind"] for r in first] == ["genesis"]
            durable.admit(low_task("a"))
            durable.admit(low_task("b"))
            journal.sync()
            second = follower.poll()
            assert [r["id"] for r in second] == ["a", "b"]
            assert follower.poll() == []
            assert follower.position == journal.entries

    def test_start_offset_skips_backlog(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            durable = DurableController(AdmissionController(8), journal)
            durable.admit(low_task("a"))
            journal.sync()
            follower = JournalFollower(path, start=1)
            assert [r["id"] for r in follower.poll()] == ["a"]
        with pytest.raises(PersistenceError):
            JournalFollower(path, start=99)  # beyond the journal

    def test_never_consumes_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            DurableController(
                AdmissionController(8), journal
            ).admit(low_task("a"))
        follower = JournalFollower(path)
        complete = path.read_bytes()
        path.write_bytes(complete + b'{"n": 2, "kind": "adm')  # torn record
        assert len(follower.poll()) == 2  # genesis + admit, not the tail
        path.write_bytes(complete)

    def test_garbage_between_records_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="off") as journal:
            DurableController(
                AdmissionController(8), journal
            ).admit(low_task("a"))
        path.write_bytes(path.read_bytes() + b"not json at all\n")
        follower = JournalFollower(path)
        with pytest.raises(PersistenceError):
            follower.poll()


class TestReplicationCursor:
    def test_monotone_progress_and_lag(self):
        cursor = ReplicationCursor()
        cursor.advance(5)
        cursor.advance(3)  # stale advance is a no-op
        assert cursor.streamed == 5
        cursor.acknowledge(4)
        cursor.acknowledge(2)  # stale ack is a no-op
        assert cursor.acked == 4
        assert cursor.lag == 1

    def test_over_acknowledgement_rejected(self):
        cursor = ReplicationCursor()
        cursor.advance(3)
        with pytest.raises(PersistenceError):
            cursor.acknowledge(4)


# ---------------------------------------------------------------------------
# the asyncio server over a real socket
# ---------------------------------------------------------------------------
async def _start_server(tmp_path, processors=16, http=False, max_batch=128):
    journal = Journal(tmp_path / "server.jsonl", fsync="batch")
    durable = DurableController(AdmissionController(processors), journal)
    server = AdmissionServer(
        durable, http_port=0 if http else None, max_batch=max_batch
    )
    await server.start()
    return server


async def _rpc(port: int, *requests: dict) -> list[dict]:
    """Pipeline *requests* on one connection; collect one response each."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for request in requests:
        writer.write(encode(request))
    await writer.drain()
    responses = [decode(await reader.readline()) for _ in requests]
    writer.close()
    return responses


#: The same vertex sent twice under ids int() reads alike.  As sent, volume 6
#: and density 1.5 need two processors; merged into one vertex of WCET 3,
#: one processor would admit it.
_COLLIDING_TASK = {
    "dag": {"wcets": {"1": 3.0, "01": 3.0}, "edges": []},
    "deadline": 4.0, "period": 4.0, "name": "x",
}


async def _http_exchange(port: int, raw: bytes) -> tuple[str, bytes]:
    """Send one raw HTTP request to the shim; its status line and body."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.split(b"\r\n")[0].decode().split(" ", 1)[1]
    return status, body


def _http_post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestAdmissionServer:
    def test_colliding_vertex_ids_are_a_bad_request(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path, processors=1)
            try:
                return await _rpc(
                    server.tcp_port,
                    {"op": "admit", "task": _COLLIDING_TASK},
                    {"op": "query"},
                )
            finally:
                await server.aclose()

        admit, query = asyncio.run(scenario())
        assert not admit["ok"] and admit["code"] == "bad_request"
        assert "'01'" in admit["error"]
        assert query["state"]["seq"] == 0
        records, _ = Journal.read(tmp_path / "server.jsonl")
        assert [r["kind"] for r in records] == ["genesis"]

    def test_duplicate_keys_are_a_bad_request(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(b'{"op": "admit", "op": "ping"}\n')
                writer.write(encode({"op": "ping"}))
                await writer.drain()
                responses = [decode(await reader.readline()) for _ in range(2)]
                writer.close()
                return responses
            finally:
                await server.aclose()

        duplicate, ping = asyncio.run(scenario())
        assert not duplicate["ok"] and duplicate["code"] == "bad_request"
        assert "duplicate key 'op'" in duplicate["error"]
        assert ping["ok"] and ping["op"] == "ping"

    def test_non_utf8_and_non_string_names_are_bad_requests(self, tmp_path):
        def admit_line(name: bytes) -> bytes:
            return (
                b'{"op": "admit", "task": {"dag": {"wcets": {"0": 1.0}, '
                b'"edges": []}, "deadline": 4.0, "period": 4.0, "name": '
                + name + b"}}\n"
            )

        async def scenario():
            server = await _start_server(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                for name in (b'"a\xff"', b'"a\xfe"', b"null", b"7"):
                    writer.write(admit_line(name))
                writer.write(encode({"op": "query"}))
                await writer.drain()
                responses = [decode(await reader.readline()) for _ in range(5)]
                writer.close()
                return responses
            finally:
                await server.aclose()

        *admits, query = asyncio.run(scenario())
        assert [a["code"] for a in admits] == ["bad_request"] * 4
        assert all("not UTF-8" in a["error"] for a in admits[:2])
        assert all("task name must be a string" in a["error"]
                   for a in admits[2:])
        assert query["state"]["seq"] == 0
        records, _ = Journal.read(tmp_path / "server.jsonl")
        assert [r["kind"] for r in records] == ["genesis"]

    def test_admit_depart_query_round_trip(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                responses = await _rpc(
                    server.tcp_port,
                    {"op": "ping"},
                    {"op": "admit", "task": task_to_dict(low_task("a"))},
                    {"op": "admit", "task": task_to_dict(high_task("h"))},
                    {"op": "depart", "task_id": "a"},
                    {"op": "query"},
                )
            finally:
                await server.aclose()
            return responses

        ping, admit_a, admit_h, depart, query = asyncio.run(scenario())
        assert ping["ok"]
        assert admit_a["ok"] and admit_a["decision"]["accepted"]
        assert admit_h["ok"] and admit_h["decision"]["kind"] == "high_density"
        assert depart["ok"] and depart["receipt"]["task_id"] == "a"
        state = query["state"]
        assert state["admitted_ids"] == ["h"]
        assert state["seq"] == 3
        assert state["journal_entries"] == 4  # genesis + 2 admits + depart
        assert state["fsync_policy"] == "batch"

    def test_responses_are_durable_before_acknowledgement(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                await _rpc(server.tcp_port, {
                    "op": "admit", "task": task_to_dict(low_task("a")),
                })
                # The response is out; the journal must already hold the
                # record (batch policy syncs before futures resolve).
                records, _ = Journal.read(tmp_path / "server.jsonl")
                return records
            finally:
                await server.aclose()

        records = asyncio.run(scenario())
        assert [r["kind"] for r in records] == ["genesis", "admit"]

    def test_errors_do_not_tear_the_connection(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(b"this is not json\n")
                writer.write(encode({"op": "launch_missiles"}))
                writer.write(encode({"op": "depart", "task_id": "ghost"}))
                writer.write(encode({"op": "admit", "task": {"bad": 1}}))
                writer.write(encode(
                    {"op": "admit", "task": task_to_dict(low_task("a"))}
                ))
                writer.write(encode(
                    {"op": "admit", "task": task_to_dict(low_task("a"))}
                ))
                writer.write(b"[" * 100000 + b"\n")  # nested too deep
                writer.write(encode({"op": "ping"}))
                await writer.drain()
                responses = [decode(await reader.readline()) for _ in range(8)]
                writer.close()
                return responses
            finally:
                await server.aclose()

        (
            garbage, unknown, ghost, malformed, good, duplicate, nested, ping,
        ) = asyncio.run(scenario())
        assert not garbage["ok"] and garbage["code"] == "bad_request"
        assert not unknown["ok"] and unknown["code"] == "bad_request"
        assert not ghost["ok"] and ghost["code"] == "online_error"
        assert not malformed["ok"] and malformed["code"] == "bad_request"
        assert good["ok"] and good["decision"]["accepted"]
        assert not duplicate["ok"] and duplicate["code"] == "online_error"
        assert "already admitted" in duplicate["error"]
        assert not nested["ok"] and nested["code"] == "bad_request"
        assert ping["ok"] and ping["op"] == "ping"

    def test_pipelined_admits_coalesce_into_batches(self, tmp_path):
        tasks = [low_task(f"p{i}", 0.1) for i in range(24)]

        async def scenario():
            server = await _start_server(tmp_path, processors=32)
            try:
                responses = await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in tasks
                ))
                return responses, server.durable.controller.seq
            finally:
                await server.aclose()

        with collecting() as registry:
            responses, seq = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert seq == len(tasks)
        # Decisions arrive in request order with contiguous seq numbers.
        assert [r["decision"]["seq"] for r in responses] == list(
            range(1, len(tasks) + 1)
        )
        batches = registry.counter("service.batches")
        assert 1 <= batches < len(tasks), (
            f"{len(tasks)} pipelined admits should coalesce, got "
            f"{batches} batches"
        )
        assert registry.counter("service.admits") == len(tasks)

    def test_mixed_batch_fsyncs_once(self, tmp_path):
        """Admits alternating with departs still make one fsync a batch."""
        first = [low_task(f"a{i}", 0.1) for i in range(20)]
        mixed = []
        for i, task in enumerate(first):
            mixed.append(
                {"op": "admit", "task": task_to_dict(low_task(f"b{i}", 0.1))}
            )
            mixed.append({"op": "depart", "task_id": task.name})

        async def scenario():
            server = await _start_server(tmp_path, processors=32)
            try:
                await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in first
                ))
                return await _rpc(server.tcp_port, *mixed)
            finally:
                await server.aclose()

        with collecting() as registry:
            responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        # Fewer batches than half the mixed requests: some batch holds at
        # least three, so an admit followed by a depart.
        assert registry.counter("service.batches") < len(mixed) // 2
        assert registry.counter("online.journal.group_syncs") == (
            registry.counter("service.batches")
        )

    def test_subscribers_are_sent_only_synced_records(self, tmp_path):
        """Neither a new subscriber's backlog nor an existing subscriber's
        stream carries a record the batch has not yet fsynced."""

        class SyncRecordingJournal(Journal):
            synced = 0  # entries durable at the last sync()

            def sync(self):
                super().sync()
                self.synced = self.entries

        class DurableOnlyWriter:
            def __init__(self, journal):
                self.journal = journal
                self.streamed: list[int] = []

            def write(self, data):
                record = decode(data).get("record")
                if record is not None:
                    assert record["n"] < self.journal.synced, (
                        f"record {record['n']} streamed before its fsync"
                    )
                    self.streamed.append(record["n"])

        async def scenario():
            loop = asyncio.get_running_loop()
            journal = SyncRecordingJournal(
                tmp_path / "server.jsonl", fsync="batch"
            )
            server = AdmissionServer(
                DurableController(AdmissionController(8), journal)
            )

            def request(op, **payload):
                return _Pending(
                    op=op, payload=payload, future=loop.create_future()
                )

            def subscribe(writer):
                return _Subscribe(
                    start=0, writer=writer, future=loop.create_future()
                )

            first = DurableOnlyWriter(journal)
            second = DurableOnlyWriter(journal)
            server._commit_batch([subscribe(first)])  # genesis is unsynced
            server._commit_batch(
                [request("admit", task=task_to_dict(low_task("a")))]
            )
            batch = [
                request("depart", task_id="a"),
                subscribe(second),
                request("admit", task=task_to_dict(low_task("b"))),
            ]
            server._commit_batch(batch)
            journal.close()
            return first, second, [entry.future.result() for entry in batch]

        first, second, responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert first.streamed == second.streamed == [0, 1, 2, 3]

    def test_subscriber_acks_converge(self, tmp_path):
        tasks = [low_task(f"s{i}", 0.2) for i in range(8)]

        async def scenario():
            server = await _start_server(tmp_path, processors=16)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.tcp_port
                )
                writer.write(encode({"op": "subscribe", "from": 0}))
                await writer.drain()
                ack = decode(await reader.readline())
                assert ack["ok"] and ack["backlog"] == 1  # genesis
                streamed = [
                    decode(await reader.readline())["record"]["kind"]
                ]
                await _rpc(server.tcp_port, *(
                    {"op": "admit", "task": task_to_dict(task)}
                    for task in tasks
                ))
                applied = 1
                while applied < len(tasks) + 1:
                    message = decode(await reader.readline())
                    streamed.append(message["record"]["kind"])
                    applied += 1
                writer.write(encode({"op": "ack", "n": applied}))
                await writer.drain()
                for _ in range(200):
                    cursor, = server.replication_cursors
                    if cursor.acked == applied:
                        break
                    await asyncio.sleep(0.005)
                cursor, = server.replication_cursors
                writer.close()
                return streamed, cursor
            finally:
                await server.aclose()

        streamed, cursor = asyncio.run(scenario())
        assert streamed == ["genesis"] + ["admit"] * len(tasks)
        assert cursor.streamed == len(tasks) + 1
        assert cursor.acked == cursor.streamed and cursor.lag == 0

    def test_http_shim(self, tmp_path):
        http = _http_exchange

        def post(path, payload):
            return _http_post(path, json.dumps(payload).encode())

        async def scenario():
            server = await _start_server(tmp_path, http=True)
            port = server.http_port
            try:
                results = {
                    # A bare serialized task works as the /admit body.
                    "admit": await http(
                        port, post("/admit", task_to_dict(low_task("web")))
                    ),
                    "depart": await http(
                        port, post("/depart", {"task_id": "web"})
                    ),
                    "state": await http(
                        port, b"GET /state HTTP/1.0\r\n\r\n"
                    ),
                    "metrics": await http(
                        port, b"GET /metrics HTTP/1.0\r\n\r\n"
                    ),
                    "missing": await http(
                        port, b"GET /nope HTTP/1.0\r\n\r\n"
                    ),
                    "bad_json": await http(port, (
                        b"POST /admit HTTP/1.0\r\nContent-Length: 4\r\n\r\n{{{{"
                    )),
                    "deep_json": await http(port, (
                        b"POST /depart HTTP/1.0\r\nContent-Length: 100000"
                        b"\r\n\r\n" + b"[" * 100000
                    )),
                }
                # Hostile bodies next to a well-formed admit: the body's
                # "op" cannot override the path, and a body that is not an
                # object is a 400, not a dropped connection.
                hostile = {
                    "op_in_body": post(
                        "/admit", {"op": "subscribe", "from": 0, "task": 1}
                    ),
                    "depart_list": post("/depart", [1]),
                    "depart_int": post("/depart", 3),
                    "admit_string": post("/admit", "task"),
                    "concurrent": post(
                        "/admit", task_to_dict(low_task("web2"))
                    ),
                }
                answers = await asyncio.gather(*(
                    http(port, raw) for raw in hostile.values()
                ))
                results.update(zip(hostile, answers))
            finally:
                await server.aclose()
            return results

        with collecting():
            results = asyncio.run(scenario())
        status, body = results["admit"]
        assert status == "200 OK"
        assert json.loads(body)["decision"]["accepted"]
        status, body = results["depart"]
        assert status == "200 OK" and json.loads(body)["receipt"]["clean"]
        status, body = results["state"]
        assert status == "200 OK"
        assert json.loads(body)["journal_entries"] == 3
        status, body = results["metrics"]
        assert status == "200 OK"
        assert b"service_admits" in body  # Prometheus exposition
        assert results["missing"][0] == "404 Not Found"
        assert results["bad_json"][0] == "400 Bad Request"
        status, body = results["deep_json"]
        assert status == "400 Bad Request"
        assert json.loads(body)["code"] == "bad_request"
        for name in ("op_in_body", "depart_list", "depart_int", "admit_string"):
            status, body = results[name]
            assert status == "400 Bad Request", name
            assert json.loads(body)["code"] == "bad_request", name
        status, body = results["concurrent"]
        assert status == "200 OK"
        assert json.loads(body)["decision"]["accepted"]

    def test_http_non_utf8_and_non_string_names_are_bad_requests(
        self, tmp_path
    ):
        task = b'{"dag": {"wcets": {"0": 1.0}, "edges": []}, "deadline": 4.0, '
        bodies = [
            task + b'"period": 4.0, "name": "a\xff"}',
            task + b'"period": 4.0, "name": null}',
            b'{"task_id": "a\xfe"}',
        ]

        async def scenario():
            server = await _start_server(tmp_path, http=True)
            try:
                return [
                    await _http_exchange(
                        server.http_port, _http_post(path, body)
                    )
                    for path, body in zip(
                        ("/admit", "/admit", "/depart"), bodies
                    )
                ]
            finally:
                await server.aclose()

        answers = asyncio.run(scenario())
        for status, body in answers:
            assert status == "400 Bad Request"
            assert json.loads(body)["code"] == "bad_request"
        errors = [json.loads(body)["error"] for _, body in answers]
        assert "not UTF-8" in errors[0] and "not UTF-8" in errors[2]
        assert "task name must be a string" in errors[1]
        records, _ = Journal.read(tmp_path / "server.jsonl")
        assert [r["kind"] for r in records] == ["genesis"]


# ---------------------------------------------------------------------------
# warm standby + promotion
# ---------------------------------------------------------------------------
def _journal_from_golden(directory: Path) -> Path:
    """Replay the committed golden trace through a journaling controller."""
    path = directory / "golden.journal"
    with Journal(path, fsync="off") as journal:
        durable = DurableController(AdmissionController(M), journal)
        replay(durable, load_trace(GOLDEN_TRACE))
    return path


@pytest.fixture(scope="module")
def golden_records(tmp_path_factory) -> list[dict]:
    path = _journal_from_golden(tmp_path_factory.mktemp("golden"))
    records, torn = Journal.read(path)
    assert not torn
    return records


class TestStandbyReplica:
    def test_replication_gap_rejected(self, tmp_path, golden_records):
        with StandbyReplica(tmp_path / "standby.jsonl", fsync="off") as replica:
            replica.apply(golden_records[0])
            with pytest.raises(ServiceError, match="replication gap"):
                replica.apply(golden_records[2])  # skipped record 1

    def test_records_before_genesis_rejected(self, tmp_path, golden_records):
        with StandbyReplica(tmp_path / "standby.jsonl", fsync="off") as replica:
            with pytest.raises(ServiceError):
                replica.apply(golden_records[1])
            with pytest.raises(ServiceError):
                replica.promote()

    def test_unknown_priority_order_in_genesis_rejected(self, tmp_path):
        genesis = {"n": 0, **genesis_record(AdmissionController(M))}
        genesis["ls_order"] = "bogus"
        admit = {
            "n": 1, "kind": "admit", "id": "h",
            "task": task_to_dict(high_task("h")), "accepted": True,
            "decided": "high_density", "processors": [0, 1, 2], "reason": "",
        }
        with StandbyReplica(tmp_path / "standby.jsonl", fsync="off") as replica:
            with pytest.raises(PersistenceError, match="priority order"):
                for record in (genesis, admit):
                    replica.apply(record)

    def test_resume_from_existing_local_journal(
        self, tmp_path, golden_records
    ):
        path = tmp_path / "standby.jsonl"
        replica = StandbyReplica(path, fsync="off")
        for record in golden_records[:10]:
            replica.apply(record)
        replica.close()
        resumed = StandbyReplica(path, fsync="off")
        assert resumed.applied == 10
        for record in golden_records[10:]:
            resumed.apply(record)
        controller, report = resumed.promote(verify=True)
        assert report.verified
        oracle = controller_from_records(golden_records)
        assert controller.snapshot() == oracle.snapshot()
        resumed.close()

    def test_divergent_stream_rejected(self, tmp_path, golden_records):
        """A tampered streamed record fails the replay oracle, not silently."""
        admit = next(
            dict(r) for r in golden_records[1:]
            if r["kind"] == "admit" and r["accepted"]
        )
        admit["n"] = 1
        admit["accepted"] = False  # primary said accept; stream says reject
        admit["decided"] = None
        admit["processors"] = []
        admit["reason"] = "tampered"
        with StandbyReplica(tmp_path / "standby.jsonl", fsync="off") as replica:
            replica.apply(golden_records[0])
            with pytest.raises(PersistenceError):
                replica.apply(admit)


class TestGoldenBoundaryFailover:
    def test_promotion_at_every_record_boundary(
        self, tmp_path, golden_records
    ):
        """Acceptance: kill the primary after *any* committed record of the
        golden trace and the promoted standby equals a fresh verified
        recovery of the primary's journal prefix."""
        replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
        prefix_path = tmp_path / "prefix.jsonl"
        prefix_journal = Journal(prefix_path, fsync="off")
        for boundary, record in enumerate(golden_records):
            replica.apply(record)
            prefix_journal.append(record)  # keeps the record's verbatim n
            prefix_journal.sync()
            controller, report = replica.promote(
                verify=True, staleness=len(golden_records) - boundary - 1
            )
            assert report.verified
            assert report.replicated == boundary + 1
            fresh, _ = recover(None, prefix_path, verify=True)
            assert fresh.snapshot() == controller.snapshot(), (
                f"promotion diverges from verified recovery at record "
                f"boundary {boundary}"
            )
        prefix_journal.close()
        replica.close()


# ---------------------------------------------------------------------------
# one genesis parser for recovery, the standby and the drill
# ---------------------------------------------------------------------------
def _genesis(drop: str = "", **changes) -> dict:
    record = {"n": 0, **genesis_record(AdmissionController(4)), **changes}
    record.pop(drop, None)
    return record


def _recover_records(tmp_path, records):
    path = tmp_path / "j.jsonl"
    with Journal(path, fsync="off") as journal:
        for record in records:
            journal.append(record)
    return recover(None, path)


def _standby_records(tmp_path, records):
    replica = StandbyReplica(tmp_path / "standby.jsonl", fsync="off")
    try:
        for record in records:
            replica.apply(record)
    finally:
        replica.close()


class TestGenesisParsing:
    @pytest.mark.parametrize("entry", [
        _recover_records, _standby_records,
        lambda tmp_path, records: controller_from_records(records),
    ], ids=["recover", "standby", "drill"])
    @pytest.mark.parametrize("record", [
        _genesis(kind="admit"),
        _genesis(journal_schema=2),
        _genesis(drop="processors"),
        _genesis(processors=None),
        _genesis(processors="x"),
        _genesis(processors=0),
    ], ids=[
        "wrong_kind", "wrong_schema", "no_processors", "null_processors",
        "string_processors", "zero_processors",
    ])
    def test_malformed_genesis_is_a_persistence_error(
        self, tmp_path, entry, record
    ):
        with pytest.raises(PersistenceError):
            entry(tmp_path, [record])

    def test_empty_record_list_is_a_service_error(self):
        with pytest.raises(ServiceError):
            controller_from_records([])

    def test_standby_closes_its_journal_when_the_local_replay_fails(
        self, tmp_path
    ):
        """A local journal whose genesis the controller refuses raises from
        the constructor, and the journal it opened is closed, not leaked."""
        path = tmp_path / "standby.jsonl"
        with Journal(path, fsync="off") as journal:
            journal.append(genesis_record(AdmissionController(4)) | {
                "processors": 0,
            })
        gc.collect()  # only this test's garbage below
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(PersistenceError):
                StandbyReplica(path, fsync="off")
            gc.collect()
        assert not [w for w in caught if str(path) in str(w.message)]


# ---------------------------------------------------------------------------
# depart-path + service telemetry surfaces
# ---------------------------------------------------------------------------
class TestServiceTelemetry:
    def test_depart_histogram_and_compaction_counter(self):
        with collecting() as registry:
            controller = AdmissionController(16, repack_on_departure=True)
            for i in range(8):
                controller.admit(low_task(f"d{i}", 0.3))
            controller.admit(high_task("h", width=3))
            for task_id in ("d1", "d3", "h", "d5"):
                controller.depart(task_id)
            snapshot = registry.snapshot()
        histogram = registry.histogram("online.depart_seconds")
        assert histogram.count == 4
        assert registry.counter("online.compaction_freed_processors") >= 1
        assert "online.depart_seconds" in snapshot["histograms"]
        merged = type(registry)(enabled=True)
        merged.merge_snapshot(snapshot)
        assert merged.histogram("online.depart_seconds").count == 4
        prometheus = registry.to_prometheus()
        assert "online_depart_seconds" in prometheus
        assert "online_compaction_freed_processors" in prometheus

    def test_batch_commit_metrics(self, tmp_path):
        with collecting() as registry:
            with Journal(tmp_path / "j.jsonl", fsync="batch") as journal:
                durable = DurableController(AdmissionController(8), journal)
                for i in range(4):
                    durable.admit(low_task(f"m{i}", 0.2))
                journal.sync()
        assert registry.counter("online.journal.group_syncs") >= 1
        assert registry.histogram("online.journal.sync_seconds").count >= 1
