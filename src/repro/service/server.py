"""The asyncio admission front-end: batched commits + replication stream.

:class:`AdmissionServer` turns a
:class:`~repro.online.persist.DurableController` into a long-running
service.  Three moving parts:

* **connection handlers** parse line-delimited-JSON requests
  (:mod:`repro.service.protocol`) and enqueue state-changing ops;
  read-only ops (query/metrics/ping) are answered inline -- the event loop
  serializes them against commits, and the commit loop never awaits
  mid-mutation, so they always observe a batch boundary;
* the single **commit loop** drains the queue into a coalesced batch,
  applies each request in arrival order through
  :meth:`~repro.online.persist.DurableController.admit` or
  :meth:`~repro.online.persist.DurableController.depart`, forces one group
  fsync (:meth:`~repro.online.persist.Journal.sync` -- the batch's
  durability point), streams the newly committed records to every
  replication subscriber, and only then resolves the response futures: *a
  client never sees an acknowledgement for an event that could be lost by
  a crash*;
* **replication subscribers** are ordinary connections switched into
  streaming mode by a ``subscribe`` op, served by the commit loop after
  the batch's fsync.  Each owns one
  :class:`~repro.online.persist.JournalFollower` that reads its backlog and
  then its live stream, so the handoff cannot skip or duplicate a record
  and nothing reads the journal while nobody subscribes; per-subscriber
  :class:`~repro.online.persist.ReplicationCursor` tracks streamed vs
  acknowledged offsets, bounding standby staleness to the in-flight window.

An optional HTTP/1.0 shim exposes the same controller as ``POST /admit``,
``POST /depart``, ``GET /state`` and ``GET /metrics`` (Prometheus text via
:func:`repro.obs.to_prometheus`); admits and departs from HTTP join the
same commit queue, so both transports share batching and durability.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import OnlineError, ReproError, ServiceError
from repro.model.serialization import task_from_dict
from repro.obs import to_prometheus
from repro.obs.events import BatchCommit, current_context
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics as _metrics
from repro.obs.spans import span as _span
from repro.online.persist import (
    DurableController,
    JournalFollower,
    ReplicationCursor,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decision_to_dict,
    decode,
    encode,
    error_response,
    ok_response,
    receipt_to_dict,
)

__all__ = ["AdmissionServer"]

_log = get_logger(__name__)


@dataclass
class _Pending:
    """One state-changing request waiting for the commit loop."""

    op: str  # "admit" | "depart"
    payload: dict
    future: asyncio.Future
    enqueued: float = 0.0


@dataclass
class _Subscribe:
    """A connection asking to become a replication subscriber."""

    start: int
    writer: asyncio.StreamWriter
    future: asyncio.Future
    subscriber: "_Subscriber | None" = None  # set by the commit loop


@dataclass
class _Subscriber:
    """A replication stream: its socket, journal reader and ack cursor."""

    writer: asyncio.StreamWriter
    follower: JournalFollower
    cursor: ReplicationCursor = field(default_factory=ReplicationCursor)


class AdmissionServer:
    """Serve a durable admission controller over TCP (+ optional HTTP).

    The server takes ownership of *durable*'s commit cadence: requests are
    coalesced and the journal is group-fsynced once per batch, so pair it
    with ``Journal(..., fsync="batch")`` for the intended throughput (any
    policy is accepted; ``always`` simply degrades to per-record fsyncs).
    """

    def __init__(
        self,
        durable: DurableController,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: int | None = None,
        max_batch: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self._durable = durable
        self._host = host
        self._port = port
        self._http_port = http_port
        self._max_batch = max_batch
        self._queue: asyncio.Queue = asyncio.Queue()
        self._subscribers: list[_Subscriber] = []
        self._server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._commit_task: asyncio.Task | None = None
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def tcp_port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int | None:
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    @property
    def durable(self) -> DurableController:
        return self._durable

    @property
    def replication_cursors(self) -> list[ReplicationCursor]:
        return [s.cursor for s in self._subscribers]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=MAX_LINE_BYTES,
        )
        if self._http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self._host, self._http_port,
                limit=MAX_LINE_BYTES,
            )
        self._commit_task = asyncio.create_task(self._commit_loop())
        _log.info(
            "admission service listening on %s:%d (http: %s)",
            self._host, self.tcp_port,
            self.http_port if self._http_server else "off",
        )

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        if self._commit_task is not None:
            self._commit_task.cancel()
            try:
                await self._commit_task
            except asyncio.CancelledError:
                pass
        for sub in self._subscribers:
            sub.writer.close()
        self._subscribers.clear()
        self._durable.close()
        self._closed.set()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # the commit loop (sole journal appender)
    # ------------------------------------------------------------------
    async def _commit_loop(self) -> None:
        while True:
            item = await self._queue.get()
            batch: list[Any] = [item]
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._commit_batch(batch)
            except Exception:  # pragma: no cover - defensive: keep serving
                _log.exception("commit batch failed")
                for entry in batch:
                    future = getattr(entry, "future", None)
                    if future is not None and not future.done():
                        future.set_result(
                            error_response("internal", "commit batch failed")
                        )

    def _commit_batch(self, batch: list[Any]) -> None:
        """Apply one coalesced batch: mutate -> group fsync -> stream -> ack.

        Runs synchronously on the event loop (no awaits), so queries never
        observe a half-applied batch and arrival order is commit order.
        Subscriptions are served after the fsync, so a subscriber is only
        ever sent durable records.
        """
        requests = [b for b in batch if isinstance(b, _Pending)]
        with _span("service.commit_batch", size=len(requests)):
            responses = [self._apply(entry) for entry in requests]
            # Group durability point: nothing is streamed or acknowledged
            # before this.
            self._durable.journal.sync()
            self._stream_committed()
            for entry in batch:
                if isinstance(entry, _Subscribe):
                    self._handle_subscribe(entry)
            accepted = sum(
                1 for r in responses
                if r.get("ok") and r.get("decision", {}).get("accepted")
            )
            now = time.perf_counter()
            for entry, response in zip(requests, responses):
                if not entry.future.done():
                    entry.future.set_result(response)
                if _metrics.enabled and entry.enqueued:
                    _metrics.record_time(
                        "service.request_seconds", now - entry.enqueued
                    )
            if _metrics.enabled and requests:
                _metrics.incr("service.batches")
                _metrics.observe("service.batch_size", len(requests))
            ctx = current_context()
            if ctx is not None and requests:
                ctx.record(BatchCommit(
                    size=len(requests),
                    accepted=accepted,
                    synced=self._durable.journal.fsync_policy != "off",
                ))

    def _apply(self, entry: _Pending) -> dict:
        """Parse one request and commit it through the durable controller.

        The controller raises a caller error (an unnamed, duplicate or
        unknown task) before any state change and never journals it, so a
        failed request leaves the rest of its batch alone.
        """
        try:
            if entry.op == "admit":
                task = task_from_dict(entry.payload["task"])
                decision = self._durable.admit(task)
                response = ok_response(
                    "admit", decision=decision_to_dict(decision)
                )
            else:
                receipt = self._durable.depart(entry.payload["task_id"])
                response = ok_response(
                    "depart", receipt=receipt_to_dict(receipt)
                )
        except OnlineError as exc:
            return error_response("online_error", str(exc))
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return error_response("bad_request", str(exc))
        if _metrics.enabled:
            _metrics.incr(f"service.{entry.op}s")
        return response

    def _stream_committed(self) -> None:
        """Send every subscriber the records committed since its last read."""
        dead: list[_Subscriber] = []
        for sub in self._subscribers:
            try:
                for record in sub.follower.poll():
                    sub.writer.write(encode({"record": record}))
                sub.cursor.advance(sub.follower.position)
            except (ConnectionError, RuntimeError):
                dead.append(sub)
        for sub in dead:
            self._subscribers.remove(sub)

    def _handle_subscribe(self, request: _Subscribe) -> None:
        try:
            follower = JournalFollower(
                self._durable.journal.path, start=request.start
            )
            records = follower.poll()
        except ReproError as exc:
            if not request.future.done():
                request.future.set_result(
                    error_response("online_error", str(exc))
                )
            return
        subscriber = _Subscriber(writer=request.writer, follower=follower)
        request.subscriber = subscriber
        # The ack and the backlog must hit the socket in order, before any
        # live broadcast can interleave -- so this loop writes both itself
        # and the connection handler writes nothing for subscribe.
        response = ok_response(
            "subscribe", start=request.start, backlog=len(records)
        )
        request.writer.write(encode(response))
        for record in records:
            request.writer.write(encode({"record": record}))
        subscriber.cursor.advance(follower.position)
        self._subscribers.append(subscriber)
        if _metrics.enabled:
            _metrics.incr("service.subscriptions")
        if not request.future.done():
            request.future.set_result(response)

    # ------------------------------------------------------------------
    # TCP connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection, with request pipelining.

        State-changing requests are enqueued without waiting for their
        commit, and a per-connection responder task writes the responses
        strictly in request order -- so a single client that pipelines N
        admits hands the commit loop a whole batch to coalesce instead of
        one request per round trip.
        """
        subscriber: _Subscriber | None = None
        responses: asyncio.Queue = asyncio.Queue()

        async def _respond() -> None:
            while True:
                item = await responses.get()
                try:
                    if item is None:
                        return
                    response = (await item) if asyncio.isfuture(item) else item
                    if response is not None:
                        writer.write(encode(response))
                        await writer.drain()
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                finally:
                    responses.task_done()

        responder = asyncio.create_task(_respond())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await responses.put(error_response(
                        "bad_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                except ServiceError as exc:
                    await responses.put(
                        error_response("bad_request", str(exc))
                    )
                    continue
                op = request.get("op")
                if op == "ack" and subscriber is not None:
                    try:
                        subscriber.cursor.acknowledge(int(request.get("n", 0)))
                    except (ReproError, TypeError, ValueError) as exc:
                        await responses.put(
                            error_response("bad_request", str(exc))
                        )
                    continue
                if op in ("admit", "depart"):
                    pending = _Pending(
                        op=op, payload=request,
                        future=asyncio.get_running_loop().create_future(),
                        enqueued=time.perf_counter(),
                    )
                    await self._queue.put(pending)
                    await responses.put(pending.future)
                    continue
                if op == "subscribe":
                    # The commit loop writes the ack + backlog directly to
                    # the socket, so every pipelined response must be out
                    # first to keep the stream parseable.
                    await responses.join()
                    response, became = await self._dispatch(request, writer)
                    if became is not None:
                        subscriber = became
                    if response is not None:
                        await responses.put(response)
                    continue
                if op == "query":
                    # Read-your-writes: a pipelined query must observe every
                    # state-changing request that preceded it on this
                    # connection, so let their commits resolve first.
                    await responses.join()
                response, _ = await self._dispatch(request, writer)
                await responses.put(response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await responses.put(None)
            try:
                await responder
            except asyncio.CancelledError:
                pass
            if subscriber is not None and subscriber in self._subscribers:
                self._subscribers.remove(subscriber)
            writer.close()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> tuple[dict | None, _Subscriber | None]:
        op = request.get("op")
        if op == "ping":
            return ok_response("ping"), None
        if op == "metrics":
            return ok_response("metrics", text=to_prometheus()), None
        if op == "query":
            return ok_response("query", state=self._state_summary()), None
        if op in ("admit", "depart"):
            loop = asyncio.get_running_loop()
            pending = _Pending(
                op=op, payload=request, future=loop.create_future(),
                enqueued=time.perf_counter(),
            )
            await self._queue.put(pending)
            return await pending.future, None
        if op == "subscribe":
            loop = asyncio.get_running_loop()
            start = request.get("from", 0)
            if not isinstance(start, int) or start < 0:
                return error_response(
                    "bad_request", "subscribe 'from' must be an int >= 0"
                ), None
            sub_request = _Subscribe(
                start=start, writer=writer, future=loop.create_future()
            )
            await self._queue.put(sub_request)
            response = await sub_request.future
            if response.get("ok"):
                # The commit loop wrote the ack + backlog itself (ordering
                # with live broadcasts); just track the subscriber so this
                # connection's acks reach the right cursor.
                return None, sub_request.subscriber
            return response, None
        return error_response("bad_request", f"unknown op {op!r}"), None

    def _state_summary(self) -> dict:
        controller = self._durable.controller
        return {
            "seq": controller.seq,
            "admitted": controller.admitted_count,
            "admitted_ids": list(controller.admitted_ids),
            "processors": controller.total_processors,
            "dedicated": controller.dedicated_processor_count,
            "shared": controller.shared_processor_count,
            "canonical": controller.canonical,
            "journal_entries": self._durable.journal.entries,
            "fsync_policy": self._durable.journal.fsync_policy,
            "replication": [
                {"streamed": c.streamed, "acked": c.acked, "lag": c.lag}
                for c in self.replication_cursors
            ],
        }

    # ------------------------------------------------------------------
    # HTTP shim
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._http_response(reader)
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii"))
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def _http_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str]:
        request_line = (await reader.readline()).decode("ascii", "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", "text/plain", "malformed request line\n"
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("ascii", "replace")
            if header in ("\r\n", "\n", ""):
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return "400 Bad Request", "text/plain", "bad Content-Length\n"
        if content_length > MAX_LINE_BYTES:
            return "413 Payload Too Large", "text/plain", "body too large\n"
        body = await reader.readexactly(content_length) if content_length else b""

        if method == "GET" and path == "/metrics":
            return (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                to_prometheus(),
            )
        if method == "GET" and path == "/state":
            return (
                "200 OK", "application/json",
                json.dumps(self._state_summary(), indent=2) + "\n",
            )
        if method == "POST" and path in ("/admit", "/depart"):
            try:
                payload = decode(body) if body else {}
            except ServiceError as exc:
                return (
                    "400 Bad Request", "application/json",
                    json.dumps(error_response("bad_request", str(exc))) + "\n",
                )
            op = path.lstrip("/")
            if op == "admit" and "task" not in payload:
                # Allow POSTing the bare serialized task as the body.
                payload = {"task": payload}
            # The path names the op: an "op" key in the body cannot turn
            # the request into another one.
            response, _ = await self._dispatch({**payload, "op": op}, None)
            status = "200 OK" if response.get("ok") else "400 Bad Request"
            return status, "application/json", json.dumps(response) + "\n"
        return "404 Not Found", "text/plain", f"no route {method} {path}\n"
