"""``fedcons-serve``: run, follow, query and fire-drill the admission service.

Four subcommands::

    fedcons-serve serve --journal J.jsonl -m 16 [--port P] [--http-port H]
                  [--checkpoint C.json --checkpoint-every N]
                  [--fsync batch] [--max-batch N] [--announce]
                  [--profile OUT.pstats]
        run the primary: an asyncio AdmissionServer over a durable
        controller.  An existing journal is recovered first (oracle-checked
        replay), so restarting the primary resumes its state.  With
        ``--announce`` one JSON readiness line with the bound ports is
        printed to stdout (how the drill and tests find an OS-assigned
        port).

    fedcons-serve standby --journal LOCAL.jsonl --port P [--host H]
                  [--checkpoint C.json --checkpoint-every N]
                  [--snapshot OUT.json] [--no-verify]
        follow a primary as a warm standby: subscribe to its replication
        stream, apply + journal every record, and on primary death promote
        (``recover(verify=True)`` + live-state equality), print the
        failover report and optionally write the promoted snapshot.

    fedcons-serve client (ping|query|metrics|admit TASK.json|depart ID)
                  --port P [--host H]
        one-shot requests against a running primary.

    fedcons-serve drill [--events N] [-m M] [--seed S] [--concurrency C]
                  [--kill-after K] [--workdir DIR]
        the kill-primary fire drill: spawn a primary, attach an in-process
        standby, drive concurrent admissions, SIGKILL the primary mid-load,
        promote the standby and verify the takeover.  Exits non-zero if the
        promoted state is unverifiable or diverges from the primary's
        journal prefix.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tempfile
from pathlib import Path

from repro.errors import ReproError
from repro.obs.metrics import metrics as _metrics
from repro.obs.cli import (
    add_observability_arguments,
    add_telemetry_arguments,
    configure_from_args,
    telemetry_session,
)

__all__ = ["serve_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcons-serve",
        description="Admission-as-a-service: primary, standby, client, drill.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    srv = sub.add_parser("serve", help="run the primary admission server")
    srv.add_argument("--journal", type=Path, required=True, metavar="J.jsonl")
    srv.add_argument("-m", "--processors", type=int, default=16)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=7460,
        help="TCP port for the LDJSON protocol (0 = OS-assigned)",
    )
    srv.add_argument(
        "--http-port", type=int, default=None, metavar="P",
        help="also expose the HTTP shim (/admit /depart /state /metrics) "
        "on this port (0 = OS-assigned)",
    )
    srv.add_argument(
        "--checkpoint", type=Path, default=None, metavar="C.json",
    )
    srv.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="rotate --checkpoint every N committed events (0 = never)",
    )
    srv.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="batch",
        help="journal durability policy; 'batch' = one group fsync per "
        "commit batch (the service default)",
    )
    srv.add_argument(
        "--max-batch", type=int, default=128, metavar="N",
        help="largest number of queued requests coalesced into one commit",
    )
    srv.add_argument(
        "--announce", action="store_true",
        help="print one JSON readiness line with the bound ports",
    )
    srv.add_argument(
        "--profile", type=Path, default=None, metavar="OUT.pstats",
        help="run the server under cProfile and write the stats (pstats "
        "format) to this path on shutdown",
    )
    add_observability_arguments(srv)
    add_telemetry_arguments(srv)

    stb = sub.add_parser("standby", help="follow a primary as a warm standby")
    stb.add_argument("--journal", type=Path, required=True, metavar="L.jsonl")
    stb.add_argument("--host", default="127.0.0.1")
    stb.add_argument("--port", type=int, required=True)
    stb.add_argument("--checkpoint", type=Path, default=None, metavar="C.json")
    stb.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="rotate --checkpoint every N applied records (0 = never)",
    )
    stb.add_argument(
        "--snapshot", type=Path, default=None, metavar="OUT.json",
        help="write the promoted controller's lossless snapshot as JSON",
    )
    stb.add_argument(
        "--no-verify", action="store_true",
        help="skip the recover(verify=True) oracle check on promotion",
    )
    add_observability_arguments(stb)
    add_telemetry_arguments(stb)

    cli = sub.add_parser("client", help="one-shot request against a primary")
    cli.add_argument(
        "request", choices=("ping", "query", "metrics", "admit", "depart"),
    )
    cli.add_argument(
        "argument", nargs="?", default=None,
        help="admit: path to a serialized task JSON; depart: the task id",
    )
    cli.add_argument("--host", default="127.0.0.1")
    cli.add_argument("--port", type=int, required=True)
    add_observability_arguments(cli)

    drl = sub.add_parser("drill", help="kill-primary failover fire drill")
    drl.add_argument("--events", type=int, default=200)
    drl.add_argument("-m", "--processors", type=int, default=16)
    drl.add_argument("--seed", type=int, default=0)
    drl.add_argument("--concurrency", type=int, default=4)
    drl.add_argument(
        "--kill-after", type=int, default=0, metavar="K",
        help="SIGKILL once the standby has applied K records "
        "(0 = as soon as replication is flowing)",
    )
    drl.add_argument(
        "--workdir", type=Path, default=None,
        help="journal scratch directory (default: a temp dir)",
    )
    add_observability_arguments(drl)
    add_telemetry_arguments(drl)
    return parser


async def _serve_async(args: argparse.Namespace) -> int:
    from repro.online.controller import AdmissionController
    from repro.online.persist import DurableController, Journal, recover
    from repro.service.server import AdmissionServer

    if args.journal.exists() and args.journal.stat().st_size > 0:
        controller, report = recover(args.checkpoint, args.journal)
        print(report.describe(), file=sys.stderr)
        if controller.total_processors != args.processors:
            print(
                f"error: recovered state is for m="
                f"{controller.total_processors}, not m={args.processors}",
                file=sys.stderr,
            )
            return 2
    else:
        controller = AdmissionController(args.processors)
    journal = Journal(args.journal, fsync=args.fsync)
    durable = DurableController(
        controller, journal,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    server = AdmissionServer(
        durable,
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        max_batch=args.max_batch,
    )
    await server.start()
    if args.announce:
        print(json.dumps({
            "ready": True,
            "tcp_port": server.tcp_port,
            "http_port": server.http_port,
            "journal": str(args.journal),
        }), flush=True)
    else:
        print(
            f"serving on {args.host}:{server.tcp_port} "
            f"(http: {server.http_port or 'off'}); journal {args.journal} "
            f"[fsync={args.fsync}]",
            file=sys.stderr,
        )
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        if profiler is not None:
            profiler.disable()
    await server.aclose()
    if profiler is not None:
        from repro.io import write_pstats

        try:
            write_pstats(args.profile, profiler)
        except OSError as exc:
            print(f"error: cannot write {args.profile}: {exc}", file=sys.stderr)
            return 2
        print(f"profile written to {args.profile}", file=sys.stderr)
    return 0


async def _standby_async(args: argparse.Namespace) -> int:
    from repro.service.replica import StandbyFollower, StandbyReplica

    replica = StandbyReplica(
        args.journal,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    follower = StandbyFollower(replica, host=args.host, port=args.port)
    print(
        f"standby following {args.host}:{args.port} from record "
        f"{replica.applied}; local journal {args.journal}",
        file=sys.stderr,
    )
    await follower.follow()  # returns when the primary dies
    controller, report = replica.promote(verify=not args.no_verify)
    print(report.describe())
    if args.snapshot is not None:
        from repro.io import atomic_write_text

        atomic_write_text(
            args.snapshot,
            json.dumps(controller.snapshot(), indent=2) + "\n",
        )
        print(f"promoted snapshot written to {args.snapshot}")
    replica.close()
    return 0


def _client(args: argparse.Namespace) -> int:
    from repro.model.serialization import task_from_dict
    from repro.service.client import AdmissionClient

    with AdmissionClient(args.host, args.port) as client:
        if args.request == "ping":
            print("ok" if client.ping() else "unreachable")
            return 0
        if args.request == "query":
            print(json.dumps(client.query(), indent=2))
            return 0
        if args.request == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.request == "admit":
            if args.argument is None:
                print("error: admit needs a task JSON path", file=sys.stderr)
                return 2
            task = task_from_dict(
                json.loads(Path(args.argument).read_text(encoding="utf-8"))
            )
            decision = client.admit(task)
            print(json.dumps({
                "accepted": decision.accepted,
                "task_id": decision.task_id,
                "kind": decision.kind,
                "seq": decision.seq,
                "processors": list(decision.processors),
                "reason": decision.reason,
            }, indent=2))
            return 0 if decision.accepted else 1
        if args.argument is None:
            print("error: depart needs a task id", file=sys.stderr)
            return 2
        receipt = client.depart(args.argument)
        print(json.dumps({
            "task_id": receipt.task_id,
            "kind": receipt.kind,
            "released": list(receipt.released),
            "migrations": receipt.migrations,
            "clean": receipt.clean,
        }, indent=2))
        return 0


def _drill(args: argparse.Namespace) -> int:
    from repro.generation.traces import TraceConfig, generate_trace
    from repro.service.drill import run_drill

    events = generate_trace(
        TraceConfig(events=args.events, processors=args.processors),
        rng=args.seed,
    )
    tasks = [e.task for e in events if e.op == "admit" and e.task is not None]
    with tempfile.TemporaryDirectory() as scratch:
        workdir = args.workdir if args.workdir is not None else Path(scratch)
        report = run_drill(
            tasks,
            workdir,
            processors=args.processors,
            concurrency=args.concurrency,
            kill_after=args.kill_after,
        )
    print(report.describe())
    return 0 if report.verified and report.prefix_consistent else 1


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point for ``fedcons-serve`` (serve/standby/client/drill)."""
    args = _build_parser().parse_args(argv)
    configure_from_args(args)
    if args.command != "client":
        # A live service exports /metrics and the `metrics` op; collection
        # must be on for the exposition to be non-empty even without --prom.
        _metrics.enable()
    try:
        if args.command == "serve":
            with telemetry_session(args):
                return asyncio.run(_serve_async(args))
        if args.command == "standby":
            with telemetry_session(args):
                return asyncio.run(_standby_async(args))
        if args.command == "client":
            return _client(args)
        with telemetry_session(args):
            return _drill(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(serve_main())
