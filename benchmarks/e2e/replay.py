"""In-process replay of a live run's journal, timed layer by layer.

The server answers each request by running, in order: wire decode
(``protocol.decode``), task parse (``task_from_dict``), the controller's
``admit``/``depart``, the journal append, one group fsync per commit batch
(``Journal.sync``) and the response encode.  This module replays the
committed journal's request order through exactly those calls, in one
process, and times each call from the benchmark's own code -- spans inside
the program are not used.  The same loop runs once untimed, so the ratio
of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.model.serialization import task_from_dict
from repro.obs.metrics import collecting
from repro.online.controller import HIGH_DENSITY, AdmissionController
from repro.online.persist import (
    Journal,
    admit_record,
    depart_record,
    genesis_record,
)
from repro.service.protocol import (
    decision_to_dict,
    decode,
    encode,
    ok_response,
    receipt_to_dict,
)

#: Layer names, in call order.
LAYERS = (
    "protocol.decode",
    "serialization.parse",
    "controller.admit_low",
    "controller.admit_high",
    "controller.depart",
    "journal.append",
    "journal.sync",
    "protocol.encode",
)


@dataclass
class Replay:
    """What one replay pass measured."""

    wall_s: float
    mismatches: int
    samples: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    migrations: int = 0
    accepted: int = 0
    admits: int = 0
    high_admits: int = 0
    departs: int = 0


def request_lines(records: list[dict]) -> list[tuple[dict, bytes]]:
    """Each journal record with the request line a client sent for it."""
    lines = []
    for record in records[1:]:
        if record["kind"] == "admit":
            message = {"op": "admit", "task": record["task"]}
        else:
            message = {"op": "depart", "task_id": record["id"]}
        lines.append((record, encode(message)))
    return lines


def replay(
    genesis: dict,
    items: list[tuple[dict, bytes]],
    journal_path: Path,
    batch: int,
    traced: bool,
) -> Replay:
    """Replay *items* into a fresh controller and journal.

    Syncs the journal every *batch* requests, like the server's group
    commit.  With *traced* set every call is timed; either way the metrics
    registry is on, as it is in the live server.  Each decision is compared
    with the journal record it replays; differences count as mismatches.
    """
    controller = AdmissionController(
        int(genesis["processors"]),
        ls_order=str(genesis["ls_order"]),
        repack_on_departure=bool(genesis["repack_on_departure"]),
    )
    samples: dict[str, list[float]] = defaultdict(list)
    result = Replay(wall_s=0.0, mismatches=0)
    clock = time.perf_counter
    with collecting() as registry, Journal(journal_path, fsync="batch") as journal:
        journal.append(genesis_record(controller))
        started = clock()
        for index, (record, line) in enumerate(items, 1):
            t0 = clock() if traced else 0.0
            message = decode(line)
            if traced:
                t1 = clock()
                samples["protocol.decode"].append(t1 - t0)
            if record["kind"] == "admit":
                task = task_from_dict(message["task"])
                if traced:
                    t2 = clock()
                    samples["serialization.parse"].append(t2 - t1)
                    t1 = t2
                decision = controller.admit(task)
                if traced:
                    t2 = clock()
                    high = decision.kind == HIGH_DENSITY
                    layer = "admit_high" if high else "admit_low"
                    samples["controller." + layer].append(t2 - t1)
                journal.append(admit_record(task, decision))
            else:
                receipt = controller.depart(message["task_id"])
                if traced:
                    t2 = clock()
                    samples["controller.depart"].append(t2 - t1)
                journal.append(depart_record(receipt))
            if traced:
                t3 = clock()
                samples["journal.append"].append(t3 - t2)
            if index % batch == 0 or index == len(items):
                journal.sync()
                if traced:
                    t4 = clock()
                    samples["journal.sync"].append(t4 - t3)
                    t3 = t4
            if record["kind"] == "admit":
                encode(ok_response("admit", decision=decision_to_dict(decision)))
            else:
                encode(ok_response("depart", receipt=receipt_to_dict(receipt)))
            if traced:
                samples["protocol.encode"].append(clock() - t3)
            if record["kind"] == "admit":
                result.mismatches += (
                    record["accepted"], record["decided"], record["processors"]
                ) != (decision.accepted, decision.kind, list(decision.processors))
                result.admits += 1
                result.accepted += decision.accepted
                result.high_admits += decision.kind == HIGH_DENSITY
            else:
                result.mismatches += (
                    record["decided"], record["released"],
                    record["migrations"], record["clean"],
                ) != (
                    receipt.kind, list(receipt.released),
                    receipt.migrations, receipt.clean,
                )
                result.departs += 1
                result.migrations += receipt.migrations
        result.wall_s = clock() - started
        result.counters = registry.snapshot()["counters"]
    result.samples = dict(samples)
    return result
