"""Machine-speed reference: report times in reference-machine units.

Small shared machines change speed by up to 2x over seconds to minutes as
other tenants come and go, and each virtual CPU drifts on its own.  A
fixed, stdlib-only Python workload run on the same CPU as the measured work
tracks that drift: on the reference machine the ratio of FEDCONS analysis
time to this workload's time stayed within +-4% while both raw times moved
by 2x.  Dividing a measured time by the *slowdown* (workload time /
:data:`REFERENCE_S`) gives the time the same work takes at the reference
machine's speed.  The workload runs no code of the program, so a change to
the program moves the reported numbers exactly as it moves the raw ones.

Two ways to measure the slowdown:

* :func:`slowdown` runs the workload in the calling process, for work that
  runs there too (the batch analysis, the in-process replay);
* :class:`Spinner` runs it in an idle-priority process pinned to one CPU
  for the length of a phase, for work of another process on that CPU (the
  server).  An idle-priority process only gets a CPU nobody else wants, so
  it samples the CPU's speed in the gaps of the measured work without
  delaying it.

Run as ``python speed.py CPU`` this module is one spinner.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

#: Median workload time on the reference machine (2 vCPUs, unloaded).
REFERENCE_S = 1.4e-3
#: A CPU that has just been idle runs the first milliseconds up to 2x
#: slower; :func:`slowdown` spins this long before it starts timing.
WARM_UP_S = 0.02

_rng = random.Random(0)
_DOCUMENT = {
    "tasks": [
        {
            "id": f"t{i}",
            "wcets": {str(j): _rng.random() for j in range(20)},
            "edges": [[j, j + 1] for j in range(19)],
        }
        for i in range(40)
    ]
}
_TEXT = json.dumps(_DOCUMENT)


def _workload() -> float:
    document = json.loads(_TEXT)
    table = {}
    for task in document["tasks"]:
        for key, value in task["wcets"].items():
            table[task["id"], key] = value * 2.0
    json.dumps(document)
    return sorted(table.values())[len(table) // 2]


def slowdown() -> float:
    """How much slower than the reference machine this CPU runs right now:
    the median of seven timed workload runs after a warm-up."""
    warm_until = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < warm_until:
        _workload()
    times = []
    for _ in range(7):
        started = time.perf_counter()
        _workload()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_S


class Spinner:
    """An idle-priority workload loop pinned to *cpu* while the block runs.

    After the block, :attr:`slowdown` is the mean slowdown over the CPU
    time the spinner got (1.0 if it got none).
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.slowdown = 1.0
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "Spinner":
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        # Start-up runs at normal priority; wait until the spinner is
        # pinned and idle-priority before the measured block begins.
        self._process.stdout.readline()
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.send_signal(signal.SIGTERM)
        output, _ = self._process.communicate(timeout=30)
        iterations, seconds = output.split()
        if int(iterations):
            self.slowdown = float(seconds) / int(iterations) / REFERENCE_S


def _spin(cpu: int) -> None:
    """Loop the workload on *cpu* at idle priority until SIGTERM, then print
    ``iterations cpu_seconds``; a first line says the loop has started."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    print("spinning", flush=True)
    iterations = 0
    started = time.thread_time()
    while not stopped:
        _workload()
        iterations += 1
    print(iterations, time.thread_time() - started, flush=True)


if __name__ == "__main__":
    _spin(int(sys.argv[1]))
