"""Machine-speed gauge: corrects measured times for the host's speed.

On a shared host the same work takes from one to two times as long,
depending on what other tenants run; the speed switches within seconds
and drifts over minutes.  While a round runs, an interval timer
interrupts each of its processes every ``INTERVAL_S`` and times one pass
of a fixed pure-Python loop, so the passes sample the host's speed all
through the round.  Scaling a phase's times by ``REFERENCE_S`` over the
interquartile mean of the passes made during it gives times at a fixed
reference speed, which compare across runs made while the host ran at
different speeds.

Only passes of a busy process count: one that used at least half of the
last interval's CPU.  A pass that wakes an idle process runs on cold
caches and says more about waking than about speed.  The interquartile
mean leaves out passes that lost the CPU partway.

The loop lives here, not in the program, so no change to the program
changes the gauge.  One pass takes under 0.1 ms, under 0.5% of the time.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter, process_time

#: Seconds between two passes.
INTERVAL_S = 0.02
#: Mean seconds of one pass at the reference speed: the usual speed of
#: the 2-vCPU x86 container the benchmark was built on.
REFERENCE_S = 80e-6


def _pass(slots: list[int]) -> None:
    acc = 1
    for i in range(400):
        acc = (acc * 31 + i) & 0xFFFF
        slots[i & 63] = acc


class Gauge:
    """The passes of one process: ``(start, seconds)`` pairs, with
    ``start`` on the system-wide monotonic clock ``perf_counter`` reads,
    so passes of different processes share one time line."""

    def __init__(self, dump_dir: str | os.PathLike) -> None:
        self.dump_dir = Path(dump_dir)
        self.passes: list[tuple[float, float]] = []
        self._cpu = 0.0
        self._slots = [0] * 64  # the loop's only store: allocated once

    def _tick(self, _signum, _frame) -> None:
        cpu = process_time()
        busy = cpu - self._cpu >= INTERVAL_S / 2
        self._cpu = cpu
        if busy:
            start = perf_counter()
            _pass(self._slots)
            self.passes.append((start, perf_counter() - start))

    def start(self) -> "Gauge":
        """Start ticking in this process and in every process it forks
        later (the service's pool worker); each dumps at exit."""
        self._restart()
        mp_util.register_after_fork(self, Gauge._after_fork)
        return self

    def _restart(self) -> None:
        self._cpu = process_time()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _after_fork(self) -> None:
        self.passes = []
        self._restart()
        mp_util.Finalize(None, self.stop, exitpriority=100)

    def stop(self) -> None:
        """Stop ticking and write the passes to ``<dump_dir>/<pid>.json``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.passes))


def load_passes(dump_dir: str | os.PathLike) -> list[tuple[float, float]]:
    """Every pass the processes of one round dumped into ``dump_dir``."""
    passes: list[tuple[float, float]] = []
    for path in sorted(Path(dump_dir).glob("*.json")):
        passes.extend(tuple(item) for item in json.loads(path.read_text()))
    return passes


def speed_factor(passes, start: float, end: float) -> float:
    """The factor that scales times measured between ``start`` and
    ``end`` to the reference speed (1.0 when no pass fell in between)."""
    inside = sorted(seconds for at, seconds in passes if start <= at <= end)
    if not inside:
        return 1.0
    quarter = len(inside) // 4
    return REFERENCE_S / statistics.fmean(inside[quarter:len(inside) - quarter])
