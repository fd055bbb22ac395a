"""Measurement helpers: guarded percentiles, error accounting, and
process CPU / peak-memory readings from ``/proc``."""

from __future__ import annotations

import math
import os
from collections import Counter

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to mean anything."""


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``samples`` and the sample count.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_BEYOND` samples lie above the returned rank, so a "p99"
    over a few dozen samples can never pass for a tail statistic.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return ordered[rank - 1], count


def describe_percentile(samples, q: float) -> str:
    """``p50 12.3 ms (n=320)``, or why it was refused."""
    try:
        value, count = percentile(samples, q)
    except TooFewSamples as refused:
        return f"p{q:g} refused: {refused}"
    return f"p{q:g} {value:.3f} ms (n={count})"


class Tally:
    """Ops attempted and ops failed, by failure kind.

    An op fails when its answer differs from the committed reference,
    when it timed out, or when it raised or came back as an error (an
    ``overloaded`` refusal included).  An op with no reference answer is
    a failure too: the benchmark never grades an answer against a solve
    made during the same run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def record(self, expected, got) -> str | None:
        """Grade one op; returns the failure kind, or ``None`` if it passed.

        ``got`` is the op's answer, the string ``"timeout"``, or an
        exception instance (an error response is passed as one).
        """
        self.attempted += 1
        if isinstance(got, BaseException):
            kind = "error"
        elif got == "timeout":
            kind = "timeout"
        elif expected is None:
            kind = "unreferenced"
        elif got != expected:
            kind = "wrong"
        else:
            return None
        self.fail(kind)
        return kind

    def fail(self, kind: str) -> None:
        """Count one failure that is not an op's answer (a server that
        exits badly or leaves a child running)."""
        self.failures[kind] += 1

    def merge(self, other: dict) -> None:
        """Add another tally, as :meth:`to_json` wrote it, into this one."""
        self.attempted += other["attempted"]
        self.failures.update(other["failures"])

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failures": dict(self.failures)}


# ---------------------------------------------------------------------------
# /proc readings (Linux)
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def proc_children(pid: int) -> list[int]:
    """Direct children of a live process."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(found))


def proc_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"
