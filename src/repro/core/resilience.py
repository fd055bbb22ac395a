"""Run budgets for the query stack: :class:`Deadline`.

A :class:`Deadline` is a wall-clock budget riding the solver's
cooperative-cancellation hook (``Solver.check(should_stop=...)``), so an
expired query returns a first-class ``TIMEOUT`` verdict with its solver
stats retained instead of hanging.  A deadline pickles as the seconds it
has left, so a worker process enforces the *remaining* budget on its own
clock.

Recovery from a dead pool worker lives with the pools that need it: a
:class:`concurrent.futures.BrokenExecutor` makes the session fan-out,
the scenario scheduler and the service rebuild their pool and replay
the same jobs at most :data:`repro.core.parallel.POOL_ATTEMPTS` times.
"""

from __future__ import annotations

import time

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget of ``seconds``, starting at construction.

    :meth:`should_stop` is the zero-argument callable handed to
    ``Solver.check(should_stop=...)``: one ``time.monotonic`` call per
    propagate cycle.  Deadlines never raise on expiry; the query layers
    translate an expired deadline into a ``TIMEOUT``
    :class:`~repro.core.result.VerificationResult`.

    Pickling sends the seconds left, and unpickling starts a new clock
    with them: a deadline shipped to a worker process is re-anchored
    there, because the two processes' monotonic clocks are not
    comparable.
    """

    __slots__ = ("seconds", "_start")

    def __init__(self, seconds: float):
        # ``not >=`` also rejects NaN, which every comparison fails.
        if not seconds >= 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.seconds = float(seconds)
        self._start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining_seconds(self) -> float:
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        return self.elapsed() >= self.seconds

    def should_stop(self) -> bool:
        """Hot-path poll; pass as ``should_stop=``."""
        return time.monotonic() - self._start >= self.seconds

    def __reduce__(self):
        return (Deadline, (self.remaining_seconds(),))

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds}, elapsed={self.elapsed():.3f})"
