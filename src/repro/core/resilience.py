"""Run budgets for the query stack: :class:`Deadline`.

A :class:`Deadline` is a wall-clock and/or conflict budget riding the
solver's cooperative-cancellation hooks
(``Cdcl.solve(conflict_limit=..., should_stop=...)``), so an expired
query returns a first-class ``TIMEOUT`` verdict with its solver stats
retained instead of hanging.  Deadlines cross process boundaries as
plain ``(remaining_seconds, remaining_conflicts)`` tuples
(:meth:`Deadline.to_wire`), so a worker enforces the *remaining* budget
locally.

Recovery from a dead pool worker lives with the pools that need it: a
:class:`concurrent.futures.BrokenExecutor` makes the session fan-out,
the scenario scheduler and the service rebuild their pool and replay
the same jobs at most :data:`repro.core.parallel.POOL_ATTEMPTS` times.
"""

from __future__ import annotations

import time

__all__ = ["Deadline"]


class Deadline:
    """A run budget: wall-clock seconds and/or a total conflict budget.

    The wall clock starts at construction.  The conflict budget is
    *cumulative*: callers :meth:`charge` each query's conflict delta, and
    :meth:`remaining_conflicts` becomes the next query's
    ``conflict_limit``.  :meth:`should_stop` is the zero-argument
    callable handed to ``Solver.check(should_stop=...)`` — it polls the
    wall clock only (the conflict side is enforced by the limit), so the
    hot-path cost is one ``time.monotonic`` call per propagate cycle.

    Deadlines never raise on expiry; the query layers translate an
    expired deadline into a ``TIMEOUT``
    :class:`~repro.core.result.VerificationResult`.  To ship a deadline
    to a worker process, send :meth:`to_wire` (the *remaining* budget as
    plain data) and rebuild with :meth:`from_wire` — the worker then
    enforces the remainder on its own clock.
    """

    __slots__ = ("seconds", "conflicts", "_start", "_spent")

    def __init__(
        self, seconds: float | None = None, conflicts: int | None = None
    ):
        if seconds is None and conflicts is None:
            raise ValueError(
                "Deadline needs at least one bound (seconds or conflicts)"
            )
        if seconds is not None and seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if conflicts is not None and conflicts < 0:
            raise ValueError(f"conflicts must be >= 0, got {conflicts}")
        self.seconds = None if seconds is None else float(seconds)
        self.conflicts = None if conflicts is None else int(conflicts)
        self._start = time.monotonic()
        self._spent = 0

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining_seconds(self) -> float | None:
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    def remaining_conflicts(self) -> int | None:
        if self.conflicts is None:
            return None
        return max(0, self.conflicts - self._spent)

    def charge(self, conflicts: int) -> None:
        """Record ``conflicts`` spent against the conflict budget."""
        self._spent += max(0, int(conflicts))

    def expired(self) -> bool:
        if self.seconds is not None and self.elapsed() >= self.seconds:
            return True
        return self.conflicts is not None and self._spent >= self.conflicts

    def should_stop(self) -> bool:
        """Hot-path poll (wall clock only); pass as ``should_stop=``."""
        return (
            self.seconds is not None
            and time.monotonic() - self._start >= self.seconds
        )

    # -- process-boundary plumbing --------------------------------------
    def to_wire(self) -> tuple[float | None, int | None]:
        """The *remaining* budget as plain data (pickle/JSON-safe)."""
        return (self.remaining_seconds(), self.remaining_conflicts())

    @classmethod
    def from_wire(cls, wire) -> "Deadline | None":
        if wire is None:
            return None
        seconds, conflicts = wire
        return cls(seconds=seconds, conflicts=conflicts)

    @classmethod
    def coerce(cls, value) -> "Deadline | None":
        """Normalise the deadline arguments the plumbing accepts:
        ``None``, a :class:`Deadline` or a wire tuple."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls.from_wire(tuple(value))

    def __repr__(self) -> str:
        return (
            f"Deadline(seconds={self.seconds}, conflicts={self.conflicts}, "
            f"elapsed={self.elapsed():.3f}, spent={self._spent})"
        )
