"""Fault tolerance for the execution stack: deadlines, retries, fault injection.

The orchestration layers built on top of the incremental engine —
:mod:`repro.core.parallel` (query pools), :mod:`repro.core.experiments`
(scenario grids) and :mod:`repro.core.service` — all assume a healthy
machine: workers never die and solves never wedge.  This module supplies
the primitives that drop that assumption without touching verdicts:

* :class:`Deadline` — a run budget (wall-clock seconds and/or a conflict
  budget) riding the solver's cooperative-cancellation hooks
  (``Cdcl.solve(conflict_limit=..., should_stop=...)``), so an expired
  query returns a first-class ``TIMEOUT`` verdict with its solver stats
  retained instead of hanging.  Deadlines cross process boundaries as
  plain ``(remaining_seconds, remaining_conflicts)`` tuples
  (:meth:`Deadline.to_wire`), so a worker enforces the *remaining*
  budget locally.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter, shared by every recovery loop (pool rebuilds, scenario
  retries).  The recovery paths catch
  :class:`concurrent.futures.BrokenExecutor` and replay from the same
  :class:`~repro.core.engine.SessionSnapshot`, which is why recovered
  verdicts stay byte-identical.
* :class:`FaultPlan` / :func:`maybe_inject` — a deterministic fault
  injection harness.  A plan is a comma-separated list of
  ``site:action@N`` triggers (fire ``action`` on the ``N``-th arrival at
  ``site`` *in a given process*), installed programmatically
  (:func:`install_fault_plan`) or via the ``ADVOCAT_FAULTS`` environment
  variable, which child processes inherit under both fork and spawn.
  The orchestration layers call ``maybe_inject(site)`` at explicit
  injection points; the chaos suite (``tests/core/test_resilience.py``)
  drives every action through them.

Injection sites and actions
---------------------------

===================  =======================================================
site                 where
===================  =======================================================
``query-worker``     :func:`repro.core.parallel._run_job` (pool worker,
                     once per job)
``parallel-pool``    :meth:`VerificationSession._fan_out` (parent, once per
                     pooled fan-out attempt)
``scenario-worker``  :func:`repro.core.experiments.run_scenario` (once per
                     scenario)
``builder``          :meth:`ScenarioSpec.build` (once per network build)
``service-worker``   :mod:`repro.core.server` size-search job (once per
                     size search)
``service-builder``  :mod:`repro.core.server` build-tier job (once per
                     cold build)
===================  =======================================================

Actions: ``kill`` (``os._exit`` — a hard worker crash; downgraded to
``raise`` in the plan's owner process so an injected kill can never take
down the test runner), ``raise`` (:exc:`InjectedFault`), ``break``
(:class:`~concurrent.futures.BrokenExecutor` — a simulated pool break),
``delay`` (a short sleep, then proceed normally).

A plan may carry a *latch directory*: each trigger then fires at most
once **globally** (across every process), via an atomically created
marker file — the knob that turns "every fresh worker dies on its first
task" (the quarantine drill) into "exactly one worker dies, once" (the
recovery drill).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "Deadline",
    "RetryPolicy",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "install_fault_plan",
    "active_fault_plan",
    "maybe_inject",
    "ENV_FAULTS",
    "ENV_FAULT_LATCH",
    "ENV_FAULT_PID",
]

ENV_FAULTS = "ADVOCAT_FAULTS"
ENV_FAULT_LATCH = "ADVOCAT_FAULT_LATCH"
ENV_FAULT_PID = "ADVOCAT_FAULT_PID"

#: How long an injected ``delay`` sleeps before proceeding normally.
DELAY_SECONDS = 0.2

#: The exit code of an injected ``kill`` (recognisable in reaped children).
KILL_EXIT_CODE = 17


# ---------------------------------------------------------------------------
# Typed faults
# ---------------------------------------------------------------------------


class InjectedFault(RuntimeError):
    """Raised by an injected ``raise`` action (and by a ``kill`` that
    fires in the plan's owner process, where ``os._exit`` is unsafe)."""


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


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
        ``None``, a :class:`Deadline`, a wire tuple, or bare seconds."""
        if value is None or isinstance(value, Deadline):
            return value
        if isinstance(value, (int, float)):
            return cls(seconds=value)
        return cls.from_wire(tuple(value))

    def __repr__(self) -> str:
        return (
            f"Deadline(seconds={self.seconds}, conflicts={self.conflicts}, "
            f"elapsed={self.elapsed():.3f}, spent={self._spent})"
        )


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` (0-based) is
    ``min(max_delay, base_delay * backoff**attempt)`` scaled by a
    deterministic jitter factor in ``[1, 1 + jitter]`` derived from
    ``(seed, attempt)`` — no global RNG state, so retry schedules are
    reproducible.  ``max_attempts`` bounds how often a recovery loop
    replays before it quarantines the work (runs it inline).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        base = min(self.max_delay, self.base_delay * self.backoff**attempt)
        # splitmix64-style hash of (seed, attempt) -> jitter in [0, 1).
        mask = (1 << 64) - 1
        x = (self.seed * 0x9E3779B97F4A7C15 + (attempt + 1)) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        fraction = ((x ^ (x >> 31)) % 10_000) / 10_000.0
        return base * (1.0 + self.jitter * fraction)

    def sleep(self, attempt: int) -> float:
        """Back off before retry number ``attempt + 1``; returns the delay."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        return delay


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

_ACTIONS = ("kill", "raise", "break", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: fire ``action`` on the ``at``-th arrival at ``site``
    (counted per process; with a latched plan, at most once globally)."""

    site: str
    action: str
    at: int = 1

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(known: {', '.join(_ACTIONS)})"
            )
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")

    def describe(self) -> str:
        return f"{self.site}:{self.action}@{self.at}"


class FaultPlan:
    """A deterministic set of :class:`FaultSpec` triggers.

    Per-site hit counters live in the plan object, i.e. *per process*
    (fork children copy the parent's counters at fork time; spawn
    children re-parse the plan from the environment with fresh
    counters).  ``latch_dir`` makes every trigger once-globally: the
    first process to fire it creates a marker file atomically and every
    later arrival — in any process — skips it.

    ``owner_pid`` protects the installing process: a ``kill`` firing
    there is downgraded to :exc:`InjectedFault` so a mis-scoped plan can
    never ``os._exit`` the test runner.
    """

    def __init__(
        self,
        specs,
        latch_dir: str | None = None,
        owner_pid: int | None = None,
    ):
        self.specs = tuple(specs)
        self.latch_dir = latch_dir
        self.owner_pid = owner_pid
        self._hits: dict[str, int] = {}

    @classmethod
    def parse(
        cls,
        text: str,
        latch_dir: str | None = None,
        owner_pid: int | None = None,
    ) -> "FaultPlan":
        """Parse ``"site:action@N,site:action"`` (``@N`` defaults to 1)."""
        specs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, rest = chunk.partition(":")
            if not rest:
                raise ValueError(
                    f"malformed fault trigger {chunk!r} "
                    "(expected site:action[@N])"
                )
            action, _, at = rest.partition("@")
            specs.append(
                FaultSpec(
                    site=site.strip(),
                    action=action.strip(),
                    at=int(at) if at else 1,
                )
            )
        return cls(specs, latch_dir=latch_dir, owner_pid=owner_pid)

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)

    def hits(self, site: str) -> int:
        return self._hits.get(site, 0)

    def _acquire_latch(self, spec: FaultSpec) -> bool:
        if self.latch_dir is None:
            return True
        marker = os.path.join(
            self.latch_dir, f"{spec.site}-{spec.action}-{spec.at}"
        )
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire(self, site: str) -> str | None:
        """Count one arrival at ``site``; the triggered action or ``None``."""
        self._hits[site] = count = self._hits.get(site, 0) + 1
        for spec in self.specs:
            if spec.site == site and spec.at == count:
                if self._acquire_latch(spec):
                    return spec.action
        return None


_PLAN: FaultPlan | None = None
_PLAN_LOADED = False


def install_fault_plan(
    plan: "FaultPlan | str | None", latch_dir: str | None = None
) -> FaultPlan | None:
    """Install ``plan`` in this process *and* the environment.

    The environment copy (``ADVOCAT_FAULTS`` + latch/owner-pid
    companions) is what child processes inherit — under fork *and*
    spawn — so one installation covers the whole process tree.  The
    installing process is recorded as the plan's owner (``kill`` is
    downgraded there).  ``install_fault_plan(None)`` clears everything.
    """
    global _PLAN, _PLAN_LOADED
    if plan is None:
        _PLAN = None
        _PLAN_LOADED = True
        for key in (ENV_FAULTS, ENV_FAULT_LATCH, ENV_FAULT_PID):
            os.environ.pop(key, None)
        return None
    if isinstance(plan, str):
        plan = FaultPlan.parse(
            plan, latch_dir=latch_dir, owner_pid=os.getpid()
        )
    else:
        if latch_dir is not None:
            plan.latch_dir = latch_dir
        if plan.owner_pid is None:
            plan.owner_pid = os.getpid()
    _PLAN = plan
    _PLAN_LOADED = True
    os.environ[ENV_FAULTS] = plan.describe()
    if plan.latch_dir is not None:
        os.environ[ENV_FAULT_LATCH] = plan.latch_dir
    else:
        os.environ.pop(ENV_FAULT_LATCH, None)
    if plan.owner_pid is not None:
        os.environ[ENV_FAULT_PID] = str(plan.owner_pid)
    else:
        os.environ.pop(ENV_FAULT_PID, None)
    return plan


def active_fault_plan() -> FaultPlan | None:
    """The installed plan, lazily parsed from the environment if needed
    (how spawn-started workers pick up the parent's installation)."""
    global _PLAN, _PLAN_LOADED
    if not _PLAN_LOADED:
        text = os.environ.get(ENV_FAULTS)
        if text:
            pid = os.environ.get(ENV_FAULT_PID)
            _PLAN = FaultPlan.parse(
                text,
                latch_dir=os.environ.get(ENV_FAULT_LATCH),
                owner_pid=int(pid) if pid else None,
            )
        _PLAN_LOADED = True
    return _PLAN


def maybe_inject(site: str) -> str | None:
    """One injection point: no-op without a plan (one dict lookup).

    Executes ``kill``/``raise``/``break`` directly; returns ``"delay"``
    after its sleep.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    action = plan.fire(site)
    if action is None:
        return None
    if action == "kill":
        if plan.owner_pid is not None and os.getpid() == plan.owner_pid:
            raise InjectedFault(
                f"injected kill at {site!r} (downgraded to raise in the "
                "plan's owner process)"
            )
        os._exit(KILL_EXIT_CODE)
    if action == "raise":
        raise InjectedFault(f"injected fault at {site!r}")
    if action == "break":
        from concurrent.futures import BrokenExecutor

        raise BrokenExecutor(f"injected pool break at {site!r}")
    time.sleep(DELAY_SECONDS)
    return action

