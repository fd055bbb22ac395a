"""Minimal queue-size search (the Figure 4 experiment).

Deadlock freedom of the case-study networks is monotone in queue size: a
deadlock that exists with larger queues can be replayed with the same
packet placement when queues shrink only if it still fits, while enlarging
queues only adds slack (the paper's Figure 3 argument: the third slot can
not be occupied and therefore breaks the cycle).  The search exploits this:
it climbs ``size += 1 + size // 16`` until a deadlock-free size is found,
then bisects only the last gap, between the largest deadlocked probe and
the first free one.  Up to 16 the climb goes up one size at a time, so
for a minimum of at most 16 deadlock freedom (UNSAT, the expensive
answer) is proved exactly once, at the minimum, and every deadlocked step
seeds the next with its witness (below).  Above 16 the step grows with
the size, so a fabric that deadlocks at every size still fails after a
bounded number of probes (65 at the default ``max_size=512``).

The search runs on one :class:`~repro.core.engine.VerificationSession`,
whose queue capacities are symbolic: the block/idle encoding, the
invariants and every clause the solver learns are shared across all
probed sizes — only the ``cap[q] == size`` assumptions change per
probe.  This assumes ``build(size)`` changes only queue capacities,
never network structure — true of every sweep in this repository (and
of the paper's Figure 4); a builder whose primitive/channel counts or
queue names change with the size is rejected with ``ValueError``.

``minimal_queue_size`` is deliberately defensive: monotonicity is an
assumption about the *model family*, so the result records every probed
size and its verdict, and ``exhaustive=True`` re-checks every size below
the reported minimum that the walk skipped (none when the minimum is at
most 18: the climb probes every size up to 16, the bisection 17).

:func:`sweep_queue_sizes` is the counterpart for the *curve* rather than
the boundary: probe an explicit list of sizes (Figure 4 plots one verdict
per point), in ascending order on one session, or sharded across pool
workers.  Each worker holds one rehydrated session and walks
its shard in ascending order, so every probe warm-starts on the clauses
learned by the previous ones — the same locality the sequential sweep
exploits, multiplied by the worker count.  Per-shard outcomes are
aggregated with :meth:`SizingResult.merge`.

Every walk is additionally *phase-seeded*: after a deadlocked probe the
next probe's branching phases are initialised from the previous witness's
blocking shape (``seed_phases_from_witness`` locally, ``phase_hints`` in
the shard workers), so each capacity step starts its search at the model
the last step ended on instead of from scratch.

**Invariant modes.**  Both entry points take ``invariants=`` —
``"eager"`` (the default) or ``"none"``, validated by
:func:`~repro.core.engine.eager_invariants`.  Eager conjoins the full
cross-layer invariant set once, before the first probe: on the walk's
session, or on the ``jobs > 1`` session of a sharded sweep, whose
worker snapshot then carries the rows.  ``invariants_generated`` records the
rows encoded and ``invariants_used`` whether any were.

**Timing split.**  Results separate ``build_seconds`` (network
construction, encoding, invariant generation) from ``query_seconds``
(solver time across probes) so experiment aggregation can attribute
wall-clock to the right phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

from ..xmas import Network
from .engine import VerificationSession, eager_invariants
from .resilience import Deadline
from .result import VerificationResult

__all__ = [
    "SizingResult",
    "minimal_queue_size",
    "sweep_queue_sizes",
]


# The climb's step is ``1 + size // _CLIMB_DIVISOR``: one size at a time
# up to the divisor, then a step that grows with the size.
_CLIMB_DIVISOR = 16


class _DeadlineExpired(Exception):
    """Internal control flow: a probe answered TIMEOUT; abort the walk."""


@dataclass
class SizingResult:
    """Outcome of a queue-size search or sweep.

    ``minimal_size`` is ``None`` when no probed size verified — possible
    for shard-level partial results (see :meth:`merge`) and for sweeps
    over a fixed size list that never reaches the boundary.

    ``build_seconds`` / ``query_seconds`` split the wall-clock between the
    build phase (network construction, encoding, invariant generation) and
    the solver queries.  ``invariants_generated`` counts the invariant
    rows encoded (the full set under eager mode, none under ``"none"``)
    and ``invariants_used`` says whether any were.
    """

    minimal_size: int | None
    probes: dict[int, bool] = field(default_factory=dict)  # size -> deadlock-free?
    results: dict[int, VerificationResult] = field(default_factory=dict)
    build_seconds: float = 0.0
    query_seconds: float = 0.0
    invariants_mode: str = "eager"
    invariants_used: bool = True
    invariants_generated: int = 0
    # True when a run budget expired before the search/sweep completed:
    # ``probes`` then holds only the sizes decided in budget (TIMEOUT
    # probes appear in ``results`` but never in ``probes``), and a
    # search's ``minimal_size`` is ``None`` (unconfirmed).
    timed_out: bool = False

    def pretty(self) -> str:
        probed = ", ".join(
            f"{size}:{'free' if free else 'deadlock'}"
            for size, free in sorted(self.probes.items())
        )
        if self.minimal_size is None:
            return f"no deadlock-free queue size probed ({probed})"
        return f"minimal deadlock-free queue size = {self.minimal_size} ({probed})"

    @classmethod
    def merge(cls, parts: Iterable["SizingResult"]) -> "SizingResult":
        """Aggregate shard-level results into one.

        Probe maps are unioned (a size probed by two shards must agree —
        verdicts are semantically determined) and the minimal size is
        recomputed from the union, so partial shards with
        ``minimal_size=None`` merge cleanly.  Timing splits and
        ``invariants_generated`` are summed; ``invariants_used`` holds if
        any part used them.
        """
        probes: dict[int, bool] = {}
        results: dict[int, VerificationResult] = {}
        build_s = query_s = 0.0
        mode: str | None = None
        used = False
        generated = 0
        timed_out = False
        for part in parts:
            for size, free in part.probes.items():
                if size in probes and probes[size] != free:
                    raise ValueError(
                        f"conflicting verdicts for queue size {size} "
                        "across merged SizingResults"
                    )
                probes[size] = free
            results.update(part.results)
            build_s += part.build_seconds
            query_s += part.query_seconds
            mode = part.invariants_mode if mode is None else mode
            used = used or part.invariants_used
            generated += part.invariants_generated
            timed_out = timed_out or part.timed_out
        free_sizes = [size for size, free in probes.items() if free]
        return cls(
            minimal_size=min(free_sizes) if free_sizes else None,
            probes=probes,
            results=results,
            build_seconds=build_s,
            query_seconds=query_s,
            invariants_mode=mode or "eager",
            invariants_used=used,
            invariants_generated=generated,
            timed_out=timed_out,
        )


class _SplitTimer:
    """Accumulates the build/query wall-clock split."""

    def __init__(self) -> None:
        self.build = 0.0
        self.query = 0.0

    def timed(self, bucket: str, thunk: Callable):
        start = perf_counter()
        try:
            return thunk()
        finally:
            elapsed = perf_counter() - start
            if bucket == "build":
                self.build += elapsed
            else:
                self.query += elapsed


def _queue_sizes(network: Network) -> dict[str, int]:
    return {q.name: q.size for q in network.queues()}


def _capacity_only_assignment(
    build: Callable[[int], Network], base: Network, timer: _SplitTimer
) -> Callable[[int], dict[str, int]]:
    """``size -> per-queue sizes of build(size)``, guarding that the
    builder varies only queue capacities relative to ``base``.

    Resizing to what ``build(size)`` *actually* produces keeps builders
    that pin some queues.  Same-count rewires remain the caller's
    responsibility.
    """
    base_stats = base.stats()
    base_queues = {q.name for q in base.queues()}

    def assignment(size: int) -> dict[str, int]:
        built = timer.timed("build", lambda: build(size))
        if (
            built.stats() != base_stats
            or {q.name for q in built.queues()} != base_queues
        ):
            raise ValueError(
                "build(size) changed network structure, not just queue "
                "capacities; queue sizing needs a capacity-only builder"
            )
        return _queue_sizes(built)

    return assignment


class _Walk:
    """Probes queue sizes one at a time on one warm session.

    The session, opened over ``base_network``, is a
    :class:`VerificationSession`, strengthened up front when ``mode`` is
    ``"eager"``.  ``assignment`` maps a size to the per-queue sizes to
    probe.
    """

    def __init__(
        self,
        base_network: Network,
        assignment: Callable[[int], dict[str, int]],
        mode: str,
        timer: _SplitTimer,
        deadline: Deadline | None,
        verify_kwargs: dict,
    ):
        self.assignment = assignment
        self.mode = mode
        # The rows conjoined up front (eager mode); None when none were.
        self.invariants: list | None = None
        self.timer = timer
        self.deadline = deadline
        self.probes: dict[int, bool] = {}
        self.results: dict[int, VerificationResult] = {}
        self.session = timer.timed(
            "build",
            lambda: VerificationSession(base_network, **verify_kwargs),
        )
        if eager_invariants(mode):
            self.invariants = timer.timed("build", self.session.add_invariants)

    def probe(self, size: int) -> bool:
        """Whether ``size`` verifies; raises :class:`_DeadlineExpired`
        (after recording the TIMEOUT result) when the budget runs out."""
        if size not in self.probes:
            session = self.session
            session.resize_queues(self.assignment(size))
            session.seed_phases_from_witness()
            result = self.timer.timed(
                "query", lambda: session.verify(deadline=self.deadline)
            )
            self.results[size] = result
            if result.timed_out:
                raise _DeadlineExpired
            self.probes[size] = result.deadlock_free
        return self.probes[size]

    def outcome(
        self, minimal_size: int | None, timed_out: bool = False
    ) -> SizingResult:
        return SizingResult(
            minimal_size=minimal_size,
            probes=self.probes,
            results=self.results,
            build_seconds=self.timer.build,
            query_seconds=self.timer.query,
            invariants_mode=self.mode,
            invariants_used=self.invariants is not None,
            invariants_generated=len(self.invariants or ()),
            timed_out=timed_out,
        )


def minimal_queue_size(
    build: Callable[[int], Network],
    low: int = 1,
    max_size: int = 512,
    exhaustive: bool = False,
    invariants: str = "eager",
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Smallest uniform queue size for which ``build(size)`` verifies.

    The walk climbs from ``low`` by ``1 + size // 16`` to the first
    deadlock-free size, then bisects the gap above the largest deadlocked
    probe, so a minimum of at most 16 is the only size proved free.

    Parameters
    ----------
    build:
        Constructs the network with every queue sized to the argument;
        it must vary only queue capacities (checked, ``ValueError``).
    low:
        Smallest size to consider.
    max_size:
        Upper limit of the climb; the next climb step exceeding it ⇒
        ``RuntimeError``.  The probe count of a climb that never finds
        a free size grows with the logarithm of ``max_size`` above 16:
        65 probes from size 1 at the default 512.
    exhaustive:
        Verify every size in ``[low, found)`` is deadlocked rather than
        trusting monotonicity.  A no-op when the minimum is at most 18:
        the walk has probed every smaller size already.
    invariants:
        ``"eager"`` or ``"none"`` — see the module docstring.
    deadline:
        Optional :class:`~repro.core.resilience.Deadline` (or bare
        seconds / a wire tuple) bounding the *whole search*.  On expiry
        the walk stops and the partial result comes back with
        ``timed_out=True`` and ``minimal_size=None`` — the sizes decided
        in budget stay in ``probes``, and the TIMEOUT probe itself is
        recorded in ``results`` only.
    verify_kwargs:
        Forwarded to :class:`~repro.core.engine.VerificationSession`
        (``rotating_precision``, ``clause_reduction``, ``reduction_opts``).
    """
    eager_invariants(invariants)
    deadline = Deadline.coerce(deadline)
    timer = _SplitTimer()
    base_network = timer.timed("build", lambda: build(low))
    walk = _Walk(
        base_network,
        _capacity_only_assignment(build, base_network, timer),
        invariants,
        timer,
        deadline,
        verify_kwargs,
    )
    with walk.session:
        try:
            # Gentle climb to the first deadlock-free size.
            size = low_bound = low
            while not walk.probe(size):
                low_bound = size + 1
                size += 1 + size // _CLIMB_DIVISOR
                if size > max_size:
                    raise RuntimeError(
                        f"no deadlock-free size found up to {max_size}; "
                        "the deadlock may be size-independent"
                    )
            # Binary search in (largest deadlocked, first free].
            high = size
            while low_bound < high:
                middle = (low_bound + high) // 2
                if walk.probe(middle):
                    high = middle
                else:
                    low_bound = middle + 1
            if exhaustive:
                for candidate in range(low, high):
                    if walk.probe(candidate):
                        raise AssertionError(
                            f"monotonicity violated: size {candidate} "
                            f"verifies but binary search reported {high}"
                        )
        except _DeadlineExpired:
            # The budget ran out mid-walk: return what was decided in
            # budget as a partial result instead of an answer we cannot
            # stand behind (an unconfirmed minimum from a truncated search
            # would be worse than none).
            return walk.outcome(None, timed_out=True)
        return walk.outcome(high)


def sweep_queue_sizes(
    build: Callable[[int], Network],
    sizes: Iterable[int],
    jobs: int = 1,
    backend: str = "process",
    want_witness: bool = True,
    invariants: str = "eager",
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Verdict per queue size over an explicit size list, sharded.

    The Figure-4 *curve*: every size in ``sizes`` is probed (no binary
    search, no monotonicity assumption) and the result records the full
    verdict map.  With ``jobs == 1`` the sizes are walked in ascending
    order on one session, exactly as
    :func:`minimal_queue_size` probes them.  With ``jobs > 1`` the points
    are striped across pool workers — worker ``w`` probes sizes ``w,
    w+jobs, w+2*jobs, ...`` of the ascending list, in ascending order, on
    its own rehydrated session (warm-start within the shard).
    Per-shard :class:`SizingResult`\\ s are aggregated with
    :meth:`SizingResult.merge`.

    ``invariants`` is ``"eager"`` or ``"none"``; across a pool,
    ``"eager"`` strengthens the sharding session first, which bakes the
    rows into the worker snapshot.

    ``build`` must vary only queue capacities (checked, ``ValueError``),
    as for :func:`minimal_queue_size`.  ``verify_kwargs`` forwards
    ``rotating_precision`` / ``clause_reduction`` / ``reduction_opts``.

    ``deadline`` bounds the whole sweep; on expiry the undecided sizes
    are simply absent from ``probes`` (their TIMEOUT results stay in
    ``results``) and the result carries ``timed_out=True``.
    """
    eager = eager_invariants(invariants)
    deadline = Deadline.coerce(deadline)
    size_list = sorted(set(sizes))
    if not size_list:
        raise ValueError("sweep_queue_sizes() needs at least one size")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    timer = _SplitTimer()
    base_network = timer.timed("build", lambda: build(size_list[0]))
    assignment = _capacity_only_assignment(build, base_network, timer)
    assignments = {size_list[0]: _queue_sizes(base_network)}
    for size in size_list[1:]:
        assignments[size] = assignment(size)

    if jobs == 1:
        walk = _Walk(
            base_network,
            assignments.__getitem__,
            invariants,
            timer,
            deadline,
            verify_kwargs,
        )
        with walk.session:
            timed_out = False
            try:
                for size in size_list:
                    walk.probe(size)
            except _DeadlineExpired:
                timed_out = True
            if not want_witness:
                # Match the pool path's payload shape: the session always
                # extracts on SAT, so drop it afterwards.
                for result in walk.results.values():
                    result.witness = None
            free = [size for size, ok in walk.probes.items() if ok]
            return walk.outcome(min(free) if free else None, timed_out)

    # Sharded: striped shards, ascending within each.  Eager mode
    # strengthens the session first, so the rows ride the worker
    # snapshot.
    session = timer.timed(
        "build",
        lambda: VerificationSession(
            base_network,
            jobs=jobs,
            backend=backend,
            **verify_kwargs,
        ),
    )
    with session:
        generated = (
            len(timer.timed("build", session.add_invariants)) if eager else 0
        )
        shard_sizes = [size_list[w::jobs] for w in range(jobs)]
        shard_sizes = [shard for shard in shard_sizes if shard]
        shard_results = timer.timed(
            "query",
            lambda: session.probe_shards(
                [[assignments[size] for size in shard] for shard in shard_sizes],
                want_witness=want_witness,
                deadline=deadline,
            ),
        )
    parts = []
    for shard, results_list in zip(shard_sizes, shard_results):
        part = SizingResult(minimal_size=None)
        for size, result in zip(shard, results_list):
            part.results[size] = result
            if result.timed_out:
                # The shard's budget expired at this probe: keep the
                # TIMEOUT result but no boolean verdict (the size stays
                # undecided) and mark the part partial.
                part.timed_out = True
            else:
                part.probes[size] = result.deadlock_free
        parts.append(part)
    merged = SizingResult.merge(parts)
    merged.invariants_mode = invariants
    merged.invariants_used = eager
    merged.invariants_generated = generated
    merged.build_seconds = timer.build
    merged.query_seconds = timer.query
    return merged
