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
per point) with one :meth:`~repro.core.engine.VerificationSession.probe_shards`
call.  The ascending sizes are striped over ``min(jobs, len(sizes))``
shards; each shard is walked in ascending order on one warm solver (the
session's own with one worker or one CPU, a rehydrated pool worker's
otherwise), so every probe warm-starts on the clauses learned by the
previous ones.

Every walk is additionally *phase-seeded*: after a deadlocked probe the
next probe's branching phases are initialised from the previous witness's
blocking shape (``seed_phases_from_witness`` in the search, the engine's
walk in a sweep), so each capacity step starts its search at the model
the last step ended on instead of from scratch.

**Invariant modes.**  Both entry points take ``invariants=`` —
``"eager"`` (the default) or ``"none"``, validated by
:func:`~repro.core.engine.eager_invariants`.  Eager conjoins the full
cross-layer invariant set once, before the first probe, on the one
session (a pool's worker snapshot then carries the rows).
``invariants_generated`` records the rows encoded and
``invariants_used`` whether any were.

**Timing split.**  ``query_seconds`` is the time spent inside the probes
(each search probe's ``verify``, or the sweep's one ``probe_shards``
call); ``build_seconds`` is the rest of the call: network construction,
encoding and invariant generation.
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
    for sweeps over a fixed size list that never reaches the boundary and
    for runs whose budget expired.

    ``build_seconds`` / ``query_seconds`` split the call's wall-clock
    between the build phase (network construction, encoding, invariant
    generation) and the solver queries.  ``invariants_generated`` counts
    the invariant rows encoded (the full set under eager mode, none under
    ``"none"``) and ``invariants_used`` says whether any were.
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


def _queue_sizes(network: Network) -> dict[str, int]:
    return {q.name: q.size for q in network.queues()}


def _capacity_only_assignment(
    build: Callable[[int], Network], base: Network
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
        built = build(size)
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
    """The search's probes, one at a time on one warm session.

    The session, opened over ``base_network``, is strengthened up front
    when ``mode`` is ``"eager"``; ``build`` must vary only queue
    capacities relative to it.
    """

    def __init__(
        self,
        build: Callable[[int], Network],
        base_network: Network,
        mode: str,
        deadline: Deadline | None,
    ):
        self.assignment = _capacity_only_assignment(build, base_network)
        self.mode = mode
        self.deadline = deadline
        self.probes: dict[int, bool] = {}
        self.results: dict[int, VerificationResult] = {}
        self.query_seconds = 0.0
        self.session = VerificationSession(base_network)
        # The rows conjoined up front (eager mode); None when none were.
        self.invariants = (
            self.session.add_invariants() if eager_invariants(mode) else None
        )

    def probe(self, size: int) -> bool:
        """Whether ``size`` verifies; raises :class:`_DeadlineExpired`
        (after recording the TIMEOUT result) when the budget runs out."""
        if size not in self.probes:
            session = self.session
            session.resize_queues(self.assignment(size))
            session.seed_phases_from_witness()
            start = perf_counter()
            result = session.verify(deadline=self.deadline)
            self.query_seconds += perf_counter() - start
            self.results[size] = result
            if result.timed_out:
                raise _DeadlineExpired
            self.probes[size] = result.deadlock_free
        return self.probes[size]

    def outcome(
        self, minimal_size: int | None, seconds: float, timed_out: bool = False
    ) -> SizingResult:
        """The result of a search that took ``seconds`` in all."""
        return SizingResult(
            minimal_size=minimal_size,
            probes=self.probes,
            results=self.results,
            build_seconds=seconds - self.query_seconds,
            query_seconds=self.query_seconds,
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
        Optional :class:`~repro.core.resilience.Deadline` (or its wire
        tuple) bounding the *whole search*.  On expiry
        the walk stops and the partial result comes back with
        ``timed_out=True`` and ``minimal_size=None`` — the sizes decided
        in budget stay in ``probes``, and the TIMEOUT probe itself is
        recorded in ``results`` only.
    """
    start = perf_counter()
    eager_invariants(invariants)
    deadline = Deadline.coerce(deadline)
    walk = _Walk(build, build(low), invariants, deadline)
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
            return walk.outcome(None, perf_counter() - start, timed_out=True)
        return walk.outcome(high, perf_counter() - start)


def sweep_queue_sizes(
    build: Callable[[int], Network],
    sizes: Iterable[int],
    jobs: int = 1,
    backend: str = "process",
    want_witness: bool = True,
    invariants: str = "eager",
    deadline=None,
) -> SizingResult:
    """Verdict per queue size over an explicit size list, sharded.

    The Figure-4 *curve*: every size in ``sizes`` is probed (no binary
    search, no monotonicity assumption) and the result records the full
    verdict map.  One session with ``jobs`` workers answers every point
    in one :meth:`~repro.core.engine.VerificationSession.probe_shards`
    call: shard ``w`` probes sizes ``w, w+n, w+2n, ...`` of the ascending
    list, ``n = min(jobs, len(sizes))``, in ascending order on one warm
    solver — the session's own with one worker or one CPU, a pool
    worker's otherwise.

    ``invariants`` is ``"eager"`` or ``"none"``; ``"eager"`` strengthens
    the session first, which bakes the rows into any worker snapshot.
    ``want_witness=False`` extracts no witness from deadlocked probes.

    ``build`` must vary only queue capacities (checked, ``ValueError``),
    as for :func:`minimal_queue_size`.

    ``deadline`` bounds the whole sweep; on expiry every undecided size
    gets a TIMEOUT result in ``results`` and stays absent from
    ``probes``, and the result carries ``timed_out=True``.
    """
    start = perf_counter()
    eager = eager_invariants(invariants)
    deadline = Deadline.coerce(deadline)
    size_list = sorted(set(sizes))
    if not size_list:
        raise ValueError("sweep_queue_sizes() needs at least one size")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    base_network = build(size_list[0])
    assignment = _capacity_only_assignment(build, base_network)
    assignments = {size_list[0]: _queue_sizes(base_network)}
    for size in size_list[1:]:
        assignments[size] = assignment(size)
    stripes = min(jobs, len(size_list))
    shards = [size_list[w::stripes] for w in range(stripes)]
    with VerificationSession(base_network, jobs=jobs, backend=backend) as session:
        rows = session.add_invariants() if eager else []
        query_start = perf_counter()
        shard_results = session.probe_shards(
            [[assignments[size] for size in shard] for shard in shards],
            want_witness=want_witness,
            deadline=deadline,
        )
        query_seconds = perf_counter() - query_start
    by_size = {
        size: result
        for shard, results in zip(shards, shard_results)
        for size, result in zip(shard, results)
    }
    results = {size: by_size[size] for size in size_list}
    # A TIMEOUT result stays undecided: it never enters ``probes``.
    probes = {
        size: result.deadlock_free
        for size, result in results.items()
        if not result.timed_out
    }
    free = [size for size, ok in probes.items() if ok]
    return SizingResult(
        minimal_size=min(free) if free else None,
        probes=probes,
        results=results,
        build_seconds=perf_counter() - start - query_seconds,
        query_seconds=query_seconds,
        invariants_mode=invariants,
        invariants_used=eager,
        invariants_generated=len(rows),
        timed_out=any(result.timed_out for result in results.values()),
    )
