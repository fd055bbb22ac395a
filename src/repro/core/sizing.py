"""Minimal queue-size search (the Figure 4 experiment).

Deadlock freedom of the case-study networks is monotone in queue size: a
deadlock that exists with larger queues can be replayed with the same
packet placement when queues shrink only if it still fits, while enlarging
queues only adds slack (the paper's Figure 3 argument: the third slot can
not be occupied and therefore breaks the cycle).  The search exploits this:
exponential climb until a deadlock-free size is found, then binary search
for the boundary.

The search runs on one :class:`~repro.core.engine.VerificationSession` with
*parametric* queue capacities: the block/idle encoding, the invariants and
every clause the solver learns are shared across all probed sizes — only
the ``cap[q] == size`` assumptions change per probe.  This assumes
``build(size)`` changes only queue capacities, never network structure —
true of every sweep in this repository (and of the paper's Figure 4); a
builder whose primitive/channel counts or queue names change with the size
is rejected with ``ValueError``.

``minimal_queue_size`` is deliberately defensive: monotonicity is an
assumption about the *model family*, so the result records every probed
size and its verdict, and ``exhaustive=True`` re-checks every size below
the reported minimum.

:func:`sweep_queue_sizes` is the counterpart for the *curve* rather than
the boundary: probe an explicit list of sizes (Figure 4 plots one verdict
per point), in ascending order on one session, or sharded across pool
workers.  Each worker holds one rehydrated parametric session and walks
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
``"eager"`` (the default), ``"lazy"``, ``"partial"`` or ``"none"`` — and
hand it to one :class:`~repro.core.engine.Strengthening`, the policy that
decides when the cross-layer invariants are conjoined and records the
selection ablation (``invariants_used``, ``lazy_escalations``,
``invariants_generated``, ``rank_histogram``) per scenario.  A sharded
sweep runs the same policy inside each pool worker: lazy and partial
workers escalate at their own surviving candidates, in one pass over the
sizes, and the per-probe accounting the workers report is summed.

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
from .engine import Strengthening, VerificationSession
from .invariants import InvariantSelector
from .resilience import Deadline
from .result import VerificationResult

__all__ = [
    "SizingResult",
    "minimal_queue_size",
    "sweep_queue_sizes",
]


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
    the solver queries; ``invariants_used`` and ``lazy_escalations`` record
    the invariant-mode ablation (see the module docstring).
    ``lazy_escalations`` counts escalation steps — probes re-answered
    under a strengthened encoding — *under this schedule*: a lazy walk
    strengthens at its first surviving candidate (at most 1 per session,
    so a pool sweep reports the sum over its workers, at most one per
    shard), and a partial walk counts every CEGAR refinement step, again
    summed over the workers of a pool — verdicts are identical in every
    case.  ``invariants_generated`` counts the invariant rows actually
    encoded (eager: the full set once; escalated lazy: the full set per
    escalating session; partial: the selected subset; schedule-dependent,
    summed across workers and across shards by :meth:`merge`) and
    ``rank_histogram`` buckets those rows by static-rank tier (partial
    mode only).
    """

    minimal_size: int | None
    probes: dict[int, bool] = field(default_factory=dict)  # size -> deadlock-free?
    results: dict[int, VerificationResult] = field(default_factory=dict)
    build_seconds: float = 0.0
    query_seconds: float = 0.0
    invariants_mode: str = "eager"
    invariants_used: bool = True
    lazy_escalations: int = 0
    invariants_generated: int = 0
    rank_histogram: dict[int, int] = field(default_factory=dict)
    # Portfolio racing (strategy name -> races won); empty unless the
    # search ran through a PortfolioSession.  ``portfolio_races`` counts
    # the races behind those wins, so win *rates* survive aggregation.
    strategy_wins: dict[str, int] = field(default_factory=dict)
    portfolio_races: int = 0
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
        ``minimal_size=None`` merge cleanly.  Timing splits are summed;
        the invariant-mode ablation fields aggregate conservatively
        (``invariants_used`` if any part used them).
        """
        probes: dict[int, bool] = {}
        results: dict[int, VerificationResult] = {}
        build_s = query_s = 0.0
        mode: str | None = None
        used = False
        escalations = 0
        generated = 0
        histogram: dict[int, int] = {}
        wins: dict[str, int] = {}
        races = 0
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
            escalations += part.lazy_escalations
            generated += part.invariants_generated
            for tier, count in part.rank_histogram.items():
                histogram[tier] = histogram.get(tier, 0) + count
            for name, count in part.strategy_wins.items():
                wins[name] = wins.get(name, 0) + count
            races += part.portfolio_races
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
            lazy_escalations=escalations,
            invariants_generated=generated,
            rank_histogram=histogram,
            strategy_wins=wins,
            portfolio_races=races,
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


def _accounting(policy: Strengthening) -> dict:
    """A policy's selection ablation as :class:`SizingResult` fields."""
    return {
        "invariants_used": policy.invariants_used,
        "lazy_escalations": policy.lazy_escalations,
        "invariants_generated": policy.invariants_generated,
        "rank_histogram": dict(policy.rank_histogram),
    }


class _Walk:
    """Probes queue sizes one at a time on one warm session.

    The session, opened over ``base_network``, is a parametric
    :class:`VerificationSession` under ``strengthening`` or, with
    ``portfolio``, a :class:`~repro.core.portfolio.PortfolioSession`,
    whose racers strengthen per strategy.  ``assignment`` maps a size to
    the per-queue sizes to probe.
    """

    def __init__(
        self,
        base_network: Network,
        assignment: Callable[[int], dict[str, int]],
        strengthening: Strengthening,
        timer: _SplitTimer,
        deadline: Deadline | None,
        verify_kwargs: dict,
        portfolio: bool = False,
        racer_jobs: int | None = None,
        lead: str | None = None,
    ):
        self.assignment = assignment
        self.mode = strengthening.mode
        self.policy = strengthening
        self.timer = timer
        self.deadline = deadline
        self.portfolio = portfolio
        self.probes: dict[int, bool] = {}
        self.results: dict[int, VerificationResult] = {}
        if portfolio:
            from .portfolio import PortfolioSession

            self.policy = Strengthening("none")
            self.session = timer.timed(
                "build",
                lambda: PortfolioSession(
                    network=base_network,
                    jobs=racer_jobs,
                    lead=lead,
                    max_splits=verify_kwargs.get("max_splits", 100_000),
                ),
            )
        else:
            self.session = timer.timed(
                "build",
                lambda: VerificationSession(
                    base_network, parametric_queues=True, **verify_kwargs
                ),
            )
        self.policy.prepare(self.session)

    def _ask(self) -> VerificationResult:
        return self.timer.timed(
            "query", lambda: self.session.verify(deadline=self.deadline)
        )

    def probe(self, size: int) -> bool:
        """Whether ``size`` verifies; raises :class:`_DeadlineExpired`
        (after recording the TIMEOUT result) when the budget runs out."""
        if size not in self.probes:
            session = self.session
            session.resize_queues(self.assignment(size))
            session.seed_phases_from_witness()
            before = self.policy.counters()
            result = self.policy.settle(session, self._ask(), self._ask)
            result.stats["invariant_selection"] = InvariantSelector.counters_delta(
                self.policy.counters(), before
            )
            self.results[size] = result
            if result.timed_out:
                raise _DeadlineExpired
            self.probes[size] = result.deadlock_free
        return self.probes[size]

    def outcome(
        self, minimal_size: int | None, timed_out: bool = False
    ) -> SizingResult:
        result = SizingResult(
            minimal_size=minimal_size,
            probes=self.probes,
            results=self.results,
            build_seconds=self.timer.build + self.policy.seconds,
            query_seconds=self.timer.query,
            invariants_mode=self.mode,
            timed_out=timed_out,
            **_accounting(self.policy),
        )
        if self.portfolio:
            result.invariants_used = True
            result.invariants_generated = self.session.invariants_generated
            result.strategy_wins = dict(self.session.strategy_wins)
            result.portfolio_races = self.session.races
        return result


def minimal_queue_size(
    build: Callable[[int], Network],
    low: int = 1,
    max_size: int = 512,
    exhaustive: bool = False,
    invariants: str = "eager",
    rank_budget: int | None = None,
    rank_growth: int | None = None,
    portfolio: bool = False,
    portfolio_jobs: int | None = None,
    portfolio_lead: str | None = None,
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Smallest uniform queue size for which ``build(size)`` verifies.

    Parameters
    ----------
    build:
        Constructs the network with every queue sized to the argument;
        it must vary only queue capacities (checked, ``ValueError``).
    low:
        Smallest size to consider.
    max_size:
        Upper limit of the exponential climb; exceeded ⇒ ``RuntimeError``.
    exhaustive:
        Verify every size in ``[low, found)`` is deadlocked rather than
        trusting monotonicity.
    invariants:
        ``"eager"`` / ``"lazy"`` / ``"partial"`` / ``"none"`` — see the
        module docstring and :class:`~repro.core.engine.Strengthening`.
    rank_budget, rank_growth:
        Partial-mode escalation schedule: the first batch size and the
        per-step growth factor
        (:class:`~repro.core.invariants.InvariantSelector` defaults).
    portfolio:
        Answer every probe through one persistent
        :class:`~repro.core.portfolio.PortfolioSession` racing the
        strategy roster (eager/lazy/partial + variants) with shared
        clauses — verdicts identical to eager, wall-clock tracks the best
        strategy per probe.  ``invariants`` is ignored (the roster spans
        the modes).  ``portfolio_jobs`` caps concurrent racers
        (``ADVOCAT_JOBS``/CPU budget otherwise) and ``portfolio_lead``
        names the strategy to race first (the experiment scheduler passes
        its learned per-family leader).  The result's ``strategy_wins``
        records who won each probe.
    deadline:
        Optional :class:`~repro.core.resilience.Deadline` (or bare
        seconds / a wire tuple) bounding the *whole search*.  On expiry
        the walk stops and the partial result comes back with
        ``timed_out=True`` and ``minimal_size=None`` — the sizes decided
        in budget stay in ``probes``, and the TIMEOUT probe itself is
        recorded in ``results`` only.
    verify_kwargs:
        Forwarded to :class:`~repro.core.engine.VerificationSession`
        (``rotating_precision``, ``max_splits``).
    """
    strengthening = Strengthening(invariants, rank_budget, rank_growth)
    deadline = Deadline.coerce(deadline)
    timer = _SplitTimer()
    base_network = timer.timed("build", lambda: build(low))
    walk = _Walk(
        base_network,
        _capacity_only_assignment(build, base_network, timer),
        strengthening,
        timer,
        deadline,
        verify_kwargs,
        portfolio=portfolio,
        racer_jobs=portfolio_jobs,
        lead=portfolio_lead,
    )
    with walk.session:
        try:
            # Exponential climb to the first deadlock-free size.
            size = low
            while not walk.probe(size):
                size *= 2
                if size > max_size:
                    raise RuntimeError(
                        f"no deadlock-free size found up to {max_size}; "
                        "the deadlock may be size-independent"
                    )
            # Binary search in (last deadlocked, first free].
            high = size
            low_bound = max(low, size // 2)
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
    rank_budget: int | None = None,
    rank_growth: int | None = None,
    portfolio: bool = False,
    portfolio_lead: str | None = None,
    deadline=None,
    **verify_kwargs,
) -> SizingResult:
    """Verdict per queue size over an explicit size list, sharded.

    The Figure-4 *curve*: every size in ``sizes`` is probed (no binary
    search, no monotonicity assumption) and the result records the full
    verdict map.  With ``jobs == 1`` the sizes are walked in ascending
    order on one parametric session, exactly as
    :func:`minimal_queue_size` probes them.  With ``jobs > 1`` the points
    are striped across pool workers — worker ``w`` probes sizes ``w,
    w+jobs, w+2*jobs, ...`` of the ascending list, in ascending order, on
    its own rehydrated parametric session (warm-start within the shard).
    Per-shard :class:`SizingResult`\\ s are aggregated with
    :meth:`SizingResult.merge`.

    ``invariants`` selects the :class:`~repro.core.engine.Strengthening`
    mode.  Across a pool every worker settles its probes under its own
    policy of that mode: ``"eager"`` bakes the rows into the pool
    snapshot, while ``"lazy"`` and ``"partial"`` ship the ranked rows
    inside it and each worker escalates locally at its own surviving
    candidates (``rank_budget`` / ``rank_growth`` shape the partial
    schedule) — verdict-identical to eager mode, in one pass.

    ``portfolio=True`` walks the size list sequentially through one
    persistent :class:`~repro.core.portfolio.PortfolioSession` instead of
    sharding sizes across workers: the parallelism budget (``jobs``,
    routed through :func:`~repro.core.portfolio.racer_budget`) goes to
    concurrent *racers* per probe rather than concurrent probes, and the
    racers stay warm across the ascending walk.  ``invariants`` is
    ignored (the roster spans the modes); ``strategy_wins`` records the
    per-probe winners.

    ``build`` must vary only queue capacities (checked, ``ValueError``),
    as for :func:`minimal_queue_size`.  ``verify_kwargs`` forwards
    ``rotating_precision`` / ``max_splits``.

    ``deadline`` bounds the whole sweep; on expiry the undecided sizes
    are simply absent from ``probes`` (their TIMEOUT results stay in
    ``results``) and the result carries ``timed_out=True``.
    """
    strengthening = Strengthening(invariants, rank_budget, rank_growth)
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

    if portfolio or jobs == 1:
        walk = _Walk(
            base_network,
            assignments.__getitem__,
            strengthening,
            timer,
            deadline,
            verify_kwargs,
            portfolio=portfolio,
            racer_jobs=jobs,
            lead=portfolio_lead,
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

    # Sharded: striped shards, ascending within each.  The policy is
    # prepared on the pool session (eager: the rows are baked into the
    # worker snapshot) and every worker settles its probes under a copy
    # of it; the per-probe accounting the workers report sums on top.
    from .parallel import ParallelVerificationSession

    session = timer.timed(
        "build",
        lambda: ParallelVerificationSession(
            base_network,
            jobs=jobs,
            backend=backend,
            parametric_queues=True,
            **verify_kwargs,
        ),
    )
    with session:
        strengthening.prepare(session)
        shard_sizes = [size_list[w::jobs] for w in range(jobs)]
        shard_sizes = [shard for shard in shard_sizes if shard]
        shard_results = timer.timed(
            "query",
            lambda: session.probe_shards(
                [[assignments[size] for size in shard] for shard in shard_sizes],
                want_witness=want_witness,
                strengthening=strengthening,
                deadline=deadline,
            ),
        )
    parts = [SizingResult(minimal_size=None, **_accounting(strengthening))]
    for shard, results_list in zip(shard_sizes, shard_results):
        part = SizingResult(minimal_size=None)
        for size, result in zip(shard, results_list):
            part.results[size] = result
            selection = result.stats["invariant_selection"]
            part.invariants_generated += selection["invariants_generated"]
            part.lazy_escalations += selection["escalations"]
            for tier, count in selection["rank_histogram"].items():
                part.rank_histogram[tier] = part.rank_histogram.get(tier, 0) + count
            if result.timed_out:
                # The shard's budget expired at this probe: keep the
                # TIMEOUT result but no boolean verdict (the size stays
                # undecided) and mark the part partial.
                part.timed_out = True
            else:
                part.probes[size] = result.deadlock_free
        part.invariants_used = part.invariants_generated > 0
        parts.append(part)
    merged = SizingResult.merge(parts)
    merged.invariants_mode = strengthening.mode
    merged.build_seconds = timer.build + strengthening.seconds
    merged.query_seconds = timer.query
    return merged
