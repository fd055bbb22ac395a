"""Clause-sharing portfolio racing of eager search strategies.

:class:`PortfolioSession` races several search configurations of the one
eager encoding on each query — the ManySAT recipe applied to ADVOCAT's
queries:

* N **racers** rehydrate :class:`~repro.core.parallel.WorkerSession`\\ s
  from one shared cold :class:`~repro.core.engine.SessionSnapshot` with
  the full invariant set baked in, and each applies one
  :class:`StrategyConfig`: re-tuned clause-lifecycle knobs or a
  jittered phase vector;
* every racer runs in bounded **slices**
  (``Cdcl.solve(conflict_limit=..., should_stop=...)`` → UNKNOWN, all
  learning retained), importing peer clauses between slices;
* the **first verdict wins**; losers are cancelled cooperatively and stop
  within one propagate cycle of the ``should_stop`` event firing.

Soundness of the clause exchange
--------------------------------

All racers restore from the *same* base snapshot, so variable numbering
agrees for every variable the snapshot minted (``var ≤ base_n_vars``).
Variables minted after restoration — capacity pins, branch-and-bound
splits — are trajectory-local, so exports are filtered to clauses over
base variables only (and :meth:`Cdcl.import_learned` independently
rejects anything above the importer's numbering).

Every clause a racer learns over base variables is a consequence of
``base ∧ invariants ∧ LIA-valid lemmas``, the formula every racer
holds, so importing it into any racer preserves verdicts: each racer
answers exactly as a sequential eager session does.  The ``"none"``
invariant mode is deliberately *not* a portfolio strategy — its verdicts
diverge from eager on spurious candidates, which would break the
byte-identity contract.

Backends
--------

``"process"`` races concurrently: each racer is a slice-serving child
process, the parent pipelines one outstanding slice per racer,
redistributes fresh clause exports, and flips per-racer cancel events
the moment a verdict lands.  ``"inline"`` round-robins slices through
in-process racers deterministically — the automatic fallback on one CPU
or ``jobs=1`` (where a pool cannot win), and the reproducible mode tests
rely on.  Racer counts route through :func:`racer_budget` →
``ADVOCAT_JOBS``/:func:`~repro.core.parallel.default_jobs`, so a
portfolio nested under scenario workers never oversubscribes the
machine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from queue import Empty
from time import perf_counter
from typing import Mapping, Sequence

from ..xmas import Network
from .engine import SessionSnapshot, SessionSpec, resolve_resize
from .parallel import (
    Target,
    WorkerSession,
    _process_context,
    default_jobs,
)
from .resilience import (
    Deadline,
    RetryPolicy,
    WorkerCrashError,
    WorkerHangError,
    drain_queue,
    maybe_inject,
    reap_process,
)
from .result import VerificationResult

__all__ = [
    "StrategyConfig",
    "PortfolioSession",
    "default_strategies",
    "racer_budget",
]


@dataclass(frozen=True)
class StrategyConfig:
    """One racer's search tuning over the shared eager snapshot.

    ``reduction_overrides`` re-tunes the restored solver's
    clause-lifecycle knobs and ``phase_seed`` deterministically jitters
    the saved phase vector — both diversify search trajectories without
    touching verdicts.
    """

    name: str
    reduction_overrides: Mapping | None = None
    phase_seed: int | None = None


def default_strategies(
    limit: int | None = None, lead: str | None = None
) -> tuple[StrategyConfig, ...]:
    """The stock racer roster, optionally trimmed and re-led.

    Plain eager first, then the diversity variants.  ``limit`` trims
    from the tail; ``lead`` moves the named strategy to the front (the
    scheduler's learned per-family leader gets the first inline slice).
    """
    roster = [
        StrategyConfig("eager"),
        StrategyConfig("eager-jitter", phase_seed=0x9E3779B9),
        StrategyConfig(
            "eager-hoard",
            reduction_overrides={"reduce_base": 2000, "glue_keep": 3},
        ),
    ]
    roster = _lead_first(roster, lead)
    if limit is not None:
        roster = roster[: max(1, limit)]
    return tuple(roster)


def _lead_first(roster, lead: str | None) -> list[StrategyConfig]:
    """``roster`` with the strategy named ``lead`` moved to the front
    (a stable sort: the others keep their order; no match, no change)."""
    return sorted(roster, key=lambda strategy: strategy.name != lead)


def racer_budget(n_strategies: int, jobs: int | None = None) -> int:
    """How many racers a portfolio may run concurrently.

    Routed through the same precedence as every pool in the repo: an
    explicit ``jobs`` beats ``ADVOCAT_JOBS`` beats the CPU count
    (:func:`~repro.core.parallel.default_jobs`).  A portfolio nested
    under N scenario workers therefore respects the machine-wide budget
    whenever the caller hands it its
    :func:`~repro.core.parallel.nested_jobs` share.
    """
    if n_strategies < 1:
        raise ValueError(f"n_strategies must be >= 1, got {n_strategies}")
    want = jobs if jobs is not None else default_jobs()
    if want < 1:
        raise ValueError(f"jobs must be >= 1, got {want}")
    return min(n_strategies, want)


class Racer:
    """One strategy's query engine over the shared base snapshot.

    Wraps a :class:`WorkerSession` restored with the strategy's tuning,
    plus the clause-exchange bookkeeping: exports are filtered to
    base-numbering clauses and deduplicated both ways so a clause never
    ping-pongs between peers.
    """

    def __init__(self, snapshot: SessionSnapshot, strategy: StrategyConfig):
        self.strategy = strategy
        overrides = (
            dict(strategy.reduction_overrides)
            if strategy.reduction_overrides
            else None
        )
        self.worker = WorkerSession(snapshot, reduction_overrides=overrides)
        self.base_n_vars = snapshot.solver.n_vars
        self._shared: set[frozenset] = set()
        if strategy.phase_seed is not None:
            self._jitter_phases(strategy.phase_seed)

    def _jitter_phases(self, seed: int) -> None:
        # Deterministic LCG walk flipping ~half the saved phases: same
        # verdicts, different early search neighbourhood.  phase_hints({})
        # flushes the CNF image first so the vector is full-length.
        solver = self.worker.solver
        solver.phase_hints({})
        phases = list(solver.saved_phases())
        state = (seed & 0x7FFFFFFF) or 1
        for index in range(len(phases)):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            if state & 0x10000:
                phases[index] = not phases[index]
        solver.seed_phases(phases)

    # ------------------------------------------------------------------
    def slice(
        self,
        target: Target,
        sizes,
        want_witness: bool,
        conflict_limit: int | None,
        should_stop=None,
    ) -> tuple[bool, tuple]:
        """Run one bounded slice; returns ``(final, payload)``.

        ``final=False`` means the slice expired (payload kind
        ``"unknown"``); the caller should exchange clauses and re-slice.
        """
        payload = self.worker.check(
            target,
            sizes,
            want_witness,
            conflict_limit=conflict_limit,
            should_stop=should_stop,
        )
        return payload[0] != "unknown", payload

    # ------------------------------------------------------------------
    def export_clauses(
        self, cap: int, max_lbd: int
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Fresh glue-capped learned clauses over the *base* numbering.

        Clauses touching variables this racer minted post-restore
        (capacity pins, splits) are skipped — peer
        numberings diverge there, and the exchange soundness argument
        (module docstring) only covers the shared base image.
        """
        base_n = self.base_n_vars
        fresh = []
        for lbd, lits in self.worker.solver.learned_clauses(max_lbd=max_lbd):
            if any(abs(lit) > base_n for lit in lits):
                continue
            key = frozenset(lits)
            if key in self._shared:
                continue
            self._shared.add(key)
            fresh.append((lbd, tuple(lits)))
            if len(fresh) >= cap:
                break
        return tuple(fresh)

    def import_clauses(self, clauses: Sequence) -> int:
        if not clauses:
            return 0
        for _, lits in clauses:
            self._shared.add(frozenset(lits))
        solver = self.worker.solver
        return solver.import_learned(
            clauses, demote_to=solver._sat.glue_keep + 1
        )

    def summary(self) -> dict:
        """Cumulative per-racer counters for the race report."""
        stats = self.worker.solver._sat.stats
        return {
            "strategy": self.strategy.name,
            "conflicts": stats["conflicts"],
            "learned": stats["learned"],
            "conflict_limit_hits": stats["conflict_limit_hits"],
            "cancelled": stats["cancelled"],
            "imported_rounds": stats["imported_rounds"],
        }


def _racer_main(
    snapshot,
    strategy,
    index,
    inbox,
    outbox,
    cancel_event,
    exchange_cap,
    exchange_lbd,
):
    """Child-process slice server (process backend).

    Serves ``("slice", seq, target, sizes, want_witness, limit, imports)``
    commands until ``("quit",)``.  The cancel event doubles as the
    in-slice ``should_stop`` poll, so a loser dies mid-slice within one
    propagate cycle of the parent flipping it.
    """
    try:
        racer = Racer(snapshot, strategy)
        while True:
            command = inbox.get()
            if command[0] == "quit":
                break
            # Fault-injection point: a kill exits this child hard, a
            # drop swallows the slice (the parent observes a hang), a
            # raise ships an error reply via the except below.
            if maybe_inject("racer-slice") == "drop":
                continue
            _, seq, target, sizes, want_witness, limit, imports = command
            racer.import_clauses(imports)
            final, payload = racer.slice(
                target,
                sizes,
                want_witness,
                limit,
                should_stop=cancel_event.is_set,
            )
            exports = ()
            if not final and not cancel_event.is_set():
                exports = racer.export_clauses(exchange_cap, exchange_lbd)
            outbox.put(
                (index, seq, "final" if final else "partial", payload,
                 exports, racer.summary())
            )
    except Exception as exc:  # pragma: no cover - ship instead of hanging
        outbox.put((index, -1, "error", repr(exc), (), {}))


class PortfolioSession:
    """Race strategy configurations on one snapshot; first verdict wins.

    The query API mirrors the other sessions — :meth:`verify`,
    :meth:`race` (optionally per-target / per-sizes),
    :meth:`resize_queues`, :meth:`close` — with verdicts identical to a
    sequential eager session.  Per-strategy win tallies accumulate in
    :attr:`strategy_wins` for the experiment scheduler.

    Parameters
    ----------
    network / spec:
        What to verify.  The session generates the spec's invariants (a
        no-op if it already has them) and bakes them into the one base
        snapshot every racer restores, so all share one base numbering.
    strategies:
        Racer roster (default :func:`default_strategies`).  The roster is
        trimmed to :func:`racer_budget` (``jobs``/``ADVOCAT_JOBS``/CPU
        count) unless ``force_race`` keeps it whole.
    jobs:
        Concurrent-racer cap; also selects the backend default.
    backend:
        ``"process"``, ``"inline"``, or ``None`` for automatic —
        process when more than one racer can actually run in parallel,
        inline otherwise.
    slice_conflicts / slice_growth:
        Conflict budget of the first slice and its per-round geometric
        growth (growth > 1 guarantees termination even under clause
        eviction: eventually one slice covers the whole search).
    share_clauses / exchange_cap / exchange_lbd:
        Toggle and shape of the glue-capped clause exchange.
    lead:
        Strategy name to race first (the scheduler's learned leader).
    """

    def __init__(
        self,
        network: Network | None = None,
        spec: SessionSpec | None = None,
        strategies: Sequence[StrategyConfig] | None = None,
        jobs: int | None = None,
        backend: str | None = None,
        slice_conflicts: int = 3000,
        slice_growth: float = 1.5,
        share_clauses: bool = True,
        exchange_cap: int = 256,
        exchange_lbd: int = 4,
        max_splits: int = 100_000,
        force_race: bool = False,
        lead: str | None = None,
        retry_policy: RetryPolicy | None = None,
        reply_timeout: float = 300.0,
        shutdown_timeout: float = 10.0,
    ):
        if backend not in (None, "process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if spec is None:
            if network is None:
                raise TypeError("PortfolioSession needs a network or a spec")
            spec = SessionSpec(network)
        if slice_conflicts < 1:
            raise ValueError(
                f"slice_conflicts must be >= 1, got {slice_conflicts}"
            )
        if slice_growth < 1.0:
            raise ValueError(f"slice_growth must be >= 1, got {slice_growth}")
        if reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be > 0, got {reply_timeout}")
        self.spec = spec
        self.network = spec.network
        self.colors = spec.colors
        self.pool = spec.pool
        self.encoding = spec.encoding
        roster = tuple(
            strategies if strategies is not None else default_strategies()
        )
        if not roster:
            raise ValueError("strategies must be non-empty")
        names = [strategy.name for strategy in roster]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategy names: {names}")
        roster = tuple(_lead_first(roster, lead))
        budget = racer_budget(len(roster), jobs)
        if not force_race:
            roster = roster[:budget]
        self.strategies = roster
        self._concurrency = budget
        if backend is None:
            # A process pool can only win when >1 racer actually runs at
            # once on >1 CPU; otherwise the deterministic inline
            # round-robin is strictly cheaper.
            backend = (
                "process"
                if min(budget, len(roster)) > 1 and (os.cpu_count() or 1) > 1
                else "inline"
            )
        self.backend = backend
        self.slice_conflicts = slice_conflicts
        self.slice_growth = slice_growth
        self.share_clauses = share_clauses
        self.exchange_cap = exchange_cap
        self.exchange_lbd = exchange_lbd
        self._max_splits = max_splits
        self._snapshot: SessionSnapshot | None = None
        self._parametric = spec.parametric
        self._sizes: dict[str, int] = dict(spec.initial_sizes)
        self._inline_racers: list[Racer] | None = None
        self._procs: list | None = None
        self._inboxes = None
        self._outbox = None
        self._events = None
        self._seqs: list[int] | None = None
        self.retry_policy = retry_policy or RetryPolicy()
        self.reply_timeout = reply_timeout
        self.shutdown_timeout = shutdown_timeout
        # Recovery accounting: racer-fleet rebuilds after a crash/hang,
        # and whether the session was quarantined to the inline backend.
        self.recoveries = 0
        self.degraded = False
        # Cumulative per-racer conflict counters at the last reply —
        # the baseline that turns warm children's cumulative summaries
        # into per-race deltas for conflict-budget accounting.
        self._cum_conflicts: dict[int, int] = {}
        self.strategy_wins: dict[str, int] = {
            strategy.name: 0 for strategy in roster
        }
        self.races = 0
        # How each racer process ended at the last teardown: strategy,
        # reap outcome ("joined"/"terminated"/"killed"/"lost") and the
        # seconds its reap took.
        self.last_teardown: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _base_snapshot(self) -> SessionSnapshot:
        if self._snapshot is None:
            # Cold on purpose: every racer must share the base variable
            # numbering (clause-exchange soundness), and strategies diverge
            # only in search tuning.
            self.spec.generate_invariants()
            self._snapshot = self.spec.snapshot(max_splits=self._max_splits)
        return self._snapshot

    def _teardown_procs(self) -> None:
        """Stop and forget the child racers, however unhealthy.

        Cancel events fire first (a child mid-slice aborts within one
        propagate cycle instead of running its slice out), then the quit
        commands, then join → ``terminate()`` → ``kill()`` escalation
        (:func:`~repro.core.resilience.reap_process`) so a wedged child
        can never leave a zombie behind.  The quit goes out on every
        teardown, recovery included: a healthy racer idles in
        ``inbox.get()`` and would otherwise sit out the whole join
        timeout; posting to a dead racer's inbox is harmless.  Queues are
        drained afterwards — dropping one with buffered items can hang
        interpreter shutdown on its feeder thread.
        """
        if self._procs is None:
            return
        for event in self._events or ():
            try:
                event.set()
            except Exception:
                pass
        for inbox in self._inboxes:
            try:
                inbox.put(("quit",))
            except Exception:
                pass
        self.last_teardown = []
        for strategy, proc in zip(self.strategies, self._procs):
            start = perf_counter()
            outcome = reap_process(proc, timeout=self.shutdown_timeout)
            self.last_teardown.append(
                {
                    "strategy": strategy.name,
                    "outcome": outcome,
                    "seconds": perf_counter() - start,
                }
            )
        for inbox in self._inboxes or ():
            drain_queue(inbox)
        if self._outbox is not None:
            drain_queue(self._outbox)
        self._procs = None
        self._inboxes = None
        self._outbox = None
        self._events = None
        self._seqs = None
        self._cum_conflicts = {}

    def close(self) -> None:
        """Stop child racers (the spec and tallies stay usable)."""
        self._teardown_procs()
        self._inline_racers = None

    def __enter__(self) -> "PortfolioSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def resize_queues(self, sizes) -> None:
        """Re-target later races; pins travel per race, racers stay warm."""
        self._sizes = resolve_resize(self._sizes, sizes, self._parametric)

    @property
    def queue_sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    @property
    def invariants_generated(self) -> int:
        """Invariant rows baked into the racers' base snapshot."""
        return self._base_snapshot().invariant_count

    def seed_phases_from_witness(self) -> int:
        """No-op: each racer keeps its own phases warm across probes."""
        return 0

    # ------------------------------------------------------------------
    # Racing
    # ------------------------------------------------------------------
    def verify(self, deadline=None) -> VerificationResult:
        """The full deadlock check, answered by the winning racer."""
        return self.race(deadline=deadline)

    def race(
        self,
        target: Target = None,
        sizes: Mapping[str, int] | None = None,
        want_witness: bool = True,
        deadline=None,
    ) -> VerificationResult:
        """Race the roster on one query; first final verdict wins.

        The merged result carries ``stats["portfolio"]`` — winner,
        rounds, and per-racer cumulative counters — alongside the usual
        verdict/witness/core fields.  An expired ``deadline`` ends the
        race with a ``TIMEOUT`` result (``winner`` is then ``None`` and
        no strategy is credited); a crashed or hung racer fleet is torn
        down and re-raced under :attr:`retry_policy`, degrading to the
        inline backend once the attempts are exhausted.
        """
        deadline = Deadline.coerce(deadline)
        full = self._sizes
        if sizes is not None and self._parametric:
            full = resolve_resize(self._sizes, dict(sizes), True)
        sizes_key = tuple(sorted(full.items())) if self._parametric else None
        winner, payload, rounds, summaries = self._race_with_recovery(
            target, sizes_key, want_witness, deadline
        )
        self.races += 1
        if winner is not None:
            self.strategy_wins[winner] += 1
        return self.spec.read_payload(
            payload,
            full,
            invariant_count=self.invariants_generated,
            extra_stats={
                "portfolio": {
                    "winner": winner,
                    "rounds": rounds,
                    "backend": self.backend,
                    "share_clauses": self.share_clauses,
                    "racers": summaries,
                    "recoveries": self.recoveries,
                    "degraded": self.degraded,
                }
            },
        )

    def _race_with_recovery(self, target, sizes_key, want_witness, deadline):
        """Run one race, recovering from racer crashes and hangs.

        A :exc:`WorkerCrashError` (dead child, error reply) or
        :exc:`WorkerHangError` (no reply within :attr:`reply_timeout`)
        tears the fleet down and re-races from the same base snapshot —
        verdict identity is unaffected because *any* race over the
        snapshot yields the canonical verdict.  After
        ``retry_policy.max_attempts`` failed fleets the session is
        quarantined: it degrades to the deterministic inline backend
        (same snapshot, no children) for this and every later race.
        """
        if deadline is not None and deadline.expired():
            # Budget already gone: answer TIMEOUT without starting (or
            # touching) any racer fleet.
            summaries = [
                {"strategy": strategy.name} for strategy in self.strategies
            ]
            return None, self._timeout_payload(), 0, summaries
        if self.backend != "process":
            return self._race_inline(target, sizes_key, want_witness, deadline)
        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            try:
                return self._race_process(
                    target, sizes_key, want_witness, deadline
                )
            except (WorkerCrashError, WorkerHangError):
                self._teardown_procs()
                self.recoveries += 1
                if attempt + 1 < policy.max_attempts:
                    policy.sleep(attempt)
        self.backend = "inline"
        self.degraded = True
        return self._race_inline(target, sizes_key, want_witness, deadline)

    def _round_limit(self, round_index: int, deadline=None) -> int:
        """A slice's conflict budget in round ``round_index`` (0-based),
        capped by what is left of ``deadline``'s conflict budget."""
        limit = max(1, int(self.slice_conflicts * (self.slice_growth ** round_index)))
        remaining = None if deadline is None else deadline.remaining_conflicts()
        return limit if remaining is None else max(1, min(limit, remaining))

    def _share(self, exports, index: int, pending: list, seen: set) -> None:
        """Queue racer ``index``'s fresh exports for every peer, once."""
        for clause in exports:
            key = frozenset(clause[1])
            if key in seen:
                continue
            seen.add(key)
            for peer_index, queued in enumerate(pending):
                if peer_index != index:
                    queued.append(clause)

    # -- inline backend -------------------------------------------------
    def _ensure_inline_racers(self) -> list[Racer]:
        if self._inline_racers is None:
            snapshot = self._base_snapshot()
            self._inline_racers = [
                Racer(snapshot, strategy) for strategy in self.strategies
            ]
        return self._inline_racers

    @staticmethod
    def _timeout_payload() -> tuple:
        return ("unknown", None, None, {}, 0.0)

    def _race_inline(self, target, sizes_key, want_witness, deadline=None):
        """Deterministic round-robin: one slice per racer per round.

        Losing racers simply receive no further slices once a verdict
        lands, so "cancellation" is immediate by construction.  The
        deadline's conflict budget is shared across the whole roster
        (every slice's conflicts are charged against it) and its wall
        clock additionally cancels mid-slice via
        ``should_stop``.
        """
        racers = self._ensure_inline_racers()
        pending: list[list] = [[] for _ in racers]
        shared_seen: set[frozenset] = set()
        rounds = 0
        while True:
            rounds += 1
            for index, racer in enumerate(racers):
                if deadline is not None and deadline.expired():
                    summaries = [peer.summary() for peer in racers]
                    return None, self._timeout_payload(), rounds, summaries
                if pending[index]:
                    racer.import_clauses(pending[index])
                    pending[index] = []
                spent = racer.summary()["conflicts"]
                final, payload = racer.slice(
                    target,
                    sizes_key,
                    want_witness,
                    self._round_limit(rounds - 1, deadline),
                    should_stop=deadline.should_stop if deadline else None,
                )
                if deadline is not None:
                    deadline.charge(racer.summary()["conflicts"] - spent)
                if final:
                    summaries = [peer.summary() for peer in racers]
                    return (
                        racer.strategy.name, payload, rounds, summaries
                    )
                if self.share_clauses:
                    exports = racer.export_clauses(
                        self.exchange_cap, self.exchange_lbd
                    )
                    self._share(exports, index, pending, shared_seen)

    # -- process backend ------------------------------------------------
    def _ensure_procs(self):
        if self._procs is None:
            snapshot = self._base_snapshot()
            ctx = _process_context()
            self._outbox = ctx.Queue()
            self._inboxes = []
            self._events = []
            self._procs = []
            self._seqs = [0] * len(self.strategies)
            for index, strategy in enumerate(self.strategies):
                inbox = ctx.Queue()
                event = ctx.Event()
                proc = ctx.Process(
                    target=_racer_main,
                    args=(
                        snapshot,
                        strategy,
                        index,
                        inbox,
                        self._outbox,
                        event,
                        self.exchange_cap,
                        self.exchange_lbd,
                    ),
                    daemon=True,
                )
                proc.start()
                self._inboxes.append(inbox)
                self._events.append(event)
                self._procs.append(proc)

    def _collect_reply(self, outstanding, deadline=None):
        """One outbox reply — or a typed fault instead of a hang.

        Short-polls the outbox so a dead child is noticed within a poll
        interval (:exc:`WorkerCrashError`) and a silent one within
        :attr:`reply_timeout` (:exc:`WorkerHangError`); both feed the
        recovery path in :meth:`_race_with_recovery`.  An expiring
        deadline flips the outstanding racers' cancel events so their
        replies arrive within one propagate cycle.
        """
        poll = min(0.25, self.reply_timeout)
        waited = 0.0
        cancelled = False
        while True:
            try:
                return self._outbox.get(timeout=poll)
            except Empty:
                dead = [
                    strategy.name
                    for strategy, proc in zip(self.strategies, self._procs)
                    if not proc.is_alive()
                ]
                if dead:
                    raise WorkerCrashError(
                        f"portfolio racer(s) died mid-race: {dead}"
                    ) from None
                if not cancelled and deadline is not None and deadline.expired():
                    for peer_index, event in enumerate(self._events):
                        if peer_index in outstanding:
                            event.set()
                    cancelled = True
                waited += poll
                if waited >= self.reply_timeout:
                    raise WorkerHangError(
                        "no portfolio racer replied within "
                        f"{self.reply_timeout}s (outstanding: "
                        f"{sorted(outstanding)})"
                    ) from None

    def _race_process(self, target, sizes_key, want_witness, deadline=None):
        """Parent-driven pipelined slicing over child slice servers.

        Each racer has at most one outstanding slice.  On the first final
        verdict the parent stops issuing slices and flips the losers'
        cancel events (mid-slice abort via ``should_stop``), then drains
        the outstanding replies so every child is idle — and every event
        cleared — before the next race.  An expired deadline is handled
        the same way, with a ``TIMEOUT`` payload instead of a winner.
        """
        self._ensure_procs()
        pending: list[list] = [[] for _ in self.strategies]
        shared_seen: set[frozenset] = set()
        outstanding: dict[int, int] = {}
        round_of: dict[int, int] = {}
        summaries: dict[int, dict] = {}
        winner = None
        expired = False
        rounds = 0

        def issue(index: int) -> None:
            self._seqs[index] += 1
            limit = self._round_limit(round_of.get(index, 0), deadline)
            self._inboxes[index].put(
                (
                    "slice",
                    self._seqs[index],
                    target,
                    sizes_key,
                    want_witness,
                    limit,
                    tuple(pending[index]),
                )
            )
            pending[index] = []
            outstanding[index] = self._seqs[index]

        for index in range(len(self.strategies)):
            issue(index)
        while outstanding:
            index, seq, status, payload, exports, summary = (
                self._collect_reply(outstanding, deadline)
            )
            if status == "error":
                raise WorkerCrashError(
                    f"portfolio racer "
                    f"{self.strategies[index].name!r} failed: {payload}"
                )
            if outstanding.get(index) != seq:
                continue  # stale reply from an earlier, cancelled race
            del outstanding[index]
            summaries[index] = summary
            round_of[index] = round_of.get(index, 0) + 1
            rounds = max(rounds, round_of[index])
            if deadline is not None and summary:
                # Children report cumulative conflicts (they stay warm
                # across races); charge the delta since the last reply.
                total = summary.get("conflicts", 0)
                deadline.charge(total - self._cum_conflicts.get(index, 0))
                self._cum_conflicts[index] = total
            if winner is None and status == "final":
                winner = (index, payload)
                for peer_index, event in enumerate(self._events):
                    if peer_index in outstanding:
                        event.set()
                continue
            if winner is None and not expired and deadline is not None:
                if deadline.expired():
                    # Budget gone: stop re-slicing, cancel the racers
                    # still out, and drain their final partial replies.
                    expired = True
                    for peer_index, event in enumerate(self._events):
                        if peer_index in outstanding:
                            event.set()
            if winner is None and not expired:
                if self.share_clauses:
                    self._share(exports, index, pending, shared_seen)
                issue(index)
        for event in self._events:
            event.clear()
        ordered = [
            summaries.get(i, {"strategy": strategy.name})
            for i, strategy in enumerate(self.strategies)
        ]
        if winner is None:
            assert expired, "race drained with neither winner nor deadline"
            return None, self._timeout_payload(), rounds, ordered
        index, payload = winner
        return self.strategies[index].name, payload, rounds, ordered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "network": self.network.stats(),
            "strategies": [s.name for s in self.strategies],
            "backend": self.backend,
            "concurrency": self._concurrency,
            "share_clauses": self.share_clauses,
            "races": self.races,
            "strategy_wins": dict(self.strategy_wins),
            "recoveries": self.recoveries,
            "degraded": self.degraded,
            "teardown": [dict(entry) for entry in self.last_teardown],
        }
