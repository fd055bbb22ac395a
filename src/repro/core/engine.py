"""The incremental verification engine: one encoding, many queries.

ADVOCAT's workflow is inherently *many queries over one model*: the
block/idle equation system is fixed per network, but it is re-solved under
different assertions — the full deadlock check, per-channel candidate
queries, invariant-strengthened re-checks, witness enumeration, and the
Figure-4 queue-size sweep.  The work splits into two phases:

* **build** — :class:`SessionSpec` derives the colors, the deadlock
  encoding (with guard-tagged disjuncts and, optionally, parametric
  ``cap[q]`` capacities) and, on demand, the cross-layer invariants.  All
  of it is computed once per network and shared by every session over it.
* **query** — :class:`VerificationSession` loads a spec into one
  incremental :class:`~repro.smt.Solver` and answers every query by
  *assumption*:

  - each disjunct of the deadlock assertion carries a guard literal
    (:class:`~repro.core.deadlock.DeadlockCase`), so ``verify_channel``
    asks about a single queue/color by assuming that one guard;
  - ``verify`` assumes the master guard ("some disjunct fires");
  - queue capacities are (by default) symbolic ``cap[q]`` variables pinned
    by assumption, so ``resize_queues`` re-probes a different size without
    rebuilding anything;
  - ``enumerate_witnesses`` guards its blocking clauses behind a fresh
    per-enumeration assumption literal (assumed only by its own checks and
    retired when the generator finishes), so enumeration leaves the
    session reusable and never influences concurrent queries.

All clauses the CDCL core learns while answering one query — including
branch-and-bound splits and theory-conflict clauses — remain in force for
every later query, which is where the severalfold speed-up of the sweep
benchmarks comes from (see ``benchmarks/bench_incremental.py``).

The split is what makes parallel orchestration possible:
:meth:`SessionSpec.snapshot` flattens the built encoding into a
pickle-safe :class:`SessionSnapshot` (CNF image + guard names + witness
recipe), from which worker processes rehydrate query sessions without
re-deriving colors, invariants or the encoding — see
:mod:`repro.core.parallel`.

:func:`repro.core.proof.verify` and friends are thin wrappers over a
throwaway session, so the one-shot API is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..smt import (
    IntVar,
    Result,
    Solver,
    SolverSnapshot,
    Term,
    boolvar,
    conj,
    eq,
    ge,
    implies,
    intvar,
    neg,
    snapshot_solver,
)
from ..util import Stopwatch
from ..xmas import Network, Queue, Source
from .cache import stable_hash
from .colors import derive_colors
from .deadlock import DeadlockCase, encode_deadlock
from .invariants import (
    InvariantSelector,
    encode_invariant_rows,
    generate_invariants,
    rank_invariants,
)
from .resilience import Deadline
from .result import DeadlockWitness, Invariant, Verdict, VerificationResult
from .vars import VarPool

__all__ = [
    "SessionSpec",
    "SessionSnapshot",
    "VerificationSession",
    "Strengthening",
]

Color = Hashable

ANY_CASE_LABEL = "deadlock assertion (any case)"


def resolve_resize(
    current: Mapping[str, int], sizes: int | Mapping[str, int], parametric: bool
) -> dict[str, int]:
    """Validate a ``resize_queues`` request against the current size map.

    Returns the full updated map.  Shared by the sequential and parallel
    sessions so both reject the same inputs identically.
    """
    if not parametric:
        raise RuntimeError(
            "resize_queues() requires parametric_queues=True "
            "(queue sizes were baked into the encoding)"
        )
    if isinstance(sizes, int):
        update = {name: sizes for name in current}
    else:
        unknown = set(sizes) - set(current)
        if unknown:
            raise KeyError(f"unknown queues: {sorted(unknown)}")
        update = dict(sizes)
    for name, size in update.items():
        if size < 0:
            raise ValueError(f"queue {name!r}: negative capacity {size}")
    merged = dict(current)
    merged.update(update)
    return merged


@dataclass(frozen=True)
class SessionSnapshot:
    """Pickle-safe image of a built verification session.

    Everything a worker needs to answer guard-literal queries without the
    build phase: the solver's CNF image, the guard-variable *names* of the
    deadlock cases and the master disjunction, the ``cap[q]`` variable
    keys for minting capacity pins, and the witness recipe (which integer
    variables / block booleans to read out of a SAT model).  All plain
    ints and strings — see :mod:`repro.smt.serialize` for why terms
    themselves cannot cross a process boundary.
    """

    solver: SolverSnapshot
    case_guard_names: tuple[str, ...]  # aligned with encoding.cases
    any_guard_name: str
    capacity_uids: tuple[tuple[str, int], ...]  # (queue name, cap var uid)
    witness_int_uids: tuple[int, ...]
    witness_bool_names: tuple[str, ...]
    default_sizes: tuple[tuple[str, int], ...]
    parametric: bool
    # How many invariants are baked into the solver image — reporting
    # metadata for consumers that only hold the snapshot.
    invariant_count: int
    # Ranked invariant rows *not* baked into the solver image, as plain
    # data (static rank order) — a rehydrated worker escalates through
    # them locally in partial mode (see repro.core.invariants).  Empty
    # unless the snapshot was taken for partial-invariant orchestration.
    pending_invariant_rows: tuple = ()

    def content_hash(self) -> str:
        """Stable SHA-256 identity of the canonical encoding image.

        Two snapshots of the *same* encoding hash identically even when
        built in different processes: integer-variable uids are
        process-local counters, so the hash renumbers them by rank in
        the name-sorted variable table (every variable reachable from a
        deadlock encoding carries a deterministic name — guards, pool
        occupancies, ``cap[q]`` capacities).  Scheduling state is
        excluded — learned clauses, saved phases, the clause-reduction
        policy and its knobs, the split budget and pending invariant
        rows steer the *search*, never the encoded formula — so warm or
        differently tuned variants of one encoding share a cache
        identity.  A false identity collision would be a wrong cached
        verdict, which is why the service layer keys its verdict store
        on this hash.
        """
        solver = self.solver
        order = sorted(
            range(len(solver.int_vars)),
            key=lambda i: (solver.int_vars[i][1], i),
        )
        rank = {solver.int_vars[i][0]: pos for pos, i in enumerate(order)}
        payload = {
            "version": solver.version,
            "n_vars": solver.n_vars,
            "clauses": [list(clause) for clause in solver.clauses],
            "unsatisfiable": solver.unsatisfiable,
            "bool_vars": sorted([name, var] for name, var in solver.bool_vars),
            "int_names": [solver.int_vars[i][1] for i in order],
            "atoms": sorted(
                [
                    satvar,
                    sorted([rank[uid], coeff] for uid, coeff in coeffs),
                    bound,
                ]
                for satvar, coeffs, bound in solver.atoms
            ),
            "case_guards": list(self.case_guard_names),
            "any_guard": self.any_guard_name,
            "capacities": sorted(
                [name, rank[uid]] for name, uid in self.capacity_uids
            ),
            "witness_ints": [rank[uid] for uid in self.witness_int_uids],
            "witness_bools": list(self.witness_bool_names),
            "default_sizes": sorted(
                [name, size] for name, size in self.default_sizes
            ),
            "parametric": self.parametric,
        }
        return stable_hash(payload)


class SessionSpec:
    """The build phase: network → colors → encoding (→ invariants), once.

    A spec is immutable except for lazy invariant generation and carries
    no solver; any number of :class:`VerificationSession` (or parallel
    worker sessions, via :meth:`snapshot`) can be opened over one spec
    without re-deriving anything.

    Parameters
    ----------
    network:
        A validated (or validatable) closed xMAS network.
    rotating_precision:
        Use the stronger block rule for ``rotating`` queues (see
        :mod:`repro.core.deadlock`).
    parametric_queues:
        Encode queue capacities as symbolic ``cap[q]`` variables to be
        pinned by assumption.  With ``False`` the literal ``queue.size``
        values are baked in, reproducing the one-shot encoding exactly.
    watch:
        Optional :class:`~repro.util.Stopwatch` to record the build
        phases into (a session building its own spec passes its own).
    """

    def __init__(
        self,
        network: Network,
        rotating_precision: bool = True,
        parametric_queues: bool = True,
        watch: Stopwatch | None = None,
    ):
        network.validate()
        self.network = network
        self.rotating_precision = rotating_precision
        self.parametric = parametric_queues
        watch = watch or Stopwatch()
        with watch.phase("color derivation"):
            self.colors = derive_colors(network)
        self.pool = VarPool()
        self.initial_sizes: dict[str, int] = {
            q.name: q.size for q in network.queues()
        }
        self.capacities: dict[str, IntVar] = (
            {q.name: intvar(f"cap[{q.name}]") for q in network.queues()}
            if parametric_queues
            else {}
        )
        self._invariants: list[Invariant] | None = None
        self._ranked: list[Invariant] | None = None
        with watch.phase("deadlock encoding"):
            self.encoding = encode_deadlock(
                network,
                self.colors,
                self.pool,
                rotating_precision=rotating_precision,
                capacities=self.capacities if parametric_queues else None,
            )

    @classmethod
    def from_builder(
        cls,
        builder: str,
        builder_kwargs: Mapping | None = None,
        rotating_precision: bool = True,
        parametric_queues: bool = True,
        watch: Stopwatch | None = None,
    ) -> "SessionSpec":
        """Open the build phase from a *description* of the network.

        ``builder`` names a registered network builder
        (:func:`repro.core.experiments.register_builder`); the network is
        constructed here and the build phase runs on it.  This is the
        engine-side hook the experiment layer rests on: a
        :class:`~repro.core.experiments.ScenarioSpec` can describe a
        build as plain data, ship it to a worker process, and the worker
        materialises the spec with this constructor.
        """
        from .experiments import resolve_builder

        built = resolve_builder(builder)(**dict(builder_kwargs or {}))
        network = getattr(built, "network", built)
        return cls(
            network,
            rotating_precision=rotating_precision,
            parametric_queues=parametric_queues,
            watch=watch,
        )

    # ------------------------------------------------------------------
    @property
    def invariants(self) -> list[Invariant] | None:
        """The invariants *meant to be conjoined eagerly*, or ``None``.

        Stays ``None`` after :meth:`ranked_invariants` alone: ranked
        generation is derived data for partial-mode selection and must
        not mark the shared spec as strengthened (sessions and pools
        treat a non-``None`` value as "conjoin on load").
        """
        return None if self._invariants is None else list(self._invariants)

    def _generate_all(self, watch: Stopwatch) -> list[Invariant]:
        with watch.phase("invariant generation"):
            return generate_invariants(self.network, self.colors, self.pool)

    def generate_invariants(self, watch: Stopwatch | None = None) -> list[Invariant]:
        """Derive the cross-layer invariants (idempotent)."""
        if self._invariants is None:
            self._invariants = (
                self._ranked
                if self._ranked is not None
                else self._generate_all(watch or Stopwatch())
            )
        return list(self._invariants)

    def ranked_invariants(
        self, watch: Stopwatch | None = None
    ) -> list[Invariant]:
        """The full invariant set in static rank order (idempotent).

        Shares the elimination work with :meth:`generate_invariants` but
        does *not* flip the spec into the eagerly-strengthened state —
        partial-mode sessions select from this list row by row.
        """
        if self._ranked is None:
            base = (
                self._invariants
                if self._invariants is not None
                else self._generate_all(watch or Stopwatch())
            )
            self._ranked = rank_invariants(base)
        return list(self._ranked)

    # ------------------------------------------------------------------
    def base_terms(self) -> Iterator[Term]:
        """Every base-level assertion of the encoding, in load order."""
        yield from self.encoding.definitions
        yield from self.encoding.domain
        yield from self.encoding.guard_terms()
        for capacity in self.capacities.values():
            yield ge(capacity, 0)

    def load_solver(
        self,
        max_splits: int = 100_000,
        clause_reduction: bool = True,
        reduction_opts: Mapping | None = None,
    ) -> Solver:
        """A fresh solver with the full encoding (and any generated
        invariants) asserted.  ``reduction_opts`` forwards lifecycle
        knobs (``reduce_base``, ``reduce_growth``, ``glue_keep``,
        ``glue_cap``, ``reduce_keep``) to the solver."""
        solver = Solver(
            max_splits=max_splits,
            clause_reduction=clause_reduction,
            **dict(reduction_opts or {}),
        )
        for term in self.base_terms():
            solver.add(term)
        if self._invariants is not None:
            for invariant in self._invariants:
                solver.add_global(invariant.term())
        return solver

    # ------------------------------------------------------------------
    def _witness_recipe(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """(int var uids, block bool names) a witness extraction reads."""
        int_uids = [var.uid for _, var in self.pool.state_items()]
        int_uids.extend(var.uid for _, var in self.pool.occupancy_items())
        bool_names: list[str] = []
        for queue in self.network.queues():
            out_channel = self.network.channel_of(queue.o)
            for color in self.colors.of(out_channel):
                bool_names.append(self.pool.block(out_channel, color).name)
        for source in self.network.sources():
            out_channel = self.network.channel_of(source.o)
            for color in source.colors:
                bool_names.append(self.pool.block(out_channel, color).name)
        return tuple(int_uids), tuple(bool_names)

    def snapshot(
        self,
        max_splits: int = 100_000,
        reduction_opts: Mapping | None = None,
        include_pending_invariants: bool = False,
    ) -> SessionSnapshot:
        """Flatten the built encoding into a :class:`SessionSnapshot`.

        Loads a throwaway solver (cheap relative to the build phase) and
        captures its CNF image together with the guard-name tables and
        the witness recipe.  Invariants are included iff they have been
        generated on this spec.  The result is a *cold* snapshot — use
        :meth:`VerificationSession.snapshot` to capture a live session's
        learned clauses and phases along with it.  ``reduction_opts``
        bakes lifecycle knobs into the snapshot so rehydrated workers run
        the tuned policy.  ``include_pending_invariants`` additionally
        ships the ranked rows *not* asserted in the image (the full
        ranked set unless this spec was strengthened eagerly) for
        worker-side partial escalation.
        """
        pending: tuple = ()
        if include_pending_invariants and self._invariants is None:
            pending = encode_invariant_rows(self.ranked_invariants())
        return self.wrap_solver_snapshot(
            snapshot_solver(
                self.load_solver(max_splits, reduction_opts=reduction_opts)
            ),
            pending_invariant_rows=pending,
        )

    def wrap_solver_snapshot(
        self, solver_snapshot, pending_invariant_rows: tuple = ()
    ) -> SessionSnapshot:
        """Bundle an already-captured solver image with this spec's guard
        tables, witness recipe and size defaults.
        ``pending_invariant_rows`` ships plain-data invariant rows *not*
        asserted in the image, for worker-side partial escalation."""
        witness_ints, witness_bools = self._witness_recipe()
        return SessionSnapshot(
            solver=solver_snapshot,
            case_guard_names=tuple(
                case.guard.name for case in self.encoding.cases
            ),
            any_guard_name=self.encoding.any_guard.name,
            capacity_uids=tuple(
                (name, var.uid) for name, var in self.capacities.items()
            ),
            witness_int_uids=witness_ints,
            witness_bool_names=witness_bools,
            default_sizes=tuple(self.initial_sizes.items()),
            parametric=self.parametric,
            invariant_count=len(self._invariants or ()),
            pending_invariant_rows=tuple(pending_invariant_rows),
        )


class VerificationSession:
    """Incremental, assumption-based verification of one xMAS network.

    Parameters
    ----------
    network:
        The network to verify; ignored when ``spec`` is given.
    rotating_precision, parametric_queues:
        Build options, forwarded to :class:`SessionSpec` (ignored when
        ``spec`` is given — the spec already fixed them).
    max_splits:
        Branch-and-bound budget forwarded to the SMT solver, per query.
    clause_reduction:
        Enable the solver's learned-clause lifecycle (LBD-based database
        reduction) so long sessions stay bounded.  ``False`` reproduces
        the unbounded clause database of earlier revisions; verdicts are
        identical either way.
    reduction_opts:
        Optional lifecycle knobs (``reduce_base``, ``reduce_growth``,
        ``glue_keep``, ``glue_cap``, ``reduce_keep``) forwarded to the
        solver — workload tuning for long sweeps and worker shards.
    spec:
        A prebuilt :class:`SessionSpec` to open a query session over
        without repeating the build phase.  If the spec already has
        invariants generated, they are loaded immediately.

    Invariants are *not* generated up front; call :meth:`add_invariants`
    to derive and conjoin them (idempotent).  This keeps the plain
    block/idle mode (paper Section 3) available from the same session.
    """

    def __init__(
        self,
        network: Network | None = None,
        rotating_precision: bool = True,
        max_splits: int = 100_000,
        parametric_queues: bool = True,
        clause_reduction: bool = True,
        reduction_opts: Mapping | None = None,
        spec: SessionSpec | None = None,
    ):
        self.watch = Stopwatch()
        if spec is None:
            if network is None:
                raise TypeError("VerificationSession needs a network or a spec")
            spec = SessionSpec(
                network,
                rotating_precision=rotating_precision,
                parametric_queues=parametric_queues,
                watch=self.watch,
            )
        self.spec = spec
        self.network = spec.network
        self.colors = spec.colors
        self.pool = spec.pool
        self.encoding = spec.encoding
        self._parametric = spec.parametric
        self._sizes: dict[str, int] = dict(spec.initial_sizes)
        self._capacities = spec.capacities
        self._size_guards: dict[tuple[str, int], Term] = {}
        self._guard_labels: dict[int, str] = {
            case.guard.uid: case.label for case in self.encoding.cases
        }
        self._guard_labels[self.encoding.any_guard.uid] = ANY_CASE_LABEL
        self._invariants: list[Invariant] = []
        self._invariants_added = False
        self._var_by_uid: dict[int, IntVar] | None = None
        self._witness_bool_names: tuple[str, ...] | None = None
        self._last_witness_bools: dict[str, bool] | None = None
        with self.watch.phase("smt solving"):
            self.solver = spec.load_solver(
                max_splits=max_splits,
                clause_reduction=clause_reduction,
                reduction_opts=reduction_opts,
            )
        if spec.invariants is not None:
            self._invariants = spec.invariants
            self._invariants_added = True

    # ------------------------------------------------------------------
    # Lifecycle: sessions hold no external resources, but sharing the
    # context-manager contract with ParallelVerificationSession lets
    # drivers treat both uniformly (`with make_session(...) as session:`).
    # ------------------------------------------------------------------
    def close(self) -> None:
        """No-op (the spec and solver stay usable); contract parity with
        :meth:`repro.core.parallel.ParallelVerificationSession.close`."""

    def __enter__(self) -> "VerificationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_invariants(self) -> list[Invariant]:
        """Derive the cross-layer invariants and conjoin them (idempotent).

        Invariants hold in every reachable configuration, so adding them is
        a permanent, sound strengthening — there is nothing to retract.
        Rows already conjoined partially (:meth:`conjoin_invariants`) are
        not re-asserted.
        """
        if not self._invariants_added:
            self.conjoin_invariants(
                self.spec.generate_invariants(watch=self.watch)
            )
            self._invariants_added = True
        return list(self._invariants)

    def conjoin_invariants(self, invariants: Iterable[Invariant]) -> int:
        """Permanently conjoin *specific* invariant rows (partial mode).

        Each row is a sound strengthening on its own, so any subset may be
        asserted in any order; rows this session already holds are skipped.
        Returns the number of newly asserted rows.  Does not mark the full
        set as loaded — a later :meth:`add_invariants` tops up to it.
        """
        held = set(self._invariants)
        added = 0
        with self.watch.phase("smt solving"):
            for invariant in invariants:
                if invariant in held:
                    continue
                self.solver.add_global(invariant.term())
                self._invariants.append(invariant)
                held.add(invariant)
                added += 1
        return added

    @property
    def invariants(self) -> list[Invariant]:
        return list(self._invariants)

    def invariant_value_of(self) -> "Callable[[int], int]":
        """``uid → model value`` over the pool's state/occupancy variables.

        Valid after a SAT query; this is what
        :meth:`~repro.core.invariants.InvariantSelector.next_batch`
        evaluates candidate rows against.
        """
        if self._var_by_uid is None:
            self._var_by_uid = {
                var.uid: var for _, var in self.pool.state_items()
            }
            self._var_by_uid.update(
                (var.uid, var) for _, var in self.pool.occupancy_items()
            )
        model = self.solver.model()
        lookup = self._var_by_uid
        return lambda uid: int(model[lookup[uid]])

    def resize_queues(self, sizes: int | Mapping[str, int]) -> None:
        """Re-target later queries at different queue capacities.

        ``sizes`` is either one uniform size or a mapping from queue name
        to size (unmentioned queues keep their current size).  Requires
        ``parametric_queues``; nothing is re-encoded — each (queue, size)
        pair lazily gets a guard literal implying ``cap[q] == size``, and
        queries assume the guards of the current sizes.
        """
        self._sizes = resolve_resize(self._sizes, sizes, self._parametric)

    @property
    def queue_sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    # ------------------------------------------------------------------
    # Warm-start state
    # ------------------------------------------------------------------
    def snapshot(
        self,
        include_learned: bool = True,
        learned_cap: int = 4000,
        max_lbd: int | None = None,
        include_pending_invariants: bool = False,
    ) -> SessionSnapshot:
        """A :class:`SessionSnapshot` of this *live* session.

        Unlike :meth:`SessionSpec.snapshot` (which loads a cold throwaway
        solver), this captures the session's own solver — including, by
        default, its learned-clause tail and saved phases — so workers
        rehydrated from it answer their first query without re-deriving
        what this session already learned.

        ``include_pending_invariants`` additionally ships the ranked
        invariant rows this session has *not* conjoined, so rehydrated
        workers can escalate through them locally (partial mode).
        """
        pending: tuple = ()
        if include_pending_invariants:
            held = set(self._invariants)
            pending = encode_invariant_rows(
                [
                    invariant
                    for invariant in self.spec.ranked_invariants(
                        watch=self.watch
                    )
                    if invariant not in held
                ]
            )
        return self.spec.wrap_solver_snapshot(
            snapshot_solver(
                self.solver,
                include_learned=include_learned,
                learned_cap=learned_cap,
                max_lbd=max_lbd,
            ),
            pending_invariant_rows=pending,
        )

    def compact(self) -> int:
        """Shed the solver's cold learnt tail now (see
        :meth:`~repro.smt.Solver.compact`) — end-of-phase housekeeping
        for long-lived sessions."""
        return self.solver.compact()

    def seed_phases_from_witness(self) -> int:
        """Seed branching phases from the last witness's block booleans.

        Sweeps call this between probes so each probe's search starts at
        the previous witness (the paper's Figure-4 curve moves by one
        capacity step; the blocking shape rarely changes wholesale).
        No-op before the first SAT query; returns the hints applied.
        """
        if not self._last_witness_bools:
            return 0
        return self.solver.phase_hints(self._last_witness_bools)

    def _capacity_assumptions(self) -> list[Term]:
        if not self._parametric:
            return []
        assumptions = []
        for name, size in self._sizes.items():
            guard = self._size_guards.get((name, size))
            if guard is None:
                guard = boolvar(f"cap[{name}=={size}]")
                # add_global: the guard definition must outlive any scope
                # open at first use (e.g. during witness enumeration).
                self.solver.add_global(
                    implies(guard, eq(self._capacities[name], size))
                )
                self._size_guards[(name, size)] = guard
                self._guard_labels[guard.uid] = guard.name
            assumptions.append(guard)
        return assumptions

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _label_of(self, term: Term) -> str:
        label = self._guard_labels.get(term.uid)
        if label is not None:
            return label
        return getattr(term, "name", repr(term))

    def _run(
        self, assumptions: list[Term], deadline=None
    ) -> VerificationResult:
        deadline = Deadline.coerce(deadline)
        solve_start = perf_counter()
        pre_expired = deadline is not None and deadline.expired()
        if pre_expired:
            # Budget already gone: answer TIMEOUT without entering the
            # solver (an expired deadline must never hang or mislead).
            outcome = Result.UNKNOWN
        else:
            limit = deadline.remaining_conflicts() if deadline else None
            stop = deadline.should_stop if deadline else None
            with self.watch.phase("smt solving"):
                outcome = self.solver.check(
                    assumptions=assumptions,
                    conflict_limit=limit,
                    should_stop=stop,
                )
            if deadline is not None:
                deadline.charge(self.solver.stats.get("conflicts", 0))
        stats = {
            "network": self.network.stats(),
            "color_pairs": self.colors.total_pairs(),
            "invariant_count": len(self._invariants),
            # Per-query deltas: this check's solver counters and wall time.
            # (Empty when the deadline expired before the solver ran —
            # the previous query's counters would be misleading here.)
            "solver": {} if pre_expired else dict(self.solver.stats),
            # Hot-loop counters from the CDCL core and the simplex (see
            # Solver.profile).
            "solver_profile": {} if pre_expired else dict(self.solver.profile),
            "solve_seconds": perf_counter() - solve_start,
            # Cumulative session phase times (encoding built once, queries
            # accumulate under "smt solving") — not per-query.
            "durations": dict(self.watch.durations),
        }
        if self._parametric:
            stats["queue_sizes"] = dict(self._sizes)
        if outcome == Result.UNKNOWN:
            # Deadline expired (cooperative cancel or conflict-limit hit).
            # Learning up to the cutoff stays in the solver; the session
            # remains reusable, so a later retry resumes warm.
            stats["timed_out"] = True
            return VerificationResult(
                Verdict.TIMEOUT,
                invariants=list(self._invariants),
                stats=stats,
            )
        if outcome == Result.UNSAT:
            # Which assumed guards forced UNSAT — for a per-case query the
            # responsible deadlock case, for a parametric query the
            # cap[q==k] pins that make the configuration infeasible.
            core = [self._label_of(term) for term in self.solver.unsat_core()]
            stats["formula_unsat"] = self.solver.formula_unsat
            return VerificationResult(
                Verdict.DEADLOCK_FREE,
                invariants=list(self._invariants),
                stats=stats,
                unsat_core=core,
            )
        from .proof import extract_witness

        model = self.solver.model()
        witness = extract_witness(self.network, self.colors, self.pool, model)
        if self._witness_bool_names is None:
            self._witness_bool_names = self.spec._witness_recipe()[1]
        self._last_witness_bools = {
            name: bool(model[name]) for name in self._witness_bool_names
        }
        return VerificationResult(
            Verdict.DEADLOCK_CANDIDATE,
            witness=witness,
            invariants=list(self._invariants),
            stats=stats,
        )

    def verify(self, deadline=None) -> VerificationResult:
        """The full deadlock check: "does *some* disjunct fire?"."""
        return self._run(
            [self.encoding.any_guard, *self._capacity_assumptions()],
            deadline=deadline,
        )

    def verify_case(self, case: DeadlockCase, deadline=None) -> VerificationResult:
        """Check one tagged disjunct of the deadlock assertion."""
        return self._run(
            [case.guard, *self._capacity_assumptions()], deadline=deadline
        )

    def verify_channel(
        self, queue: Queue | str, color: Color, deadline=None
    ) -> VerificationResult:
        """Can ``queue`` hold a permanently stuck ``color`` packet?"""
        name = queue if isinstance(queue, str) else queue.name
        return self.verify_case(
            self.encoding.case_of("queue", name, color), deadline=deadline
        )

    def verify_source(
        self, source: Source | str, color: Color, deadline=None
    ) -> VerificationResult:
        """Can ``source`` be permanently refused ``color`` packets?"""
        name = source if isinstance(source, str) else source.name
        return self.verify_case(
            self.encoding.case_of("source", name, color), deadline=deadline
        )

    def verify_all_cases(self, deadline=None) -> list[VerificationResult]:
        """One verdict per deadlock case, in encoding order.

        The per-channel fan-out of the paper's workflow; the parallel
        session (:class:`repro.core.parallel.ParallelVerificationSession`)
        answers the same list concurrently.  One deadline bounds the
        whole list: once it expires the remaining cases answer
        ``TIMEOUT`` immediately.
        """
        deadline = Deadline.coerce(deadline)
        return [
            self.verify_case(case, deadline=deadline)
            for case in self.encoding.cases
        ]

    def enumerate_witnesses(self, limit: int = 16) -> Iterator[DeadlockWitness]:
        """Yield distinct deadlock candidates (up to ``limit``).

        Each witness differs from all previous ones in automaton states or
        in some queue-occupancy value.  Blocking clauses are guarded by a
        fresh assumption literal that only *this generator's* checks
        assume, so a suspended enumeration never influences other session
        queries — ``verify``/``verify_case`` stay sound mid-enumeration,
        and several enumerations can run interleaved, each independent.
        """
        enum_guard = boolvar()  # fresh anonymous guard per enumeration
        try:
            for _ in range(limit):
                result = self._run(
                    [
                        self.encoding.any_guard,
                        enum_guard,
                        *self._capacity_assumptions(),
                    ]
                )
                if result.deadlock_free:
                    return
                # Capture the blocking shape *before* yielding: while this
                # generator is suspended, other session queries may run and
                # invalidate the solver's current model.
                model = self.solver.model()
                shape = []
                for automaton in self.network.automata():
                    for state in automaton.states:
                        var = self.pool.state(automaton, state)
                        shape.append(eq(var, model[var]))
                for queue in self.network.queues():
                    for color in self.colors.of(self.network.channel_of(queue.i)):
                        var = self.pool.occupancy(queue, color)
                        shape.append(eq(var, model[var]))
                yield result.witness
                self.solver.add_global(
                    implies(enum_guard, neg(conj(*shape)))
                )
        finally:
            # Retire the guard so its blocking clauses are satisfied (and
            # never burden later searches), even on early abandonment.
            self.solver.add_global(neg(enum_guard))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cumulative session statistics (durations, solver clause count)."""
        return {
            "network": self.network.stats(),
            "color_pairs": self.colors.total_pairs(),
            "invariant_count": len(self._invariants),
            "clauses": self.solver.clause_count(),
            "durations": dict(self.watch.durations),
        }


INVARIANT_MODES = ("eager", "lazy", "partial", "none")


class Strengthening:
    """The invariant-strengthening policy of one session's probe walk.

    Decides when the cross-layer invariants are conjoined, and records
    what that cost.  The ``invariants=`` modes:

    * ``"eager"`` — :meth:`prepare` conjoins the full set before the
      first probe;
    * ``"lazy"`` — the first deadlock candidate that survives plain
      block/idle detection conjoins the full set and is re-asked
      (invariants only strengthen, so a deadlock-free verdict without
      them stays deadlock-free with them);
    * ``"partial"`` — every surviving candidate runs the CEGAR loop
      (:meth:`~repro.core.invariants.InvariantSelector.refine`) through
      the statically ranked rows its model violates, in geometrically
      growing ``rank_budget`` / ``rank_growth`` batches, ending at the
      full set at the latest;
    * ``"none"`` — never strengthen: plain block/idle detection.

    Every mode but ``"none"`` answers each probe exactly as eager mode
    does.  One object serves one session, because the rows it conjoined
    stay in that session's solver.

    Accounting: ``invariants_used`` (rows in force), ``lazy_escalations``
    (escalation steps), ``invariants_generated`` (rows encoded),
    ``rank_histogram`` (partial: rows per static-rank tier) and
    ``seconds`` (time spent generating and conjoining rows).
    """

    def __init__(
        self,
        invariants: str = "eager",
        rank_budget: int | None = None,
        rank_growth: int | None = None,
    ):
        if invariants not in INVARIANT_MODES:
            raise ValueError(
                f"invariants must be one of {INVARIANT_MODES}, "
                f"got {invariants!r}"
            )
        self.mode = invariants
        self.upfront = invariants == "eager"
        self.deferred = invariants == "lazy"
        self.refining = invariants == "partial"
        self.rank_budget, self.rank_growth = InvariantSelector.schedule(
            rank_budget, rank_growth
        )
        self.invariants_used = False
        self.lazy_escalations = 0
        self.invariants_generated = 0
        self.rank_histogram: dict[int, int] = {}
        self.seconds = 0.0
        self._selector: InvariantSelector | None = None

    def prepare(self, session: VerificationSession) -> None:
        """Strengthen ``session`` before its first probe (eager mode)."""
        if self.upfront:
            self._conjoin_all(session)

    def settle(
        self,
        session: VerificationSession,
        result: VerificationResult,
        reask: Callable[[], VerificationResult],
    ) -> VerificationResult:
        """The final answer to one probe, strengthening as the mode asks.

        ``reask`` re-runs the probe (capacity pins included).  A TIMEOUT
        or deadlock-free ``result`` comes back untouched: an expired probe
        has no model to refine against, and its budget is the caller's.
        """
        if result.timed_out or result.deadlock_free:
            return result
        if self.deferred and not self.invariants_used:
            self._conjoin_all(session)
            self.lazy_escalations += 1
            return reask()
        if not self.refining:
            return result
        ranked = self._timed(session.spec.ranked_invariants)
        if self._selector is None:
            self._selector = InvariantSelector(
                encode_invariant_rows(ranked), self.rank_budget, self.rank_growth
            )
        selector = self._selector
        result, delta = selector.refine(
            result,
            lambda answer: not answer.deadlock_free and not answer.timed_out,
            session.invariant_value_of,
            lambda batch: self._timed(
                lambda: session.conjoin_invariants([ranked[i] for i in batch])
            ),
            reask,
        )
        result.stats["invariant_selection"] = delta
        self.lazy_escalations = selector.escalations
        self.invariants_generated = selector.generated
        self.rank_histogram = dict(selector.rank_histogram)
        self.invariants_used = self.invariants_generated > 0
        return result

    def _conjoin_all(self, session: VerificationSession) -> None:
        self._timed(session.add_invariants)
        self.invariants_used = True
        self.invariants_generated = len(session.invariants)

    def _timed(self, thunk: Callable):
        start = perf_counter()
        try:
            return thunk()
        finally:
            self.seconds += perf_counter() - start
