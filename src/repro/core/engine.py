"""The incremental verification engine: one encoding, many queries.

ADVOCAT's workflow is inherently *many queries over one model*: the
block/idle equation system is fixed per network, but it is re-solved under
different assertions — the full deadlock check, per-channel candidate
queries, invariant-strengthened re-checks, witness enumeration, and the
Figure-4 queue-size sweep.  The work splits into two phases:

* **build** — :class:`SessionSpec` derives the colors, the deadlock
  encoding (with guard-tagged disjuncts and symbolic ``cap[q]``
  capacities) and, on demand, the cross-layer invariants.  All of it is
  computed once per network and shared by every session over it.
* **query** — :class:`VerificationSession` loads a spec into one
  incremental :class:`~repro.smt.Solver`, binds the one query engine
  (:class:`~repro.core.parallel.WorkerSession`) to it without a snapshot
  or restore, renders answers with :meth:`SessionSpec.read_payload`, and
  answers every query by *assumption*:

  - each disjunct of the deadlock assertion carries a guard literal
    (:class:`~repro.core.deadlock.DeadlockCase`), so ``verify_channel``
    asks about a single queue/color by assuming that one guard;
  - ``verify`` assumes the master guard ("some disjunct fires");
  - queue capacities are symbolic ``cap[q]`` variables pinned by
    assumption (the network's own sizes until ``resize_queues``), so a
    different size is re-probed without rebuilding anything;
  - ``enumerate_witnesses`` adds its blocking clauses to a private copy
    restored from the session's warm snapshot, so enumeration leaves the
    session's own solver untouched.

All clauses the CDCL core learns while answering one query — including
branch-and-bound splits and theory-conflict clauses — remain in force for
every later query, which is what makes a sweep on one session cheaper
than a fresh solver per query.

The split is what makes parallel orchestration possible:
:meth:`SessionSpec.snapshot` flattens the built encoding into a
pickle-safe :class:`SessionSnapshot` (CNF image + guard names + witness
recipe), from which worker processes rehydrate query sessions without
re-deriving colors, invariants or the encoding.  A session opened with
``jobs > 1`` sends its two fan-outs, ``verify_all_cases`` and
``probe_shards``, to such workers (:mod:`repro.core.parallel`); its
single queries never leave its own solver.

The sizing and experiment layers take an ``invariants=`` mode:
``"eager"`` conjoins the full invariant set before the first probe
(:meth:`VerificationSession.add_invariants`, or
:meth:`SessionSpec.generate_invariants` before a snapshot, which bakes
the rows into every worker's image) and ``"none"`` never strengthens.
:func:`eager_invariants` validates the mode; it is the one place that
branches on it.

:func:`repro.core.proof.verify` and friends are thin wrappers over a
throwaway session, so the one-shot API is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, Mapping, Sequence

from ..smt import (
    IntVar,
    Model,
    Solver,
    SolverSnapshot,
    Term,
    ge,
    intvar,
    snapshot_solver,
)
from ..xmas import Network, Queue
from .cache import stable_hash
from .colors import derive_colors
from .deadlock import DeadlockCase, encode_deadlock
from .invariants import generate_invariants
from .parallel import POOL_ATTEMPTS, WorkerSession, gather, start_pool
from .result import DeadlockWitness, Invariant, Verdict, VerificationResult
from .vars import VarPool

__all__ = [
    "SessionSpec",
    "SessionSnapshot",
    "VerificationSession",
    "INVARIANT_MODES",
    "eager_invariants",
]

Color = Hashable

ANY_CASE_LABEL = "deadlock assertion (any case)"


def resolve_resize(
    current: Mapping[str, int], sizes: int | Mapping[str, int]
) -> dict[str, int]:
    """Validate a ``resize_queues`` request against the current size map.

    Returns the full updated map.  Shared by the session and the service
    so both reject the same inputs identically.
    """
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

    # None when the snapshot only carries the tables of a live binding
    # (WorkerSession.over), whose solver is already loaded.
    solver: SolverSnapshot | None
    case_guard_names: tuple[str, ...]  # aligned with encoding.cases
    any_guard_name: str
    capacity_uids: tuple[tuple[str, int], ...]  # (queue name, cap var uid)
    witness_int_uids: tuple[int, ...]
    witness_bool_names: tuple[str, ...]
    default_sizes: tuple[tuple[str, int], ...]
    # How many invariants are baked into the solver image — reporting
    # metadata for consumers that only hold the snapshot.
    invariant_count: int

    def content_hash(self) -> str:
        """Stable SHA-256 identity of the canonical encoding image.

        Two snapshots of the *same* encoding hash identically even when
        built in different processes, provided those processes share a
        ``PYTHONHASHSEED``: integer-variable uids are process-local
        counters, so the hash renumbers them by rank in the name-sorted
        variable table (every variable reachable from a deadlock encoding
        carries a deterministic name — guards, pool occupancies,
        ``cap[q]`` capacities), but the build still iterates sets, so the
        clause list and SAT-variable numbering follow the hash seed.  Under
        different hash seeds one network can hash differently (see the
        ROADMAP item "Canonical encoding order").  Scheduling state is
        excluded — learned clauses and saved phases steer the *search*,
        never the encoded formula — so warm and cold snapshots of one
        encoding share a cache identity.  A false identity collision
        would be a wrong cached verdict, which is why the service layer
        keys its verdict store on this hash.

        The hash covers the clause list, so a change of encoding moves it:
        clausifying top-level assertions directly instead of through one
        Tseitin gate each moved every content hash once, and binding the
        block/idle definitions to shared variables moved it again.  A
        store written by a build from before such a change then misses
        and rebuilds; it never returns a wrong answer.
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
        }
        return stable_hash(payload)


class SessionSpec:
    """The build phase: network → colors → encoding (→ invariants), once.

    Queue capacities are symbolic ``cap[q]`` variables (``capacities``)
    that every query pins by assumption, so one spec answers for any
    queue sizes; ``initial_sizes`` are the network's own.  A spec is
    immutable except for on-demand invariant generation and carries no
    solver; any number of :class:`VerificationSession` (or parallel
    worker sessions, via :meth:`snapshot`) can be opened over one spec
    without re-deriving anything.

    Parameters
    ----------
    network:
        A validated (or validatable) closed xMAS network.
    rotating_precision:
        Use the stronger block rule for ``rotating`` queues (see
        :mod:`repro.core.deadlock`).
    """

    def __init__(self, network: Network, rotating_precision: bool = True):
        network.validate()
        self.network = network
        self.rotating_precision = rotating_precision
        self.colors = derive_colors(network)
        self.pool = VarPool()
        self.initial_sizes: dict[str, int] = {
            q.name: q.size for q in network.queues()
        }
        self.capacities: dict[str, IntVar] = {
            q.name: intvar(f"cap[{q.name}]") for q in network.queues()
        }
        self._invariants: list[Invariant] | None = None
        self.encoding = encode_deadlock(
            network,
            self.colors,
            self.pool,
            rotating_precision=rotating_precision,
            capacities=self.capacities,
        )

    # ------------------------------------------------------------------
    @property
    def invariants(self) -> list[Invariant] | None:
        """The generated invariants, or ``None`` before
        :meth:`generate_invariants`.  Sessions and pools treat a
        non-``None`` value as "conjoin on load"."""
        return None if self._invariants is None else list(self._invariants)

    def generate_invariants(self) -> list[Invariant]:
        """Derive the cross-layer invariants (idempotent)."""
        if self._invariants is None:
            self._invariants = generate_invariants(
                self.network, self.colors, self.pool
            )
        return list(self._invariants)

    # ------------------------------------------------------------------
    def base_terms(self) -> Iterator[Term]:
        """Every base-level assertion past the definitions, in load order."""
        yield from self.encoding.domain
        yield from self.encoding.guard_terms()
        for capacity in self.capacities.values():
            yield ge(capacity, 0)

    def load_solver(self) -> Solver:
        """A fresh solver with the full encoding (and any generated
        invariants) asserted, its definitions bound first."""
        solver = Solver()
        solver.define(self.encoding.definitions)
        for term in self.base_terms():
            solver.add(term)
        if self._invariants is not None:
            for invariant in self._invariants:
                solver.add(invariant.term())
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

    def snapshot(self, solver: Solver | None = None) -> SessionSnapshot:
        """Flatten the built encoding into a :class:`SessionSnapshot`.

        Captures the CNF image of ``solver`` — a fresh
        :meth:`load_solver` result, or a throwaway one loaded here —
        together with the guard-name tables and the witness recipe.
        Invariants are included iff they have been generated on this
        spec.  The result is a *cold* snapshot — use
        :meth:`VerificationSession.snapshot` to capture a live session's
        learned clauses and phases along with it.
        """
        if solver is None:
            solver = self.load_solver()
        return self.wrap_solver_snapshot(snapshot_solver(solver))

    def engine(
        self, solver: Solver, snapshot: SessionSnapshot | None = None
    ) -> WorkerSession:
        """The query engine over ``solver``, loaded by :meth:`load_solver`
        (no restore).  ``snapshot`` is that solver's image when the caller
        took one; without it only the guard tables ride along."""
        ints = dict(self.var_by_uid)
        ints.update((var.uid, var) for var in self.capacities.values())
        if snapshot is None:
            snapshot = self.wrap_solver_snapshot(None)
        return WorkerSession.over(snapshot, solver, ints)

    def wrap_solver_snapshot(self, solver_snapshot) -> SessionSnapshot:
        """Bundle an already-captured solver image with this spec's guard
        tables, witness recipe and size defaults."""
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
            invariant_count=len(self._invariants or ()),
        )

    # ------------------------------------------------------------------
    # Reading worker answers back into this spec's term space
    # ------------------------------------------------------------------
    @cached_property
    def var_by_uid(self) -> dict[int, IntVar]:
        """``uid → variable`` over the pool's state/occupancy variables:
        what a model read-out (witness slice, invariant row) names."""
        table = {var.uid: var for _, var in self.pool.state_items()}
        table.update((var.uid, var) for _, var in self.pool.occupancy_items())
        return table

    @cached_property
    def network_stats(self) -> dict[str, int]:
        """``network.stats()``, a constant of the spec: computed once,
        copied into each result's stats."""
        return self.network.stats()

    @cached_property
    def color_pairs(self) -> int:
        """``colors.total_pairs()``, a constant of the spec."""
        return self.colors.total_pairs()

    @cached_property
    def guard_labels(self) -> dict[str, str]:
        """Guard-variable name → deadlock-case label (master guard too)."""
        labels = {case.guard.name: case.label for case in self.encoding.cases}
        labels[self.encoding.any_guard.name] = ANY_CASE_LABEL
        return labels

    @cached_property
    def case_index(self) -> dict[str, int]:
        """Guard-variable name → index into ``encoding.cases``."""
        return {
            case.guard.name: index
            for index, case in enumerate(self.encoding.cases)
        }

    def read_payload(
        self,
        payload: tuple,
        sizes: Mapping[str, int],
        invariants: Sequence[Invariant] = (),
    ) -> VerificationResult:
        """One worker payload → a :class:`VerificationResult` here.

        ``payload`` is what :meth:`repro.core.parallel.WorkerSession.check`
        returns.  ``sizes`` are the capacities the probe pinned and
        ``invariants`` the rows the result reports.  Unsat-core guard
        names become case labels and a witness slice becomes a witness
        over this spec's variables.
        """
        kind, a, b, solver_stats, elapsed = payload
        solver_stats = dict(solver_stats)
        solver_profile = solver_stats.pop("profile", {})
        stats = {
            "network": dict(self.network_stats),
            "color_pairs": self.color_pairs,
            "invariant_count": len(invariants),
            "solver": solver_stats,
            "solver_profile": solver_profile,
            "solve_seconds": elapsed,
            "queue_sizes": dict(sizes),
        }
        witness = core = None
        if kind == "unknown":
            # The worker's share of the run budget expired: a first-class
            # TIMEOUT, with whatever stats the cutoff left behind.
            verdict = Verdict.TIMEOUT
            stats["timed_out"] = True
        elif kind == "unsat":
            verdict = Verdict.DEADLOCK_FREE
            stats["formula_unsat"] = b
            core = [self.guard_labels.get(name, name) for name in a]
        else:
            verdict = Verdict.DEADLOCK_CANDIDATE
            if a is not None:
                model = Model(
                    {self.var_by_uid[uid]: value for uid, value in a.items()},
                    dict(b),
                )
                witness = proof.extract_witness(
                    self.network, self.colors, self.pool, model
                )
        return VerificationResult(
            verdict,
            witness=witness,
            invariants=list(invariants),
            stats=stats,
            unsat_core=core,
        )


class VerificationSession:
    """Incremental, assumption-based verification of one xMAS network.

    Parameters
    ----------
    network:
        The network to verify; ignored when ``spec`` is given.
    rotating_precision:
        Build option, forwarded to :class:`SessionSpec` (ignored when
        ``spec`` is given — the spec already fixed it).
    spec:
        A prebuilt :class:`SessionSpec` to open a query session over
        without repeating the build phase.  If the spec already has
        invariants generated, they are loaded immediately.
    jobs:
        Workers for the two fan-outs, :meth:`verify_all_cases` and
        :meth:`probe_shards`.  With 1 (the default) they run on this
        session's own solver like every other query; with more they run
        on a pool of ``jobs`` workers, whatever the CPU count.
    backend:
        ``"process"`` (true parallelism) or ``"thread"`` (GIL-bound, for
        tests and debugging).

    Invariants are *not* generated up front; call :meth:`add_invariants`
    to derive and conjoin them (idempotent).  This keeps the plain
    block/idle mode (paper Section 3) available from the same session.

    Queries run on :class:`~repro.core.parallel.WorkerSession` bound to
    this session's solver, and render through :meth:`SessionSpec.read_payload`.
    Only a fan-out with more than one worker leaves the process: its
    pool starts on first use from a warm :meth:`snapshot`, restarts
    when :meth:`add_invariants` strengthens the encoding, and is
    released by :meth:`close` or the context manager.  Opening a session
    starts no pool and takes no snapshot.
    """

    def __init__(
        self,
        network: Network | None = None,
        rotating_precision: bool = True,
        spec: SessionSpec | None = None,
        jobs: int = 1,
        backend: str = "process",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        self.jobs = jobs
        self.backend = backend
        # Recovery accounting: pool rebuilds after a BrokenExecutor (at
        # most POOL_ATTEMPTS per fan-out), and whether the fan-outs fell
        # back to this session's solver for good.
        self.recoveries = 0
        self.degraded = False
        self._executor = None
        # Whether invariants were loaded when the pool took its snapshot.
        self._pool_key: bool | None = None
        if spec is None:
            if network is None:
                raise TypeError("VerificationSession needs a network or a spec")
            spec = SessionSpec(network, rotating_precision=rotating_precision)
        self.spec = spec
        self.network = spec.network
        self.colors = spec.colors
        self.pool = spec.pool
        self.encoding = spec.encoding
        self._sizes: dict[str, int] = dict(spec.initial_sizes)
        # The invariants loaded into the solver; None until conjoined.
        self._invariants: list[Invariant] | None = spec.invariants
        self.solver = spec.load_solver()
        # The one query engine over this live solver; the snapshot only
        # carries the tables.
        self._engine = spec.engine(self.solver)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _shutdown_pool(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Release the worker pool, if one runs (idempotent).  The session
        stays usable; a later pooled fan-out starts a fresh pool."""
        self._shutdown_pool()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; close() is the real API
        try:
            # wait=False: a finalizer must not block the GC thread on an
            # in-flight solver query (running jobs cannot be cancelled).
            self._shutdown_pool(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def resize_queues(self, sizes: int | Mapping[str, int]) -> None:
        """Re-target later queries at different queue capacities.

        ``sizes`` is either one uniform size or a mapping from queue name
        to size (unmentioned queues keep their current size).  Nothing is
        re-encoded or restarted — the pins travel with each query (the
        engine lazily mints a guard literal implying ``cap[q] == size``
        per pair).
        """
        self._sizes = resolve_resize(self._sizes, sizes)

    @property
    def queue_sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    def add_invariants(self) -> list[Invariant]:
        """Derive the cross-layer invariants and conjoin them (idempotent).

        Invariants hold in every reachable configuration, so adding them is
        a permanent, sound strengthening — there is nothing to retract.
        A running pool restarts from the strengthened encoding at the
        next pooled fan-out.
        """
        if self._invariants is None:
            invariants = self.spec.generate_invariants()
            for invariant in invariants:
                self.solver.add(invariant.term())
            self._invariants = invariants
        return list(self._invariants)

    @property
    def invariants(self) -> list[Invariant]:
        return list(self._invariants or ())

    # ------------------------------------------------------------------
    # Warm-start state
    # ------------------------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """A warm :class:`SessionSnapshot` of this *live* session.

        Unlike :meth:`SessionSpec.snapshot` (which loads a cold throwaway
        solver), this captures the session's own solver — including its
        learned-clause tail (at :func:`~repro.smt.snapshot_solver`'s
        default cap) and saved phases — so workers rehydrated from it
        answer their first query without re-deriving what this session
        already learned.
        """
        return self.spec.wrap_solver_snapshot(
            snapshot_solver(self.solver, include_learned=True)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _run(self, target, deadline=None) -> VerificationResult:
        """Ask the engine about ``target`` (``None`` for the master guard,
        a case index otherwise) under the current pins, then render."""
        sizes = tuple(self._sizes.items())
        payload = self._engine.bounded_check(deadline, target, sizes, True)
        return self.spec.read_payload(payload, self._sizes, self.invariants)

    def verify(self, deadline=None) -> VerificationResult:
        """The full deadlock check: "does *some* disjunct fire?"."""
        return self._run(None, deadline)

    def verify_case(self, case: DeadlockCase, deadline=None) -> VerificationResult:
        """Check one tagged disjunct of the deadlock assertion.

        A deadlock candidate's witness may come from the model of an
        earlier query in which this disjunct already held (see "Model
        reuse" in :mod:`repro.smt.solver`); it is a deadlock in which this
        case fires all the same.
        """
        return self._run(self.spec.case_index[case.guard.name], deadline)

    def verify_channel(
        self, queue: Queue | str, color: Color, deadline=None
    ) -> VerificationResult:
        """Can ``queue`` hold a permanently stuck ``color`` packet?"""
        name = queue if isinstance(queue, str) else queue.name
        return self.verify_case(
            self.encoding.case_of("queue", name, color), deadline=deadline
        )

    def verify_all_cases(self, deadline=None) -> list[VerificationResult]:
        """One verdict per deadlock case, in encoding order.

        The per-channel fan-out of the paper's workflow.  With one worker
        the cases run here, one :meth:`verify_case` each; with more they
        go to the pool, and result ``i`` still answers
        ``encoding.cases[i]`` whichever worker finished first.

        One :class:`~repro.core.resilience.Deadline` bounds the whole
        fan-out.  Run here, once it expires the remaining cases answer
        ``TIMEOUT`` without entering the solver.  On a pool, the priming
        query runs under it, each job carries it to its worker, and the
        parent stops waiting when it runs out: cases not answered by then
        answer ``TIMEOUT``.

        A witness may come from an earlier case's model on the same
        solver, as for :meth:`verify_case`, so which deadlock a case
        reports can depend on the cases asked before it; the verdicts
        do not.
        """
        cases = self.encoding.cases
        sizes = tuple(self._sizes.items())
        payloads = self._fan_out(
            [("check", index, sizes, True) for index in range(len(cases))],
            deadline,
            chunksize=max(1, len(cases) // (self.jobs * 4)),
        )
        if payloads is None:
            return [self.verify_case(case, deadline) for case in cases]
        invariants = self.invariants
        return [
            self.spec.read_payload(payload, self._sizes, invariants)
            for payload in payloads
        ]

    def probe_shards(
        self,
        shards: Sequence[Sequence[Mapping[str, int]]],
        want_witness: bool = True,
        deadline=None,
    ) -> list[list[VerificationResult]]:
        """Run the full check under each capacity assignment, sharded.

        ``shards[w]`` is the ordered list of per-queue size assignments
        worker ``w`` probes on its own solver — ascending order within a
        shard warm-starts each probe with the clauses learned on the
        previous ones.  With one worker every shard is walked on this
        session's own solver, one after another.  Returns results
        aligned with the input structure.  Probes answer under the
        encoding as it stands: call :meth:`add_invariants` first to bake
        the invariants into the worker snapshot.  ``deadline`` bounds the
        whole call as for :meth:`verify_all_cases`.
        """
        full_shards = [
            [
                resolve_resize(self._sizes, dict(assignment))
                for assignment in shard
            ]
            for shard in shards
        ]
        probe_lists = [
            tuple((None, tuple(full.items())) for full in shard)
            for shard in full_shards
        ]
        payload_lists = self._fan_out(
            [("shard", probes, want_witness) for probes in probe_lists],
            deadline,
        )
        if payload_lists is None:
            payload_lists = [
                self._engine.walk(probes, want_witness, deadline)
                for probes in probe_lists
            ]
        invariants = self.invariants
        return [
            [
                self.spec.read_payload(payload, full, invariants)
                for full, payload in zip(shard, payloads)
            ]
            for shard, payloads in zip(full_shards, payload_lists)
        ]

    # ------------------------------------------------------------------
    # The worker pool behind the fan-outs
    # ------------------------------------------------------------------
    def _ensure_pool(self, deadline):
        """The running executor; ``None`` if the deadline ran out while
        priming its snapshot.

        The pool starts from a *warm* snapshot: one master-guard
        :meth:`verify` drives this solver through the case analysis every
        job repeats, and its learned clauses and saved phases ship with
        the CNF image.  A pool whose snapshot predates
        :meth:`add_invariants` is restarted.
        """
        key = self._invariants is not None
        if self._executor is not None and self._pool_key != key:
            self._shutdown_pool()
        if self._executor is None:
            self.verify(deadline)
            if deadline is not None and deadline.expired():
                return None
            self._executor = start_pool(self.jobs, self.backend, self.snapshot())
            self._pool_key = key
        return self._executor

    def _fan_out(self, job_list, deadline, chunksize: int = 1):
        """The pool's payloads for ``job_list``; ``None`` when the fan-out
        runs on this session instead: one worker, or a quarantined pool."""
        if self.jobs == 1 or self.degraded:
            return None
        from concurrent.futures import BrokenExecutor

        for _ in range(POOL_ATTEMPTS):
            try:
                executor = self._ensure_pool(deadline)
                return gather(executor, job_list, deadline, chunksize)
            except BrokenExecutor:
                # A worker died and poisoned the pool.  Rebuild it and
                # replay the identical job list: every job answers from
                # the same encoding, so recovered verdicts are identical.
                self._shutdown_pool(wait=False)
                self.recoveries += 1
        # Workers died on every attempt (say a job deterministically
        # crashes its process): quarantine the pool for good and answer
        # on this session's own solver.
        self.degraded = True
        return None

    def enumerate_witnesses(self, limit: int = 16) -> Iterator[DeadlockWitness]:
        """Yield distinct deadlock candidates (up to ``limit``).

        Each witness differs from all previous ones in automaton states or
        in some queue-occupancy value.  The enumeration runs on a private
        :class:`~repro.core.parallel.WorkerSession` restored from this
        session's warm :meth:`snapshot` when the first witness is asked
        for, under the queue sizes of that moment, and its blocking
        clauses go to that copy only: other session queries stay sound
        mid-enumeration, several enumerations run independently, and the
        session's solver and snapshots never carry them.
        """
        copy = WorkerSession(self.snapshot())
        sizes = dict(self._sizes)
        for _ in range(limit):
            payload = copy.check(None, tuple(sizes.items()))
            result = self.spec.read_payload(payload, sizes, self.invariants)
            if result.deadlock_free:
                return
            yield result.witness
            copy.exclude(payload[1])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Session statistics (solver clause count) and the state of the
        fan-out pool."""
        return {
            "network": dict(self.spec.network_stats),
            "color_pairs": self.spec.color_pairs,
            "invariant_count": len(self.invariants),
            "clauses": self.solver.clause_count(),
            "jobs": self.jobs,
            "backend": self.backend,
            "pool_running": self._executor is not None,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
        }


INVARIANT_MODES = ("eager", "none")


def eager_invariants(mode: str) -> bool:
    """Validate an ``invariants=`` mode; ``True`` means ``"eager"``.

    ``"eager"`` conjoins the full cross-layer invariant set before the
    first probe (:meth:`VerificationSession.add_invariants`); ``"none"``
    never strengthens: plain block/idle detection (paper Section 3).
    The retired ``"lazy"`` and ``"partial"`` modes answered every probe
    exactly as ``"eager"`` does, so the error names it.
    """
    if mode not in INVARIANT_MODES:
        raise ValueError(
            f"invariants must be one of {INVARIANT_MODES}, got {mode!r} "
            "(the former 'lazy' and 'partial' modes gave the same "
            "verdicts as 'eager'; use 'eager')"
        )
    return mode == "eager"


# proof imports this module (its one-shot wrappers open sessions), so it
# is imported last: it then loads with the engine rather than at the first
# witness a query reads back.
from . import proof  # noqa: E402
