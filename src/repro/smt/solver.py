"""Public SMT solver facade.

Usage::

    from repro.smt import Solver, Result, intvar, le

    x = intvar("x")
    solver = Solver()
    solver.add(le(0, x))
    solver.add(le(x, 5))
    solver.add(le(3, x + 1))
    if solver.check() == Result.SAT:
        print(solver.model()[x])

The solver decides quantifier-free linear integer arithmetic with arbitrary
boolean structure.  Rational relaxations are solved by the exact simplex;
integrality is enforced by branch-and-bound: whenever the SAT+LRA search
finds a model with a fractional integer variable ``x = v``, the globally
valid split clause ``(x ≤ ⌊v⌋) ∨ (x ≥ ⌊v⌋+1)`` is added and the search
resumes with all learned clauses intact.

The facade is *incremental*: the CNF conversion, the CDCL core, the theory
bridge and every learned clause and branch-and-bound split persist across
:meth:`Solver.check` calls.  Three mechanisms build on that retention:

* ``check(assumptions=[...])`` decides the query under temporary
  assumptions (arbitrary terms); after an UNSAT answer,
  :meth:`Solver.unsat_core` names the responsible assumptions.
* :meth:`Solver.push` / :meth:`Solver.pop` scope later assertions with
  selector literals, so popped assertions are retracted without discarding
  any learned clause.
* repeated ``check`` calls on a monotonically growing assertion set reuse
  all prior work (the classic ``add``/``check`` loop).

Branch-and-bound terminates whenever every integer variable is bounded by
the constraints (true for every formula ADVOCAT generates: occupancies lie
in ``[0, queue.size]`` and state variables in ``[0, 1]``).  A ``max_splits``
safety valve raises :class:`SolverBudgetError` otherwise.
"""

from __future__ import annotations

import enum
from itertools import islice
from math import floor
from typing import Callable, Sequence

from .cnf import CnfBuilder
from .lia import LiaBridge
from .sat import SAT, UNKNOWN, Cdcl
from .terms import TRUE, IntVar, Term, ge, le

__all__ = ["Solver", "Result", "Model", "SolverBudgetError"]


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    # A cooperatively bounded check() ran out of its conflict slice or was
    # told to stop (portfolio racing); no verdict, every learned clause and
    # branch-and-bound split is retained for the next call.
    UNKNOWN = "unknown"


class SolverBudgetError(RuntimeError):
    """The branch-and-bound split budget was exhausted."""


class Model:
    """A satisfying assignment; index with :class:`IntVar`, BoolVar or name.

    Indexing a variable the model knows nothing about raises ``KeyError``
    (it would previously default to ``0``/``False``, silently masking
    encoding bugs).
    """

    def __init__(self, ints: dict[IntVar, int], bools: dict[str, bool]):
        self._ints = ints
        self._bools = bools

    def __getitem__(self, key: IntVar | Term | str) -> int | bool:
        if isinstance(key, IntVar):
            try:
                return self._ints[key]
            except KeyError:
                raise KeyError(
                    f"integer variable {key.name!r} is not constrained by the "
                    "checked formula, so the model assigns it no value"
                ) from None
        if isinstance(key, str):
            name = key
        else:
            name = getattr(key, "name", None)
            if name is None:
                raise KeyError(key)
        try:
            return self._bools[name]
        except KeyError:
            raise KeyError(
                f"boolean variable {name!r} does not occur in the checked "
                "formula, so the model assigns it no value"
            ) from None

    def __contains__(self, key: IntVar | Term | str) -> bool:
        if isinstance(key, IntVar):
            return key in self._ints
        name = key if isinstance(key, str) else getattr(key, "name", None)
        return name in self._bools

    def int_items(self) -> dict[IntVar, int]:
        return dict(self._ints)

    def bool_items(self) -> dict[str, bool]:
        return dict(self._bools)


class Solver:
    """Incremental QF_LIA solver over the repro term language.

    ``clause_reduction`` (with the ``reduce_base`` / ``reduce_growth`` /
    ``glue_keep`` knobs) controls the learned-clause lifecycle of the CDCL
    core — see :class:`~repro.smt.sat.Cdcl`.  Reduction never changes
    verdicts; disabling it reproduces the unbounded clause database of
    earlier revisions (measured by ``benchmarks/bench_warmstart.py``).
    """

    def __init__(
        self,
        max_splits: int = 100_000,
        clause_reduction: bool = True,
        reduce_base: int = 400,
        reduce_growth: float = 1.3,
        glue_keep: int = 2,
        glue_cap: int | None = None,
        reduce_keep: float = 0.5,
    ):
        self._max_splits = max_splits
        self._reduction_knobs = dict(
            reduction=clause_reduction,
            reduce_base=reduce_base,
            reduce_growth=reduce_growth,
            glue_keep=glue_keep,
            glue_cap=glue_cap,
            reduce_keep=reduce_keep,
        )
        self._cnf = CnfBuilder()
        self._bridge = LiaBridge()
        self._sat = Cdcl(theory=self._bridge, **self._reduction_knobs)
        self._flushed_clauses = 0
        self._registered_atoms = 0
        self._scopes: list[int] = []  # selector SAT variables, innermost last
        self._model: Model | None = None
        self._core: list[Term] | None = None
        self._formula_unsat: bool | None = None
        self.stats: dict[str, int] = {}
        # Per-query deltas of the CDCL core's hot-loop profile counters
        # (see Cdcl.profile) and of the simplex work counters, prefixed
        # ``simplex_`` (see Simplex.profile); same delta discipline as
        # ``stats``.
        self.profile: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Cloning and serialization
    # ------------------------------------------------------------------
    def fork(self) -> "Solver":
        """An independent solver over the same asserted formula.

        The CNF state (clauses, variable tables, scope stack) is copied;
        the clone gets a fresh CDCL core and theory bridge, populated
        lazily on its first :meth:`check`.  The learned-clause export and
        saved phases carry over (demoted below glue protection, like a
        snapshot restore), so a fork starts warm but evicts what its own
        query mix doesn't re-use.  Forks share immutable term objects
        with the original, so they are thread-cloning tools; use
        :meth:`snapshot` to cross processes.
        """
        clone = Solver(max_splits=self._max_splits, **self._fork_kwargs())
        clone._cnf = self._cnf.clone()
        clone._scopes = list(self._scopes)
        clone._sat.ensure_vars(clone._cnf.n_vars)
        clone._sat.seed_phases(self._sat.phase_vector())
        clone._sat.import_learned(
            self._sat.learned_clauses(),
            demote_to=clone._sat.glue_keep + 1,
        )
        return clone

    def _fork_kwargs(self) -> dict:
        knobs = dict(self._reduction_knobs)
        knobs["clause_reduction"] = knobs.pop("reduction")
        return knobs

    def snapshot(
        self,
        include_learned: bool = False,
        learned_cap: int = 4000,
        max_lbd: int | None = None,
    ):
        """A pickle-safe :class:`~repro.smt.serialize.SolverSnapshot`.

        With ``include_learned`` the snapshot additionally carries the
        CDCL core's learned-clause export (LBD-sorted, capped at
        ``learned_cap``) and its saved phase vector, so a solver restored
        from it starts *warm*: the first query replays none of the work
        this solver already did.  Sound because every exported clause is a
        resolvent of the snapshotted formula (plus LIA-valid lemmas).
        """
        from .serialize import snapshot_solver

        return snapshot_solver(
            self,
            include_learned=include_learned,
            learned_cap=learned_cap,
            max_lbd=max_lbd,
        )

    @classmethod
    def from_snapshot(cls, snapshot) -> "Solver":
        """Rehydrate a solver from :meth:`snapshot` (possibly cross-process).

        Returns only the solver; use
        :func:`repro.smt.serialize.restore_solver` when the restored
        integer variables are needed for new arithmetic.
        """
        from .serialize import restore_solver

        solver, _ = restore_solver(snapshot)
        return solver

    # ------------------------------------------------------------------
    # Assertions and scopes
    # ------------------------------------------------------------------
    def add(self, term: Term, scope: int | None = None) -> None:
        """Assert ``term``; invalidates any previously extracted model.

        Inside a :meth:`push` scope the assertion is guarded by the scope's
        selector literal and is retracted by the matching :meth:`pop`.
        ``scope`` (a token returned by :meth:`push`) targets a specific open
        scope instead of the innermost one — required for correctness when
        scopes are interleaved, e.g. two concurrently open witness
        enumerations.
        """
        self._model = None
        if scope is not None:
            if scope not in self._scopes:
                raise RuntimeError(f"scope {scope} is not open")
            selector = scope
        elif self._scopes:
            selector = self._scopes[-1]
        else:
            self._cnf.assert_term(term)
            return
        if term is TRUE:
            return
        self._cnf.clauses.append([-selector, self._cnf.literal(term)])

    def add_global(self, term: Term) -> None:
        """Assert ``term`` at the base level, bypassing any open scope.

        For facts that must survive every :meth:`pop` — e.g. sound
        strengthenings (invariants) or guard definitions created lazily
        while a scope happens to be open.
        """
        self._model = None
        self._cnf.assert_term(term)

    def push(self) -> int:
        """Open a retraction scope for subsequent :meth:`add` calls.

        Returns a scope token for targeted :meth:`add`/:meth:`pop` — scopes
        are independent selector literals, so a specific scope can be
        retired even when it is no longer the innermost one.
        """
        selector = self._cnf.new_var()
        self._scopes.append(selector)
        return selector

    def pop(self, scope: int | None = None) -> None:
        """Retract every assertion added under a scope.

        Without ``scope``, pops the innermost open scope; with a token from
        :meth:`push`, retires exactly that scope wherever it sits in the
        stack.  Implemented by retiring the scope's selector literal, so
        clauses learned while the scope was active stay in the solver (they
        carry the negated selector and are satisfied from now on).
        """
        if not self._scopes:
            raise RuntimeError("pop() without a matching push()")
        if scope is None:
            selector = self._scopes.pop()
        else:
            if scope not in self._scopes:
                raise RuntimeError(f"scope {scope} is not open")
            self._scopes.remove(scope)
            selector = scope
        self._cnf.clauses.append([-selector])
        self._model = None

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Hand new vars, atoms and clauses to the SAT core and bridge."""
        cnf = self._cnf
        self._sat.ensure_vars(cnf.n_vars)
        if len(cnf.atom_of_var) > self._registered_atoms:
            # Dicts preserve insertion order: only the unseen tail is new.
            for satvar, atom in islice(
                cnf.atom_of_var.items(), self._registered_atoms, None
            ):
                self._bridge.register_atom(satvar, atom)
            self._registered_atoms = len(cnf.atom_of_var)
        for clause in cnf.clauses[self._flushed_clauses:]:
            self._sat.add_clause(clause)
        self._flushed_clauses = len(cnf.clauses)

    def check(
        self,
        assumptions: Sequence[Term] = (),
        conflict_limit: int | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> Result:
        """Decide the asserted formula, optionally under ``assumptions``.

        Assumptions are arbitrary terms that hold for this call only; all
        clauses learned while answering remain valid afterwards.  On UNSAT
        with assumptions, :meth:`unsat_core` returns a responsible subset.

        ``conflict_limit`` bounds the SAT conflicts spent in this call
        (shared across branch-and-bound iterations) and ``should_stop`` is
        polled inside the search; when either fires the call returns
        :attr:`Result.UNKNOWN` with no model/core, keeping every learned
        clause and split so a later ``check`` resumes the work.  This is
        the slice primitive the portfolio layer races on.
        """
        self._model = None
        self._core = None
        self._formula_unsat = None
        if self._cnf.unsatisfiable:
            # A bare FALSE was asserted: UNSAT without consulting the SAT
            # core.  The core is empty *because the formula alone is
            # contradictory* (see formula_unsat), and the stat dict keeps
            # the full canonical key set so per-query deltas stay uniform.
            self.stats = {key: 0 for key in self._sat.stats}
            self.stats["splits"] = 0
            self.profile = {key: 0 for key in self._profile_counters()}
            self._core = []
            self._formula_unsat = True
            return Result.UNSAT
        assumption_lits = [self._cnf.literal(term) for term in assumptions]
        before = dict(self._sat.stats)
        before_profile = self._profile_counters()
        self._sync()
        solve_assumptions = [*self._scopes, *assumption_lits]
        splits = 0
        while True:
            remaining = None
            if conflict_limit is not None:
                spent = self._sat.stats["conflicts"] - before["conflicts"]
                remaining = conflict_limit - spent
            verdict = self._sat.solve(
                assumptions=solve_assumptions,
                conflict_limit=remaining,
                should_stop=should_stop,
            )
            if verdict == UNKNOWN:
                self._finish_stats(before, before_profile, splits)
                return Result.UNKNOWN
            if verdict != SAT:
                self._finish_stats(before, before_profile, splits)
                core_lits = set(self._sat.final_core)
                seen: set[int] = set()
                self._core = []
                for term, lit in zip(assumptions, assumption_lits):
                    if lit in core_lits and term.uid not in seen:
                        seen.add(term.uid)
                        self._core.append(term)
                self._formula_unsat = not self._core
                return Result.UNSAT
            fractional = self._bridge.fractional_var()
            if fractional is None:
                self._model = self._extract_model()
                self._finish_stats(before, before_profile, splits)
                return Result.SAT
            splits += 1
            if splits > self._max_splits:
                raise SolverBudgetError(
                    f"exceeded {self._max_splits} branch-and-bound splits; "
                    "are all integer variables bounded?"
                )
            var, value = fractional
            cut = floor(value)
            split_lits = [
                self._cnf.literal(le(var, cut)),
                self._cnf.literal(ge(var, cut + 1)),
            ]
            self._sync()
            self._sat.add_clause(split_lits)

    def _finish_stats(
        self,
        before: dict[str, int],
        before_profile: dict[str, int],
        splits: int,
    ) -> None:
        self.stats = {
            key: value - before.get(key, 0) for key, value in self._sat.stats.items()
        }
        self.stats["splits"] = splits
        self.profile = {
            key: value - before_profile.get(key, 0)
            for key, value in self._profile_counters().items()
        }

    def _profile_counters(self) -> dict[str, int]:
        """Cumulative CDCL and simplex counters (the source of ``profile``)."""
        counters = self._sat.profile()
        for key, value in self._bridge.simplex.profile().items():
            counters["simplex_" + key] = value
        return counters

    def _extract_model(self) -> Model:
        ints: dict[IntVar, int] = {}
        for var in self._bridge.known_int_vars():
            value = self._bridge.rational_value(var)
            assert value.denominator == 1, "model extraction on fractional value"
            ints[var] = int(value)
        bools = {
            name: self._sat.model_value(satvar)
            for name, satvar in self._cnf.var_of_boolname.items()
        }
        return Model(ints, bools)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def model(self) -> Model:
        """The model of the last SAT :meth:`check`."""
        if self._model is None:
            raise RuntimeError("model() requires a prior SAT check()")
        return self._model

    def unsat_core(self) -> list[Term]:
        """The assumptions responsible for the last UNSAT :meth:`check`.

        A subset of the assumptions passed to that call, in passing order.
        Empty when the assumptions are not needed for the contradiction —
        i.e. the asserted formula (including any assertions in still-open
        :meth:`push` scopes, whose selectors are filtered from the core)
        is unsatisfiable by itself.
        """
        if self._core is None:
            raise RuntimeError("unsat_core() requires a prior UNSAT check()")
        return list(self._core)

    @property
    def formula_unsat(self) -> bool:
        """Whether the last UNSAT verdict holds with *no* assumptions.

        Distinguishes the two readings of an empty :meth:`unsat_core`:
        ``True`` means the asserted formula is contradictory by itself
        (including the early short-circuit on a bare FALSE assertion);
        a ``False`` with a non-empty core means the assumptions were
        responsible.  Requires a prior UNSAT :meth:`check`.
        """
        if self._formula_unsat is None:
            raise RuntimeError("formula_unsat requires a prior UNSAT check()")
        return self._formula_unsat

    # ------------------------------------------------------------------
    # Learned-clause lifecycle and saved phases
    # ------------------------------------------------------------------
    def learned_clauses(
        self, cap: int | None = None, max_lbd: int | None = None
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """LBD-sorted ``(lbd, literals)`` export of the learnt state."""
        return self._sat.learned_clauses(cap=cap, max_lbd=max_lbd)

    def import_learned(
        self,
        clauses: Sequence[tuple[int, Sequence[int]]],
        demote_to: int | None = None,
    ) -> int:
        """Attach another solver's :meth:`learned_clauses` export.

        Only sound when the clauses are consequences of *this* solver's
        asserted formula — true for an export taken from a solver over the
        same CNF image (fork, snapshot/restore).  ``demote_to`` floors the
        stored LBD of non-binary imports so they stay evictable (see
        :meth:`~repro.smt.sat.Cdcl.import_learned`).  Returns the number
        of clauses retained.
        """
        self._sync()  # imported literals must reference existing SAT vars
        return self._sat.import_learned(clauses, demote_to=demote_to)

    def compact(self) -> int:
        """Run one clause-database reduction now (session housekeeping).

        Long-lived sessions call this between workload phases or before
        :meth:`snapshot` to shed the cold learnt tail immediately instead
        of waiting for the geometric schedule.  Returns clauses deleted.
        """
        self._sync()
        return self._sat.compact()

    def saved_phases(self) -> tuple[bool, ...]:
        """The CDCL core's saved phase per SAT variable."""
        return self._sat.phase_vector()

    def seed_phases(self, phases: Sequence[bool]) -> None:
        """Seed branching phases from a :meth:`saved_phases` export."""
        self._sync()
        self._sat.seed_phases(phases)

    def phase_hints(self, hints: dict[str, bool]) -> int:
        """Seed phases of *named* boolean variables (e.g. a previous
        witness's block booleans), steering the next search toward that
        model first.  Unknown names are ignored; returns how many were
        applied."""
        self._sync()
        applied = 0
        for name, value in hints.items():
            var = self._cnf.var_of_boolname.get(name)
            if var is not None and var <= self._sat.n_vars:
                self._sat.set_phase(var, bool(value))
                applied += 1
        return applied

    # ------------------------------------------------------------------
    # Introspection (used by benchmarks and tests)
    # ------------------------------------------------------------------
    def clause_count(self) -> int:
        """Clauses in the CDCL core, including learned ones (O(1))."""
        return self._sat.clause_count()

    def learned_count(self) -> int:
        """Live learnt clauses currently attached in the CDCL core."""
        return self._sat.learned_count
