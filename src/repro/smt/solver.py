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
resumes with all learned clauses intact.  Atoms over the same variable or
linear form are linked by binary *bound axioms* (``x ≥ 4`` implies
``¬(x ≤ 2)``) that the theory bridge returns at registration and the
facade adds to the CDCL core, so unit propagation rather than the simplex
settles which of a column's bounds can hold together.  Bounds that one
tableau row implies from the others' reach the core the same way, as
theory-propagated atom literals (see :mod:`repro.smt.lia`).

The facade is *incremental*: the CNF conversion, the CDCL core, the theory
bridge and every learned clause and branch-and-bound split persist across
:meth:`Solver.check` calls.  Two mechanisms build on that retention:

* ``check(assumptions=[...])`` decides the query under temporary
  assumptions (arbitrary terms); after an UNSAT answer,
  :meth:`Solver.unsat_core` names the responsible assumptions.  An
  assertion that must be retractable is guarded: ``add(implies(g,
  term))`` binds only in checks that assume ``g``, and ``add(neg(g))``
  retires it for good while every learned clause stays valid.
* repeated ``check`` calls on a monotonically growing assertion set reuse
  all prior work (the classic ``add``/``check`` loop).

Branch-and-bound terminates whenever every integer variable is bounded by
the constraints (true for every formula ADVOCAT generates: occupancies lie
in ``[0, queue.size]`` and state variables in ``[0, 1]``).  A ``max_splits``
safety valve raises :class:`SolverBudgetError` otherwise.

Definitions
-----------

:meth:`Solver.define` binds a system of ``(name, rhs)`` definitions (the
block/idle equations) before any clause names them: a name that copies
another shares its variable, and names with one right-hand side share
its gate (see :meth:`repro.smt.cnf.CnfBuilder.define`).  The CNF image
the core loads is therefore free of the copies, with no mapping between
the two.

Model reuse
-----------

ADVOCAT asks one query per deadlock case, each assuming the case's guard,
and one deadlock usually makes many cases' disjuncts true at once.  So
:meth:`Solver.check` first tests its assumption literals against the
newest few SAT models over the same clause set.  An assumption that is
false in a model may still hold once its variable is *flipped*, which is
allowed when the variable is not a theory atom and every CNF clause
holding the assumption's negation keeps another literal that is true with
all the flips applied.  If the flipped assignment makes every assumption
true, the check answers SAT with it and does no search
(``stats["reused"]`` is 1, every other count 0).

This is sound because only CNF clauses hold non-atom variables: the bound
axioms and branch-and-bound splits hold atoms only.  The flipped
assignment therefore satisfies every problem clause, and with them every
learned clause and theory lemma, while the atoms and the integer values,
and so the theory's consistency, do not change.  A case guard occurs only
in ``guard → term`` and ``any → ⋁ guards``, so a case whose disjunct is
already true in a stored deadlock model is answered from that model,
which becomes its witness.  The stored models, and the literal → clauses
index the flip test reads, are dropped whenever :meth:`Solver._sync`
loads anything new (variables, atoms or clauses) and whenever a split is
added.
"""

from __future__ import annotations

import enum
from itertools import islice
from math import floor
from typing import Callable, Iterable, Sequence

from .cnf import CnfBuilder
from .lia import LiaBridge
from .sat import SAT, UNKNOWN, Cdcl
from .terms import IntVar, Term, ge, le

__all__ = ["Solver", "Result", "Model", "SolverBudgetError"]

# How many of the newest SAT models a check may be answered from.
_KEPT_MODELS = 3


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    # A cooperatively bounded check() ran out of its conflict slice or was
    # told to stop (an expired Deadline); no verdict, every learned clause
    # and branch-and-bound split is retained for the next call.
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


class Solver:
    """Incremental QF_LIA solver over the repro term language.

    ``clause_reduction`` (with the ``reduce_base`` / ``reduce_growth`` /
    ``glue_keep`` knobs) controls the learned-clause lifecycle of the CDCL
    core — see :class:`~repro.smt.sat.Cdcl`.  Reduction never changes
    verdicts; disabling it reproduces the unbounded clause database of
    earlier revisions.
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
        # The newest SAT models, oldest first, and a literal -> CNF clauses
        # index over the loaded clauses; both are dropped whenever the
        # clause set grows (see "Model reuse" in the module docstring).
        self._models: list[tuple[bytearray, dict[IntVar, int]]] = []
        self._occurs: dict[int, list[list[int]]] | None = None
        self._model: Model | None = None
        self._core: list[Term] | None = None
        self._formula_unsat: bool | None = None
        self.stats: dict[str, int] = {}
        # Per-query deltas of the CDCL core's hot-loop profile counters
        # (see Cdcl.profile), of the simplex work counters, prefixed
        # ``simplex_`` (see Simplex.profile), and of the bridge's
        # row-derivation counters, prefixed ``lia_`` (see
        # LiaBridge.profile); same delta discipline as ``stats``.
        self.profile: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def define(self, definitions: Iterable[tuple[Term, Term]]) -> None:
        """Bind ``(name, rhs)`` definitions, each read as ``name ⇔ rhs``,
        before any clause names them (see
        :meth:`~repro.smt.cnf.CnfBuilder.define`)."""
        self._model = None
        self._cnf.define(definitions)

    def add(self, term: Term) -> None:
        """Assert ``term``; invalidates any previously extracted model."""
        self._model = None
        self._cnf.assert_term(term)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Hand new vars, atoms and clauses to the SAT core and bridge.

        Each new atom's bound axioms (see :mod:`repro.smt.lia`) go to the
        SAT core as problem clauses, never into the CNF image.  Loading
        anything new drops the stored models.
        """
        cnf = self._cnf
        sat = self._sat
        new: list[list[int]] = []
        if len(cnf.atom_of_var) > self._registered_atoms:
            # Dicts preserve insertion order: only the unseen tail is new.
            for satvar, atom in islice(
                cnf.atom_of_var.items(), self._registered_atoms, None
            ):
                new.extend(self._bridge.register_atom(satvar, atom))
            self._registered_atoms = len(cnf.atom_of_var)
        new.extend(cnf.clauses[self._flushed_clauses:])
        self._flushed_clauses = len(cnf.clauses)
        if new or cnf.n_vars > sat.n_vars:
            self._forget_models()
        sat.ensure_vars(cnf.n_vars)
        sat.add_clauses(new)

    def _forget_models(self) -> None:
        self._models.clear()
        self._occurs = None

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
        the primitive a :class:`~repro.core.resilience.Deadline` bounds
        queries with.

        A check that a stored model answers (see "Model reuse" above)
        returns SAT without search; ``stats["reused"]`` is then 1.
        """
        self._model = None
        self._core = None
        self._formula_unsat = None
        if self._cnf.unsatisfiable:
            # A bare FALSE was asserted: UNSAT without consulting the SAT
            # core.  The core is empty *because the formula alone is
            # contradictory* (see formula_unsat), and the stat dict keeps
            # the full canonical key set so per-query deltas stay uniform.
            self._zero_stats()
            self._core = []
            self._formula_unsat = True
            return Result.UNSAT
        assumption_lits = [self._cnf.literal(term) for term in assumptions]
        before = dict(self._sat.stats)
        before_profile = self._profile_counters()
        self._sync()
        if self._models:
            self._model = self._reused_model(assumption_lits)
            if self._model is not None:
                self._zero_stats()
                self.stats["reused"] = 1
                return Result.SAT
        splits = 0
        while True:
            remaining = None
            if conflict_limit is not None:
                spent = self._sat.stats["conflicts"] - before["conflicts"]
                remaining = conflict_limit - spent
            verdict = self._sat.solve(
                assumptions=assumption_lits,
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
                bits = self._sat.model_bits()
                ints = self._model_ints()
                self._models.append((bits, ints))
                del self._models[:-_KEPT_MODELS]
                self._model = self._model_of(bits, ints)
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
            self._forget_models()
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
        self.stats["reused"] = 0
        self.profile = {
            key: value - before_profile.get(key, 0)
            for key, value in self._profile_counters().items()
        }

    def _zero_stats(self) -> None:
        """Report a check the SAT core did not take part in: every stat
        and profile key, at zero."""
        self.stats = {key: 0 for key in self._sat.stats}
        self.stats["splits"] = 0
        self.stats["reused"] = 0
        self.profile = {key: 0 for key in self._profile_counters()}

    def _profile_counters(self) -> dict[str, int]:
        """Cumulative CDCL, simplex and row-derivation counters (the
        source of ``profile``)."""
        counters = self._sat.profile()
        for key, value in self._bridge.simplex.profile().items():
            counters["simplex_" + key] = value
        for key, value in self._bridge.profile().items():
            counters["lia_" + key] = value
        return counters

    def _model_ints(self) -> dict[IntVar, int]:
        ints: dict[IntVar, int] = {}
        for var in self._bridge.known_int_vars():
            value = self._bridge.rational_value(var)
            assert value.denominator == 1, "model extraction on fractional value"
            ints[var] = int(value)
        return ints

    def _model_of(self, bits: bytearray, ints: dict[IntVar, int]) -> Model:
        """The :class:`Model` of the assignment ``bits`` (one byte per SAT
        variable) with the integer values ``ints``."""
        bools = {
            name: bits[lit] == 1 if lit > 0 else bits[-lit] == 0
            for name, lit in self._cnf.var_of_boolname.items()
        }
        return Model(ints, bools)

    def _reused_model(self, lits: Sequence[int]) -> Model | None:
        """A stored model that satisfies every assumption literal in
        ``lits`` once the variables of the false ones are flipped, or
        ``None`` (see "Model reuse" in the module docstring)."""
        atom_of_var = self._cnf.atom_of_var
        for bits, ints in reversed(self._models):
            flips = [lit for lit in lits if bits[abs(lit)] != (lit > 0)]
            if flips:
                if any(abs(lit) in atom_of_var for lit in flips):
                    continue
                bits = bytearray(bits)
                for lit in flips:
                    bits[abs(lit)] = lit > 0
                if not self._flips_hold(bits, lits, flips):
                    continue
            return self._model_of(bits, ints)
        return None

    def _flips_hold(
        self, bits: bytearray, lits: Sequence[int], flips: list[int]
    ) -> bool:
        """Whether the flipped assignment ``bits`` makes every literal of
        ``lits`` true and keeps every CNF clause that holds the negation
        of a flipped literal satisfied."""
        if any(bits[abs(lit)] != (lit > 0) for lit in lits):
            return False  # an assumption and its negation
        occurs = self._occurs
        if occurs is None:
            occurs = self._occurs = {}
            for clause in self._cnf.clauses:
                for lit in clause:
                    bucket = occurs.get(lit)
                    if bucket is None:
                        occurs[lit] = [clause]
                    else:
                        bucket.append(clause)
        for lit in flips:
            for clause in occurs.get(-lit, ()):
                if not any(bits[abs(other)] == (other > 0) for other in clause):
                    return False
        return True

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
        i.e. the asserted formula is unsatisfiable by itself.
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
        same CNF image (snapshot/restore).  ``demote_to`` floors the
        stored LBD of non-binary imports so they stay evictable (see
        :meth:`~repro.smt.sat.Cdcl.import_learned`).  Returns the number
        of clauses retained.
        """
        self._sync()  # imported literals must reference existing SAT vars
        return self._sat.import_learned(clauses, demote_to=demote_to)

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
            lit = self._cnf.var_of_boolname.get(name)
            if lit is not None:
                self._sat.set_phase(abs(lit), bool(value) == (lit > 0))
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
