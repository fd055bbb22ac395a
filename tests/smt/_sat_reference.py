"""The *reference* CDCL core — the pre-arena, object-per-clause solver.

This module is a frozen copy of :mod:`repro.smt.sat` as it stood before
the flat-arena data-path rewrite.  It is **not** used by the production
stack; it exists so that

* ``tests/smt/test_satcore.py`` can differentially check the arena core
  against it (verdicts, models, failed-assumption cores and search
  statistics must be byte-identical over random CNFs), and
* the same module can swap it under ``Solver`` and answer a mesh's
  per-case fan-out through the full session stack on it.

Do not edit the algorithm here: its whole value is that it preserves the
old trajectory.  Two deliberate exceptions mirror search-order changes of
the arena core, so the lockstep contract keeps holding:

* ``solve`` keeps the trail after a SAT or assumption-UNSAT verdict and
  rewinds only to the first assumption that differs from the previous
  call's, and ``seed_phases``/``set_phase`` rewind to the root first;
* an activity rescale rebuilds the VSIDS heap from the rescaled
  activities of the unassigned variables.  Before, pre-rescale entries
  stayed in the heap and outranked every current one; the arena core
  de-duplicates its entries, so the two cores then picked different
  decisions.

It also has ``add_clauses`` (one ``add_clause`` per clause) and
``model_bits``, the entry points ``Solver`` calls on the arena core, so
the core swaps under the solver; neither changes the search.

Theory propagation is deliberately *not* mirrored: this core never calls
a listener's ``derive``/``explain``.  The lockstep suite runs on pure
CNF, where no listener is attached, so it is unaffected; with the LIA
bridge attached the two cores search differently, and the full-stack
test compares their verdicts only.

The original module docstring follows.

----

Implements the standard modern architecture: two-watched-literal
propagation, first-UIP conflict analysis with clause learning, VSIDS
branching with phase saving, and Luby restarts.  A theory listener can be
attached for DPLL(T) integration; it is kept in sync with the trail and may
report conflicts as lists of literals (the negation of a theory-inconsistent
set of asserted literals).

Solving is *incremental and assumption-based* (the MiniSat ``solve(assumps)``
discipline): :meth:`Cdcl.solve` accepts a sequence of assumption literals
that are decided, in order, below all regular decisions.  Clauses learned
during any call are resolvents of the clause database alone — assumption
literals enter them only negated, like decision literals — so the learned
clauses remain valid for every later call under any assumption set.  When
the instance is unsatisfiable *because of* the assumptions, ``final_core``
holds an inconsistent subset of them (the failed core); a root-level
conflict leaves the core empty and marks the solver permanently UNSAT.

Learnt clauses have a managed *lifecycle* (the Glucose discipline): each
is tagged at derivation time with its LBD ("glue") — the number of
distinct decision levels among its literals — and accumulates activity
whenever it participates in a conflict derivation.  When the live learnt
count crosses a geometrically growing threshold, :meth:`Cdcl.reduce_db`
forgets the cold tail (binary and ``lbd ≤ glue_keep`` clauses are
protected preferentially, up to ``glue_cap`` of them), so long-lived
incremental sessions stay bounded.  :meth:`learned_clauses` exports the surviving resolvents (plus
root-level facts) in LBD order and :meth:`import_learned` re-attaches such
an export into another solver over the same variable numbering — the
warm-start channel used by snapshot rehydration.

The solver is deliberately self-contained (plain lists, no numpy) so its
behaviour is easy to audit — it is part of the trusted base of the
verification results.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Protocol, Sequence

__all__ = ["Cdcl", "TheoryListener", "SAT", "UNSAT", "UNKNOWN"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_UNDEF = 0


class TheoryListener(Protocol):
    """Callbacks the CDCL core uses to keep a theory solver in sync."""

    def assert_index(self, index: int, lit: int) -> list[int] | None:
        """Notify that trail position ``index`` holds ``lit``.

        Returns ``None`` when consistent, otherwise a conflict explanation:
        a list of asserted literals whose conjunction is theory-inconsistent.
        """

    def pop_to(self, trail_length: int) -> None:
        """Undo all assertions at trail positions ≥ ``trail_length``."""

    def final_check(self) -> list[int] | None:
        """Full-assignment check; same contract as :meth:`assert_index`."""


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Standard formulation: find the smallest complete binary sequence of
    length ``2^seq − 1`` covering position ``i``, then recurse into the
    remainder (iteratively).
    """
    index = i - 1  # zero-based position
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


class Cdcl:
    """Conflict-driven clause-learning SAT solver with theory hooks.

    ``reduction`` enables periodic clause-database reduction: once the
    live learnt count reaches ``reduce_base`` the cold tail of the learnt
    clauses is forgotten (the warmest ``reduce_keep`` fraction survives)
    and the threshold grows by ``reduce_growth`` (a geometric schedule).
    Binary clauses and clauses with ``lbd <= glue_keep`` are protected
    *preferentially*: they are exempt from the tail cut up to
    ``glue_cap`` of them; beyond the cap the coldest protected clauses
    (by activity) are demoted into the ordinary tail.  The cap matters on
    ADVOCAT's structured encodings, where shallow incremental searches
    tag most resolvents as glue — an unconditional exemption would keep
    the database growing linearly with session length.  Reduction is
    purely a performance policy — it never changes verdicts, only which
    redundant resolvents are retained.
    """

    def __init__(
        self,
        theory: TheoryListener | None = None,
        reduction: bool = True,
        reduce_base: int = 400,
        reduce_growth: float = 1.3,
        glue_keep: int = 2,
        glue_cap: int | None = None,
        reduce_keep: float = 0.5,
    ):
        self.theory = theory
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self._lbd: list[int] = []  # per clause; 0 = problem clause, >=1 learnt
        self._cla_act: list[float] = []  # per clause; bumped on conflict use
        self._cla_inc = 1.0
        self._watches: list[list[int]] = [[], []]  # indexed by literal code
        self._assign: list[int] = [0]  # 1 true, -1 false, 0 undef; index by var
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]  # clause index, -1 for decisions
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._theory_qhead = 0
        self._conflict_index = -1  # clause index of the last propagation conflict
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._ok = True
        self.reduction = reduction
        self.glue_keep = glue_keep
        self.glue_cap = reduce_base if glue_cap is None else glue_cap
        self.reduce_keep = reduce_keep
        self._reduce_limit = max(1, reduce_base)
        self._reduce_growth = reduce_growth
        self._learnt_live = 0
        self.final_core: list[int] = []
        self._assumed: tuple[int, ...] = ()  # the last solve()'s assumptions
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "reductions": 0,
            "reduced": 0,
            "kept_glue": 0,
            # Cooperative-slicing counters mirrored from the arena core so
            # the lockstep differentials can keep asserting full stats-dict
            # equality.  The reference core never slices, so the first two
            # stay zero; imported_rounds counts import_learned calls.
            "conflict_limit_hits": 0,
            "cancelled": 0,
            "imported_rounds": 0,
        }

    @property
    def learned_count(self) -> int:
        """Live learnt clauses currently attached (root facts excluded)."""
        return self._learnt_live

    def profile(self) -> dict[str, int]:
        """API-compat shim (the one post-freeze addition, not algorithmic).

        The reference core predates the hot-loop instrumentation, so every
        counter reads zero; having the method lets :class:`repro.smt.Solver`
        run unmodified when monkeypatched onto this core for differential
        tests and old-vs-new benchmarks.
        """
        return {
            "propagations": 0,
            "visited_watchers": 0,
            "blocker_hits": 0,
            "analyze_steps": 0,
            "arena_gc_words": 0,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.n_vars += 1
        self._assign.append(_UNDEF)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        heappush(self._heap, (0.0, self.n_vars))
        return self.n_vars

    def ensure_vars(self, n: int) -> None:
        while self.n_vars < n:
            self.new_var()

    @staticmethod
    def _code(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause, rewinding to the root level first if needed."""
        self._backjump(0)
        if not self._ok:
            return
        seen: set[int] = set()
        filtered: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            value = self._value(lit)
            if value == 1:
                return  # already satisfied at level 0
            if value == -1:
                continue  # false at level 0: drop the literal
            seen.add(lit)
            filtered.append(lit)
        if not filtered:
            self._ok = False
            return
        if len(filtered) == 1:
            self._enqueue(filtered[0], -1)
            return
        self._attach(filtered)

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> None:
        """One :meth:`add_clause` per clause (the arena core's bulk-load
        entry point, which ``Solver`` calls)."""
        for lits in clauses:
            self.add_clause(lits)

    def _attach(self, lits: list[int], lbd: int = 0) -> int:
        """Attach a clause; ``lbd >= 1`` marks it learnt (deletable)."""
        index = len(self.clauses)
        self.clauses.append(lits)
        self._lbd.append(lbd)
        self._cla_act.append(self._cla_inc if lbd else 0.0)
        if lbd:
            self._learnt_live += 1
        self._watches[self._code(-lits[0])].append(index)
        self._watches[self._code(-lits[1])].append(index)
        return index

    # ------------------------------------------------------------------
    # Trail manipulation
    # ------------------------------------------------------------------
    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = abs(lit)
        value = self._value(lit)
        if value == 1:
            return True
        if value == -1:
            return False
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = self.decision_level
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _backjump(self, level: int) -> None:
        if self.decision_level <= level:
            return
        boundary = self._trail_lim[level]
        for lit in self._trail[boundary:]:
            var = abs(lit)
            self._phase[var] = lit > 0
            self._assign[var] = _UNDEF
            heappush(self._heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))
        if self.theory is not None:
            self.theory.pop_to(len(self._trail))
            self._theory_qhead = min(self._theory_qhead, len(self._trail))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns the conflicting clause's literals."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats["propagations"] += 1
            code = self._code(lit)
            watch_list = self._watches[code]
            kept: list[int] = []
            conflict: list[int] | None = None
            for position, clause_index in enumerate(watch_list):
                clause = self.clauses[clause_index]
                # Normalise: the false literal (-lit) goes to slot 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(clause_index)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[self._code(-clause[1])].append(clause_index)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause_index)
                if self._value(first) == -1:
                    kept.extend(watch_list[position + 1 :])
                    conflict = clause
                    self._conflict_index = clause_index
                    break
                self._enqueue(first, clause_index)
            self._watches[code] = kept
            if conflict is not None:
                return conflict
        return None

    def _theory_sync(self) -> list[int] | None:
        """Feed newly assigned literals to the theory listener."""
        if self.theory is None:
            return None
        while self._theory_qhead < len(self._trail):
            index = self._theory_qhead
            lit = self._trail[index]
            self._theory_qhead += 1
            explanation = self.theory.assert_index(index, lit)
            if explanation is not None:
                return [-lit for lit in explanation]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Rebuild: one entry per unassigned variable at its rescaled
            # activity (pre-rescale entries would outrank them all).
            self._heap = [
                (-self._activity[v], v)
                for v in range(1, self.n_vars + 1)
                if self._assign[v] == _UNDEF
            ]
            heapify(self._heap)
        heappush(self._heap, (-self._activity[var], var))

    def _bump_clause(self, index: int) -> None:
        self._cla_act[index] += self._cla_inc
        if self._cla_act[index] > 1e20:
            for i, act in enumerate(self._cla_act):
                if act:
                    self._cla_act[i] = act * 1e-20
            self._cla_inc *= 1e-20

    def _compute_lbd(self, lits: Sequence[int]) -> int:
        """Distinct decision levels among ``lits`` (all currently assigned)."""
        return max(1, len({self._level[abs(lit)] for lit in lits}))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis.  ``conflict`` literals are all false.

        Returns ``(learnt_clause, backjump_level)`` where ``learnt_clause[0]``
        is the asserting literal.
        """
        current = self.decision_level
        learnt: list[int] = []
        seen = [False] * (self.n_vars + 1)
        counter = 0
        reason_lits: Iterable[int] = conflict
        index = len(self._trail) - 1
        asserting_lit = 0
        while True:
            for lit in reason_lits:
                var = abs(lit)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == current:
                    counter += 1
                else:
                    learnt.append(lit)
            # Walk the trail backwards to the next marked literal.
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            index -= 1
            var = abs(p)
            seen[var] = False
            counter -= 1
            if counter == 0:
                asserting_lit = -p
                break
            reason_index = self._reason[var]
            if self._lbd[reason_index]:
                self._bump_clause(reason_index)
            reason_lits = [lit for lit in self.clauses[reason_index] if lit != p]
        learnt.insert(0, asserting_lit)
        # Conflict-clause minimisation: drop literals implied by the rest.
        learnt = self._minimise(learnt, seen)
        if len(learnt) == 1:
            return learnt, 0
        # Move the highest-level literal (after the asserting one) to slot 1.
        best = max(range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _minimise(self, learnt: list[int], seen: list[bool]) -> list[int]:
        """Cheap local minimisation: a literal whose reason is a subset of
        the clause (plus level-0 literals) is redundant."""
        marked = set(abs(lit) for lit in learnt)
        result = [learnt[0]]
        for lit in learnt[1:]:
            reason_index = self._reason[abs(lit)]
            if reason_index == -1:
                result.append(lit)
                continue
            reason = self.clauses[reason_index]
            if all(
                abs(other) in marked or self._level[abs(other)] == 0
                for other in reason
                if abs(other) != abs(lit)
            ):
                continue  # redundant
            result.append(lit)
        return result

    def _analyze_final(self, false_assumption: int) -> list[int]:
        """An inconsistent subset of the assumptions (MiniSat analyzeFinal).

        Called when ``false_assumption`` evaluates false while only
        assumption decisions (and their propagations) are on the trail.
        Walks the implication graph of ``¬false_assumption`` back to the
        assumption decisions responsible; together with ``false_assumption``
        they form a conjunction inconsistent with the clause database.
        """
        core = [false_assumption]
        if self._level[abs(false_assumption)] == 0:
            return core  # refuted by the formula alone
        seen = {abs(false_assumption)}
        start = self._trail_lim[0] if self._trail_lim else 0
        for index in range(len(self._trail) - 1, start - 1, -1):
            lit = self._trail[index]
            var = abs(lit)
            if var not in seen:
                continue
            reason_index = self._reason[var]
            if reason_index == -1:
                # A decision below the regular search == an assumption
                # (covers directly contradictory assumption pairs too).
                core.append(lit)
            else:
                for other in self.clauses[reason_index]:
                    if abs(other) != var and self._level[abs(other)] > 0:
                        seen.add(abs(other))
        return core

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> bool:
        while self._heap:
            _, var = heappop(self._heap)
            if self._assign[var] == _UNDEF:
                self.stats["decisions"] += 1
                self._trail_lim.append(len(self._trail))
                lit = var if self._phase[var] else -var
                self._enqueue(lit, -1)
                return True
        # Heap exhausted: scan for any unassigned variable (stale heap).
        for var in range(1, self.n_vars + 1):
            if self._assign[var] == _UNDEF:
                self.stats["decisions"] += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(var if self._phase[var] else -var, -1)
                return True
        return False

    # ------------------------------------------------------------------
    # Learned-clause lifecycle
    # ------------------------------------------------------------------
    def _root_boundary(self) -> int:
        """Trail length of the level-0 prefix (permanent facts)."""
        return self._trail_lim[0] if self._trail_lim else len(self._trail)

    def reduce_db(self) -> int:
        """Forget the cold half of the non-glue learnt clauses.

        Must be called at decision level 0 with propagation at fixpoint
        (the solver calls it right after restart/solve-entry backjumps).
        Keeps every problem clause; learnt binaries and ``lbd <=
        glue_keep`` clauses are protected up to ``glue_cap`` (beyond it
        the coldest are demoted by activity); the remaining tail is
        sorted coldest-first by (activity, then LBD as tiebreak) and only
        the warmest ``reduce_keep`` fraction survives, with
        root-satisfied learnt clauses always dropped.  Returns the number
        of clauses deleted.
        """
        assert self.decision_level == 0, "reduce_db() needs the root level"
        # Root-level assignments are permanent facts; conflict analysis
        # never walks below level 0, so their reasons can be forgotten —
        # which unlocks every clause for deletion and remapping.
        for lit in self._trail:
            self._reason[abs(lit)] = -1
        keep: list[int] = []
        candidates: list[int] = []
        protected: list[int] = []
        for index, lits in enumerate(self.clauses):
            lbd = self._lbd[index]
            if lbd == 0:
                keep.append(index)
            elif any(self._value(lit) == 1 for lit in lits):
                continue  # permanently satisfied at root: dead weight
            elif len(lits) <= 2 or lbd <= self.glue_keep:
                protected.append(index)
            else:
                candidates.append(index)
        if len(protected) > self.glue_cap:
            # Protection is a priority, not a blank cheque: on these
            # structured encodings most resolvents come out glue-tagged,
            # so the coldest protected clauses re-join the ordinary tail.
            protected.sort(key=lambda i: self._cla_act[i], reverse=True)
            candidates.extend(protected[self.glue_cap :])
            del protected[self.glue_cap :]
        kept_glue = len(protected)
        keep.extend(protected)
        # Coldest first: lowest activity, ties broken toward dropping
        # high-LBD clauses.  Keep the warmest ``reduce_keep`` fraction.
        candidates.sort(key=lambda i: (self._cla_act[i], -self._lbd[i]))
        cut = len(candidates) - int(len(candidates) * self.reduce_keep)
        keep.extend(candidates[cut:])
        keep.sort()
        deleted = len(self.clauses) - len(keep)
        if deleted == 0:
            self.stats["reductions"] += 1
            self.stats["kept_glue"] += kept_glue
            self._reduce_limit = int(self._reduce_limit * self._reduce_growth) + 1
            return 0
        new_clauses: list[list[int]] = []
        new_lbd: list[int] = []
        new_act: list[float] = []
        for old in keep:
            lits = self.clauses[old]
            # Watches must sit on non-false literals (false-at-root stays
            # false forever, so a clause watched there would never wake).
            # Propagation is at fixpoint, so every kept unsatisfied clause
            # has >= 2 non-false literals.
            lits.sort(key=lambda lit: self._value(lit) == -1)
            new_clauses.append(lits)
            new_lbd.append(self._lbd[old])
            new_act.append(self._cla_act[old])
        self.clauses = new_clauses
        self._lbd = new_lbd
        self._cla_act = new_act
        self._learnt_live = sum(1 for lbd in new_lbd if lbd)
        self._watches = [[] for _ in range(2 * self.n_vars + 2)]
        for index, lits in enumerate(self.clauses):
            self._watches[self._code(-lits[0])].append(index)
            self._watches[self._code(-lits[1])].append(index)
        self.stats["reductions"] += 1
        self.stats["reduced"] += deleted
        self.stats["kept_glue"] += kept_glue
        self._reduce_limit = int(self._reduce_limit * self._reduce_growth) + 1
        return deleted

    def _maybe_reduce(self) -> None:
        if self.reduction and self._learnt_live >= self._reduce_limit:
            self.reduce_db()

    def compact(self) -> int:
        """Force one reduction now (e.g. before idling or snapshotting).

        Brings the solver to the root level and propagation to fixpoint
        first; works even with periodic ``reduction`` disabled.  Returns
        the number of clauses deleted (0 when a root conflict makes the
        instance permanently UNSAT instead).
        """
        if not self._ok:
            return 0
        self._backjump(0)
        if self._propagate() is not None:
            self._ok = False
            return 0
        if self.theory is not None and self._theory_sync() is not None:
            self._ok = False
            return 0
        return self.reduce_db()

    def learned_clauses(
        self, cap: int | None = None, max_lbd: int | None = None
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The learnt state as ``(lbd, literals)`` pairs, best-glue first.

        Root-level facts are exported as LBD-1 units ahead of the attached
        learnt clauses (sorted by LBD, then length).  Everything exported
        is a resolvent of the clause database plus theory lemmas — valid
        for any solver over the *same* formula and variable numbering, and
        independent of any assumption set (assumptions are decided above
        the root).  ``cap`` truncates the export, ``max_lbd`` filters it.
        """
        exported: list[tuple[int, tuple[int, ...]]] = [
            (1, (lit,)) for lit in self._trail[: self._root_boundary()]
        ]
        learnt = sorted(
            (
                (self._lbd[i], tuple(self.clauses[i]))
                for i in range(len(self.clauses))
                if self._lbd[i]
            ),
            key=lambda item: (item[0], len(item[1])),
        )
        if max_lbd is not None:
            learnt = [item for item in learnt if item[0] <= max_lbd]
        exported.extend(learnt)
        if cap is not None:
            exported = exported[:cap]
        return tuple(exported)

    def import_learned(
        self,
        clauses: Iterable[tuple[int, Sequence[int]]],
        demote_to: int | None = None,
    ) -> int:
        """Re-attach an export of :meth:`learned_clauses` (sound resolvents).

        The caller vouches that every clause is a consequence of this
        solver's formula (true of a parent solver's export over the same
        CNF image).  Clauses are filtered like :meth:`add_clause` — root-
        satisfied ones are dropped, root-false literals removed — then
        attached as learnt with their shipped LBD, so a later reduction
        treats them exactly like locally derived clauses.

        ``demote_to`` floors the stored LBD of non-binary imports: glue
        status is trajectory-local, so a rehydrated worker imports the
        parent's tail as an evictable cache (``demote_to = glue_keep+1``)
        rather than inheriting its "keep forever" promises — clauses the
        local query mix actually uses earn their keep through activity.
        Returns how many clauses were retained (units included).
        """
        self._backjump(0)
        self.stats["imported_rounds"] += 1
        imported = 0
        for lbd, lits in clauses:
            if any(abs(lit) > self.n_vars for lit in lits):
                # Importing across diverged variable numberings is unsound
                # (split atoms are minted per trajectory) — only exports
                # over this solver's own CNF image are accepted, also by
                # a solver that is already UNSAT.
                raise ValueError(
                    "imported clause references a variable this solver "
                    "never minted; import only exports taken over the "
                    "same CNF image (fork at rest, snapshot/restore)"
                )
            if not self._ok:
                break
            seen: set[int] = set()
            filtered: list[int] = []
            satisfied = False
            for lit in lits:
                if lit in seen:
                    continue
                if -lit in seen:
                    satisfied = True  # tautology
                    break
                value = self._value(lit)
                if value == 1:
                    satisfied = True
                    break
                if value == -1:
                    continue
                seen.add(lit)
                filtered.append(lit)
            if satisfied:
                continue
            if not filtered:
                self._ok = False
                break
            if len(filtered) == 1:
                if not self._enqueue(filtered[0], -1):
                    self._ok = False
                    break
            else:
                stored = max(1, min(int(lbd), len(filtered)))
                if demote_to is not None and len(filtered) > 2:
                    stored = max(stored, demote_to)
                self._attach(filtered, lbd=stored)
            imported += 1
        self.stats["learned"] += imported
        return imported

    # ------------------------------------------------------------------
    # Saved phases
    # ------------------------------------------------------------------
    def phase_vector(self) -> tuple[bool, ...]:
        """The saved phase of every variable, in variable order."""
        return tuple(self._phase[1 : self.n_vars + 1])

    def seed_phases(self, phases: Sequence[bool]) -> None:
        """Overwrite saved phases from a :meth:`phase_vector` export.

        Phases only steer branching order — seeding is always sound and
        is how warm snapshots make a fresh solver search near the parent's
        (or a previous probe's) last model first.
        """
        self._backjump(0)
        limit = min(len(phases), self.n_vars)
        for var in range(1, limit + 1):
            self._phase[var] = bool(phases[var - 1])

    def set_phase(self, var: int, phase: bool) -> None:
        self._backjump(0)
        if 1 <= var <= self.n_vars:
            self._phase[var] = bool(phase)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        max_conflicts: int | None = None,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
        should_stop=None,
    ) -> str:
        """Run search to a verdict.  Call repeatedly after adding clauses.

        ``assumptions`` are literals temporarily decided (in order) below
        every regular decision.  An UNSAT verdict caused by them leaves an
        inconsistent subset in :attr:`final_core`; a root-level conflict
        leaves the core empty and the solver permanently unsatisfiable.

        ``conflict_limit``/``should_stop`` mirror the arena core's
        cooperative slice bounds (UNKNOWN return, learning kept) so the
        lockstep differentials can exercise sliced searches too.
        """
        self.final_core = []
        if not self._ok:
            return UNSAT
        # Keep the levels of the longest assumption prefix shared with the
        # previous call (level i + 1 holds assumption i).
        previous, self._assumed = self._assumed, tuple(assumptions)
        kept = 0
        limit = min(self.decision_level, len(previous), len(assumptions))
        while kept < limit and previous[kept] == assumptions[kept]:
            kept += 1
        self._backjump(kept)
        conflicts_entry = self.stats["conflicts"]
        if self.reduction and self._learnt_live >= self._reduce_limit:
            # Reduce between queries: bring root propagation to fixpoint
            # first (reduce_db's precondition; clauses added since the
            # last call may still have pending root units).
            self._backjump(0)
            if self._propagate() is not None:
                self._ok = False
                return UNSAT
            if self.theory is not None and self._theory_sync() is not None:
                self._ok = False
                return UNSAT
            self.reduce_db()
        restart_unit = 128
        restart_count = 0
        budget = _luby(restart_count + 1) * restart_unit
        conflicts_here = 0
        while True:
            if should_stop is not None and should_stop():
                self._backjump(0)
                self.stats["cancelled"] += 1
                return UNKNOWN
            if (
                conflict_limit is not None
                and self.stats["conflicts"] - conflicts_entry >= conflict_limit
            ):
                self._backjump(0)
                self.stats["conflict_limit_hits"] += 1
                return UNKNOWN
            conflict = self._propagate()
            if conflict is None:
                conflict_lits = self._theory_sync()
            else:
                conflict_lits = conflict
                if self._lbd[self._conflict_index]:
                    self._bump_clause(self._conflict_index)
            if conflict_lits is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                if max_conflicts is not None and self.stats["conflicts"] > max_conflicts:
                    raise BudgetExceeded(self.stats["conflicts"])
                # A theory conflict may live entirely below the current level.
                top = max(
                    (self._level[abs(lit)] for lit in conflict_lits), default=0
                )
                if top == 0:
                    self._ok = False
                    return UNSAT
                if top < self.decision_level:
                    self._backjump(top)
                learnt, back_level = self._analyze(conflict_lits)
                lbd = self._compute_lbd(learnt)
                self._backjump(back_level)
                self.stats["learned"] += 1
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        self._ok = False
                        return UNSAT
                else:
                    index = self._attach(learnt, lbd=lbd)
                    self._enqueue(learnt[0], index)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                continue
            if conflicts_here >= budget:
                self.stats["restarts"] += 1
                restart_count += 1
                budget = _luby(restart_count + 1) * restart_unit
                conflicts_here = 0
                self._backjump(0)
                self._maybe_reduce()
                continue
            if self.decision_level < len(assumptions):
                # Re-assert the next pending assumption as a decision.
                lit = assumptions[self.decision_level]
                value = self._value(lit)
                if value == 1:
                    # Already implied: open an empty level so positions in
                    # ``assumptions`` keep lining up with decision levels.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == -1:
                    self.final_core = self._analyze_final(lit)
                    return UNSAT
                self.stats["decisions"] += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, -1)
                continue
            if not self._decide():
                if self.theory is not None:
                    explanation = self.theory.final_check()
                    if explanation is not None:
                        conflict_lits = [-lit for lit in explanation]
                        self.stats["conflicts"] += 1
                        top = max(
                            (self._level[abs(lit)] for lit in conflict_lits), default=0
                        )
                        if top == 0:
                            self._ok = False
                            return UNSAT
                        self._backjump(top)
                        learnt, back_level = self._analyze(conflict_lits)
                        lbd = self._compute_lbd(learnt)
                        self._backjump(back_level)
                        self.stats["learned"] += 1
                        if len(learnt) == 1:
                            if not self._enqueue(learnt[0], -1):
                                self._ok = False
                                return UNSAT
                        else:
                            index = self._attach(learnt, lbd=lbd)
                            self._enqueue(learnt[0], index)
                        continue
                return SAT

    def model_value(self, var: int) -> bool:
        return self._assign[var] == 1

    def model_bits(self) -> bytearray:
        """The assignment, one byte per variable (as the arena core's)."""
        return bytearray(value == 1 for value in self._assign)


class BudgetExceeded(RuntimeError):
    """Raised when the conflict budget passed to :meth:`Cdcl.solve` runs out."""
