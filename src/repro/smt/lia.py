"""The linear-integer-arithmetic theory bridge.

Connects the CDCL core (:mod:`repro.smt.sat`) to the exact simplex
(:mod:`repro.smt.simplex`):

* every :class:`~repro.smt.terms.LinearAtom` whose SAT variable occurs in
  the CNF is registered here;
* single-variable atoms (``±x ≤ b``, which is what gcd normalisation reduces
  them to) assert bounds directly on the variable's theory column;
* multi-variable atoms get one shared *slack* variable per linear form
  (forms differing only by sign share the slack);
* a positive literal asserts the atom's ``≤`` bound, a negative literal the
  integer-negated ``≥`` bound;
* rational feasibility is enforced incrementally along the SAT trail, and
  integrality of the problem variables is obtained by branch-and-bound
  splitting, driven by :class:`repro.smt.solver.Solver`.

Bound axioms
------------
The atoms of one column are not independent: ``x ≥ 4`` already refutes
``x ≤ 2``.  Left to the simplex, every such pair costs a decision and a
two-bound theory conflict.  Instead :meth:`LiaBridge.register_atom`
returns the theory-valid binary clauses that link a new atom to its
neighbours on the same column (Dutertre & de Moura, CAV 2006, §4), and
the solver adds them to the CDCL core as problem clauses.

Every atom is normalised to a rung ``(c, L)`` of its column's *ladder*,
with ``L ⇔ column ≤ c``: a positively signed atom gives ``c = bound``,
``L = satvar``; a negatively signed one (a slack carrying the negated
form, or ``-x ≤ b``) gives ``c = -bound - 1``, ``L = -satvar``.  A ladder
is two parallel lists, the thresholds ``c`` sorted ascending and their
literals, so both the axioms and the row derivations below bisect the
thresholds directly.  Inserting ``(c, L)`` between ``(c₁, L₁)`` and
``(c₂, L₂)`` yields ``¬L₁ ∨ L`` and ``¬L ∨ L₂``, plus ``¬L ∨ L₁`` when
``c₁ = c``.  Links between former neighbours stay valid, so atoms
registered late (invariant rows, resized capacities, branch-and-bound
splits) need no rebuild, and unit propagation over the chain derives
every implication between the atoms of one column.

The ladder axioms are clauses rather than a propagation hook on
purpose: their reasons never depend on the trail, and a static binary
clause *is* the reason.  They never enter the
:class:`~repro.smt.cnf.CnfBuilder` image, so snapshots and their content
hashes are unchanged; a restored solver regenerates them when its
bridge re-registers the atoms.

Row-derived bounds
------------------
The axioms relate atoms of one column; a tableau row relates columns.
With every other term of a row at its bound, the row bounds the last
one (Dutertre & de Moura, CAV 2006, §4): from ``s = x + y``, ``s ≤ 3``
and ``x ≥ 2`` follows ``y ≤ 1``.  Such a bound depends on the trail, so
it travels through the CDCL core's theory-propagation hook instead of
a clause.  After each consistent assertion batch the core calls
:meth:`LiaBridge.derive`: :meth:`Simplex.derive
<repro.smt.simplex.Simplex.derive>` reads both sides of every row
holding a bound the batch tightened and returns every bound tighter
than its column's own, and the bridge maps each to the nearest rung it
implies on the column's ladder: ``column ≤ U`` to the lowest rung
``c`` with ``c + 1 > U``, ``column ≥ V`` to the negation of the highest
rung ``c < V``.  The ladder axioms propagate every farther rung, and a
rung that the column's asserted bound already implies is dropped as
redundant.  The core asks :meth:`LiaBridge.explain` for the reason only
when it enqueues the literal: the bound literals of the other terms of
that row side, which with the negated rung are infeasible.  A reason is
one row's Farkas combination, like a simplex conflict.  The columns
are integral, so rounding a rational bound to the rung is sound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .simplex import Simplex
from .terms import IntVar, LinearAtom

__all__ = ["LiaBridge"]


class LiaBridge:
    """Theory listener for the CDCL solver (see ``TheoryListener``)."""

    def __init__(self) -> None:
        self.simplex = Simplex()
        self._var_of_int: dict[IntVar, int] = {}
        self._slack_of_form: dict[tuple[tuple[int, int], ...], int] = {}
        # column -> its ladder as parallel lists: thresholds c sorted
        # ascending, and the literals L with L <=> column <= c.
        self._ladders: dict[int, tuple[list[int], list[int]]] = {}
        # column -> (lowest c, highest c + 1): a derived bound says nothing
        # about the ladder beyond that range.
        self._ranges: dict[int, tuple[int, int]] = {}
        # Per-atom prebuilt assertion plans keyed by the *signed* literal:
        # assert_index is the solver's hottest theory path, so the bound
        # arithmetic happens once at registration, not per assertion.
        # Bounds are plain ints, the simplex's normal form for integral
        # values: it holds a Fraction only where a pivot division leaves
        # the integers (see repro.smt.simplex).
        self._assert_plan: dict[int, tuple[bool, int, int]] = {}
        # SAT variables that carry a theory atom.  The CDCL core reads this
        # to skip pure-boolean trail literals without a call per literal.
        self.atom_vars: set[int] = set()
        # Sparse undo alignment with the SAT trail: (trail index, simplex
        # undo length before that assertion), one entry per *atom* literal
        # asserted.  Non-atom trail positions never touch the simplex, so
        # they need no mark.
        self._asserted: list[tuple[int, int]] = []
        # Row-derived bound counters (see derive()).
        self.implied = 0
        self.implied_redundant = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def theory_var(self, var: IntVar) -> int:
        column = self._var_of_int.get(var)
        if column is None:
            column = self.simplex.new_var()
            self._var_of_int[var] = column
        return column

    def register_atom(self, satvar: int, atom: LinearAtom) -> list[list[int]]:
        """Make ``satvar``'s polarity control the constraint ``atom``.

        Returns the bound axioms linking the atom into its column's ladder
        (see the module docstring); empty when ``satvar`` is known.
        """
        if satvar in self.atom_vars:
            return []
        if len(atom.coeffs) == 1:
            var, coeff = atom.coeffs[0]
            # gcd normalisation leaves single-variable coefficients at ±1.
            assert coeff in (1, -1), atom
            column = self.theory_var(var)
            return self._plan_bounds(satvar, column, coeff, atom.bound)
        form = tuple((v.uid, c) for v, c in atom.coeffs)
        sign = 1
        negated = tuple((uid, -c) for uid, c in form)
        if negated in self._slack_of_form:
            form, sign = negated, -1
        slack = self._slack_of_form.get(form)
        if slack is None:
            combo = {self.theory_var(v): c for v, c in atom.coeffs}
            slack = self.simplex.define(combo)
            self._slack_of_form[form] = slack
        return self._plan_bounds(satvar, slack, sign, atom.bound)

    def _plan_bounds(
        self, satvar: int, column: int, sign: int, bound: int
    ) -> list[list[int]]:
        self.atom_vars.add(satvar)
        # sign=-1 means the shared slack carries the *negated* form, so the
        # atom "form <= bound" reads "slack >= -bound" on that column.
        if sign > 0:
            self._assert_plan[satvar] = (True, column, bound)
            self._assert_plan[-satvar] = (False, column, bound + 1)
            threshold, lit = bound, satvar
        else:
            self._assert_plan[satvar] = (False, column, -bound)
            self._assert_plan[-satvar] = (True, column, -bound - 1)
            threshold, lit = -bound - 1, -satvar
        # Link the rung (threshold, lit) to its ladder neighbours.
        ladder = self._ladders.get(column)
        if ladder is None:
            ladder = self._ladders[column] = ([], [])
        thresholds, lits = ladder
        at = bisect_right(thresholds, threshold)
        axioms = []
        if at:
            below_lit = lits[at - 1]
            axioms.append([-below_lit, lit])
            if thresholds[at - 1] == threshold:
                axioms.append([-lit, below_lit])
        if at < len(lits):
            axioms.append([-lit, lits[at]])
        thresholds.insert(at, threshold)
        lits.insert(at, lit)
        self._ranges[column] = (thresholds[0], thresholds[-1] + 1)
        return axioms

    # ------------------------------------------------------------------
    # TheoryListener interface
    # ------------------------------------------------------------------
    def assert_index(self, index: int, lit: int) -> list[int] | None:
        plan = self._assert_plan.get(lit)
        if plan is None:
            return None
        simplex = self.simplex
        self._asserted.append((index, len(simplex._undo)))
        upper, column, bound = plan
        if upper:
            conflict = simplex.assert_upper(column, bound, lit)
        else:
            conflict = simplex.assert_lower(column, bound, lit)
        if conflict is not None:
            return conflict
        # check() with an empty dirty set is a no-op (a clean check always
        # drains it), so only pay the pivoting loop when this assertion
        # actually left a basic variable out of bounds.
        if simplex._dirty:
            return simplex.check()
        return None

    def pop_to(self, trail_length: int) -> None:
        asserted = self._asserted
        target = -1
        while asserted and asserted[-1][0] >= trail_length:
            target = asserted.pop()[1]
        if target >= 0:
            self.simplex.undo_to(target)

    def final_check(self) -> list[int] | None:
        return self.simplex.check(full=True)

    def derive(self) -> list[tuple[int, tuple[int, int, int]]]:
        """Rung literals implied by the rows the last batch tightened.

        Each row-derived bound (:meth:`Simplex.derive`) maps to the nearest
        rung it implies on its column's ladder: ``column ≤ U`` to the
        lowest ``c`` with ``c + 1 > U``, ``column ≥ V`` to ``¬L`` of the
        highest ``c < V``.  A rung the column's own bound already implies
        is counted as redundant and dropped; the ladder axioms propagate
        everything beyond the nearest rung.  Returns ``(literal, token)``
        pairs; :meth:`explain` maps a token to the literals behind it.
        """
        simplex = self.simplex
        if not simplex._touched:
            return []
        ladders = self._ladders
        implied = []
        redundant = 0
        # The ranges keep every derived bound inside its ladder, so the
        # nearest rung always exists.
        for column, upper, bound, token in simplex.derive(self._ranges):
            thresholds, lits = ladders[column]
            if upper:
                at = bisect_right(thresholds, bound - 1)
                current = simplex._upper[column]
                if current is not None and current <= thresholds[at]:
                    redundant += 1
                    continue
                implied.append((lits[at], token))
            else:
                at = bisect_left(thresholds, bound)
                current = simplex._lower[column]
                if current is not None and current > thresholds[at - 1]:
                    redundant += 1
                    continue
                implied.append((-lits[at - 1], token))
        self.implied += len(implied)
        self.implied_redundant += redundant
        return implied

    def explain(self, token: tuple[int, int, int]) -> list[int]:
        """The asserted literals that imply a :meth:`derive` literal."""
        return self.simplex.explain(token)

    def profile(self) -> dict[str, int]:
        """Row-derivation counters, cumulative like ``Simplex.profile``.

        ``derived_rows`` — tableau rows :meth:`derive` read; ``implied`` —
        rung literals it returned; ``implied_redundant`` — derived bounds
        whose nearest rung was already true.
        """
        return {
            "derived_rows": self.simplex.derived_rows,
            "implied": self.implied,
            "implied_redundant": self.implied_redundant,
        }

    # ------------------------------------------------------------------
    # Model access / branching support
    # ------------------------------------------------------------------
    def known_int_vars(self) -> list[IntVar]:
        return list(self._var_of_int)

    def rational_value(self, var: IntVar) -> Fraction | int:
        column = self._var_of_int.get(var)
        if column is None:
            return 0
        return self.simplex.value(column)

    def fractional_var(self) -> tuple[IntVar, Fraction] | None:
        """An integer problem variable with a non-integral simplex value.

        int values have ``.denominator == 1``, so the integral states the
        simplex keeps as machine ints are filtered here for free.
        """
        for var, column in self._var_of_int.items():
            value = self.simplex.value(column)
            if value.denominator != 1:
                return var, value
        return None
