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
form, or ``-x ≤ b``) gives ``c = -bound - 1``, ``L = -satvar``.  Rungs are
kept sorted by ``c``.  Inserting ``(c, L)`` between ``(c₁, L₁)`` and
``(c₂, L₂)`` yields ``¬L₁ ∨ L`` and ``¬L ∨ L₂``, plus ``¬L ∨ L₁`` when
``c₁ = c``.  Links between former neighbours stay valid, so atoms
registered late (invariant rows, resized capacities, branch-and-bound
splits) need no rebuild, and unit propagation over the chain derives
every implication between the atoms of one column.

The axioms are clauses rather than a propagation hook on purpose: the
CDCL core needs every implied literal's reason as a clause reference,
and a static binary clause *is* that reason.  They never enter the
:class:`~repro.smt.cnf.CnfBuilder` image, so snapshots and their content
hashes are unchanged; a restored or forked solver regenerates them when
its bridge re-registers the atoms.
"""

from __future__ import annotations

from bisect import bisect_right
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
        # column -> ladder of (c, L) rungs sorted by c, with L <=> column <= c.
        self._ladder: dict[int, list[tuple[int, int]]] = {}
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
        ladder = self._ladder.setdefault(column, [])
        at = bisect_right(ladder, threshold, key=lambda rung: rung[0])
        axioms = []
        if at:
            below, below_lit = ladder[at - 1]
            axioms.append([-below_lit, lit])
            if below == threshold:
                axioms.append([-lit, below_lit])
        if at < len(ladder):
            axioms.append([-lit, ladder[at][1]])
        ladder.insert(at, (threshold, lit))
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
