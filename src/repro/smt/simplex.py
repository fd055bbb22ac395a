"""Incremental exact simplex for linear rational arithmetic.

This is the *general simplex* of Dutertre and de Moura ("A Fast
Linear-Arithmetic Solver for DPLL(T)", CAV 2006): variables carry dynamic
lower/upper bounds asserted and retracted by the SAT search, a tableau of
linear definitions relates *basic* to *non-basic* variables, and
:meth:`Simplex.check` restores feasibility by pivoting or reports a
minimal-ish conflict (the bounds of one infeasible row).  Half of Bland's
rule is kept throughout: the smallest violated basic variable leaves.  The
entering variable is the eligible column used by the fewest rows, which
keeps pivots sparse; a check that runs past ``_BLAND_AFTER`` pivots enters
the lowest eligible index instead, and full Bland's rule terminates.

All arithmetic is exact, and every stored value — tableau cell, β value,
bound — is kept in one normal form: a plain ``int`` whenever its
denominator is 1, an exact :class:`fractions.Fraction` otherwise.  Python
ints and Fractions interoperate exactly, but ``Fraction`` arithmetic never
returns an ``int`` by itself, so the form is enforced at the two pivot
divisions (an integral quotient comes back from ``divmod`` as an ``int``)
and wherever a sum or product can land on an integral Fraction: row
additions, the pivot substitution loop and the β updates.  On the ±1
tableaus the engine generates this keeps the hot bound-assertion and
pivoting paths on C-int arithmetic instead of ``fractions.py``.  The
counters (:meth:`Simplex.profile`) record how often a pivot left the
integers.  Bound retraction is O(1) per change via an undo trail; pivots
are never undone (the tableau is a basis change, not a logical state).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

__all__ = ["Simplex", "Conflict"]

_NO_BOUND = None
_BLAND_AFTER = 50  # pivots per check() before entering falls back to Bland's


def _as_int(value: Fraction | int) -> Fraction | int:
    """``value`` in normal form: an ``int`` whenever it is integral."""
    if value.__class__ is not int and value.denominator == 1:
        return value.numerator
    return value


def _quotient(numerator: Fraction | int, denominator: Fraction | int) -> Fraction | int:
    """Exact ``numerator / denominator`` in normal form.

    ``int / int`` would fall to float, so an integral quotient is taken
    from ``divmod`` (an ``int`` for int and Fraction operands alike) and
    only a remainder builds the exact Fraction.
    """
    whole, rest = divmod(numerator, denominator)
    if rest:
        return Fraction(numerator, denominator)
    return whole


class Conflict(Exception):
    """Raised internally to surface an infeasible bound set.

    ``reasons`` holds the SAT literals whose asserted bounds are jointly
    infeasible.
    """

    def __init__(self, reasons: list[int]):
        super().__init__(f"theory conflict from {reasons}")
        self.reasons = reasons


class Simplex:
    """Exact rational simplex with incremental bound assertion."""

    def __init__(self) -> None:
        self._n = 0
        # Per-variable state (indexed by theory-variable id).
        self._lower: list[Fraction | int | None] = []
        self._upper: list[Fraction | int | None] = []
        self._lower_reason: list[int | None] = []
        self._upper_reason: list[int | None] = []
        self._beta: list[Fraction | int] = []
        # Tableau: row per basic variable, mapping non-basic var -> coeff.
        self._rows: dict[int, dict[int, Fraction | int]] = {}
        # Column index: non-basic var -> set of basic vars whose row uses it.
        self._cols: dict[int, set[int]] = {}
        # Undo trail of (var, 'L'/'U', old_bound, old_reason).
        self._undo: list[tuple[int, str, Fraction | int | None, int | None]] = []
        # Basic variables whose β may violate a bound (lazily validated).
        self._dirty: set[int] = set()
        # Work counters (cumulative; see profile()).
        self.pivots = 0
        self.row_updates = 0
        self.bland_pivots = 0
        self.rational_quotients = 0
        self.asserts = 0
        self.checks = 0
        self.conflicts = 0
        self.bound_conflicts = 0

    def profile(self) -> dict[str, int]:
        """Work counters, cumulative like ``Cdcl.profile``.

        ``pivots`` — basis changes made by :meth:`check`; ``row_updates`` —
        tableau cells rewritten while substituting a pivot's entering
        variable out of the other rows; ``bland_pivots`` — pivots whose
        entering variable came from the Bland fallback (see :meth:`_repair`),
        0 unless a check ran long; ``rational_quotients`` — pivots
        whose division left the integers (a non-integral β step or pivot
        coefficient, so never more than ``pivots``); ``asserts`` — bound
        assertions; ``checks`` — :meth:`check` calls; ``conflicts`` —
        infeasible rows reported by :meth:`check`; ``bound_conflicts`` —
        assertions refuted by the opposite bound of the same variable
        (the two-bound conflicts that bound axioms leave to the SAT core).
        """
        return {
            "pivots": self.pivots,
            "row_updates": self.row_updates,
            "bland_pivots": self.bland_pivots,
            "rational_quotients": self.rational_quotients,
            "asserts": self.asserts,
            "checks": self.checks,
            "conflicts": self.conflicts,
            "bound_conflicts": self.bound_conflicts,
        }

    # ------------------------------------------------------------------
    # Variable and row registration
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        var = self._n
        self._n += 1
        self._lower.append(_NO_BOUND)
        self._upper.append(_NO_BOUND)
        self._lower_reason.append(None)
        self._upper_reason.append(None)
        self._beta.append(0)
        return var

    def define(self, combo: Mapping[int, Fraction | int]) -> int:
        """Create a slack variable ``s`` with the invariant ``s = combo``.

        ``combo`` may mention both basic and non-basic variables; basic ones
        are substituted by their rows so the new row only mentions non-basic
        variables.  The new variable starts basic.
        """
        slack = self.new_var()
        row: dict[int, Fraction | int] = {}
        for var, coeff in combo.items():
            definition = self._rows.get(var)
            if definition is None:
                self._row_add(row, var, coeff)
            else:
                for inner, inner_coeff in definition.items():
                    self._row_add(row, inner, coeff * inner_coeff)
        self._rows[slack] = row
        for var in row:
            self._cols.setdefault(var, set()).add(slack)
        self._beta[slack] = _as_int(
            sum((coeff * self._beta[var] for var, coeff in row.items()), 0)
        )
        return slack

    @staticmethod
    def _row_add(row: dict[int, Fraction | int], var: int, coeff: Fraction | int) -> None:
        updated = row.get(var, 0) + coeff
        if updated:
            row[var] = _as_int(updated)
        else:
            row.pop(var, None)

    # ------------------------------------------------------------------
    # Bound assertion (the theory-literal interface)
    # ------------------------------------------------------------------
    def undo_length(self) -> int:
        return len(self._undo)

    def undo_to(self, length: int) -> None:
        while len(self._undo) > length:
            var, which, bound, reason = self._undo.pop()
            if which == "L":
                self._lower[var] = bound
                self._lower_reason[var] = reason
            else:
                self._upper[var] = bound
                self._upper_reason[var] = reason

    def assert_upper(self, var: int, bound: Fraction | int, reason: int) -> list[int] | None:
        """Assert ``var ≤ bound``; returns conflict reasons or None."""
        self.asserts += 1
        current = self._upper[var]
        if current is not None and current <= bound:
            return None
        lower = self._lower[var]
        if lower is not None and bound < lower:
            self.bound_conflicts += 1
            return [self._lower_reason[var], reason]  # type: ignore[list-item]
        bound = _as_int(bound)
        self._undo.append((var, "U", current, self._upper_reason[var]))
        self._upper[var] = bound
        self._upper_reason[var] = reason
        if var in self._rows:
            if self._beta[var] > bound:
                self._dirty.add(var)
        elif self._beta[var] > bound:
            self._update_nonbasic(var, bound)
        return None

    def assert_lower(self, var: int, bound: Fraction | int, reason: int) -> list[int] | None:
        """Assert ``var ≥ bound``; returns conflict reasons or None."""
        self.asserts += 1
        current = self._lower[var]
        if current is not None and current >= bound:
            return None
        upper = self._upper[var]
        if upper is not None and bound > upper:
            self.bound_conflicts += 1
            return [self._upper_reason[var], reason]  # type: ignore[list-item]
        bound = _as_int(bound)
        self._undo.append((var, "L", current, self._lower_reason[var]))
        self._lower[var] = bound
        self._lower_reason[var] = reason
        if var in self._rows:
            if self._beta[var] < bound:
                self._dirty.add(var)
        elif self._beta[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def _update_nonbasic(self, var: int, value: Fraction | int) -> None:
        beta = self._beta
        delta = value - beta[var]
        beta[var] = value
        for basic in self._cols.get(var, ()):
            moved = beta[basic] + self._rows[basic][var] * delta
            if moved.__class__ is not int and moved.denominator == 1:
                moved = moved.numerator
            beta[basic] = moved
            self._dirty.add(basic)

    # ------------------------------------------------------------------
    # Feasibility restoration
    # ------------------------------------------------------------------
    def check(self, full: bool = False) -> list[int] | None:
        """Restore bound-feasibility; returns conflict reasons or None.

        With ``full=True`` every row is re-validated instead of trusting the
        dirty-set bookkeeping; the theory bridge uses this as a safety net at
        full assignments.
        """
        self.checks += 1
        if full:
            self._dirty.update(self._rows)
        pivots = 0
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return None
            basic, needs_increase = violated
            bland = pivots >= _BLAND_AFTER
            try:
                self._repair(basic, needs_increase, bland)
            except Conflict as conflict:
                # Keep the violation visible: the conflicting bound will be
                # retracted on backjump, after which this row may still need
                # repair under the looser bounds.
                self._dirty.add(basic)
                self.conflicts += 1
                return conflict.reasons
            pivots += 1
            self.bland_pivots += bland

    def _violation(self, basic: int) -> bool | None:
        """None if within bounds, else True (below lower) / False (above upper)."""
        lower = self._lower[basic]
        if lower is not None and self._beta[basic] < lower:
            return True
        upper = self._upper[basic]
        if upper is not None and self._beta[basic] > upper:
            return False
        return None

    def _find_violated_basic(self) -> tuple[int, bool] | None:
        """Smallest violated basic: the leaving half of Bland's rule, always kept."""
        stale: list[int] = []
        best: tuple[int, bool] | None = None
        for basic in self._dirty:
            if basic not in self._rows:
                stale.append(basic)
                continue
            direction = self._violation(basic)
            if direction is None:
                stale.append(basic)
            elif best is None or basic < best[0]:
                best = (basic, direction)
        for basic in stale:
            self._dirty.discard(basic)
        if best is not None:
            self._dirty.discard(best[0])
        return best

    def _repair(self, basic: int, needs_increase: bool, bland: bool) -> None:
        """Pivot ``basic`` onto its violated bound, or raise :class:`Conflict`.

        Enters the eligible column used by the fewest rows; with ``bland``,
        the lowest eligible index, which completes Bland's rule and so
        cannot cycle (the sparse rule may).
        """
        row = self._rows[basic]
        target = self._lower[basic] if needs_increase else self._upper[basic]
        assert target is not None
        candidate: int | None = None
        fewest: tuple[int, int] | None = None
        for var in sorted(row) if bland else row:
            if (row[var] > 0) == needs_increase:
                upper = self._upper[var]
                if upper is not None and self._beta[var] >= upper:
                    continue
            else:
                lower = self._lower[var]
                if lower is not None and self._beta[var] <= lower:
                    continue
            if bland:
                candidate = var
                break
            key = (len(self._cols.get(var, ())), var)
            if fewest is None or key < fewest:
                fewest, candidate = key, var
        if candidate is None:
            reasons: list[int] = []
            own_reason = (
                self._lower_reason[basic] if needs_increase else self._upper_reason[basic]
            )
            reasons.append(own_reason)  # type: ignore[arg-type]
            for var, coeff in row.items():
                grows = coeff > 0 if needs_increase else coeff < 0
                reason = self._upper_reason[var] if grows else self._lower_reason[var]
                reasons.append(reason)  # type: ignore[arg-type]
            raise Conflict([r for r in reasons if r is not None])
        self._pivot_and_update(basic, candidate, target)

    def _pivot_and_update(self, basic: int, entering: int, value: Fraction | int) -> None:
        beta = self._beta
        rows = self._rows
        theta = _quotient(value - beta[basic], rows[basic][entering])
        beta[basic] = value
        beta[entering] = _as_int(beta[entering] + theta)
        for other in self._cols.get(entering, ()):
            if other != basic:
                beta[other] = _as_int(beta[other] + rows[other][entering] * theta)
                self._dirty.add(other)
        inv = self._pivot(basic, entering)
        self.pivots += 1
        if theta.__class__ is not int or inv.__class__ is not int:
            self.rational_quotients += 1
        # The entering variable is basic now and may overshoot its own
        # opposite bound; later iterations repair it.
        self._dirty.add(entering)

    def _pivot(self, leaving: int, entering: int) -> Fraction | int:
        """Swap ``leaving`` out of the basis for ``entering``.

        Returns the pivot coefficient's inverse, the basis change's only
        division besides the β step in :meth:`_pivot_and_update`.
        """
        cols = self._cols
        row = self._rows.pop(leaving)
        for var in row:
            cols[var].discard(leaving)
        inv = _quotient(1, row.pop(entering))
        new_row = {leaving: inv}
        for var, c in row.items():
            new_row[var] = _as_int(-c * inv)
        self._rows[entering] = new_row
        for var in new_row:
            cols.setdefault(var, set()).add(entering)
        # Substitute the entering variable out of every other row.  Cell
        # insertion and deletion order matters: ``row.items()`` order is
        # the order of a conflict's reasons (see _repair).
        users = cols.pop(entering, set())
        users.discard(entering)
        self.row_updates += len(new_row) * len(users)
        for user in users:
            user_row = self._rows[user]
            factor = user_row.pop(entering)
            for var, c in new_row.items():
                old = user_row.get(var)
                if old is None:
                    cell = factor * c
                    cols[var].add(user)
                else:
                    cell = old + factor * c
                    if not cell:
                        del user_row[var]
                        cols[var].discard(user)
                        continue
                if cell.__class__ is not int and cell.denominator == 1:
                    cell = cell.numerator
                user_row[var] = cell
        return inv

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def value(self, var: int) -> Fraction | int:
        return self._beta[var]

    def is_basic(self, var: int) -> bool:
        return var in self._rows

    def bounds(self, var: int) -> tuple[Fraction | int | None, Fraction | int | None]:
        return self._lower[var], self._upper[var]
