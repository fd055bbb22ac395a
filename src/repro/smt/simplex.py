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

All arithmetic is exact.  A tableau row is stored as ``int`` cells over
one positive row denominator: basic ``b`` equals ``Σ cell[v] / den[b] · v``,
with the denominator and the cells sharing no common factor, so each row
has exactly one representation.  On the ±1 tableaus the engine generates
nearly every denominator is 1, and a pivot on a coefficient of 2 no longer
spreads ``fractions.Fraction`` cells through the rows it is substituted
into: the substitution scales the user row by an int and reduces it by one
gcd.  β values and bounds are kept in the int-or-Fraction normal form (a
plain ``int`` whenever the value is integral), which keeps the hot bound
assertion and β update paths on C-int arithmetic.  The counters
(:meth:`Simplex.profile`) record how often a pivot left the integers.
Bound retraction is O(1) per change via an undo trail; pivots are never
undone (the tableau is a basis change, not a logical state).

:meth:`Simplex.derive` reads the bounds that single rows imply from the
asserted ones (CAV 2006, §4), for the rows whose bounds tightened since
its last call, and :meth:`Simplex.explain` names the bound literals
behind one of them; the theory bridge turns these into propagated
literals (see :mod:`repro.smt.lia`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping

__all__ = ["Simplex"]

_NO_BOUND = None
_BLAND_AFTER = 50  # pivots per check() before entering falls back to Bland's


def _as_int(value: Fraction | int) -> Fraction | int:
    """``value`` in normal form: an ``int`` whenever it is integral."""
    if value.__class__ is not int and value.denominator == 1:
        return value.numerator
    return value


def _quotient(numerator: Fraction | int, denominator: int) -> Fraction | int:
    """Exact ``numerator / denominator`` in normal form.

    ``int / int`` would fall to float, so an integral quotient is taken
    from ``divmod`` (an ``int`` for int and Fraction operands alike) and
    only a remainder builds the exact Fraction.
    """
    whole, rest = divmod(numerator, denominator)
    if rest:
        return Fraction(numerator, denominator)
    return whole


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
        # Tableau: row per basic variable, mapping non-basic var -> int
        # cell; ``_den[basic]`` is the row's positive denominator (read
        # only while the variable is basic).
        self._rows: dict[int, dict[int, int]] = {}
        self._den: list[int] = []
        # Column index: non-basic var -> set of basic vars whose row uses it.
        self._cols: dict[int, set[int]] = {}
        # basic -> its row's terms split by sign (see _split), built on
        # demand by derive() and explain(), dropped when a pivot rewrites
        # the row.
        self._terms: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}
        # Undo trail of (var, 'L'/'U', old_bound, old_reason).
        self._undo: list[tuple[int, str, Fraction | int | None, int | None]] = []
        # Basic variables whose β may violate a bound (lazily validated).
        self._dirty: set[int] = set()
        # Variables whose bounds tightened since the last derive().
        self._touched: list[int] = []
        # Work counters (cumulative; see profile()).
        self.pivots = 0
        self.row_updates = 0
        self.bland_pivots = 0
        self.rational_quotients = 0
        self.asserts = 0
        self.checks = 0
        self.conflicts = 0
        self.bound_conflicts = 0
        # Rows read by derive(); the theory bridge reports it.
        self.derived_rows = 0

    def profile(self) -> dict[str, int]:
        """Work counters, cumulative like ``Cdcl.profile``.

        ``pivots`` — basis changes made by :meth:`check`; ``row_updates`` —
        tableau cells rewritten while substituting a pivot's entering
        variable out of the other rows; ``bland_pivots`` — pivots whose
        entering variable came from the Bland fallback (see :meth:`_repair`),
        0 unless a check ran long; ``rational_quotients`` — pivots
        whose division left the integers (a non-integral β step or pivot
        coefficient inverse, so never more than ``pivots``); ``asserts`` —
        bound assertions; ``checks`` — :meth:`check` calls; ``conflicts`` —
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
        self._den.append(1)
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
                den = self._den[var]
                for inner, cell in definition.items():
                    self._row_add(row, inner, _quotient(coeff * cell, den))
        self._beta[slack] = _as_int(
            sum((coeff * self._beta[var] for var, coeff in row.items()), 0)
        )
        # Scale the rational row to int cells over the lcm of its
        # denominators, which leaves no factor common to cells and lcm.
        den = 1
        for coeff in row.values():
            if coeff.__class__ is not int:
                den = lcm(den, coeff.denominator)
        if den != 1:
            for var, coeff in row.items():
                row[var] = _as_int(coeff * den)
        self._rows[slack] = row  # type: ignore[assignment]
        self._den[slack] = den
        for var in row:
            self._cols.setdefault(var, set()).add(slack)
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
        # The pending rows were touched by bounds a backjump may just have
        # retracted; a row is read again when one of its bounds tightens.
        self._touched.clear()
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
        self._touched.append(var)
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
        self._touched.append(var)
        if var in self._rows:
            if self._beta[var] < bound:
                self._dirty.add(var)
        elif self._beta[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def _update_nonbasic(self, var: int, value: Fraction | int) -> None:
        beta = self._beta
        rows = self._rows
        den = self._den
        delta = value - beta[var]
        beta[var] = value
        for basic in self._cols.get(var, ()):
            step = rows[basic][var] * delta
            if den[basic] != 1:
                step = _quotient(step, den[basic])
            moved = beta[basic] + step
            if moved.__class__ is not int and moved.denominator == 1:
                moved = moved.numerator
            beta[basic] = moved
            self._dirty.add(basic)

    # ------------------------------------------------------------------
    # Row-derived bounds
    # ------------------------------------------------------------------
    def derive(
        self, wanted: Mapping[int, tuple[Fraction | int, Fraction | int]]
    ) -> list[tuple[int, bool, Fraction | int, tuple[int, int, int]]]:
        """Bounds that single tableau rows imply from the asserted bounds.

        Row ``b`` reads ``d·b − Σ cell[v]·v = 0``: one term ``a·x`` per
        variable, ``a = d`` for ``b`` and ``a = −cell[v]`` for each cell.
        Its *low side* holds every term at its minimum (``x`` at its lower
        bound when ``a > 0``, at its upper bound otherwise), its high side
        at its maximum.  When every term has its side's bound ``u``, the
        side misses the row's zero by a slack ``s ≥ 0``, and no ``x`` can
        leave ``u`` by more than ``s / |a|``: a bound opposite to ``u``.
        When exactly one term lacks its bound, the others bound it alone.

        Both sides of every row holding a bound tightened since the last
        call are read: the side the bound is not on may still imply what
        a backjump undid while keeping its bounds.  ``wanted`` maps each
        column of interest to the ``(lower, upper)`` range beyond which
        its bounds are of no use.  Returns ``(column, is_upper, bound,
        token)`` for each bound on such a column that is tighter than the
        column's own bound, or than its range end where it has none;
        :meth:`explain` turns a token into the bound literals behind it,
        valid until the next assertion or pivot.
        """
        touched = self._touched
        if not touched:
            return []
        rows = self._rows
        cols = self._cols
        # The rows of the tightened columns, in first-touch order.
        basics: dict[int, None] = {}
        for var in touched:
            if var in rows:
                basics[var] = None
            else:
                for basic in cols.get(var, ()):
                    basics[basic] = None
        touched.clear()
        self.derived_rows += len(basics)
        lower = self._lower
        upper = self._upper
        implied: list[tuple[int, bool, Fraction | int, tuple[int, int, int]]] = []
        for basic in basics:
            down, down_a, up, up_a = self._terms.get(basic) or self._split(basic)
            for low in (1, 0):
                # The terms' bounds on this side: ``first`` for the a < 0
                # terms, ``second`` for the a > 0 ones.
                first, second = (upper, lower) if low else (lower, upper)
                down_at = list(map(first.__getitem__, down))
                missing = down_at.count(None)
                if missing > 1:
                    continue
                up_at = list(map(second.__getitem__, up))
                missing += up_at.count(None)
                if missing > 1:
                    continue
                groups = ((down, down_a, down_at, second), (up, up_a, up_at, first))
                if missing:
                    # Only the term without its bound gets one: standing
                    # in at 0, it lies within slack / |a| of 0 like any
                    # term of a complete side (here the slack may be < 0).
                    if None in down_at:
                        at = down_at.index(None)
                        down_at[at] = 0
                        groups = (([down[at]], [down_a[at]], [0], second),)
                    else:
                        at = up_at.index(None)
                        up_at[at] = 0
                        groups = (([up[at]], [up_a[at]], [0], first),)
                slack = sum(map(mul, up_a, up_at)) - sum(map(mul, down_a, down_at))
                if low:
                    slack = -slack
                # Each term's derived bound lies in the other list: no term
                # can leave its side bound by more than slack / |a|.
                for terms, mags, ats, into in groups:
                    is_upper = into is upper
                    for column, a, at in zip(terms, mags, ats):
                        span = wanted.get(column)
                        if span is None:
                            continue
                        current = into[column]
                        if current is None:
                            current = span[is_upper]
                        if a * (current - at if is_upper else at - current) > slack:
                            step = _quotient(slack, a) if slack else 0
                            bound = at + step if is_upper else at - step
                            implied.append((column, is_upper, bound, (basic, low, column)))
        return implied

    def _split(self, basic: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """Cache ``basic``'s row as its terms with ``a < 0`` and ``a > 0``
        (the basic variable last), each with its ``|a|``."""
        row = self._rows[basic]
        down = [var for var, cell in row.items() if cell > 0]
        up = [var for var, cell in row.items() if cell < 0]
        terms = self._terms[basic] = (
            down,
            [row[var] for var in down],
            [*up, basic],
            [-row[var] for var in up] + [self._den[basic]],
        )
        return terms

    def explain(self, token: tuple[int, int, int]) -> list[int]:
        """The bound literals behind one bound from :meth:`derive`: the
        reasons of the other terms' bounds on that row side."""
        basic, low, column = token
        down, _, up, _ = self._terms.get(basic) or self._split(basic)
        if low:
            first, second = self._upper_reason, self._lower_reason
        else:
            first, second = self._lower_reason, self._upper_reason
        reasons = list(map(first.__getitem__, down))
        reasons += map(second.__getitem__, up)
        # A positive cell is a term with a < 0; the basic variable has no cell.
        own = first if self._rows[basic].get(column, 0) > 0 else second
        reasons.remove(own[column])
        return reasons  # type: ignore[return-value]

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
            reasons = self._repair(basic, needs_increase, bland)
            if reasons is not None:
                # Keep the violation visible: the conflicting bound will be
                # retracted on backjump, after which this row may still need
                # repair under the looser bounds.
                self._dirty.add(basic)
                self.conflicts += 1
                return reasons
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

    def _repair(self, basic: int, needs_increase: bool, bland: bool) -> list[int] | None:
        """Pivot ``basic`` onto its violated bound, or return the conflict.

        Enters the eligible column used by the fewest rows; with ``bland``,
        the lowest eligible index, which completes Bland's rule and so
        cannot cycle (the sparse rule may).  When no column is eligible the
        row is infeasible, and the result is the SAT literals of its
        bounds: ``basic``'s own violated bound first, then one per cell in
        row order.
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
            return [r for r in reasons if r is not None]
        self._pivot_and_update(basic, candidate, target)
        return None

    def _pivot_and_update(self, basic: int, entering: int, value: Fraction | int) -> None:
        beta = self._beta
        rows = self._rows
        den = self._den
        denominator = den[basic]
        cell = rows[basic][entering]
        theta = _quotient((value - beta[basic]) * denominator, cell)
        beta[basic] = value
        beta[entering] = _as_int(beta[entering] + theta)
        for other in self._cols.get(entering, ()):
            if other != basic:
                step = rows[other][entering] * theta
                if den[other] != 1:
                    step = _quotient(step, den[other])
                beta[other] = _as_int(beta[other] + step)
                self._dirty.add(other)
        self._pivot(basic, entering)
        self.pivots += 1
        # The entering coefficient's inverse is denominator / cell.
        if theta.__class__ is not int or denominator % cell:
            self.rational_quotients += 1
        # The entering variable is basic now and may overshoot its own
        # opposite bound; later iterations repair it.
        self._dirty.add(entering)

    def _pivot(self, leaving: int, entering: int) -> None:
        """Swap ``leaving`` out of the basis for ``entering``.

        Solving ``leaving = Σ c·v / d`` for ``entering`` (cell ``a``) gives
        ``entering = (d·leaving − Σ c·v) / a``: the same ints with ``a`` as
        the denominator, sign-flipped when ``a < 0``, so the new row needs
        no gcd.  Each user row ``u = Σ u·v / D`` absorbing ``f/D`` times it
        is scaled by ``a / gcd(f, a)`` to stay integral, then reduced.
        """
        cols = self._cols
        rows = self._rows
        den = self._den
        row = rows.pop(leaving)
        terms = self._terms
        terms.pop(leaving, None)
        for var in row:
            cols[var].discard(leaving)
        pivot = row.pop(entering)
        # Cell insertion and deletion order matters: ``row.items()`` order
        # is the order of a conflict's reasons (see _repair).
        if pivot > 0:
            new_row = {leaving: den[leaving]}
            for var, c in row.items():
                new_row[var] = -c
            new_den = pivot
        else:
            new_row = {leaving: -den[leaving]}
            new_row.update(row)
            new_den = -pivot
        rows[entering] = new_row
        den[entering] = new_den
        for var in new_row:
            cols.setdefault(var, set()).add(entering)
        # Substitute the entering variable out of every other row.
        users = cols.pop(entering, set())
        users.discard(entering)
        self.row_updates += len(new_row) * len(users)
        for user in users:
            terms.pop(user, None)
            user_row = rows[user]
            factor = user_row.pop(entering)
            user_den = den[user]
            if new_den != 1:
                common = gcd(factor, new_den)
                scale = new_den // common
                factor //= common
                if scale != 1:
                    for var, c in user_row.items():
                        user_row[var] = c * scale
                    user_den *= scale
            for var, c in new_row.items():
                old = user_row.get(var)
                if old is None:
                    user_row[var] = factor * c
                    cols[var].add(user)
                else:
                    cell = old + factor * c
                    if cell:
                        user_row[var] = cell
                    else:
                        del user_row[var]
                        cols[var].discard(user)
            if user_den != 1:
                common = gcd(user_den, *user_row.values())
                if common != 1:
                    for var, c in user_row.items():
                        user_row[var] = c // common
                    user_den //= common
            den[user] = user_den

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def value(self, var: int) -> Fraction | int:
        return self._beta[var]

    def bounds(self, var: int) -> tuple[Fraction | int | None, Fraction | int | None]:
        return self._lower[var], self._upper[var]
