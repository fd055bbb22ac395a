"""Unit tests for the exact incremental simplex."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Result, Solver, eq, ge, intvar, le
from repro.smt.simplex import Simplex


def test_plain_bounds_no_rows():
    simplex = Simplex()
    x = simplex.new_var()
    assert simplex.assert_lower(x, Fraction(2), reason=1) is None
    assert simplex.assert_upper(x, Fraction(5), reason=2) is None
    assert simplex.check() is None
    assert Fraction(2) <= simplex.value(x) <= Fraction(5)


def test_immediate_bound_conflict():
    simplex = Simplex()
    x = simplex.new_var()
    assert simplex.assert_lower(x, Fraction(3), reason=1) is None
    conflict = simplex.assert_upper(x, Fraction(2), reason=2)
    assert conflict is not None
    assert set(conflict) == {1, 2}


def test_row_feasibility():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: Fraction(1), y: Fraction(1)})  # s = x + y
    assert simplex.assert_lower(x, Fraction(1), reason=1) is None
    assert simplex.assert_lower(y, Fraction(1), reason=2) is None
    assert simplex.assert_upper(s, Fraction(3), reason=3) is None
    assert simplex.check() is None
    assert simplex.value(x) + simplex.value(y) == simplex.value(s)
    assert simplex.value(s) <= 3


def test_row_conflict_explanation():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: Fraction(1), y: Fraction(1)})
    assert simplex.assert_lower(x, Fraction(2), reason=10) is None
    assert simplex.assert_lower(y, Fraction(2), reason=11) is None
    conflict = simplex.assert_upper(s, Fraction(3), reason=12) or simplex.check()
    assert conflict is not None
    assert set(conflict) == {10, 11, 12}


def test_conflict_via_two_rows():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    diff = simplex.define({x: Fraction(1), y: Fraction(-1)})  # x - y
    total = simplex.define({x: Fraction(1), y: Fraction(1)})  # x + y
    assert simplex.assert_lower(diff, Fraction(2), reason=1) is None
    assert simplex.assert_upper(total, Fraction(1), reason=2) is None
    assert simplex.assert_lower(y, Fraction(0), reason=3) is None
    conflict = simplex.check()
    assert conflict is not None
    assert 3 in conflict or 2 in conflict


def test_undo_restores_bounds():
    simplex = Simplex()
    x = simplex.new_var()
    mark = simplex.undo_length()
    assert simplex.assert_upper(x, Fraction(1), reason=1) is None
    assert simplex.bounds(x)[1] == 1
    simplex.undo_to(mark)
    assert simplex.bounds(x) == (None, None)


def test_undo_then_reassert_after_conflict():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: Fraction(1), y: Fraction(1)})
    assert simplex.assert_lower(x, Fraction(2), reason=1) is None
    mark = simplex.undo_length()
    assert simplex.assert_lower(y, Fraction(2), reason=2) is None
    conflict = simplex.assert_upper(s, Fraction(3), reason=3) or simplex.check()
    assert conflict is not None
    simplex.undo_to(mark)
    # With y's bound retracted, s <= 3 is consistent again.
    assert simplex.assert_upper(s, Fraction(3), reason=4) is None
    assert simplex.check() is None
    assert simplex.value(s) <= 3
    assert simplex.value(x) >= 2


def test_define_substitutes_basic_vars():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: Fraction(1), y: Fraction(1)})
    t = simplex.define({s: Fraction(2), x: Fraction(1)})  # t = 2s + x = 3x + 2y
    assert simplex.assert_lower(x, Fraction(1), reason=1) is None
    assert simplex.assert_lower(y, Fraction(1), reason=2) is None
    assert simplex.check() is None
    assert simplex.value(t) == 3 * simplex.value(x) + 2 * simplex.value(y)


def test_equalities_via_double_bounds():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: Fraction(1), y: Fraction(1)})
    for var, value, base in ((x, 2, 10), (s, 7, 20)):
        assert simplex.assert_lower(var, Fraction(value), reason=base) is None
        assert simplex.assert_upper(var, Fraction(value), reason=base + 1) is None
    assert simplex.check() is None
    assert simplex.value(y) == 5


def test_fractional_solution_values():
    simplex = Simplex()
    x = simplex.new_var()
    s = simplex.define({x: Fraction(2)})
    assert simplex.assert_lower(s, Fraction(1), reason=1) is None
    assert simplex.assert_upper(s, Fraction(1), reason=2) is None
    assert simplex.check() is None
    assert simplex.value(x) == Fraction(1, 2)


def test_full_check_rescans_everything():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    simplex.define({x: Fraction(1), y: Fraction(1)})
    assert simplex.check(full=True) is None


def test_many_pivots_terminate():
    # A chain of rows forcing repeated pivoting (Bland's rule must terminate).
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(6)]
    sums = [
        simplex.define({xs[i]: Fraction(1), xs[i + 1]: Fraction(1)})
        for i in range(5)
    ]
    for i, s in enumerate(sums):
        assert simplex.assert_lower(s, Fraction(1), reason=100 + i) is None
    for i, x in enumerate(xs):
        assert simplex.assert_upper(x, Fraction(1), reason=200 + i) is None
        assert simplex.assert_lower(x, Fraction(0), reason=300 + i) is None
    assert simplex.check() is None
    for i, s in enumerate(sums):
        assert simplex.value(s) >= 1


# ---------------------------------------------------------------------------
# Normal form: integral values are stored as ints, others as exact Fractions
# ---------------------------------------------------------------------------


def _stored_values(simplex):
    """Every tableau cell, β value and bound the simplex holds."""
    for row in simplex._rows.values():
        yield from row.values()
    yield from simplex._beta
    for var in range(simplex._n):
        yield from (bound for bound in simplex.bounds(var) if bound is not None)


def _integral_fractions(simplex):
    return [
        value
        for value in _stored_values(simplex)
        if type(value) is not int and value.denominator == 1
    ]


def test_unit_pivots_keep_every_value_an_int():
    # The chain of test_many_pivots_terminate with int coefficients: every
    # pivot coefficient is ±1, so no division may leave the integers.
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(6)]
    sums = [simplex.define({xs[i]: 1, xs[i + 1]: -1 if i % 2 else 1}) for i in range(5)]
    for i, s in enumerate(sums):
        assert simplex.assert_lower(s, 1, reason=100 + i) is None
    for i, x in enumerate(xs):
        assert simplex.assert_upper(x, 3, reason=200 + i) is None
        assert simplex.assert_lower(x, Fraction(0), reason=300 + i) is None
    assert simplex.check() is None
    assert simplex.pivots >= 3
    assert simplex.rational_quotients == 0
    assert all(type(value) is int for value in _stored_values(simplex))


def test_non_unit_pivot_stays_exact():
    simplex = Simplex()
    x = simplex.new_var()
    s = simplex.define({x: 2})  # s = 2x
    assert simplex.assert_lower(s, 1, reason=1) is None
    assert simplex.assert_upper(s, 1, reason=2) is None
    assert simplex.check() is None
    assert simplex.pivots == 1
    assert simplex.rational_quotients == 1
    # x = s/2 now: the pivot coefficient and the value are exact halves.
    assert simplex._rows[x] == {s: Fraction(1, 2)}
    assert type(simplex._rows[x][s]) is Fraction
    assert simplex.value(x) == Fraction(1, 2)
    assert type(simplex.value(s)) is int
    assert _integral_fractions(simplex) == []


def test_counters_track_asserts_checks_and_conflicts():
    simplex = Simplex()
    x = simplex.new_var()
    y = simplex.new_var()
    s = simplex.define({x: 1, y: 1})
    assert simplex.assert_lower(x, 2, reason=1) is None
    assert simplex.assert_lower(y, 2, reason=2) is None
    assert simplex.assert_upper(s, 3, reason=3) is None
    assert simplex.check() is not None
    assert simplex.assert_upper(x, 1, reason=4) == [1, 4]
    assert simplex.profile() == {
        "pivots": 0,
        "row_updates": 0,
        "rational_quotients": 0,
        "asserts": 4,
        "checks": 1,
        "conflicts": 2,
    }


_COEFFS = st.integers(-3, 3).filter(bool)
_BOUND = st.one_of(st.none(), st.integers(-6, 6))


@st.composite
def _systems(draw):
    n_vars = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, n_vars - 1), _COEFFS, min_size=1, max_size=n_vars),
            min_size=1,
            max_size=4,
        )
    )
    n_total = n_vars + len(rows)
    bounds = draw(st.lists(st.tuples(_BOUND, _BOUND), min_size=n_total, max_size=n_total))
    return n_vars, rows, bounds


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_feasible_states_are_exact_and_in_normal_form(system):
    n_vars, rows, bounds = system
    simplex = Simplex()
    xs = [simplex.new_var() for _ in range(n_vars)]
    slacks = [simplex.define({xs[var]: coeff for var, coeff in row.items()}) for row in rows]
    reason = 0
    for var, (lower, upper) in zip(xs + slacks, bounds):
        for bound, assert_bound in ((lower, simplex.assert_lower), (upper, simplex.assert_upper)):
            if bound is None:
                continue
            reason += 1
            if assert_bound(var, bound, reason) is not None:
                return
    if simplex.check() is not None:
        return
    beta = simplex._beta
    for basic, row in simplex._rows.items():
        assert beta[basic] == sum(coeff * beta[var] for var, coeff in row.items())
    for slack, row in zip(slacks, rows):
        assert beta[slack] == sum(coeff * beta[xs[var]] for var, coeff in row.items())
    for var in xs + slacks:
        lower, upper = simplex.bounds(var)
        assert lower is None or lower <= beta[var]
        assert upper is None or beta[var] <= upper
    assert _integral_fractions(simplex) == []
    assert simplex.rational_quotients <= simplex.pivots


def test_solver_profile_reports_simplex_deltas():
    x, y = intvar("x"), intvar("y")
    solver = Solver()
    for term in (ge(x, 0), ge(y, 0), le(x, 10), le(y, 10), eq(x + y, 7), ge(x - y, 3)):
        solver.add(term)
    assert solver.check() == Result.SAT
    first = solver.profile
    assert first["simplex_asserts"] > 0
    assert first["simplex_checks"] > 0
    assert 0 < first["simplex_pivots"]
    assert first["simplex_rational_quotients"] <= first["simplex_pivots"]
    # Deltas, not running totals: the re-query keeps its level-0 bounds,
    # so it reports fewer assertions than the first query made.
    assert solver.check() == Result.SAT
    assert solver.profile["simplex_asserts"] < first["simplex_asserts"]
