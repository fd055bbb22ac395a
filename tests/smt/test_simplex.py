"""Unit tests for the exact incremental simplex."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _simplex_reference
from repro.smt import Result, Solver, eq, ge, intvar, le
from repro.smt import simplex as simplex_module
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


def _pivot_chain():
    """A chain of rows whose check() must pivot repeatedly."""
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
    return simplex


def test_many_pivots_terminate():
    # The sparsest-column entering rule alone could cycle; check() ends
    # because it falls back to Bland's rule after _BLAND_AFTER pivots.
    assert _pivot_chain().bland_pivots == 0


def test_many_pivots_terminate_under_bland_fallback(monkeypatch):
    monkeypatch.setattr(simplex_module, "_BLAND_AFTER", 0)
    simplex = _pivot_chain()
    assert simplex.bland_pivots == simplex.pivots > 0


# ---------------------------------------------------------------------------
# Integer rows: int cells over one positive, gcd-reduced row denominator;
# β values and bounds are ints when integral, exact Fractions otherwise
# ---------------------------------------------------------------------------


def _stored_values(simplex):
    """Every β value and bound the simplex holds."""
    yield from simplex._beta
    for var in range(simplex._n):
        yield from (bound for bound in simplex.bounds(var) if bound is not None)


def _integral_fractions(simplex):
    return [
        value
        for value in _stored_values(simplex)
        if type(value) is not int and value.denominator == 1
    ]


def _assert_integer_rows(simplex):
    for basic, row in simplex._rows.items():
        den = simplex._den[basic]
        assert type(den) is int and den > 0
        assert all(type(cell) is int and cell for cell in row.values())
        assert gcd(den, *row.values()) == 1, (basic, den, row)


def _rational_row(simplex, basic):
    den = simplex._den[basic]
    return {var: Fraction(cell, den) for var, cell in simplex._rows[basic].items()}


def test_unit_pivots_keep_every_value_an_int():
    # The chain of test_many_pivots_terminate with int coefficients: every
    # pivot coefficient is ±1, so no division may leave the integers and
    # every row keeps denominator 1.
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
    _assert_integer_rows(simplex)
    assert all(simplex._den[basic] == 1 for basic in simplex._rows)
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
    # x = s/2 now: one int cell over the row denominator 2, and an exact
    # half as the value.
    assert simplex._rows[x] == {s: 1}
    assert simplex._den[x] == 2
    _assert_integer_rows(simplex)
    assert simplex.value(x) == Fraction(1, 2)
    assert type(simplex.value(s)) is int
    assert _integral_fractions(simplex) == []


def test_substitution_rescales_and_reduces_user_rows():
    # s = 2x + 2y pivots x in: x = (s - 2y)/2.  Substituted into t = x + y
    # the user row is scaled by 2 and its y cells cancel: t = s/2.  In
    # u = 2x + y the factor 2 shares the divisor 2, so no scale: u = s - y.
    simplex = Simplex()
    x, y = simplex.new_var(), simplex.new_var()
    s = simplex.define({x: 2, y: 2})
    t = simplex.define({x: 1, y: 1})
    u = simplex.define({x: 2, y: 1})
    assert simplex.assert_lower(s, 1, reason=1) is None
    assert simplex.check() is None
    assert simplex.pivots == 1
    assert list(simplex._rows[x].items()) == [(s, 1), (y, -2)]
    assert simplex._den[x] == 2
    assert simplex._rows[t] == {s: 1}
    assert simplex._den[t] == 2
    assert list(simplex._rows[u].items()) == [(y, -1), (s, 1)]
    assert simplex._den[u] == 1
    _assert_integer_rows(simplex)
    assert [simplex.value(v) for v in (x, t, u)] == [Fraction(1, 2), Fraction(1, 2), 1]
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
        "bland_pivots": 0,
        "rational_quotients": 0,
        "asserts": 4,
        "checks": 1,
        "conflicts": 1,
        "bound_conflicts": 1,
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


def _solve(system, keep=None):
    """Assert ``system``'s bounds (only reasons in ``keep``, if given), then
    check; returns the simplex, its variables and the conflict or None."""
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
            if keep is not None and reason not in keep:
                continue
            conflict = assert_bound(var, bound, reason)
            if conflict is not None:
                return simplex, xs, slacks, conflict
    return simplex, xs, slacks, simplex.check()


def _assert_feasible_state(simplex, xs, slacks, rows):
    beta = simplex._beta
    _assert_integer_rows(simplex)
    for basic in simplex._rows:
        row = _rational_row(simplex, basic)
        assert beta[basic] == sum(coeff * beta[var] for var, coeff in row.items())
    for slack, row in zip(slacks, rows):
        assert beta[slack] == sum(coeff * beta[xs[var]] for var, coeff in row.items())
    for var in xs + slacks:
        lower, upper = simplex.bounds(var)
        assert lower is None or lower <= beta[var]
        assert upper is None or beta[var] <= upper
    assert _integral_fractions(simplex) == []
    assert simplex.rational_quotients <= simplex.pivots


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_feasible_states_are_exact_and_in_normal_form(system):
    simplex, xs, slacks, conflict = _solve(system)
    if conflict is None:
        _assert_feasible_state(simplex, xs, slacks, system[1])


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_sparse_entering_agrees_with_bland_fallback(system):
    sparse = _solve(system)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex_module, "_BLAND_AFTER", 0)
        bland = _solve(system)
    assert (sparse[3] is None) == (bland[3] is None)
    assert sparse[0].bland_pivots == 0
    assert bland[0].bland_pivots == bland[0].pivots
    for simplex, xs, slacks, conflict in (sparse, bland):
        if conflict is None:
            _assert_feasible_state(simplex, xs, slacks, system[1])
        else:
            # The reasons alone, on the same rows, are infeasible already.
            assert _solve(system, keep=set(conflict))[3] is not None


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


# ---------------------------------------------------------------------------
# Lockstep against the Fraction-cell reference (tests/smt/_simplex_reference.py)
# ---------------------------------------------------------------------------

_RATIONAL = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
_LIMIT = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=3))
_OPS = st.one_of(
    st.tuples(st.sampled_from(["lower", "upper"]), st.integers(0, 15), _LIMIT),
    st.tuples(st.just("check"), st.booleans()),
    st.tuples(
        st.just("define"),
        st.dictionaries(st.integers(0, 15), _RATIONAL, min_size=1, max_size=3),
    ),
    st.tuples(st.just("push")),
    st.tuples(st.just("pop")),
)


def _assert_same_state(simplex, reference):
    assert [(type(b), b) for b in simplex._beta] == [(type(b), b) for b in reference._beta]
    assert list(simplex._rows) == list(reference._rows)
    for basic, row in reference._rows.items():
        # Same cells in the same order (the order of a conflict's reasons).
        assert list(_rational_row(simplex, basic).items()) == list(row.items())
    assert simplex._cols == reference._cols
    assert simplex._dirty == reference._dirty
    assert simplex.profile() == reference.profile()
    _assert_integer_rows(simplex)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.dictionaries(st.integers(0, 3), _RATIONAL, min_size=1, max_size=4),
             min_size=1, max_size=4),
    st.lists(_OPS, max_size=30),
    st.sampled_from([50, 0]),
)
def test_integer_rows_match_the_fraction_reference(n_vars, rows, ops, bland_after):
    """Same conflicts (reasons in the same order), β values, rational rows
    and counters as the Fraction-cell simplex, op by op."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex_module, "_BLAND_AFTER", bland_after)
        patch.setattr(_simplex_reference, "_BLAND_AFTER", bland_after)
        pair = (Simplex(), _simplex_reference.Simplex())
        for core in pair:
            for _ in range(n_vars):
                core.new_var()
            for row in rows:
                core.define({var % n_vars: coeff for var, coeff in row.items()})
        marks = []
        reason = 0
        for op in ops:
            n = pair[0]._n
            if op[0] in ("lower", "upper"):
                reason += 1
                results = [
                    getattr(core, f"assert_{op[0]}")(op[1] % n, op[2], reason) for core in pair
                ]
            elif op[0] == "check":
                results = [core.check(full=op[1]) for core in pair]
            elif op[0] == "define":
                combo = {var % n: coeff for var, coeff in op[1].items()}
                results = [core.define(combo) for core in pair]
            elif op[0] == "push":
                marks.append(pair[0].undo_length())
                results = [None, None]
            else:
                mark = marks.pop() if marks else 0
                results = [core.undo_to(mark) for core in pair]
            assert results[0] == results[1], op
            _assert_same_state(*pair)
