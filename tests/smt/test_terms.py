"""Unit tests for the term language and its normalisations."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    FALSE,
    TRUE,
    And,
    Atom,
    LinearAtom,
    LinExpr,
    Not,
    Or,
    as_linexpr,
    boolvar,
    conj,
    disj,
    eq,
    exactly_one,
    ge,
    gt,
    iff,
    implies,
    intvar,
    ite,
    le,
    lt,
    ne,
    neg,
)
from repro.smt import terms


def test_boolvar_interned_by_name():
    assert boolvar("x") is boolvar("x")
    assert boolvar("x") is not boolvar("y")


def test_fresh_boolvars_distinct():
    assert boolvar() is not boolvar()


def test_intvars_are_nominal():
    assert intvar("n") is not intvar("n")


def test_neg_involution_and_constants():
    x = boolvar("x")
    assert neg(neg(x)) is x
    assert neg(TRUE) is FALSE
    assert neg(FALSE) is TRUE


def test_conj_folding():
    x, y = boolvar("x"), boolvar("y")
    assert conj() is TRUE
    assert conj(x) is x
    assert conj(x, TRUE) is x
    assert conj(x, FALSE) is FALSE
    assert conj(x, neg(x)) is FALSE
    assert conj(x, x, y) is conj(x, y)


def test_disj_folding():
    x, y = boolvar("x"), boolvar("y")
    assert disj() is FALSE
    assert disj(x) is x
    assert disj(x, FALSE) is x
    assert disj(x, TRUE) is TRUE
    assert disj(x, neg(x)) is TRUE
    assert disj(x, x, y) is disj(x, y)


def test_conj_flattens_nested():
    x, y, z = boolvar("x"), boolvar("y"), boolvar("z")
    nested = conj(conj(x, y), z)
    assert isinstance(nested, And)
    assert set(nested.args) == {x, y, z}


def test_disj_flattens_nested():
    x, y, z = boolvar("x"), boolvar("y"), boolvar("z")
    nested = disj(disj(x, y), z)
    assert isinstance(nested, Or)
    assert set(nested.args) == {x, y, z}


def test_hash_consing_of_compounds():
    x, y = boolvar("x"), boolvar("y")
    assert conj(x, y) is conj(x, y)
    assert disj(x, y) is disj(x, y)


def test_implies_iff_ite_shapes():
    x, y = boolvar("x"), boolvar("y")
    assert implies(TRUE, y) is y
    assert implies(FALSE, y) is TRUE
    assert iff(x, x) is TRUE
    assert ite(TRUE, x, y) is x


def test_operator_sugar():
    x, y = boolvar("x"), boolvar("y")
    assert (x & y) is conj(x, y)
    assert (x | y) is disj(x, y)
    assert (~x) is neg(x)
    assert (x >> y) is implies(x, y)


def test_exactly_one_small():
    x, y = boolvar("x"), boolvar("y")
    term = exactly_one(x, y)
    # (x|y) & (!x|!y)
    assert isinstance(term, And)


def test_le_constant_folding():
    assert le(1, 2) is TRUE
    assert le(2, 1) is FALSE
    assert le(2, 2) is TRUE
    assert lt(2, 2) is FALSE
    assert ge(3, 2) is TRUE
    assert gt(2, 3) is FALSE


def test_atom_normalisation_shares_representation():
    x = intvar("x")
    # x <= 3 written three different ways must intern identically.
    a = le(x, 3)
    b = le(x - 3, 0)
    c = le(2 * x, 6)
    assert a is b is c


def test_strict_inequality_integer_tightening():
    x = intvar("x")
    assert lt(x, 4) is le(x, 3)
    assert gt(x, 4) is ge(x, 5)


def test_fractional_coefficients_scaled_away():
    x = intvar("x")
    atom = le(Fraction(1, 2) * x, Fraction(3, 2))
    assert atom is le(x, 3)


def test_gcd_tightening_rounds_bound():
    x = intvar("x")
    # 2x <= 5 tightens to x <= 2 over the integers.
    assert le(2 * x, 5) is le(x, 2)


def test_eq_expands_to_two_inequalities():
    x = intvar("x")
    term = eq(x, 3)
    assert isinstance(term, And)
    assert le(x, 3) in term.args
    assert ge(x, 3) in term.args


def test_eq_with_unsatisfiable_gcd():
    x = intvar("x")
    # 2x = 3 has no integer solution: both tightened bounds conflict
    # (2x<=3 -> x<=1 and 2x>=3 -> x>=2), and the conjunction stays symbolic.
    term = eq(2 * x, 3)
    assert isinstance(term, And)


def test_ne_is_negation_of_eq():
    x = intvar("x")
    assert ne(x, 3) is neg(eq(x, 3))


def test_linexpr_arithmetic():
    x, y = intvar("x"), intvar("y")
    expr = 2 * x + y - x + 1
    assert expr.coeffs[x] == 1
    assert expr.coeffs[y] == 1
    assert expr.const == 1


def test_linexpr_cancellation():
    x = intvar("x")
    expr = x - x
    assert as_linexpr(expr).coeffs == {}


def test_as_linexpr_rejects_junk():
    with pytest.raises(TypeError):
        as_linexpr("not an expression")


def test_atom_evaluate():
    x, y = intvar("x"), intvar("y")
    atom = le(x + 2 * y, 4)
    assert isinstance(atom, Atom)
    assert atom.constraint.evaluate({x: 0, y: 2})
    assert not atom.constraint.evaluate({x: 1, y: 2})


def test_negated_atom_is_not_node():
    x = intvar("x")
    term = neg(le(x, 3))
    assert isinstance(term, Not)
    assert isinstance(term.arg, Atom)


# ---------------------------------------------------------------------------
# The atom normaliser against the two-LinExpr formula it replaced
# ---------------------------------------------------------------------------


def _reference_normalise_le(expr):
    """``expr ≤ 0`` as an interned Atom, the way the old constructors did
    it: subtract two ``LinExpr`` copies, then normalise the difference."""
    if not expr.coeffs:
        return TRUE if expr.const <= 0 else FALSE
    denom_lcm = expr.const.denominator
    for coeff in expr.coeffs.values():
        denom_lcm = denom_lcm * coeff.denominator // gcd(denom_lcm, coeff.denominator)
    int_coeffs = {v: int(c * denom_lcm) for v, c in expr.coeffs.items()}
    const = int(expr.const * denom_lcm)
    divisor = 0
    for coeff in int_coeffs.values():
        divisor = gcd(divisor, abs(coeff))
    bound = -const // divisor
    coeffs = tuple(
        sorted(
            ((v, c // divisor) for v, c in int_coeffs.items()),
            key=lambda item: item[0].uid,
        )
    )
    return terms._intern(Atom, (LinearAtom(coeffs, bound),))


def _reference_le(left, right):
    return _reference_normalise_le(as_linexpr(left) - as_linexpr(right))


def _reference_lt(left, right):
    return _reference_le(as_linexpr(left) + 1, right)


_VARS = [intvar(f"v{i}") for i in range(3)]
_numbers = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
_expressions = st.one_of(
    _numbers,
    st.sampled_from(_VARS),
    st.builds(
        LinExpr,
        st.dictionaries(st.sampled_from(_VARS), _numbers, max_size=3),
        _numbers,
    ),
)


@settings(max_examples=300, deadline=None)
@given(left=_expressions, right=_expressions)
def test_comparisons_intern_the_reference_node(left, right):
    assert le(left, right) is _reference_le(left, right)
    assert ge(left, right) is _reference_le(right, left)
    assert lt(left, right) is _reference_lt(left, right)
    assert gt(left, right) is _reference_lt(right, left)
    assert eq(left, right) is conj(_reference_le(left, right), _reference_le(right, left))


def test_normalised_atoms_hold_machine_ints():
    x, y = intvar("x"), intvar("y")
    atom = le(Fraction(2, 3) * x + Fraction(4, 3) * y, Fraction(5, 1))
    assert all(type(c) is int for _, c in atom.constraint.coeffs)
    assert type(atom.constraint.bound) is int
    assert atom is le(x + 2 * y, 7)


# ---------------------------------------------------------------------------
# Complement folding without minting Not nodes
# ---------------------------------------------------------------------------


def test_complements_fold_in_either_order_and_under_nesting():
    x, y, z = boolvar("x"), boolvar("y"), boolvar("z")
    a = le(intvar("n"), 3)
    for p in (x, a, neg(x)):
        assert conj(p, neg(p)) is FALSE
        assert conj(neg(p), p) is FALSE
        assert disj(p, neg(p)) is TRUE
        assert disj(neg(p), p) is TRUE
        assert conj(conj(y, p), z, conj(neg(p), y)) is FALSE
        assert disj(neg(p), disj(y, disj(z, p))) is TRUE
    # A complement nested under the other connective is not folded.
    assert isinstance(conj(x, disj(neg(x), y)), And)


def _interned_nots():
    return sum(1 for cls, _ in terms._intern_table if cls is Not)


def test_flattening_fresh_atoms_interns_no_not():
    n = intvar("n")
    atoms = [le(n, k) for k in range(100, 110)]
    before = _interned_nots()
    conj(*atoms)
    disj(*atoms)
    conj(boolvar("fresh_p"), boolvar("fresh_q"), *atoms)
    assert _interned_nots() == before
