"""Unit tests for SparseVector."""

from fractions import Fraction

from repro.linalg import SparseVector


def test_zero_entries_are_dropped_on_construction():
    vec = SparseVector({0: 0, 1: Fraction(2), 2: Fraction(0)})
    assert vec.support() == frozenset({1})
    assert vec[0] == 0
    assert vec[1] == 2


def test_unit_vector():
    vec = SparseVector.unit(7)
    assert vec[7] == 1
    assert len(vec) == 1


def test_truthiness():
    assert not SparseVector()
    assert SparseVector({3: 1})


def test_addition_and_cancellation():
    left = SparseVector({0: 1, 1: 2})
    right = SparseVector({1: -2, 2: 5})
    total = left + right
    assert total.support() == frozenset({0, 2})
    assert total[0] == 1
    assert total[2] == 5


def test_subtraction_gives_zero_vector():
    vec = SparseVector({0: Fraction(1, 3), 5: -2})
    assert not (vec - vec)


def test_scaled_by_zero_is_empty():
    vec = SparseVector({0: 1, 1: 2})
    assert not vec.scaled(0)


def test_scaled_preserves_original():
    vec = SparseVector({0: 1})
    doubled = vec.scaled(2)
    assert vec[0] == 1
    assert doubled[0] == 2


def test_negation():
    vec = SparseVector({0: 1, 1: Fraction(-3, 2)})
    neg = -vec
    assert neg[0] == -1
    assert neg[1] == Fraction(3, 2)


def test_dot_with_assignment():
    vec = SparseVector({0: 2, 1: -1})
    assert vec.dot({0: 3, 1: 4, 9: 100}) == 2
    assert vec.dot({}) == 0


def test_add_scaled_inplace_removes_cancelled_columns():
    vec = SparseVector({0: 1, 1: 1})
    vec.add_scaled_inplace(SparseVector({1: 1}), -1)
    assert vec.support() == frozenset({0})


def test_add_scaled_inplace_zero_factor_is_noop():
    vec = SparseVector({0: 1})
    vec.add_scaled_inplace(SparseVector({5: 99}), 0)
    assert vec.support() == frozenset({0})


def test_scale_inplace_zero_clears():
    vec = SparseVector({0: 1, 1: 2})
    vec.scale_inplace(0)
    assert not vec


def test_equality_and_hash():
    a = SparseVector({0: Fraction(1, 2)})
    b = SparseVector({0: Fraction(2, 4)})
    assert a == b
    assert hash(a) == hash(b)
    assert a != SparseVector({0: 1})


def test_normalized_integer_clears_denominators():
    vec = SparseVector({0: Fraction(1, 2), 1: Fraction(1, 3)})
    norm = vec.normalized_integer()
    assert norm[0] == 3
    assert norm[1] == 2


def test_normalized_integer_reduces_common_factor():
    vec = SparseVector({0: 4, 1: 6})
    norm = vec.normalized_integer()
    assert norm[0] == 2
    assert norm[1] == 3


def test_normalized_integer_canonical_sign():
    vec = SparseVector({2: -1, 5: 3})
    norm = vec.normalized_integer()
    assert norm[2] == 1
    assert norm[5] == -3


def test_normalized_integer_of_zero_vector():
    assert not SparseVector().normalized_integer()


def test_repr_is_sorted_and_stable():
    vec = SparseVector({5: 1, 1: 2})
    assert repr(vec) == "SparseVector({1: 2, 5: 1})"


def assert_normal_form(vec):
    """Integral values are stored as ``int``; no zero is ever stored."""
    for value in vec.entries.values():
        assert value != 0
        assert type(value) is int or (
            type(value) is Fraction and value.denominator != 1
        )


def test_getitem_missing_is_int_zero():
    vec = SparseVector()
    assert type(vec[42]) is int and vec[42] == 0
    assert type(vec.get(42)) is int and vec.get(42) == 0


def test_values_are_int_when_integral_and_exact_otherwise():
    vec = SparseVector({0: Fraction(4, 2), 1: Fraction(1, 3), 2: Fraction(0), 3: -1})
    assert_normal_form(vec)
    assert vec.entries == {0: 2, 1: Fraction(1, 3), 3: -1}
    assert type(vec[0]) is int and type(vec[1]) is Fraction

    vec.add_scaled_inplace(SparseVector({1: Fraction(2, 3), 3: 1}), Fraction(1, 1))
    assert_normal_form(vec)
    assert vec.entries == {0: 2, 1: 1}

    vec.scale_inplace(Fraction(3, 2))
    assert_normal_form(vec)
    assert vec.entries == {0: 3, 1: Fraction(3, 2)}

    doubled = vec.scaled(Fraction(2))
    assert_normal_form(doubled)
    assert doubled.entries == {0: 6, 1: 3}

    norm = vec.normalized_integer()
    assert_normal_form(norm)
    assert norm.entries == {0: 2, 1: 1}
    assert all(type(v) is int for v in norm.entries.values())

    assert_normal_form(SparseVector.unit(5))


def test_contains():
    vec = SparseVector({3: 1})
    assert 3 in vec
    assert 4 not in vec


def test_iteration_yields_pairs():
    vec = SparseVector({1: 2, 3: 4})
    assert dict(iter(vec)) == {1: Fraction(2), 3: Fraction(4)}
