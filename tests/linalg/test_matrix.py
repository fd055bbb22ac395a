"""Unit tests for the sparse Gaussian elimination kernels."""

from fractions import Fraction

from linalg.row_space import rank, row_space_contains

from repro.linalg import SparseVector, eliminate_columns, rref


def vec(**cols: int) -> SparseVector:
    """Build a vector from x0=..., x1=... keyword shorthand."""
    return SparseVector({int(name[1:]): value for name, value in cols.items()})


def test_rref_identity_like():
    rows = [vec(x0=2), vec(x1=3)]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0] == vec(x0=1)
    assert reduced[1] == vec(x1=1)


def test_rref_eliminates_dependent_rows():
    rows = [vec(x0=1, x1=1), vec(x0=2, x1=2)]
    reduced, pivots = rref(rows)
    assert len(reduced) == 1
    assert pivots == [0]


def test_rref_back_substitutes():
    rows = [vec(x0=1, x1=1), vec(x1=1)]
    reduced, _ = rref(rows)
    # Gauss-Jordan: x1 must be removed from the first row.
    assert reduced[0] == vec(x0=1)
    assert reduced[1] == vec(x1=1)


def test_rref_does_not_mutate_input():
    row = vec(x0=2, x1=4)
    rref([row])
    assert row == vec(x0=2, x1=4)


def test_rank():
    rows = [vec(x0=1, x1=1), vec(x1=1, x2=1), vec(x0=1, x2=-1)]
    assert rank(rows) == 2


def test_rank_of_empty_and_zero():
    assert rank([]) == 0
    assert rank([SparseVector()]) == 0


def test_eliminate_columns_simple_chain():
    # lambda0 = lambda1 + q  and  lambda1 = lambda2, lambda2 = s
    # eliminating lambdas leaves a relation between q and s: none here
    # (the chain ends in s, a kept column), so we get q + s - lambda0 ... no:
    # rows are homogeneous equations "row = 0".
    lam0, lam1, q, s = 0, 1, 2, 3
    rows = [
        SparseVector({lam0: 1, lam1: -1, q: -1}),  # lam0 - lam1 - q = 0
        SparseVector({lam0: 1, lam1: -1, s: -1}),  # lam0 - lam1 - s = 0
    ]
    result = eliminate_columns(rows, {lam0, lam1})
    # Subtracting gives s - q = 0.
    assert len(result) == 1
    assert result[0].support() == frozenset({q, s})
    assert result[0][q] == -result[0][s]


def test_eliminate_columns_no_invariant_survives():
    rows = [SparseVector({0: 1, 2: 1})]
    assert eliminate_columns(rows, {0}) == []


def test_eliminate_columns_keeps_already_free_rows():
    free = SparseVector({5: 1, 6: -1})
    result = eliminate_columns([free], {0, 1})
    assert result == [free]


def test_eliminate_columns_three_way():
    # Flow conservation around a fork: l0 = l1, l0 = l2, l1 = q1, l2 = q2
    l0, l1, l2, q1, q2 = range(5)
    rows = [
        SparseVector({l0: 1, l1: -1}),
        SparseVector({l0: 1, l2: -1}),
        SparseVector({l1: 1, q1: -1}),
        SparseVector({l2: 1, q2: -1}),
    ]
    result = eliminate_columns(rows, {l0, l1, l2})
    assert len(result) == 1
    assert result[0].support() == frozenset({q1, q2})


def test_eliminate_result_lies_in_row_space():
    l0, l1, a, b = range(4)
    rows = [
        SparseVector({l0: 1, a: 2, b: -1}),
        SparseVector({l0: 1, l1: 1, b: 1}),
        SparseVector({l1: 1, a: 1}),
    ]
    for invariant in eliminate_columns(rows, {l0, l1}):
        assert row_space_contains(rows, invariant)


def test_row_space_contains_positive_and_negative():
    rows = [vec(x0=1, x1=1), vec(x1=1)]
    assert row_space_contains(rows, vec(x0=3, x1=5))
    assert not row_space_contains(rows, vec(x2=1))


def test_fractional_pivoting_is_exact():
    rows = [
        SparseVector({0: Fraction(1, 3), 1: Fraction(1, 7)}),
        SparseVector({0: Fraction(2, 3), 1: Fraction(2, 7), 2: Fraction(1)}),
    ]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced[0][1] == Fraction(3, 7)
