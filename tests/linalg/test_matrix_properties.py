"""Property-based tests for the elimination kernels."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from linalg.row_space import rank, row_space_contains

from repro.linalg import SparseVector, eliminate_columns, rref

N_COLS = 6

coefficients = st.integers(min_value=-4, max_value=4)
rows_strategy = st.lists(
    st.builds(
        SparseVector,
        st.dictionaries(
            st.integers(min_value=0, max_value=N_COLS - 1), coefficients, max_size=4
        ),
    ),
    max_size=6,
)


@given(rows_strategy)
def test_rref_is_idempotent(rows):
    once, pivots_once = rref(rows)
    twice, pivots_twice = rref(once)
    assert once == twice
    assert pivots_once == pivots_twice


@given(rows_strategy)
def test_rref_preserves_row_space(rows):
    reduced, _ = rref(rows)
    for row in rows:
        assert row_space_contains(reduced, row)
    for row in reduced:
        assert row_space_contains(rows, row)


@given(rows_strategy)
def test_rref_pivots_are_unit_and_unique(rows):
    reduced, pivots = rref(rows)
    assert len(set(pivots)) == len(pivots)
    for pivot, row in zip(pivots, reduced):
        assert row[pivot] == 1
        for other in reduced:
            if other is not row:
                assert pivot not in other


@given(rows_strategy)
def test_rank_bounded(rows):
    r = rank(rows)
    assert 0 <= r <= min(len(rows), N_COLS)


@given(rows_strategy, st.sets(st.integers(min_value=0, max_value=N_COLS - 1), max_size=3))
def test_eliminated_columns_are_absent(rows, eliminate):
    for row in eliminate_columns(rows, eliminate):
        assert not (row.support() & eliminate)


@given(rows_strategy, st.sets(st.integers(min_value=0, max_value=N_COLS - 1), max_size=3))
def test_eliminate_output_in_row_space(rows, eliminate):
    for row in eliminate_columns(rows, eliminate):
        assert row_space_contains(rows, row)


@given(rows_strategy, st.sets(st.integers(min_value=0, max_value=N_COLS - 1), max_size=3))
@settings(max_examples=50)
def test_eliminate_is_complete(rows, eliminate):
    """Any eliminate-free vector of the row space is spanned by the output."""
    survivors = eliminate_columns(rows, eliminate)
    reduced, pivots = rref(rows)
    # Build candidate eliminate-free members of the row space by combining
    # reduced rows and checking the combination support; brute force over
    # small coefficient combinations of at most two rows.
    for i, row_i in enumerate(reduced):
        if not (row_i.support() & eliminate):
            assert row_space_contains(survivors, row_i)
        for row_j in reduced[i + 1:]:
            combo = row_i + row_j
            if combo and not (combo.support() & eliminate):
                assert row_space_contains(survivors, combo)


@given(rows_strategy)
def test_normalized_rows_evaluate_identically(rows):
    assignment = {col: Fraction(col + 1, 2) for col in range(N_COLS)}
    for row in rows:
        if not row:
            continue
        norm = row.normalized_integer()
        lhs = row.dot(assignment)
        rhs = norm.dot(assignment)
        # They are scalar multiples: zero sets must agree.
        assert (lhs == 0) == (rhs == 0)
