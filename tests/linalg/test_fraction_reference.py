"""Differential tests: the int-when-integral kernels against an all-Fraction reference.

The reference below is an all-:class:`~fractions.Fraction` copy of the
elimination kernels.  It lives here, not in ``src/``, so the library keeps a
single kernel; the kernels in :mod:`repro.linalg` must give equal rows
(``int`` and ``Fraction`` compare equal by value) in the same order, and
every row they return must be in the integer normal form.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import invariants as invariants_module
from repro.core.colors import derive_colors
from repro.core.experiments import registered_builders, resolve_builder
from repro.core.invariants import build_flow_rows, generate_invariants
from repro.core.vars import VarPool
from repro.linalg import SparseVector, eliminate_columns, rref

# ---------------------------------------------------------------------------
# All-Fraction reference kernels (rows are plain ``{column: Fraction}`` dicts)
# ---------------------------------------------------------------------------


def _ref_add_scaled(row, other, factor):
    for col, value in other.items():
        updated = row.get(col, Fraction(0)) + value * factor
        if updated:
            row[col] = updated
        else:
            row.pop(col, None)


def _ref_reduce(row, pivots):
    for col in list(row):
        coeff = row.get(col, Fraction(0))
        if coeff and col in pivots:
            _ref_add_scaled(row, pivots[col], -coeff)


def _ref_install(row, pivot_col, pivots):
    inverse = Fraction(1) / row[pivot_col]
    for col in row:
        row[col] *= inverse
    for other in pivots.values():
        coeff = other.get(pivot_col, Fraction(0))
        if coeff:
            _ref_add_scaled(other, row, -coeff)
    pivots[pivot_col] = row


def _ref_copy(vector):
    return {col: Fraction(value) for col, value in vector.entries.items()}


def ref_rref(rows, pivot_key=None):
    key = pivot_key if pivot_key is not None else (lambda col: col)
    pivots = {}
    for original in rows:
        row = dict(original)
        _ref_reduce(row, pivots)
        if row:
            _ref_install(row, min(row, key=key), pivots)
    ordered = sorted(pivots.items(), key=lambda item: key(item[0]))
    return [row for _, row in ordered], [col for col, _ in ordered]


def ref_eliminate_columns(rows, eliminate):
    pivots = {}
    leftover = []
    for original in rows:
        row = _ref_copy(original)
        _ref_reduce(row, pivots)
        if not row:
            continue
        elim_support = [col for col in row if col in eliminate]
        if elim_support:
            _ref_install(row, min(elim_support), pivots)
        else:
            leftover.append(row)
    reduced, _ = ref_rref(leftover)
    return reduced


def assert_normal_form(vector):
    for value in vector.entries.values():
        assert value != 0
        assert type(value) is int or (
            type(value) is Fraction and value.denominator != 1
        ), (type(value), value)


def assert_same_rows(rows, reference):
    assert [row.entries for row in rows] == reference
    for row in rows:
        assert_normal_form(row)


# ---------------------------------------------------------------------------
# Random small matrices with mixed int / Fraction entries
# ---------------------------------------------------------------------------

N_COLS = 6

mixed_values = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
rows_strategy = st.lists(
    st.builds(
        SparseVector,
        st.dictionaries(
            st.integers(min_value=0, max_value=N_COLS - 1), mixed_values, max_size=4
        ),
    ),
    max_size=6,
)
eliminate_strategy = st.sets(st.integers(min_value=0, max_value=N_COLS - 1), max_size=3)


@given(rows_strategy, st.sampled_from([None, lambda col: -col]))
def test_rref_matches_fraction_reference(rows, pivot_key):
    reduced, pivots = rref(rows, pivot_key)
    ref_reduced, ref_pivots = ref_rref([_ref_copy(row) for row in rows], pivot_key)
    assert pivots == ref_pivots
    assert_same_rows(reduced, ref_reduced)
    for row in rows:
        assert_normal_form(row)


@given(rows_strategy, eliminate_strategy)
def test_eliminate_columns_matches_fraction_reference(rows, eliminate):
    survivors = eliminate_columns(rows, eliminate)
    assert_same_rows(survivors, ref_eliminate_columns(rows, eliminate))
    for row in survivors:
        assert_normal_form(row.normalized_integer())


# ---------------------------------------------------------------------------
# Every registered builder's flow matrix at queue size 3
# ---------------------------------------------------------------------------

SMALL_DIMENSIONS = {"width": 2, "height": 2, "n_nodes": 4, "queue_size": 3}


def _build(name):
    builder = resolve_builder(name)
    params = inspect.signature(builder).parameters
    built = builder(**{k: v for k, v in SMALL_DIMENSIONS.items() if k in params})
    return getattr(built, "network", built)


def _invariant_digest(invariants):
    return [
        (
            inv.pretty(),
            [(var.name, type(c), c) for var, c in inv.coeffs],
            (type(inv.constant), inv.constant),
        )
        for inv in invariants
    ]


@pytest.mark.parametrize("name", registered_builders())
def test_builder_invariants_match_fraction_reference(name, monkeypatch):
    network = _build(name)
    colors = derive_colors(network)
    rows, cols = build_flow_rows(network, colors)
    eliminable = cols.eliminable()
    reference = ref_eliminate_columns(rows, eliminable)
    assert_same_rows(eliminate_columns(rows, eliminable), reference)

    generated = _invariant_digest(generate_invariants(network, colors, VarPool()))

    def reference_kernel(flow_rows, eliminate):
        survivors = []
        for entries in ref_eliminate_columns(flow_rows, eliminate):
            row = SparseVector()
            row.entries = entries  # keep the reference's all-Fraction storage
            survivors.append(row)
        return survivors

    monkeypatch.setattr(invariants_module, "eliminate_columns", reference_kernel)
    expected = _invariant_digest(generate_invariants(network, colors, VarPool()))
    assert generated == expected
