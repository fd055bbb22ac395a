"""Sparse exact Gaussian elimination.

Two kernels are provided on lists of :class:`~repro.linalg.vector.SparseVector`
rows:

* :func:`rref` — leftmost-pivot reduced row-echelon form, used to
  canonicalise invariant sets.
* :func:`eliminate_columns` — project the row space onto the complement of a
  set of columns.  This is the core operation of Chatterjee–Kishinevsky
  invariant generation: transfer-count (λ) and transition-count (κ) columns
  are swept away and the surviving rows are invariants over queue occupancy
  and automaton-state columns only.

:func:`rref` maintains the Gauss–Jordan invariant that every pivot column
occurs in exactly one row.  :func:`eliminate_columns` only eliminates
forward: each pivot row is free of the pivot columns installed before it,
and is never back-substituted into when later pivots arrive.  Reducing a
new row against the pivots in install order still clears every pivot
column (a pivot row cannot bring back an earlier pivot column), and the
result is the same vector Gauss–Jordan reduction gives: both subtract a
member of the pivot rows' span, and only one member of that span leaves
no support on the pivot columns.  So the leftover rows, and the
:func:`rref` of them that is returned, are the same.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable

from .vector import SparseVector

__all__ = ["rref", "eliminate_columns"]


def _reduce_against(row: SparseVector, pivots: dict[int, SparseVector]) -> None:
    """Subtract pivot rows from ``row`` until it has no pivot-column support.

    Pivot rows never contain other pivot columns (Gauss–Jordan invariant), so
    one pass over a snapshot of the support suffices.
    """
    for col in list(row.columns()):
        coeff = row[col]
        if not coeff:
            continue
        pivot_row = pivots.get(col)
        if pivot_row is not None:
            row.add_scaled_inplace(pivot_row, -coeff)


def _normalise(row: SparseVector, pivot_col: int) -> None:
    """Scale ``row`` to a unit coefficient on ``pivot_col``."""
    pivot = row.entries[pivot_col]
    # A ±1 pivot is its own inverse, so the common flow-row case stays in ints.
    row.scale_inplace(pivot if pivot in (1, -1) else Fraction(1, pivot))


def _install_pivot(
    row: SparseVector, pivot_col: int, pivots: dict[int, SparseVector]
) -> None:
    """Normalise ``row`` on ``pivot_col`` and back-substitute into ``pivots``."""
    _normalise(row, pivot_col)
    for other in pivots.values():
        coeff = other.entries.get(pivot_col)
        if coeff:
            other.add_scaled_inplace(row, -coeff)
    pivots[pivot_col] = row


def rref(
    rows: Iterable[SparseVector],
) -> tuple[list[SparseVector], list[int]]:
    """Reduced row-echelon form of ``rows`` (the inputs are not mutated),
    pivoting on each row's leftmost column.

    Returns ``(reduced_rows, pivot_columns)``: ``reduced_rows`` sorted by
    pivot column, each scaled to a unit pivot; ``pivot_columns[i]`` is the
    pivot column of ``reduced_rows[i]``.
    """
    pivots: dict[int, SparseVector] = {}
    for original in rows:
        row = original.copy()
        _reduce_against(row, pivots)
        if not row:
            continue
        _install_pivot(row, min(row.columns()), pivots)
    ordered = sorted(pivots.items())
    return [row for _, row in ordered], [col for col, _ in ordered]


def eliminate_columns(
    rows: Iterable[SparseVector], eliminate: frozenset[int] | set[int]
) -> list[SparseVector]:
    """Project the row space of ``rows`` away from the ``eliminate`` columns.

    Returns a basis (in RREF over the kept columns) of the subspace of the
    row space whose members have zero coefficients on every eliminated
    column.  For flow matrices this is exactly the set of independent
    invariants that mention only state variables and queue occupancies.
    Elimination is forward only (see the module docstring).
    """
    order: dict[int, int] = {}  # pivot column -> install index
    pivots: list[tuple[int, SparseVector]] = []
    leftover: list[SparseVector] = []
    for original in rows:
        row = original.copy()
        entries = row.entries
        # Pivot k's row holds only later pivot columns, so a heap of the
        # install indices met so far visits them in install order.
        pending = [order[col] for col in entries if col in order]
        heapify(pending)
        while pending:
            col, pivot_row = pivots[heappop(pending)]
            coeff = entries.get(col)
            if not coeff:
                continue  # cancelled by an earlier pivot row
            for other in pivot_row.entries:
                if other not in entries and other in order:
                    heappush(pending, order[other])
            row.add_scaled_inplace(pivot_row, -coeff)
        if not entries:
            continue
        elim_support = [col for col in entries if col in eliminate]
        if elim_support:
            pivot_col = min(elim_support)
            _normalise(row, pivot_col)
            order[pivot_col] = len(pivots)
            pivots.append((pivot_col, row))
        else:
            leftover.append(row)
    reduced, _ = rref(leftover)
    return reduced

