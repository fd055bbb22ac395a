"""Sparse exact Gaussian elimination.

Two kernels are provided on lists of :class:`~repro.linalg.vector.SparseVector`
rows:

* :func:`rref` — reduced row-echelon form with a caller-controlled column
  (pivot preference) order, used to canonicalise invariant sets.
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
from typing import Callable, Iterable, Sequence

from .vector import SparseVector

__all__ = ["rref", "eliminate_columns", "row_space_contains", "rank"]


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
    pivot_key: Callable[[int], object] | None = None,
) -> tuple[list[SparseVector], list[int]]:
    """Reduced row-echelon form of ``rows``.

    Parameters
    ----------
    rows:
        The matrix rows; the inputs are not mutated.
    pivot_key:
        Sort key ranking candidate pivot columns within a row; the smallest
        key wins.  Defaults to the column index itself, giving the textbook
        leftmost-pivot RREF.

    Returns
    -------
    (reduced_rows, pivot_columns):
        ``reduced_rows`` sorted by pivot key, each scaled to a unit pivot;
        ``pivot_columns[i]`` is the pivot column of ``reduced_rows[i]``.
    """
    key = pivot_key if pivot_key is not None else (lambda col: col)
    pivots: dict[int, SparseVector] = {}
    for original in rows:
        row = original.copy()
        _reduce_against(row, pivots)
        if not row:
            continue
        pivot_col = min(row.columns(), key=key)
        _install_pivot(row, pivot_col, pivots)
    ordered = sorted(pivots.items(), key=lambda item: key(item[0]))
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


def row_space_contains(
    rows: Sequence[SparseVector], candidate: SparseVector
) -> bool:
    """True iff ``candidate`` is a linear combination of ``rows``.

    Test helper: used to check that generated invariants lie in the flow
    matrix row space and that published invariants are derivable.
    """
    reduced, _ = rref(rows)
    pivots = {min(r.columns()): r for r in reduced}
    probe = candidate.copy()
    _reduce_against(probe, pivots)
    # One pass may be insufficient for an arbitrary pivot layout; rref rows
    # satisfy the Gauss-Jordan invariant, so a second pass is a no-op check.
    return not probe


def rank(rows: Iterable[SparseVector]) -> int:
    """Rank of the matrix formed by ``rows``."""
    reduced, _ = rref(rows)
    return len(reduced)

