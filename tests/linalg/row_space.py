"""Row-space oracles for the linear-algebra and invariant tests.

Tests import this module as ``linalg.row_space`` (``tests/`` is on the
path, ``tests/linalg`` a namespace package).
"""

from typing import Iterable, Sequence

from repro.linalg import SparseVector, rref


def row_space_contains(
    rows: Sequence[SparseVector], candidate: SparseVector
) -> bool:
    """True iff ``candidate`` is a linear combination of ``rows``.

    Used to check that generated invariants lie in the flow matrix row
    space and that published invariants are derivable.  Each pivot column
    of an RREF occurs in its pivot row only, so one subtraction per pivot
    clears every pivot column of the candidate.
    """
    reduced, pivots = rref(rows)
    probe = candidate.copy()
    for col, row in zip(pivots, reduced):
        coeff = probe[col]
        if coeff:
            probe.add_scaled_inplace(row, -coeff)
    return not probe


def rank(rows: Iterable[SparseVector]) -> int:
    """Rank of the matrix formed by ``rows``."""
    reduced, _ = rref(rows)
    return len(reduced)
