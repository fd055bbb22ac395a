"""Exact sparse rational linear algebra.

This subpackage is the numeric substrate of the invariant generator: flow
matrices are built as lists of :class:`SparseVector` rows and reduced with
:func:`eliminate_columns` / :func:`rref`.  Every value is exact and kept
in one normal form: an ``int`` when it is integral, a
:class:`fractions.Fraction` only when it is not, so ±1 flow rows eliminate
in machine ints.
"""

from .matrix import eliminate_columns, rref
from .vector import SparseVector

__all__ = ["SparseVector", "rref", "eliminate_columns"]
