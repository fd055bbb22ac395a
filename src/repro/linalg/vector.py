"""Sparse rational vectors.

A :class:`SparseVector` maps integer column indices to non-zero exact
coefficients in one normal form: an ``int`` when the value is integral and
a :class:`~fractions.Fraction` only when it is not.  It is the row
representation used throughout the invariant-generation pipeline, where flow
matrices are extremely sparse (a handful of ±1 entries per equation over tens
of thousands of columns), so elimination stays in machine ints on the common
path.

All arithmetic is exact; zeros are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping

Rational = Fraction | int

__all__ = ["SparseVector"]


def _normal(value: Rational) -> Rational:
    """``value`` as an ``int`` when integral, else as an exact Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class SparseVector:
    """An immutable-by-convention sparse vector of exact rationals.

    The underlying storage is a plain ``dict`` for speed; mutating helpers
    (``add_scaled_inplace``) are clearly named and used only inside the
    elimination kernels.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, Rational] | None = None):
        self.entries: dict[int, Rational] = {}
        if entries:
            for col, value in entries.items():
                value = _normal(value)
                if value:
                    self.entries[col] = value

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def unit(cls, col: int) -> "SparseVector":
        """The standard basis vector with a 1 in position ``col``."""
        return cls({col: 1})

    def copy(self) -> "SparseVector":
        fresh = SparseVector()
        fresh.entries = dict(self.entries)
        return fresh

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, Rational]]:
        return iter(self.entries.items())

    def __contains__(self, col: int) -> bool:
        return col in self.entries

    def __getitem__(self, col: int) -> Rational:
        return self.entries.get(col, 0)

    def get(self, col: int, default: Rational = 0) -> Rational:
        return self.entries.get(col, _normal(default))

    def columns(self) -> Iterable[int]:
        return self.entries.keys()

    def support(self) -> frozenset[int]:
        """The set of columns holding non-zero coefficients."""
        return frozenset(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{c}: {v}" for c, v in sorted(self.entries.items()))
        return f"SparseVector({{{body}}})"

    # ------------------------------------------------------------------
    # Arithmetic (pure)
    # ------------------------------------------------------------------
    def scaled(self, factor: Rational) -> "SparseVector":
        factor = _normal(factor)
        if not factor:
            return SparseVector()
        fresh = SparseVector()
        fresh.entries = {c: _normal(v * factor) for c, v in self.entries.items()}
        return fresh

    def __add__(self, other: "SparseVector") -> "SparseVector":
        result = self.copy()
        result.add_scaled_inplace(other, 1)
        return result

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        result = self.copy()
        result.add_scaled_inplace(other, -1)
        return result

    def __neg__(self) -> "SparseVector":
        return self.scaled(-1)

    def dot(self, assignment: Mapping[int, Rational]) -> Fraction:
        """Evaluate the linear form at ``assignment`` (missing columns = 0)."""
        total = Fraction(0)
        for col, coeff in self.entries.items():
            value = assignment.get(col)
            if value is not None:
                total += coeff * Fraction(value)
        return total

    # ------------------------------------------------------------------
    # Arithmetic (in place, used by elimination kernels)
    # ------------------------------------------------------------------
    def add_scaled_inplace(self, other: "SparseVector", factor: Rational) -> None:
        """``self += factor * other`` without allocating a new vector."""
        factor = _normal(factor)
        if not factor:
            return
        entries = self.entries
        for col, value in other.entries.items():
            updated = entries.get(col, 0) + value * factor
            if updated:
                entries[col] = _normal(updated)
            else:
                entries.pop(col, None)

    def scale_inplace(self, factor: Rational) -> None:
        factor = _normal(factor)
        if factor == 1:
            return
        if not factor:
            self.entries.clear()
            return
        entries = self.entries
        for col, value in entries.items():
            entries[col] = _normal(value * factor)

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    def normalized_integer(self) -> "SparseVector":
        """Scale to coprime integer coefficients with a canonical sign.

        The sign convention makes the coefficient of the smallest-index
        column positive, which gives a unique representative per ray and
        keeps printed invariants deterministic.
        """
        if not self.entries:
            return SparseVector()
        denominator_lcm = 1
        for value in self.entries.values():
            denominator_lcm = denominator_lcm * value.denominator // gcd(
                denominator_lcm, value.denominator
            )
        numerator_gcd = 0
        for value in self.entries.values():
            numerator_gcd = gcd(numerator_gcd, abs(value.numerator * (denominator_lcm // value.denominator)))
        factor = Fraction(denominator_lcm, numerator_gcd)
        result = self.scaled(factor)
        lead_col = min(result.entries)
        if result.entries[lead_col] < 0:
            result.scale_inplace(-1)
        return result
