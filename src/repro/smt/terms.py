"""Term language for the QF_LIA solver.

The solver works on a small, normalised term language:

* Boolean structure: variables, constants, ``Not``, n-ary ``And`` / ``Or``
  (``Implies`` / ``Iff`` are expanded by the smart constructors).
* Arithmetic atoms: every comparison over linear integer expressions is
  normalised at construction time into a :class:`LinearAtom` of the shape
  ``a·x ≤ b`` with coprime integer coefficients.  Equalities become
  conjunctions of two inequalities; disequalities become negations of
  equalities; strict inequalities use integer tightening
  (``e < b  ⇔  e ≤ b − 1``).

Smart constructors perform constant folding and flattening so that the
formulas handed to the CNF converter are already compact.  Terms are
immutable and hash-consed per :class:`TermFactory`-free global table, which
makes structural sharing cheap and equality checks O(1).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

__all__ = [
    "Term",
    "BoolVar",
    "BoolConst",
    "Not",
    "And",
    "Or",
    "Atom",
    "LinearAtom",
    "IntVar",
    "LinExpr",
    "TRUE",
    "FALSE",
    "boolvar",
    "intvar",
    "conj",
    "disj",
    "neg",
    "implies",
    "iff",
    "ite",
    "exactly_one",
    "le",
    "lt",
    "ge",
    "gt",
    "eq",
    "ne",
    "as_linexpr",
]

_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# Integer expressions
# ---------------------------------------------------------------------------


class IntVar:
    """An integer-sorted variable."""

    __slots__ = ("name", "uid")

    def __init__(self, name: str):
        self.name = name
        self.uid = next(_ids)

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other

    # Arithmetic sugar: IntVar behaves like the trivial LinExpr.
    def _lift(self) -> "LinExpr":
        return LinExpr({self: 1}, 0)

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self._lift() + other

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self._lift() + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self._lift() - other

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return as_linexpr(other) - self._lift()

    def __mul__(self, factor: int | Fraction) -> "LinExpr":
        return self._lift() * factor

    def __rmul__(self, factor: int | Fraction) -> "LinExpr":
        return self._lift() * factor

    def __neg__(self) -> "LinExpr":
        return self._lift() * -1


class LinExpr:
    """An affine expression ``Σ coeff·var + const`` over integer variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[IntVar, Fraction | int], const: Fraction | int):
        # Coefficients stay machine ints when given as ints: LinExpr has
        # no division, and _normalise_le handles mixed int/Fraction, so
        # exactness never needs an eager Fraction promotion here.
        self.coeffs: dict[IntVar, Fraction | int] = {
            v: c for v, c in coeffs.items() if c
        }
        self.const = const

    def __add__(self, other: "ExprLike") -> "LinExpr":
        other = as_linexpr(other)
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            updated = coeffs.get(var, 0) + coeff
            if updated:
                coeffs[var] = updated
            else:
                coeffs.pop(var, None)
        return LinExpr(coeffs, self.const + other.const)

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self + (as_linexpr(other) * -1)

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return as_linexpr(other) - self

    def __mul__(self, factor: int | Fraction) -> "LinExpr":
        return LinExpr(
            {v: c * factor for v, c in self.coeffs.items()}, self.const * factor
        )

    def __rmul__(self, factor: int | Fraction) -> "LinExpr":
        return self * factor

    def __neg__(self) -> "LinExpr":
        return self * -1

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in sorted(self.coeffs.items(), key=lambda i: i[0].uid)]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


ExprLike = Union[IntVar, LinExpr, int, Fraction]


def as_linexpr(value: ExprLike) -> LinExpr:
    """Lift ints, Fractions and IntVars into :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, IntVar):
        return value._lift()
    if isinstance(value, (int, Fraction)):
        return LinExpr({}, value)
    raise TypeError(f"cannot interpret {value!r} as a linear expression")


# ---------------------------------------------------------------------------
# Linear atoms (normalised a.x <= b)
# ---------------------------------------------------------------------------


class LinearAtom:
    """The canonical arithmetic atom ``Σ aᵢ·xᵢ ≤ b``.

    Coefficients are coprime integers and the constant is integer-tightened,
    so equal constraints are representationally equal.
    """

    __slots__ = ("coeffs", "bound", "_key")

    def __init__(self, coeffs: tuple[tuple[IntVar, int], ...], bound: int):
        self.coeffs = coeffs
        self.bound = bound
        self._key = (tuple((v.uid, c) for v, c in coeffs), bound)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearAtom) and self._key == other._key

    def variables(self) -> Iterable[IntVar]:
        return (v for v, _ in self.coeffs)

    def negated_bounds(self) -> tuple[tuple[tuple[IntVar, int], ...], int]:
        """The atom's negation ``Σ −aᵢ·xᵢ ≤ −b − 1`` as raw data."""
        return tuple((v, -c) for v, c in self.coeffs), -self.bound - 1

    def evaluate(self, assignment: Mapping[IntVar, int]) -> bool:
        total = sum(c * assignment[v] for v, c in self.coeffs)
        return total <= self.bound

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{v}" for v, c in self.coeffs) or "0"
        return f"({lhs} <= {self.bound})"


def _normalise_le(expr: LinExpr) -> "Term":
    """Normalise ``expr ≤ 0`` into an :class:`Atom` or boolean constant."""
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
    # Integer tightening: a.x <= -const with a = g*a' gives a'.x <= floor(-const/g).
    bound = -const // divisor
    coeffs = tuple(
        sorted(
            ((v, c // divisor) for v, c in int_coeffs.items()),
            key=lambda item: item[0].uid,
        )
    )
    return _intern(Atom, (LinearAtom(coeffs, bound),))


# ---------------------------------------------------------------------------
# Boolean terms (hash-consed)
# ---------------------------------------------------------------------------

_intern_table: dict[tuple, "Term"] = {}


def _intern(cls: type, args: tuple) -> "Term":
    key = (cls, args)
    cached = _intern_table.get(key)
    if cached is None:
        cached = object.__new__(cls)
        cached._init(*args)  # type: ignore[attr-defined]
        _intern_table[key] = cached
    return cached


class Term:
    """Base class of boolean terms.  Instances are immutable and interned."""

    __slots__ = ("uid",)

    def _init(self) -> None:
        self.uid = next(_ids)

    # Sugar: `a & b`, `a | b`, `~a` build terms.
    def __and__(self, other: "Term") -> "Term":
        return conj(self, other)

    def __or__(self, other: "Term") -> "Term":
        return disj(self, other)

    def __invert__(self) -> "Term":
        return neg(self)

    def __rshift__(self, other: "Term") -> "Term":
        """``a >> b`` is implication."""
        return implies(self, other)


class BoolConst(Term):
    __slots__ = ("value",)

    def _init(self, value: bool) -> None:
        super()._init()
        self.value = value

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class BoolVar(Term):
    __slots__ = ("name",)

    def _init(self, name: str) -> None:
        super()._init()
        self.name = name

    def __repr__(self) -> str:
        return self.name


class Not(Term):
    __slots__ = ("arg",)

    def _init(self, arg: Term) -> None:
        super()._init()
        self.arg = arg

    def __repr__(self) -> str:
        return f"!{self.arg!r}"


class And(Term):
    __slots__ = ("args",)

    def _init(self, args: tuple[Term, ...]) -> None:
        super()._init()
        self.args = args

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(Term):
    __slots__ = ("args",)

    def _init(self, args: tuple[Term, ...]) -> None:
        super()._init()
        self.args = args

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


class Atom(Term):
    __slots__ = ("constraint",)

    def _init(self, constraint: LinearAtom) -> None:
        super()._init()
        self.constraint = constraint

    def __repr__(self) -> str:
        return repr(self.constraint)


TRUE: Term = _intern(BoolConst, (True,))
FALSE: Term = _intern(BoolConst, (False,))

_fresh_names = itertools.count()


def boolvar(name: str | None = None) -> Term:
    """A boolean variable.  Distinct calls with the same name are the same var."""
    if name is None:
        name = f"_b{next(_fresh_names)}"
    return _intern(BoolVar, (name,))


def intvar(name: str | None = None) -> IntVar:
    """A fresh integer variable (ints are nominal, never interned by name)."""
    if name is None:
        name = f"_i{next(_fresh_names)}"
    return IntVar(name)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def neg(term: Term) -> Term:
    if term is TRUE:
        return FALSE
    if term is FALSE:
        return TRUE
    if isinstance(term, Not):
        return term.arg
    return _intern(Not, (term,))


def _flatten(cls: type, terms: Iterable[Term], absorbing: Term, neutral: Term) -> Term:
    # Fully flatten same-operator nesting (explicit stack, no recursion):
    # conj(conj(conj(a, b), c), d) and conj(a, b, c, d) are the *same*
    # interned node.  Without this, incrementally combined encodings of
    # large meshes degenerate into deeply nested binary trees that cost one
    # Tseitin gate (and three clauses) per internal node.
    seen: set[int] = set()
    flat: list[Term] = []
    stack: list[Term] = list(terms)
    stack.reverse()
    while stack:
        term = stack.pop()
        if term is absorbing:
            return absorbing
        if term is neutral:
            continue
        if isinstance(term, cls):
            children = term.args  # type: ignore[attr-defined]
            stack.extend(reversed(children))
            continue
        if term.uid in seen:
            continue
        # x & !x == false ; x | !x == true
        complement = neg(term)
        if complement.uid in seen:
            return absorbing
        seen.add(term.uid)
        flat.append(term)
    if not flat:
        return neutral
    if len(flat) == 1:
        return flat[0]
    return _intern(cls, (tuple(flat),))


def conj(*terms: Term) -> Term:
    """N-ary conjunction with flattening and constant folding."""
    return _flatten(And, terms, absorbing=FALSE, neutral=TRUE)


def disj(*terms: Term) -> Term:
    """N-ary disjunction with flattening and constant folding."""
    return _flatten(Or, terms, absorbing=TRUE, neutral=FALSE)


def implies(premise: Term, conclusion: Term) -> Term:
    return disj(neg(premise), conclusion)


def iff(left: Term, right: Term) -> Term:
    if left is right:
        return TRUE
    return conj(implies(left, right), implies(right, left))


def ite(cond: Term, then: Term, other: Term) -> Term:
    return conj(implies(cond, then), implies(neg(cond), other))


def exactly_one(*terms: Term) -> Term:
    """Exactly one of ``terms`` holds (pairwise encoding)."""
    at_least = disj(*terms)
    at_most = conj(
        *(
            disj(neg(a), neg(b))
            for i, a in enumerate(terms)
            for b in terms[i + 1 :]
        )
    )
    return conj(at_least, at_most)


# ---------------------------------------------------------------------------
# Comparison constructors
# ---------------------------------------------------------------------------


def le(left: ExprLike, right: ExprLike) -> Term:
    return _normalise_le(as_linexpr(left) - as_linexpr(right))


def ge(left: ExprLike, right: ExprLike) -> Term:
    return le(right, left)


def lt(left: ExprLike, right: ExprLike) -> Term:
    return le(as_linexpr(left) + 1, right)


def gt(left: ExprLike, right: ExprLike) -> Term:
    return lt(right, left)


def eq(left: ExprLike, right: ExprLike) -> Term:
    return conj(le(left, right), le(right, left))


def ne(left: ExprLike, right: ExprLike) -> Term:
    return neg(eq(left, right))
