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
immutable and hash-consed in one global table, which makes structural
sharing cheap and equality checks O(1).

Interning contract: a term is unique *while it is alive*.  Two live terms
are structurally equal exactly when they are the same object, and every
term carries a ``uid`` that no other term ever gets, not even after the
term dies.  The table keys a node by its children's uids, not by the
children, so it holds no term but the one it maps to; once nothing else
references a term, a sweep drops it (see :func:`_sweep`) and building the
same structure again mints a new term under a new uid.  Whoever keys data
by a term must therefore hold the term itself, never only its uid: the
CNF builder keys its literal cache by term for this reason.
"""

from __future__ import annotations

import itertools
import os
import threading
from fractions import Fraction
from math import gcd
from sys import getrefcount
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

    def evaluate(self, assignment: Mapping[IntVar, int]) -> bool:
        total = sum(c * assignment[v] for v, c in self.coeffs)
        return total <= self.bound

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{v}" for v, c in self.coeffs) or "0"
        return f"({lhs} <= {self.bound})"


def _normalise_le(left: ExprLike, right: ExprLike, offset: int = 0) -> "Term":
    """Normalise ``left + offset ≤ right`` into an :class:`Atom` or constant.

    Both sides accumulate straight into one coefficient dict, with no
    intermediate :class:`LinExpr`.  Values stay machine ints, and the
    denominators' lcm is taken only when some value is not an ``int`` (a
    ``Fraction``).  That test is on ``type``: ``isinstance(v, Fraction)``
    is a slow ABC check.
    """
    coeffs: dict[IntVar, Fraction | int] = {}
    const: Fraction | int = offset
    for side, sign in ((left, 1), (right, -1)):
        if isinstance(side, IntVar):
            coeffs[side] = coeffs.get(side, 0) + sign
        elif isinstance(side, LinExpr):
            for var, coeff in side.coeffs.items():
                coeffs[var] = coeffs.get(var, 0) + sign * coeff
            const += sign * side.const
        elif isinstance(side, (int, Fraction)):
            const += sign * side
        else:
            raise TypeError(f"cannot interpret {side!r} as a linear expression")
    items = [(var, coeff) for var, coeff in coeffs.items() if coeff]
    if not items:
        return TRUE if const <= 0 else FALSE
    if type(const) is not int or any(type(c) is not int for _, c in items):
        denom_lcm = const.denominator
        for _, coeff in items:
            denom_lcm = denom_lcm * coeff.denominator // gcd(denom_lcm, coeff.denominator)
        items = [(var, int(coeff * denom_lcm)) for var, coeff in items]
        const = int(const * denom_lcm)
    divisor = gcd(*(coeff for _, coeff in items))
    # Integer tightening: a.x <= -const with a = g*a' gives a'.x <= floor(-const/g).
    bound = -const // divisor
    if divisor != 1:
        items = [(var, coeff // divisor) for var, coeff in items]
    if len(items) > 1:
        items.sort(key=lambda item: item[0].uid)
    atom = LinearAtom(tuple(items), bound)
    return _intern(Atom, atom._key, atom)


# ---------------------------------------------------------------------------
# Boolean terms (hash-consed)
# ---------------------------------------------------------------------------

# Keys are ``(cls, key)`` with ``key`` built from plain data: a name, a
# LinearAtom's ``_key``, a child's uid or a tuple of child uids.  So the
# table's only reference to a term is its value, and a term nothing else
# holds can be found by its reference count.
_intern_table: dict[tuple, "Term"] = {}

#: The table size below which no sweep runs.
_SWEEP_FLOOR = 2048
#: A miss that finds the table this large sweeps it first.
_sweep_at = _SWEEP_FLOOR
# Serialises misses and sweeps between threads; the hit path takes no lock.
# A fork while another thread minted or swept would hand the child a lock
# nobody releases, so every fork waits for it (as the logging module does).
_mint_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_mint_lock.acquire,
        after_in_parent=_mint_lock.release,
        after_in_child=_mint_lock.release,
    )


def _intern(cls: type, key, payload) -> "Term":
    full_key = (cls, key)
    cached = _intern_table.get(full_key)
    if cached is None:
        cached = _mint(full_key, cls, payload)
    return cached


def _mint(full_key: tuple, cls: type, payload) -> "Term":
    """The miss path of :func:`_intern`: sweep if the table has doubled
    since the last sweep, then build and enter the new term."""
    with _mint_lock:
        cached = _intern_table.get(full_key)
        if cached is not None:  # another thread minted it first
            return cached
        if len(_intern_table) >= _sweep_at:
            _sweep()
        term = object.__new__(cls)
        term._init(payload)  # type: ignore[attr-defined]
        _intern_table[full_key] = term
        return term


def _sweep() -> None:
    """Drop every interned term that nothing outside the table references.
    The caller holds ``_mint_lock``.

    Entries are visited newest first.  A parent is always newer than its
    children, so dropping a dead parent frees it, and with it the last
    reference to a child, before the pass reaches that child.  A term a
    thread picks up on the hit path between the test and the removal is
    put back, so a term in use is never dropped.
    """
    global _sweep_at
    table = _intern_table
    # The counts of an object held by a dict alone and, once popped, by a
    # local alone, read the same ways the pass reads them, so they hold
    # under any interpreter's reference counting.
    probe = {None: object()}
    dead = getrefcount(probe[None])
    term = probe.pop(None)
    popped = getrefcount(term)
    del term
    for key in reversed(list(table)):
        if getrefcount(table[key]) == dead:
            term = table.pop(key)
            if getrefcount(term) != popped:
                table[key] = term
            del term  # frees the term now, before the pass reaches its children
    _sweep_at = max(_SWEEP_FLOOR, 2 * len(table))


def live_terms() -> int:
    """Sweep the intern table now and return how many terms it keeps:
    the terms that something outside the table still references."""
    with _mint_lock:
        _sweep()
        return len(_intern_table)


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

    def _init(self, args: Iterable[Term]) -> None:
        super()._init()
        self.args = tuple(args)

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(Term):
    __slots__ = ("args",)

    def _init(self, args: Iterable[Term]) -> None:
        super()._init()
        self.args = tuple(args)

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


class Atom(Term):
    __slots__ = ("constraint",)

    def _init(self, constraint: LinearAtom) -> None:
        super()._init()
        self.constraint = constraint

    def __repr__(self) -> str:
        return repr(self.constraint)


TRUE: Term = _intern(BoolConst, True, True)
FALSE: Term = _intern(BoolConst, False, False)

_fresh_names = itertools.count()


def boolvar(name: str | None = None) -> Term:
    """A boolean variable.  Distinct calls with the same name are the same var."""
    if name is None:
        name = f"_b{next(_fresh_names)}"
    return _intern(BoolVar, name, name)


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
    return _intern(Not, term.uid, term)


def _flatten(cls: type, terms: Iterable[Term], absorbing: Term, neutral: Term) -> Term:
    # Fully flatten same-operator nesting (explicit stack, no recursion):
    # conj(conj(conj(a, b), c), d) and conj(a, b, c, d) are the *same*
    # interned node.  Without this, incrementally combined encodings of
    # large meshes degenerate into deeply nested binary trees that cost one
    # Tseitin gate (and three clauses) per internal node.
    # ``seen`` maps each kept child's uid to the child, in order: its keys
    # are the intern key of the result and its values the result's args.
    seen: dict[int, Term] = {}
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
        uid = term.uid
        if uid in seen:
            continue
        # x & !x == false ; x | !x == true.  The complement is looked up,
        # not interned: a Not nobody has built cannot be in ``seen``.
        if isinstance(term, Not):
            complement = term.arg
        else:
            complement = _intern_table.get((Not, uid))
        if complement is not None and complement.uid in seen:
            return absorbing
        seen[uid] = term
    if not seen:
        return neutral
    if len(seen) == 1:
        return next(iter(seen.values()))
    return _intern(cls, tuple(seen), seen.values())


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
    return _normalise_le(left, right)


def ge(left: ExprLike, right: ExprLike) -> Term:
    return le(right, left)


def lt(left: ExprLike, right: ExprLike) -> Term:
    return _normalise_le(left, right, 1)


def gt(left: ExprLike, right: ExprLike) -> Term:
    return lt(right, left)


def eq(left: ExprLike, right: ExprLike) -> Term:
    return conj(le(left, right), le(right, left))


def ne(left: ExprLike, right: ExprLike) -> Term:
    return neg(eq(left, right))
