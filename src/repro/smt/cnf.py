"""Conversion of the term language into CNF.

Top-level assertions are clausified directly: a conjunction asserts each
conjunct and a disjunction becomes a single clause.  Below the top level,
every distinct subterm receives one SAT variable defined by both Tseitin
directions (``Not`` is represented by literal polarity, not a variable), so
a nested literal names an equivalence that assumptions can rely on.  Arithmetic atoms keep a side table mapping their SAT variable
to the :class:`~repro.smt.terms.LinearAtom`, which the theory bridge
consumes.

A system of definitions (the block/idle equations) is bound before any
clause names it (:meth:`CnfBuilder.define`): each defined name takes the
literal of its right-hand side instead of a variable of its own, so a
copy costs no variable and no clause.  A name therefore stands for a
*literal*, which is negative when it is defined as a negation.

The conversion is iterative (explicit stack), so arbitrarily deep formulas
cannot overflow the Python recursion limit.
"""

from __future__ import annotations

from typing import Iterable

from .terms import FALSE, TRUE, And, Atom, BoolConst, BoolVar, LinearAtom, Not, Or, Term

__all__ = ["CnfBuilder"]


class CnfBuilder:
    """Accumulates terms and produces clauses over integer literals.

    Literals follow the DIMACS convention: variable ``v`` is a positive
    integer, its negation is ``-v``.
    """

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self.unsatisfiable = False
        self.atom_of_var: dict[int, LinearAtom] = {}
        self.var_of_atom: dict[LinearAtom, int] = {}
        # name → literal; a defined name may stand for a negative one.
        self.var_of_boolname: dict[str, int] = {}
        # Keyed by the term itself, not its uid: holding the term keeps it
        # interned, so building it again finds this entry instead of a
        # fresh term under a new uid (a second gate, another CNF).
        self._lit_cache: dict[Term, int] = {}

    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def var_for_atom(self, atom: LinearAtom) -> int:
        """SAT variable representing ``atom`` (shared across occurrences)."""
        var = self.var_of_atom.get(atom)
        if var is None:
            var = self.new_var()
            self.var_of_atom[atom] = var
            self.atom_of_var[var] = atom
        return var

    def var_for_boolname(self, name: str) -> int:
        var = self.var_of_boolname.get(name)
        if var is None:
            var = self.new_var()
            self.var_of_boolname[name] = var
        return var

    # ------------------------------------------------------------------
    def assert_term(self, term: Term) -> None:
        """Add ``term`` as a top-level assertion, clausified directly.

        A top-level ``And`` asserts each conjunct and a top-level ``Or``
        becomes one clause of its disjuncts' literals, so neither mints a
        gate.  ``_flatten`` keeps ``And`` children non-``And``, so this
        recurses one level at most.
        """
        if term is TRUE:
            return
        if term is FALSE:
            self.unsatisfiable = True
        elif isinstance(term, And):
            for conjunct in term.args:
                self.assert_term(conjunct)
        elif isinstance(term, Or):
            self.clauses.append([self.literal(arg) for arg in term.args])
        else:
            self.clauses.append([self.literal(term)])

    def literal(self, term: Term) -> int:
        """The literal standing for ``term``, emitting definition clauses."""
        cache = self._lit_cache
        cached = cache.get(term)
        if cached is not None:
            return cached

        # Iterative post-order: children first, then define the node.
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            if isinstance(node, Not):
                if node.arg in cache:
                    cache[node] = -cache[node.arg]
                else:
                    stack.append((node, False))
                    stack.append((node.arg, False))
                continue
            if isinstance(node, BoolConst):
                # TRUE/FALSE inside compound terms are folded away by the
                # smart constructors; reaching one here means a bare assert,
                # handled in assert_term.  Encode defensively anyway.
                var = self.new_var()
                self.clauses.append([var] if node.value else [-var])
                cache[node] = var
                continue
            if isinstance(node, BoolVar):
                cache[node] = self.var_for_boolname(node.name)
                continue
            if isinstance(node, Atom):
                cache[node] = self.var_for_atom(node.constraint)
                continue
            # And / Or
            children = node.args  # type: ignore[attr-defined]
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in children)
                continue
            child_lits = [cache[child] for child in children]
            gate = self.new_var()
            self._define_gate(node, gate, child_lits)
            cache[node] = gate

        return cache[term]

    def _define_gate(self, node: Term, gate: int, child_lits: list[int]) -> None:
        """Emit both Tseitin directions of ``gate ⇔ node``."""
        if isinstance(node, And):
            for lit in child_lits:
                self.clauses.append([-gate, lit])
            self.clauses.append([gate] + [-lit for lit in child_lits])
        elif isinstance(node, Or):
            for lit in child_lits:
                self.clauses.append([gate, -lit])
            self.clauses.append([-gate] + child_lits)
        else:  # pragma: no cover - exhaustive over term kinds
            raise TypeError(f"unexpected term {node!r}")

    # ------------------------------------------------------------------
    def define(self, definitions: Iterable[tuple[Term, Term]]) -> None:
        """Bind every ``(name, rhs)`` definition, in one pass.

        Each ``name`` is a boolean variable that no clause has named yet
        (``ValueError`` otherwise) and afterwards stands for ``rhs``:

        * a copy (``rhs`` another name, or its negation) shares that
          name's literal, so a chain of copies is one variable and a
          cycle of copies one free variable (an odd cycle ``x ⇔ ¬x``
          makes the formula unsatisfiable);
        * an atom takes its atom variable and a constant the variable
          of its unit clause;
        * a compound ``rhs`` is clausified with its own Tseitin gate as
          the name's variable, so names with the same ``rhs`` share it.

        Every gate is numbered before any is clausified, so definitions
        may refer to each other in cycles (as a network's do).
        """
        names = self.var_of_boolname
        cache = self._lit_cache
        rhs_of: dict[str, Term] = {}
        for name, rhs in definitions:
            key = name.name
            if key in names or key in rhs_of:
                raise ValueError(f"{key!r} already has a variable")
            rhs_of[key] = rhs
        gates: list[Term] = []
        for key in rhs_of:
            # Walk the copies from key to a literal; chain holds each name
            # passed with its sign relative to the walk's start.
            chain: dict[str, int] = {}
            sign = 1
            while True:
                if key in names:
                    lit = names[key]
                    break
                if key in chain:  # a cycle of copies
                    if chain[key] != sign:
                        self.unsatisfiable = True
                    sign = chain[key]
                    lit = self.new_var()
                    break
                chain[key] = sign
                rhs = rhs_of.get(key)
                if rhs is None:  # not defined here: a free variable
                    lit = self.new_var()
                    break
                if isinstance(rhs, Not):
                    sign, rhs = -sign, rhs.arg
                if isinstance(rhs, BoolVar):
                    key = rhs.name
                    continue
                lit = cache.get(rhs)
                if lit is None:
                    if isinstance(rhs, (And, Or)):
                        lit = cache[rhs] = self.new_var()
                        gates.append(rhs)
                    else:
                        lit = self.literal(rhs)
                break
            for member, member_sign in chain.items():
                names[member] = member_sign * sign * lit
        for node in gates:
            child_lits = [self.literal(child) for child in node.args]  # type: ignore[attr-defined]
            self._define_gate(node, cache[node], child_lits)
