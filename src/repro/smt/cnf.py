"""Conversion of the term language into CNF.

Top-level assertions are clausified directly: a conjunction asserts each
conjunct and a disjunction becomes a single clause.  Below the top level,
every distinct subterm receives one SAT variable defined by both Tseitin
directions (``Not`` is represented by literal polarity, not a variable), so
a nested literal names an equivalence that assumptions and scope selectors
can rely on.  Arithmetic atoms keep a side table mapping their SAT variable
to the :class:`~repro.smt.terms.LinearAtom`, which the theory bridge
consumes.

The conversion is iterative (explicit stack), so arbitrarily deep formulas
cannot overflow the Python recursion limit.
"""

from __future__ import annotations

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
        self.var_of_boolname: dict[str, int] = {}
        self._lit_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    def clone(self) -> "CnfBuilder":
        """An independent copy sharing no mutable state with the original.

        Term and :class:`LinearAtom` objects themselves are shared (they
        are immutable and interned), so a clone is only meaningful within
        the process that built the original — cross-process transfer goes
        through :mod:`repro.smt.serialize` instead.
        """
        copy = CnfBuilder()
        copy.n_vars = self.n_vars
        copy.clauses = [list(clause) for clause in self.clauses]
        copy.unsatisfiable = self.unsatisfiable
        copy.atom_of_var = dict(self.atom_of_var)
        copy.var_of_atom = dict(self.var_of_atom)
        copy.var_of_boolname = dict(self.var_of_boolname)
        copy._lit_cache = dict(self._lit_cache)
        return copy

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
    def assert_term(self, term: Term, guard: int | None = None) -> None:
        """Add ``term`` as a top-level assertion, clausified directly.

        A top-level ``And`` asserts each conjunct and a top-level ``Or``
        becomes one clause of its disjuncts' literals, so neither mints a
        gate.  ``_flatten`` keeps ``And`` children non-``And``, so this
        recurses one level at most.  With ``guard``, every emitted clause
        carries ``-guard``: the assertion binds only while ``guard`` holds.
        """
        if term is TRUE:
            return
        if term is FALSE:
            if guard is None:
                self.unsatisfiable = True
            else:
                self.clauses.append([-guard])
            return
        prefix = [] if guard is None else [-guard]
        if isinstance(term, And):
            for conjunct in term.args:
                self.assert_term(conjunct, guard)
        elif isinstance(term, Or):
            self.clauses.append(prefix + [self.literal(arg) for arg in term.args])
        else:
            self.clauses.append(prefix + [self.literal(term)])

    def literal(self, term: Term) -> int:
        """The literal standing for ``term``, emitting definition clauses."""
        cached = self._lit_cache.get(term.uid)
        if cached is not None:
            return cached

        # Iterative post-order: children first, then define the node.
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node.uid in self._lit_cache:
                continue
            if isinstance(node, Not):
                if node.arg.uid in self._lit_cache:
                    self._lit_cache[node.uid] = -self._lit_cache[node.arg.uid]
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
                self._lit_cache[node.uid] = var
                continue
            if isinstance(node, BoolVar):
                self._lit_cache[node.uid] = self.var_for_boolname(node.name)
                continue
            if isinstance(node, Atom):
                self._lit_cache[node.uid] = self.var_for_atom(node.constraint)
                continue
            # And / Or
            children = node.args  # type: ignore[attr-defined]
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in children)
                continue
            child_lits = [self._lit_cache[child.uid] for child in children]
            gate = self.new_var()
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
            self._lit_cache[node.uid] = gate

        return self._lit_cache[term.uid]
