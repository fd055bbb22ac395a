"""A self-contained SMT solver for QF_LIA.

The ADVOCAT method reduces deadlock detection to satisfiability of formulas
mixing boolean structure (block/idle variables) with linear integer
arithmetic (queue occupancies, automaton state indicators).  This package
provides the decision procedure: a CDCL SAT core, a Tseitin CNF converter,
an exact rational simplex, and branch-and-bound integrality — all pure
Python, no external solver required.
"""

from .sat import Cdcl
from .serialize import SolverSnapshot, restore_solver, snapshot_solver
from .solver import Model, Result, Solver, SolverBudgetError
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    BoolVar,
    IntVar,
    LinearAtom,
    LinExpr,
    Not,
    Or,
    Term,
    as_linexpr,
    boolvar,
    conj,
    disj,
    eq,
    exactly_one,
    ge,
    gt,
    iff,
    implies,
    intvar,
    ite,
    le,
    lt,
    ne,
    neg,
)

__all__ = [
    "Solver",
    "Result",
    "Model",
    "SolverBudgetError",
    "SolverSnapshot",
    "snapshot_solver",
    "restore_solver",
    "Cdcl",
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
