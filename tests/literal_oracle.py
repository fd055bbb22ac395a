"""The literal-size oracle: deadlock verdicts without the session layer.

A check derives one network's colors and deadlock encoding with its
queue sizes baked in as literals (no ``cap[q]`` variables), asserts every
block/idle definition as ``iff(name, rhs)`` through ``Solver.add`` and
answers with one fresh :class:`~repro.smt.Solver`.  It shares no step
with the session layer (:mod:`repro.core.engine`,
:mod:`repro.core.parallel`): no ``SessionSpec``, no capacity pins, no
``Solver.define`` binding.  That keeps it an independent oracle for the
sessions, and ``tests/test_literal_oracle.py`` holds it to that.

Tests import it as ``literal_oracle`` (``tests/conftest.py`` puts
``tests/`` on the import path); benchmarks add ``tests/`` to
``sys.path`` themselves.
"""

from __future__ import annotations

from repro.core.colors import derive_colors
from repro.core.deadlock import encode_deadlock
from repro.core.invariants import generate_invariants
from repro.core.vars import VarPool
from repro.smt import Result, Solver, Term, conj, eq, iff, neg


class LiteralEncoding:
    """One network's literal-size encoding, its colors and variables,
    and (with ``invariants=True``) its cross-layer invariants."""

    def __init__(self, network, invariants: bool = False, rotating_precision: bool = True):
        self.network = network
        self.colors = derive_colors(network)
        self.pool = VarPool()
        self.encoding = encode_deadlock(
            network, self.colors, self.pool, rotating_precision=rotating_precision
        )
        self.invariants = (
            generate_invariants(network, self.colors, self.pool) if invariants else []
        )

    def solver(self, *terms: Term) -> Solver:
        """A fresh solver holding the invariants, every definition as
        ``iff(name, rhs)``, the domain constraints and then ``terms``."""
        solver = Solver()
        for invariant in self.invariants:
            solver.add(invariant.term())
        for name, rhs in self.encoding.definitions:
            solver.add(iff(name, rhs))
        for term in self.encoding.domain:
            solver.add(term)
        for term in terms:
            solver.add(term)
        return solver

    def blocking_clause(self, model) -> Term:
        """Excludes ``model``'s automaton states and queue occupancies:
        the shape a witness enumeration blocks."""
        network, pool = self.network, self.pool
        shape = []
        for automaton in network.automata():
            for state in automaton.states:
                var = pool.state(automaton, state)
                shape.append(eq(var, model[var]))
        for queue in network.queues():
            for color in self.colors.of(network.channel_of(queue.i)):
                var = pool.occupancy(queue, color)
                shape.append(eq(var, model[var]))
        return neg(conj(*shape))


def fresh_verdict(network, use_invariants: bool = False, case_key=None) -> bool:
    """Whether ``network`` is deadlock-free; ``case_key=(kind, subject,
    color)`` restricts the assertion to a single disjunct."""
    literal = LiteralEncoding(network, invariants=use_invariants)
    encoding = literal.encoding
    target = encoding.assertion if case_key is None else encoding.case_of(*case_key).term
    return literal.solver(target).check() == Result.UNSAT


def fresh_witness_count(network, limit: int) -> int:
    """Blocking-clause enumeration in one fresh solver: each SAT model's
    shape (:meth:`LiteralEncoding.blocking_clause`) is blocked before
    the next check.  Returns the number of witnesses, at most ``limit``."""
    literal = LiteralEncoding(network)
    solver = literal.solver(literal.encoding.assertion)
    count = 0
    while count < limit and solver.check() == Result.SAT:
        count += 1
        solver.add(literal.blocking_clause(solver.model()))
    return count
