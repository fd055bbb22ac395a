"""Answering a check from a stored model, and loading the CNF in bulk.

``Solver.check`` first tests its assumptions against the newest few SAT
models: a false assumption whose variable is no theory atom may be
flipped when every CNF clause holding its negation keeps another true
literal (see "Model reuse" in :mod:`repro.smt.solver`).  These tests
check that such answers equal a fresh solver's, that every reused model
satisfies the CNF and the assumptions, and that reuse stops where it
would be unsound: after a new clause or split, on atom variables, and on
an assumption set that holds a literal and its negation.
"""

from __future__ import annotations

from heapq import heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Result, Solver
from repro.smt.sat import Cdcl
from repro.smt.terms import (
    boolvar,
    disj,
    eq,
    ge,
    implies,
    intvar,
    le,
    neg,
)

N_VARS = 5
N_GUARDS = 4


def _literal(name: str, positive: bool):
    var = boolvar(name)
    return var if positive else neg(var)


def _clause_terms(clause):
    return [_literal(f"mr_x{index}", positive) for index, positive in clause]


def _satisfies_cnf(solver: Solver, model) -> bool:
    """Every CNF clause has a true literal under ``model``.

    The property below asserts flat disjunctions of boolean variables
    only, so every CNF variable has a name and the model names its value.
    """
    value = {}
    for name, lit in solver._cnf.var_of_boolname.items():
        value[lit] = model[name]
        value[-lit] = not model[name]
    return all(any(value[lit] for lit in clause) for clause in solver._cnf.clauses)


literals = st.tuples(st.integers(0, N_VARS - 1), st.booleans())
clauses = st.lists(literals, min_size=1, max_size=3)
guarded = st.tuples(st.integers(0, N_GUARDS - 1), clauses)
assumption = st.one_of(
    st.tuples(st.just("g"), st.integers(0, N_GUARDS - 1), st.booleans()),
    st.tuples(st.just("x"), st.integers(0, N_VARS - 1), st.booleans()),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("check"), st.lists(assumption, min_size=1, max_size=3)),
        st.tuples(st.just("add"), guarded),
    ),
    min_size=1,
    max_size=12,
)


@given(
    st.lists(clauses, max_size=8),
    st.lists(guarded, max_size=10),
    steps,
)
@settings(max_examples=200, deadline=None)
def test_reused_answers_match_a_fresh_solver(base, guards, script):
    asserted = [disj(*_clause_terms(clause)) for clause in base]
    asserted += [
        disj(neg(boolvar(f"mr_g{guard}")), *_clause_terms(clause))
        for guard, clause in guards
    ]
    solver = Solver()
    for term in asserted:
        solver.add(term)
    for kind, payload in script:
        if kind == "add":
            guard, clause = payload
            term = disj(neg(boolvar(f"mr_g{guard}")), *_clause_terms(clause))
            asserted.append(term)
            solver.add(term)
            continue
        assumptions = [
            _literal(f"mr_{prefix}{index}", positive)
            for prefix, index, positive in payload
        ]
        fresh = Solver()
        for term in asserted:
            fresh.add(term)
        verdict = solver.check(assumptions)
        assert verdict == fresh.check(assumptions)
        if verdict == Result.SAT:
            model = solver.model()
            assert _satisfies_cnf(solver, model)
            for prefix, index, positive in payload:
                assert model[f"mr_{prefix}{index}"] == positive


def _guarded_pair():
    """``g1 → x`` and ``g2 → y`` with ``y`` asserted: after a SAT check
    under ``g1``, a check under ``g2`` is answered by flipping ``g2``."""
    g1, g2 = boolvar("mr_pair_g1"), boolvar("mr_pair_g2")
    x, y = boolvar("mr_pair_x"), boolvar("mr_pair_y")
    solver = Solver()
    solver.add(implies(g1, x))
    solver.add(implies(g2, y))
    solver.add(y)
    return solver, g1, g2


def test_a_check_is_answered_from_an_earlier_model():
    solver, g1, g2 = _guarded_pair()
    assert solver.check([g1]) == Result.SAT
    assert solver.stats["reused"] == 0
    assert solver.check([g2]) == Result.SAT
    assert solver.stats["reused"] == 1
    assert solver.stats["decisions"] == solver.stats["propagations"] == 0
    assert solver.model()["mr_pair_g2"] and solver.model()["mr_pair_y"]


def test_a_clause_added_after_a_sat_answer_stops_reuse():
    solver, g1, g2 = _guarded_pair()
    assert solver.check([g1]) == Result.SAT
    solver.add(neg(g2))
    # The stored model and the clause index predate ¬g2: reusing either
    # would flip g2 past the new unit clause.
    assert solver.check([g2]) == Result.UNSAT
    assert solver.stats["reused"] == 0
    assert solver.unsat_core() == [g2]


def test_a_split_added_after_a_sat_answer_stops_reuse():
    x, y = intvar("mr_split_x"), intvar("mr_split_y")
    g = boolvar("mr_split_g")
    solver = Solver()
    for var in (x, y):
        solver.add(ge(var, 0))
        solver.add(le(var, 10))
    solver.add(implies(g, eq(2 * x - 3 * y, 3)))
    assert solver.check([neg(g)]) == Result.SAT
    assert len(solver._models) == 1
    assert solver.check([g]) == Result.SAT
    assert solver.stats["splits"] > 0 and solver.stats["reused"] == 0
    # Only the model found after the last split is kept.
    assert len(solver._models) == 1
    model = solver.model()
    assert 2 * model[x] - 3 * model[y] == 3


def test_atom_variables_are_never_flipped():
    x = intvar("mr_atom_x")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(le(x, 5))
    low, high = le(x, 2), ge(x, 4)
    # ``high`` occurs only positively in the CNF, so the clause test alone
    # would let its variable flip; only the bound axioms refute it.
    solver.add(disj(low, high))
    assert solver.check([low]) == Result.SAT
    assert solver.model()[x] <= 2
    assert solver.check([high]) == Result.SAT
    assert solver.stats["reused"] == 0
    assert solver.model()[x] >= 4


def test_a_literal_and_its_negation_are_not_answered_by_a_flip():
    a, b = boolvar("mr_copy_a"), boolvar("mr_copy_b")
    solver = Solver()
    solver.define([(b, a)])  # b copies a: one shared variable
    assert solver.check([a]) == Result.SAT
    assert solver.check([neg(b)]) == Result.SAT
    assert solver.stats["reused"] == 1
    assert solver.check([a, neg(b)]) == Result.UNSAT
    assert solver.stats["reused"] == 0


# ---------------------------------------------------------------------------
# Bulk loading into the CDCL core
# ---------------------------------------------------------------------------


def test_bulk_variables_leave_the_heap_as_one_push_each():
    core = Cdcl()
    core.ensure_vars(6)
    # Every 3-clause over x1..x3 but ¬x1 ∨ ¬x2 ∨ ¬x3: only all-true
    # satisfies them, so the default negative phase meets conflicts and
    # bumped keys go negative.
    core.add_clauses(
        [[a * 1, b * 2, c * 3] for a in (1, -1) for b in (1, -1) for c in (1, -1)][:-1]
        + [[-4, 5, 6], [-5, -6]]
    )
    assert core.solve() == "sat" and core.stats["conflicts"] > 0
    core.add_clause([4, 5, 6])  # rewinds: the unassigned keys go back in
    assert min(core._heap) < 0 < max(core._heap)
    expected = list(core._heap)
    for var in range(7, 12):
        heappush(expected, var)
    core.ensure_vars(11)
    assert core._heap == expected
    assert core.n_vars == 11
    assert len(core._val) == 2 * 12 and len(core._watches) == 2 * 12
    assert len(core._key) == 12 and len(core._trail) == 11


def test_bulk_clauses_load_as_one_add_clause_each():
    batch = [[1, 2], [2, 1, 1], [-3], [3, 4], [4, -4], [1, 5, -2], [5]]
    one_by_one, bulk = Cdcl(), Cdcl()
    for core in (one_by_one, bulk):
        core.ensure_vars(5)
    for clause in batch:
        one_by_one.add_clause(clause)
    bulk.add_clauses(batch)
    assert bulk.clauses == one_by_one.clauses
    assert bulk._trail[: bulk._trail_len] == one_by_one._trail[: one_by_one._trail_len]
    assert bulk.solve() == one_by_one.solve() == "sat"


def test_loading_nothing_new_keeps_the_trail():
    core = Cdcl()
    core.ensure_vars(3)
    core.add_clauses([[1, 2, 3], [-1, -2]])
    assert core.solve(assumptions=[1]) == "sat"
    level = core.decision_level
    assert level > 0
    core.ensure_vars(3)
    core.add_clauses([])
    assert core.decision_level == level
