"""Unit tests for the CDCL SAT core (no theory attached)."""

import pytest

from repro.smt.sat import SAT, UNSAT, Cdcl, _luby


def solve_clauses(n_vars, clauses):
    solver = Cdcl()
    solver.ensure_vars(n_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def test_luby_prefix():
    assert [_luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_empty_problem_is_sat():
    solver = solve_clauses(0, [])
    assert solver.solve() == SAT


def test_single_unit():
    solver = solve_clauses(1, [[1]])
    assert solver.solve() == SAT
    assert solver.model_value(1) is True


def test_contradicting_units():
    solver = solve_clauses(1, [[1], [-1]])
    assert solver.solve() == UNSAT


def test_simple_implication_chain():
    # 1 -> 2 -> 3, with 1 forced.
    solver = solve_clauses(3, [[1], [-1, 2], [-2, 3]])
    assert solver.solve() == SAT
    assert solver.model_value(3) is True


def test_unsat_triangle():
    clauses = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
    solver = solve_clauses(2, clauses)
    assert solver.solve() == UNSAT


def test_tautological_clause_ignored():
    solver = solve_clauses(2, [[1, -1], [2]])
    assert solver.solve() == SAT
    assert solver.model_value(2) is True


def test_duplicate_literals_deduped():
    solver = solve_clauses(1, [[1, 1, 1]])
    assert solver.solve() == SAT
    assert solver.model_value(1) is True


def test_pigeonhole_2_into_1_unsat():
    # Two pigeons, one hole: p1h1, p2h1, not both.
    clauses = [[1], [2], [-1, -2]]
    solver = solve_clauses(2, clauses)
    assert solver.solve() == UNSAT


def test_pigeonhole_3_into_2_unsat():
    # var(p,h) = 2*(p-1)+h for p in 1..3, h in 1..2
    def var(p, h):
        return 2 * (p - 1) + h

    clauses = []
    for p in range(1, 4):
        clauses.append([var(p, 1), var(p, 2)])
    for h in (1, 2):
        for p1 in range(1, 4):
            for p2 in range(p1 + 1, 4):
                clauses.append([-var(p1, h), -var(p2, h)])
    solver = solve_clauses(6, clauses)
    assert solver.solve() == UNSAT


def test_model_satisfies_all_clauses():
    clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
    solver = solve_clauses(3, clauses)
    assert solver.solve() == SAT
    model = {v: solver.model_value(v) for v in (1, 2, 3)}
    for clause in clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in clause)


def test_incremental_clause_addition():
    solver = solve_clauses(2, [[1, 2]])
    assert solver.solve() == SAT
    solver.add_clause([-1])
    assert solver.solve() == SAT
    assert solver.model_value(2) is True
    solver.add_clause([-2])
    assert solver.solve() == UNSAT


def test_stats_populated():
    solver = solve_clauses(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    solver.solve()
    assert solver.stats["conflicts"] >= 1


@pytest.mark.parametrize(
    "seed", [lambda core: core.seed_phases([True, True, True])], ids=["seed_phases"]
)
def test_phase_hint_survives_the_next_query(seed):
    """A phase seeded after a SAT verdict steers the next query, although
    that query keeps the shared assumption level on the trail."""
    solver = solve_clauses(3, [[1, 2, 3]])
    assert solver.solve(assumptions=[1]) == SAT
    assert not solver.model_value(2)  # saved phases start out false
    seed(solver)
    assert solver.solve(assumptions=[1]) == SAT
    assert solver.model_value(2)


def test_rewind_after_sat_saves_the_model_as_phases():
    """Phase saving: a clause added after a SAT verdict rewinds the trail
    to the root, and every variable it unassigns keeps its model value as
    its saved phase, so the next query branches toward that model first.
    The queue-size walks rely on this to start each probe at the last
    probe's model."""
    solver = solve_clauses(6, [[-1, 2], [-2, 3], [4, 5], [6]])
    assert solver.solve(assumptions=[1]) == SAT
    model = [solver.model_value(var) for var in range(1, 7)]
    assert model == [True, True, True, False, True, True]
    solver.add_clause([3, 4])
    unassigned = [var for var in range(1, 7) if solver._val[2 * var] == 0]
    assert unassigned == [1, 2, 3, 4, 5]  # the root unit 6 stays assigned
    phases = solver.phase_vector()
    assert [phases[var - 1] for var in unassigned] == [
        model[var - 1] for var in unassigned
    ]


def test_only_changed_assumptions_are_decided_again():
    solver = solve_clauses(4, [[1, 2, 3, 4]])
    assert solver.solve(assumptions=[1, -2]) == SAT
    before = solver.stats["decisions"]
    assert solver.solve(assumptions=[1, -2]) == SAT
    assert solver.stats["decisions"] - before == 2  # variables 3 and 4
    before = solver.stats["decisions"]
    assert solver.solve(assumptions=[1, 3]) == SAT
    assert solver.stats["decisions"] - before == 3  # 3, then 2 and 4
