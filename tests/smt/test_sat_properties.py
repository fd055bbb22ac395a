"""Differential testing of the CDCL core against brute-force enumeration
and against a fresh core per query."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import SAT, UNSAT, Cdcl

N_VARS = 5

literals = st.integers(min_value=1, max_value=N_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clauses_strategy = st.lists(
    st.lists(literals, min_size=1, max_size=4), min_size=0, max_size=12
)


def brute_force_sat(clauses):
    for bits in product([False, True], repeat=N_VARS):
        assignment = {v: bits[v - 1] for v in range(1, N_VARS + 1)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


@given(clauses_strategy)
@settings(max_examples=300, deadline=None)
def test_cdcl_matches_truth_table(clauses):
    solver = Cdcl()
    solver.ensure_vars(N_VARS)
    for clause in clauses:
        solver.add_clause(clause)
    verdict = solver.solve()
    expected = brute_force_sat(clauses)
    assert verdict == (SAT if expected else UNSAT)
    if verdict == SAT:
        model = {v: solver.model_value(v) for v in range(1, N_VARS + 1)}
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


@given(clauses_strategy, clauses_strategy)
@settings(max_examples=100, deadline=None)
def test_incremental_matches_monolithic(first, second):
    incremental = Cdcl()
    incremental.ensure_vars(N_VARS)
    for clause in first:
        incremental.add_clause(clause)
    incremental.solve()
    for clause in second:
        incremental.add_clause(clause)
    verdict = incremental.solve()

    monolithic = Cdcl()
    monolithic.ensure_vars(N_VARS)
    for clause in first + second:
        monolithic.add_clause(clause)
    assert verdict == monolithic.solve()


# Assumption sequences for one long-lived core: each query keeps a prefix
# of a shared base list and appends its own tail, so consecutive calls
# share all, part or none of the trail prefix the core keeps.
query_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.lists(literals, min_size=0, max_size=3),
)


def _fresh(clauses, **knobs):
    solver = Cdcl(**knobs)
    solver.ensure_vars(N_VARS)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


@given(
    clauses_strategy,
    st.lists(literals, min_size=0, max_size=3),
    st.lists(query_strategy, min_size=2, max_size=6),
    st.sampled_from([{}, {"reduce_base": 2, "reduce_growth": 1.0}]),
)
@settings(max_examples=200, deadline=None)
def test_reused_core_matches_fresh_core_per_query(clauses, base, queries, knobs):
    """One core answering a query sequence agrees with a fresh core per
    query, its models satisfy the clauses and the assumptions, and every
    failed core is a subset of the assumptions that is UNSAT by itself."""
    reused = _fresh(clauses, **knobs)
    for keep, tail in queries:
        assumptions = base[:keep] + tail
        verdict = reused.solve(assumptions=assumptions)
        assert verdict == _fresh(clauses).solve(assumptions=assumptions)
        if verdict == SAT:
            model = {v: reused.model_value(v) for v in range(1, N_VARS + 1)}
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)
            assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
        else:
            core = reused.final_core
            assert set(core) <= set(assumptions)
            assert _fresh(clauses).solve(assumptions=core) == UNSAT
