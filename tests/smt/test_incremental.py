"""Incremental solving: assumptions, guard retraction, cores, clause retention."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    Result,
    Solver,
    boolvar,
    disj,
    eq,
    ge,
    implies,
    intvar,
    le,
    neg,
)


# ---------------------------------------------------------------------------
# Assumptions
# ---------------------------------------------------------------------------


def test_assumptions_do_not_stick():
    x = intvar("ia_x")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(le(x, 10))
    assert solver.check(assumptions=[ge(x, 11)]) == Result.UNSAT
    assert solver.check() == Result.SAT
    assert solver.check(assumptions=[eq(x, 7)]) == Result.SAT
    assert solver.model()[x] == 7
    assert solver.check(assumptions=[eq(x, 3)]) == Result.SAT
    assert solver.model()[x] == 3


def test_boolean_assumptions():
    a, b = boolvar("ia_a"), boolvar("ia_b")
    solver = Solver()
    solver.add(disj(a, b))
    assert solver.check(assumptions=[neg(a), neg(b)]) == Result.UNSAT
    assert solver.check(assumptions=[neg(a)]) == Result.SAT
    assert solver.model()[b] is True


def test_assumptions_guard_capacity_pattern():
    # The VerificationSession pattern: a guard implies an equality; probing
    # different sizes is just a different assumption literal.
    x = intvar("ia_cap")
    g2, g5 = boolvar("ia_g2"), boolvar("ia_g5")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(neg(g2) | eq(x, 2))
    solver.add(neg(g5) | eq(x, 5))
    assert solver.check(assumptions=[g2]) == Result.SAT
    assert solver.model()[x] == 2
    assert solver.check(assumptions=[g5]) == Result.SAT
    assert solver.model()[x] == 5
    assert solver.check(assumptions=[g2, g5]) == Result.UNSAT


def test_contradictory_assumption_pair():
    a = boolvar("ia_pair")
    solver = Solver()
    solver.add(disj(a, neg(a)))  # mention the variable
    assert solver.check(assumptions=[a, neg(a)]) == Result.UNSAT
    core = solver.unsat_core()
    assert {t.uid for t in core} == {a.uid, neg(a).uid}


# ---------------------------------------------------------------------------
# Unsat cores
# ---------------------------------------------------------------------------


def test_unsat_core_subset_and_inconsistent():
    x, y = intvar("ic_x"), intvar("ic_y")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(ge(y, 0))
    irrelevant = le(y, 50)
    culprit_a, culprit_b = le(x, 3), ge(x, 4)
    assert solver.check(assumptions=[irrelevant, culprit_a, culprit_b]) == Result.UNSAT
    core = solver.unsat_core()
    core_uids = {t.uid for t in core}
    assert culprit_a.uid in core_uids
    assert culprit_b.uid in core_uids
    assert irrelevant.uid not in core_uids
    # The core alone must still be inconsistent on a fresh solver.
    fresh = Solver()
    fresh.add(ge(x, 0))
    fresh.add(ge(y, 0))
    for term in core:
        fresh.add(term)
    assert fresh.check() == Result.UNSAT


def test_unsat_core_empty_when_formula_unsat():
    x = intvar("ic_z")
    solver = Solver()
    solver.add(ge(x, 1))
    solver.add(le(x, 0))
    assert solver.check(assumptions=[le(x, 100)]) == Result.UNSAT
    assert solver.unsat_core() == []


def test_unsat_core_requires_unsat():
    solver = Solver()
    solver.add(boolvar("ic_sat"))
    assert solver.check() == Result.SAT
    with pytest.raises(RuntimeError):
        solver.unsat_core()


# ---------------------------------------------------------------------------
# Guard-literal retraction
# ---------------------------------------------------------------------------


def test_push_pop_retracts():
    """A guarded assertion binds only in checks that assume its guard,
    and adding the guard's negation retires it for good."""
    x = intvar("ip_x")
    g, h = boolvar("ip_g"), boolvar("ip_h")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(le(x, 10))
    solver.add(implies(g, ge(x, 11)))
    assert solver.check([g]) == Result.UNSAT
    solver.add(neg(g))
    assert solver.check() == Result.SAT
    solver.add(implies(h, eq(x, 4)))
    assert solver.check([h]) == Result.SAT
    assert solver.model()[x] == 4
    solver.add(neg(h))
    assert solver.check([h]) == Result.UNSAT
    assert solver.unsat_core() == [h]


# ---------------------------------------------------------------------------
# Learned-clause retention
# ---------------------------------------------------------------------------


def test_learned_clauses_survive_checks():
    # Pigeonhole 4-into-3 forces real conflict-driven learning.
    holes = 3
    pigeons = [[boolvar(f"ph_{p}_{h}") for h in range(holes)] for p in range(4)]
    solver = Solver()
    for row in pigeons:
        solver.add(disj(*row))
    for h in range(holes):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                solver.add(disj(neg(pigeons[p1][h]), neg(pigeons[p2][h])))
    clauses_before = solver.clause_count()
    assert solver.check() == Result.UNSAT
    assert solver.stats["conflicts"] > 0
    assert solver.clause_count() > clauses_before, "learned clauses retained"
    first_conflicts = solver.stats["conflicts"]
    # The same (unconditionally unsat) query again: the solver is already
    # root-level inconsistent, so no new search is needed at all.
    assert solver.check() == Result.UNSAT
    assert solver.stats["conflicts"] <= first_conflicts


def test_learned_clauses_reused_across_assumption_flips():
    # Under assumptions the instance stays satisfiable globally, so learned
    # clauses must carry over without poisoning later queries.
    n = 6
    xs = [intvar(f"lr_{i}") for i in range(n)]
    solver = Solver()
    for x in xs:
        solver.add(ge(x, 0))
        solver.add(le(x, 3))
    solver.add(eq(sum(xs[1:], xs[0] + 0), 9))
    total_first = None
    for lo in (0, 1, 2):
        verdict = solver.check(assumptions=[ge(xs[0], lo)])
        assert verdict == Result.SAT
        if total_first is None:
            total_first = solver.clause_count()
    assert solver.check(assumptions=[ge(xs[0], 4)]) == Result.UNSAT
    assert solver.check(assumptions=[eq(xs[0], 3)]) == Result.SAT
    assert solver.model()[xs[0]] == 3
    # Splits/learned clauses from earlier queries are still in the store.
    assert solver.clause_count() >= total_first


# ---------------------------------------------------------------------------
# Model strictness (satellite: no silent defaults)
# ---------------------------------------------------------------------------


def test_model_raises_on_unknown_int_var():
    x, ghost = intvar("im_x"), intvar("im_ghost")
    solver = Solver()
    solver.add(eq(x, 1))
    assert solver.check() == Result.SAT
    assert solver.model()[x] == 1
    with pytest.raises(KeyError):
        solver.model()[ghost]
    assert ghost not in solver.model()


def test_model_raises_on_unknown_bool():
    a = boolvar("im_a")
    solver = Solver()
    solver.add(a)
    assert solver.check() == Result.SAT
    assert solver.model()[a] is True
    with pytest.raises(KeyError):
        solver.model()["im_never_mentioned"]
    with pytest.raises(KeyError):
        solver.model()[boolvar("im_other")]


# ---------------------------------------------------------------------------
# Differential property test: incremental == from-scratch
# ---------------------------------------------------------------------------

N_VARS = 3
DOMAIN = range(0, 4)

atom_specs = st.tuples(
    st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in range(N_VARS)]),
    st.integers(min_value=-4, max_value=8),
    st.sampled_from(["le", "ge", "eq"]),
)


def _build_atom(variables, spec):
    coeffs, bound, kind = spec
    expr = sum((c * v for c, v in zip(coeffs, variables)), 0 * variables[0])
    if kind == "le":
        return le(expr, bound)
    if kind == "ge":
        return ge(expr, bound)
    return eq(expr, bound)


@given(
    base=st.lists(atom_specs, min_size=1, max_size=3),
    queries=st.lists(st.lists(atom_specs, min_size=0, max_size=2), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_assumption_checks_match_fresh_solver(base, queries):
    """One incremental solver answering many queries must agree with a
    fresh solver built per query (any order, any assumption sets)."""
    variables = [intvar(f"pd_{i}") for i in range(N_VARS)]
    bounds = []
    for var in variables:
        bounds.append(ge(var, min(DOMAIN)))
        bounds.append(le(var, max(DOMAIN)))
    base_atoms = [_build_atom(variables, spec) for spec in base]

    incremental = Solver()
    for term in bounds + base_atoms:
        incremental.add(term)

    for query in queries:
        assumption_atoms = [_build_atom(variables, spec) for spec in query]
        verdict = incremental.check(assumptions=assumption_atoms)

        fresh = Solver()
        for term in bounds + base_atoms + assumption_atoms:
            fresh.add(term)
        assert verdict == fresh.check()
        if verdict == Result.SAT:
            model = incremental.model()
            values = {v: model[v] for v in variables}
            for atom in base_atoms + assumption_atoms:
                # every asserted/assumed conjunct holds in the model
                assert _holds(atom, values)


@given(
    guarded=st.lists(st.lists(atom_specs, min_size=1, max_size=2), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_push_pop_matches_fresh_solver(guarded):
    """The engine's retraction pattern: each group is asserted as
    ``implies(g, atom)``, checked under ``[g]`` and retired with
    ``add(neg(g))``.  Every check, and the base formula once every guard
    is retired, answers exactly as a fresh solver does."""
    variables = [intvar(f"pp_{i}") for i in range(N_VARS)]
    base = []
    for var in variables:
        base.append(ge(var, min(DOMAIN)))
        base.append(le(var, max(DOMAIN)))

    incremental = Solver()
    for term in base:
        incremental.add(term)

    for index, group in enumerate(guarded):
        atoms = [_build_atom(variables, spec) for spec in group]
        guard = boolvar(f"pp_g{index}")
        for atom in atoms:
            incremental.add(implies(guard, atom))
        verdict = incremental.check([guard])
        fresh = Solver()
        for term in base + atoms:
            fresh.add(term)
        assert verdict == fresh.check()
        incremental.add(neg(guard))

    assert incremental.check() == Result.SAT  # plain bounds are satisfiable


def _holds(term, values):
    """Evaluate an atom/conjunction produced by ``_build_atom``."""
    from repro.smt import And, Atom, Not

    if isinstance(term, Atom):
        return term.constraint.evaluate(values)
    if isinstance(term, And):
        return all(_holds(arg, values) for arg in term.args)
    if isinstance(term, Not):
        return not _holds(term.arg, values)
    if term.__class__.__name__ == "BoolConst":
        return term.value
    raise TypeError(f"unexpected term {term!r}")
