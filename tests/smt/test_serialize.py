"""Solver snapshots: round-trip fidelity, warm copies, early-UNSAT contract.

The serialization layer promises that a restored solver answers every
query over snapshot state *identically* — same verdicts, same unsat-core
names — when queries arrive as named boolean guards (the only way worker
processes talk to snapshot state).  The properties here drive random
formula + assumption mixes through snapshot/restore and pickle to keep
that promise honest.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    FALSE,
    Result,
    Solver,
    boolvar,
    eq,
    ge,
    implies,
    intvar,
    le,
    neg,
    restore_solver,
    snapshot_solver,
)

# ---------------------------------------------------------------------------
# Random guarded-arithmetic instances (the shape the engine generates:
# base constraints + guard literals implying extra constraints).
# ---------------------------------------------------------------------------

N_VARS = 3
N_GUARDS = 4

coeffs = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=N_VARS, max_size=N_VARS
)
atom = st.tuples(coeffs, st.integers(min_value=-6, max_value=6))
instance = st.tuples(
    st.lists(atom, min_size=1, max_size=4),  # base constraints
    st.lists(atom, min_size=N_GUARDS, max_size=N_GUARDS),  # guarded
    st.lists(  # assumption sets to query, in order
        st.lists(
            st.integers(min_value=0, max_value=N_GUARDS - 1),
            min_size=0,
            max_size=N_GUARDS,
            unique=True,
        ),
        min_size=1,
        max_size=3,
    ),
)


def _build(base, guarded):
    """One solver (and its vars/guards) over a random instance."""
    xs = [intvar(f"sx{i}") for i in range(N_VARS)]
    solver = Solver()
    for x in xs:
        solver.add(ge(x, 0))
        solver.add(le(x, 4))
    for cs, bound in base:
        solver.add(le(sum(c * x for c, x in zip(cs, xs)), bound))
    guards = [boolvar(f"sg{i}") for i in range(N_GUARDS)]
    for guard, (cs, bound) in zip(guards, guarded):
        solver.add(implies(guard, le(sum(c * x for c, x in zip(cs, xs)), bound)))
    return solver, guards


@given(data=instance)
@settings(max_examples=60, deadline=None)
def test_snapshot_roundtrip_preserves_verdicts_and_cores(data):
    base, guarded, queries = data
    original, guards = _build(base, guarded)
    # Snapshot before any query; ship through pickle like a spawn worker.
    snapshot = pickle.loads(pickle.dumps(snapshot_solver(original)))
    restored, _ = restore_solver(snapshot)
    for indices in queries:
        assumptions = [guards[i] for i in indices]
        expected = original.check(assumptions=assumptions)
        got = restored.check(
            assumptions=[boolvar(f"sg{i}") for i in indices]
        )
        assert got == expected
        if expected == Result.UNSAT:
            # Cores are solver-trajectory-dependent sets, but both solvers
            # see identical clause databases and assumption orders, so the
            # failed-assumption names must agree.
            assert [t.name for t in restored.unsat_core()] == [
                t.name for t in original.unsat_core()
            ]
            assert restored.formula_unsat == original.formula_unsat


@given(data=instance)
@settings(max_examples=30, deadline=None)
def test_fork_answers_like_the_original(data):
    """A warm copy (learned clauses and phases) taken after the original
    has answered every query answers each one as the original does."""
    base, guarded, queries = data
    original, guards = _build(base, guarded)
    for indices in queries:
        original.check(assumptions=[guards[i] for i in indices])
    clone, _ = restore_solver(snapshot_solver(original, include_learned=True))
    for indices in queries:
        assumptions = [guards[i] for i in indices]
        assert clone.check(assumptions=assumptions) == original.check(
            assumptions=assumptions
        )


def test_restored_int_vars_compose_with_new_arithmetic():
    cap = intvar("cap[q]")
    g2 = boolvar("pin2")
    solver = Solver()
    solver.add(ge(cap, 0))
    solver.add(implies(g2, eq(cap, 2)))
    restored, ints = restore_solver(snapshot_solver(solver))
    cap_r = ints[cap.uid]
    g5 = boolvar("pin5")  # minted on the restored side, like a worker does
    restored.add(implies(g5, eq(cap_r, 5)))
    assert restored.check(assumptions=[boolvar("pin2")]) == Result.SAT
    assert restored.model()[cap_r] == 2
    assert restored.check(assumptions=[g5]) == Result.SAT
    assert restored.model()[cap_r] == 5
    assert restored.check(assumptions=[boolvar("pin2"), g5]) == Result.UNSAT
    assert {t.name for t in restored.unsat_core()} == {"pin2", "pin5"}
    assert not restored.formula_unsat


def test_snapshot_preserves_popped_scope_retractions():
    """A guard retired before the snapshot stays retired after restore."""
    x = intvar("scope_x")
    guard = boolvar("scope_g")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(le(x, 9))
    solver.add(implies(guard, eq(x, 1)))
    solver.add(neg(guard))
    restored, ints = restore_solver(snapshot_solver(solver))
    restored.add(eq(ints[x.uid], 5))  # contradicts the retired eq(x, 1)
    assert restored.check() == Result.SAT
    assert restored.check([boolvar("scope_g")]) == Result.UNSAT
    assert restored.formula_unsat is False


# ---------------------------------------------------------------------------
# The early-UNSAT short-circuit contract (satellite fix)
# ---------------------------------------------------------------------------

CANONICAL_STAT_KEYS = {
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    # Learned-clause lifecycle counters (stable since PR 3).
    "learned",
    "reductions",
    "reduced",
    "kept_glue",
    "splits",
    # Checks answered from a stored model (see Solver "Model reuse").
    "reused",
    # Deadline cancellations and warm imports: covered by the same zeroing
    # contract — an early-UNSAT check() must report zeros for them.
    "cancelled",
    "imported_rounds",
}


def test_early_unsat_zeroes_all_stat_keys_and_flags_formula():
    solver = Solver()
    solver.add(FALSE)
    guard = boolvar("unused_guard")
    assert solver.check(assumptions=[guard]) == Result.UNSAT
    assert set(solver.stats) == CANONICAL_STAT_KEYS
    assert all(value == 0 for value in solver.stats.values())
    assert solver.unsat_core() == []
    assert solver.formula_unsat  # empty core because the *formula* is false
    # Stat keys match a normally-solved query's exactly.
    probe = Solver()
    x = intvar("early_x")
    probe.add(ge(x, 0))
    assert probe.check() == Result.SAT
    assert set(probe.stats) == CANONICAL_STAT_KEYS


def test_assumption_unsat_is_distinguishable_from_formula_unsat():
    x = intvar("dist_x")
    solver = Solver()
    solver.add(ge(x, 0))
    lo, hi = boolvar("dist_lo"), boolvar("dist_hi")
    solver.add(implies(lo, le(x, 1)))
    solver.add(implies(hi, ge(x, 5)))
    assert solver.check(assumptions=[lo, hi]) == Result.UNSAT
    assert {t.name for t in solver.unsat_core()} == {"dist_lo", "dist_hi"}
    assert not solver.formula_unsat  # the assumptions did it
    # After a SAT check the flag must refuse to answer.
    assert solver.check(assumptions=[lo]) == Result.SAT
    try:
        solver.formula_unsat
    except RuntimeError:
        pass
    else:
        raise AssertionError("formula_unsat must require a prior UNSAT check")
