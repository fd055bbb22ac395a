"""Learned-clause lifecycle: reduction must never change an answer.

Clause-database reduction deletes only *redundant* clauses (resolvents of
the database), so every verdict — SAT/UNSAT, under any assumption order —
must be byte-identical with reduction on or off, even with pathologically
aggressive schedules that reduce after nearly every conflict.  The
hypothesis differential drives random guarded-arithmetic instances
through random op orders to keep that promise honest; directed tests pin
the policy details (glue protection, the cap, export/import, compaction,
and the early-UNSAT stat contract for the new counters).
"""

import json

from cdcl_knobs import cdcl_knobs
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import FALSE, Result, Solver, boolvar, eq, ge, implies, intvar, le
from repro.smt.sat import SAT, UNSAT, Cdcl
from repro.smt.serialize import restore_solver, snapshot_solver

# ---------------------------------------------------------------------------
# Random instances: base constraints + guard-implied constraints, queried
# under random assumption subsets — the op shape the engine generates.
# ---------------------------------------------------------------------------

N_VARS = 3
N_GUARDS = 4

coeffs = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=N_VARS, max_size=N_VARS
)
atom = st.tuples(coeffs, st.integers(min_value=-6, max_value=6))
instance = st.tuples(
    st.lists(atom, min_size=1, max_size=4),
    st.lists(atom, min_size=N_GUARDS, max_size=N_GUARDS),
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=N_GUARDS - 1),
            min_size=0,
            max_size=N_GUARDS,
            unique=True,
        ),
        min_size=1,
        max_size=4,
    ),
)


def _build(base, guarded, **knobs):
    xs = [intvar(f"rx{i}") for i in range(N_VARS)]
    with cdcl_knobs(**knobs):
        solver = Solver()
    assert solver._sat.reduction is knobs.get("reduction", True)  # the seam took
    for x in xs:
        solver.add(ge(x, 0))
        solver.add(le(x, 4))
    for cs, bound in base:
        solver.add(le(sum(c * x for c, x in zip(cs, xs)), bound))
    guards = [boolvar(f"rg{i}") for i in range(N_GUARDS)]
    for guard, (cs, bound) in zip(guards, guarded):
        solver.add(implies(guard, le(sum(c * x for c, x in zip(cs, xs)), bound)))
    return solver, guards


@given(data=instance)
@settings(max_examples=60, deadline=None)
def test_reduction_on_off_verdicts_byte_identical(data):
    base, guarded, queries = data
    # Pathological schedule: reduce at every opportunity.
    reduced, guards = _build(
        base, guarded, reduction=True, reduce_base=1,
        reduce_growth=1.0, glue_cap=2, reduce_keep=0.0,
    )
    plain, _ = _build(base, guarded, reduction=False)
    seen = []
    for indices in queries:
        assumptions = [guards[i] for i in indices]
        a = reduced.check(assumptions=assumptions)
        b = plain.check(assumptions=assumptions)
        seen.append((a.value, b.value))
    payload_a = json.dumps([a for a, _ in seen]).encode()
    payload_b = json.dumps([b for _, b in seen]).encode()
    assert payload_a == payload_b


@given(data=instance)
@settings(max_examples=30, deadline=None)
def test_import_learned_never_flips_a_verdict(data):
    """Warm restore (snapshot + learned import) ≡ cold restore."""
    base, guarded, queries = data
    teacher, guards = _build(base, guarded)
    cold_snapshot = snapshot_solver(teacher)  # before any learning
    for indices in queries:  # accumulate learned state
        teacher.check(assumptions=[guards[i] for i in indices])
    warm, _ = restore_solver(snapshot_solver(teacher, include_learned=True))
    cold, _ = restore_solver(cold_snapshot)
    for indices in queries:
        names = [boolvar(f"rg{i}") for i in indices]
        assert warm.check(assumptions=names) == cold.check(assumptions=names)


# ---------------------------------------------------------------------------
# Directed policy checks on the bare CDCL core
# ---------------------------------------------------------------------------


def _hard_instance(solver: Cdcl, pigeons=7, holes=6) -> None:
    def var(p, h):
        return (p - 1) * holes + h

    solver.ensure_vars(pigeons * holes)
    for p in range(1, pigeons + 1):
        solver.add_clause([var(p, h) for h in range(1, holes + 1)])
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                solver.add_clause([-var(p1, h), -var(p2, h)])


def test_reduction_bounds_the_database_on_conflict_heavy_instances():
    bounded = Cdcl(reduction=True, reduce_base=30, reduce_growth=1.3)
    unbounded = Cdcl(reduction=False)
    _hard_instance(bounded)
    _hard_instance(unbounded)
    assert bounded.solve() == unbounded.solve() == UNSAT
    assert bounded.stats["reductions"] > 0
    assert bounded.stats["reduced"] > 0
    assert bounded.learned_count < unbounded.learned_count


def test_problem_clauses_are_never_deleted():
    solver = Cdcl(reduction=True, reduce_base=1, reduce_keep=0.0, glue_cap=0)
    _hard_instance(solver, pigeons=5, holes=4)
    problem_clauses = len(solver.clauses)
    assert solver.solve() == UNSAT
    solver.compact()
    kept_problem = sum(1 for lbd in solver._lbd if lbd == 0)
    assert kept_problem == problem_clauses


def _seeded_3sat(solver: Cdcl, n=30, m=126, seed=7) -> None:
    """A conflict-heavy satisfiable-or-not random 3-SAT instance."""
    import random

    rng = random.Random(seed)
    solver.ensure_vars(n)
    for _ in range(m):
        lits = rng.sample(range(1, n + 1), 3)
        solver.add_clause([lit if rng.random() < 0.5 else -lit for lit in lits])


def test_glue_cap_demotes_coldest_protected_clauses():
    solver = Cdcl(reduction=False, glue_cap=5, reduce_keep=0.0)
    _seeded_3sat(solver)
    verdict = solver.solve()
    before = solver.learned_count
    assert before > 5, "seeded instance should be conflict-heavy"
    solver.compact()
    # Everything beyond the protected cap was deletable (keep fraction 0).
    assert solver.learned_count <= 5
    assert solver.stats["kept_glue"] <= 5
    # Deleting redundant clauses cannot flip the verdict.
    assert solver.solve() == verdict


def test_compact_is_sound_mid_incremental_use():
    solver = Cdcl(reduction=False)
    _hard_instance(solver, pigeons=5, holes=4)
    assert solver.solve() == UNSAT  # root-level UNSAT marks _ok False
    assert solver.compact() == 0

    sat_solver = Cdcl(reduction=False)
    sat_solver.ensure_vars(3)
    sat_solver.add_clause([1, 2])
    sat_solver.add_clause([-1, 3])
    assert sat_solver.solve() == SAT
    sat_solver.compact()
    assert sat_solver.solve() == SAT
    sat_solver.add_clause([-3])  # forces -1, then 2 at the root
    sat_solver.compact()
    assert sat_solver.solve(assumptions=[1]) == UNSAT
    assert sat_solver.final_core == [1]
    assert sat_solver.solve() == SAT  # formula itself stays satisfiable


def test_learned_export_is_lbd_sorted_and_capped():
    solver = Cdcl(reduction=False)
    _hard_instance(solver)
    solver.solve()
    export = solver.learned_clauses()
    lbds = [lbd for lbd, lits in export if len(lits) > 1]
    assert lbds == sorted(lbds)
    capped = solver.learned_clauses(cap=5)
    assert len(capped) == 5 and list(capped) == list(export[:5])
    for lbd, lits in solver.learned_clauses(max_lbd=2):
        assert lbd <= 2 or len(lits) == 1


def test_import_demotion_floors_lbd_below_glue_protection():
    teacher = Cdcl(reduction=False)
    _hard_instance(teacher)
    teacher.solve()
    export = [
        (lbd, lits) for lbd, lits in teacher.learned_clauses()
        if len(lits) > 2
    ]
    assert export, "instance should learn some non-binary clauses"
    student = Cdcl(reduction=False, glue_keep=2)
    _hard_instance(student)
    student.import_learned(export, demote_to=3)
    imported_lbds = [lbd for lbd in student._lbd if lbd]
    assert imported_lbds and all(lbd >= 3 for lbd in imported_lbds)


def test_phase_vector_roundtrip_steers_first_model():
    a = Cdcl()
    a.ensure_vars(4)
    a.add_clause([1, 2, 3, 4])
    a.seed_phases([True, False, True, False])
    b = Cdcl()
    b.ensure_vars(4)
    b.add_clause([1, 2, 3, 4])
    b.seed_phases(a.phase_vector())
    assert b.solve() == SAT
    assert b.model_value(1) is True  # first decision follows the seed


# ---------------------------------------------------------------------------
# Stat-key contract (satellite): the lifecycle counters are stable keys
# and zero correctly on the early-UNSAT path.
# ---------------------------------------------------------------------------

LIFECYCLE_KEYS = {"learned", "reductions", "reduced", "kept_glue"}


def test_cdcl_stats_carry_stable_lifecycle_keys():
    assert LIFECYCLE_KEYS <= set(Cdcl().stats)


def test_early_unsat_zeroes_lifecycle_keys_too():
    solver = Solver()
    solver.add(ge(intvar("lc_x"), 0))
    assert solver.check() == Result.SAT  # learn-capable query first
    solver.add(FALSE)
    assert solver.check(assumptions=[boolvar("lc_g")]) == Result.UNSAT
    assert LIFECYCLE_KEYS <= set(solver.stats)
    assert all(solver.stats[key] == 0 for key in LIFECYCLE_KEYS)
    assert solver.formula_unsat


def test_solver_stats_report_lifecycle_deltas_per_query():
    x = intvar("ld_x")
    solver = Solver()
    solver.add(ge(x, 0))
    solver.add(le(x, 8))
    g = boolvar("ld_g")
    solver.add(implies(g, eq(x, 9)))
    assert solver.check(assumptions=[g]) == Result.UNSAT
    first_learned = solver.stats["learned"]
    assert solver.check() == Result.SAT
    # Deltas, not cumulative totals: a cheap follow-up query reports only
    # its own learning.
    assert solver.stats["learned"] <= first_learned or first_learned == 0
    assert LIFECYCLE_KEYS <= set(solver.stats)
