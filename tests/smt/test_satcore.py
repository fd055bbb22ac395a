"""Differential tests: flat-arena CDCL core vs the frozen reference core.

The arena rewrite (:mod:`repro.smt.sat`) promises a byte-for-byte frozen
behavioural contract against the pre-arena core it replaced, kept in
``tests/smt/_sat_reference.py``.  These tests enforce that promise:

* random CNFs (with random reduction knobs and assumption sets) must
  produce identical verdicts, models, failed-assumption cores and search
  ``stats`` on both cores — identical *trajectories*, not just identical
  answers;
* the learned export must carry the same clauses (compared as multisets
  of ``(lbd, sorted literals)`` — slot order inside a clause is the one
  representational freedom the arena keeps);
* back-to-back solves with shared, partially shared and disjoint
  assumption prefixes (SAT, assumption-UNSAT and sliced calls) stay in
  lockstep call by call, so both cores keep the same trail prefix;
* searches whose activities pass 1e100 (``_var_inc`` preset near it)
  stay in lockstep through each rescale, which rebuilds the VSIDS heap
  in both cores;
* warm session snapshots must round-trip through a real ``spawn`` worker
  (the strictest start method), with ``SNAPSHOT_VERSION`` still 2 since
  the export format did not change;
* pinned verdicts: four random 3-CNFs near the satisfiability threshold
  on both cores, and the 2x2 abstract-MI per-case fan-out through the
  full session stack with the reference core swapped in under
  ``Solver``, so a ``Cdcl`` method ``Solver`` calls must exist in both;
* the satellite regressions: ``_decide`` may never fall back to a
  full-array scan, the ``profile()`` counters must be zeroed on the
  early-UNSAT path exactly like ``stats``, and a permanently UNSAT core
  still rejects an import naming a variable it never minted.
"""

from __future__ import annotations

import inspect
import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _sat_reference
from repro.core import VerificationSession, verdict_sha
from repro.core.parallel import WorkerSession, _initialize_worker, _run_job
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh
from repro.smt import sat, serialize
from repro.smt import solver as solver_module
from repro.smt.solver import Result, Solver
from repro.smt.terms import boolvar

N_VARS = 8

literals = st.integers(min_value=1, max_value=N_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clauses_strategy = st.lists(
    st.lists(literals, min_size=1, max_size=4), min_size=0, max_size=20
)
assumptions_strategy = st.lists(literals, min_size=0, max_size=4)
# Exercise the reduce_db path (tiny reduce_base forces early reductions)
# and the reduction-free arena as well as the defaults.
knobs_strategy = st.sampled_from(
    [
        {},
        {"reduction": False},
        {"reduce_base": 2, "reduce_growth": 1.0, "glue_cap": 3},
        {"reduce_base": 4, "reduce_keep": 0.25},
    ]
)


def _pair(knobs):
    return sat.Cdcl(**knobs), _sat_reference.Cdcl(**knobs)


def _export_multiset(core):
    return sorted(
        (lbd, tuple(sorted(lits)))
        for lbd, lits in core.learned_clauses()
    )


def _assert_in_lockstep(arena, reference, verdict_a, verdict_r):
    assert verdict_a == verdict_r
    assert arena.stats == reference.stats, "search trajectories diverged"
    if verdict_a == sat.SAT:
        model_a = [arena.model_value(v) for v in range(1, N_VARS + 1)]
        model_r = [reference.model_value(v) for v in range(1, N_VARS + 1)]
        assert model_a == model_r
    if verdict_a == sat.UNSAT:
        assert arena.final_core == reference.final_core
    assert _export_multiset(arena) == _export_multiset(reference)


@given(clauses_strategy, assumptions_strategy, knobs_strategy)
@settings(max_examples=200, deadline=None)
def test_arena_matches_reference_single_solve(clauses, assumptions, knobs):
    arena, reference = _pair(knobs)
    arena.ensure_vars(N_VARS)
    reference.ensure_vars(N_VARS)
    for clause in clauses:
        arena.add_clause(clause)
        reference.add_clause(clause)
    _assert_in_lockstep(
        arena,
        reference,
        arena.solve(assumptions=assumptions),
        reference.solve(assumptions=assumptions),
    )


@given(
    clauses_strategy, clauses_strategy, assumptions_strategy, knobs_strategy
)
@settings(max_examples=150, deadline=None)
def test_arena_matches_reference_incremental(
    first, second, assumptions, knobs
):
    """Two solve rounds with clause additions in between stay in lockstep."""
    arena, reference = _pair(knobs)
    arena.ensure_vars(N_VARS)
    reference.ensure_vars(N_VARS)
    for clause in first:
        arena.add_clause(clause)
        reference.add_clause(clause)
    assert arena.solve() == reference.solve()
    for clause in second:
        arena.add_clause(clause)
        reference.add_clause(clause)
    _assert_in_lockstep(
        arena,
        reference,
        arena.solve(assumptions=assumptions),
        reference.solve(assumptions=assumptions),
    )


# Back-to-back solves: each query keeps a prefix of one base list and
# appends its own tail, so consecutive calls share all, part or none of
# their assumption prefix (the levels the cores keep on the trail); some
# calls are slices stopped after a few conflicts.
query_strategy = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.lists(literals, min_size=0, max_size=3),
    st.sampled_from([None, None, None, 0, 1, 3]),
)


def _conflict_slice(core, limit):
    """``None``, or a ``should_stop`` that ends the call once it has spent
    ``limit`` conflicts of ``core``."""
    if limit is None:
        return None
    entry = core.stats["conflicts"]
    return lambda: core.stats["conflicts"] - entry >= limit


@given(
    clauses_strategy,
    st.lists(literals, min_size=0, max_size=4),
    st.lists(query_strategy, min_size=3, max_size=5),
    knobs_strategy,
)
@settings(max_examples=200, deadline=None)
def test_arena_matches_reference_back_to_back(clauses, base, queries, knobs):
    """Consecutive solves with no clause added in between (so no root
    rewind) stay in lockstep query by query."""
    arena, reference = _pair(knobs)
    arena.ensure_vars(N_VARS)
    reference.ensure_vars(N_VARS)
    for clause in clauses:
        arena.add_clause(clause)
        reference.add_clause(clause)
    for keep, tail, limit in queries:
        assumptions = base[:keep] + tail
        _assert_in_lockstep(
            arena,
            reference,
            arena.solve(assumptions, _conflict_slice(arena, limit)),
            reference.solve(assumptions, _conflict_slice(reference, limit)),
        )



# ---------------------------------------------------------------------------
# Activity rescales: both cores rebuild the heap and stay in lockstep
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.sampled_from([1e97, 1e98, 1e99, 5e99]))
@settings(max_examples=200, deadline=None)
def test_arena_matches_reference_across_activity_rescales(seed, var_inc):
    """A preset ``_var_inc`` pushes activities past 1e100 within the first
    conflicts, so the search runs through rescales; the cores must make
    the same decisions before and after each one.  The instances are
    random 3-CNFs over 30 variables near the satisfiability threshold
    (128 clauses), where searches run long enough to rescale."""
    n_vars = 30
    rng = random.Random(seed)
    clauses = [
        [rng.choice((1, -1)) * var for var in rng.sample(range(1, n_vars + 1), 3)]
        for _ in range(128)
    ]
    arena, reference = _pair({})
    for core in (arena, reference):
        core.ensure_vars(n_vars)
        for clause in clauses:
            core.add_clause(clause)
        core._var_inc = var_inc
    verdict_a, verdict_r = arena.solve(), reference.solve()
    assert verdict_a == verdict_r
    assert arena.stats == reference.stats, "search trajectories diverged"
    assert arena._var_inc == reference._var_inc
    if verdict_a == sat.SAT:
        model_a = [arena.model_value(v) for v in range(1, n_vars + 1)]
        model_r = [reference.model_value(v) for v in range(1, n_vars + 1)]
        assert model_a == model_r


def test_forced_rescale_case_rescales_and_stays_in_lockstep():
    # Pigeonhole, 5 pigeons into 4 holes: UNSAT after dozens of conflicts.
    # var_inc starts at 1e99 and grows by 1/0.95 per conflict, so activity
    # passes 1e100 within the first conflicts and is rescaled.
    def hole(pigeon, slot):
        return 4 * pigeon + slot + 1

    clauses = [[hole(p, h) for h in range(4)] for p in range(5)]
    clauses += [
        [-hole(p, h), -hole(q, h)] for h in range(4) for p in range(5) for q in range(p + 1, 5)
    ]
    arena, reference = _pair({})
    for core in (arena, reference):
        core.ensure_vars(20)
        for clause in clauses:
            core.add_clause(clause)
        core._var_inc = 1e99
    assert arena.solve() == reference.solve() == sat.UNSAT
    assert arena.stats == reference.stats
    assert arena._var_inc < 1e90 and reference._var_inc < 1e90, "no rescale happened"
    assert arena._var_inc == reference._var_inc


# ---------------------------------------------------------------------------
# Pinned verdicts: threshold 3-CNFs and the full session stack
# ---------------------------------------------------------------------------


def test_threshold_3cnf_verdicts_are_pinned_on_both_cores():
    """Four random 3-CNFs over 60 variables at clause/variable ratio 4.2,
    where searches mix deep propagation with real conflict analysis."""
    results = []
    for core in (sat, _sat_reference):
        verdicts, propagations = [], 0
        for seed in range(1000, 1004):
            rng = random.Random(seed)
            solver = core.Cdcl(reduction=True, reduce_base=200)
            solver.ensure_vars(60)
            for _ in range(252):
                variables = rng.sample(range(1, 61), 3)
                solver.add_clause([v if rng.random() < 0.5 else -v for v in variables])
            verdicts.append(str(solver.solve()))
            propagations += solver.stats["propagations"]
        results.append((verdict_sha(verdicts), propagations))
    assert results[0] == results[1]
    assert results[0][0] == "ef41c826b6930f3b"


def test_reference_core_answers_the_mesh_fan_out_under_the_full_stack(monkeypatch):
    """Every per-case query of the 2x2 abstract-MI mesh, through the
    session stack on each core.  The reference core does no theory
    propagation, so only the verdicts compare."""
    network = abstract_mi_mesh(2, 2, queue_size=2).network

    def fan_out():
        session = VerificationSession(network)
        verdicts = [session.verify_case(case).deadlock_free for case in session.encoding.cases]
        return type(session.solver._sat), verdicts

    core, arena = fan_out()
    assert core is sat.Cdcl
    monkeypatch.setattr(solver_module, "Cdcl", _sat_reference.Cdcl)
    assert fan_out() == (_sat_reference.Cdcl, arena)
    assert verdict_sha(arena) == "1882424d332c4807"


# ---------------------------------------------------------------------------
# Satellite: no fallback scan in _decide
# ---------------------------------------------------------------------------


def test_decide_has_no_fallback_scan():
    """Repeated solve() calls keep the heap invariant that makes the
    scan-free ``_decide`` correct: every unassigned variable always has a
    heap entry carrying its *current* key, the one its activity gives."""
    core = sat.Cdcl()
    core.ensure_vars(N_VARS)
    for clause in [[1, 2], [-1, 3], [-2, -3], [4, 5, 6], [-4, -5], [7, -8]]:
        core.add_clause(clause)
    for assumptions in ([], [1], [-3, 7], [2, -6], []):
        assert core.solve(assumptions=assumptions) == sat.SAT
        entries = set(core._heap)
        for var in range(1, N_VARS + 1):
            assert core._key[var] == sat._heap_key(var, core._activity[var])
            if core._val[var << 1] == 0:
                assert core._key[var] in entries, (
                    f"unassigned var {var} lost its current-key heap entry"
                )
    # The old core walked every variable when the heap ran dry; the arena
    # core's invariant makes that path dead, and it must stay deleted.
    source = inspect.getsource(sat.Cdcl._decide)
    assert "n_vars" not in source, "_decide regained a full-array scan"


# ---------------------------------------------------------------------------
# Satellite: profile() zeroed on the early-UNSAT path
# ---------------------------------------------------------------------------


def test_profile_zeroed_on_early_unsat():
    solver = Solver()
    x = boolvar("x")
    solver.add(x)
    assert solver.check() == Result.SAT
    assert solver.profile["propagations"] >= 0
    solver.add(~x)
    assert solver.check() == Result.UNSAT
    # Permanently UNSAT now: the next check takes the early-UNSAT path
    # and must report a zero *delta*, not a stale one (the same contract
    # bug class PR 2/PR 3 fixed for ``stats``).
    assert solver.check() == Result.UNSAT
    assert set(solver.profile) == {
        "propagations",
        "visited_watchers",
        "blocker_hits",
        "analyze_steps",
        "arena_gc_words",
        "simplex_pivots",
        "simplex_row_updates",
        "simplex_bland_pivots",
        "simplex_rational_quotients",
        "simplex_asserts",
        "simplex_checks",
        "simplex_conflicts",
        "simplex_bound_conflicts",
        "lia_derived_rows",
        "lia_implied",
        "lia_implied_redundant",
    }
    assert all(value == 0 for value in solver.profile.values())
    assert all(value == 0 for value in solver.stats.values())


def test_cdcl_profile_counts_propagations_consistently():
    core = sat.Cdcl()
    core.ensure_vars(3)
    for clause in [[1, 2], [-1, 2], [-2, 3]]:
        core.add_clause(clause)
    assert core.solve() == sat.SAT
    profile = core.profile()
    assert profile["propagations"] == core.stats["propagations"]
    assert profile["visited_watchers"] >= profile["blocker_hits"]


@pytest.mark.parametrize("core", [sat, _sat_reference], ids=["arena", "reference"])
def test_unsat_solver_rejects_an_import_naming_an_unminted_variable(core):
    solver = core.Cdcl()
    solver.ensure_vars(2)
    solver.add_clause([1])
    solver.add_clause([-1])
    assert solver.solve() == core.UNSAT
    # Permanently UNSAT: the numbering check still comes first.
    with pytest.raises(ValueError, match="never minted"):
        solver.import_learned([(2, (2, 3))])
    assert solver.import_learned([(2, (1, 2))]) == 0


# ---------------------------------------------------------------------------
# Satellite: warm snapshots round-trip through real spawn workers
# ---------------------------------------------------------------------------


def test_snapshot_version_unchanged():
    # The arena is an internal representation; the learned export is the
    # same (lbd, literals) tuples, so snapshots need no version bump.
    assert serialize.SNAPSHOT_VERSION == 2


def test_warm_snapshot_round_trips_under_spawn():
    session = VerificationSession(running_example(queue_size=2).network)
    session.verify()
    snapshot = session.snapshot()
    assert snapshot.solver.learned, "warm snapshot shipped no learned clauses"
    job = ("check", None, None, False)
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=get_context("spawn"),
        initializer=_initialize_worker,
        initargs=(snapshot,),
    ) as executor:
        remote = executor.submit(_run_job, job).result(timeout=180)
    local = WorkerSession(snapshot).run(job)
    assert remote[0] == local[0]
    if remote[0] == "unsat":
        assert set(remote[1]) == set(local[1])
