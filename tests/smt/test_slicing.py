"""Cooperative slice bound: ``should_stop``.

A :class:`~repro.core.resilience.Deadline` bounds every query with these
slices — the solver must return UNKNOWN at a slice boundary with *all*
learning retained, answer the same query correctly when re-sliced, and
stop within one propagate cycle of a cancellation callback firing.  These
are the unit-level contracts under ``Deadline``; the session-level
timeout tests live in ``tests/core/test_resilience.py``.  Slices of a
fixed conflict count come from :func:`_conflict_slice`, which makes the
tests deterministic.
"""

import pytest

from _sat_reference import Cdcl as ReferenceCdcl
from repro.smt import Result, Solver, boolvar, ge, implies, intvar, le
from repro.smt.sat import SAT, UNKNOWN, UNSAT, Cdcl


def _pigeonhole(solver_cls, pigeons=5, holes=4):
    """PHP(p, h): UNSAT and needs real conflict work — var p*holes+h+1."""
    cdcl = solver_cls()
    for _ in range(pigeons * holes):
        cdcl.new_var()
    for p in range(pigeons):
        cdcl.add_clause([p * holes + h + 1 for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                cdcl.add_clause(
                    [-(p * holes + h + 1), -(q * holes + h + 1)]
                )
    return cdcl


def _conflict_slice(core, limit):
    """A ``should_stop`` for one call that fires once the call has spent
    ``limit`` conflicts of ``core`` (a CDCL core): a conflict limit.  The
    poll sits at the top of the search loop, so the call stops after
    exactly ``limit`` conflicts."""
    entry = core.stats["conflicts"]
    return lambda: core.stats["conflicts"] - entry >= limit


@pytest.mark.parametrize("solver_cls", [Cdcl, ReferenceCdcl], ids=["arena", "reference"])
def test_zero_conflict_limit_returns_unknown_immediately(solver_cls):
    cdcl = _pigeonhole(solver_cls)
    assert cdcl.solve(should_stop=_conflict_slice(cdcl, 0)) == UNKNOWN
    assert cdcl.stats["cancelled"] == 1
    assert cdcl.stats["conflicts"] == 0
    # The solver stays usable: an unbounded solve answers for real.
    assert cdcl.solve() == UNSAT


@pytest.mark.parametrize("solver_cls", [Cdcl, ReferenceCdcl], ids=["arena", "reference"])
def test_resliced_solve_reaches_the_fresh_verdict(solver_cls):
    sliced = _pigeonhole(solver_cls)
    rounds = 0
    while True:
        verdict = sliced.solve(should_stop=_conflict_slice(sliced, 3))
        rounds += 1
        if verdict != UNKNOWN:
            break
        assert rounds < 10_000, "slicing must terminate"
    assert verdict == _pigeonhole(solver_cls).solve() == UNSAT
    assert rounds > 1, "PHP(5,4) cannot finish inside one 3-conflict slice"
    assert sliced.stats["cancelled"] == rounds - 1


@pytest.mark.parametrize("solver_cls", [Cdcl, ReferenceCdcl], ids=["arena", "reference"])
def test_should_stop_cancels_and_keeps_the_solver_reusable(solver_cls):
    cdcl = _pigeonhole(solver_cls)
    assert cdcl.solve(should_stop=lambda: True) == UNKNOWN
    assert cdcl.stats["cancelled"] == 1
    assert cdcl.solve() == UNSAT


def test_should_stop_is_polled_every_propagate_cycle():
    # A stop firing on the Nth poll bounds the overshoot to that cycle:
    # the solve must return UNKNOWN, not run to completion.
    polls = 0

    def stop_after_five():
        nonlocal polls
        polls += 1
        return polls > 5

    cdcl = _pigeonhole(Cdcl)
    assert cdcl.solve(should_stop=stop_after_five) == UNKNOWN
    assert polls == 6


def test_sliced_solver_keeps_learning_across_slices():
    cdcl = _pigeonhole(Cdcl)
    assert cdcl.solve(should_stop=_conflict_slice(cdcl, 5)) == UNKNOWN
    assert cdcl.stats["learned"] > 0
    assert cdcl.learned_clauses(), "slice boundary must not drop learnt state"


def test_slice_bounds_compose_with_assumptions():
    cdcl = Cdcl()
    a, b = cdcl.new_var(), cdcl.new_var()
    cdcl.add_clause([a, b])
    assert cdcl.solve(assumptions=(-a,), should_stop=lambda: True) == UNKNOWN
    assert cdcl.solve(assumptions=(-a,)) == SAT
    assert cdcl.solve(assumptions=(-a, -b)) == UNSAT


# ---------------------------------------------------------------------------
# Solver level: Result.UNKNOWN surfaces through check()
# ---------------------------------------------------------------------------


def _tight_solver():
    """A small LIA instance whose B&B search survives a zero-budget slice."""
    solver = Solver()
    xs = [intvar(f"sl{i}") for i in range(3)]
    for x in xs:
        solver.add(ge(x, 0))
        solver.add(le(x, 5))
    solver.add(le(xs[0] + xs[1] + xs[2], 7))
    solver.add(ge(xs[0] + 2 * xs[1], 4))
    return solver, xs


def test_check_conflict_limit_zero_is_unknown_then_answers():
    solver, _ = _tight_solver()
    assert solver.check(should_stop=_conflict_slice(solver._sat, 0)) == Result.UNKNOWN
    assert solver.stats["cancelled"] == 1
    verdict = solver.check()
    assert verdict in (Result.SAT, Result.UNSAT)
    fresh, _ = _tight_solver()
    assert verdict == fresh.check()


def test_check_should_stop_is_unknown_with_cancelled_stat():
    solver, _ = _tight_solver()
    assert solver.check(should_stop=lambda: True) == Result.UNKNOWN
    assert solver.stats["cancelled"] == 1


def test_check_resliced_verdict_and_core_match_unbounded():
    solver, xs = _tight_solver()
    lo, hi = boolvar("slice_lo"), boolvar("slice_hi")
    solver.add(implies(lo, le(xs[0], 0)))
    solver.add(implies(hi, ge(2 * xs[1], 9)))
    budget = 1
    while True:
        # One slice per check, shared by its branch-and-bound iterations.
        verdict = solver.check(
            assumptions=[lo, hi],
            should_stop=_conflict_slice(solver._sat, budget),
        )
        if verdict != Result.UNKNOWN:
            break
        budget += 1
        assert budget < 10_000
    reference, rxs = _tight_solver()
    reference.add(implies(boolvar("slice_lo"), le(rxs[0], 0)))
    reference.add(implies(boolvar("slice_hi"), ge(2 * rxs[1], 9)))
    expected = reference.check(
        assumptions=[boolvar("slice_lo"), boolvar("slice_hi")]
    )
    assert verdict == expected
    if expected == Result.UNSAT:
        assert {t.name for t in solver.unsat_core()} == {
            t.name for t in reference.unsat_core()
        }
