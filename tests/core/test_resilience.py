"""Chaos suite: the fault-tolerance layer must never change verdicts.

Every test here drives the execution stack through an injected fault —
killed workers, broken pools, raising builders, expired budgets — and
asserts the two resilience contracts:

* **liveness** — grids and sweeps complete (degrading through the
  quarantine ladder if they must), deadline-expired queries return a
  first-class ``TIMEOUT``, and no child process outlives its session;
* **verdict byte-identity** — a recovered run replays from the same
  :class:`~repro.core.engine.SessionSnapshot`, so its verdicts equal the
  fault-free sequential reference exactly.

Faults are deterministic: ``tests/faults.py`` patches one named function
to fail on its N-th call in each process, optionally latched to fire
once across processes.  A *latched* kill is the recovery drill (one
worker dies, once), an *unlatched* kill is the quarantine drill (every
fresh worker dies until the ladder degrades).  Pool workers inherit a
patch only when forked, so those tests skip elsewhere.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
import types
from concurrent.futures import BrokenExecutor
from pathlib import Path

import pytest
from faults import KILL_EXIT_CODE, InjectedFault, inject

import repro
from repro.core import (
    Deadline,
    Experiment,
    ExperimentResult,
    ScenarioSpec,
    SessionSpec,
    VerificationSession,
    Verdict,
    experiments,
    minimal_queue_size,
    parallel,
    sweep_queue_sizes,
)
from repro.core.parallel import POOL_ATTEMPTS
from repro.netlib import running_example

pytestmark = pytest.mark.chaos

needs_fork = pytest.mark.skipif(
    parallel._process_context().get_start_method() != "fork",
    reason="pool workers inherit an injected fault only under fork",
)


def _network(queue_size=2):
    return running_example(queue_size=queue_size).network


def verdicts(result):
    """Each scenario's key, minimum and sorted probes, in grid order."""
    return [[s.key, s.minimal_size, sorted(s.probes.items())] for s in result.scenarios]


def _eager_reference(queue_size=2):
    session = VerificationSession(_network(queue_size))
    session.add_invariants()
    return session.verify()


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every chaos test leaves no pool or child behind."""
    yield
    # No leaked children: everything spawned during the test must be
    # reaped by its session's or run's recovery/close paths.
    # active_children() joins zombies as a side effect.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Deadline primitives
# ---------------------------------------------------------------------------


def test_deadline_requires_at_least_one_bound():
    with pytest.raises(ValueError):
        Deadline()
    with pytest.raises(ValueError):
        Deadline(seconds=-1)
    with pytest.raises(ValueError):
        Deadline(conflicts=-1)


def test_deadline_conflict_budget_accounting():
    deadline = Deadline(conflicts=100)
    assert deadline.remaining_conflicts() == 100
    assert not deadline.expired()
    deadline.charge(60)
    assert deadline.remaining_conflicts() == 40
    deadline.charge(60)
    assert deadline.remaining_conflicts() == 0
    assert deadline.expired()
    # should_stop polls the wall clock only — the conflict side is
    # enforced through conflict_limit, not the hot-path callback.
    assert not deadline.should_stop()


def test_deadline_wall_clock_expiry():
    assert Deadline(seconds=0.0).expired()
    assert Deadline(seconds=0.0).should_stop()
    generous = Deadline(seconds=3600.0)
    assert not generous.expired()
    assert generous.remaining_seconds() <= 3600.0


def test_deadline_wire_round_trip_and_coerce():
    deadline = Deadline(seconds=50.0, conflicts=200)
    deadline.charge(50)
    seconds, conflicts = deadline.to_wire()
    assert conflicts == 150 and 0 < seconds <= 50.0
    rebuilt = Deadline.from_wire((seconds, conflicts))
    assert rebuilt.remaining_conflicts() == 150
    assert Deadline.from_wire(None) is None
    assert Deadline.coerce(None) is None
    assert Deadline.coerce(deadline) is deadline
    assert Deadline.coerce((None, 10)).remaining_conflicts() == 10
    with pytest.raises(TypeError):
        Deadline.coerce(5)  # bare seconds are no deadline argument


# ---------------------------------------------------------------------------
# The fault helper, and production code that ignores fault settings
# ---------------------------------------------------------------------------


def _target():
    return types.SimpleNamespace(call=lambda: "answered")


def test_fault_plan_fires_on_nth_arrival():
    target = _target()
    with inject(target, "call", "raise", at=2):
        assert target.call() == "answered"
        with pytest.raises(InjectedFault):
            target.call()
        assert target.call() == "answered"  # counts move past the trigger
    assert target.call() == "answered"  # the block restores the original


def test_fault_plan_latch_fires_once_globally(tmp_path):
    target = _target()
    with inject(target, "call", "raise", latch=tmp_path):
        with pytest.raises(InjectedFault):
            target.call()
    # A second installation (standing in for another process) finds the
    # marker and answers normally.
    with inject(target, "call", "raise", latch=tmp_path):
        assert target.call() == "answered"


def test_injected_fault_actions():
    target = _target()
    with inject(target, "call", "break"):
        with pytest.raises(BrokenExecutor):
            target.call()
    # kill in the installing process is downgraded to a raise — an
    # injected kill can never take down the test runner itself.
    with inject(target, "call", "kill"):
        with pytest.raises(InjectedFault):
            target.call()
    with pytest.raises(ValueError):
        inject(target, "call", "explode")


def test_fault_environment_does_not_reach_workers():
    """No production process reads a fault plan from its environment: a
    forced pool started under ``ADVOCAT_FAULTS=query-worker:kill@1``
    answers normally and rebuilds no pool."""
    reference = [r.verdict.value for r in _sequential_all_cases()]
    script = (
        "import json\n"
        "from repro.core import SessionSpec, VerificationSession\n"
        "from repro.netlib import running_example\n"
        "spec = SessionSpec(running_example(queue_size=2).network)\n"
        "with VerificationSession(spec=spec, jobs=2, backend='process',"
        " force_pool=True) as pool:\n"
        "    got = [r.verdict.value for r in pool.verify_all_cases()]\n"
        "    print(json.dumps([got, pool.recoveries]))\n"
    )
    env = dict(
        os.environ,
        ADVOCAT_FAULTS="query-worker:kill@1",
        PYTHONPATH=str(Path(repro.__file__).parent.parent),
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    got, recoveries = json.loads(run.stdout.splitlines()[-1])
    assert got == reference
    assert recoveries == 0


# ---------------------------------------------------------------------------
# Deadlines through the stack: TIMEOUT, never a hang
# ---------------------------------------------------------------------------


def test_engine_conflict_budget_times_out_and_session_survives():
    session = VerificationSession(_network())
    session.add_invariants()
    result = session.verify(deadline=Deadline(conflicts=1))
    assert result.verdict == Verdict.TIMEOUT
    assert result.timed_out and not result.deadlock_free
    assert result.stats["timed_out"] is True
    # The session (and everything it learned) survives the timeout.
    assert session.verify().verdict == _eager_reference().verdict


@pytest.mark.parametrize(
    "open_session",
    [
        lambda network: VerificationSession(network),
        lambda network: VerificationSession(
            network, jobs=2, backend="thread", force_pool=True
        ),
    ],
    ids=["sequential", "parallel"],
)
def test_pre_expired_deadline_skips_the_solver(open_session):
    with open_session(_network()) as session:
        result = session.verify(deadline=Deadline(seconds=0.0))
        fanned = session.verify_all_cases(deadline=Deadline(seconds=0.0))
    assert result.verdict == Verdict.TIMEOUT
    assert result.stats["timed_out"] is True
    assert result.stats["solver"] == {}  # no stale stats from prior queries
    # The fan-out, pooled or not, never enters a solver either.
    assert all(r.verdict == Verdict.TIMEOUT for r in fanned)
    assert all(r.stats["solver"] == {} for r in fanned)


def test_parallel_session_deadline_yields_timeouts_then_recovers():
    spec = SessionSpec(_network())
    with VerificationSession(
        spec=spec, jobs=2, backend="thread", force_pool=True
    ) as pool:
        # An exhausted budget times out every shipped job...
        timed = pool.verify_all_cases(deadline=Deadline(conflicts=0))
        assert all(r.verdict == Verdict.TIMEOUT for r in timed)
        # ...a tiny one may still answer cases that solve within it; any
        # verdict that does land must match the sequential reference.
        reference = [r.verdict for r in _sequential_all_cases()]
        mixed = pool.verify_all_cases(deadline=Deadline(conflicts=1))
        for got, want in zip(mixed, reference):
            assert got.verdict in (want, Verdict.TIMEOUT)
        clean = pool.verify_all_cases()
        assert [r.verdict for r in clean] == reference


def test_sizing_deadline_returns_partial_result():
    build = lambda size: _network(queue_size=size)  # noqa: E731
    sizing = minimal_queue_size(
        build, max_size=6, deadline=Deadline(conflicts=1)
    )
    assert sizing.timed_out and sizing.minimal_size is None
    assert any(r.timed_out for r in sizing.results.values())
    # A generous budget answers exactly like no budget at all.
    bounded = minimal_queue_size(
        build, max_size=6, deadline=Deadline(conflicts=10**7)
    )
    unbounded = minimal_queue_size(build, max_size=6)
    assert bounded.minimal_size == unbounded.minimal_size
    assert not bounded.timed_out


def test_sweep_deadline_marks_unanswered_sizes_timeout():
    build = lambda size: _network(queue_size=size)  # noqa: E731
    swept = sweep_queue_sizes(build, [1, 2, 3], deadline=Deadline(conflicts=1))
    assert swept.timed_out
    # Every undecided size answers TIMEOUT, not only the first.
    assert set(swept.results) == {1, 2, 3}
    assert all(r.timed_out for r in swept.results.values())
    assert swept.probes == {}  # TIMEOUT probes never masquerade as verdicts


# ---------------------------------------------------------------------------
# Worker-crash recovery: the parallel query pool
# ---------------------------------------------------------------------------


@needs_fork
def test_pool_worker_kill_recovers_with_identical_verdicts(tmp_path):
    reference = [r.verdict for r in _sequential_all_cases()]
    spec = SessionSpec(_network())
    with inject(parallel, "_run_job", "kill", latch=tmp_path):
        with VerificationSession(
            spec=spec, jobs=2, backend="process", force_pool=True
        ) as pool:
            got = pool.verify_all_cases()
            assert [r.verdict for r in got] == reference
            assert pool.recoveries == 1
            assert not pool.degraded


@needs_fork
def test_pool_worker_persistent_kill_quarantines_to_inline():
    reference = [r.verdict for r in _sequential_all_cases()]
    # No latch: every fresh worker dies on its first job, so the session
    # must burn its attempts and degrade to in-process execution.
    spec = SessionSpec(_network())
    with inject(parallel, "_run_job", "kill"):
        with VerificationSession(
            spec=spec, jobs=2, backend="process", force_pool=True
        ) as pool:
            got = pool.verify_all_cases()
            assert [r.verdict for r in got] == reference
            assert pool.degraded
            assert pool.recoveries == POOL_ATTEMPTS
            # Degradation is sticky: later dispatches stay inline (and keep
            # answering correctly) instead of rebuilding doomed pools.
            again = pool.verify_all_cases()
            assert [r.verdict for r in again] == reference
            assert pool.recoveries == POOL_ATTEMPTS


def test_parent_side_pool_break_is_retried():
    reference = [r.verdict for r in _sequential_all_cases()]
    spec = SessionSpec(_network())
    with inject(VerificationSession, "_ensure_pool", "break"), VerificationSession(
        spec=spec, jobs=2, backend="thread", force_pool=True
    ) as pool:
        got = pool.verify_all_cases()
        assert [r.verdict for r in got] == reference
        assert pool.recoveries == 1
        assert pool.stats()["recoveries"] == 1


def _sequential_all_cases():
    spec = SessionSpec(_network())
    return VerificationSession(spec=spec).verify_all_cases()


# ---------------------------------------------------------------------------
# Injected kills
# ---------------------------------------------------------------------------


@needs_fork
def test_injected_kill_exit_code_is_recognisable():
    target = _target()
    with inject(target, "call", "kill"):
        child = parallel._process_context().Process(target=target.call)
        child.start()
        child.join(10.0)
    assert child.exitcode == KILL_EXIT_CODE


# ---------------------------------------------------------------------------
# Experiment grids: quarantine ladder and structured failures
# ---------------------------------------------------------------------------


def _grid() -> Experiment:
    return Experiment(
        "chaos",
        [
            ScenarioSpec(builder="running_example", mode="sweep", sizes=(1, 2)),
            ScenarioSpec(builder="running_example", mode="search", max_size=4),
        ],
    )


def test_builder_fault_is_retried_inline():
    reference = _grid().run(jobs=1)
    with inject(ScenarioSpec, "build", "raise"):
        result = _grid().run(jobs=1)
    assert verdicts(result) == verdicts(reference)
    assert result.retries == 1
    assert result.failures == 0


@needs_fork
def test_scenario_worker_kill_grid_completes_identically(tmp_path):
    reference = _grid().run(jobs=1)
    with inject(experiments, "run_scenario", "kill", latch=tmp_path):
        result = _grid().run(jobs=2)
    assert verdicts(result) == verdicts(reference)
    assert result.retries >= 1
    assert result.failures == 0


def test_persistent_builder_fault_lands_structured_failures(tmp_path):
    # Triggers deep enough to outlast the inline retry: the grid must
    # still complete, with failure placeholders in-slot.
    with inject(ScenarioSpec, "build", "raise", at=range(1, 40)):
        result = _grid().run(jobs=1)
    assert len(result.scenarios) == 2
    assert result.failures == 2
    record = result.scenarios[0].failure
    assert record is not None and record["type"] == "InjectedFault"

    # Counters and failure records survive the JSON checkpoint format...
    reloaded = ExperimentResult.from_json(json.loads(json.dumps(result.to_json())))
    assert reloaded.failures == 2 and reloaded.retries == result.retries
    assert reloaded.scenarios[0].failure == record

    # ...and a resumed run retries failed scenarios instead of reusing them.
    checkpoint = tmp_path / "chaos.json"
    result.save(checkpoint)
    rerun = _grid().run(jobs=1, resume=checkpoint)
    assert rerun.reused == 0 and rerun.computed == 2
    assert rerun.failures == 0
    assert verdicts(rerun) == verdicts(_grid().run(jobs=1))


def test_experiment_deadline_reaches_every_scenario():
    result = _grid().run(jobs=1, deadline=Deadline(conflicts=1))
    assert len(result.scenarios) == 2
    assert all(s.probes == {} for s in result.scenarios)
    assert all(s.minimal_size is None for s in result.scenarios)
    assert result.failures == 0  # TIMEOUT is an answer, not a failure
