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

Faults are deterministic (:class:`~repro.core.resilience.FaultPlan`
triggers with per-process counters and an optional once-globally latch),
so every scenario in here is reproducible: a *latched* kill is the
recovery drill (one worker dies, once), an *unlatched* kill is the
quarantine drill (every fresh worker dies until the ladder degrades).
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.core import (
    Deadline,
    Experiment,
    ExperimentResult,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    ScenarioSpec,
    SessionSpec,
    VerificationSession,
    Verdict,
    install_fault_plan,
    minimal_queue_size,
    shutdown_scenario_executors,
    sweep_queue_sizes,
)
from repro.core.parallel import discard_scenario_executor, scenario_executor
from repro.core.resilience import (
    KILL_EXIT_CODE,
    active_fault_plan,
    maybe_inject,
)
from repro.netlib import running_example

pytestmark = pytest.mark.chaos


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
def hermetic_faults():
    """Every chaos test starts clean and leaves no plan, pool or child."""
    install_fault_plan(None)
    yield
    install_fault_plan(None)
    shutdown_scenario_executors()
    # No leaked children: everything spawned during the test must be
    # reaped by its session's recovery/close paths (or the shutdown
    # above).  active_children() joins zombies as a side effect.
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
    assert Deadline.coerce(5).seconds == 5.0
    assert Deadline.coerce((None, 10)).remaining_conflicts() == 10


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_deterministic_capped_backoff():
    policy = RetryPolicy(base_delay=0.05, max_delay=0.3, backoff=2.0)
    delays = [policy.delay(attempt) for attempt in range(6)]
    assert delays == [policy.delay(attempt) for attempt in range(6)]
    # Exponential up to the cap (jitter only ever adds, never removes).
    assert delays[0] >= 0.05
    assert all(d <= 0.3 * (1.0 + policy.jitter) for d in delays)
    assert delays[4] == delays[5] or delays[5] <= 0.3 * (1.0 + policy.jitter)
    # Different seeds jitter differently, same seed identically.
    assert RetryPolicy(seed=1).delay(2) != RetryPolicy(seed=2).delay(2)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)


# ---------------------------------------------------------------------------
# FaultPlan: parsing, counters, latching, environment plumbing
# ---------------------------------------------------------------------------


def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse("query-worker:kill@2, scenario-worker:delay")
    assert plan.specs == (
        FaultSpec("query-worker", "kill", 2),
        FaultSpec("scenario-worker", "delay", 1),
    )
    assert plan.describe() == "query-worker:kill@2,scenario-worker:delay@1"
    with pytest.raises(ValueError):
        FaultPlan.parse("site-without-action")
    with pytest.raises(ValueError):
        FaultPlan.parse("site:explode")


def test_fault_plan_fires_on_nth_arrival():
    plan = FaultPlan.parse("s:raise@2")
    assert plan.fire("s") is None
    assert plan.fire("s") == "raise"
    assert plan.fire("s") is None  # counters move past the trigger
    assert plan.fire("other") is None
    assert plan.hits("s") == 3


def test_fault_plan_latch_fires_once_globally(tmp_path):
    first = FaultPlan.parse("s:raise@1", latch_dir=str(tmp_path))
    second = FaultPlan.parse("s:raise@1", latch_dir=str(tmp_path))
    assert first.fire("s") == "raise"
    # A second plan (standing in for another process) finds the marker.
    assert second.fire("s") is None


def test_install_fault_plan_environment_round_trip(tmp_path):
    install_fault_plan("builder:raise@3", latch_dir=str(tmp_path))
    assert os.environ["ADVOCAT_FAULTS"] == "builder:raise@3"
    assert os.environ["ADVOCAT_FAULT_LATCH"] == str(tmp_path)
    assert os.environ["ADVOCAT_FAULT_PID"] == str(os.getpid())
    plan = active_fault_plan()
    assert plan is not None and plan.owner_pid == os.getpid()
    install_fault_plan(None)
    assert "ADVOCAT_FAULTS" not in os.environ
    assert active_fault_plan() is None


def test_maybe_inject_actions():
    assert maybe_inject("anything") is None  # no plan: cheap no-op
    install_fault_plan("s:raise@1,t:break@1,u:delay@1,v:kill@1")
    with pytest.raises(InjectedFault):
        maybe_inject("s")
    with pytest.raises(BrokenExecutor):
        maybe_inject("t")
    assert maybe_inject("u") == "delay"  # after its short sleep
    assert maybe_inject("u") is None  # fired on the first arrival only
    # kill in the plan's owner process is downgraded to a raise — an
    # injected kill can never take down the test runner itself.
    with pytest.raises(InjectedFault):
        maybe_inject("v")


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


def test_pool_worker_kill_recovers_with_identical_verdicts(tmp_path):
    reference = [r.verdict for r in _sequential_all_cases()]
    install_fault_plan(
        FaultPlan.parse("query-worker:kill@1"), latch_dir=str(tmp_path)
    )
    spec = SessionSpec(_network())
    with VerificationSession(
        spec=spec, jobs=2, backend="process", force_pool=True
    ) as pool:
        got = pool.verify_all_cases()
        assert [r.verdict for r in got] == reference
        assert pool.recoveries == 1
        assert not pool.degraded


def test_pool_worker_persistent_kill_quarantines_to_inline():
    reference = [r.verdict for r in _sequential_all_cases()]
    # No latch: every fresh worker dies on its first job, so the session
    # must burn its attempts and degrade to in-process execution.
    install_fault_plan(FaultPlan.parse("query-worker:kill@1"))
    spec = SessionSpec(_network())
    policy = RetryPolicy(max_attempts=2, base_delay=0.01)
    with VerificationSession(
        spec=spec,
        jobs=2,
        backend="process",
        force_pool=True,
        retry_policy=policy,
    ) as pool:
        got = pool.verify_all_cases()
        assert [r.verdict for r in got] == reference
        assert pool.degraded
        assert pool.recoveries == policy.max_attempts
        # Degradation is sticky: later dispatches stay inline (and keep
        # answering correctly) instead of rebuilding doomed pools.
        again = pool.verify_all_cases()
        assert [r.verdict for r in again] == reference
        assert pool.recoveries == policy.max_attempts


def test_parent_side_pool_break_is_retried(tmp_path):
    reference = [r.verdict for r in _sequential_all_cases()]
    install_fault_plan(
        FaultPlan.parse("parallel-pool:break@1"), latch_dir=str(tmp_path)
    )
    spec = SessionSpec(_network())
    with VerificationSession(
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


def test_injected_kill_exit_code_is_recognisable():
    def _die():
        install_fault_plan(None)  # child-local: forget the parent's env
        os._exit(KILL_EXIT_CODE)

    child = multiprocessing.Process(target=_die)
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


def test_builder_fault_is_retried_inline(tmp_path):
    reference = _grid().run(jobs=1)
    install_fault_plan(
        FaultPlan.parse("builder:raise@1"), latch_dir=str(tmp_path)
    )
    result = _grid().run(jobs=1)
    assert verdicts(result) == verdicts(reference)
    assert result.retries == 1
    assert result.failures == 0 and result.degraded == 0


def test_scenario_worker_kill_grid_completes_identically(tmp_path):
    reference = _grid().run(jobs=1)
    install_fault_plan(
        FaultPlan.parse("scenario-worker:kill@1"), latch_dir=str(tmp_path)
    )
    result = _grid().run(jobs=2)
    assert verdicts(result) == verdicts(reference)
    assert result.retries >= 1
    assert result.failures == 0


def test_persistent_builder_fault_lands_structured_failures(tmp_path):
    # Unlatched triggers deep enough to outlast the whole ladder: the
    # grid must still complete, with failure placeholders in-slot.
    triggers = ",".join(f"builder:raise@{n}" for n in range(1, 40))
    install_fault_plan(FaultPlan.parse(triggers))
    result = _grid().run(jobs=1)
    install_fault_plan(None)
    assert len(result.scenarios) == 2
    assert result.failures == 2 and result.degraded == 2
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


# ---------------------------------------------------------------------------
# Satellite: scenario-executor cache eviction after a pool break
# ---------------------------------------------------------------------------


def test_discard_scenario_executor_evicts_cached_pool():
    first = scenario_executor(2, "thread")
    assert scenario_executor(2, "thread") is first  # cached
    discard_scenario_executor(2, "thread")
    second = scenario_executor(2, "thread")
    assert second is not first
    # The evicted executor is shut down: it must refuse new work.
    with pytest.raises(RuntimeError):
        first.submit(int)
    discard_scenario_executor(2, "thread")
    discard_scenario_executor(2, "thread")  # idempotent on a cold cache
