"""PortfolioSession must be observationally equal to a sequential eager
session — whichever strategy wins the race.

The portfolio races diverse search configurations from one shared cold
eager snapshot, exchanging glue-capped learned clauses between slices.  The
contracts under test: verdict byte-identity with racing/sharing on or
off, exports filtered to the shared base numbering (and imports across
diverged numberings rejected loudly), the jobs-budget routing that keeps
portfolio(N) × scenario workers inside the machine budget, and warm
reuse across resizes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PortfolioSession,
    SessionSpec,
    StrategyConfig,
    VerificationSession,
    default_strategies,
    nested_jobs,
    racer_budget,
)
from repro.core.parallel import WorkerSession
from repro.core.portfolio import Racer
from repro.netlib import running_example
from repro.protocols import abstract_mi_mesh


def _network(queue_size=2):
    return running_example(queue_size=queue_size).network


def _eager_reference(queue_size=2):
    session = VerificationSession(_network(queue_size))
    session.add_invariants()
    return session.verify()


# ---------------------------------------------------------------------------
# Satellite: jobs-budget accounting
# ---------------------------------------------------------------------------


def test_racer_budget_env_and_precedence(monkeypatch):
    monkeypatch.setenv("ADVOCAT_JOBS", "2")
    assert racer_budget(6) == 2  # env caps the default
    assert racer_budget(6, jobs=4) == 4  # explicit jobs beats the env
    assert racer_budget(1, jobs=8) == 1  # never more racers than strategies
    with pytest.raises(ValueError):
        racer_budget(0)
    with pytest.raises(ValueError):
        racer_budget(3, jobs=0)


def test_portfolio_nested_under_scenario_workers_stays_in_budget(monkeypatch):
    # The oversubscription guard: N scenario workers × their nested-jobs
    # share, each spent on racers, must not exceed the machine budget.
    monkeypatch.setenv("ADVOCAT_JOBS", "4")
    outer = 2
    inner = nested_jobs(outer)
    racers = racer_budget(len(default_strategies()), inner)
    assert outer * racers <= 4
    assert racers == 2


def test_budget_of_one_trims_the_roster_and_goes_inline():
    with PortfolioSession(network=_network(), jobs=1) as session:
        assert session.backend == "inline"
        assert len(session.strategies) == 1
        assert session.strategies[0].name == "eager"


def test_force_race_keeps_the_whole_roster():
    with PortfolioSession(
        network=_network(), jobs=1, force_race=True
    ) as session:
        assert len(session.strategies) == len(default_strategies())
        assert session.backend == "inline"  # budget 1 still serialises


# ---------------------------------------------------------------------------
# Roster and validation
# ---------------------------------------------------------------------------


def test_portfolio_strengthens_the_spec_it_is_given():
    spec = SessionSpec(_network())
    with PortfolioSession(spec=spec, jobs=1) as session:
        assert session.invariants_generated == len(spec.invariants)
        assert session.verify().verdict == _eager_reference().verdict
    # A spec that is already strengthened is taken as it is.
    with PortfolioSession(spec=spec, jobs=1) as session:
        assert session.invariants_generated == len(spec.invariants)


def test_portfolio_leaves_the_eager_content_hash_unchanged():
    # The service keys its verdict store on this hash: a spec a
    # portfolio raced on must hash like a fresh eager spec.
    def eager_hash(spec):
        spec.generate_invariants()
        return spec.snapshot().content_hash()

    fresh = SessionSpec(abstract_mi_mesh(2, 2, queue_size=3).network)
    raced = SessionSpec(abstract_mi_mesh(2, 2, queue_size=3).network)
    with PortfolioSession(spec=raced, jobs=1) as session:
        assert session.invariants_generated > 0
    assert eager_hash(raced) == eager_hash(fresh)


def test_lead_reorders_and_unknown_lead_is_ignored():
    roster = default_strategies(lead="eager-hoard")
    assert roster[0].name == "eager-hoard"
    assert {s.name for s in roster} == {
        s.name for s in default_strategies()
    }
    assert default_strategies(lead="no-such") == default_strategies()
    with PortfolioSession(
        network=_network(), jobs=2, lead="eager-jitter"
    ) as session:
        assert session.strategies[0].name == "eager-jitter"


def test_duplicate_strategy_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PortfolioSession(
            network=_network(),
            strategies=[
                StrategyConfig("same"),
                StrategyConfig("same", phase_seed=7),
            ],
        )


# ---------------------------------------------------------------------------
# Verdict identity: racing must not change answers
# ---------------------------------------------------------------------------


def test_inline_portfolio_matches_sequential_eager_across_resizes():
    expected = {size: _eager_reference(size) for size in (2, 3)}
    with PortfolioSession(
        network=_network(),
        backend="inline",
        jobs=4,
        slice_conflicts=20,  # force multi-round races with exchanges
    ) as session:
        for size in (2, 3):
            session.resize_queues(size)
            got = session.race()
            assert got.verdict == expected[size].verdict, size
            assert (got.witness is None) == (expected[size].witness is None)
            if got.witness is not None:
                assert set(got.witness.queue_contents) == set(
                    expected[size].witness.queue_contents
                )
            portfolio = got.stats["portfolio"]
            assert portfolio["winner"] in session.strategy_wins
            assert portfolio["backend"] == "inline"
        assert session.races == 2
        assert sum(session.strategy_wins.values()) == 2


@pytest.mark.parametrize("name", [s.name for s in default_strategies()])
def test_single_strategy_inline_roster_matches_eager(name):
    # One racer per roster, so every race is decided by that strategy;
    # small slices make each answer straddle slice boundaries.
    (strategy,) = [s for s in default_strategies() if s.name == name]
    with PortfolioSession(
        network=_network(1),
        strategies=[strategy],
        backend="inline",
        force_race=True,
        slice_conflicts=20,
    ) as session:
        for size in (1, 2, 3):
            session.resize_queues(size)
            got = session.race()
            reference = _eager_reference(size)
            assert got.verdict == reference.verdict, (name, size)
            assert (got.witness is None) == (reference.witness is None)
            assert got.stats["portfolio"]["winner"] == name
        assert session.strategy_wins == {name: 3}


def test_process_backend_matches_inline_and_cancels_losers():
    with PortfolioSession(
        network=_network(),
        backend="process",
        jobs=3,
        slice_conflicts=30,
    ) as session:
        first = session.race()
        second = session.race()  # children stay warm across races
        racers = first.stats["portfolio"]["racers"]
    reference = _eager_reference(2)
    assert first.verdict == reference.verdict
    assert second.verdict == reference.verdict
    # Every loser was cancelled cooperatively or simply never re-sliced;
    # cancellation is observable as the cancelled counter on some racer
    # whenever a slice was aborted mid-flight.
    assert len(racers) == 3
    assert all("strategy" in summary for summary in racers)


@given(
    queue_size=st.integers(min_value=1, max_value=3),
    slice_conflicts=st.sampled_from([10, 50, 3000]),
    share=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_sharing_on_off_verdict_identity(queue_size, slice_conflicts, share):
    # Satellite: clause exchange must never flip a verdict — racing with
    # sharing enabled, disabled, or any slice schedule is byte-identical
    # to the sequential eager answer.
    reference = _eager_reference(queue_size)
    with PortfolioSession(
        network=_network(queue_size),
        backend="inline",
        jobs=4,
        slice_conflicts=slice_conflicts,
        share_clauses=share,
    ) as session:
        got = session.race()
    assert got.verdict == reference.verdict
    assert (got.witness is None) == (reference.witness is None)


# ---------------------------------------------------------------------------
# Clause exchange: base-numbering filter and diverged-import rejection
# ---------------------------------------------------------------------------


def _base_snapshot():
    spec = SessionSpec(_network())
    spec.generate_invariants()
    return spec.snapshot()


def test_exports_are_filtered_to_the_base_numbering():
    snapshot = _base_snapshot()
    racer = Racer(snapshot, StrategyConfig("eager"))
    # The default-size capacity pins are minted above the base image;
    # burn a few slices so there is learnt state worth exporting.
    for _ in range(5):
        final, _ = racer.slice(None, None, False, 10)
        if final:
            break
    exports = racer.export_clauses(cap=10_000, max_lbd=10_000)
    assert all(
        abs(lit) <= racer.base_n_vars
        for _, lits in exports
        for lit in lits
    )
    # Re-export returns nothing new (the dedup side of the contract).
    assert racer.export_clauses(cap=10_000, max_lbd=10_000) == ()


def test_import_rejects_clauses_over_a_diverged_numbering():
    # Satellite: a restored peer must refuse clauses referencing variables
    # it never minted — silent acceptance would be unsound.
    peer = WorkerSession(_base_snapshot())
    peer.solver.check(conflict_limit=0)  # settle the CNF image (sync)
    beyond = peer.solver._sat.n_vars + 7
    with pytest.raises(ValueError, match="never minted"):
        peer.solver.import_learned([(2, (beyond, -1))])


def test_imported_clauses_round_trip_between_restored_peers():
    snapshot = _base_snapshot()
    exporter = Racer(snapshot, StrategyConfig("eager"))
    importer = Racer(snapshot, StrategyConfig("eager-jitter", phase_seed=7))
    for _ in range(5):
        final, _ = exporter.slice(None, None, False, 10)
        if final:
            break
    exports = exporter.export_clauses(cap=64, max_lbd=4)
    before = importer.worker.solver._sat.stats["imported_rounds"]
    importer.import_clauses(exports)
    if exports:
        assert (
            importer.worker.solver._sat.stats["imported_rounds"] == before + 1
        )
        # Imported clauses never ping-pong back out of the importer.
        keys = {frozenset(lits) for _, lits in exports}
        echoed = {
            frozenset(lits)
            for _, lits in importer.export_clauses(cap=10_000, max_lbd=10_000)
        }
        assert not (keys & echoed)
