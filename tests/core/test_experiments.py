"""The experiment orchestration layer must be observationally equal to the
sequential outer loop.

``Experiment.run(jobs=N)`` ships whole ``ScenarioSpec`` builds to workers,
so these tests are end-to-end checks of the chain: registry resolution →
network build → sizing search/sweep → compact result → grid-ordered,
resumable aggregation.  Thread-backend schedulers keep the hypothesis
differentials fast; the spawn-safety tests cross real process boundaries
under the strictest start method.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Experiment,
    ExperimentResult,
    ScenarioResult,
    ScenarioSpec,
    SessionSpec,
    minimal_queue_size,
    register_builder,
    registered_builders,
    resolve_builder,
    run_scenario,
    sweep_queue_sizes,
    verdict_sha,
)
from repro.core.engine import INVARIANT_MODES
from repro.core.parallel import WorkerSession, _initialize_worker, _run_job
from repro.fabrics import MeshTopology
from repro.netlib import running_example


def _running_spec(**overrides) -> ScenarioSpec:
    base = dict(builder="running_example", mode="sweep", sizes=(1, 2))
    base.update(overrides)
    return ScenarioSpec(**base)


def verdicts(result):
    """Each scenario's key, minimum and sorted probes, in grid order."""
    return [[s.key, s.minimal_size, sorted(s.probes.items())] for s in result.scenarios]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_stock_builders_are_registered():
    names = registered_builders()
    for expected in ("abstract_mi_mesh", "mi_mesh", "running_example"):
        assert expected in names


def test_resolve_unknown_builder_names_known_ones():
    with pytest.raises(KeyError, match="running_example"):
        resolve_builder("no-such-builder")


def test_reregistering_a_name_with_a_different_callable_fails():
    marker = lambda **kwargs: None  # noqa: E731
    register_builder("test-only-builder", marker)
    register_builder("test-only-builder", marker)  # same fn: idempotent
    with pytest.raises(ValueError):
        register_builder("test-only-builder", lambda **kwargs: None)


def test_register_builder_rejects_positional_only_signatures():
    """Specs carry kwargs only, so a builder that cannot be called with
    keywords is a latent grid failure — caught at registration."""

    def positional_only(width, /, queue_size=1):
        return None

    def var_positional(*args, queue_size=1):
        return None

    with pytest.raises(TypeError, match="positional-only"):
        register_builder("test-positional-only", positional_only)
    with pytest.raises(TypeError, match=r"\*args"):
        register_builder("test-var-positional", var_positional)


def test_builder_catalog_lists_families_and_params():
    from repro.core.experiments import builder_catalog

    catalog = builder_catalog()
    assert catalog["msi_mesh"]["family"] == "msi"
    assert catalog["abstract_mi_torus"]["family"] == "abstract_mi"
    assert catalog["mi_ring"]["family"] == "mi"
    assert catalog["traffic_torus"]["family"] == "fabric"
    assert catalog["running_example"]["family"] == "netlib"
    assert "queue_size" in catalog["msi_mesh"]["params"]
    # Every protocol family spans all three topologies.
    for family in ("abstract_mi", "mi", "msi"):
        members = [n for n, meta in catalog.items() if meta["family"] == family]
        assert len(members) == 3, (family, members)


def test_register_builder_default_family_is_misc():
    from repro.core.experiments import builder_catalog

    register_builder("test-family-default", lambda **kwargs: None)
    assert builder_catalog()["test-family-default"]["family"] == "misc"


def test_scenario_session_spec_matches_direct_build():
    spec = ScenarioSpec("running_example", {"queue_size": 2}).session_spec()
    direct = SessionSpec(running_example(queue_size=2).network)
    assert spec.initial_sizes == direct.initial_sizes
    assert len(spec.encoding.cases) == len(direct.encoding.cases)


# ---------------------------------------------------------------------------
# ScenarioSpec: canonicalisation, validation, pickling
# ---------------------------------------------------------------------------


def test_scenario_spec_canonicalises_kwargs():
    a = ScenarioSpec(
        "abstract_mi_mesh",
        {"width": 2, "height": 2, "directory_node": [0, 1]},
    )
    b = ScenarioSpec(
        "abstract_mi_mesh",
        (("height", 2), ("directory_node", (0, 1)), ("width", 2)),
    )
    assert a == b
    assert a.key() == b.key()
    assert hash(a) == hash(b)


def test_scenario_spec_key_excludes_scheduling_hints():
    plain = _running_spec()
    hinted = _running_spec(query_jobs=4, label="pretty name")
    assert plain.key() == hinted.key()


def test_scenario_spec_key_includes_the_invariant_mode():
    assert _running_spec(invariants="none").key() != _running_spec().key()
    assert _running_spec().key() == _running_spec(invariants="eager").key()


@pytest.mark.parametrize("retired", ["lazy", "partial"])
def test_retired_invariant_modes_name_eager_as_replacement(retired):
    assert INVARIANT_MODES == ("eager", "none")
    with pytest.raises(ValueError, match="'eager'"):
        _running_spec(invariants=retired)
    with pytest.raises(ValueError, match="'eager'"):
        sweep_queue_sizes(
            lambda size: running_example(queue_size=size).network,
            (1,),
            invariants=retired,
        )


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("running_example", mode="nope")
    with pytest.raises(ValueError):
        ScenarioSpec("running_example", mode="sweep", sizes=())
    with pytest.raises(ValueError):
        ScenarioSpec("running_example", invariants="sometimes")
    with pytest.raises(TypeError):
        ScenarioSpec("running_example", {"fn": print})
    # Mapping values cannot round-trip back to the builder unambiguously.
    with pytest.raises(TypeError, match="mapping"):
        ScenarioSpec("running_example", {"assignment": {"req": 0}})


def test_run_rejects_unresolvable_builders_before_spawning_workers():
    grid = Experiment("bad", [ScenarioSpec("definitely-not-registered")])
    with pytest.raises(KeyError, match="definitely-not-registered"):
        grid.run(jobs=2, backend="thread")


def test_late_registered_builder_reaches_cached_process_pool():
    # A fork-started scenario pool created *before* a registration must
    # be retired (registry-generation epoch), or its workers would
    # resolve from a stale registry snapshot.
    from multiprocessing import get_all_start_methods

    if "fork" not in get_all_start_methods():
        pytest.skip("inherit-the-registry semantics need the fork method")
    # Materialise a pool on the stock registry first ...
    Experiment(
        "warmup", [_running_spec(), _running_spec(sizes=(2,))]
    ).run(jobs=2, backend="process")
    # ... then grow the registry and reuse the same (backend, jobs) slot.
    register_builder(
        "late-registered-example",
        lambda queue_size: running_example(queue_size=queue_size).network,
    )
    grid = Experiment(
        "late",
        [
            ScenarioSpec("late-registered-example", mode="sweep", sizes=(1, 2)),
            ScenarioSpec("late-registered-example", mode="sweep", sizes=(2, 3)),
        ],
    )
    pooled = grid.run(jobs=2, backend="process")
    inline = grid.run(jobs=1)
    assert verdicts(pooled) == verdicts(inline)


def test_scenario_spec_pickle_round_trip():
    spec = ScenarioSpec(
        "abstract_mi_mesh",
        {"width": 2, "height": 2, "directory_node": (1, 1)},
        mode="sweep",
        sizes=(1, 2, 3),
        invariants="none",
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.key() == spec.key()


def test_scenario_spec_builds_and_unwraps_instances():
    network = _running_spec().build(2)
    assert {q.name for q in network.queues()} == {"q0", "q1"}
    assert all(q.size == 2 for q in network.queues())


# ---------------------------------------------------------------------------
# Spawn-method safety: specs and session snapshots must survive the
# strictest start method (no inherited module state, pure pickling).
# ---------------------------------------------------------------------------


def test_scenario_spec_round_trips_under_spawn():
    spec = _running_spec()
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("spawn")
    ) as executor:
        remote = executor.submit(run_scenario, spec).result(timeout=180)
    local = run_scenario(spec)
    assert remote.probes == local.probes
    assert remote.minimal_size == local.minimal_size
    assert remote.key == local.key


def test_session_snapshot_round_trips_under_spawn():
    spec = SessionSpec(running_example(queue_size=2).network)
    snapshot = spec.snapshot()
    assert pickle.loads(pickle.dumps(snapshot)).any_guard_name == (
        snapshot.any_guard_name
    )
    sizes = tuple(sorted(spec.initial_sizes.items()))
    job = ("check", None, sizes, False)
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


# ---------------------------------------------------------------------------
# Scheduler: jobs=1 ≡ jobs=N, deterministic ordering, resume
# ---------------------------------------------------------------------------


def _small_grid() -> Experiment:
    return Experiment(
        "grid",
        [
            _running_spec(sizes=(1, 2)),
            _running_spec(sizes=(1, 2, 3)),
            _running_spec(mode="search", sizes=()),
        ],
    )


def test_grid_expansion_is_deterministic_and_rejects_duplicates():
    grid = Experiment.grid(
        "g",
        "abstract_mi_mesh",
        axes={"vcs": [1, 2], "directory_node": [(0, 0), (1, 1)]},
        base={"width": 2, "height": 2},
    )
    labels = [spec.key() for spec in grid.scenarios]
    assert len(labels) == 4
    # itertools.product order: the first axis varies slowest.
    assert [dict(s.kwargs)["vcs"] for s in grid.scenarios] == [1, 1, 2, 2]
    again = Experiment.grid(
        "g",
        "abstract_mi_mesh",
        axes={"vcs": [1, 2], "directory_node": [(0, 0), (1, 1)]},
        base={"width": 2, "height": 2},
    )
    assert [s.key() for s in again.scenarios] == labels
    with pytest.raises(ValueError):
        Experiment("dup", [_running_spec(), _running_spec()])


def test_run_jobs1_matches_jobs2_thread_backend():
    grid = _small_grid()
    sequential = grid.run(jobs=1)
    threaded = grid.run(jobs=2, backend="thread")
    assert verdicts(sequential) == verdicts(threaded)
    assert [s.key for s in threaded.scenarios] == [
        spec.key() for spec in grid.scenarios
    ]


def test_run_process_backend_matches_inline():
    grid = Experiment("p", [_running_spec(), _running_spec(sizes=(2, 3))])
    inline = grid.run(jobs=1)
    pooled = grid.run(jobs=2, backend="process")
    assert verdicts(inline) == verdicts(pooled)


# Two search grids pinned end to end: (scenarios, minima, verdict sha).
PINNED_GRIDS = {
    # Figure 4's directory positions on the 2x2 and 2x3 meshes.
    "directory-positions": (
        [
            ScenarioSpec(
                "abstract_mi_mesh",
                kwargs={"width": w, "height": h, "directory_node": position},
                mode="search",
            )
            for w, h in ((2, 2), (2, 3))
            for position in MeshTopology(w, h).probe_positions()
        ],
        [3, 5, 5],
        "b1bd6f82a74ec3fa",
    ),
    # Both protocol families on each fabric shape.
    "fabric-x-protocol": (
        [
            ScenarioSpec(f"{family}_{fabric}", kwargs=kwargs, mode="search", max_size=8)
            for family in ("abstract_mi", "msi")
            for fabric, kwargs in (
                ("mesh", {"width": 2, "height": 2}),
                ("torus", {"width": 2, "height": 2}),
                ("ring", {"n_nodes": 4}),
            )
        ],
        [3, 3, 3, 4, 4, 4],
        "1bc235a8be78daa1",
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", PINNED_GRIDS)
def test_pinned_grid_answers_alike_inline_sharded_and_resumed(name, tmp_path):
    scenarios, minima, sha = PINNED_GRIDS[name]
    grid = Experiment(name, scenarios)
    sequential = grid.run(jobs=1)
    sharded = grid.run(jobs=2)
    assert [s.minimal_size for s in sequential.scenarios] == minima
    assert verdict_sha(verdicts(sequential)) == sha
    assert verdicts(sharded) == verdicts(sequential)
    sharded.save(tmp_path / "done.json")
    resumed = grid.run(jobs=2, resume=tmp_path / "done.json")
    assert (resumed.computed, resumed.reused) == (0, len(scenarios))
    assert verdicts(resumed) == verdicts(sequential)


def test_resume_skips_completed_scenarios(tmp_path):
    grid = _small_grid()
    checkpoint = tmp_path / "partial.json"
    # First run only a sub-grid and checkpoint it.
    partial = Experiment("grid", grid.scenarios[:2]).run(
        jobs=1, save_path=checkpoint
    )
    assert partial.computed == 2
    resumed = grid.run(jobs=1, resume=checkpoint)
    assert resumed.computed == 1  # only the missing scenario was built
    assert resumed.reused == 2
    full = grid.run(jobs=1)
    assert verdicts(resumed) == verdicts(full)
    # A fully answered checkpoint re-builds nothing.
    resumed.save(checkpoint)
    cold = grid.run(jobs=2, backend="thread", resume=checkpoint)
    assert cold.computed == 0
    assert cold.reused == 3
    assert verdicts(cold) == verdicts(full)


# Written by the last build that had the lazy and partial invariant
# modes: one eager, one lazy and one partial running_example sweep, each
# carrying the retired escalation fields.
RETIRED_MODES_CHECKPOINT = (
    Path(__file__).resolve().parent / "data" / "checkpoint_with_retired_modes.json"
)


def test_checkpoint_with_retired_modes_loads_and_resumes_eager_only():
    loaded = ExperimentResult.load(RETIRED_MODES_CHECKPOINT)
    assert [s.invariants_mode for s in loaded.scenarios] == [
        "eager", "lazy", "partial",
    ]
    assert all(s.probes == {1: True, 2: True} for s in loaded.scenarios)
    for retired in (
        "lazy_escalations", "rank_histogram", "rank_budget",
        "strategy_wins", "portfolio_races",
    ):
        assert all(retired not in s.to_json() for s in loaded.scenarios)
    grid = Experiment("resumed", [_running_spec(), _running_spec(invariants="none")])
    resumed = grid.run(jobs=1, resume=RETIRED_MODES_CHECKPOINT)
    assert resumed.reused == 1  # the eager result; lazy/partial keys never match
    assert resumed.computed == 1
    assert resumed.scenarios[0] == loaded.scenarios[0]
    assert [s.invariants_mode for s in resumed.scenarios] == ["eager", "none"]


def test_resume_from_missing_checkpoint_starts_fresh(tmp_path):
    # The documented `--save X --resume X` idiom: a first run that died
    # before its first checkpoint leaves no file, which must mean "empty
    # resume set", not a crash.
    checkpoint = tmp_path / "never-written.json"
    grid = Experiment("fresh", [_running_spec()])
    result = grid.run(jobs=1, resume=checkpoint, save_path=checkpoint)
    assert result.computed == 1
    assert result.reused == 0
    assert checkpoint.exists()


def test_save_path_checkpoints_every_completion(tmp_path):
    checkpoint = tmp_path / "run.json"
    seen = []

    def watch(result: ScenarioResult) -> None:
        seen.append(result.key)
        loaded = ExperimentResult.load(checkpoint)
        assert result.key in {s.key for s in loaded.scenarios}

    grid = Experiment("ckpt", [_running_spec(), _running_spec(sizes=(2,))])
    result = grid.run(jobs=1, save_path=checkpoint, progress=watch)
    assert len(seen) == 2
    assert verdicts(ExperimentResult.load(checkpoint)) == verdicts(result)


def test_experiment_result_json_round_trip():
    result = _small_grid().run(jobs=1)
    clone = ExperimentResult.from_json(result.to_json())
    assert verdicts(clone) == verdicts(result)
    assert [s.probes for s in clone.scenarios] == [
        s.probes for s in result.scenarios
    ]
    assert isinstance(clone.scenarios[0].probes, dict)
    assert all(
        isinstance(size, int) for size in clone.scenarios[0].probes
    )


def test_env_caps_default_scenario_jobs(monkeypatch):
    monkeypatch.setenv("ADVOCAT_JOBS", "1")
    grid = Experiment("env", [_running_spec(), _running_spec(sizes=(2,))])
    result = grid.run(backend="thread")  # jobs=None → env budget of 1
    assert result.computed == 2


def test_query_jobs_do_not_change_verdicts():
    grid = Experiment("nested", [_running_spec(), _running_spec(sizes=(2,))])
    explicit = grid.run(jobs=2, query_jobs=1, backend="thread")
    nested = grid.run(jobs=2, query_jobs=2, backend="thread")
    # Each scenario's sweep runs on its own query workers; verdicts must
    # not depend on the inner count.
    assert verdicts(nested) == verdicts(explicit)
    with pytest.raises(ValueError):
        grid.run(jobs=1, query_jobs=0)


# ---------------------------------------------------------------------------
# Timing split and the invariant-mode accounting
# ---------------------------------------------------------------------------


def test_sizing_reports_build_query_split():
    sizing = minimal_queue_size(
        lambda size: running_example(queue_size=size).network
    )
    assert sizing.build_seconds > 0
    assert sizing.query_seconds > 0
    assert sizing.invariants_mode == "eager"
    assert sizing.invariants_used


def test_sizing_accounting_is_pinned():
    # The search climbs one size at a time and stops at the first free
    # size, a prefix of the sequential sweep's walk on one session;
    # eager encodes the full set of 13 rows once, up front.
    def build(size):
        return resolve_builder("abstract_mi_mesh")(
            width=2, height=2, queue_size=size
        ).network

    def accounting(sizing):
        return [
            sorted(sizing.probes.items()),
            sizing.minimal_size,
            sizing.invariants_used,
            sizing.invariants_generated,
        ]

    verified = [(1, False), (2, False), (3, True), (4, True)]
    assert accounting(sweep_queue_sizes(build, range(1, 5))) == [
        verified, 3, True, 13
    ]
    assert accounting(minimal_queue_size(build, max_size=8)) == [
        verified[:3], 3, True, 13
    ]
    plain = sweep_queue_sizes(build, range(1, 5), invariants="none")
    assert accounting(plain) == [
        [(size, False) for size in range(1, 5)], None, False, 0
    ]
    # Block/idle alone never proves the 2x2 mesh: the search cannot end.
    with pytest.raises(RuntimeError, match="size-independent"):
        minimal_queue_size(build, max_size=8, invariants="none")


def test_none_mode_reports_plain_block_idle():
    sizing = sweep_queue_sizes(
        lambda size: running_example(queue_size=size).network,
        range(1, 3),
        invariants="none",
    )
    assert sizing.minimal_size is None  # block/idle alone: candidates
    assert not sizing.invariants_used


# ---------------------------------------------------------------------------
# The deleted strategy portfolio
# ---------------------------------------------------------------------------


def test_run_scenario_accepts_only_a_false_portfolio_flag():
    # perfbench's fig4-search passes portfolio=False; it must still get
    # the sequential eager minimum.  Asking for the deleted portfolio fails.
    spec = ScenarioSpec(builder="running_example", max_size=8)
    eager = minimal_queue_size(spec.build_callable(), max_size=8)
    result = run_scenario(spec, query_jobs=1, portfolio=False)
    assert result.minimal_size == eager.minimal_size
    assert result.probes == eager.probes
    with pytest.raises(ValueError, match="portfolio was deleted"):
        run_scenario(spec, query_jobs=1, portfolio=True)


# ---------------------------------------------------------------------------
# Randomized differential: jobs=1 ≡ jobs=4 verdict-for-verdict
# ---------------------------------------------------------------------------

grids = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
    unique=True,
)


@given(
    size_sets=grids,
    invariants=st.sampled_from(["eager", "none"]),
)
@settings(max_examples=10, deadline=None)
def test_sharded_grid_equals_sequential_grid(size_sets, invariants):
    grid = Experiment(
        "diff",
        [
            ScenarioSpec(
                "running_example",
                mode="sweep",
                sizes=tuple(sorted(sizes)),
                invariants=invariants,
            )
            for sizes in size_sets
        ],
    )
    sequential = grid.run(jobs=1)
    sharded = grid.run(jobs=4, backend="thread")
    assert verdicts(sequential) == verdicts(sharded)
    assert sequential.computed == len(size_sets)
    assert sharded.computed == len(size_sets)
