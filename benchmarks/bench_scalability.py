"""E7 — scalability: model size and verification time.

The paper reports, for a 6×6 mesh with VCs and queue size 30: 67 seconds,
2844 primitives, 36 automata, 432 queues — and notes that verification
time does not depend on the queue size.

This benchmark regenerates both series at reproduction scale on the
experiment layer: the mesh axis is an :class:`repro.core.Experiment` grid
(one :class:`~repro.core.ScenarioSpec` per topology, single-size sweeps so
per-scenario ``build_seconds``/``query_seconds`` splits come out of the
result), and model-size counters come from the same ``ScenarioSpec``
descriptions the grid runs.  (Python vs the authors' native stack makes
absolute times incomparable; the shape — polynomial growth in mesh size,
flat in queue size — is the reproduction target.)
"""

import os

from conftest import report

from repro.core import Experiment, ScenarioSpec


def _mesh_spec(width: int, height: int, queue_size: int,
               vcs: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        builder="abstract_mi_mesh",
        kwargs={"width": width, "height": height, "vcs": vcs},
        mode="sweep",
        sizes=(queue_size,),
        label=f"{width}x{height} q{queue_size}"
              + (f" {vcs}VC" if vcs > 1 else ""),
    )


def test_model_size_scaling(benchmark):
    def measure():
        rows = []
        meshes = [(2, 2), (2, 3), (3, 3)]
        if os.environ.get("ADVOCAT_BIG"):
            meshes += [(4, 4), (6, 6)]
        for width, height in meshes:
            # The scenario *describes* the build; materialise it here.
            network = ScenarioSpec(
                builder="abstract_mi_mesh",
                kwargs={"width": width, "height": height,
                        "queue_size": 3, "vcs": 2},
            ).build()
            stats = network.stats()
            rows.append(
                f"{width}x{height} (2 VCs): {stats['primitives']} primitives, "
                f"{stats['automata']} automata, {stats['queues']} queues"
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "E7: model sizes (paper 6x6 w/ VCs: 2844 primitives, 36 automata, "
        "432 queues)",
        rows,
    )


def test_verification_time_scaling(benchmark):
    # The paper's headline axis ends at 6x6; the 4x4/6x6 points verify at
    # their free size (ADVOCAT_BIG only — minutes in pure Python; see
    # BENCH_invariants.json).
    specs = [_mesh_spec(w, h, queue_size=3) for w, h in ((2, 2), (2, 3), (3, 3))]
    if os.environ.get("ADVOCAT_BIG"):
        specs.append(_mesh_spec(4, 4, queue_size=15))
        specs.append(_mesh_spec(6, 6, queue_size=35))
    experiment = Experiment("scalability-mesh-axis", specs)

    def measure():
        result = experiment.run(jobs=1)
        return [
            f"{scenario.label}: build {scenario.build_seconds:.2f}s + "
            f"query {scenario.query_seconds:.2f}s -> "
            + (
                "deadlock_free"
                if all(scenario.probes.values())
                else "deadlock_candidate"
            )
            for scenario in result.scenarios
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("E7: verification time vs mesh size", rows)


def test_runtime_independent_of_queue_size(benchmark):
    experiment = Experiment(
        "scalability-queue-axis",
        [_mesh_spec(2, 2, queue_size=size) for size in (3, 10, 30)],
    )

    def measure():
        result = experiment.run(jobs=1)
        rows, times = [], {}
        for size, scenario in zip((3, 10, 30), result.scenarios):
            times[size] = scenario.query_seconds
            verdict = (
                "deadlock_free" if scenario.probes[size]
                else "deadlock_candidate"
            )
            rows.append(f"queue size {size}: {times[size]:.2f}s -> {verdict}")
        return rows, times

    rows, times = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "E7: runtime vs queue size (paper: independent of queue size)",
        rows,
    )
    # flat within generous tolerance (pure-Python noise)
    assert times[30] < 10 * max(times[3], 0.05)
