"""E10 — cross-network sharding: experiment grids vs the sequential outer loop.

The paper's Figure-4 experiment iterates *whole networks* (mesh sizes ×
directory positions); PR 2/3 parallelised queries within one network, this
benchmark measures sharding the outer loop itself
(:class:`repro.core.Experiment`): every grid point ships as a picklable
``ScenarioSpec`` to a scenario worker, which builds its own encoding and
runs its minimal-queue-size search locally.

Two records, one acceptance gate each:

* **grid sharding** — the 2×2 / 2×3 / 3×3 directory-position grid answered
  by the inline ``jobs=1`` scheduler (the sequential outer loop) and by
  ``jobs=4`` scenario workers.  Verdicts must be byte-identical
  (``ExperimentResult.verdict_bytes``) on every machine; the ≥1.5×
  wall-clock gate only fires with ≥4 CPUs (as in ``bench_parallel.py`` —
  a 1-core container cannot show a wall win and pretending otherwise
  would make the benchmark flaky instead of informative).
* **resume** — the sharded result is checkpointed to JSON and the grid is
  re-run against it: zero scenarios may be rebuilt.

Results land in ``BENCH_experiments.json`` at the repository root.  Run
standalone (``python benchmarks/bench_experiments.py [--jobs 4] [--smoke]``).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from conftest import report

from repro.core import (
    Experiment,
    ScenarioSpec,
    sha_bytes,
    shutdown_scenario_executors,
)
from repro.fabrics import MeshTopology

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_experiments.json"

GRID_SPEEDUP_TARGET = 1.5  # acceptance: >= 1.5x with 4 workers on >= 4 cores


def build_grid(smoke: bool) -> Experiment:
    """Mesh sizes × directory positions, one search scenario per point."""
    meshes = [(2, 2), (2, 3)] if smoke else [(2, 2), (2, 3), (3, 3)]
    scenarios = []
    for width, height in meshes:
        for position in MeshTopology(width, height).probe_positions():
            scenarios.append(
                ScenarioSpec(
                    builder="abstract_mi_mesh",
                    kwargs={
                        "width": width,
                        "height": height,
                        "directory_node": position,
                    },
                    mode="search",
                    label=f"{width}x{height} dir {position}",
                )
            )
    return Experiment("fig4-grid" + ("-smoke" if smoke else ""), scenarios)


def bench_grid_sharding(jobs: int, smoke: bool) -> tuple[dict, "ExperimentResult"]:
    experiment = build_grid(smoke)

    start = time.perf_counter()
    sequential = experiment.run(jobs=1)
    seq_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = experiment.run(jobs=jobs)
    par_s = time.perf_counter() - start

    seq_bytes, par_bytes = sequential.verdict_bytes(), sharded.verdict_bytes()
    assert seq_bytes == par_bytes, "sharded grid verdicts diverged"
    return {
        "scenarios": len(experiment),
        "grid": [s.label for s in sequential.scenarios],
        "minimal_sizes": [s.minimal_size for s in sequential.scenarios],
        "jobs": jobs,
        "sequential_s": round(seq_s, 3),
        "sharded_s": round(par_s, 3),
        "speedup": round(seq_s / par_s, 2),
        "verdicts_byte_identical": True,
        "verdict_sha": sha_bytes(seq_bytes),
    }, sharded


def bench_resume(jobs: int, smoke: bool, prior) -> dict:
    experiment = build_grid(smoke)
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False
    ) as handle:
        checkpoint = handle.name
    try:
        prior.save(checkpoint)
        start = time.perf_counter()
        resumed = experiment.run(jobs=jobs, resume=checkpoint)
        resumed_s = time.perf_counter() - start
        assert resumed.computed == 0, (
            f"resume rebuilt {resumed.computed} completed scenarios"
        )
        assert resumed.reused == len(experiment)
        assert resumed.verdict_bytes() == prior.verdict_bytes()
    finally:
        os.unlink(checkpoint)
    return {
        "scenarios": len(experiment),
        "rebuilt": resumed.computed,
        "reused": resumed.reused,
        "resumed_s": round(resumed_s, 3),
    }


def run_benchmarks(jobs: int = 4, smoke: bool = False) -> dict:
    cpus = os.cpu_count() or 1
    grid, sharded = bench_grid_sharding(jobs, smoke)
    results = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": cpus,
        "smoke": smoke,
        "speedup_asserted": cpus >= 4 and jobs >= 4,
        "grid_sharding": grid,
        "resume": bench_resume(jobs, smoke, sharded),
    }
    shutdown_scenario_executors()
    return results


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    grid = results["grid_sharding"]
    rows = [
        f"grid ({grid['scenarios']} scenarios): sequential "
        f"{grid['sequential_s']}s vs sharded {grid['sharded_s']}s "
        f"({grid['speedup']}x, jobs={grid['jobs']})",
        f"resume: {results['resume']['rebuilt']} rebuilt / "
        f"{results['resume']['reused']} reused in "
        f"{results['resume']['resumed_s']}s",
        f"cpus={results['cpu_count']}, "
        f"speedup asserted: {results['speedup_asserted']}",
    ]
    report(
        "E10: experiment grid sharding vs sequential outer loop "
        "(BENCH_experiments.json)",
        rows,
    )


def check_acceptance(results: dict) -> None:
    """Verdict identity and zero-rebuild resume always; wall-clock targets
    only where achievable (as in ``bench_parallel.py``)."""
    grid = results["grid_sharding"]
    assert grid["verdicts_byte_identical"]
    assert results["resume"]["rebuilt"] == 0
    if results["speedup_asserted"]:
        assert grid["speedup"] >= GRID_SPEEDUP_TARGET, (
            f"grid sharding speedup {grid['speedup']}x with "
            f"{grid['jobs']} workers is below the "
            f"{GRID_SPEEDUP_TARGET}x acceptance target"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="scenario worker count (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="small grid (2x2 + 2x3) for CI containers")
    args = parser.parse_args()
    results = run_benchmarks(jobs=args.jobs, smoke=args.smoke)
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
