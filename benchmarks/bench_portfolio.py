"""E13 — clause-sharing strategy portfolio vs sequential eager.

Standalone benchmark behind ``BENCH_portfolio.json``: every mesh of the
E11 grid is swept once sequentially in eager mode and once through a
racing :class:`~repro.core.portfolio.PortfolioSession` (full roster,
``force_race``), recording

* **verdict byte-identity** — the portfolio's probe map must hash
  identically to the sequential sweep's (fatal anywhere, any CPU count);
* the **wall-clock race** — portfolio vs the sequential sweep.  The
  speedup column and its acceptance assert (portfolio <= best single
  + tolerance) only arm on >= 4 CPUs: below that the racers share one
  core and the race is round-robined, so the ratio measures scheduling
  overhead, not the portfolio;
* the **exchange/cancellation record** — per-strategy wins, imported
  rounds, and cancelled-slice counts across the sweep.

Run standalone:  ``python benchmarks/bench_portfolio.py [--smoke]``
(``--smoke`` keeps it to the 2×2/3×3 meshes for CI containers; the full
run adds 4×4 and the 6×6 free-size probe).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from conftest import report

from repro.core import PortfolioSession, sweep_queue_sizes, verdict_sha
from repro.protocols import abstract_mi_mesh

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"

SINGLE_MODES = ("eager",)
# Portfolio-vs-best acceptance slack: geometric slicing and the merge
# layer cost a little; the race may not lose more than this.
SPEED_TOLERANCE = 0.25
SPEED_SLACK_S = 0.5
SPEEDUP_CPU_GATE = 4  # mirrors benchmarks/check_bench.py


def _mesh_cases(smoke: bool) -> list[dict]:
    """The E11 grid (see bench_invariants): mesh → probed sizes."""
    cases = [
        {"mesh": (2, 2), "sizes": (2, 3)},
        {"mesh": (3, 3), "sizes": (7, 8)},
    ]
    if not smoke:
        cases.append({"mesh": (4, 4), "sizes": (14, 15)})
        cases.append({"mesh": (6, 6), "sizes": (35,)})
    return cases


def _verdict_sha(probes: dict[int, bool]) -> str:
    return verdict_sha(sorted(probes.items()))


def _run_single(build, sizes, mode: str) -> dict:
    start = time.perf_counter()
    sizing = sweep_queue_sizes(
        build, sizes, jobs=1, invariants=mode, want_witness=False
    )
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "probes": {
            str(size): free for size, free in sorted(sizing.probes.items())
        },
        "verdict_sha": _verdict_sha(sizing.probes),
    }


def _run_portfolio(build, sizes, slice_conflicts: int) -> dict:
    start = time.perf_counter()
    probes: dict[int, bool] = {}
    cancelled = 0
    imported_rounds = 0
    with PortfolioSession(
        network=build(sizes[0]),
        force_race=True,
        jobs=os.cpu_count(),
        slice_conflicts=slice_conflicts,
    ) as session:
        for size in sizes:
            session.resize_queues(size)
            result = session.race(want_witness=False)
            probes[size] = result.deadlock_free
            for racer in result.stats["portfolio"]["racers"]:
                cancelled += racer.get("cancelled", 0)
                imported_rounds += racer.get("imported_rounds", 0)
        wins = dict(session.strategy_wins)
        races = session.races
        backend = session.backend
        racers = len(session.strategies)
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "probes": {str(size): free for size, free in sorted(probes.items())},
        "verdict_sha": _verdict_sha(probes),
        "backend": backend,
        "racers": racers,
        "races": races,
        "strategy_wins": wins,
        "cancelled_slices": cancelled,
        "imported_rounds": imported_rounds,
    }


def run_benchmarks(smoke: bool = False, slice_conflicts: int = 3000) -> dict:
    cpus = os.cpu_count() or 1
    meshes = []
    for case in _mesh_cases(smoke):
        width, height = case["mesh"]
        sizes = case["sizes"]

        def build(size, width=width, height=height):
            return abstract_mi_mesh(width, height, queue_size=size).network

        singles = {
            mode: _run_single(build, sizes, mode) for mode in SINGLE_MODES
        }
        portfolio = _run_portfolio(build, sizes, slice_conflicts)
        shas = {entry["verdict_sha"] for entry in singles.values()}
        shas.add(portfolio["verdict_sha"])
        assert len(shas) == 1, (
            f"{width}x{height}: portfolio verdicts diverged from the "
            f"single modes ({shas})"
        )
        best_mode = min(singles, key=lambda mode: singles[mode]["wall_s"])
        best_wall = singles[best_mode]["wall_s"]
        entry = {
            "mesh": f"{width}x{height}",
            "sizes": list(sizes),
            "verdict_sha": portfolio["verdict_sha"],
            "single_modes": singles,
            "best_single": {"mode": best_mode, "wall_s": best_wall},
            "portfolio": portfolio,
        }
        if cpus >= SPEEDUP_CPU_GATE:
            # Only meaningful when the racers genuinely run in parallel;
            # committed 1-CPU baselines deliberately omit the field so
            # check_bench never compares across that line.
            entry["portfolio_speedup"] = round(
                best_wall / max(portfolio["wall_s"], 1e-9), 2
            )
        meshes.append(entry)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": cpus,
        "smoke": smoke,
        "slice_conflicts": slice_conflicts,
        "verdicts_byte_identical": True,
        "meshes": meshes,
    }


def check_acceptance(results: dict) -> None:
    """Machine-independent gates, plus the >= 4-CPU wall-clock race.

    Re-asserted on the loaded record so an edited producing run still
    fails loudly: the portfolio's verdict sha must match every single
    mode's on every mesh, every race must have a winner, and — when the
    producing machine could actually parallelise — the portfolio may not
    lose to the best single mode by more than the tolerance.
    """
    assert results["verdicts_byte_identical"]
    for mesh in results["meshes"]:
        singles = mesh["single_modes"]
        portfolio = mesh["portfolio"]
        shas = {entry["verdict_sha"] for entry in singles.values()}
        shas.add(portfolio["verdict_sha"])
        assert len(shas) == 1, mesh["mesh"]
        assert portfolio["races"] == len(mesh["sizes"]), mesh["mesh"]
        assert (
            sum(portfolio["strategy_wins"].values()) == portfolio["races"]
        ), mesh["mesh"]
        if results["cpu_count"] >= SPEEDUP_CPU_GATE:
            best = mesh["best_single"]["wall_s"]
            ceiling = best * (1.0 + SPEED_TOLERANCE) + SPEED_SLACK_S
            assert portfolio["wall_s"] <= ceiling, (
                f"{mesh['mesh']}: portfolio {portfolio['wall_s']}s lost to "
                f"best single mode {mesh['best_single']['mode']} "
                f"({best}s, ceiling {ceiling:.2f}s)"
            )


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = []
    for mesh in results["meshes"]:
        portfolio = mesh["portfolio"]
        wins = ", ".join(
            f"{name}:{count}"
            for name, count in sorted(portfolio["strategy_wins"].items())
            if count
        )
        rows.append(
            f"{mesh['mesh']} (sizes {mesh['sizes']}): portfolio "
            f"{portfolio['wall_s']}s ({portfolio['backend']}, "
            f"{portfolio['racers']} racers) vs best single "
            f"{mesh['best_single']['mode']} "
            f"{mesh['best_single']['wall_s']}s; wins {wins or '<none>'}; "
            f"cancelled {portfolio['cancelled_slices']}, verdict sha "
            f"{mesh['verdict_sha']}"
        )
    report(
        "E13: strategy portfolio vs sequential eager (BENCH_portfolio.json)",
        rows,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2x2 + 3x3 only (CI containers)")
    parser.add_argument("--slice-conflicts", type=int, default=3000,
                        help="first-slice conflict budget per racer")
    args = parser.parse_args()
    results = run_benchmarks(
        smoke=args.smoke, slice_conflicts=args.slice_conflicts
    )
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
