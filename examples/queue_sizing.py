#!/usr/bin/env python3
"""Figure 4: minimal deadlock-free queue sizes per mesh and directory position.

For each mesh size and directory position, find the smallest uniform queue
size for which ADVOCAT proves deadlock freedom.  The grid is declared as an
:class:`repro.core.Experiment` — one picklable ``ScenarioSpec`` per
(mesh, directory) point — and ``--jobs N`` shards *whole topology builds*
across N scenario workers, each building its own encoding and running the
search locally (see EXPERIMENTS.md for the grid ↔ figure mapping).

In this reproduction's router model every node has a single rotating
ejection queue, so the binding constraint is the total number of foreign
packets that can stall in front of the directory — which grows with the
cache count but not with the directory position (see EXPERIMENTS.md for
the comparison against the paper's per-direction numbers).

``--sweep`` probes the full Figure-4 *curve* (every size up to
``--max-size``) instead of searching for the boundary (a climb one size
at a time up to 16, then a bisection of the last gap);
``--invariants`` picks the strengthening mode — ``eager`` (the full
invariant set, conjoined up front) or ``none`` (plain block/idle);
``--save``/``--resume`` checkpoint the grid so an interrupted run
re-builds nothing; ``--query-jobs`` shards each ``--sweep`` scenario's
sizes across that many pool workers.

Run:  python examples/queue_sizing.py [--max-mesh 3] [--jobs 4] [--sweep]
"""

import argparse

from repro.core import Experiment, ScenarioSpec
from repro.fabrics import MeshTopology


def fig4_experiment(
    max_mesh: int,
    sweep: bool = False,
    max_size: int = 6,
    invariants: str = "eager",
) -> Experiment:
    """The Figure-4 grid: mesh sizes × directory positions.

    Meshes beyond 3x3 (the paper's 4x4 and 6x6 scenarios) are included
    whenever ``max_mesh`` asks for them.
    """
    scenarios = []
    for n in range(2, max_mesh + 1):
        for position in MeshTopology(n, n).probe_positions():
            scenarios.append(
                ScenarioSpec(
                    builder="abstract_mi_mesh",
                    kwargs={"width": n, "height": n, "directory_node": position},
                    mode="sweep" if sweep else "search",
                    sizes=tuple(range(1, max_size + 1)) if sweep else (),
                    invariants=invariants,
                    label=f"{n}x{n} directory at {position}",
                )
            )
    return Experiment("fig4-queue-sizing", scenarios)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-mesh", type=int, default=3,
                        help="largest n for the n x n sweep (default 3)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard whole topology builds over N workers")
    parser.add_argument("--sweep", action="store_true",
                        help="probe the full size curve instead of the boundary")
    parser.add_argument("--max-size", type=int, default=6,
                        help="largest queue size probed with --sweep (default 6)")
    parser.add_argument("--invariants", default="eager",
                        choices=["eager", "none"],
                        help="invariant strengthening mode (default eager; "
                             "none = plain block/idle)")
    parser.add_argument("--query-jobs", type=int, default=None,
                        help="inner per-scenario worker budget (shards the "
                             "sizes of a --sweep); default 1")
    parser.add_argument("--save", metavar="PATH",
                        help="checkpoint results to PATH after each scenario")
    parser.add_argument("--resume", metavar="PATH",
                        help="skip scenarios already answered in PATH")
    parser.add_argument("--stats", action="store_true",
                        help="print per-scenario solver lifecycle totals")
    args = parser.parse_args()

    experiment = fig4_experiment(
        args.max_mesh,
        sweep=args.sweep,
        max_size=args.max_size,
        invariants=args.invariants,
    )
    result = experiment.run(
        jobs=args.jobs,
        query_jobs=args.query_jobs,
        resume=args.resume,
        save_path=args.save,
    )
    if result.reused:
        print(f"(resumed: {result.reused} scenarios reused, "
              f"{result.computed} computed)")

    for scenario in result.scenarios:
        probed = ", ".join(
            f"{size}:{'free' if free else 'dl'}"
            for size, free in sorted(scenario.probes.items())
        )
        print(f"{scenario.label}: minimal queue size = "
              f"{scenario.minimal_size}   (probes: {probed})")
        if args.stats:
            totals = scenario.stats.get("solver_totals", {})
            print("    learned-clause lifecycle (scenario totals): "
                  + ", ".join(
                      f"{key}={totals.get(key, 0)}"
                      for key in ("learned", "reductions", "reduced",
                                  "kept_glue")
                  ))
    print(f"\ngrid: {len(result.scenarios)} scenarios, "
          f"build {result.build_seconds:.2f}s / "
          f"query {result.query_seconds:.2f}s")


if __name__ == "__main__":
    main()
