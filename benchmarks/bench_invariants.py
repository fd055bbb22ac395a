"""E5 + E11 — case-study invariants and the eager sweep per mesh.

Two halves:

* **pytest section (E5)** — regenerates invariants (3) and (4) for every
  cache of the 2×2 abstract-MI case study (the paper reports 6 invariants
  for its three caches) and the invariant counts for the full MI protocol
  (paper: 14 in its 2×2 setting).
* **standalone section (E11)** — one eager size sweep per mesh of the
  family, written to ``BENCH_invariants.json``: the record captures the
  verdict SHA, the invariant rows encoded and the wall-clock split.

Run standalone:  ``python benchmarks/bench_invariants.py [--smoke]``
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

from repro.core import (
    VarPool,
    derive_colors,
    generate_invariants,
    sweep_queue_sizes,
    verdict_sha,
)
from repro.linalg import SparseVector, row_space_contains
from repro.protocols import Message, abstract_mi_mesh, mi_mesh

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_invariants.json"


# ---------------------------------------------------------------------------
# E5 (pytest): the published case-study invariants are derivable
# ---------------------------------------------------------------------------


def _rows(invariants):
    result = []
    for inv in invariants:
        entries = {var.uid: coeff for var, coeff in inv.coeffs}
        if inv.constant:
            entries[0] = inv.constant
        result.append(SparseVector(entries))
    return result


def _queue_vars(inst, pool, colors, message):
    return [
        pool.occupancy(queue, message)
        for queue in inst.network.queues()
        if message in colors.of(inst.network.channel_of(queue.i))
    ]


def test_abstract_mi_invariants(benchmark):
    inst = abstract_mi_mesh(2, 2, queue_size=2)

    def generate():
        pool = VarPool()
        colors = derive_colors(inst.network)
        return pool, colors, generate_invariants(inst.network, colors, pool)

    pool, colors, invariants = benchmark(generate)
    rows = _rows(invariants)
    dir_node = inst.directory_node
    confirmed = []
    for c, cache in sorted(inst.caches.items()):
        # Equation (3): 1 = #getX(c) + #ack(c) + c.I + d.M(c) + d.MI(c)
        entries = {0: -1}
        for var in _queue_vars(inst, pool, colors, Message("getX", c, dir_node)):
            entries[var.uid] = 1
        for var in _queue_vars(inst, pool, colors, Message("ack", dir_node, c)):
            entries[var.uid] = 1
        entries[pool.state(cache, "I").uid] = 1
        entries[pool.state(inst.directory, f"M_{c[0]}_{c[1]}").uid] = 1
        entries[pool.state(inst.directory, f"MI_{c[0]}_{c[1]}").uid] = 1
        eq3 = row_space_contains(rows, SparseVector(entries))
        # Equation (4): d.MI(c) = #putX(c) + #inv(c)
        entries = {}
        for var in _queue_vars(inst, pool, colors, Message("putX", c, dir_node)):
            entries[var.uid] = 1
        for var in _queue_vars(inst, pool, colors, Message("inv", dir_node, c)):
            entries[var.uid] = 1
        entries[pool.state(inst.directory, f"MI_{c[0]}_{c[1]}").uid] = -1
        eq4 = row_space_contains(rows, SparseVector(entries))
        confirmed.append(f"cache {c}: eq(3) derivable={eq3}, eq(4) derivable={eq4}")
        assert eq3 and eq4
    report(
        "E5: 2x2 abstract MI invariants "
        "(paper: 6 invariants = (3)+(4) per cache x 3 caches)",
        [f"basis size = {len(invariants)}"] + confirmed,
    )


def test_full_mi_invariants(benchmark):
    inst = mi_mesh(2, 2, queue_size=2)

    def generate():
        pool = VarPool()
        return generate_invariants(
            inst.network, derive_colors(inst.network), pool
        )

    invariants = benchmark(generate)
    cross_layer = [
        inv for inv in invariants
        if any(v.name.startswith("#") for v in inv.variables())
        and any(not v.name.startswith("#") for v in inv.variables())
    ]
    report(
        "E5/E8: full MI 2x2 invariants (paper reports 14 in its layout)",
        [f"basis size = {len(invariants)}",
         f"cross-layer (mix states and occupancies) = {len(cross_layer)}",
         "example: " + invariants[len(invariants) // 2].pretty()],
    )
    assert len(invariants) >= 10


# ---------------------------------------------------------------------------
# E11 (standalone): the eager sweep per mesh
# ---------------------------------------------------------------------------


def _mesh_cases(smoke: bool) -> list[dict]:
    """The grid: mesh → probed sizes.

    In this reproduction's single-ejection-queue router the minimal
    deadlock-free uniform size is ``caches = w*h - 1`` (EXPERIMENTS.md),
    so each small mesh probes the boundary pair (one deadlocked size, one
    free size).  The 6×6 mesh probes the free size only: a deadlocked 6×6
    probe costs minutes in pure Python without changing what the record
    shows.
    """
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


def _run_mode(build, sizes) -> dict:
    start = time.perf_counter()
    sizing = sweep_queue_sizes(build, sizes, jobs=1, want_witness=False)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 3),
        "build_s": round(sizing.build_seconds, 3),
        "query_s": round(sizing.query_seconds, 3),
        "probes": {str(size): free for size, free in sorted(sizing.probes.items())},
        "verdict_sha": _verdict_sha(sizing.probes),
        "invariants_used": sizing.invariants_used,
        "invariants_generated": sizing.invariants_generated,
    }


def run_benchmarks(smoke: bool = False) -> dict:
    meshes = []
    for case in _mesh_cases(smoke):
        width, height = case["mesh"]
        sizes = case["sizes"]

        def build(size, width=width, height=height):
            return abstract_mi_mesh(width, height, queue_size=size).network

        eager = _run_mode(build, sizes)
        meshes.append(
            {
                "mesh": f"{width}x{height}",
                "sizes": list(sizes),
                "total_invariants": eager["invariants_generated"],
                "verdict_sha": eager["verdict_sha"],
                "modes": {"eager": eager},
            }
        )
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count() or 1,
        "smoke": smoke,
        "meshes": meshes,
    }


def check_acceptance(results: dict) -> None:
    """Machine-independent gates (the wall-clock columns are informative):
    every mesh encodes a non-empty invariant set, all of it."""
    for mesh in results["meshes"]:
        eager = mesh["modes"]["eager"]
        assert eager["verdict_sha"] == mesh["verdict_sha"], mesh["mesh"]
        assert eager["invariants_generated"] == mesh["total_invariants"]
        assert mesh["total_invariants"] > 0, mesh["mesh"]


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = []
    for mesh in results["meshes"]:
        eager = mesh["modes"]["eager"]
        rows.append(
            f"{mesh['mesh']} (sizes {mesh['sizes']}): "
            f"{mesh['total_invariants']} rows, wall {eager['wall_s']}s "
            f"(build {eager['build_s']}s / query {eager['query_s']}s), "
            f"verdict sha {mesh['verdict_sha']}"
        )
    report("E11: eager invariants per mesh (BENCH_invariants.json)", rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2x2 + 3x3 only (CI containers)")
    args = parser.parse_args()
    results = run_benchmarks(smoke=args.smoke)
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
