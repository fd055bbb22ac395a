"""E8 — a session's worker-pool fan-out vs its sequential one.

Two workloads, both answered twice from one shared
:class:`~repro.core.SessionSpec` (the build phase is deliberately outside
every timing — the point of the spec split is that it is paid once):

* **per-channel fan-out** — every deadlock case of a 3×3 MI mesh, answered
  by ``verify_all_cases`` on a ``jobs=1``
  :class:`~repro.core.VerificationSession` vs one opened with
  ``jobs=N``, whose fan-out runs on a worker pool (the priming query,
  pool startup, snapshot serialization and worker rehydration all
  *included* in the parallel wall time — this is the honest end-to-end
  cost);
* **sharded Figure-4 sweep** — the verdict-per-size curve of a 2×2 mesh
  probed on one session vs striped across workers with warm-start
  ordering inside each shard.

Verdict lists must be byte-identical between the two paths (asserted on
every run).  The wall-clock speedup assertion is gated on the machine
actually having CPUs to parallelise over: with fewer than 4 cores the
numbers are recorded but only sanity-checked — a 1-core container can
never show a 2x wall win, and pretending otherwise would make the
benchmark flaky instead of informative.

Results land in ``BENCH_parallel.json`` at the repository root.  Run
standalone (``python benchmarks/bench_parallel.py [--jobs 4]``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from conftest import report

from repro.core import (
    SessionSpec,
    VerificationSession,
    sha_bytes,
    sweep_queue_sizes,
)
from repro.protocols import abstract_mi_mesh

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

FANOUT_SPEEDUP_TARGET = 2.0  # acceptance: >= 2x with 4 workers on >= 4 cores


def _verdict_bytes(results) -> bytes:
    """Canonical byte encoding of a verdict list (for byte-identity)."""
    return json.dumps(
        [r.verdict.value for r in results], separators=(",", ":")
    ).encode()


def bench_fanout(jobs: int, backend: str) -> dict:
    network = abstract_mi_mesh(3, 3, queue_size=2).network
    build_start = time.perf_counter()
    spec = SessionSpec(network)
    build_s = time.perf_counter() - build_start

    sequential = VerificationSession(spec=spec)
    start = time.perf_counter()
    seq_results = sequential.verify_all_cases()
    seq_s = time.perf_counter() - start

    start = time.perf_counter()
    with VerificationSession(spec=spec, jobs=jobs, backend=backend) as pool:
        par_results = pool.verify_all_cases()
    par_s = time.perf_counter() - start

    seq_bytes, par_bytes = _verdict_bytes(seq_results), _verdict_bytes(par_results)
    assert seq_bytes == par_bytes, "parallel fan-out verdicts diverged"
    # Witness structure must survive the worker round-trip, too.
    for seq_r, par_r in zip(seq_results, par_results):
        assert (seq_r.witness is None) == (par_r.witness is None)
    return {
        "cases": len(seq_results),
        "jobs": jobs,
        "backend": backend,
        "spec_build_s": round(build_s, 3),
        "sequential_s": round(seq_s, 3),
        "parallel_s": round(par_s, 3),
        "speedup": round(seq_s / par_s, 2),
        "verdicts_byte_identical": True,
        "verdict_sha": sha_bytes(seq_bytes),
    }


def bench_sharded_sweep(jobs: int, backend: str) -> dict:
    sizes = range(1, 7)

    def build(size: int):
        return abstract_mi_mesh(2, 2, queue_size=size).network

    start = time.perf_counter()
    seq = sweep_queue_sizes(build, sizes, jobs=1)
    seq_s = time.perf_counter() - start

    start = time.perf_counter()
    par = sweep_queue_sizes(build, sizes, jobs=jobs, backend=backend)
    par_s = time.perf_counter() - start

    assert seq.probes == par.probes, "sharded sweep verdicts diverged"
    assert seq.minimal_size == par.minimal_size
    return {
        "sizes": len(seq.probes),
        "minimal_size": seq.minimal_size,
        "jobs": jobs,
        "sequential_s": round(seq_s, 3),
        "parallel_s": round(par_s, 3),
        "speedup": round(seq_s / par_s, 2),
    }


def run_benchmarks(jobs: int = 4, backend: str = "process") -> dict:
    cpus = os.cpu_count() or 1
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": cpus,
        "speedup_asserted": cpus >= 4 and jobs >= 4,
        "query_fanout_3x3": bench_fanout(jobs, backend),
        "sharded_fig4_sweep_2x2": bench_sharded_sweep(jobs, backend),
    }


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = []
    for name, data in results.items():
        if isinstance(data, dict) and "speedup" in data:
            rows.append(
                f"{name}: sequential {data['sequential_s']}s vs parallel "
                f"{data['parallel_s']}s ({data['speedup']}x, "
                f"jobs={data['jobs']})"
            )
    rows.append(
        f"cpus={results['cpu_count']}, "
        f"speedup asserted: {results['speedup_asserted']}"
    )
    report("E8: parallel pool vs sequential session (BENCH_parallel.json)", rows)


def check_acceptance(results: dict) -> None:
    """Verdict identity always; wall-clock targets only where achievable."""
    fanout = results["query_fanout_3x3"]
    assert fanout["verdicts_byte_identical"]
    if results["speedup_asserted"]:
        assert fanout["speedup"] >= FANOUT_SPEEDUP_TARGET, (
            f"3x3 fan-out speedup {fanout['speedup']}x with "
            f"{fanout['jobs']} workers is below the "
            f"{FANOUT_SPEEDUP_TARGET}x acceptance target"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel paths (default 4)")
    parser.add_argument("--backend", choices=("process", "thread"),
                        default="process")
    args = parser.parse_args()
    results = run_benchmarks(jobs=args.jobs, backend=args.backend)
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
