"""E14 — fault-tolerance drills: recovery latency, quarantine, polling overhead.

Standalone benchmark behind ``BENCH_resilience.json``.  The workload is
the 2x2 abstract-MI mesh's deadlock-case fan-out (``verify_all_cases``),
driven through three drills.  The two crash drills run the
invariant-strengthened mesh at queue size 2, whose cases hold both
verdicts (candidates and deadlock-free ones), so a restarted worker that
answers an UNSAT query as SAT, or the reverse, changes ``verdict_sha``:

* **deadline-polling overhead** — the fan-out answered with no deadline
  vs under a generous :class:`~repro.core.resilience.Deadline` (an hour
  of wall clock, never expiring).  Best-of-N wall ratio; the acceptance
  asserts the cooperative-cancellation plumbing costs at most a few
  percent (the hot path is one ``time.monotonic`` per propagate cycle).
* **recovery drill** — a *latched* kill of the pool's job body
  ``repro.core.parallel._run_job`` (exactly one pool worker dies, once)
  under a ``VerificationSession`` opened with ``jobs=2``.  The session
  must rebuild the pool, replay from the same snapshot, and report
  verdicts byte-identical to the sequential reference; ``recovery_latency_s`` is the wall-clock price
  of the crash vs the clean pooled run.
* **quarantine drill** — an *unlatched* kill (every fresh worker dies on
  its first job).  The session must rebuild its pool
  ``POOL_ATTEMPTS`` times, degrade to answering on its own solver, and
  still answer identically.

Faults come from ``tests/faults.py``, the chaos suite's helper, which
patches the job body in this process; forked pool workers inherit the
patch, so the drills need the fork start method (Linux).

Verdict byte-identity is machine-independent and gated fatally by
``benchmarks/check_bench.py`` (``verdict_sha`` + ``verdicts_*`` flags);
the wall-clock numbers are informational.

Run standalone:  ``python benchmarks/bench_resilience.py [--smoke]``
(the full run adds the 3x3 mesh to the overhead measurement).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from conftest import report

from repro.core import (
    Deadline,
    SessionSpec,
    VerificationSession,
    parallel,
    verdict_sha,
)
from repro.protocols import abstract_mi_mesh

REPO_ROOT = Path(__file__).resolve().parent.parent
# The drills inject faults with the chaos suite's helper.
sys.path.insert(0, str(REPO_ROOT / "tests"))
from faults import inject

RESULTS_PATH = REPO_ROOT / "BENCH_resilience.json"

#: Paired best-of repetitions for the overhead measurement.
OVERHEAD_REPS = 3
#: The polling plumbing may not cost more than this (ratio ceiling); a
#: small absolute slack absorbs timer granularity on sub-second runs.
OVERHEAD_CEILING = 1.02
OVERHEAD_SLACK_S = 0.05


def _spec(width: int, height: int, queue_size: int = 3) -> SessionSpec:
    network = abstract_mi_mesh(width, height, queue_size=queue_size).network
    return SessionSpec(network)


def _drill_spec() -> SessionSpec:
    """The crash drills' fan-out: both verdicts among its cases."""
    spec = _spec(2, 2, queue_size=2)
    spec.generate_invariants()
    return spec


def _verdict_sha(spec: SessionSpec, results) -> str:
    """Over ``[case label, verdict]`` pairs sorted by label: the case
    order follows the hash seed, so a fan-out of mixed verdicts hashed
    in case order would read differently under every seed."""
    return verdict_sha(
        sorted(
            [case.label, r.verdict.value]
            for case, r in zip(spec.encoding.cases, results)
        )
    )


def _fanout_wall(spec: SessionSpec, deadline: Deadline | None) -> float:
    session = VerificationSession(spec=spec)
    start = time.perf_counter()
    session.verify_all_cases(deadline=deadline)
    return time.perf_counter() - start


def _overhead_case(width: int, height: int) -> dict:
    spec = _spec(width, height)
    plain = []
    polled = []
    for _ in range(OVERHEAD_REPS):
        # Interleaved, fresh session each arm: warm-start and cache
        # effects hit both sides equally.
        plain.append(_fanout_wall(spec, None))
        polled.append(
            _fanout_wall(spec, Deadline(seconds=3600.0))
        )
    best_plain = min(plain)
    best_polled = min(polled)
    return {
        "mesh": f"{width}x{height}",
        "plain_wall_s": round(best_plain, 4),
        "deadline_wall_s": round(best_polled, 4),
        "overhead_ratio": round(best_polled / max(best_plain, 1e-9), 4),
    }


def _recovery_drill(spec: SessionSpec, reference_sha: str) -> dict:
    """Latched single worker kill: one crash, one rebuild, same verdicts."""
    start = time.perf_counter()
    with VerificationSession(
        spec=spec, jobs=2, backend="process"
    ) as pool:
        clean = pool.verify_all_cases()
    clean_wall = time.perf_counter() - start
    assert _verdict_sha(spec, clean) == reference_sha

    with tempfile.TemporaryDirectory() as latch, inject(
        parallel, "_run_job", "kill", latch=latch
    ):
        start = time.perf_counter()
        with VerificationSession(
            spec=spec, jobs=2, backend="process"
        ) as pool:
            recovered = pool.verify_all_cases()
            recoveries = pool.recoveries
            degraded = pool.degraded
        faulted_wall = time.perf_counter() - start
    return {
        "verdict_sha": _verdict_sha(spec, recovered),
        "verdicts_recovery_identical": _verdict_sha(spec, recovered) == reference_sha,
        "recoveries": recoveries,
        "degraded": degraded,
        "clean_wall_s": round(clean_wall, 3),
        "faulted_wall_s": round(faulted_wall, 3),
        "recovery_latency_s": round(max(0.0, faulted_wall - clean_wall), 3),
    }


def _quarantine_drill(spec: SessionSpec, reference_sha: str) -> dict:
    """Unlatched kill: every fresh worker dies; must degrade inline."""
    with inject(parallel, "_run_job", "kill"):
        start = time.perf_counter()
        with VerificationSession(
            spec=spec, jobs=2, backend="process"
        ) as pool:
            results = pool.verify_all_cases()
            recoveries = pool.recoveries
            degraded = pool.degraded
        wall = time.perf_counter() - start
    return {
        "verdict_sha": _verdict_sha(spec, results),
        "verdicts_quarantine_identical": _verdict_sha(spec, results) == reference_sha,
        "retries": recoveries,
        "degraded": degraded,
        "wall_s": round(wall, 3),
    }


def run_benchmarks(smoke: bool = False) -> dict:
    meshes = [(2, 2)] if smoke else [(2, 2), (3, 3)]
    overhead = [_overhead_case(width, height) for width, height in meshes]

    spec = _drill_spec()
    reference = VerificationSession(spec=spec).verify_all_cases()
    reference_sha = _verdict_sha(spec, reference)
    counts = {
        verdict: sum(r.verdict.value == verdict for r in reference)
        for verdict in ("deadlock-candidate", "deadlock-free")
    }

    recovery = _recovery_drill(spec, reference_sha)
    quarantine = _quarantine_drill(spec, reference_sha)

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count() or 1,
        "smoke": smoke,
        "workload": (
            "abstract_mi_mesh 2x2 verify_all_cases fan-out: overhead at "
            "queue_size=3; drills at queue_size=2 with invariants"
        ),
        "verdict_sha": reference_sha,
        "drill_verdicts": counts,
        "overhead": overhead,
        "recovery": recovery,
        "quarantine": quarantine,
    }


def check_acceptance(results: dict) -> None:
    """Re-asserted on the loaded record: identity fatal, overhead bounded."""
    recovery = results["recovery"]
    quarantine = results["quarantine"]
    # A fan-out of one verdict cannot tell a wrong answer from a right one.
    assert min(results["drill_verdicts"].values()) > 0, results["drill_verdicts"]
    assert recovery["verdicts_recovery_identical"], recovery
    assert recovery["recoveries"] == 1 and not recovery["degraded"], recovery
    assert quarantine["verdicts_quarantine_identical"], quarantine
    assert quarantine["degraded"], quarantine
    assert quarantine["retries"] == parallel.POOL_ATTEMPTS, quarantine
    for case in results["overhead"]:
        ceiling = (
            case["plain_wall_s"] * OVERHEAD_CEILING + OVERHEAD_SLACK_S
        )
        assert case["deadline_wall_s"] <= ceiling, (
            f"{case['mesh']}: deadline polling cost "
            f"{case['deadline_wall_s']}s vs plain {case['plain_wall_s']}s "
            f"(ceiling {ceiling:.4f}s)"
        )


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    recovery = results["recovery"]
    quarantine = results["quarantine"]
    rows = [
        f"{case['mesh']}: plain {case['plain_wall_s']}s vs deadline "
        f"{case['deadline_wall_s']}s (overhead x{case['overhead_ratio']})"
        for case in results["overhead"]
    ]
    rows.append(
        f"recovery drill: {recovery['recoveries']} rebuild(s), latency "
        f"{recovery['recovery_latency_s']}s, verdicts identical "
        f"{recovery['verdicts_recovery_identical']}"
    )
    rows.append(
        f"quarantine drill: {quarantine['retries']} retries -> degraded "
        f"{quarantine['degraded']} in {quarantine['wall_s']}s, verdicts "
        f"identical {quarantine['verdicts_quarantine_identical']}"
    )
    report(
        "E14: fault-tolerance drills (BENCH_resilience.json)",
        rows,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2x2 mesh only (CI containers); the full run adds 3x3",
    )
    args = parser.parse_args()
    if parallel._process_context().get_start_method() != "fork":
        sys.exit("the crash drills need forked pool workers (Linux)")
    results = run_benchmarks(smoke=args.smoke)
    check_acceptance(results)
    _record_and_report(results)


if __name__ == "__main__":
    main()
