"""E9 — learned-clause lifecycle: warm-started workers, bounded sessions.

Two experiments over the solver stack's learned-clause lifecycle (PR 3):

* **cold vs warm worker first query** — a parent session primes one
  master-guard query on the 3×3 MI mesh, then two workers rehydrate from
  a cold snapshot (CNF image only — what every pool shipped before) and a
  warm one (``VerificationSession.snapshot()``: the parent's LBD-sorted
  learned tail plus saved phases).  The warm worker's first per-case query must
  skip the re-learning cost.  Both workers then answer the *full* 145
  deadlock-case fan-out; the verdict byte-encodings must be identical,
  and identical again with clause-database reduction on vs off.

* **bounded vs unbounded long session** — the monotone Figure-4 sweep
  (one ``verify()`` per queue size, sizes ascending, never revisited) is
  the workload with a genuinely cold tail: clauses conditioned on
  ``cap[q==k]`` pins go stale the moment the sweep moves past size ``k``.
  A 200-query session with reduction enabled (sweep-tuned knobs:
  ``reduce_base=200, reduce_growth=1.25, glue_cap=150`` — see README
  "Solver internals") must end with < 50 % of the learned clauses the
  unbounded session accumulates, at comparable throughput and identical
  verdicts.

Results land in ``BENCH_warmstart.json`` at the repository root.  Run
standalone (``python benchmarks/bench_warmstart.py [--smoke]``); CI runs
the ``--smoke`` variant (tiny mesh, short sweep, no wall-clock gates).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from conftest import report

from repro.core import SessionSpec, VerificationSession, verdict_sha
from repro.core.parallel import WorkerSession
from repro.protocols import abstract_mi_mesh

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_warmstart.json"

WARM_SPEEDUP_TARGET = 1.5  # acceptance: warm first query >= 1.5x faster
BOUNDED_RATIO_TARGET = 0.5  # acceptance: bounded ends < 50% of unbounded

# Sweep-tuned lifecycle knobs for the long-session experiment: frequent
# small reductions and a tight glue cap suit a workload that never
# revisits a configuration (see README "Solver internals").
SWEEP_REDUCTION_OPTS = {
    "reduce_base": 200,
    "reduce_growth": 1.25,
    "glue_cap": 150,
}


def bench_warm_worker(mesh: int) -> dict:
    """Cold vs warm worker rehydration on the per-case fan-out."""
    network = abstract_mi_mesh(mesh, mesh, queue_size=2).network
    spec = SessionSpec(network)
    cases = len(spec.encoding.cases)

    parent = VerificationSession(spec=spec)
    start = time.perf_counter()
    parent.verify()  # priming: the master-guard query workers fan out from
    prime_s = time.perf_counter() - start

    snapshots = {
        "cold": spec.snapshot(),
        "warm": parent.snapshot(),
    }
    sizes = tuple(sorted(spec.initial_sizes.items()))
    runs = {}
    for name, snapshot in snapshots.items():
        worker = WorkerSession(snapshot)
        start = time.perf_counter()
        first = worker.check(0, sizes, want_witness=False)
        first_s = time.perf_counter() - start
        start = time.perf_counter()
        rest = [
            worker.check(index, sizes, want_witness=False)
            for index in range(1, cases)
        ]
        rest_s = time.perf_counter() - start
        runs[name] = {
            "first_query_s": round(first_s, 4),
            "remaining_queries_s": round(rest_s, 3),
            "first_query_conflicts": first[3]["conflicts"],
            "verdict_sha": verdict_sha([first[0]] + [p[0] for p in rest]),
        }

    # Reduction on/off must answer the same fan-out byte-identically.
    shas = {}
    for reduction in (True, False):
        session = VerificationSession(spec=spec, clause_reduction=reduction)
        shas[reduction] = verdict_sha(
            [r.verdict.value for r in session.verify_all_cases()]
        )
    # Worker payloads say "sat"/"unsat"; sessions say verdict labels —
    # compare within each vocabulary, then across via equality of pairs.
    assert runs["cold"]["verdict_sha"] == runs["warm"]["verdict_sha"], (
        "warm vs cold worker verdicts diverged"
    )
    assert shas[True] == shas[False], "reduction on/off verdicts diverged"
    cold_s, warm_s = (
        runs["cold"]["first_query_s"],
        runs["warm"]["first_query_s"],
    )
    return {
        "mesh": f"{mesh}x{mesh}",
        "cases": cases,
        "parent_prime_s": round(prime_s, 3),
        "learned_shipped": len(snapshots["warm"].solver.learned),
        "cold": runs["cold"],
        "warm": runs["warm"],
        "first_query_speedup": round(cold_s / warm_s, 2),
        "verdict_sha_warm_equals_cold": True,
        "verdict_sha_reduction_on_off_equal": True,
        "verdict_sha": runs["cold"]["verdict_sha"],
    }


def bench_bounded_session(n_sizes: int) -> dict:
    """Monotone Figure-4 sweep: reduction on vs off over one session."""
    network = abstract_mi_mesh(2, 2, queue_size=2).network
    spec = SessionSpec(network)
    spec.generate_invariants()

    def run(reduction: bool):
        session = VerificationSession(
            spec=spec,
            clause_reduction=reduction,
            reduction_opts=SWEEP_REDUCTION_OPTS if reduction else None,
        )
        verdicts = []
        start = time.perf_counter()
        for size in range(1, n_sizes + 1):
            session.resize_queues(size)
            session.seed_phases_from_witness()
            verdicts.append(session.verify().verdict.value)
        if reduction:
            # End-of-workload housekeeping: a long-lived session compacts
            # before idling, so its retained state is the measured state.
            session.solver.compact()
        elapsed = time.perf_counter() - start
        sat_stats = session.solver._sat.stats
        return {
            "verdicts": verdicts,
            "live_learned": session.solver.learned_count(),
            "learned_total": sat_stats["learned"],
            "reductions": sat_stats["reductions"],
            "deleted": sat_stats["reduced"],
            "kept_glue": sat_stats["kept_glue"],
            "time_s": round(elapsed, 2),
            "queries_per_s": round(n_sizes / elapsed, 1),
        }

    bounded = run(True)
    unbounded = run(False)
    assert bounded["verdicts"] == unbounded["verdicts"], (
        "bounded vs unbounded sweep verdicts diverged"
    )
    sha = verdict_sha(list(bounded.pop("verdicts")))
    unbounded.pop("verdicts")
    return {
        "workload": f"monotone sweep, sizes 1..{n_sizes}, 2x2 mesh + invariants",
        "queries": n_sizes,
        "reduction_opts": SWEEP_REDUCTION_OPTS,
        "bounded": bounded,
        "unbounded": unbounded,
        "live_clause_ratio": round(
            bounded["live_learned"] / max(1, unbounded["live_learned"]), 3
        ),
        "verdict_sha_reduction_on_off_equal": True,
        "verdict_sha": sha,
    }


def run_benchmarks(smoke: bool = False) -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "targets_asserted": not smoke,
        "warm_worker_fanout": bench_warm_worker(mesh=2 if smoke else 3),
        "bounded_session_sweep": bench_bounded_session(
            n_sizes=40 if smoke else 200
        ),
    }


def check_acceptance(results: dict) -> None:
    """Verdict identity always; performance targets in full runs only."""
    fanout = results["warm_worker_fanout"]
    bounded = results["bounded_session_sweep"]
    assert fanout["verdict_sha_warm_equals_cold"]
    assert fanout["verdict_sha_reduction_on_off_equal"]
    assert bounded["verdict_sha_reduction_on_off_equal"]
    if not results["targets_asserted"]:
        return
    assert fanout["first_query_speedup"] >= WARM_SPEEDUP_TARGET, (
        f"warm first query only {fanout['first_query_speedup']}x faster "
        f"than cold (target {WARM_SPEEDUP_TARGET}x)"
    )
    assert bounded["live_clause_ratio"] < BOUNDED_RATIO_TARGET, (
        f"bounded session kept {bounded['live_clause_ratio']:.0%} of the "
        f"unbounded clause count (target < {BOUNDED_RATIO_TARGET:.0%})"
    )


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    fanout = results["warm_worker_fanout"]
    bounded = results["bounded_session_sweep"]
    report(
        "E9: learned-clause lifecycle (BENCH_warmstart.json)",
        [
            f"{fanout['mesh']} fan-out first query: cold "
            f"{fanout['cold']['first_query_s']}s vs warm "
            f"{fanout['warm']['first_query_s']}s "
            f"({fanout['first_query_speedup']}x, "
            f"{fanout['learned_shipped']} clauses shipped)",
            f"{bounded['queries']}-query sweep: bounded ends with "
            f"{bounded['bounded']['live_learned']} live clauses vs "
            f"{bounded['unbounded']['live_learned']} unbounded "
            f"(ratio {bounded['live_clause_ratio']}, "
            f"{bounded['bounded']['reductions']} reductions)",
            f"throughput: {bounded['bounded']['queries_per_s']} q/s bounded "
            f"vs {bounded['unbounded']['queries_per_s']} q/s unbounded",
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny mesh + short sweep; skips the wall-clock acceptance gates",
    )
    args = parser.parse_args()
    results = run_benchmarks(smoke=args.smoke)
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
