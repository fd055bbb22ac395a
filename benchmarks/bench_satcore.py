"""SAT-core data path: flat-arena Cdcl vs the frozen pre-arena reference.

Measures the tentpole of the CDCL rewrite (``src/repro/smt/sat.py``)
against ``tests/smt/_sat_reference.py``, the byte-frozen object-per-clause
core it replaced:

* **propagation throughput** — deterministic random 3-CNF instances near
  the satisfiability phase transition, solved by both cores standalone
  (no theory attached); verdicts must agree, and the new core's
  ``profile()`` counters (visited watchers, blocker hits, analyze steps)
  are recorded alongside propagations/second for each core;
* **end-to-end query fan-out** — every per-channel deadlock query of an
  MI mesh answered through the full ``VerificationSession`` stack, once
  with the production arena core and once with ``repro.smt.solver.Cdcl``
  monkeypatched to the reference core.  Verdict SHAs must be identical;
  the reference core does no theory propagation, so only verdicts, not
  search paths, are comparable here.

Results land in ``BENCH_satcore.json`` at the repository root.  Run
standalone (``python benchmarks/bench_satcore.py [--smoke]``); CI runs the
``--smoke`` variant (smaller instances, 2×2 mesh with shallow queues) and
gates on the verdict SHAs via ``check_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from conftest import report

from repro.core import VerificationSession, verdict_sha
from repro.protocols import abstract_mi_mesh
from repro.smt import sat
from repro.smt import solver as solver_mod

ROOT = Path(__file__).resolve().parent.parent
# The reference core is a test oracle and lives with the tests.
sys.path.append(str(ROOT / "tests" / "smt"))
import _sat_reference

RESULTS_PATH = ROOT / "BENCH_satcore.json"


# ----------------------------------------------------------------------
# Propagation throughput on raw CNF
# ----------------------------------------------------------------------
def _random_cnf(seed: int, n_vars: int, n_clauses: int) -> list[list[int]]:
    """A deterministic random 3-CNF instance (no duplicate vars per clause)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _solve_instances(core_cls, instances, n_vars):
    """Solve every instance on a fresh core; verdict list + totals."""
    verdicts = []
    propagations = 0
    start = time.perf_counter()
    for clauses in instances:
        core = core_cls(reduction=True, reduce_base=200)
        core.ensure_vars(n_vars)
        for clause in clauses:
            core.add_clause(clause)
        verdicts.append(core.solve())
        propagations += core.stats["propagations"]
    return verdicts, propagations, time.perf_counter() - start


def bench_propagation(smoke: bool) -> dict:
    n_vars = 60 if smoke else 100
    # Clause/variable ratio 4.2: near the 3-SAT phase transition, so the
    # runs mix deep propagation with real conflict analysis.
    n_clauses = int(n_vars * 4.2)
    n_instances = 4 if smoke else 8
    instances = [
        _random_cnf(1000 + seed, n_vars, n_clauses)
        for seed in range(n_instances)
    ]

    new_verdicts, new_props, new_s = _solve_instances(
        sat.Cdcl, instances, n_vars
    )
    old_verdicts, old_props, old_s = _solve_instances(
        _sat_reference.Cdcl, instances, n_vars
    )
    assert new_verdicts == old_verdicts, "raw-CNF verdicts diverged"
    assert new_props == old_props, "propagation trajectories diverged"

    # Hot-loop profile of the arena core over one representative instance.
    probe = sat.Cdcl(reduction=True, reduce_base=200)
    probe.ensure_vars(n_vars)
    for clause in instances[0]:
        probe.add_clause(clause)
    probe.solve()
    profile = probe.profile()

    return {
        "instances": n_instances,
        "vars": n_vars,
        "clauses": n_clauses,
        "propagations": new_props,
        "arena_s": round(new_s, 3),
        "reference_s": round(old_s, 3),
        "arena_props_per_s": int(new_props / new_s) if new_s else 0,
        "reference_props_per_s": int(old_props / old_s) if old_s else 0,
        "speedup": round(old_s / new_s, 2) if new_s else 0.0,
        "profile_first_instance": profile,
        "verdicts_cnf_equal": True,
        "verdict_sha": verdict_sha([str(v) for v in new_verdicts]),
    }


# ----------------------------------------------------------------------
# End-to-end query fan-out through the full session stack
# ----------------------------------------------------------------------
def _session_fanout(network):
    session = VerificationSession(network)
    return [
        session.verify_case(case).deadlock_free
        for case in session.encoding.cases
    ]


def bench_fanout(smoke: bool) -> dict:
    network = abstract_mi_mesh(2, 2, queue_size=2 if smoke else 3).network

    arena_verdicts, arena_s = None, 0.0
    start = time.perf_counter()
    arena_verdicts = _session_fanout(network)
    arena_s = time.perf_counter() - start

    # Swap the reference core under the unchanged Solver/session stack:
    # the public Cdcl API is frozen, so only the module binding differs.
    production = solver_mod.Cdcl
    try:
        solver_mod.Cdcl = _sat_reference.Cdcl
        start = time.perf_counter()
        reference_verdicts = _session_fanout(network)
        reference_s = time.perf_counter() - start
    finally:
        solver_mod.Cdcl = production

    assert arena_verdicts == reference_verdicts, "fan-out verdicts diverged"
    return {
        "mesh": "2x2",
        "queries": len(arena_verdicts),
        "arena_s": round(arena_s, 3),
        "reference_s": round(reference_s, 3),
        "speedup": round(reference_s / arena_s, 2) if arena_s else 0.0,
        "verdicts_fanout_equal": True,
        "verdict_sha": verdict_sha(list(arena_verdicts)),
    }


def run_benchmarks(smoke: bool = False) -> dict:
    results: dict = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "propagation_throughput": bench_propagation(smoke),
        "query_fanout": bench_fanout(smoke),
    }
    return results


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    prop = results["propagation_throughput"]
    fan = results["query_fanout"]
    report(
        "SAT core: flat arena vs reference (BENCH_satcore.json)",
        [
            f"propagation: arena {prop['arena_s']}s vs reference "
            f"{prop['reference_s']}s ({prop['speedup']}x, "
            f"{prop['arena_props_per_s']} props/s)",
            f"fan-out ({fan['queries']} queries): arena {fan['arena_s']}s "
            f"vs reference {fan['reference_s']}s ({fan['speedup']}x)",
        ],
    )


def test_satcore_matches_reference():
    results = run_benchmarks(smoke=True)
    _record_and_report(results)
    assert results["propagation_throughput"]["verdicts_cnf_equal"]
    assert results["query_fanout"]["verdicts_fanout_equal"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instances and mesh (the CI configuration)",
    )
    args = parser.parse_args()
    results = run_benchmarks(smoke=args.smoke)
    _record_and_report(results)
    print(json.dumps(results, indent=2))
