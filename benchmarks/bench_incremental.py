"""E7 — incremental session vs from-scratch solving.

Measures the payoff of the assumption-based :class:`VerificationSession`
on three workloads (and records the encoding-flattening cost for the
term-construction fast path):

* **query fan-out** — every per-channel deadlock query of a 2×2 MI mesh,
  answered by one session vs a fresh encoding + solver per query;
* **Figure-4 sweep** — ``minimal_queue_size`` with the shared
  session vs one literal-size encoding with invariants in a fresh solver
  per size that search probed;
* **witness enumeration** — blocking-clause enumeration inside one
  session vs the seed behavior of re-encoding per witness.

Results land in ``BENCH_incremental.json`` at the repository root so the
performance trajectory is recorded across PRs.  Run standalone
(``python benchmarks/bench_incremental.py``) or via pytest.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from conftest import report

from repro.core import (
    VarPool,
    VerificationSession,
    derive_colors,
    encode_deadlock,
    minimal_queue_size,
)
from repro.protocols import abstract_mi_mesh
from repro.smt import Result

ROOT = Path(__file__).resolve().parent.parent
# The literal-size oracle lives with the tests; appended so this
# directory's ``conftest`` still wins.
sys.path.append(str(ROOT / "tests"))
from literal_oracle import LiteralEncoding, fresh_verdict

RESULTS_PATH = ROOT / "BENCH_incremental.json"


def _scratch_case_queries(network):
    """Seed-style baseline: fresh encoding + solver per per-channel query."""
    verdicts = []
    probe_colors = derive_colors(network)
    n_cases = len(
        encode_deadlock(network, probe_colors, VarPool()).cases
    )
    for index in range(n_cases):
        literal = LiteralEncoding(network)
        solver = literal.solver(literal.encoding.cases[index].term)
        verdicts.append(solver.check() == Result.UNSAT)
    return verdicts


def _scratch_sizing(build, sizes):
    """From-scratch baseline: per probed size, the literal sizes baked into
    a fresh encoding with invariants and one fresh solver.  It shares no
    step with the session, so it is also the sweep's verdict oracle."""
    return {size: fresh_verdict(build(size), use_invariants=True) for size in sizes}


def _session_case_queries(network):
    session = VerificationSession(network)
    return [
        session.verify_case(case).deadlock_free
        for case in session.encoding.cases
    ]


def _scratch_enumerate(network, limit):
    """Seed behavior: every ``check`` re-encoded the growing formula."""
    literal = LiteralEncoding(network)
    blocked = []
    while len(blocked) < limit:
        solver = literal.solver(literal.encoding.assertion, *blocked)
        if solver.check() != Result.SAT:
            break
        blocked.append(literal.blocking_clause(solver.model()))
    return len(blocked)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_benchmarks() -> dict:
    results: dict = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}

    # 1. Per-channel query fan-out -------------------------------------
    network = abstract_mi_mesh(2, 2, queue_size=3).network
    session_verdicts, session_s = _timed(_session_case_queries, network)
    scratch_verdicts, scratch_s = _timed(_scratch_case_queries, network)
    assert session_verdicts == scratch_verdicts, "fan-out verdict mismatch"
    results["query_fanout_2x2"] = {
        "queries": len(session_verdicts),
        "session_s": round(session_s, 3),
        "scratch_s": round(scratch_s, 3),
        "speedup": round(scratch_s / session_s, 2),
    }

    # 2. Figure-4 queue-size sweep -------------------------------------
    def build(size):
        return abstract_mi_mesh(2, 2, queue_size=size).network

    inc, inc_s = _timed(minimal_queue_size, build)
    scr, scr_s = _timed(_scratch_sizing, build, sorted(inc.probes))
    assert inc.probes == scr, "sweep verdict mismatch"
    results["fig4_sweep_2x2"] = {
        "minimal_size": inc.minimal_size,
        "probes": len(inc.probes),
        "session_s": round(inc_s, 3),
        "scratch_s": round(scr_s, 3),
        "speedup": round(scr_s / inc_s, 2),
    }

    # 3. Witness enumeration -------------------------------------------
    limit = 12
    enum_network = abstract_mi_mesh(2, 2, queue_size=2).network

    def session_enumerate():
        session = VerificationSession(enum_network)
        return len(list(session.enumerate_witnesses(limit=limit)))

    session_count, senum_s = _timed(session_enumerate)
    scratch_count, scenum_s = _timed(_scratch_enumerate, enum_network, limit)
    assert session_count == scratch_count, "enumeration count mismatch"
    results["witness_enumeration_2x2"] = {
        "witnesses": session_count,
        "session_s": round(senum_s, 3),
        "scratch_s": round(scenum_s, 3),
        "speedup": round(scenum_s / senum_s, 2),
    }

    # 4. Encoding construction (flattened n-ary conj/disj) -------------
    encode_network = abstract_mi_mesh(3, 3, queue_size=2).network
    encoding, encode_s = _timed(
        encode_deadlock, encode_network, derive_colors(encode_network), VarPool()
    )
    results["encode_3x3"] = {
        "seconds": round(encode_s, 3),
        "definitions": len(encoding.definitions),
        "cases": len(encoding.cases),
    }

    return results


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = []
    for name, data in results.items():
        if isinstance(data, dict) and "speedup" in data:
            rows.append(
                f"{name}: session {data['session_s']}s vs scratch "
                f"{data['scratch_s']}s ({data['speedup']}x)"
            )
        elif isinstance(data, dict):
            rows.append(f"{name}: {data}")
    report("E7: incremental session vs from-scratch (BENCH_incremental.json)", rows)


def test_incremental_beats_scratch():
    results = run_benchmarks()
    _record_and_report(results)
    assert results["fig4_sweep_2x2"]["speedup"] > 1.0, (
        "session-based Figure-4 sweep must beat the from-scratch baseline"
    )
    assert results["query_fanout_2x2"]["speedup"] > 1.0
    assert results["witness_enumeration_2x2"]["speedup"] > 1.0


if __name__ == "__main__":
    bench_results = run_benchmarks()
    _record_and_report(bench_results)
    print(json.dumps(bench_results, indent=2))
