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
import time
from pathlib import Path

from conftest import report

from repro.core import (
    VarPool,
    VerificationSession,
    derive_colors,
    encode_deadlock,
    generate_invariants,
    minimal_queue_size,
)
from repro.protocols import abstract_mi_mesh
from repro.smt import Result, Solver, conj, eq, iff, neg
from repro.util import Stopwatch

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _scratch_case_queries(network):
    """Seed-style baseline: fresh encoding + solver per per-channel query."""
    verdicts = []
    probe_colors = derive_colors(network)
    n_cases = len(
        encode_deadlock(network, probe_colors, VarPool()).cases
    )
    for index in range(n_cases):
        colors = derive_colors(network)
        pool = VarPool()
        encoding = encode_deadlock(network, colors, pool)
        solver = Solver()
        for name, rhs in encoding.definitions:
            solver.add(iff(name, rhs))
        for term in encoding.domain:
            solver.add(term)
        solver.add(encoding.cases[index].term)
        verdicts.append(solver.check() == Result.UNSAT)
    return verdicts


def _scratch_sizing(build, sizes):
    """From-scratch baseline: per probed size, the literal sizes baked into
    a fresh encoding with invariants and one fresh solver.  It shares no
    step with the session, so it is also the sweep's verdict oracle."""
    verdicts = {}
    for size in sizes:
        network = build(size)
        colors = derive_colors(network)
        pool = VarPool()
        encoding = encode_deadlock(network, colors, pool)
        solver = Solver()
        for invariant in generate_invariants(network, colors, pool):
            solver.add(invariant.term())
        for name, rhs in encoding.definitions:
            solver.add(iff(name, rhs))
        for term in encoding.domain:
            solver.add(term)
        solver.add(encoding.assertion)
        verdicts[size] = solver.check() == Result.UNSAT
    return verdicts


def _session_case_queries(network):
    session = VerificationSession(network)
    return [
        session.verify_case(case).deadlock_free
        for case in session.encoding.cases
    ]


def _scratch_enumerate(network, limit):
    """Seed behavior: every ``check`` re-encoded the growing formula."""
    colors = derive_colors(network)
    pool = VarPool()
    encoding = encode_deadlock(network, colors, pool)
    blocked = []
    witnesses = 0
    while witnesses < limit:
        solver = Solver()
        for name, rhs in encoding.definitions:
            solver.add(iff(name, rhs))
        for term in encoding.domain:
            solver.add(term)
        solver.add(encoding.assertion)
        for clause in blocked:
            solver.add(clause)
        if solver.check() != Result.SAT:
            break
        model = solver.model()
        witnesses += 1
        shape = []
        for automaton in network.automata():
            for state in automaton.states:
                var = pool.state(automaton, state)
                shape.append(eq(var, model[var]))
        for queue in network.queues():
            for color in colors.of(network.channel_of(queue.i)):
                var = pool.occupancy(queue, color)
                shape.append(eq(var, model[var]))
        blocked.append(neg(conj(*shape)))
    return witnesses


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
    watch = Stopwatch()
    encode_network = abstract_mi_mesh(3, 3, queue_size=2).network
    with watch.phase("encode 3x3"):
        encoding = encode_deadlock(
            encode_network, derive_colors(encode_network), VarPool()
        )
    results["encode_3x3"] = {
        "seconds": round(watch.durations["encode 3x3"], 3),
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
