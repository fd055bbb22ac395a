"""Per-layer counters and busy times, recorded from outside the program.

:meth:`Tracer.install` wraps public entry points of each layer of
``repro`` — the SAT core behind ``Solver.check``, the LIA bridge and
simplex, the build phases ``SessionSpec`` runs, the query engines, the
snapshot/restore orchestration and the on-disk stores — so a traced run
splits its time and work by layer without any change to the program.
Nothing here is imported by the program; an untraced run never loads
it.

Counters are plain numbers in one dict per process.  A process started
by ``fork`` after installation (the service's pool worker) inherits the
wrappers; an after-fork hook zeroes its copy of the counters and dumps
them to its own file when the worker exits, and :func:`merge_dumps` sums
every process's file.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from functools import wraps
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

#: Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "sat.conflicts",
    "sat.propagations",
    "theory.asserts",
    "simplex.checks",
    "query.sat",
    "service.hits.cold",
    "service.hits.hot",
    "service.hits.build",
)


class Tracer:
    """Counters of one process, and the wrappers that feed them."""

    def __init__(self, dump_dir: str | os.PathLike | None = None) -> None:
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._query_depth = 0
        self._installed = False

    # -- recording -------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def dump(self) -> None:
        """Write this process's counters to ``<dump_dir>/<pid>.json``."""
        if self.dump_dir is None:
            return
        path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(dict(self.counts), sort_keys=True))

    def _after_fork(self) -> None:
        self.counts.clear()
        self._query_depth = 0
        mp_util.Finalize(None, self.dump, exitpriority=100)

    # -- wrapping --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wraps(original)(make(original)))

    def _timed(self, owner, attr: str, name: str, after=None) -> None:
        """Count calls and busy seconds of ``owner.attr`` under ``name``;
        ``after(result, args)`` adds work counters from the result."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = original(*args, **kwargs)
                counts[name + ".s"] += perf_counter() - start
                counts[name + ".calls"] += 1
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Tracer":
        """Wrap every traced entry point (idempotent per tracer)."""
        if self._installed:
            return self
        self._installed = True
        from repro.core import cache, engine, experiments, parallel, proof
        from repro.smt import lia, simplex, solver

        counts = self.counts
        tracer = self

        # -- query layer: SAT core (via Solver.check), theory, simplex ----
        def make_check(original):
            def check(solver_self, *args, **kwargs):
                start = perf_counter()
                outcome = original(solver_self, *args, **kwargs)
                elapsed = perf_counter() - start
                counts["check.s"] += elapsed
                counts["check.calls"] += 1
                if tracer._query_depth:
                    counts["check.in_query_s"] += elapsed
                stats, profile = solver_self.stats, solver_self.profile
                for key in ("conflicts", "decisions", "restarts", "learned",
                            "reduced"):
                    counts["sat." + key] += stats.get(key, 0)
                counts["lia.splits"] += stats.get("splits", 0)
                for key in ("propagations", "visited_watchers",
                            "analyze_steps"):
                    counts["sat." + key] += profile.get(key, 0)
                return outcome

            return check

        self._patch(solver.Solver, "check", make_check)

        def make_theory(original, counter):
            def theory_call(*args):
                start = perf_counter()
                conflict = original(*args)
                counts["theory.s"] += perf_counter() - start
                counts[counter] += 1
                if conflict is not None:
                    counts["theory.conflicts"] += 1
                return conflict

            return theory_call

        self._patch(lia.LiaBridge, "assert_index",
                    lambda original: make_theory(original, "theory.asserts"))
        self._patch(lia.LiaBridge, "final_check",
                    lambda original: make_theory(original, "theory.final_checks"))
        self._timed(simplex.Simplex, "check", "simplex")

        # -- build layers --------------------------------------------------
        def network_size(network, _args):
            size = network.stats()
            counts["build.queues"] += size["queues"]
            counts["build.channels"] += size["channels"]

        self._timed(experiments.ScenarioSpec, "build", "build", network_size)
        self._timed(engine, "derive_colors", "colors",
                    lambda colors, _a: tracer.add("colors.pairs", colors.total_pairs()))
        self._timed(engine, "encode_deadlock", "encode",
                    lambda encoding, _a: tracer.add("encode.cases", len(encoding.cases)))
        self._timed(engine, "generate_invariants", "invariants",
                    lambda rows, _a: tracer.add("invariants.rows", len(rows)))
        # The CDCL core takes the loaded clauses lazily at the first check,
        # so count them where the load put them: the solver's CNF builder.
        self._timed(engine.SessionSpec, "load_solver", "load",
                    lambda loaded, _a: tracer.add("load.clauses", len(loaded._cnf.clauses)))

        # -- engine / proof: sessions, queries, witnesses -------------------
        self._timed(engine.VerificationSession, "__init__", "session.open")

        def make_query(original, sat_of):
            def query(*args, **kwargs):
                tracer._query_depth += 1
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._query_depth -= 1
                counts["query.s"] += perf_counter() - start
                counts["query.calls"] += 1
                if sat_of(result):
                    counts["query.sat"] += 1
                return result

            return query

        def engine_sat(result):
            return not result.deadlock_free and not result.timed_out

        def worker_sat(payload):
            return payload[0] not in ("unsat", "unknown")

        for name in ("verify", "verify_case"):
            self._patch(engine.VerificationSession, name,
                        lambda original: make_query(original, engine_sat))
        self._patch(parallel.WorkerSession, "run",
                    lambda original: make_query(original, worker_sat))
        self._timed(proof, "extract_witness", "witness")

        # -- orchestration: snapshot, restore, stores -----------------------
        self._timed(engine.SessionSpec, "snapshot", "snapshot")
        self._timed(parallel.WorkerSession, "__init__", "restore")

        def stored(ehash, args):
            path = args[0].snapshot_path(ehash)
            if path is not None:
                tracer.add("snapshot.bytes", path.stat().st_size)

        self._timed(cache.SnapshotStore, "store", "store.snapshot_put", stored)
        self._timed(cache.SnapshotStore, "load", "store.snapshot_get")
        self._timed(cache.VerdictStore, "put", "store.verdict_put")
        self._timed(cache.VerdictStore, "get", "store.verdict_get")

        mp_util.register_after_fork(self, Tracer._after_fork)
        return self


def merge_dumps(directory: str | os.PathLike) -> dict[str, float]:
    """Sum the counter files every traced process wrote into ``directory``."""
    total: defaultdict[str, float] = defaultdict(float)
    for path in sorted(Path(directory).glob("*.json")):
        for name, value in json.loads(path.read_text()).items():
            total[name] += value
    return dict(total)


def layer_metrics(raw: dict) -> dict[str, float]:
    """Raw per-process sums → the per-layer metrics BENCHMARK.json lists."""

    def get(name: str) -> float:
        return float(raw.get(name, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    theory_calls = get("theory.asserts") + get("theory.final_checks")
    store_s = sum(
        get(f"store.{part}.s")
        for part in ("snapshot_put", "snapshot_get", "verdict_put", "verdict_get")
    )
    metrics = {
        "check.calls": get("check.calls"),
        "check.s": get("check.s"),
        "sat.self_s": get("check.s") - get("theory.s"),
        "sat.conflicts": get("sat.conflicts"),
        "sat.decisions": get("sat.decisions"),
        "sat.propagations": get("sat.propagations"),
        "sat.restarts": get("sat.restarts"),
        "sat.learned": get("sat.learned"),
        "sat.reduced": get("sat.reduced"),
        "sat.reduced_ratio": ratio(get("sat.reduced"), get("sat.learned")),
        "sat.visited_watchers": get("sat.visited_watchers"),
        "sat.analyze_steps": get("sat.analyze_steps"),
        "theory.asserts": get("theory.asserts"),
        "theory.s": get("theory.s"),
        "theory.conflicts": get("theory.conflicts"),
        "theory.conflict_ratio": ratio(get("theory.conflicts"), theory_calls),
        "simplex.checks": get("simplex.calls"),
        "simplex.s": get("simplex.s"),
        "lia.splits": get("lia.splits"),
        "build.calls": get("build.calls"),
        "build.s": get("build.s"),
        "build.queues": get("build.queues"),
        "build.channels": get("build.channels"),
        "colors.s": get("colors.s"),
        "colors.pairs": get("colors.pairs"),
        "encode.s": get("encode.s"),
        "encode.cases": get("encode.cases"),
        "invariants.s": get("invariants.s"),
        "invariants.rows": get("invariants.rows"),
        "load.s": get("load.s"),
        "load.clauses": get("load.clauses"),
        "session.open_s": get("session.open.s"),
        "query.calls": get("query.calls"),
        "query.s": get("query.s"),
        "query.sat": get("query.sat"),
        "engine.overhead_s": get("query.s") - get("check.in_query_s"),
        "witness.calls": get("witness.calls"),
        "witness.s": get("witness.s"),
        "sizing.probes": get("sizing.probes"),
        "sizing.build_s": get("sizing.build_s"),
        "sizing.query_s": get("sizing.query_s"),
        "snapshot.calls": get("snapshot.calls"),
        "snapshot.s": get("snapshot.s"),
        "snapshot.bytes": get("snapshot.bytes"),
        "restore.calls": get("restore.calls"),
        "restore.s": get("restore.s"),
        "store.s": store_s,
    }
    for name in SERVICE_METRICS:
        metrics[name] = get(name)
    return metrics


#: Service-layer metrics; the load generator records them from responses.
SERVICE_METRICS = (
    "service.requests",
    "service.hit_ratio",
    "service.hits.cold",
    "service.hits.hot",
    "service.hits.build",
    "service.server_p50_ms",
    "service.frame_p50_ms",
    "service.solve_p50_ms",
    "service.errors",
)
