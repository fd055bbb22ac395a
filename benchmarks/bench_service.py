"""E15 — verification service: tiered caching under a mixed query load.

Standalone benchmark behind ``BENCH_service.json``.  An in-process
:class:`~repro.core.server.VerificationService` (process-pool backend,
``hot_capacity`` *below* the distinct-spec count, so the hot tier churns)
is driven over real TCP by an :class:`~repro.core.AsyncServiceClient`
load generator in four phases:

* **cold** — every ``(spec, query)`` pair once: the build tier stores
  each network's snapshot and answers the first query in the same pool
  trip; a distinct follow-up query restores the snapshot once into the
  hot tier (evicting under the capacity bound) and answers there.
* **burst** — one batch of concurrent *identical* fresh queries: the
  single-flight path must coalesce all but one onto a single solve.
* **steady** — shuffled rounds of the full query mix, plus one
  guaranteed-fresh sizes-override query per round so the hot tier
  stays exercised; everything else answers from the content-addressed
  cold store.  Client-observed p50/p99 hit latency, hit rate and
  queries/sec come from this phase.
* **identity** — every distinct verdict the service served is re-derived
  by a fresh *sequential* eager solve on a
  :class:`~repro.core.VerificationSession` (no server, no pool, no
  cache, none of the service's worker code) and must match exactly; the canonical table is hashed into ``verdict_sha``
  (machine-independent, gated fatally by ``benchmarks/check_bench.py``).

The wall-clock acceptance is the tier contrast itself — cache-hit p50 at
least ``HIT_VS_COLD_TARGET``× faster than the cold-solve p50 — a ratio
of two measurements on the *same* machine, so it is asserted on every
runner.  Shutdown must leak no child processes, and closing the hot tier
must release every interned term it held.

Run standalone:  ``python benchmarks/bench_service.py [--smoke]``
(the full run adds a fourth station ring and the 2×2 abstract-MI mesh,
plus more steady rounds).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import random
import statistics
import tempfile
import time
from pathlib import Path

from conftest import report

from repro.core import (
    AsyncServiceClient,
    ScenarioSpec,
    VerificationService,
    VerificationSession,
    run_scenario,
    verdict_sha,
)
from repro.smt.terms import live_terms

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

HIT_RATE_TARGET = 0.9
HIT_VS_COLD_TARGET = 20.0
SIZE_MAX = 8
BURST_WIDTH = 8

#: The spec whose steady-phase sizes-override misses keep the solve path
#: warm (every round pins a never-seen-before uniform size).
MISS_SPEC = {"builder": "running_example", "kwargs": {"queue_size": 2}}
#: The spec the burst phase hammers with identical concurrent queries.
BURST_SPEC = {"builder": "producer_consumer", "kwargs": {"queue_size": 4}}
#: The spec the ``size`` query searches (small cap keeps it cheap).
SIZE_SPEC = {"builder": "producer_consumer", "kwargs": {"queue_size": 2}}
#: Interned terms the server may still hold after the hot-tier churn.
#: The server interns only what its hot sessions assume (guard variables
#: and capacity pins); the smoke run ends with 70 held by the two live hot
#: sessions, where an intern table that never drops a term keeps the 104
#: that every hot session ever built.
TERMS_LIVE_CAP = 76
#: Interned terms left once the hot tier is closed, when no session holds
#: any: the smoke run leaves 2, and a table that never drops a term 104.
TERMS_AFTER_CLOSE_CAP = 2


def _specs(smoke: bool) -> list[dict]:
    specs = [
        {"builder": "running_example", "kwargs": {"queue_size": 2}},
        {"builder": "producer_consumer", "kwargs": {"queue_size": 2}},
        {"builder": "token_ring", "kwargs": {"n_stations": 3, "queue_size": 1}},
    ]
    if not smoke:
        specs.append(
            {"builder": "token_ring", "kwargs": {"n_stations": 4, "queue_size": 1}}
        )
        specs.append(
            {
                "builder": "abstract_mi_mesh",
                "kwargs": {"width": 2, "height": 2, "queue_size": 3},
            }
        )
    return specs


def _label(spec: dict) -> str:
    kwargs = ",".join(f"{k}={v}" for k, v in sorted(spec["kwargs"].items()))
    return f"{spec['builder']}({kwargs})"


def _query_mix(specs: list[dict]) -> list[tuple[str, dict]]:
    """The repeating request set: (query label, request kwargs)."""
    mix = []
    for spec in specs:
        label = _label(spec)
        mix.append((f"{label}|verify", {"op": "verify", "spec": spec}))
        mix.append(
            (
                f"{label}|channel0",
                {"op": "verify_channel", "spec": spec, "params": {"case": 0}},
            )
        )
        mix.append((f"{label}|witness", {"op": "witness", "spec": spec}))
    mix.append(
        (
            f"{_label(SIZE_SPEC)}|size",
            {"op": "size", "spec": SIZE_SPEC, "params": {"max_size": SIZE_MAX}},
        )
    )
    return mix


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


async def _timed(client: AsyncServiceClient, request: dict) -> tuple[float, dict]:
    start = time.perf_counter()
    response = await client.request(**request)
    assert response.get("ok"), response
    return (time.perf_counter() - start) * 1000.0, response


async def _drive(service: VerificationService, smoke: bool, rounds: int) -> dict:
    """The four phases against a served (real TCP) endpoint."""
    rng = random.Random(0)
    specs = _specs(smoke)
    mix = _query_mix(specs)
    served: dict[str, str] = {}  # query label -> verdict (or size record)
    miss_sizes: list[int] = []

    def observe(label: str, response: dict) -> None:
        if "minimal_size" in response:
            verdict = json.dumps(
                [response["minimal_size"], response["probes"]],
                sort_keys=True,
            )
        else:
            verdict = response["verdict"]
        previous = served.setdefault(label, verdict)
        assert previous == verdict, (
            f"{label}: served verdict flapped: {previous!r} -> {verdict!r}"
        )

    await service.serve()
    port = service.port
    # One connection per steady-round request slot: the client serialises
    # requests per connection, so shared connections would charge a hit's
    # latency with its queue-neighbour's solve time.
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", port)
        for _ in range(len(mix) + 1)
    ]
    try:
        # -- cold phase: every pair once, sequentially ------------------
        # The cold-solve baseline is the build tier only (network build
        # + first solve); hot follow-ups are already cache wins.
        cold_ms: list[float] = []
        tier_walk_ms: list[float] = []
        for label, request in mix:
            elapsed, response = await _timed(clients[0], request)
            assert response["cache"] in ("build", "hot"), response
            tier_walk_ms.append(elapsed)
            if response["cache"] == "build":
                cold_ms.append(elapsed)
            observe(label, response)

        # -- burst: concurrent identical fresh queries coalesce ---------
        # One connection per in-flight request (the client serialises
        # requests per connection, which would defeat the burst).
        before = service.stats()
        burst_label = f"{_label(BURST_SPEC)}|verify"
        burst_request = {"op": "verify", "spec": BURST_SPEC}
        burst_clients = [
            await AsyncServiceClient.connect("127.0.0.1", port)
            for _ in range(BURST_WIDTH)
        ]
        try:
            outcomes = await asyncio.gather(
                *(_timed(client, burst_request) for client in burst_clients)
            )
        finally:
            for client in burst_clients:
                await client.aclose()
        for _, response in outcomes:
            observe(burst_label, response)
        coalesced = service.stats()["coalesced"] - before["coalesced"]

        # -- steady phase A: closed-loop latency rounds -----------------
        # One outstanding request at a time: per-request latency is the
        # server's, not the queue's.  Each round shuffles the full mix
        # plus one guaranteed-fresh sizes-override miss.
        before = service.stats()
        steady_ms: list[float] = []
        hit_ms: list[float] = []
        steady_start = time.perf_counter()
        for round_index in range(rounds):
            size = 3 + round_index
            miss_sizes.append(size)
            requests = list(mix) + [
                (
                    f"{_label(MISS_SPEC)}|sizes={size}",
                    {
                        "op": "verify",
                        "spec": MISS_SPEC,
                        "params": {"sizes": size},
                    },
                )
            ]
            rng.shuffle(requests)
            for i, (label, request) in enumerate(requests):
                elapsed, response = await _timed(
                    clients[i % len(clients)], request
                )
                steady_ms.append(elapsed)
                if response["cache"] == "cold":
                    hit_ms.append(elapsed)
                observe(label, response)

        # -- steady phase B: concurrent throughput rounds ---------------
        # The whole mix in flight at once (one connection per request):
        # all archived by now, so this measures served-from-cache
        # queries/sec under genuine concurrency.
        throughput_requests = 0
        for _ in range(rounds):
            requests = list(mix)
            rng.shuffle(requests)
            outcomes = await asyncio.gather(
                *(
                    _timed(clients[i % len(clients)], request)
                    for i, (_, request) in enumerate(requests)
                )
            )
            throughput_requests += len(requests)
            for (label, _), (_, response) in zip(requests, outcomes):
                assert response["cache"] == "cold", response
                observe(label, response)
        steady_s = time.perf_counter() - steady_start
        after = service.stats()
        steady_queries = after["queries"] - before["queries"]
        steady_hits = after["hits"]["cold"] - before["hits"]["cold"]

        stats = service.stats()
    finally:
        for client in clients:
            await client.aclose()

    return {
        "served": served,
        "miss_sizes": miss_sizes,
        "cold_ms": cold_ms,
        "tier_walk_ms": tier_walk_ms,
        "burst_coalesced": coalesced,
        "steady_ms": steady_ms,
        "hit_ms": hit_ms,
        "throughput_requests": throughput_requests,
        "steady_s": steady_s,
        "steady_queries": steady_queries,
        "steady_hits": steady_hits,
        "stats": stats,
    }


def _sequential_reference(smoke: bool, miss_sizes: list[int]) -> dict[str, str]:
    """Re-derive every served verdict with fresh sequential eager solves."""
    answers: dict[str, str] = {}
    for spec in _specs(smoke) + [BURST_SPEC]:
        label = _label(spec)
        scenario = ScenarioSpec(
            builder=spec["builder"], kwargs=tuple(spec["kwargs"].items())
        )
        session_spec = scenario.session_spec()
        session_spec.generate_invariants()
        session = VerificationSession(spec=session_spec)
        answers[f"{label}|verify"] = session.verify().verdict.value
        if spec != BURST_SPEC:
            answers[f"{label}|channel0"] = session.verify_case(
                session_spec.encoding.cases[0]
            ).verdict.value
            answers[f"{label}|witness"] = session.verify().verdict.value
        if spec == MISS_SPEC:
            for size in miss_sizes:
                session.resize_queues(size)
                answers[f"{label}|sizes={size}"] = session.verify().verdict.value

    search = ScenarioSpec(
        builder=SIZE_SPEC["builder"],
        kwargs=tuple(SIZE_SPEC["kwargs"].items()),
        mode="search",
        low=1,
        max_size=SIZE_MAX,
    )
    result = run_scenario(search, query_jobs=1)
    answers[f"{_label(SIZE_SPEC)}|size"] = json.dumps(
        [
            result.minimal_size,
            {str(size): free for size, free in sorted(result.probes.items())},
        ],
        sort_keys=True,
    )
    return answers


def run_benchmarks(smoke: bool = False) -> dict:
    rounds = 5 if smoke else 20
    specs = _specs(smoke)

    cache_dir = tempfile.mkdtemp(prefix="bench-service-")

    async def _main() -> dict:
        service = VerificationService(
            cache_dir=cache_dir,
            hot_capacity=2,  # < len(specs): the hot tier must churn
            jobs=2,
            backend="process",
        )
        try:
            run = await _drive(service, smoke, rounds)
            service.hot.close_all()
            run["terms_after_close"] = live_terms()
            return run
        finally:
            await service.aclose()

    run = asyncio.run(_main())

    # Clean shutdown: aclose() must have reaped every pool worker.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = len(multiprocessing.active_children())

    reference = _sequential_reference(smoke, run["miss_sizes"])
    assert set(run["served"]) == set(reference), (
        "served/reference query sets diverged"
    )
    mismatches = {
        label: (run["served"][label], reference[label])
        for label in reference
        if run["served"][label] != reference[label]
    }
    assert not mismatches, f"service verdicts diverged: {mismatches}"
    identity_table = sorted(
        [label, verdict] for label, verdict in reference.items()
    )

    cold_p50 = _percentile(run["cold_ms"], 0.50)
    hit_p50 = _percentile(run["hit_ms"], 0.50)
    stats = run["stats"]
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count() or 1,
        "smoke": smoke,
        "workload": {
            "distinct_specs": len(specs) + 1,  # + the burst spec
            "specs": [_label(spec) for spec in specs],
            "hot_capacity": 2,
            "steady_rounds": rounds,
            "requests_per_round": len(_query_mix(specs)) + 1,
            "clients": len(_query_mix(specs)) + 1,
        },
        "cold": {
            "builds": len(run["cold_ms"]),
            "p50_ms": round(cold_p50, 3),
            "max_ms": round(max(run["cold_ms"]), 3),
            "tier_walk_p50_ms": round(_percentile(run["tier_walk_ms"], 0.50), 3),
        },
        "burst": {
            "width": BURST_WIDTH,
            "coalesced": run["burst_coalesced"],
        },
        "steady": {
            "requests": len(run["steady_ms"]) + run["throughput_requests"],
            "hit_p50_ms": round(hit_p50, 3),
            "hit_p99_ms": round(_percentile(run["hit_ms"], 0.99), 3),
            "mean_ms": round(statistics.fmean(run["steady_ms"]), 3),
            "queries_per_s": round(
                (len(run["steady_ms"]) + run["throughput_requests"])
                / run["steady_s"],
                1,
            ),
            "hit_rate": round(run["steady_hits"] / run["steady_queries"], 4),
        },
        "hit_vs_cold_x": round(cold_p50 / max(hit_p50, 1e-9), 1),
        "tiers": {
            "hits": stats["hits"],
            "evictions": stats["evictions"],
            "coalesced": stats["coalesced"],
            "rejected": stats["rejected"],
            "errors": stats["errors"],
            "verdicts_stored": stats["store"]["verdicts"],
            "terms_live": stats["terms_live"],
            "terms_after_close": run["terms_after_close"],
        },
        "clean_shutdown": {"leaked_children": leaked},
        "verdicts_service_identical": True,
        "verdict_sha": verdict_sha(identity_table),
    }


def check_acceptance(results: dict) -> None:
    """Machine-independent gates, re-asserted on the loaded record.

    Verdict identity, cache hygiene and the live-term cap are absolute;
    the latency gate is a same-machine ratio (hit p50 vs cold p50), so
    it holds on any runner fast or slow.
    """
    assert results["verdicts_service_identical"]
    assert results["clean_shutdown"]["leaked_children"] == 0
    assert results["tiers"]["evictions"] >= 1, (
        "hot tier never churned: capacity bound was not exercised"
    )
    assert results["tiers"]["errors"] == 0 and results["tiers"]["rejected"] == 0
    assert results["tiers"]["terms_live"] <= TERMS_LIVE_CAP, (
        f"server holds {results['tiers']['terms_live']} interned terms after "
        f"the hot-tier churn (cap {TERMS_LIVE_CAP}): evicted encodings leak"
    )
    assert results["tiers"]["terms_after_close"] <= TERMS_AFTER_CLOSE_CAP, (
        f"server holds {results['tiers']['terms_after_close']} interned terms "
        f"after closing the hot tier (cap {TERMS_AFTER_CLOSE_CAP}): closed "
        "sessions leak"
    )
    assert results["burst"]["coalesced"] >= BURST_WIDTH - 2, (
        f"only {results['burst']['coalesced']} of {BURST_WIDTH} concurrent "
        "identical queries coalesced"
    )
    assert results["steady"]["hit_rate"] >= HIT_RATE_TARGET, (
        f"steady-state hit rate {results['steady']['hit_rate']} below "
        f"{HIT_RATE_TARGET}"
    )
    assert results["hit_vs_cold_x"] >= HIT_VS_COLD_TARGET, (
        f"cache hits only {results['hit_vs_cold_x']}x faster than cold "
        f"solves (target {HIT_VS_COLD_TARGET}x)"
    )


def _record_and_report(results: dict) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    steady = results["steady"]
    tiers = results["tiers"]
    report(
        "E15: verification service under mixed load (BENCH_service.json)",
        [
            f"{results['workload']['distinct_specs']} specs through "
            f"hot_capacity={results['workload']['hot_capacity']}: "
            f"{tiers['evictions']} eviction(s), hits {tiers['hits']}",
            f"cold p50 {results['cold']['p50_ms']}ms vs hit p50 "
            f"{steady['hit_p50_ms']}ms ({results['hit_vs_cold_x']}x), "
            f"hit p99 {steady['hit_p99_ms']}ms",
            f"steady: {steady['requests']} requests, hit rate "
            f"{steady['hit_rate']}, {steady['queries_per_s']} queries/s",
            f"terms live after the churn: {tiers['terms_live']}, after "
            f"closing the hot tier: {tiers['terms_after_close']}",
            f"burst: {results['burst']['coalesced']}/"
            f"{results['burst']['width'] - 1} coalesced; clean shutdown "
            f"({results['clean_shutdown']['leaked_children']} leaked children)",
        ],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="3 specs + 5 steady rounds (CI containers); the full run "
        "adds a 4-station ring, the 2x2 abstract-MI mesh and 20 rounds",
    )
    args = parser.parse_args()
    results = run_benchmarks(smoke=args.smoke)
    _record_and_report(results)
    check_acceptance(results)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
