"""The three workloads, each split into an untimed ``setup`` and a timed
``run`` of one round.

A round is a fixed amount of work.  The seed decides only the order
of the independent parts of it (designs, service requests) through the
round's seeded generator; what each solver session is asked, and in
what order, is fixed per design, so every seed does the same solver
work and seeds differ in order only.  Every answer is graded against
the committed reference under ``reference/``; one op's latency is
recorded in milliseconds.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from time import perf_counter, process_time

import designs
from measure import Tally, percentile, proc_peak_rss_mb

HERE = Path(__file__).resolve().parent

#: Per-op budgets, passed through the public ``deadline`` /
#: ``deadline_s`` parameters: generous (tens of times the usual op
#: time), so only a hang reaches them — and a hang counts as a failure
#: instead of stalling the run.
DESIGN_DEADLINE_S = 60.0
CASE_DEADLINE_S = 30.0
REQUEST_DEADLINE_S = 30.0


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / name).read_text())


class Round:
    """What one round records: ops, latencies, grades, CPU and memory."""

    def __init__(self, workload: str, seed: int, tmp: Path, tracer=None) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = Path(tmp)
        self.tracer = tracer
        self.tally = Tally()
        self.ops = 0
        self.latencies_ms: list[float] = []
        self.segments_ms: list[float] = []
        self.wall_s = 0.0
        self.window = (0.0, 0.0)
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.problems: list[str] = []

    def add(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, value)

    def segment(self, start: float) -> float:
        """Record the timed step begun at ``start``; returns its ms."""
        elapsed_ms = (perf_counter() - start) * 1000.0
        self.segments_ms.append(elapsed_ms)
        return elapsed_ms

    def op(self, start: float) -> float:
        """Record one op begun at ``start`` (also a timed step)."""
        elapsed_ms = self.segment(start)
        self.latencies_ms.append(elapsed_ms)
        self.ops += 1
        return elapsed_ms

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "latencies_ms": self.latencies_ms,
            "segments_ms": self.segments_ms,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "tally": self.tally.to_json(),
            "problems": self.problems,
        }


class Workload:
    """Base: ``run`` times ``body`` and fills wall, CPU and memory."""

    def __init__(self, ctx: Round) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        pass

    def body(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        ctx = self.ctx
        wall, cpu = perf_counter(), process_time()
        self.body()
        ctx.window = (wall, perf_counter())
        ctx.wall_s = ctx.window[1] - wall
        ctx.cpu_s += process_time() - cpu
        ctx.rss_mb += proc_peak_rss_mb(os.getpid())

    def close(self) -> None:
        pass


class Fig4Search(Workload):
    """Minimal-queue-size search (``run_scenario``, eager invariants,
    one query job, no portfolio) over the fig4 designs in seeded order.

    One op is one design; four of them are too few for any latency
    percentile, so this workload reports throughput instead.
    """

    def setup(self) -> None:
        from repro.core.experiments import ScenarioSpec, resolve_builder

        self.minima = load_reference("fig4_minima.json")
        self.specs = []
        for builder, kwargs, _ in designs.FIG4:
            resolve_builder(builder)
            spec = ScenarioSpec(builder=builder, kwargs=kwargs, query_jobs=1)
            self.specs.append((designs.design_key(builder, kwargs), spec))

    def body(self) -> None:
        from repro.core.experiments import run_scenario
        from repro.core.resilience import Deadline

        ctx = self.ctx
        order = list(self.specs)
        ctx.rng.shuffle(order)
        for key, spec in order:
            start = perf_counter()
            try:
                result = run_scenario(
                    spec, query_jobs=1, portfolio=False,
                    deadline=Deadline(seconds=DESIGN_DEADLINE_S),
                )
            except Exception as error:  # graded as a failed op
                result = error
            ctx.op(start)
            if isinstance(result, Exception):
                ctx.tally.record(self.minima.get(key), result)
                continue
            if result.failure is not None:
                got = RuntimeError(result.failure["message"])
            elif result.minimal_size is None:
                got = "timeout"
            else:
                got = result.minimal_size
            ctx.tally.record(self.minima.get(key), got)
            ctx.add("sizing.probes", len(result.probes))
            ctx.add("sizing.build_s", result.build_seconds)
            ctx.add("sizing.query_s", result.query_seconds)


class CaseFanout(Workload):
    """Per-channel diagnosis: the designs, in seeded order, are each
    built fresh and asked a fixed sample of their deadlock cases with
    ``verify_case``.  One op is one case query; builds fall between ops.
    """

    def setup(self) -> None:
        from repro.core.experiments import ScenarioSpec, resolve_builder

        self.verdicts = load_reference("case_verdicts.json")
        self.designs = []
        for builder, kwargs, size, draws in designs.CASE_DESIGNS:
            resolve_builder(builder)
            spec = ScenarioSpec(builder=builder, kwargs=kwargs)
            key = designs.design_key(builder, kwargs, size)
            self.designs.append((key, spec, size, draws))

    def body(self) -> None:
        from repro.core.engine import VerificationSession
        from repro.core.resilience import Deadline

        ctx = self.ctx
        order = list(self.designs)
        ctx.rng.shuffle(order)
        for key, spec, size, draws in order:
            start = perf_counter()
            session = VerificationSession(spec.build(size))
            session.add_invariants()
            ctx.segment(start)
            expected = self.verdicts.get(key, {})
            cases = session.encoding.cases
            for case in designs.fixed_sample(key, cases, draws):
                start = perf_counter()
                try:
                    result = session.verify_case(
                        case, deadline=Deadline(seconds=CASE_DEADLINE_S)
                    )
                except Exception as error:  # graded as a failed op
                    got = error
                else:
                    if result.timed_out:
                        got = "timeout"
                    elif result.deadlock_free:
                        got = "deadlock-free"
                    else:
                        got = "deadlock-candidate"
                ctx.op(start)
                ctx.tally.record(expected.get(case.label), got)


# Fixed composition of one service-mix round: hits repeat the warm-up
# queries; fresh solves take SOLVES_PER_SIZE fixed cases at every
# override size of every hot encoding; one build per directory position,
# each at a fixed queue size.  The seed places these requests in the
# stream and picks which warm-up answer each hit repeats; solves and
# builds keep their fixed relative order, so each hot session answers
# the same queries in the same order under every seed.  Of 250
# requests, 186 hits fill [0, 74.4) of the latency order, 60 solves
# [74.4, 98.4) and 4 builds the rest, so p50 sits among hits and p90
# among solves, each over 5 points from a mode boundary.
SERVICE_REQUESTS = 250
HITS_PER_SPEC = 16
SOLVES_PER_SIZE = 6


class ServiceMix(Workload):
    """One closed-loop client against a fresh server (``--jobs 1``):
    cold-store hits, fresh ``sizes`` overrides the hot tier solves, and
    never-seen specs the build tier builds.  One op is one request.
    """

    def setup(self) -> None:
        from repro.core.service import ServiceClient
        from server import ServiceProcess

        ctx = self.ctx
        trace_dir = ctx.tmp / "trace" if ctx.tracer is not None else None
        self.server = ServiceProcess(ctx.tmp / "cache", ctx.tmp / "gauge", trace_dir)
        self.client = None
        self.served = load_reference("served_verdicts.json")
        port = self.server.start()
        self.client = ServiceClient("127.0.0.1", port, timeout=120.0)
        # Warm-up: build each hot encoding, then answer its hit set once
        # so those answers sit in the cold store.
        hits, solves = [], []
        for builder, kwargs in designs.SERVICE_HOT:
            spec = {"builder": builder, "kwargs": kwargs}
            key = designs.design_key(builder, kwargs)
            labels = [case["label"] for case in self._ask("cases", spec)["cases"]]
            for label in designs.fixed_sample(f"{key}:hits", labels, HITS_PER_SPEC):
                request = ("verify_channel", spec, {"case": label})
                self._grade(request, self._ask(*request))
                hits.append(request)
            for size in designs.SERVICE_SOLVE_SIZES:
                solves += [
                    ("verify_channel", spec, {"case": label, "sizes": size})
                    for label in designs.fixed_sample(
                        f"{key}@{size}", labels, SOLVES_PER_SIZE
                    )
                ]
        fixed = solves + [
            ("verify", {"builder": builder, "kwargs": kwargs}, None)
            for builder, kwargs in designs.SERVICE_BUILDS
        ]
        slots = [True] * len(fixed) + [False] * (SERVICE_REQUESTS - len(fixed))
        ctx.rng.shuffle(slots)
        queue = iter(fixed)
        self.stream = [
            next(queue) if is_fixed else ctx.rng.choice(hits) for is_fixed in slots
        ]
        self.stats_before = self.client.request("stats")["stats"]

    def _ask(self, op, spec, params=None) -> dict:
        response = self.client.request(
            op, spec=spec, params=params, deadline_s=REQUEST_DEADLINE_S
        )
        if not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response.get('error')}")
        return response

    def _grade(self, request, response) -> None:
        op, spec, params = request
        params = params or {}
        key = designs.served_key(
            op, spec["builder"], spec["kwargs"], params.get("case"),
            params.get("sizes"),
        )
        if isinstance(response, BaseException):
            got = response
        elif not response.get("ok"):
            got = RuntimeError(response.get("error"))
        elif response.get("verdict") == "timeout":
            got = "timeout"
        else:
            got = response.get("verdict")
        self.ctx.tally.record(self.served.get(key), got)

    def body(self) -> None:
        ctx = self.ctx
        server_cpu, _ = self.server.usage()
        server_ms, frame_ms, solve_ms = [], [], []
        lost = 0  # requests that never got a reply; the server counts the rest
        for op, spec, params in self.stream:
            start = perf_counter()
            try:
                response = self.client.request(
                    op, spec=spec, params=params, deadline_s=REQUEST_DEADLINE_S
                )
            except OSError as error:
                response = error
            rtt_ms = ctx.op(start)
            self._grade((op, spec, params), response)
            if isinstance(response, BaseException):
                lost += 1
                continue
            if not response.get("ok"):
                continue
            server_ms.append(response["elapsed_ms"])
            frame_ms.append(rtt_ms - response["elapsed_ms"])
            if "solve_seconds" in response and response.get("cache") != "cold":
                solve_ms.append(response["solve_seconds"] * 1000.0)
        # Wall time ends with the last reply; CPU and memory are read
        # right after (stats and usage are a few milliseconds).
        server_cpu_end, server_rss = self.server.usage()
        ctx.cpu_s += server_cpu_end - server_cpu
        ctx.rss_mb += server_rss
        if ctx.tracer is not None:
            before = self.stats_before
            stats = self.client.request("stats")["stats"]
            requests = len(self.stream)
            hits = {
                tier: stats["hits"][tier] - before["hits"][tier]
                for tier in ("cold", "hot", "build")
            }
            ctx.add("service.requests", requests)
            for tier, count in hits.items():
                ctx.add(f"service.hits.{tier}", count)
            ctx.add("service.hit_ratio", hits["cold"] / requests)
            ctx.add("service.errors", stats["errors"] - before["errors"] + lost)
            for name, samples in (("server_p50_ms", server_ms),
                                  ("frame_p50_ms", frame_ms),
                                  ("solve_p50_ms", solve_ms)):
                ctx.add(f"service.{name}", percentile(samples, 50)[0])

    def close(self) -> None:
        try:
            problems = self.server.stop(self.client)
        finally:
            if self.client is not None:
                self.client.close()
            self.server.kill()
        for _ in problems:
            self.ctx.tally.fail("server")
        self.ctx.problems.extend(problems)


WORKLOADS = {
    "fig4-search": Fig4Search,
    "case-fanout": CaseFanout,
    "service-mix": ServiceMix,
}
