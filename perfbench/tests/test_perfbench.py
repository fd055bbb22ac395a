"""Unit tests for the benchmark's own helpers: guarded percentiles, error
accounting, the layer-metric derivations and the no-checkout exit.

Run with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, imported without leaving them on sys.path."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield {
            name: importlib.import_module(name)
            for name in ("designs", "gauge", "measure", "layertrace", "run")
        }
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            if getattr(sys.modules[name], "__file__", "") and str(BENCH) in (
                sys.modules[name].__file__ or ""
            ):
                del sys.modules[name]


# -- percentiles --------------------------------------------------------------


def test_percentile_is_nearest_rank_with_count(bench):
    measure = bench["measure"]
    samples = list(range(100, 0, -1))  # unsorted on purpose
    assert measure.percentile(samples, 50) == (50, 100)
    assert measure.percentile(samples, 90) == (90, 100)


@pytest.mark.parametrize(
    "count, q, ok",
    [(20, 50, True), (19, 50, False), (100, 90, True), (99, 90, False),
     (1000, 99, True), (999, 99, False)],
)
def test_percentile_needs_ten_samples_beyond(bench, count, q, ok):
    measure = bench["measure"]
    samples = [float(i) for i in range(count)]
    if ok:
        value, seen = measure.percentile(samples, q)
        assert seen == count
        assert sum(1 for s in samples if s > value) >= measure.MIN_BEYOND
    else:
        with pytest.raises(measure.TooFewSamples):
            measure.percentile(samples, q)


def test_percentile_rejects_out_of_range_q(bench):
    with pytest.raises(ValueError):
        bench["measure"].percentile([1.0] * 50, 100)


def test_describe_percentile_states_count_or_refusal(bench):
    describe = bench["measure"].describe_percentile
    assert describe([1.0] * 30, 50) == "p50 1.000 ms (n=30)"
    assert describe([1.0] * 30, 90).startswith("p90 refused: p90 of 30 samples")


# -- error accounting ---------------------------------------------------------


def test_tally_grades_each_failure_kind(bench):
    tally = bench["measure"].Tally()
    assert tally.record(3, 3) is None
    assert tally.record("deadlock-free", "deadlock-candidate") == "wrong"
    assert tally.record("deadlock-free", "timeout") == "timeout"
    assert tally.record("deadlock-free", RuntimeError("overloaded")) == "error"
    assert tally.record(None, "deadlock-free") == "unreferenced"
    assert tally.attempted == 5
    assert tally.failed == 4
    assert tally.error_rate == pytest.approx(0.8)
    assert tally.to_json() == {
        "attempted": 5,
        "failures": {"wrong": 1, "timeout": 1, "error": 1, "unreferenced": 1},
    }


def test_tally_error_rate_is_zero_when_all_pass_or_none_ran(bench):
    tally = bench["measure"].Tally()
    assert tally.error_rate == 0.0
    tally.record("x", "x")
    assert (tally.failed, tally.error_rate) == (0, 0.0)


def test_tally_merges_counts_and_non_op_failures(bench):
    total = bench["measure"].Tally()
    total.merge({"attempted": 10, "failures": {"wrong": 1}})
    total.merge({"attempted": 30, "failures": {"wrong": 1, "timeout": 1}})
    total.fail("server")
    assert total.attempted == 40
    assert total.failures == {"wrong": 2, "timeout": 1, "server": 1}
    assert total.error_rate == pytest.approx(0.1)


def test_grade_sums_round_tallies_and_names_problems(bench):
    records = [
        {"tally": {"attempted": 10, "failures": {}}, "problems": []},
        {"tally": {"attempted": 10, "failures": {"wrong": 1, "server": 1}},
         "problems": ["server left child 123 running"]},
    ]
    tally, notes = bench["run"].grade(records)
    assert (tally.attempted, tally.failed) == (20, 2)
    assert "server left child 123 running" in notes
    assert "wrong: 1" in notes


# -- repetitions ----------------------------------------------------------------


def test_repetition_count_depends_on_seconds_only(bench):
    run = bench["run"]
    for workload in run.REPETITION_S:
        assert run.repetitions(workload, 1) == run.MIN_REPS
        assert run.repetitions(workload, 600) > run.MIN_REPS
    assert run.hash_seed("fig4-search") == run.hash_seed("fig4-search")
    assert run.hash_seed("fig4-search") != run.hash_seed("case-fanout")


def test_step_estimate_scales_then_takes_each_steps_median(bench):
    def record(segments, factor=1.0):
        return {"segments_ms": segments, "scale": {"run": factor}}

    records = [record([1.0, 9.0, 5.0]), record([2.0, 3.0, 5.5]),
               record([16.0, 8.0, 12.0], 0.5)]
    estimate = bench["run"].step_estimate
    assert estimate(records, "segments_ms") == [2.0, 4.0, 5.5]
    assert estimate(records, "segments_ms", min) == [1.0, 3.0, 5.0]
    with pytest.raises(RuntimeError):
        estimate(records + [record([1.0])], "segments_ms")


def test_speed_factor_uses_the_passes_inside_the_window(bench):
    gauge = bench["gauge"]
    slow = 2 * gauge.REFERENCE_S
    passes = [(1.0, slow), (2.0, slow), (3.0, slow), (4.0, 50 * slow),
              (9.0, gauge.REFERENCE_S)]
    # The interquartile mean leaves out the pass that lost the CPU.
    assert gauge.speed_factor(passes, 0.5, 4.5) == pytest.approx(0.5)
    assert gauge.speed_factor(passes, 8.0, 10.0) == pytest.approx(1.0)
    assert gauge.speed_factor(passes, 5.0, 6.0) == 1.0  # nothing to go by


def test_gauge_times_busy_passes_and_dumps_them(bench, tmp_path):
    gauge = bench["gauge"].Gauge(tmp_path).start()
    start = time.perf_counter()
    while time.perf_counter() < start + 10 * bench["gauge"].INTERVAL_S:
        pass
    gauge.stop()
    passes = bench["gauge"].load_passes(tmp_path)
    assert passes and all(start <= at <= time.perf_counter() for at, _ in passes)
    assert bench["gauge"].speed_factor(passes, start, time.perf_counter()) > 0


# -- layer metrics --------------------------------------------------------------


def test_layer_metrics_derive_self_times_and_ratios(bench):
    layertrace = bench["layertrace"]
    metrics = layertrace.layer_metrics({
        "check.s": 10.0, "theory.s": 4.0, "check.in_query_s": 9.0,
        "query.s": 9.5, "sat.learned": 200, "sat.reduced": 50,
        "theory.asserts": 90, "theory.final_checks": 10,
        "theory.conflicts": 5, "simplex.calls": 7,
    })
    assert metrics["sat.self_s"] == pytest.approx(6.0)
    assert metrics["engine.overhead_s"] == pytest.approx(0.5)
    assert metrics["sat.reduced_ratio"] == pytest.approx(0.25)
    assert metrics["theory.conflict_ratio"] == pytest.approx(0.05)
    assert metrics["simplex.checks"] == 7
    assert metrics["snapshot.calls"] == 0.0  # absent layers report zero


def test_per_layer_metrics_match_benchmark_json(bench):
    listed = {
        entry["name"]
        for entry in json.loads((BENCH.parent / "BENCHMARK.json").read_text())[
            "per_layer"
        ]
    }
    produced = set(bench["layertrace"].layer_metrics({}))
    assert listed == produced | {"trace.overhead_ratio"}


# -- references and the contract --------------------------------------------------


def test_references_cover_every_design(bench):
    designs = bench["designs"]
    reference = BENCH / "reference"
    minima = json.loads((reference / "fig4_minima.json").read_text())
    assert minima == {
        designs.design_key(builder, kwargs): minimum
        for builder, kwargs, minimum in designs.FIG4
    }
    cases = json.loads((reference / "case_verdicts.json").read_text())
    for builder, kwargs, size, draws in designs.CASE_DESIGNS:
        table = cases[designs.design_key(builder, kwargs, size)]
        assert 0 < draws <= len(table)
    served = json.loads((reference / "served_verdicts.json").read_text())
    for builder, kwargs in designs.SERVICE_BUILDS:
        assert designs.served_key("verify", builder, kwargs) in served


def test_run_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

