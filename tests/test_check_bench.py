"""Unit tests for the CI benchmark-regression gate (benchmarks/check_bench.py)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench.py",
)
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


BASE = {
    "smoke": True,
    "grid": {"verdict_sha": "abc123", "verdicts_byte_identical": True},
    "resume": {"resumed_s": 0.1},
}


def _compare(fresh, baseline=BASE):
    return check_bench.compare_records("BENCH_x.json", fresh, baseline)


def test_identical_records_pass():
    assert _compare(BASE) == []


def test_verdict_sha_divergence_fails():
    fresh = {**BASE, "grid": {**BASE["grid"], "verdict_sha": "deadbeef"}}
    failures = _compare(fresh)
    assert any("VERDICT DIVERGENCE" in f for f in failures)


def test_missing_sha_path_fails():
    fresh = {**BASE, "grid": {"verdicts_byte_identical": True}}
    failures = _compare(fresh)
    assert any("missing from the fresh record" in f for f in failures)


def test_false_verdict_flag_fails():
    fresh = {
        **BASE,
        "grid": {**BASE["grid"], "verdicts_byte_identical": False},
    }
    failures = _compare(fresh)
    assert any("is False" in f for f in failures)


def test_smoke_flag_mismatch_is_config_drift():
    fresh = {**BASE, "smoke": False}
    failures = _compare(fresh)
    assert len(failures) == 1
    assert "config drift" in failures[0]


def test_config_drift_does_not_hide_other_failures():
    fresh = {
        "smoke": False,
        "grid": {
            "verdict_sha": "deadbeef",
            "verdicts_byte_identical": False,
        },
        "resume": {"resumed_s": 0.1},
    }
    failures = _compare(fresh)
    assert any("config drift" in f for f in failures)
    assert any("VERDICT DIVERGENCE" in f for f in failures)
    assert any("is False" in f for f in failures)


def test_main_reports_all_failing_records(tmp_path, monkeypatch, capsys):
    """Every failing record shows up in one run — no first-failure exit."""
    import json

    baseline_dir = tmp_path / "baselines"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    for name in ("BENCH_a.json", "BENCH_b.json"):
        (baseline_dir / name).write_text(json.dumps(BASE))
        broken = {**BASE, "grid": {**BASE["grid"], "verdict_sha": "oops"}}
        (fresh_dir / name).write_text(json.dumps(broken))
    (baseline_dir / "BENCH_ok.json").write_text(json.dumps(BASE))
    (fresh_dir / "BENCH_ok.json").write_text(json.dumps(BASE))

    monkeypatch.setattr(
        "sys.argv",
        [
            "check_bench.py",
            "--baseline-dir", str(baseline_dir),
            "--fresh-dir", str(fresh_dir),
            "BENCH_a.json", "BENCH_b.json", "BENCH_ok.json",
        ],
    )
    assert check_bench.main() == 1
    output = capsys.readouterr()
    assert "BENCH_a.json: VERDICT DIVERGENCE" in output.err
    assert "BENCH_b.json: VERDICT DIVERGENCE" in output.err
    assert "BENCH_ok.json: ok" in output.out
