#!/usr/bin/env python3
"""CI benchmark-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

Compares freshly produced benchmark records (repository root, written by
the ``bench_*.py`` standalone runs) against the committed baselines in
``benchmarks/baselines/`` — records produced by the *same invocations* CI
uses, so the comparison is config-for-config.  The job fails on

* **verdict divergence** — any ``verdict_sha`` (or ``*_verdict_sha``)
  field differing from the baseline, or any ``verdicts_*`` boolean flag
  that is not ``True`` in the fresh record.  Verdict bytes are canonical
  and machine-independent, so this gate holds on every runner.
* **config drift** — fresh and baseline records disagreeing on their
  ``smoke`` flag, or a baseline sha path missing from the fresh record:
  both mean the gate is comparing different experiments, which is a CI
  misconfiguration, not a pass.

Usage::

    python benchmarks/check_bench.py BENCH_resilience.json BENCH_service.json
    python benchmarks/check_bench.py --baseline-dir benchmarks/baselines \
        --fresh-dir . BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


def walk_fields(record, path=""):
    """Yield ``(dotted.path, value)`` for every leaf of a JSON record."""
    if isinstance(record, dict):
        for key, value in record.items():
            yield from walk_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(record, list):
        for index, value in enumerate(record):
            yield from walk_fields(value, f"{path}[{index}]")
    else:
        yield path, record


def _leaf_name(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def is_sha_field(path: str) -> bool:
    return _leaf_name(path).endswith("verdict_sha")


def is_verdict_flag(path: str) -> bool:
    name = _leaf_name(path)
    return name.startswith("verdicts_") or name.startswith("verdict_sha_")


def compare_records(name: str, fresh: dict, baseline: dict) -> list[str]:
    """All gate failures for one record pair (empty = pass)."""
    failures: list[str] = []
    fresh_fields = dict(walk_fields(fresh))
    baseline_fields = dict(walk_fields(baseline))

    if baseline_fields.get("smoke") != fresh_fields.get("smoke"):
        # Keep going: the remaining checks are apples-to-oranges under
        # drift, but an early return here would hide every other failure
        # in this record from the report.
        failures.append(
            f"{name}: config drift — baseline smoke="
            f"{baseline_fields.get('smoke')} vs fresh "
            f"{fresh_fields.get('smoke')} (regenerate the baseline with "
            "the CI invocation)"
        )

    for path, value in baseline_fields.items():
        if is_sha_field(path):
            fresh_value = fresh_fields.get(path)
            if fresh_value is None:
                failures.append(
                    f"{name}: verdict field {path} missing from the fresh "
                    "record"
                )
            elif fresh_value != value:
                failures.append(
                    f"{name}: VERDICT DIVERGENCE at {path}: fresh "
                    f"{fresh_value} != baseline {value}"
                )

    for path, value in fresh_fields.items():
        if is_verdict_flag(path) and isinstance(value, bool) and not value:
            failures.append(f"{name}: verdict flag {path} is False")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+",
                        help="record file names, e.g. BENCH_service.json")
    parser.add_argument("--baseline-dir", type=Path,
                        default=DEFAULT_BASELINE_DIR,
                        help="committed baseline directory")
    parser.add_argument("--fresh-dir", type=Path, default=REPO_ROOT,
                        help="where the fresh records were written")
    args = parser.parse_args()
    print(f"check_bench: {len(args.records)} record(s)")

    failures: list[str] = []
    for record in args.records:
        name = Path(record).name
        fresh_path = args.fresh_dir / name
        baseline_path = args.baseline_dir / name
        if not baseline_path.exists():
            failures.append(
                f"{name}: no committed baseline at {baseline_path} "
                "(generate one with the CI invocation and commit it)"
            )
            continue
        if not fresh_path.exists():
            failures.append(
                f"{name}: fresh record missing at {fresh_path} "
                "(did the benchmark step run?)"
            )
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(baseline_path.read_text())
        record_failures = compare_records(name, fresh, baseline)
        failures.extend(record_failures)
        print(f"  {name}: {'FAIL' if record_failures else 'ok'}")

    if failures:
        print("\nbenchmark-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
