"""Regenerate the committed reference answers under ``reference/``.

    python3 perfbench/make_reference.py

The answers come from plain sequential :class:`VerificationSession`
queries with eager invariants, never from the code paths the benchmark
times (no service, no size search), so a benchmark run checks its
verdicts against an independent derivation.  The fig4 minima are not
computed here: they are the EXPERIMENTS.md tables, kept in
``designs.FIG4``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import designs  # noqa: E402
from repro.core.engine import VerificationSession  # noqa: E402
from repro.core.experiments import ScenarioSpec  # noqa: E402


def verdict_of(result) -> str:
    return "deadlock-free" if result.deadlock_free else "deadlock-candidate"


def open_session(builder: str, kwargs: dict, size: int | None = None):
    network = ScenarioSpec(builder=builder, kwargs=kwargs).build(size)
    session = VerificationSession(network)
    session.add_invariants()
    return session


def case_table() -> dict:
    table = {}
    for builder, kwargs, size, _ in designs.CASE_DESIGNS:
        session = open_session(builder, kwargs, size)
        table[designs.design_key(builder, kwargs, size)] = {
            case.label: verdict_of(session.verify_case(case))
            for case in session.encoding.cases
        }
    return table


def served_table() -> dict:
    table = {}
    for builder, kwargs in designs.SERVICE_HOT:
        session = open_session(builder, kwargs)
        default = session.queue_sizes
        for case in session.encoding.cases:
            table[designs.served_key("verify_channel", builder, kwargs, case.label)] = (
                verdict_of(session.verify_case(case))
            )
        for size in designs.SERVICE_SOLVE_SIZES:
            session.resize_queues(size)
            for case in session.encoding.cases:
                key = designs.served_key(
                    "verify_channel", builder, kwargs, case.label, size
                )
                table[key] = verdict_of(session.verify_case(case))
        session.resize_queues(default)
    for builder, kwargs in designs.SERVICE_BUILDS:
        session = open_session(builder, kwargs)
        table[designs.served_key("verify", builder, kwargs)] = verdict_of(
            session.verify()
        )
    return table


def main() -> None:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    fig4 = {
        designs.design_key(builder, kwargs): minimum
        for builder, kwargs, minimum in designs.FIG4
    }
    for name, payload in (
        ("fig4_minima.json", fig4),
        ("case_verdicts.json", case_table()),
        ("served_verdicts.json", served_table()),
    ):
        (out / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out / name} ({len(payload)} entries)")


if __name__ == "__main__":
    main()
