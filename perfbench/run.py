"""The repository's benchmark: three workloads, one command.

    python3 perfbench/run.py --workload fig4-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (it needs ``src/repro`` beside this
directory).  Each repetition of the seed's round runs in a child process
started with ``PYTHONHASHSEED`` pinned per workload, so the solver takes
the same search path in every process and under every seed; the seed
decides the order of the round's independent parts.  A timed run repeats
the round a fixed number of times, set by ``--seconds`` alone; every
answer is checked against the committed reference answers.

Times are scaled to a reference speed by the gauge (gauge.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
round twice untraced and twice traced, checks that the two traced runs
counted exactly the same work, and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit).  See
README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Safety stop: a run that has not finished within this fails.
BUDGET_S = 170.0
#: Seconds one repetition takes, set-up included, per workload: committed
#: estimates (2-vCPU x86 container, at its usual speed).  A timed run
#: repeats the round ``--seconds / REPETITION_S`` times, at least
#: MIN_REPS: the count follows from ``--seconds`` alone, never from how
#: fast the code under test happens to run, so two commits are compared
#: over the same count.
REPETITION_S = {"fig4-search": 13.5, "case-fanout": 11.5, "service-mix": 5.0}
MIN_REPS = 3


def repetitions(workload: str, seconds: float) -> int:
    return max(MIN_REPS, round(seconds / REPETITION_S[workload]))


def hash_seed(workload: str) -> int:
    """The ``PYTHONHASHSEED`` of every process of one workload.

    The solver's search path follows the hash seed: one design took from
    497 to 692 conflicts under different hash seeds.  Deriving it from
    ``--seed`` would make each seed a draw from that spread, which the
    benchmark would report as noise; pinned, every seed does the same
    solver work.
    """
    digest = hashlib.sha256(workload.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _lines(proc: subprocess.Popen, end: float):
    """Yield the child's stdout lines, failing once ``end`` passes."""
    fd = proc.stdout.fileno()
    pending = b""
    while True:
        remaining = end - monotonic()
        if remaining <= 0:
            raise TimeoutError(f"child {proc.pid} ran out of time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            if pending:
                yield pending.decode()
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode()


class Runner:
    """Starts round children for one (workload, seed) and collects them."""

    def __init__(self, workload: str, seed: int, tmp: Path, end: float) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.end = end
        self.started = 0

    def child(self, trace: bool = False) -> tuple[float, dict]:
        """Run one round child; returns (set-up seconds, its record)."""
        self.started += 1
        tmp = self.tmp / f"child-{self.started}"
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed(self.workload))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        env["ADVOCAT_JOBS"] = "1"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--tmp", str(tmp),
        ]
        command += ["--trace"] * trace
        start = perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            start_new_session=True,
        )
        setup_s, last = None, None
        try:
            for line in _lines(proc, self.end):
                if line == "READY" and setup_s is None:
                    setup_s = perf_counter() - start
                elif line.strip():
                    last = line
            code = proc.wait(timeout=max(1.0, self.end - monotonic()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
            shutil.rmtree(tmp, ignore_errors=True)
        if code != 0 or setup_s is None or last is None:
            raise RuntimeError(f"{self.workload} child exited with {code}")
        return setup_s, json.loads(last)


def grade(records: list[dict]):
    """The summed :class:`measure.Tally` of round records, and notes
    naming each failure kind and each server problem."""
    from measure import Tally

    tally = Tally()
    notes: list[str] = []
    for record in records:
        tally.merge(record["tally"])
        notes += record["problems"]
    notes += [f"{kind}: {n}" for kind, n in tally.failures.items()]
    return tally, notes


def step_estimate(records: list[dict], field: str, pick=statistics.median) -> list[float]:
    """Each timed step's time at the gauge's reference speed, picked
    (median by default) over the repetitions, which all run the same
    steps in the same order."""
    series = [
        [value * record["scale"]["run"] for value in record[field]]
        for record in records
    ]
    if len({len(samples) for samples in series}) != 1:
        raise RuntimeError("repetitions did not run the same steps")
    return [pick(samples) for samples in zip(*series)]


def timed_run(runner: Runner, seconds: float) -> dict:
    from measure import describe_percentile

    setups, records = [], []
    for _ in range(repetitions(runner.workload, seconds)):
        setup_s, record = runner.child()
        setups.append(setup_s * record["scale"]["setup"])
        records.append(record)
    wall = sum(step_estimate(records, "segments_ms")) / 1000.0
    latencies = step_estimate(records, "latencies_ms")
    ops = records[0]["ops"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] * r["scale"]["run"] for r in records), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in records), "MiB"),
    }
    tally, notes = grade(records)
    report = [
        f"{len(records)} repetitions of {ops} ops; unscaled wall times "
        + ", ".join(f"{r['wall_s']:.3f}" for r in records) + " s; speed factors "
        + ", ".join(f"{r['scale']['run']:.3f}" for r in records),
        f"op_p50_ms: {describe_percentile(latencies, 50)}",
        f"op_p90_ms: {describe_percentile(latencies, 90)}",
        f"error_rate {tally.error_rate:.4f} ({tally.failed} of {tally.attempted})",
    ]
    return _result(metrics, tally, notes, report)


def traced_run(runner: Runner) -> dict:
    from layertrace import DETERMINISTIC, layer_metrics

    plain = [runner.child()[1] for _ in range(2)]
    first, second = (runner.child(trace=True)[1] for _ in range(2))
    tally, notes = grade([*plain, first, second])
    differing = [
        name for name in DETERMINISTIC
        if first["counts"].get(name, 0) != second["counts"].get(name, 0)
    ]
    if differing:
        tally.fail("nondeterministic")
        notes.append("traced runs disagree on " + ", ".join(
            f"{name} ({first['counts'].get(name, 0):g} vs "
            f"{second['counts'].get(name, 0):g})" for name in differing
        ))
    metrics = {
        name: (value, _unit_of(name))
        for name, value in layer_metrics(first["counts"]).items()
    }
    # Both sides are scaled per-step bests over two repetitions, so a
    # slow spell in one repetition does not pass for trace overhead.
    traced = sum(step_estimate([first, second], "segments_ms", min))
    untraced = sum(step_estimate(plain, "segments_ms", min))
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    report = [f"deterministic counts repeat: {not differing}"]
    return _result(metrics, tally, notes, report)


def _unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _result(metrics, tally, notes, report) -> dict:
    for line in report + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig4-search", "case-fanout", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    end = monotonic() + BUDGET_S
    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, tmp, end)
        result = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
