"""One round of one workload, in a process of its own.

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR [--trace]

``run.py`` starts this with ``PYTHONHASHSEED`` pinned per workload, so
the solver's search path is the same in every process and under every
seed.  It prints ``READY`` once set-up is done, then one JSON line with
what the round recorded, the gauge's speed factors for set-up and for
the timed run (see gauge.py), and, traced, the summed layer counters of
every process the round used.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gauge import Gauge, load_passes, speed_factor  # noqa: E402
from layertrace import Tracer, merge_dumps  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)
    tracer = Tracer(tmp / "trace").install() if args.trace else None
    ctx = Round(args.workload, args.seed, tmp, tracer)
    workload = WORKLOADS[args.workload](ctx)
    gauge = Gauge(tmp / "gauge").start()
    try:
        setup_start = perf_counter()
        workload.setup()
        setup_end = perf_counter()
        print("READY", flush=True)
        workload.run()
    finally:
        workload.close()
        gauge.stop()
    passes = load_passes(tmp / "gauge")
    payload = ctx.to_json()
    payload["scale"] = {
        "setup": speed_factor(passes, setup_start, setup_end),
        "run": speed_factor(passes, *ctx.window),
    }
    if tracer is not None:
        (tmp / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump()
        payload["counts"] = merge_dumps(tmp / "trace")
    print(json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
