"""Launcher for the verification service, and its client-side handle.

Run as a script, this starts ``repro.core.service.main()`` in the
current interpreter (which sidesteps the ``runpy`` warning
``python -m repro.core.service`` prints), after starting the speed gauge
(see gauge.py) and, when ``--trace-dir`` is given, installing the layer
trace::

    python3 perfbench/server.py --gauge-dir G [--trace-dir DIR] -- --cache-dir C --port 0 --jobs 1

Imported, :class:`ServiceProcess` starts that script as a child process,
reads the server's CPU and peak memory from ``/proc``, stops it with the
``shutdown`` op, waits a bounded time for it to exit, checks that it left
no child process behind and removes its cache directory.
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import shutil
import subprocess
import sys
import time
from pathlib import Path

from measure import proc_alive, proc_children, proc_cpu_s, proc_peak_rss_mb

HERE = Path(__file__).resolve().parent


class ServiceProcess:
    """One server process with a fresh cache directory."""

    def __init__(self, cache_dir: Path, gauge_dir: Path,
                 trace_dir: Path | None = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.gauge_dir = gauge_dir
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.children: list[int] = []

    def start(self, timeout: float = 60.0) -> int:
        """Launch the server and wait for its ``serving on`` line."""
        self.cache_dir.mkdir(parents=True, exist_ok=False)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--gauge-dir", str(self.gauge_dir)]
        if self.trace_dir is not None:
            Path(self.trace_dir).mkdir(parents=True, exist_ok=True)
            command += ["--trace-dir", str(self.trace_dir)]
        command += ["--", "--cache-dir", str(self.cache_dir), "--port", "0",
                    "--jobs", "1"]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE)
        line = _read_line(self.proc, timeout)
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return self.port

    def usage(self) -> tuple[float, float]:
        """(CPU seconds, summed peak RSS in MiB) of the server and its
        children, read from ``/proc``; remembers the children seen."""
        assert self.proc is not None
        pids = [self.proc.pid, *proc_children(self.proc.pid)]
        self.children = sorted(set(self.children) | set(pids[1:]))
        cpu = rss = 0.0
        for pid in pids:
            try:
                cpu += proc_cpu_s(pid)
                rss += proc_peak_rss_mb(pid)
            except FileNotFoundError:
                continue
        return cpu, rss

    def stop(self, client, timeout: float = 30.0) -> list[str]:
        """Shut the server down; returns the problems seen (empty when
        it exited 0 within ``timeout`` and left no child behind)."""
        problems: list[str] = []
        if self.proc is None:
            return problems
        self.usage()  # last look at the children before they are reaped
        try:
            if client is not None:
                client.request("shutdown")
        except OSError as error:
            problems.append(f"shutdown request failed: {error}")
        try:
            code = self.proc.wait(timeout=timeout)
            if code != 0:
                problems.append(f"server exited with code {code}")
        except subprocess.TimeoutExpired:
            problems.append(f"server still running {timeout:.0f}s after shutdown")
            self.proc.kill()
            self.proc.wait()
        for pid in self.children:
            if proc_alive(pid):
                problems.append(f"server left child {pid} running")
                os.kill(pid, signal.SIGKILL)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return problems

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    end = time.monotonic() + timeout
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"no output from pid {proc.pid} in {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline().decode()
            if not line:
                proc.wait()
                raise RuntimeError(f"pid {proc.pid} exited with {proc.returncode}")
            return line.strip()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gauge-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.service_args
    if rest and rest[0] == "--":
        rest = rest[1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    from gauge import Gauge

    gauge = Gauge(args.gauge_dir).start()
    tracer = None
    if args.trace_dir is not None:
        from layertrace import Tracer

        tracer = Tracer(args.trace_dir).install()
    from repro.core import service

    try:
        service.main(rest)
    finally:
        gauge.stop()
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    main()
