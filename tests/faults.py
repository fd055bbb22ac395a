"""Inject a fault into a named module function or method for one block.

Nothing in ``src/`` knows about faults.  The chaos suite and
``benchmarks/bench_resilience.py`` patch the function whose call should
fail, the way ``cdcl_knobs`` patches the CDCL core::

    with inject(parallel, "_run_job", "kill", latch=tmp_path):
        session.verify_all_cases()

The wrapper is a ``functools.wraps`` copy of the original set on the
same module or class, so a process pool still pickles the patched
function by its name, and forked workers inherit the patch.  It counts
its calls per process and fires ``action`` on the calls numbered in
``at``:

* ``"kill"`` — ``os._exit(KILL_EXIT_CODE)``, a hard worker crash.  In the
  process that installed the fault it raises :exc:`InjectedFault`
  instead, so a fault can never take down the test runner;
* ``"raise"`` — :exc:`InjectedFault`;
* ``"break"`` — :class:`~concurrent.futures.BrokenExecutor`, a pool
  break seen by the caller.

Without a latch each fresh process counts from zero, so a kill at call 1
kills every new worker (the quarantine drill).  ``latch`` names a
directory: the first process to fire creates a marker file there with
``O_CREAT | O_EXCL`` and every later arrival, in any process, skips the
fault (the recovery drill: exactly one worker dies, once).

The patch is process-wide module state, so forked workers see it but
spawned ones do not: tests that fault pool workers skip where
``parallel._process_context()`` is not fork.  Tests import it as
``faults`` (``tests/conftest.py`` puts ``tests/`` on the import path);
the benchmark puts ``tests/`` there itself.
"""

import functools
import os
from concurrent.futures import BrokenExecutor
from unittest import mock

#: The exit code of an injected ``kill`` (recognisable in reaped children).
KILL_EXIT_CODE = 17

ACTIONS = ("kill", "raise", "break")


class InjectedFault(RuntimeError):
    """Raised by an injected ``raise``, and by a ``kill`` that fires in
    the installing process, where ``os._exit`` would end the test run."""


def inject(owner, name: str, action: str, at=1, latch=None):
    """A context manager: ``owner.name`` fails with ``action`` on each
    call whose per-process number is in ``at`` (an int or a collection
    of ints), at most once across processes when ``latch`` is given."""
    if action not in ACTIONS:
        raise ValueError(f"unknown fault action {action!r} (known: {ACTIONS})")
    calls = {at} if isinstance(at, int) else set(at)
    original = getattr(owner, name)
    installer = os.getpid()
    counts = {}

    @functools.wraps(original)
    def faulty(*args, **kwargs):
        pid = os.getpid()
        counts[pid] = count = counts.get(pid, 0) + 1
        if count in calls and _acquire(latch, f"{name}-{action}-{count}"):
            where = f"call {count} of {name}"
            if action == "break":
                raise BrokenExecutor(f"injected pool break at {where}")
            if action == "kill" and pid != installer:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFault(f"injected {action} at {where}")
        return original(*args, **kwargs)

    return mock.patch.object(owner, name, faulty)


def _acquire(latch, marker: str) -> bool:
    """Whether this arrival may fire: always without a latch, else only
    for the first process to create the marker file."""
    if latch is None:
        return True
    try:
        fd = os.open(
            os.path.join(latch, marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True
