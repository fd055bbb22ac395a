"""The minimal-queue-size walk (:func:`repro.core.minimal_queue_size`).

The search climbs ``size += 1 + size // 16`` and bisects only the last
gap.  These tests pin it against an ascending sweep over every registered
2×2 design, pin that a minimum of at most 16 is the only size the walk
proves free, and bound the probes of a fabric that deadlocks at every
size.  The last test checks the build/query time split of both entry
points.
"""

import inspect
from time import perf_counter

import pytest

from repro.core import minimal_queue_size, sweep_queue_sizes
from repro.core.experiments import registered_builders, resolve_builder
from repro.netlib import running_example

GRIDS_2X2 = [
    name
    for name in registered_builders()
    if "width" in inspect.signature(resolve_builder(name)).parameters
]


def _grid(name):
    builder = resolve_builder(name)

    def build(size):
        built = builder(width=2, height=2, queue_size=size)
        return getattr(built, "network", built)

    return build


@pytest.mark.parametrize("name", GRIDS_2X2)
def test_minimum_is_the_first_free_size_of_an_ascending_sweep(name):
    build = _grid(name)
    sizing = minimal_queue_size(build, max_size=16)
    swept = sweep_queue_sizes(build, range(1, sizing.minimal_size + 1))
    assert swept.minimal_size == sizing.minimal_size
    # One size at a time up to 16: every size up to the minimum, and
    # deadlock freedom proved once, at the minimum, never above it.
    assert sizing.probes == swept.probes


def test_size_independent_deadlock_fails_within_the_probe_bound():
    builds = []

    def build(size):
        builds.append(size)
        return resolve_builder("traffic_ring")(
            n_nodes=4, queue_size=size, escape_vcs=False
        )

    with pytest.raises(RuntimeError, match="size-independent"):
        minimal_queue_size(build, max_size=512)
    probed = builds[1:]  # the first build opens the session
    assert probed == sorted(set(probed)) and probed[-1] <= 512
    assert probed[:16] == list(range(1, 17))
    assert len(probed) == 65


@pytest.mark.parametrize(
    "run",
    [
        lambda build: minimal_queue_size(build, max_size=8),
        lambda build: sweep_queue_sizes(build, [1, 2, 3], jobs=1),
        lambda build: sweep_queue_sizes(build, [1, 2, 3], jobs=2, backend="thread"),
    ],
    ids=["search", "sweep-jobs1", "sweep-jobs2"],
)
def test_timing_split_covers_the_call(run):
    def build(size):
        return running_example(queue_size=size).network

    start = perf_counter()
    sizing = run(build)
    wall = perf_counter() - start
    assert sizing.build_seconds > 0 and sizing.query_seconds > 0
    assert sizing.build_seconds + sizing.query_seconds <= wall
