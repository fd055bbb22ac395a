"""E4 — Figure 4: minimal queue sizes vs mesh size and directory position.

Regenerates the Figure-4 grid for 2×2 and 3×3 meshes (the paper's 4×4 and
6×6 scenarios behind the ``ADVOCAT_BIG`` environment variable — several
minutes in pure Python).
Each mesh's directory-position row is declared as an experiment grid
(:class:`repro.core.Experiment`) and answered by the deterministic
``jobs=1`` scheduler, so the reported numbers are exactly what the sharded
drivers (``examples/queue_sizing.py --jobs N`` and the pinned grid in
``tests/core/test_experiments.py``) must reproduce byte-for-byte.

Shape expectations: minimal size grows with mesh size; in this
reproduction's single-ejection-queue router the directory position does
not change the minimum (the paper's per-direction input queues make it
row-dependent instead — see EXPERIMENTS.md for the comparison).
"""

import os

from conftest import report

from repro.core import Experiment, ScenarioSpec
from repro.fabrics import MeshTopology


def _sweep(n: int) -> dict[tuple[int, int], int]:
    experiment = Experiment(
        f"fig4-{n}x{n}",
        [
            ScenarioSpec(
                builder="abstract_mi_mesh",
                kwargs={"width": n, "height": n, "directory_node": pos},
                mode="search",
            )
            for pos in MeshTopology(n, n).probe_positions()
        ],
    )
    result = experiment.run(jobs=1)
    return {
        pos: scenario.minimal_size
        for pos, scenario in zip(MeshTopology(n, n).probe_positions(), result.scenarios)
    }


def test_fig4_2x2(benchmark):
    sizes = benchmark.pedantic(lambda: _sweep(2), rounds=1, iterations=1)
    report(
        "E4/Figure 4: 2x2 minimal queue sizes per directory position",
        [f"directory {pos}: {size}" for pos, size in sorted(sizes.items())],
    )
    assert sizes[(0, 0)] == 3


def test_fig4_3x3(benchmark):
    sizes = benchmark.pedantic(lambda: _sweep(3), rounds=1, iterations=1)
    report(
        "E4/Figure 4: 3x3 minimal queue sizes per directory position "
        "(paper 4x4: 15 centre / 23 edge; shape: grows with mesh size)",
        [f"directory {pos}: {size}" for pos, size in sorted(sizes.items())],
    )
    assert all(size > 3 for size in sizes.values()), (
        "3x3 minima must exceed the 2x2 minimum"
    )


def test_fig4_4x4(benchmark):
    if not os.environ.get("ADVOCAT_BIG"):
        import pytest

        pytest.skip("set ADVOCAT_BIG=1 for the 4x4 sweep")
    sizes = benchmark.pedantic(lambda: _sweep(4), rounds=1, iterations=1)
    report(
        "E4/Figure 4: 4x4 minimal queue sizes",
        [f"directory {pos}: {size}" for pos, size in sorted(sizes.items())],
    )
    assert all(size > 8 for size in sizes.values()), (
        "4x4 minima must exceed the 3x3 minimum"
    )


def test_fig4_6x6(benchmark):
    if not os.environ.get("ADVOCAT_BIG"):
        import pytest

        pytest.skip("set ADVOCAT_BIG=1 for the 6x6 sweep")
    sizes = benchmark.pedantic(lambda: _sweep(6), rounds=1, iterations=1)
    report(
        "E4/Figure 4: 6x6 minimal queue sizes "
        "(paper: 29 per-VC / 58 without)",
        [f"directory {pos}: {size}" for pos, size in sorted(sizes.items())],
    )
    assert all(size > 15 for size in sizes.values()), (
        "6x6 minima must exceed the 4x4 minimum"
    )
