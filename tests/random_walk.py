"""Random-walk simulation over the executable semantics (a test oracle).

Walk the successor relation of :class:`repro.mc.Executable` with a seeded
RNG; the dynamic-validation tests check that statically derived
invariants hold in every visited state and that color derivation covers
every packet that materialises.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.mc import ExecState, Executable, Step
from repro.xmas import Network


def random_run(
    network: Network, steps: int, seed: int = 0
) -> Iterator[tuple[Step, ExecState]]:
    """Yield up to ``steps`` random (step, state) pairs from the initial
    state; stops early in a state without successors."""
    executable = Executable(network)
    rng = random.Random(seed)
    state = executable.space.initial_state()
    for _ in range(steps):
        successors = list(executable.successors(state))
        if not successors:
            return
        step, state = rng.choice(successors)
        yield step, state
