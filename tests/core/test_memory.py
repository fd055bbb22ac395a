"""Memory in long-lived processes: a finished design gives its memory back.

A service server or pool worker builds design after design.  Reference
counting alone must free a dropped design (network model, encoding and
solver), and the intern table must not keep the terms of designs nobody
holds any more.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.engine import SessionSpec, VerificationSession
from repro.smt import terms


def _run_design(builder: str, kwargs: dict) -> None:
    session = VerificationSession(spec=SessionSpec.from_builder(builder, kwargs))
    session.add_invariants()
    session.verify()
    session.close()


def test_a_dropped_design_leaves_nothing_for_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        _run_design("msi_mesh", {"width": 2, "height": 2, "queue_size": 3})
        assert gc.collect() == 0
    finally:
        gc.enable()


# Distinct registered designs, each built, queried and dropped in turn.
SOAK_DESIGNS = [
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 2}),
    ("abstract_mi_torus", {"width": 2, "height": 2, "queue_size": 2}),
    ("abstract_mi_ring", {"n_nodes": 4, "queue_size": 2}),
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 3, "directory_node": (1, 1)}),
    ("abstract_mi_ring", {"n_nodes": 5, "queue_size": 2}),
    ("abstract_mi_torus", {"width": 2, "height": 2, "queue_size": 2, "directory_node": (1, 0)}),
]
# Keeping every design's terms, these six end at about 15,000 interned
# terms and 4.5 MiB more live memory than after the first.  Swept, the
# table stays within twice its live terms, and those of one design are
# fewer than 4,000.
MAX_GROWTH_MIB = 1.0
MAX_DESIGN_TERMS = 4_000


def test_live_memory_stays_flat_across_designs():
    gc.collect()
    # The terms other code still holds; sweeping here also restarts the
    # sweep schedule, so earlier tests do not decide when the next runs.
    held_elsewhere = terms.live_terms()
    tracemalloc.start()
    try:
        after, interned = [], []
        for builder, kwargs in SOAK_DESIGNS:
            _run_design(builder, kwargs)
            after.append(tracemalloc.get_traced_memory()[0] / 2**20)
            interned.append(len(terms._intern_table))
    finally:
        tracemalloc.stop()
    assert max(interned) <= 2 * (held_elsewhere + MAX_DESIGN_TERMS), interned
    # No term of a dropped design survives a sweep.
    assert terms.live_terms() <= held_elsewhere
    growth = max(after) - after[0]
    assert growth <= MAX_GROWTH_MIB, [round(mib, 2) for mib in after]
