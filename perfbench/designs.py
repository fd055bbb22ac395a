"""The fixed design corpus of the three workloads, and the keys their
reference answers are stored under.

Every design is a registered builder name plus keyword arguments, the
same plain-data description :class:`repro.core.experiments.ScenarioSpec`
and the service protocol accept.
"""

from __future__ import annotations

import json
import random

# fig4-search: the paper's minimal-queue-size search.  The minima are the
# EXPERIMENTS.md tables (Figure 4 grid and the topology x protocol table).
# msi_mesh 2x2 (minimum 4) is left out: its search takes about 8 s, as
# long as the other four together, and a round must fit three times in
# one run; MSI is measured in case-fanout instead.
FIG4 = [
    ("abstract_mi_mesh", {"width": 2, "height": 2}, 3),
    ("abstract_mi_torus", {"width": 2, "height": 2}, 3),
    ("mi_mesh", {"width": 2, "height": 2}, 6),
    ("abstract_mi_mesh", {"width": 3, "height": 3, "directory_node": [1, 1]}, 8),
]

# case-fanout: the 2x2 fig4 designs one queue size below their minimum,
# plus fabric-only traffic designs: (builder, kwargs, queue size, cases
# asked per round).  The protocol designs answer every case; the traffic
# designs a fixed sample, which keeps the cheap fabric queries at about
# 30% of all ops so the median sits inside the protocol queries' latency
# mode, not on the boundary between the two.
CASE_DESIGNS = [
    ("abstract_mi_mesh", {"width": 2, "height": 2}, 2, 44),
    ("abstract_mi_torus", {"width": 2, "height": 2}, 2, 44),
    ("mi_mesh", {"width": 2, "height": 2}, 5, 89),
    ("msi_mesh", {"width": 2, "height": 2}, 3, 24),
    ("traffic_mesh", {"width": 3, "height": 3}, 2, 48),
    ("traffic_ring", {"n_nodes": 6}, 2, 40),
]

# service-mix: the two encodings kept hot in the server, the uniform
# sizes the fresh `sizes` overrides pin, and the never-seen specs that
# go through the build tier.  Size 2 is left out of the overrides: a few
# of its queries take 0.2-0.8 s, against about 5 ms for the rest, and
# one of them in a round would outweigh all the others.
SERVICE_HOT = [
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": 3}),
    ("abstract_mi_torus", {"width": 2, "height": 2, "queue_size": 3}),
]
SERVICE_SOLVE_SIZES = (1, 4, 5, 6, 7)
SERVICE_BUILDS = [
    ("abstract_mi_mesh", {"width": 2, "height": 2, "queue_size": size,
                          "directory_node": list(node)})
    for node, size in (((0, 0), 4), ((0, 1), 5), ((1, 0), 6), ((1, 1), 7))
]


def fixed_sample(key: str, items: list, count: int) -> list:
    """``count`` of ``items`` in an order that depends only on ``key``.

    Which cases a query set holds, and the order one session answers
    them in, decide the solver's learned clauses and so its work; they
    are fixed per design so that every seed does the same solver work.
    """
    return random.Random(key).sample(items, count)


def design_key(builder: str, kwargs: dict, size: int | None = None) -> str:
    """Canonical name of one design (and queue size) in the reference."""
    text = f"{builder}{json.dumps(kwargs, sort_keys=True, separators=(',', ':'))}"
    return text if size is None else f"{text}@{size}"


def served_key(op: str, builder: str, kwargs: dict, case=None, sizes=None) -> str:
    """Canonical name of one served query in the reference."""
    return "|".join(
        (op, design_key(builder, kwargs), str(case or "-"), str(sizes or "-"))
    )
