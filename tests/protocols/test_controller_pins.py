"""Pins of every protocol controller, option by option.

``tests/smt/test_cnf.py`` pins the CNF of the default builders and a
network digest of primitive names and channels, which does not see the
transitions.  Here every automaton of a 2×2 design is digested under each
builder option that changes a controller: its name, states, initial
state and ports, and per transition, in order, its name, origin, target,
ports, the messages its guard accepts (over every message the design's
transitions produce, plus ``TOKEN``) and the message it produces.  The
network's name and shape (primitive names in order, channel names and
endpoints) are pinned next to them, and so are the keyword parameters
that ``builder_catalog()`` reports for the nine protocol fronts.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiments import builder_catalog
from repro.protocols import (
    TOKEN,
    Message,
    abstract_mi_ether,
    abstract_mi_mesh,
    mi_ether,
    mi_mesh,
    msi_mesh,
)
from repro.xmas import Automaton


def _hex(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _color(color) -> list:
    if isinstance(color, Message):
        return [color.mtype, list(color.src), list(color.dst), color.vc]
    return [color]


def design_digests(network) -> dict[str, str]:
    automata = [p for p in network.primitives.values() if isinstance(p, Automaton)]
    produced = {
        t.produce(TOKEN)
        for a in automata
        for t in a.transitions
        if t.produce is not None
    }
    universe = sorted(produced, key=lambda m: json.dumps(_color(m))) + [TOKEN]
    digests = {
        "network": _hex(
            [
                network.name,
                [[name, type(p).__name__] for name, p in network.primitives.items()],
                [
                    [c.name, c.initiator.qualified_name, c.target.qualified_name]
                    for c in network.channels
                ],
            ]
        )
    }
    for a in automata:
        transitions = [
            [
                t.name,
                t.origin,
                t.target,
                t.in_port,
                t.out_port,
                sorted(json.dumps(_color(c)) for c in universe if t.accepts(c)),
                None if t.produce is None else _color(t.produce(TOKEN)),
            ]
            for t in a.transitions
        ]
        ports = [[name, port.direction.name] for name, port in a.ports.items()]
        digests[a.name] = _hex([a.name, a.states, a.initial, ports, transitions])
    return digests


DESIGNS = {
    "abstract_mi": lambda **kw: abstract_mi_mesh(2, 2, queue_size=2, **kw).network,
    "mi": lambda **kw: mi_mesh(2, 2, queue_size=2, **kw).network,
    "msi": lambda **kw: msi_mesh(2, 2, queue_size=2, **kw).network,
    "abstract_mi_ether": lambda **kw: abstract_mi_ether(2, 2, **kw),
    "mi_ether": lambda **kw: mi_ether(2, 2, **kw),
}

CASES = {
    "abstract_mi": {},
    "abstract_mi-repeat_inv": {"repeat_inv": True},
    "abstract_mi-voluntary_replacement": {"voluntary_replacement": True},
    "abstract_mi-keep_stale_invs": {
        "voluntary_replacement": True,
        "drop_stale_invs": False,
    },
    "abstract_mi-directory_node": {"directory_node": (0, 0)},
    "abstract_mi-vcs2": {"vcs": 2},
    "mi": {},
    "mi-no_dma": {"with_dma": False},
    "mi-dma_node": {"dma_node": (1, 0)},
    "mi-directory_node": {"directory_node": (0, 0)},
    "mi-vcs2": {"vcs": 2},
    "msi": {},
    "msi-max_sharers1": {"max_sharers": 1},
    "msi-vcs1": {"vcs": 1},
    "msi-directory_node": {"directory_node": (0, 0)},
    "abstract_mi_ether": {},
    "mi_ether": {},
}

PINNED = {
    "abstract_mi": {
        "network": "ec7a30722e8d54b9",
        "cache_0_0": "d27f12f45136ce93",
        "cache_1_0": "d8a8c9e9241e71e8",
        "cache_0_1": "b5b778d29ea9942f",
        "dir_1_1": "5e1024de7fa121bf",
    },
    "abstract_mi-directory_node": {
        "network": "c7e81a4456f60168",
        "cache_1_0": "3db6b1ce6e3567ad",
        "cache_0_1": "481c2d5458edd4ae",
        "cache_1_1": "3677ec83d2edd116",
        "dir_0_0": "4ef163ffd217aa9f",
    },
    "abstract_mi-keep_stale_invs": {
        "network": "ec7a30722e8d54b9",
        "cache_0_0": "24b85ce58ce3777b",
        "cache_1_0": "fdc5fd8adbc462b3",
        "cache_0_1": "91a9b06e3ea09b71",
        "dir_1_1": "890b6071bcd839ec",
    },
    "abstract_mi-repeat_inv": {
        "network": "ec7a30722e8d54b9",
        "cache_0_0": "d27f12f45136ce93",
        "cache_1_0": "d8a8c9e9241e71e8",
        "cache_0_1": "b5b778d29ea9942f",
        "dir_1_1": "68fd1d53798c6357",
    },
    "abstract_mi-vcs2": {
        "network": "bed0fa79be4c8729",
        "cache_0_0": "d27f12f45136ce93",
        "cache_1_0": "d8a8c9e9241e71e8",
        "cache_0_1": "b5b778d29ea9942f",
        "dir_1_1": "5e1024de7fa121bf",
    },
    "abstract_mi-voluntary_replacement": {
        "network": "ec7a30722e8d54b9",
        "cache_0_0": "a62fc63b6e137023",
        "cache_1_0": "8dd913085a5fc939",
        "cache_0_1": "9726c955fcd4acce",
        "dir_1_1": "890b6071bcd839ec",
    },
    "abstract_mi_ether": {
        "network": "e23aff17280e1608",
        "cache_0_0": "d27f12f45136ce93",
        "cache_1_0": "d8a8c9e9241e71e8",
        "cache_0_1": "b5b778d29ea9942f",
        "dir_1_1": "5e1024de7fa121bf",
    },
    "mi": {
        "network": "a37e8ec21ed3546d",
        "cache_1_0": "29917e84937a4ed5",
        "cache_0_1": "bf9a94d673370531",
        "dir_1_1": "71afef34b6fe8bf1",
        "dma_0_0": "6a1646c24afbc2ef",
    },
    "mi-directory_node": {
        "network": "b034a12dc1e6679a",
        "cache_0_1": "db5d745f36eb6aca",
        "cache_1_1": "9a5ae2c8cd6ac5d2",
        "dir_0_0": "5f51f12e9c7165ad",
        "dma_1_0": "a361bcc01eb04510",
    },
    "mi-dma_node": {
        "network": "514f5509c1e341dc",
        "cache_0_0": "03c7961ebeb64500",
        "cache_0_1": "9038268ef0806723",
        "dir_1_1": "0f3ea4a21ee9af8e",
        "dma_1_0": "a2fca250c80a4fb3",
    },
    "mi-no_dma": {
        "network": "8d295d31152e8335",
        "cache_0_0": "d8619b8858972dba",
        "cache_1_0": "a319b0f588933794",
        "cache_0_1": "cad93e2cc4181721",
        "dir_1_1": "3e5dc97d0cd26ba0",
    },
    "mi-vcs2": {
        "network": "4f744aca8549ddc5",
        "cache_1_0": "29917e84937a4ed5",
        "cache_0_1": "bf9a94d673370531",
        "dir_1_1": "71afef34b6fe8bf1",
        "dma_0_0": "6a1646c24afbc2ef",
    },
    "mi_ether": {
        "network": "84cfbd7e6858fd4b",
        "cache_1_0": "29917e84937a4ed5",
        "cache_0_1": "bf9a94d673370531",
        "dir_1_1": "71afef34b6fe8bf1",
        "dma_0_0": "6a1646c24afbc2ef",
    },
    "msi": {
        "network": "b5d0cf692ee12822",
        "cache_0_0": "0f727d57c7885b0c",
        "cache_1_0": "753f2d78c9c62291",
        "cache_0_1": "bdae7198c9151955",
        "dir_1_1": "46f6b9f0f8612077",
    },
    "msi-directory_node": {
        "network": "610319885aa76842",
        "cache_1_0": "2535e6bb8185ae2b",
        "cache_0_1": "6006b1cddcd3b4d6",
        "cache_1_1": "6a1f06e392a90389",
        "dir_0_0": "4c6321cdcbf5400e",
    },
    "msi-max_sharers1": {
        "network": "b5d0cf692ee12822",
        "cache_0_0": "0f727d57c7885b0c",
        "cache_1_0": "753f2d78c9c62291",
        "cache_0_1": "bdae7198c9151955",
        "dir_1_1": "55ecb4fe2752f3ee",
    },
    "msi-vcs1": {
        "network": "0e7ff3bda73db984",
        "cache_0_0": "0f727d57c7885b0c",
        "cache_1_0": "753f2d78c9c62291",
        "cache_0_1": "bdae7198c9151955",
        "dir_1_1": "46f6b9f0f8612077",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_controller_digests_are_pinned(case):
    network = DESIGNS[case.split("-")[0]](**CASES[case])
    assert design_digests(network) == PINNED[case]


PINNED_PARAMS = {
    "abstract_mi_mesh": [
        "width", "height", "queue_size", "directory_node", "vcs", "routing",
        "repeat_inv", "voluntary_replacement", "drop_stale_invs", "validate",
    ],
    "abstract_mi_ring": [
        "n_nodes", "queue_size", "directory_node", "vcs", "escape_vcs",
        "repeat_inv", "voluntary_replacement", "drop_stale_invs", "validate",
    ],
    "abstract_mi_torus": [
        "width", "height", "queue_size", "directory_node", "vcs", "escape_vcs",
        "repeat_inv", "voluntary_replacement", "drop_stale_invs", "validate",
    ],
    "mi_mesh": [
        "width", "height", "queue_size", "directory_node", "dma_node",
        "with_dma", "vcs", "routing", "validate",
    ],
    "mi_ring": [
        "n_nodes", "queue_size", "directory_node", "dma_node", "with_dma",
        "vcs", "escape_vcs", "validate",
    ],
    "mi_torus": [
        "width", "height", "queue_size", "directory_node", "dma_node",
        "with_dma", "vcs", "escape_vcs", "validate",
    ],
    "msi_mesh": [
        "width", "height", "queue_size", "directory_node", "vcs", "max_sharers",
        "validate",
    ],
    "msi_ring": [
        "n_nodes", "queue_size", "directory_node", "vcs", "escape_vcs",
        "max_sharers", "validate",
    ],
    "msi_torus": [
        "width", "height", "queue_size", "directory_node", "vcs", "escape_vcs",
        "max_sharers", "validate",
    ],
}


def test_protocol_front_params_are_pinned():
    catalog = builder_catalog()
    assert {name: catalog[name]["params"] for name in PINNED_PARAMS} == PINNED_PARAMS
