"""Structural and end-to-end tests for the generic fabric builder on
wraparound topologies (torus / ring) and the dateline escape-VC scheme."""

import pytest

from repro import Verdict, verify
from repro.fabrics import (
    FabricConfig,
    RingTopology,
    TorusTopology,
    build_fabric,
    traffic_ring,
    traffic_torus,
)
from repro.xmas import NetworkBuilder


def open_fabric(config):
    builder = NetworkBuilder("fabric-test")
    fabric = build_fabric(builder, config)
    return fabric


def test_torus_structure_all_nodes_degree_four():
    fabric = open_fabric(FabricConfig(TorusTopology(3, 3), queue_size=1))
    # A torus has no edge nodes: directed links = 4 * n = 36 link queues.
    assert len(fabric.link_queues) == 36
    assert len(fabric.ejection_queues) == 9
    assert set(fabric.inject_ports) == set(TorusTopology(3, 3).nodes())


def test_torus_escape_vcs_double_link_queues():
    plain = open_fabric(FabricConfig(TorusTopology(2, 2), queue_size=1))
    escaped = open_fabric(
        FabricConfig(TorusTopology(2, 2), queue_size=1, escape_vcs=True)
    )
    assert len(escaped.link_queues) == 2 * len(plain.link_queues)


def test_ring_structure_string_ports():
    fabric = open_fabric(FabricConfig(RingTopology(4), queue_size=1))
    # 2 directed links per node on a bidirectional ring.
    assert len(fabric.link_queues) == 8
    names = {q.name for q in fabric.link_queues}
    assert any("CW" in name for name in names)


# Wraparound traffic fabrics: the wrap links close a channel-dependence
# cycle, and the dateline escape VCs break it.
WRAP_FABRICS = {
    "ring-4": lambda escape_vcs: traffic_ring(4, queue_size=3, escape_vcs=escape_vcs),
    "torus-4x2": lambda escape_vcs: traffic_torus(4, 2, queue_size=2, escape_vcs=escape_vcs),
}


@pytest.mark.parametrize("fabric", WRAP_FABRICS)
def test_wrap_fabric_without_escape_vcs_deadlocks(fabric):
    """The encoder must find a deadlock witness at any queue size."""
    result = verify(WRAP_FABRICS[fabric](False))
    assert result.verdict is Verdict.DEADLOCK_CANDIDATE
    assert result.witness is not None
    assert result.witness.pretty()


@pytest.mark.parametrize("fabric", WRAP_FABRICS)
def test_wrap_fabric_with_escape_vcs_is_deadlock_free(fabric):
    assert verify(WRAP_FABRICS[fabric](True)).verdict is Verdict.DEADLOCK_FREE


def test_small_torus_traffic_verifies_with_escape_vcs():
    result = verify(traffic_torus(2, 2, queue_size=2, escape_vcs=True))
    assert result.verdict is Verdict.DEADLOCK_FREE
