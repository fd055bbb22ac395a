"""Structural tests for the mesh fabric generator."""

import pytest

from repro.core import derive_colors
from repro.fabrics import (
    FabricConfig,
    MeshTopology,
    build_fabric,
    build_traffic,
    route_path,
    xy_routing,
)
from repro.protocols import Message
from repro.protocols.abstract_mi import request_response_vc
from repro.xmas import NetworkBuilder


def queues(net, prefix):
    """The queues of ``net`` whose names start with ``prefix``: ``q_``
    (links), ``inj_`` (injection) or ``ej_`` (ejection)."""
    return [queue for queue in net.queues() if queue.name.startswith(prefix)]


def test_2x2_structure():
    net = build_traffic(MeshTopology(2, 2), queue_size=2)
    stats = net.stats()
    # per node: 2 link queues + 1 injection + 1 ejection = 4 queues
    assert stats["queues"] == 16
    assert len(queues(net, "q_")) == 8
    assert len(queues(net, "ej_")) == 4


def test_3x3_queue_count():
    net = build_traffic(MeshTopology(3, 3), queue_size=1)
    # link queues = directed links: 2*(3*2*2) = 24; +9 inj +9 ej
    assert len(queues(net, "q_")) == 24
    assert net.stats()["queues"] == 42


def test_ejection_queues_rotate():
    net = build_traffic(MeshTopology(2, 2), queue_size=2)
    for queue in queues(net, "ej_"):
        assert queue.rotating
    for queue in queues(net, "q_"):
        assert not queue.rotating


def test_colors_follow_xy_paths():
    topology = MeshTopology(3, 3)
    net = build_traffic(topology, queue_size=1)
    colors = derive_colors(net)
    # A packet (0,0)->(2,2) must appear exactly on the queues along its
    # XY path and nowhere else.
    packet = Message("pkt", src=(0, 0), dst=(2, 2))
    expected_path = route_path(xy_routing, (0, 0), packet, topology)
    for queue in queues(net, "q_"):
        qcolors = colors.of(net.channel_of(queue.i))
        # link queue names: q_{x}_{y}_{dir-of-entry}
        parts = queue.name.split("_")
        node = (int(parts[1]), int(parts[2]))
        if packet in qcolors:
            assert node in expected_path
    # it must reach the destination ejection queue
    assert packet in colors.of(net.channel_of(net["ej_2_2"].i))
    # and never the opposite corner's
    assert packet not in colors.of(net.channel_of(net["ej_0_0"].i))


def test_self_send_ejects_locally():
    builder = NetworkBuilder("selfsend")
    fabric = build_fabric(builder, FabricConfig(MeshTopology(2, 1), queue_size=1))
    loop = Message("pkt", src=(0, 0), dst=(0, 0))
    src = builder.source("src00", colors={loop})
    snk = builder.sink("snk00")
    builder.connect(src.o, fabric.inject_ports[(0, 0)])
    builder.connect(fabric.deliver_ports[(0, 0)], snk.i)
    other_src = builder.source(
        "src10", colors={Message("pkt", src=(1, 0), dst=(0, 0))}
    )
    other_snk = builder.sink("snk10")
    builder.connect(other_src.o, fabric.inject_ports[(1, 0)])
    builder.connect(fabric.deliver_ports[(1, 0)], other_snk.i)
    net = builder.build()
    colors = derive_colors(net)
    ej = fabric.ejection_queues[(0, 0)]
    assert loop in colors.of(net.channel_of(ej.i))
    # the self-send never crosses the link
    for queue in fabric.link_queues:
        assert loop not in colors.of(net.channel_of(queue.i))


def test_vcs_create_per_vc_queues():
    net = build_traffic(
        MeshTopology(2, 2), queue_size=2, vcs=2, vc_of=request_response_vc
    )
    # per node: 2 links * 2 vcs + 2 injection vcs + 1 ejection = 7 queues
    assert net.stats()["queues"] == 28
    assert len(queues(net, "inj_0_0_")) == 2


def test_vc_assignment_separates_traffic():
    config = FabricConfig(
        MeshTopology(2, 2), queue_size=2, vcs=2, vc_of=request_response_vc
    )
    builder = NetworkBuilder("vc-test")
    fabric = build_fabric(builder, config)
    topology = config.topology
    for node in topology.nodes():
        others = [n for n in topology.nodes() if n != node]
        colors = set()
        for other in others:
            colors.add(Message("getX", src=node, dst=other))
            colors.add(Message("ack", src=node, dst=other))
        src = builder.source(f"src_{node[0]}_{node[1]}", colors=colors)
        snk = builder.sink(f"snk_{node[0]}_{node[1]}")
        builder.connect(src.o, fabric.inject_ports[node])
        builder.connect(fabric.deliver_ports[node], snk.i)
    net = builder.build()
    colors = derive_colors(net)
    for queue in fabric.link_queues:
        vc = int(queue.name.rsplit("_v", 1)[1])
        for color in colors.of(net.channel_of(queue.i)):
            assert color.vc == vc


def test_mesh_requires_two_nodes():
    with pytest.raises(ValueError):
        FabricConfig(MeshTopology(1, 1), queue_size=1)


def test_vcs_require_assignment():
    with pytest.raises(ValueError):
        FabricConfig(MeshTopology(2, 2), queue_size=1, vcs=2)


def test_every_fabric_queue_gets_the_queue_size():
    config = FabricConfig(MeshTopology(2, 2), queue_size=5)
    builder = NetworkBuilder("sizes")
    build_fabric(builder, config)
    assert {q.size for q in builder.network.queues()} == {5}
