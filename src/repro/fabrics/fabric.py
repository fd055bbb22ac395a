"""Topology-generic fabric built from xMAS primitives.

Router microarchitecture (store-and-forward, input-queued)::

            ┌──────────────────────────────────────────────┐
   link in ─► [demux by VC]─► input queue(s) ─► route switch ─► output merges ─► link out
            │                                        │
   inject  ─► [VC assign] ─► injection queue ─► route switch ─► eject merge ─► ejection queue (rotating) ─► deliver
            └──────────────────────────────────────────────┘

:func:`build_fabric` instantiates this router at every node of *any*
:class:`~repro.fabrics.topology.Topology` — the microarchitecture is
port-shaped, not mesh-shaped:

* one input queue per incoming link port (and per VC layer when the fabric
  carries more than one);
* one injection queue (per protocol VC) fed by the node's automaton;
* a route switch after every queue, targeting the node's ports plus local
  ejection, driven by the topology's routing function;
* a fair merge in front of every outgoing link and in front of the
  ejection queue;
* the ejection queue is ``rotating``: a head packet the automaton cannot
  currently consume is moved to the tail (the paper's stalling rule).

All queues share one ``queue_size`` (the quantity Figure 4 minimises);
ejection/injection queues can be sized separately for ablations.

Escape VCs (wraparound fabrics)
-------------------------------

With ``escape_vcs=True`` every protocol VC is split into a pre- and
post-dateline layer (``vc = protocol_vc * 2 + dateline_bit``).  Routing is
deterministic, so the layer a packet occupies on any given link is a pure
function of ``(message, link)``: a function primitive on each link rewrites
the VC from the topology's :meth:`~repro.fabrics.topology.Topology.\
escape_vc_bit` before the receiving demux.  Packets that cross the wrap
link of the dimension they are travelling move to the escape layer, whose
channel-dependence chain terminates before the dateline — the cycle the
wrap links introduce cannot close, restoring the acyclicity argument the
mesh gets from its turn restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..xmas import Network, NetworkBuilder, Port, Queue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..protocols.messages import Message
from .routing import RoutingFunction
from .topology import (
    MeshTopology,
    Node,
    RingTopology,
    Topology,
    TorusTopology,
)
from .topology import Port as TopoPort

__all__ = [
    "Fabric",
    "FabricConfig",
    "build_fabric",
    "build_traffic",
    "traffic_mesh",
    "traffic_ring",
    "traffic_torus",
]

_EJECT = "EJ"


@dataclass
class FabricConfig:
    """Parameters of a fabric over an arbitrary topology."""

    topology: Topology
    queue_size: int
    vcs: int = 1
    routing: RoutingFunction | None = None
    vc_of: Callable[[Message], int] | None = None
    escape_vcs: bool = False

    def __post_init__(self) -> None:
        if self.topology.node_count() < 2:
            raise ValueError("a fabric needs at least two nodes")
        if self.vcs < 1:
            raise ValueError("vcs must be >= 1")
        if self.vcs > 1 and self.vc_of is None:
            raise ValueError("vc_of is required when vcs > 1")
        if self.escape_vcs:
            overridden = (
                type(self.topology).escape_vc_bit is not Topology.escape_vc_bit
            )
            if not overridden:
                raise ValueError(
                    f"escape_vcs=True needs a topology with a dateline "
                    f"(escape_vc_bit); {self.topology} has none"
                )

    @property
    def vc_layers(self) -> int:
        """Physical VC count: protocol VCs × (pre/post-dateline split)."""
        return self.vcs * (2 if self.escape_vcs else 1)


@dataclass
class Fabric:
    """Handles into a built fabric: per-node attachment points."""

    config: FabricConfig
    inject_ports: dict[Node, Port] = field(default_factory=dict)
    deliver_ports: dict[Node, Port] = field(default_factory=dict)
    link_queues: list[Queue] = field(default_factory=list)
    ejection_queues: dict[Node, Queue] = field(default_factory=dict)
    injection_queues: dict[Node, list[Queue]] = field(default_factory=dict)

    @property
    def topology(self) -> Topology:
        return self.config.topology


def _tag(node: Node) -> str:
    return f"{node[0]}_{node[1]}"


def build_fabric(builder: NetworkBuilder, config: FabricConfig) -> Fabric:
    """Instantiate the fabric into ``builder``.

    Returns a :class:`Fabric` whose ``inject_ports[node]`` (an IN port)
    accepts the node automaton's outgoing packets and whose
    ``deliver_ports[node]`` (an OUT port, the ejection queue output) feeds
    the automaton's network in-port.
    """
    fabric = Fabric(config)
    topology = config.topology
    routing = config.routing or topology.routing()
    layers = config.vc_layers

    # Per node: merge feeding each outgoing link, keyed by port.
    out_merges: dict[Node, dict[TopoPort, object]] = {}
    # Per node: entry point of each incoming link (queue.i or demux.i).
    link_entries: dict[tuple[Node, TopoPort], Port] = {}

    for node in topology.nodes():
        tag = _tag(node)
        ports = topology.ports(node)

        switches: list[tuple[object, list[object]]] = []
        targets: list[object] = [*ports, _EJECT]

        def make_route_switch(name: str, origin: Node = node,
                              switch_targets: list[object] = targets):
            def route(message: Message) -> int:
                step = routing(topology, origin, message)
                key = step if step is not None else _EJECT
                return switch_targets.index(key)

            return builder.switch(name, route, n_outputs=len(switch_targets))

        # ---- link inputs ------------------------------------------------
        for port in ports:
            kind = topology.port_tag(port)
            if layers == 1:
                queue = builder.queue(f"q_{tag}_{kind}", config.queue_size)
                fabric.link_queues.append(queue)
                link_entries[(node, port)] = queue.i
                switch = make_route_switch(f"sw_{tag}_{kind}")
                builder.connect(queue.o, switch.i)
                switches.append((switch, targets))
            else:
                demux = builder.switch(
                    f"dx_{tag}_{kind}",
                    route=lambda message: message.vc,
                    n_outputs=layers,
                )
                link_entries[(node, port)] = demux.i
                for vc in range(layers):
                    queue = builder.queue(
                        f"q_{tag}_{kind}_v{vc}", config.queue_size
                    )
                    fabric.link_queues.append(queue)
                    builder.connect(demux.outs[vc], queue.i)
                    switch = make_route_switch(f"sw_{tag}_{kind}_v{vc}")
                    builder.connect(queue.o, switch.i)
                    switches.append((switch, targets))

        # ---- injection --------------------------------------------------
        # Injection queues split by *protocol* VC only: the dateline layer
        # is a per-link property, recomputed by the link functions below.
        fabric.injection_queues[node] = []
        if config.vcs == 1:
            inj_queue = builder.queue(f"inj_{tag}", config.queue_size)
            fabric.injection_queues[node].append(inj_queue)
            fabric.inject_ports[node] = inj_queue.i
            switch = make_route_switch(f"sw_{tag}_J")
            builder.connect(inj_queue.o, switch.i)
            switches.append((switch, targets))
        else:
            vc_of = config.vc_of
            assert vc_of is not None
            vc_assign = builder.function(
                f"vca_{tag}", fn=lambda message: message.with_vc(vc_of(message))
            )
            fabric.inject_ports[node] = vc_assign.i
            demux = builder.switch(
                f"dx_{tag}_J",
                route=lambda message: message.vc,
                n_outputs=config.vcs,
            )
            builder.connect(vc_assign.o, demux.i)
            for vc in range(config.vcs):
                inj_queue = builder.queue(f"inj_{tag}_v{vc}", config.queue_size)
                fabric.injection_queues[node].append(inj_queue)
                builder.connect(demux.outs[vc], inj_queue.i)
                switch = make_route_switch(f"sw_{tag}_J_v{vc}")
                builder.connect(inj_queue.o, switch.i)
                switches.append((switch, targets))

        # ---- output merges ----------------------------------------------
        n_feeders = len(switches)
        merges: dict[TopoPort, object] = {}
        for port in ports:
            merges[port] = builder.merge(
                f"m_{tag}_{topology.port_tag(port)}", n_inputs=n_feeders
            )
        out_merges[node] = merges

        # ---- ejection ---------------------------------------------------
        eject_merge = builder.merge(f"m_{tag}_EJ", n_inputs=n_feeders)
        ej_queue = builder.queue(f"ej_{tag}", config.queue_size, rotating=True)
        fabric.ejection_queues[node] = ej_queue
        if layers == 1:
            builder.connect(eject_merge.o, ej_queue.i)
        else:
            strip = builder.function(
                f"vcs_{tag}", fn=lambda message: message.with_vc(0)
            )
            builder.connect(eject_merge.o, strip.i)
            builder.connect(strip.o, ej_queue.i)
        fabric.deliver_ports[node] = ej_queue.o

        # wire every route switch into the merges
        for feeder_index, (switch, switch_targets) in enumerate(switches):
            for position, target in enumerate(switch_targets):
                if target == _EJECT:
                    builder.connect(switch.outs[position], eject_merge.ins[feeder_index])
                else:
                    builder.connect(
                        switch.outs[position], merges[target].ins[feeder_index]
                    )

    # ---- inter-node links -----------------------------------------------
    vcs = config.vcs
    vc_of = config.vc_of
    for node in topology.nodes():
        for port, merge in out_merges[node].items():
            neighbour = topology.neighbour(node, port)
            assert neighbour is not None
            entry = link_entries[(neighbour, topology.opposite(port))]
            link_name = f"link_{_tag(node)}_{topology.port_tag(port)}"
            if not config.escape_vcs:
                builder.connect(merge.o, entry, name=link_name)
                continue

            # Dateline scheme: recompute the packet's VC layer for this
            # link from its (deterministic) journey, before the demux.
            def link_vc(message: Message, u: Node = node, p: TopoPort = port):
                base = vc_of(message) if vc_of is not None else 0
                bit = topology.escape_vc_bit(u, p, message)
                return message.with_vc(base * 2 + bit)

            relabel = builder.function(
                f"dl_{_tag(node)}_{topology.port_tag(port)}", fn=link_vc
            )
            builder.connect(merge.o, relabel.i, name=link_name)
            builder.connect(relabel.o, entry)

    return fabric


# ---------------------------------------------------------------------------
# Pure-fabric traffic networks: every node sources all-to-all packets and
# sinks its deliveries.  With no protocol layer on top, any deadlock these
# exhibit is the *fabric's own* — the scenarios that separate the torus
# wrap-cycle (deadlock-prone without escape VCs) from the dateline scheme.
# ---------------------------------------------------------------------------


def build_traffic(
    topology: Topology,
    queue_size: int,
    vcs: int = 1,
    vc_of: Callable[[Message], int] | None = None,
    escape_vcs: bool = False,
    routing: RoutingFunction | None = None,
    validate: bool = True,
) -> Network:
    """All-to-all source/sink traffic over ``topology`` — fabric only."""
    from ..protocols.messages import Message

    builder = NetworkBuilder(f"traffic-{topology}-q{queue_size}".replace(" ", "-"))
    config = FabricConfig(
        topology=topology,
        queue_size=queue_size,
        vcs=vcs,
        vc_of=vc_of,
        escape_vcs=escape_vcs,
        routing=routing,
    )
    fabric = build_fabric(builder, config)
    all_nodes = list(topology.nodes())
    for node in all_nodes:
        colors = {
            Message("pkt", src=node, dst=other)
            for other in all_nodes
            if other != node
        }
        src = builder.source(f"src_{_tag(node)}", colors=colors)
        snk = builder.sink(f"snk_{_tag(node)}")
        builder.connect(src.o, fabric.inject_ports[node])
        builder.connect(fabric.deliver_ports[node], snk.i)
    return builder.build(validate=validate)


def traffic_mesh(width: int, height: int, queue_size: int) -> Network:
    """Registry builder: all-to-all traffic on a mesh (XY routing)."""
    return build_traffic(MeshTopology(width, height), queue_size)


def traffic_torus(
    width: int, height: int, queue_size: int, escape_vcs: bool = True
) -> Network:
    """Registry builder: all-to-all traffic on a torus.

    ``escape_vcs=False`` exposes the wrap-link cycle: the fabric deadlocks
    at *every* queue size (the witness the encoder must find).
    """
    return build_traffic(
        TorusTopology(width, height), queue_size, escape_vcs=escape_vcs
    )


def traffic_ring(n_nodes: int, queue_size: int, escape_vcs: bool = True) -> Network:
    """Registry builder: all-to-all traffic on a bidirectional ring."""
    return build_traffic(
        RingTopology(n_nodes), queue_size, escape_vcs=escape_vcs
    )
