"""Protocols as rows: one controller compiler and one design assembly.

A protocol is its controllers' transition tables.  A row
``(name, origin, target, receive, send)`` is one transition:

* ``receive`` is ``None`` for a step paced by the controller's fair
  token source (in-port ``tok``); otherwise it is an ``(mtype, src,
  dst)`` match on the message taken from in-port ``net_in``, where
  ``None`` matches any source or destination;
* ``send`` is ``None``, or the constant :class:`Message` the step emits
  on out-port ``net_out``.

:func:`controller` compiles one table into an xMAS automaton.
:func:`assemble` builds a whole design: it places the directory, the
optional DMA controller and the caches on the topology's nodes, builds
the fabric, compiles every table the protocol yields and wires it in
(``tok`` to a fair token source, ``net_out``/``net_in`` to the node's
injection port and ejection queue), and returns a
:class:`ProtocolInstance`.  Without a queue size the same controllers
are closed by :func:`ether`, the queue-free handshake composition that
:func:`repro.mc.check_handshake_composition` explores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..fabrics import Fabric, FabricConfig, build_fabric
from ..fabrics.routing import RoutingFunction
from ..fabrics.topology import Node, Topology
from ..xmas import Automaton, Network, NetworkBuilder, Transition
from .messages import TOKEN, Message

__all__ = ["ProtocolInstance", "assemble"]

#: ``(name, origin, target, receive, send)``; see the module docstring.
Row = tuple[
    str, str, str, "tuple[str, Node | None, Node | None] | None", "Message | None"
]


@dataclass
class ProtocolInstance:
    """A built protocol design with handles to its controllers."""

    network: Network
    fabric: Fabric | None
    directory: Automaton
    directory_node: Node
    caches: dict[Node, Automaton] = field(default_factory=dict)
    dma: Automaton | None = None
    dma_node: Node | None = None


def message_is(mtype: str, src: Node | None, dst: Node | None):
    """A guard accepting ``mtype`` messages, from ``src`` and to ``dst``
    when those are given."""

    def guard(message) -> bool:
        return (
            isinstance(message, Message)
            and message.mtype == mtype
            and (src is None or message.src == src)
            and (dst is None or message.dst == dst)
        )

    return guard


def controller(
    builder: NetworkBuilder,
    name: str,
    states: list[str],
    initial: str,
    rows: Iterable[Row],
) -> Automaton:
    """Compile ``rows`` into the automaton ``name`` inside ``builder``.

    Every controller reads ``net_in`` and writes ``net_out``; it has a
    ``tok`` in-port only if some row is token-paced.
    """
    transitions = [
        Transition(
            name=label,
            origin=origin,
            target=target,
            in_port="tok" if receive is None else "net_in",
            guard=None if receive is None else message_is(*receive),
            out_port=None if send is None else "net_out",
            produce=None if send is None else lambda _d, m=send: m,
        )
        for label, origin, target, receive, send in rows
    ]
    paced = any(t.in_port == "tok" for t in transitions)
    return builder.automaton(
        name,
        states=states,
        initial=initial,
        in_ports=["net_in", "tok"] if paced else ["net_in"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def ether(builder: NetworkBuilder, automata: dict[Node, Automaton]) -> Network:
    """Close ``automata`` by synchronous handshaking and build the network.

    Every ``net_out`` feeds one merge whose output is switched by
    destination straight into the addressee's ``net_in``: the protocol
    alone, with no queue between controllers.
    """
    ordered = sorted(automata)
    merge = builder.merge("ether", n_inputs=len(ordered))
    for position, node in enumerate(ordered):
        builder.connect(automata[node].port("net_out"), merge.ins[position])
    deliver = builder.switch(
        "deliver",
        route=lambda message: ordered.index(message.dst),
        n_outputs=len(ordered),
    )
    builder.connect(merge.o, deliver.i)
    for position, node in enumerate(ordered):
        builder.connect(deliver.outs[position], automata[node].port("net_in"))
    return builder.build()


def assemble(
    name: str,
    topology: Topology,
    tables: Callable[..., Iterable[tuple[Node, list[str], list[Row]]]],
    vc_of: Callable[[Message], int],
    queue_size: int | None = None,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = False,
    vcs: int = 1,
    routing: RoutingFunction | None = None,
    escape_vcs: bool = False,
    validate: bool = True,
) -> ProtocolInstance:
    """Build the design ``name``: ``tables``' controllers on ``topology``.

    ``tables(directory_node, cache_nodes, dma_node)`` yields every
    controller as ``(node, states, rows)`` in build order, its first
    state the initial one.  The directory sits on ``directory_node``
    (default: the last node in canonical order), a DMA controller on
    ``dma_node`` (with ``with_dma`` and no node given: the first other
    node), and a cache on every node left.  With a ``queue_size`` the
    controllers are joined by a fabric whose queues all share it
    (``vc_of`` picks a message's protocol VC when ``vcs > 1``); without
    one, by :func:`ether`.
    """
    nodes = list(topology.nodes())
    if directory_node is None:
        directory_node = nodes[-1]
    if with_dma and dma_node is None:
        dma_node = next(n for n in nodes if n != directory_node)
    cache_nodes = [n for n in nodes if n != directory_node and n != dma_node]
    if not cache_nodes:
        raise ValueError("no nodes left for caches")
    builder = NetworkBuilder(name)
    fabric = None
    if queue_size is not None:
        config = FabricConfig(
            topology=topology,
            queue_size=queue_size,
            vcs=vcs,
            routing=routing,
            vc_of=vc_of if vcs > 1 else None,
            escape_vcs=escape_vcs,
        )
        fabric = build_fabric(builder, config)
    automata: dict[Node, Automaton] = {}
    for node, states, rows in tables(directory_node, cache_nodes, dma_node):
        role = {directory_node: "dir", dma_node: "dma"}.get(node, "cache")
        automaton = controller(
            builder, f"{role}_{node[0]}_{node[1]}", states, states[0], rows
        )
        if "tok" in automaton.ports:
            source = builder.source(f"tok_{automaton.name}", colors={TOKEN})
            builder.connect(source.o, automaton.port("tok"))
        if fabric is not None:
            builder.connect(automaton.port("net_out"), fabric.inject_ports[node])
            builder.connect(fabric.deliver_ports[node], automaton.port("net_in"))
        automata[node] = automaton
    return ProtocolInstance(
        network=ether(builder, automata) if fabric is None else builder.build(validate),
        fabric=fabric,
        directory=automata[directory_node],
        directory_node=directory_node,
        caches={node: automata[node] for node in cache_nodes},
        dma=automata.get(dma_node),
        dma_node=dma_node,
    )
