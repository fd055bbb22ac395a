"""One way to wire protocol controllers into a design.

Each protocol builds its controllers in one function that takes a
:class:`~repro.fabrics.Fabric` or ``None``.  :func:`attach` wires every
controller: its ``tok`` port, if it has one, to a fair token source, and
with a fabric its ``net_out``/``net_in`` ports to the node's injection
port and ejection queue.  Without a fabric the same controllers are
joined by :func:`ether`, the queue-free handshake composition that
:func:`repro.mc.check_handshake_composition` explores.  The fabric
builders return a :class:`ProtocolInstance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fabrics import Fabric
from ..fabrics.topology import Node
from ..xmas import Automaton, Network, NetworkBuilder
from .messages import TOKEN, Message

__all__ = ["ProtocolInstance", "attach", "ether", "message_is"]


@dataclass
class ProtocolInstance:
    """A built protocol design with handles to its controllers."""

    network: Network
    fabric: Fabric
    directory: Automaton
    directory_node: Node
    caches: dict[Node, Automaton] = field(default_factory=dict)
    dma: Automaton | None = None
    dma_node: Node | None = None


def message_is(mtype: str, src: Node | None = None, dst: Node | None = None):
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


def attach(
    builder: NetworkBuilder,
    automaton: Automaton,
    node: Node,
    fabric: Fabric | None,
) -> Automaton:
    """Wire ``automaton``, the controller at ``node``, and return it.

    A ``tok`` in-port is fed by the fair token source
    ``tok_<automaton name>``; with a ``fabric``, ``net_out`` feeds the
    node's injection port and the node's ejection queue feeds ``net_in``.
    """
    if "tok" in automaton.ports:
        source = builder.source(f"tok_{automaton.name}", colors={TOKEN})
        builder.connect(source.o, automaton.port("tok"))
    if fabric is not None:
        builder.connect(automaton.port("net_out"), fabric.inject_ports[node])
        builder.connect(fabric.deliver_ports[node], automaton.port("net_in"))
    return automaton


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
