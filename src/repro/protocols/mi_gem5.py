"""The full MI cache-coherence protocol (GEM5 ``MI_example``-inspired).

Per Section 5 ("MI Protocol"): cache-to-cache transfer, write-back
acknowledge/nack, a notification (unblock) on data receipt, and DMA
accesses.  The L2 cache controller has 5 states, the directory ``4 + n``
(with ``n`` the number of caches), and messages are parameterized with
source and destination nodes.

Controllers
-----------

**L2 cache** — states ``I, IM, M, MI, II``:

- ``I  --(miss)-->  IM``             sends ``getx`` to the directory;
- ``IM --data?-->   M``              sends ``unblock`` to the directory;
- ``M  --fwd(r)?--> I``              cache-to-cache: sends ``data`` to the
  requestor ``r`` and invalidates itself;
- ``M  --(replace)--> MI``           sends ``putx``;
- ``MI --wback?-->  I``              write-back acknowledged;
- ``MI --fwd(r)?--> II``             lost the race: still services the
  forward (sends ``data`` to ``r``), then awaits the nack;
- ``MI --wbnack?--> II``             nack first, forward still in flight;
- ``II --wbnack?--> I`` and ``II --fwd(r)?/data!--> I``.

**Directory** — states ``I``, ``M(c)`` per cache, ``MB`` (busy: waiting
for an ``unblock``), ``DR``/``DW`` (DMA read/write in flight):

- ``I    --getx(c)?-->   MB``        responds ``data`` from memory;
- ``MB   --unblock(c)?--> M(c)``     requestor became owner;
- ``M(c) --getx(c')?-->  MB``        forwards the request to the owner;
- ``M(c) --putx(c)?-->   I``         acknowledges with ``wback``;
- ``MB / M(c') --putx(c)?--> same``  stale write-back: ``wbnack``;
- ``I    --getx(dma)?--> DR``        DMA read (data from memory);
- ``I    --putx(dma)?--> DW``        DMA write (ack via ``wback``);
- ``DR/DW --unblock(dma)?--> I``;
- ``MB   --unblock(dma)?--> I``      DMA read served by an owner cache.

**DMA controller** — states ``idle, busy_rd, busy_wr``: issues ``getx`` /
``putx`` tagged with its own node, finishing with ``unblock``.

Message types: ``getx, fwd, data, unblock, putx, wback, wbnack`` — DMA
requests reuse ``getx``/``putx`` distinguished by their source node, which
is how the directory reaches exactly the paper's ``4 + n`` states.

The protocol avoids the abstract protocol's inv-based deadlock pattern
("modified to exclude the deadlock described above"): ownership hand-off
is request-driven (``fwd``) rather than invalidation-driven, and stale
write-backs are nacked instead of stalling the directory.
"""

from __future__ import annotations

from ..fabrics import Fabric, FabricConfig, build_fabric
from ..fabrics.routing import RoutingFunction, xy_routing
from ..fabrics.topology import (
    MeshTopology,
    Node,
    RingTopology,
    Topology,
    TorusTopology,
)
from ..xmas import Automaton, Network, NetworkBuilder, Transition
from .assembly import ProtocolInstance, attach, ether, message_is
from .messages import Message

__all__ = [
    "mi_mesh",
    "mi_network",
    "mi_ring",
    "mi_torus",
    "mi_ether",
    "build_mi_cache",
    "build_mi_directory",
    "build_mi_dma",
    "mi_vc_assignment",
]

GETX = "getx"
FWD = "fwd"
DATA = "data"
UNBLOCK = "unblock"
PUTX = "putx"
WBACK = "wback"
WBNACK = "wbnack"

REQUEST_TYPES = (GETX, PUTX)
RESPONSE_TYPES = (FWD, DATA, UNBLOCK, WBACK, WBNACK)


def mi_vc_assignment(message: Message) -> int:
    """Requests on VC0, responses/forwards on VC1."""
    return 0 if message.mtype in REQUEST_TYPES else 1


def build_mi_cache(
    builder: NetworkBuilder,
    node: Node,
    directory_node: Node,
    peer_nodes: list[Node],
    dma_node: Node | None = None,
) -> Automaton:
    """The five-state L2 cache controller at ``node``.

    ``peer_nodes`` are the possible requestors of a forward (other caches
    and the DMA controller); one transition per peer keeps guards and the
    produced ``data`` packet monomorphic.  A forward on behalf of the DMA
    is a *read*: the owner serves data and keeps the block, whereas a
    forward for another cache transfers ownership (M→I).
    """
    name = f"cache_{node[0]}_{node[1]}"
    getx = Message(GETX, src=node, dst=directory_node)
    putx = Message(PUTX, src=node, dst=directory_node)
    unblock = Message(UNBLOCK, src=node, dst=directory_node)
    transitions = [
        Transition(
            name="getx!",
            origin="I",
            target="IM",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=getx: m,
        ),
        Transition(
            name="data?unblock!",
            origin="IM",
            target="M",
            in_port="net_in",
            guard=message_is(DATA, dst=node),
            out_port="net_out",
            produce=lambda _d, m=unblock: m,
        ),
        Transition(
            name="replace!",
            origin="M",
            target="MI",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=putx: m,
        ),
        Transition(
            name="wback?",
            origin="MI",
            target="I",
            in_port="net_in",
            guard=message_is(WBACK, dst=node),
        ),
        Transition(
            name="wbnack?",
            origin="MI",
            target="II",
            in_port="net_in",
            guard=message_is(WBNACK, dst=node),
        ),
        Transition(
            name="wbnack?@II",
            origin="II",
            target="I",
            in_port="net_in",
            guard=message_is(WBNACK, dst=node),
        ),
    ]
    for peer in peer_nodes:
        data = Message(DATA, src=node, dst=peer)
        if peer == dma_node:
            # Read-only serve: ownership is unaffected by a DMA read.
            shapes = (("M", "M", ""), ("MI", "MI", "@MI"), ("II", "II", "@II"))
        else:
            shapes = (("M", "I", ""), ("MI", "II", "@MI"), ("II", "I", "@II"))
        for origin, target, suffix in shapes:
            transitions.append(
                Transition(
                    name=f"fwd{peer[0]}{peer[1]}?data!{suffix}",
                    origin=origin,
                    target=target,
                    in_port="net_in",
                    guard=message_is(FWD, src=peer, dst=node),
                    out_port="net_out",
                    produce=lambda _d, m=data: m,
                )
            )
    return builder.automaton(
        name,
        states=["I", "IM", "M", "MI", "II"],
        initial="I",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def build_mi_directory(
    builder: NetworkBuilder,
    directory_node: Node,
    cache_nodes: list[Node],
    dma_node: Node | None,
) -> Automaton:
    """The directory controller: states I, MB, DR, DW and M(c) per cache."""

    def m_state(c: Node) -> str:
        return f"M_{c[0]}_{c[1]}"

    states = ["I", "MB"] + [m_state(c) for c in cache_nodes]
    transitions: list[Transition] = []

    for c in cache_nodes:
        data = Message(DATA, src=directory_node, dst=c)
        wback = Message(WBACK, src=directory_node, dst=c)
        wbnack = Message(WBNACK, src=directory_node, dst=c)
        transitions.append(
            Transition(
                name=f"getx?{c[0]}{c[1]}@I",
                origin="I",
                target="MB",
                in_port="net_in",
                guard=message_is(GETX, src=c),
                out_port="net_out",
                produce=lambda _d, m=data: m,
            )
        )
        transitions.append(
            Transition(
                name=f"unblock?{c[0]}{c[1]}",
                origin="MB",
                target=m_state(c),
                in_port="net_in",
                guard=message_is(UNBLOCK, src=c),
            )
        )
        transitions.append(
            Transition(
                name=f"putx?{c[0]}{c[1]}@M",
                origin=m_state(c),
                target="I",
                in_port="net_in",
                guard=message_is(PUTX, src=c),
                out_port="net_out",
                produce=lambda _d, m=wback: m,
            )
        )
        # Stale write-backs are nacked wherever the directory is busy or
        # has already moved ownership on.
        transitions.append(
            Transition(
                name=f"putx?{c[0]}{c[1]}@MB",
                origin="MB",
                target="MB",
                in_port="net_in",
                guard=message_is(PUTX, src=c),
                out_port="net_out",
                produce=lambda _d, m=wbnack: m,
            )
        )
        for owner in cache_nodes:
            if owner == c:
                continue
            transitions.append(
                Transition(
                    name=f"putx?{c[0]}{c[1]}@M{owner[0]}{owner[1]}",
                    origin=m_state(owner),
                    target=m_state(owner),
                    in_port="net_in",
                    guard=message_is(PUTX, src=c),
                    out_port="net_out",
                    produce=lambda _d, m=wbnack: m,
                )
            )
        # Conflicting cache request while owned: forward, await unblock.
        for requestor in cache_nodes:
            if requestor == c:
                continue
            fwd = Message(FWD, src=requestor, dst=c)
            transitions.append(
                Transition(
                    name=f"getx?{requestor[0]}{requestor[1]}@M{c[0]}{c[1]}",
                    origin=m_state(c),
                    target="MB",
                    in_port="net_in",
                    guard=message_is(GETX, src=requestor),
                    out_port="net_out",
                    produce=lambda _d, m=fwd: m,
                )
            )
        # DMA read while owned: forward, ownership unchanged, no unblock.
        if dma_node is not None:
            dma_fwd = Message(FWD, src=dma_node, dst=c)
            transitions.append(
                Transition(
                    name=f"getx?dma@M{c[0]}{c[1]}",
                    origin=m_state(c),
                    target=m_state(c),
                    in_port="net_in",
                    guard=message_is(GETX, src=dma_node),
                    out_port="net_out",
                    produce=lambda _d, m=dma_fwd: m,
                )
            )

    if dma_node is not None:
        states += ["DR", "DW"]
        dma_data = Message(DATA, src=directory_node, dst=dma_node)
        dma_wback = Message(WBACK, src=directory_node, dst=dma_node)
        transitions.append(
            Transition(
                name="dmard?@I",
                origin="I",
                target="DR",
                in_port="net_in",
                guard=message_is(GETX, src=dma_node),
                out_port="net_out",
                produce=lambda _d, m=dma_data: m,
            )
        )
        transitions.append(
            Transition(
                name="dmawr?@I",
                origin="I",
                target="DW",
                in_port="net_in",
                guard=message_is(PUTX, src=dma_node),
                out_port="net_out",
                produce=lambda _d, m=dma_wback: m,
            )
        )
        # Read rounds complete with the DMA's unblock, write rounds with
        # the DMA's write-data.  The two completions must be *distinct
        # colors*: a shared completion message decorrelates the DR and DW
        # occupancy flows during invariant elimination and produces
        # unprovable (false-negative) deadlock candidates.
        transitions.append(
            Transition(
                name="dmaunblock?@DR",
                origin="DR",
                target="I",
                in_port="net_in",
                guard=message_is(UNBLOCK, src=dma_node),
            )
        )
        transitions.append(
            Transition(
                name="dmawrdata?@DW",
                origin="DW",
                target="I",
                in_port="net_in",
                guard=message_is(DATA, src=dma_node),
            )
        )
    return builder.automaton(
        f"dir_{directory_node[0]}_{directory_node[1]}",
        states=states,
        initial="I",
        in_ports=["net_in"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def build_mi_dma(
    builder: NetworkBuilder,
    node: Node,
    directory_node: Node,
    cache_nodes: list[Node],
) -> Automaton:
    """The DMA controller: read and write rounds against the directory.

    Reads served by the directory complete with an ``unblock`` (the
    directory waits in ``DR``); reads served cache-to-cache complete
    silently (the directory never left ``M(c)``).  Writes complete with a
    write-data message, a color distinct from the read completion — see
    :func:`build_mi_directory`.
    """
    name = f"dma_{node[0]}_{node[1]}"
    rd = Message(GETX, src=node, dst=directory_node)
    wr = Message(PUTX, src=node, dst=directory_node)
    unblock = Message(UNBLOCK, src=node, dst=directory_node)
    wrdata = Message(DATA, src=node, dst=directory_node)
    transitions = [
        Transition(
            name="dmard!",
            origin="idle",
            target="busy_rd",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=rd: m,
        ),
        Transition(
            name="dmawr!",
            origin="idle",
            target="busy_wr",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=wr: m,
        ),
        Transition(
            name="dirdata?unblock!",
            origin="busy_rd",
            target="idle",
            in_port="net_in",
            guard=message_is(DATA, src=directory_node, dst=node),
            out_port="net_out",
            produce=lambda _d, m=unblock: m,
        ),
        Transition(
            name="wback?wrdata!",
            origin="busy_wr",
            target="idle",
            in_port="net_in",
            guard=message_is(WBACK, dst=node),
            out_port="net_out",
            produce=lambda _d, m=wrdata: m,
        ),
    ]
    for c in cache_nodes:
        transitions.append(
            Transition(
                name=f"ownerdata?{c[0]}{c[1]}",
                origin="busy_rd",
                target="idle",
                in_port="net_in",
                guard=message_is(DATA, src=c, dst=node),
            )
        )
    return builder.automaton(
        name,
        states=["idle", "busy_rd", "busy_wr"],
        initial="idle",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def _plan_nodes(
    all_nodes: list[Node],
    directory_node: Node | None,
    dma_node: Node | None,
    with_dma: bool,
) -> tuple[Node, Node | None, list[Node]]:
    if directory_node is None:
        directory_node = all_nodes[-1]
    if with_dma and dma_node is None:
        dma_node = next(n for n in all_nodes if n != directory_node)
    cache_nodes = [
        n for n in all_nodes if n != directory_node and n != dma_node
    ]
    if not cache_nodes:
        raise ValueError("no nodes left for caches")
    return directory_node, dma_node, cache_nodes


def _controllers(
    builder: NetworkBuilder,
    fabric: Fabric | None,
    directory_node: Node,
    dma_node: Node | None,
    cache_nodes: list[Node],
) -> tuple[Automaton, dict[Node, Automaton], Automaton | None]:
    """Build and :func:`attach` the caches, the directory and the DMA."""
    dma_peers = [dma_node] if dma_node else []
    caches = {
        node: attach(
            builder,
            build_mi_cache(
                builder,
                node,
                directory_node,
                [n for n in cache_nodes if n != node] + dma_peers,
                dma_node=dma_node,
            ),
            node,
            fabric,
        )
        for node in cache_nodes
    }
    directory = attach(
        builder,
        build_mi_directory(builder, directory_node, cache_nodes, dma_node),
        directory_node,
        fabric,
    )
    dma = None
    if dma_node is not None:
        dma = attach(
            builder,
            build_mi_dma(builder, dma_node, directory_node, cache_nodes),
            dma_node,
            fabric,
        )
    return directory, caches, dma


def mi_network(
    topology: Topology,
    queue_size: int,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = True,
    vcs: int = 1,
    routing: RoutingFunction | None = None,
    escape_vcs: bool = False,
    validate: bool = True,
    name: str | None = None,
) -> ProtocolInstance:
    """The full MI protocol over any :class:`Topology`.

    One node hosts the directory (default: the last node in canonical
    order), one (optionally) the DMA controller, and every remaining node
    an L2 cache.  On wraparound topologies pass ``escape_vcs=True``.
    """
    directory_node, dma_node, cache_nodes = _plan_nodes(
        list(topology.nodes()), directory_node, dma_node, with_dma
    )
    if name is None:
        name = f"mi-{topology}-q{queue_size}".replace(" ", "-")
    builder = NetworkBuilder(name)
    config = FabricConfig(
        topology=topology,
        queue_size=queue_size,
        vcs=vcs,
        routing=routing,
        vc_of=mi_vc_assignment if vcs > 1 else None,
        escape_vcs=escape_vcs,
    )
    fabric = build_fabric(builder, config)
    directory, caches, dma = _controllers(
        builder, fabric, directory_node, dma_node, cache_nodes
    )
    return ProtocolInstance(
        network=builder.build(validate=validate),
        fabric=fabric,
        directory=directory,
        directory_node=directory_node,
        caches=caches,
        dma=dma,
        dma_node=dma_node,
    )


def mi_mesh(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = True,
    vcs: int = 1,
    routing: RoutingFunction = xy_routing,
    validate: bool = True,
) -> ProtocolInstance:
    """The full MI protocol on a ``width × height`` mesh."""
    return mi_network(
        MeshTopology(width, height),
        queue_size,
        directory_node=directory_node,
        dma_node=dma_node,
        with_dma=with_dma,
        vcs=vcs,
        routing=routing,
        validate=validate,
        name=f"mi-{width}x{height}-q{queue_size}",
    )


def mi_torus(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = True,
    vcs: int = 1,
    escape_vcs: bool = True,
    validate: bool = True,
) -> ProtocolInstance:
    """The full MI protocol on a torus (dateline escape VCs by default)."""
    return mi_network(
        TorusTopology(width, height),
        queue_size,
        directory_node=directory_node,
        dma_node=dma_node,
        with_dma=with_dma,
        vcs=vcs,
        escape_vcs=escape_vcs,
        validate=validate,
    )


def mi_ring(
    n_nodes: int,
    queue_size: int,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = True,
    vcs: int = 1,
    escape_vcs: bool = True,
    validate: bool = True,
) -> ProtocolInstance:
    """The full MI protocol on a bidirectional ring."""
    return mi_network(
        RingTopology(n_nodes),
        queue_size,
        directory_node=directory_node,
        dma_node=dma_node,
        with_dma=with_dma,
        vcs=vcs,
        escape_vcs=escape_vcs,
        validate=validate,
    )


def mi_ether(
    width: int,
    height: int,
    directory_node: Node | None = None,
    dma_node: Node | None = None,
    with_dma: bool = True,
) -> Network:
    """The full MI protocol under synchronous handshaking (E9 baseline)."""
    directory_node, dma_node, cache_nodes = _plan_nodes(
        list(MeshTopology(width, height).nodes()),
        directory_node,
        dma_node,
        with_dma,
    )
    builder = NetworkBuilder(f"mi-ether-{width}x{height}")
    directory, caches, dma = _controllers(
        builder, None, directory_node, dma_node, cache_nodes
    )
    automata = {**caches, directory_node: directory}
    if dma is not None:
        automata[dma_node] = dma
    return ether(builder, automata)
