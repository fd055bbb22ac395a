"""The paper's artificial directory-based MI protocol (Figure 2).

One directory serializes ownership of a single cache block among the L2
caches on the mesh:

* **Cache** (Figure 2a) — states ``I``, ``M``, ``MI``:

  - ``I  --(miss)--> M``            sends ``getX`` to the directory, moves to
    ``M`` optimistically (the abstract model does not wait for data);
  - ``M  --(replace)--> MI``        voluntary replacement: sends ``putX``;
  - ``M  --inv?--> MI``             forced flush: sends ``putX``;
  - ``MI --ack?--> I``              directory acknowledged the write-back;
  - stale ``inv`` packets arriving in ``I`` or ``MI`` are consumed and
    dropped (they belong to an ownership epoch the cache already left).

* **Directory** (Figure 2b) — states ``I`` and ``M(c)``, ``MI(c)`` per
  cache ``c``:

  - ``I     --getX(c)?--> M(c)``    records ``c`` as owner;
  - ``M(c)  --(decide)--> MI(c)``   spontaneously sends ``inv`` to the owner;
  - ``M(c)  --putX(c)?--> I``       voluntary write-back, replies ``ack``;
  - ``MI(c) --putX(c)?--> I``       forced write-back, replies ``ack``;
  - packets that cannot be consumed in the current state stall and are
    moved to the end of the (rotating) ejection queue.

Spontaneous transitions (miss, replacement, invalidate decision) are
triggered by local fair token sources, as in the paper's running example.

``repeat_inv=True`` switches the directory to re-send reminder
invalidations from ``MI(c)`` (a protocol variant exercised by the ablation
benchmarks); ``voluntary_replacement=False`` removes the cache's
spontaneous ``putX`` (ditto).
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
    "abstract_mi_ether",
    "abstract_mi_mesh",
    "abstract_mi_network",
    "abstract_mi_ring",
    "abstract_mi_torus",
    "build_cache_automaton",
    "build_directory_automaton",
    "request_response_vc",
]

GETX = "getX"
PUTX = "putX"
INV = "inv"
ACK = "ack"


def request_response_vc(message: Message) -> int:
    """The standard VC assignment: requests on VC0, responses on VC1."""
    return 0 if message.mtype in (GETX, PUTX) else 1


def build_cache_automaton(
    builder: NetworkBuilder,
    node: Node,
    directory_node: Node,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
) -> Automaton:
    """The L2 cache controller at ``node`` (Figure 2a).

    The default is the minimal three-edge automaton of Figure 2a:
    ``I --get!--> M --inv? put!--> MI --ack?--> I``.  With
    ``voluntary_replacement=True`` the cache may also flush spontaneously
    from ``M`` ("a replacement is triggered from the core itself"), which
    creates *stale* invalidations racing with the voluntary write-back;
    ``drop_stale_invs`` then controls whether those are consumed-and-dropped
    in ``I``/``MI`` or left to rotate until the next ownership epoch.
    """
    name = f"cache_{node[0]}_{node[1]}"
    getx = Message(GETX, src=node, dst=directory_node)
    putx = Message(PUTX, src=node, dst=directory_node)
    transitions = [
        Transition(
            name="get!",
            origin="I",
            target="M",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=getx: m,
        ),
        Transition(
            name="inv?put!",
            origin="M",
            target="MI",
            in_port="net_in",
            guard=message_is(INV),
            out_port="net_out",
            produce=lambda _d, m=putx: m,
        ),
        Transition(
            name="ack?",
            origin="MI",
            target="I",
            in_port="net_in",
            guard=message_is(ACK),
        ),
    ]
    if voluntary_replacement:
        transitions.append(
            Transition(
                name="replace!",
                origin="M",
                target="MI",
                in_port="tok",
                out_port="net_out",
                produce=lambda _d, m=putx: m,
            )
        )
        if drop_stale_invs:
            transitions.append(
                Transition(
                    name="staleinv@I",
                    origin="I",
                    target="I",
                    in_port="net_in",
                    guard=message_is(INV),
                )
            )
            transitions.append(
                Transition(
                    name="staleinv@MI",
                    origin="MI",
                    target="MI",
                    in_port="net_in",
                    guard=message_is(INV),
                )
            )
    return builder.automaton(
        name,
        states=["I", "M", "MI"],
        initial="I",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def build_directory_automaton(
    builder: NetworkBuilder,
    directory_node: Node,
    cache_nodes: list[Node],
    repeat_inv: bool = False,
    accept_put_in_m: bool = False,
) -> Automaton:
    """The directory controller (Figure 2b): states I, M(c), MI(c).

    ``accept_put_in_m`` adds the ``M(c) --putX(c)?--> I`` edge, which is
    only reachable when caches write back voluntarily; including it when it
    cannot fire weakens the derivable invariants (its firing count survives
    Gaussian elimination as an unconstrained unknown), so it is opt-in.
    """

    def m_state(c: Node) -> str:
        return f"M_{c[0]}_{c[1]}"

    def mi_state(c: Node) -> str:
        return f"MI_{c[0]}_{c[1]}"

    states = ["I"]
    transitions: list[Transition] = []
    for c in cache_nodes:
        states += [m_state(c), mi_state(c)]
        inv = Message(INV, src=directory_node, dst=c)
        ack = Message(ACK, src=directory_node, dst=c)
        transitions.append(
            Transition(
                name=f"get?{c[0]}{c[1]}",
                origin="I",
                target=m_state(c),
                in_port="net_in",
                guard=message_is(GETX, src=c),
            )
        )
        transitions.append(
            Transition(
                name=f"inv!{c[0]}{c[1]}",
                origin=m_state(c),
                target=mi_state(c),
                in_port="tok",
                out_port="net_out",
                produce=lambda _d, m=inv: m,
            )
        )
        if repeat_inv:
            transitions.append(
                Transition(
                    name=f"reinv!{c[0]}{c[1]}",
                    origin=mi_state(c),
                    target=mi_state(c),
                    in_port="tok",
                    out_port="net_out",
                    produce=lambda _d, m=inv: m,
                )
            )
        put_origins = [mi_state(c)]
        if accept_put_in_m:
            put_origins.append(m_state(c))
        for origin in put_origins:
            transitions.append(
                Transition(
                    name=f"put?{c[0]}{c[1]}@{origin}",
                    origin=origin,
                    target="I",
                    in_port="net_in",
                    guard=message_is(PUTX, src=c),
                    out_port="net_out",
                    produce=lambda _d, m=ack: m,
                )
            )
    return builder.automaton(
        f"dir_{directory_node[0]}_{directory_node[1]}",
        states=states,
        initial="I",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def _controllers(
    builder: NetworkBuilder,
    fabric: Fabric | None,
    directory_node: Node,
    cache_nodes: list[Node],
    repeat_inv: bool,
    voluntary_replacement: bool,
    drop_stale_invs: bool,
) -> tuple[Automaton, dict[Node, Automaton]]:
    """Build and :func:`attach` the caches, then the directory."""
    caches = {
        node: attach(
            builder,
            build_cache_automaton(
                builder, node, directory_node, voluntary_replacement, drop_stale_invs
            ),
            node,
            fabric,
        )
        for node in cache_nodes
    }
    directory = build_directory_automaton(
        builder,
        directory_node,
        cache_nodes,
        repeat_inv=repeat_inv,
        accept_put_in_m=voluntary_replacement,
    )
    return attach(builder, directory, directory_node, fabric), caches


def abstract_mi_network(
    topology: Topology,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = 1,
    routing: RoutingFunction | None = None,
    escape_vcs: bool = False,
    repeat_inv: bool = False,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
    validate: bool = True,
    name: str | None = None,
) -> ProtocolInstance:
    """The abstract MI protocol over any :class:`Topology`.

    Every node except ``directory_node`` (default: the last node in
    canonical order — the bottom-right corner on a mesh) hosts an L2
    cache automaton.  All fabric queues share ``queue_size``.  On
    wraparound topologies pass ``escape_vcs=True`` so the fabric's own
    wrap-link cycle does not drown the protocol's deadlocks.
    """
    if directory_node is None:
        directory_node = list(topology.nodes())[-1]
    if name is None:
        name = f"abstract-mi-{topology}-q{queue_size}".replace(" ", "-")
    builder = NetworkBuilder(name)
    config = FabricConfig(
        topology=topology,
        queue_size=queue_size,
        vcs=vcs,
        routing=routing,
        vc_of=request_response_vc if vcs > 1 else None,
        escape_vcs=escape_vcs,
    )
    fabric = build_fabric(builder, config)
    directory, caches = _controllers(
        builder,
        fabric,
        directory_node,
        [n for n in topology.nodes() if n != directory_node],
        repeat_inv,
        voluntary_replacement,
        drop_stale_invs,
    )
    return ProtocolInstance(
        network=builder.build(validate=validate),
        fabric=fabric,
        directory=directory,
        directory_node=directory_node,
        caches=caches,
    )


def abstract_mi_mesh(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = 1,
    routing: RoutingFunction = xy_routing,
    repeat_inv: bool = False,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
    validate: bool = True,
) -> ProtocolInstance:
    """The paper's case study: abstract MI on a ``width×height`` mesh."""
    return abstract_mi_network(
        MeshTopology(width, height),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        routing=routing,
        repeat_inv=repeat_inv,
        voluntary_replacement=voluntary_replacement,
        drop_stale_invs=drop_stale_invs,
        validate=validate,
        name=f"abstract-mi-{width}x{height}-q{queue_size}",
    )


def abstract_mi_torus(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = 1,
    escape_vcs: bool = True,
    repeat_inv: bool = False,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
    validate: bool = True,
) -> ProtocolInstance:
    """Abstract MI on a wraparound torus (dateline escape VCs by default)."""
    return abstract_mi_network(
        TorusTopology(width, height),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
        repeat_inv=repeat_inv,
        voluntary_replacement=voluntary_replacement,
        drop_stale_invs=drop_stale_invs,
        validate=validate,
    )


def abstract_mi_ring(
    n_nodes: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = 1,
    escape_vcs: bool = True,
    repeat_inv: bool = False,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
    validate: bool = True,
) -> ProtocolInstance:
    """Abstract MI on a bidirectional ring (dateline escape VCs by default)."""
    return abstract_mi_network(
        RingTopology(n_nodes),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
        repeat_inv=repeat_inv,
        voluntary_replacement=voluntary_replacement,
        drop_stale_invs=drop_stale_invs,
        validate=validate,
    )


def abstract_mi_ether(
    width: int,
    height: int,
    directory_node: Node | None = None,
    voluntary_replacement: bool = False,
    drop_stale_invs: bool = True,
    repeat_inv: bool = False,
) -> Network:
    """The protocol alone, composed by synchronous handshaking (E9 baseline).

    The controllers of :func:`abstract_mi_mesh`, closed by the queue-free
    :func:`~repro.protocols.assembly.ether` instead of a fabric.  Feed the
    result to :func:`repro.mc.check_handshake_composition`.
    """
    nodes = list(MeshTopology(width, height).nodes())
    if directory_node is None:
        directory_node = nodes[-1]
    builder = NetworkBuilder(f"abstract-mi-ether-{width}x{height}")
    directory, caches = _controllers(
        builder,
        None,
        directory_node,
        [n for n in nodes if n != directory_node],
        repeat_inv,
        voluntary_replacement,
        drop_stale_invs,
    )
    return ether(builder, {**caches, directory_node: directory})
