"""A directory-based MSI protocol with request/response/writeback vnets.

Where the full MI protocol (Section 5) tracks a single exclusive owner,
MSI adds a *shared* state: several caches may hold read-only copies at
once, and the directory keeps an exact sharer record (bounded by
``max_sharers``, since xMAS automata are finite-state).  The protocol is
parameterized by any fabric :class:`~repro.fabrics.topology.Topology` —
the same controllers run on a mesh, torus or ring.

The design follows the MI protocol's *provable* discipline rather than a
textbook ack-counting one, because the verification engine reasons with
linear flow invariants that cannot express FIFO ordering or causality:

- **Grants are unblock-gated.**  After sending (or forwarding) data the
  directory parks in a busy state that waits only for the requestor's
  ``unblock`` — a message owed by a cache whose data is already in
  flight, so the wait never chains through a *stalled* request.  A
  handshake like "recall the owner and stall everything until its
  write-back arrives" is sound but unprovable: the invariants cannot
  separate "the owner is about to answer" from "the owner is mid-new-
  transaction and its request is stalled behind our wait" — a causal
  distinction, not a linear one.
- **Ownership hand-off is forward-driven.**  ``getS``/``getM`` hitting an
  owned line is forwarded to the owner (the forward's ``src`` names the
  requestor), and a forward is served — answered with ``data`` — in
  *every* cache state: out of ``M`` the serve carries the protocol
  meaning, elsewhere the forward is stale (the block was already written
  back) and the cache stands in for the memory reply a real system would
  send.  Every forward in flight is thus one guaranteed data packet.
- **Write-backs are always acknowledged, never stalled or nacked.**  A
  voluntary ``putM`` gets ``wbAck`` in whatever state it finds the
  directory; the replacing cache is provably parked in ``MI`` when the
  ack lands.
- **Sharer invalidations are fire-and-forget.**  The directory drops its
  sharer record the moment the ``inv``\\ s are sent and never collects
  acks; correspondingly ``inv`` is consumable in every cache state
  (``S --inv?--> I``, ``SM --inv?--> IM``, dropped elsewhere), so no
  ejection-queue head is ever structurally unconsumable.

Controllers
-----------

**L2 cache** — states ``I, IS, IM, S, SM, M, MI``:

- ``I  --(read miss)-->  IS``  sends ``getS``;
- ``I  --(write miss)--> IM``  sends ``getM``;
- ``IS --data?--> S``, ``IM --data?--> M``, ``SM --data?--> M`` — each
  acknowledges receipt with ``unblock``;
- ``S  --(upgrade)--> SM``     sends ``getM``;
- ``S  --inv?--> I``, ``SM --inv?--> IM`` (fire-and-forget, no ack);
- ``M  --fwdM(r)?--> I``       serves ``data`` to ``r``, ownership moves;
- ``M  --fwdS(r)?--> S``       serves ``data`` to ``r``, keeps a shared
  copy (the directory records both as sharers);
- ``M  --(replace)--> MI``     voluntary write-back: sends ``putM``;
- ``MI --wbAck?--> I``;
- stale forwards are served in place, and stale ``inv`` packets are
  consumed and dropped, in every remaining state.

**Directory** — stable states ``I``, ``S{sharers}`` (exact nonempty sets,
``|sharers| <= max_sharers``), ``M{owner}``; requestor-tagged busy
states ``BM(r)`` (a modified grant to ``r`` is in flight) and
``BS{set}(r)`` (a shared grant to ``r`` is in flight, ``r`` joins
``set`` on unblock) — the tag makes per-sender unblock conservation
derivable, so a floating ``unblock`` can only exist while the directory
waits for exactly it; token-paced send chains ``GM``/``GD``/``GSD``
pace the one-packet-per-firing invalidation rounds:

- ``I --getS(r)?/data!--> BS{}(r)``; ``I --getM(r)?/data!--> BM(r)``;
- ``S{set} --getS(r)?/data!--> BS{set}(r)`` below capacity; at capacity
  the highest sharer is evicted first (``inv``, then ``data`` on the
  next token via ``GSD``);
- ``S{set} --getM(r)?--> …`` fires one ``inv`` per sharer in ``set - r``
  (token-paced ``GM`` chain), then grants ``data`` (``GD``) into
  ``BM(r)``; a sole-sharer upgrade is granted directly;
- ``M{o} --getS(r)?/fwdS!--> BS{o}(r)``; ``M{o} --getM(r)?/fwdM!-->
  BM(r)``;
- ``M{o} --putM(o)?/wbAck!--> I``; any other ``putM`` is stale and is
  acknowledged on the spot (self-loops in every stable and busy state).

Requests the directory cannot consume in its current state stall in the
rotating ejection queue (the paper's stalling rule) until the busy state
resolves.  The transition set is *generated by forward exploration* from
``I``, so every enumerated state is reachable — a requirement of network
validation — and the exploration rules are the protocol's specification.

Virtual networks
----------------

Messages ride three protocol VCs — requests (``getS``/``getM``) on VC0,
responses (``data``/``fwd*``/``inv``/``unblock``/``wb*``) on VC1, and
write-backs (``putM``) on VC2 — so a stalled request can never block the
response that unblocks it, and a replacing owner's write-back never
queues behind the requests stalling in front of the directory.
"""

from __future__ import annotations

from ..fabrics import FabricConfig, build_fabric
from ..fabrics.routing import RoutingFunction
from ..fabrics.topology import (
    MeshTopology,
    Node,
    RingTopology,
    Topology,
    TorusTopology,
)
from ..xmas import Automaton, NetworkBuilder, Transition
from .assembly import ProtocolInstance, attach, message_is
from .messages import Message

__all__ = [
    "build_msi_cache",
    "build_msi_directory",
    "msi_mesh",
    "msi_network",
    "msi_ring",
    "msi_torus",
    "msi_vc_assignment",
]

GETS = "getS"
GETM = "getM"
PUTM = "putM"
DATA = "data"
FWDS = "fwdS"
FWDM = "fwdM"
INV = "inv"
UNBLOCK = "unblock"
WBACK = "wbAck"

REQUEST_TYPES = (GETS, GETM)
RESPONSE_TYPES = (DATA, FWDS, FWDM, INV, UNBLOCK, WBACK)
WRITEBACK_TYPES = (PUTM,)

MSI_VNETS = 3


def msi_vc_assignment(message: Message) -> int:
    """Requests on VC0, responses on VC1, write-backs on VC2."""
    if message.mtype in REQUEST_TYPES:
        return 0
    if message.mtype in RESPONSE_TYPES:
        return 1
    return 2


def _ctag(node: Node) -> str:
    return f"{node[0]}{node[1]}"


def build_msi_cache(
    builder: NetworkBuilder,
    node: Node,
    directory_node: Node,
    peer_nodes: list[Node],
) -> Automaton:
    """The seven-state MSI cache controller at ``node``.

    ``peer_nodes`` are the possible requestors of a forward; one
    transition per peer keeps guards and the produced ``data`` packet
    monomorphic (a forward's ``src`` names the cache to serve).
    """
    name = f"cache_{node[0]}_{node[1]}"
    gets = Message(GETS, src=node, dst=directory_node)
    getm = Message(GETM, src=node, dst=directory_node)
    putm = Message(PUTM, src=node, dst=directory_node)
    unblock = Message(UNBLOCK, src=node, dst=directory_node)

    def consume_data(label: str, origin: str, target: str) -> Transition:
        # Data may come from the directory or cache-to-cache from a peer,
        # so the guard constrains only the destination; receipt is always
        # acknowledged to the directory with unblock.
        return Transition(
            name=label,
            origin=origin,
            target=target,
            in_port="net_in",
            guard=message_is(DATA, dst=node),
            out_port="net_out",
            produce=lambda _d, m=unblock: m,
        )

    transitions = [
        Transition(
            name="getS!",
            origin="I",
            target="IS",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=gets: m,
        ),
        Transition(
            name="getM!",
            origin="I",
            target="IM",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=getm: m,
        ),
        consume_data("data?unblock!@IS", "IS", "S"),
        consume_data("data?unblock!@IM", "IM", "M"),
        Transition(
            name="upgrade!",
            origin="S",
            target="SM",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=getm: m,
        ),
        consume_data("data?unblock!@SM", "SM", "M"),
        Transition(
            name="inv?@S",
            origin="S",
            target="I",
            in_port="net_in",
            guard=message_is(INV, dst=node),
        ),
        Transition(
            name="inv?@SM",
            origin="SM",
            target="IM",
            in_port="net_in",
            guard=message_is(INV, dst=node),
        ),
        Transition(
            name="replace!",
            origin="M",
            target="MI",
            in_port="tok",
            out_port="net_out",
            produce=lambda _d, m=putm: m,
        ),
        Transition(
            name="wbAck?",
            origin="MI",
            target="I",
            in_port="net_in",
            guard=message_is(WBACK, dst=node),
        ),
    ]
    # Forwards are served in EVERY state.  Out of M the serve carries the
    # protocol meaning (read forwards downgrade to shared, write forwards
    # surrender ownership); everywhere else the forward is stale — the
    # block has already been written back, and a real system would answer
    # from memory.  Data values are not modelled, so the cache stands in
    # for that memory reply, which keeps the forward→data chain linear:
    # every forward in flight is one guaranteed data packet, no matter
    # where it lands.
    for peer in peer_nodes:
        data = Message(DATA, src=node, dst=peer)
        for mtype in (FWDS, FWDM):
            for origin in ("I", "IS", "IM", "S", "SM", "M", "MI"):
                if origin == "M":
                    target = "S" if mtype == FWDS else "I"
                else:
                    target = origin
                transitions.append(
                    Transition(
                        name=f"{mtype}{_ctag(peer)}?data!@{origin}",
                        origin=origin,
                        target=target,
                        in_port="net_in",
                        guard=message_is(mtype, src=peer, dst=node),
                        out_port="net_out",
                        produce=lambda _d, m=data: m,
                    )
                )
    # Sharer invalidations are fire-and-forget, so a stale one — sent
    # while the directory still counted this cache a sharer of an epoch
    # it has since left — can land in any state; it is consumed and
    # dropped, keeping every state inv-consuming.
    for state in ("I", "IS", "IM", "M", "MI"):
        transitions.append(
            Transition(
                name=f"staleinv@{state}",
                origin=state,
                target=state,
                in_port="net_in",
                guard=message_is(INV, dst=node),
            )
        )
    return builder.automaton(
        name,
        states=["I", "IS", "IM", "S", "SM", "M", "MI"],
        initial="I",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def build_msi_directory(
    builder: NetworkBuilder,
    directory_node: Node,
    cache_nodes: list[Node],
    max_sharers: int = 2,
) -> Automaton:
    """The MSI directory controller — forward-explored from ``I``.

    Directory states are abstract tuples explored breadth-first, so the
    generated automaton contains exactly the reachable states (network
    validation rejects unreachable ones); the exploration rules *are* the
    protocol.  ``max_sharers`` bounds the exact sharer record — beyond it
    a new reader evicts the highest current sharer first.
    """
    caches = sorted(cache_nodes)
    max_sharers = min(max_sharers, len(caches))
    if max_sharers < 1:
        raise ValueError("max_sharers must be >= 1")

    def data(c: Node) -> Message:
        return Message(DATA, src=directory_node, dst=c)

    def inv(c: Node) -> Message:
        return Message(INV, src=directory_node, dst=c)

    def fwd(mtype: str, requestor: Node, owner: Node) -> Message:
        return Message(mtype, src=requestor, dst=owner)

    def wback(c: Node) -> Message:
        return Message(WBACK, src=directory_node, dst=c)

    def state_name(state: tuple) -> str:
        kind = state[0]
        if kind == "I":
            return "I"
        if kind == "S":
            return "S_" + "_".join(_ctag(c) for c in state[1])
        if kind == "M":
            return f"M_{_ctag(state[1])}"
        if kind == "BM":
            return f"BM_{_ctag(state[1])}"
        if kind == "BS":
            joint = "".join("_" + _ctag(c) for c in state[1])
            return f"BS{joint}_for_{_ctag(state[2])}"
        if kind == "GM":
            pend = "_".join(_ctag(c) for c in state[1])
            return f"GM_{pend}_for_{_ctag(state[2])}"
        if kind == "GD":
            return f"GD_{_ctag(state[1])}"
        assert kind == "GSD"
        keep = "_".join(_ctag(c) for c in state[1])
        return f"GSD_{keep}_for_{_ctag(state[2])}"

    transitions: list[Transition] = []
    ordered_states: list[tuple] = []
    seen: set[tuple] = set()
    worklist: list[tuple] = []

    def discover(state: tuple) -> None:
        if state not in seen:
            seen.add(state)
            ordered_states.append(state)
            worklist.append(state)

    def emit(
        label: str,
        origin: tuple,
        target: tuple,
        in_port: str,
        guard=None,
        produce_msg: Message | None = None,
    ) -> None:
        kwargs = {}
        if produce_msg is not None:
            kwargs = {
                "out_port": "net_out",
                "produce": lambda _d, m=produce_msg: m,
            }
        transitions.append(
            Transition(
                name=label,
                origin=state_name(origin),
                target=state_name(target),
                in_port=in_port,
                guard=guard,
                **kwargs,
            )
        )
        discover(target)

    def ack_stale_putm(state: tuple, real_owner: Node | None = None) -> None:
        # A write-back that lost a race (its owner was already forwarded
        # past, or ownership has moved on) is acknowledged on the spot —
        # stalling it would wedge the directory's ejection queue, and a
        # nack would strand the cache in a wait the flow invariants
        # cannot discharge.  Every putM thus yields exactly one wbAck,
        # consumed by a cache that is provably parked in MI.
        for c in caches:
            if c == real_owner:
                continue
            emit(
                f"putM?{_ctag(c)}@{state_name(state)}",
                state,
                state,
                "net_in",
                message_is(PUTM, src=c),
                wback(c),
            )

    def grant_m(state: tuple, r: Node) -> None:
        """getM(r) in a stable sharer state (``state[1]`` or no sharers)."""
        sharers = state[1] if state[0] == "S" else ()
        pending = tuple(c for c in sharers if c != r)
        if not pending:
            emit(
                f"getM?{_ctag(r)}@{state_name(state)}",
                state,
                ("BM", r),
                "net_in",
                message_is(GETM, src=r),
                data(r),
            )
        else:
            # Fire the first inv on the request itself; the rest of the
            # round (remaining invs, then the grant) is token-paced.
            rest = pending[1:]
            target = ("GM", rest, r) if rest else ("GD", r)
            emit(
                f"getM?{_ctag(r)}@{state_name(state)}",
                state,
                target,
                "net_in",
                message_is(GETM, src=r),
                inv(pending[0]),
            )

    discover(("I",))
    while worklist:
        state = worklist.pop(0)
        kind = state[0]
        if kind == "I":
            for r in caches:
                emit(
                    f"getS?{_ctag(r)}@I",
                    state,
                    ("BS", (), r),
                    "net_in",
                    message_is(GETS, src=r),
                    data(r),
                )
                grant_m(state, r)
            ack_stale_putm(state)
        elif kind == "S":
            sharers = state[1]
            for r in caches:
                if r not in sharers:
                    if len(sharers) < max_sharers:
                        emit(
                            f"getS?{_ctag(r)}@{state_name(state)}",
                            state,
                            ("BS", sharers, r),
                            "net_in",
                            message_is(GETS, src=r),
                            data(r),
                        )
                    else:
                        evict = max(sharers)
                        keep = tuple(c for c in sharers if c != evict)
                        emit(
                            f"getS?{_ctag(r)}@{state_name(state)}",
                            state,
                            ("GSD", keep, r),
                            "net_in",
                            message_is(GETS, src=r),
                            inv(evict),
                        )
                grant_m(state, r)
            ack_stale_putm(state)
        elif kind == "M":
            o = state[1]
            for r in caches:
                if r == o:
                    continue
                emit(
                    f"getS?{_ctag(r)}@{state_name(state)}",
                    state,
                    ("BS", (o,), r),
                    "net_in",
                    message_is(GETS, src=r),
                    fwd(FWDS, r, o),
                )
                emit(
                    f"getM?{_ctag(r)}@{state_name(state)}",
                    state,
                    ("BM", r),
                    "net_in",
                    message_is(GETM, src=r),
                    fwd(FWDM, r, o),
                )
            emit(
                f"putM?{_ctag(o)}@{state_name(state)}",
                state,
                ("I",),
                "net_in",
                message_is(PUTM, src=o),
                wback(o),
            )
            ack_stale_putm(state, real_owner=o)
        elif kind == "BM":
            # Requestor-tagged busy states consume only *their* unblock:
            # per-sender flow conservation then proves an in-flight
            # unblock(r) implies the directory is waiting for exactly it.
            r = state[1]
            emit(
                f"unblock?{_ctag(r)}@{state_name(state)}",
                state,
                ("M", r),
                "net_in",
                message_is(UNBLOCK, src=r),
            )
            ack_stale_putm(state)
        elif kind == "BS":
            sharers, r = state[1], state[2]
            grown = tuple(sorted(sharers + (r,)))
            emit(
                f"unblock?{_ctag(r)}@{state_name(state)}",
                state,
                ("S", grown),
                "net_in",
                message_is(UNBLOCK, src=r),
            )
            ack_stale_putm(state)
        elif kind == "GM":
            pending, r = state[1], state[2]
            target = ("GM", pending[1:], r) if pending[1:] else ("GD", r)
            emit(
                f"inv!{_ctag(pending[0])}@{state_name(state)}",
                state,
                target,
                "tok",
                None,
                inv(pending[0]),
            )
        elif kind == "GD":
            r = state[1]
            emit(
                f"grant!{_ctag(r)}@{state_name(state)}",
                state,
                ("BM", r),
                "tok",
                None,
                data(r),
            )
        else:
            assert kind == "GSD"
            keep, r = state[1], state[2]
            emit(
                f"grant!{_ctag(r)}@{state_name(state)}",
                state,
                ("BS", keep, r),
                "tok",
                None,
                data(r),
            )

    return builder.automaton(
        f"dir_{directory_node[0]}_{directory_node[1]}",
        states=[state_name(s) for s in ordered_states],
        initial="I",
        in_ports=["net_in", "tok"],
        out_ports=["net_out"],
        transitions=transitions,
    )


def msi_network(
    topology: Topology,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = MSI_VNETS,
    routing: RoutingFunction | None = None,
    escape_vcs: bool = False,
    max_sharers: int = 2,
    validate: bool = True,
    name: str | None = None,
) -> ProtocolInstance:
    """Directory MSI over any :class:`Topology`.

    Every node except ``directory_node`` (default: the last node in
    canonical order) hosts an MSI cache.  The default ``vcs`` carries the
    three protocol vnets; ``vcs=1`` merges them for ablation (the
    request-blocks-response deadlocks come back).
    """
    if directory_node is None:
        directory_node = list(topology.nodes())[-1]
    if name is None:
        name = f"msi-{topology}-q{queue_size}".replace(" ", "-")
    builder = NetworkBuilder(name)
    config = FabricConfig(
        topology=topology,
        queue_size=queue_size,
        vcs=vcs,
        routing=routing,
        vc_of=msi_vc_assignment if vcs > 1 else None,
        escape_vcs=escape_vcs,
    )
    fabric = build_fabric(builder, config)
    cache_nodes = [n for n in topology.nodes() if n != directory_node]
    caches = {
        node: attach(
            builder,
            build_msi_cache(
                builder, node, directory_node, [n for n in cache_nodes if n != node]
            ),
            node,
            fabric,
        )
        for node in cache_nodes
    }
    directory = attach(
        builder,
        build_msi_directory(
            builder, directory_node, cache_nodes, max_sharers=max_sharers
        ),
        directory_node,
        fabric,
    )
    return ProtocolInstance(
        network=builder.build(validate=validate),
        fabric=fabric,
        directory=directory,
        directory_node=directory_node,
        caches=caches,
    )


def msi_mesh(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = MSI_VNETS,
    max_sharers: int = 2,
    validate: bool = True,
) -> ProtocolInstance:
    """Directory MSI on a ``width × height`` mesh."""
    return msi_network(
        MeshTopology(width, height),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        max_sharers=max_sharers,
        validate=validate,
    )


def msi_torus(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = MSI_VNETS,
    escape_vcs: bool = True,
    max_sharers: int = 2,
    validate: bool = True,
) -> ProtocolInstance:
    """Directory MSI on a torus (dateline escape VCs by default)."""
    return msi_network(
        TorusTopology(width, height),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
        max_sharers=max_sharers,
        validate=validate,
    )


def msi_ring(
    n_nodes: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = MSI_VNETS,
    escape_vcs: bool = True,
    max_sharers: int = 2,
    validate: bool = True,
) -> ProtocolInstance:
    """Directory MSI on a bidirectional ring."""
    return msi_network(
        RingTopology(n_nodes),
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
        max_sharers=max_sharers,
        validate=validate,
    )
