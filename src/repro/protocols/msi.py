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

from functools import partial

from ..fabrics.topology import MeshTopology, Node, RingTopology, TorusTopology
from .assembly import ProtocolInstance, assemble
from .messages import Message

__all__ = ["msi_mesh", "msi_ring", "msi_torus", "msi_vc_assignment"]

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

CACHE_STATES = ("I", "IS", "IM", "S", "SM", "M", "MI")


def msi_vc_assignment(message: Message) -> int:
    """Requests on VC0, responses on VC1, write-backs on VC2."""
    if message.mtype in REQUEST_TYPES:
        return 0
    if message.mtype in RESPONSE_TYPES:
        return 1
    return 2


def _ctag(node: Node) -> str:
    return f"{node[0]}{node[1]}"


def _state_name(state: tuple) -> str:
    """The automaton state name of an abstract directory state."""
    kind = state[0]
    if kind == "I":
        return "I"
    if kind == "S":
        return "S_" + "_".join(_ctag(c) for c in state[1])
    if kind in ("M", "BM", "GD"):
        return f"{kind}_{_ctag(state[1])}"
    if kind == "BS":
        joint = "".join("_" + _ctag(c) for c in state[1])
        return f"BS{joint}_for_{_ctag(state[2])}"
    assert kind in ("GM", "GSD")
    listed = "_".join(_ctag(c) for c in state[1])
    return f"{kind}_{listed}_for_{_ctag(state[2])}"


def _directory_moves(state: tuple, directory: Node, caches: list[Node], cap: int):
    """The directory's moves out of abstract ``state``, as
    ``(label, target, receive, send)``; ``cap`` bounds the sharer record."""
    kind, here = state[0], _state_name(state)
    if kind in ("I", "S"):
        sharers = state[1] if kind == "S" else ()
        for r in caches:
            get_s, get_m = (GETS, r, None), (GETM, r, None)
            data = Message(DATA, directory, r)
            if r not in sharers and len(sharers) < cap:
                yield f"getS?{_ctag(r)}@{here}", ("BS", sharers, r), get_s, data
            elif r not in sharers:
                # At capacity the highest sharer is evicted first: its inv
                # goes out on the request, the data on the next token
                # (``GSD``).
                evict = max(sharers)
                keep = tuple(c for c in sharers if c != evict)
                inv = Message(INV, directory, evict)
                yield f"getS?{_ctag(r)}@{here}", ("GSD", keep, r), get_s, inv
            pending = tuple(c for c in sharers if c != r)
            if not pending:
                yield f"getM?{_ctag(r)}@{here}", ("BM", r), get_m, data
            else:
                # Fire the first inv on the request itself; the rest of the
                # round (remaining invs, then the grant) is token-paced.
                rest = pending[1:]
                target = ("GM", rest, r) if rest else ("GD", r)
                inv = Message(INV, directory, pending[0])
                yield f"getM?{_ctag(r)}@{here}", target, get_m, inv
    elif kind == "M":
        o = state[1]
        for r in caches:
            if r != o:
                fwd_s, fwd_m = Message(FWDS, r, o), Message(FWDM, r, o)
                yield f"getS?{_ctag(r)}@{here}", ("BS", (o,), r), (GETS, r, None), fwd_s
                yield f"getM?{_ctag(r)}@{here}", ("BM", r), (GETM, r, None), fwd_m
        wback = Message(WBACK, directory, o)
        yield f"putM?{_ctag(o)}@{here}", ("I",), (PUTM, o, None), wback
    elif kind in ("BM", "BS"):
        # Requestor-tagged busy states consume only *their* unblock:
        # per-sender flow conservation then proves an in-flight
        # unblock(r) implies the directory is waiting for exactly it.
        r = state[-1]
        if kind == "BM":
            target = ("M", r)
        else:
            target = ("S", tuple(sorted(state[1] + (r,))))
        yield f"unblock?{_ctag(r)}@{here}", target, (UNBLOCK, r, None), None
    elif kind == "GM":
        pending, r = state[1], state[2]
        target = ("GM", pending[1:], r) if pending[1:] else ("GD", r)
        inv = Message(INV, directory, pending[0])
        yield f"inv!{_ctag(pending[0])}@{here}", target, None, inv
    else:
        r = state[-1]
        target = ("BM", r) if kind == "GD" else ("BS", state[1], r)
        yield f"grant!{_ctag(r)}@{here}", target, None, Message(DATA, directory, r)
    if kind in ("I", "S", "M", "BM", "BS"):
        # A write-back that lost a race (its owner was already forwarded
        # past, or ownership has moved on) is acknowledged on the spot —
        # stalling it would wedge the directory's ejection queue, and a
        # nack would strand the cache in a wait the flow invariants
        # cannot discharge.  Every putM thus yields exactly one wbAck,
        # consumed by a cache that is provably parked in MI.
        owner = state[1] if kind == "M" else None
        for c in caches:
            if c != owner:
                wback = Message(WBACK, directory, c)
                yield f"putM?{_ctag(c)}@{here}", state, (PUTM, c, None), wback


def _tables(directory: Node, cache_nodes: list[Node], _dma: None, max_sharers: int):
    """The seven-state caches' tables, then the directory's.

    Directory states are abstract tuples explored breadth-first from
    ``I``, so the table holds exactly the reachable states (network
    validation rejects unreachable ones); the exploration rules *are* the
    protocol.  ``max_sharers`` bounds the exact sharer record — beyond it
    a new reader evicts the highest current sharer first.
    """
    for node in cache_nodes:
        getm = Message(GETM, node, directory)
        # Data may come from the directory or cache-to-cache from a peer,
        # so the guard constrains only the destination; receipt is always
        # acknowledged to the directory with unblock.
        data, unblock = (DATA, None, node), Message(UNBLOCK, node, directory)
        inv = (INV, None, node)
        rows = [
            ("getS!", "I", "IS", None, Message(GETS, node, directory)),
            ("getM!", "I", "IM", None, getm),
            ("data?unblock!@IS", "IS", "S", data, unblock),
            ("data?unblock!@IM", "IM", "M", data, unblock),
            ("upgrade!", "S", "SM", None, getm),
            ("data?unblock!@SM", "SM", "M", data, unblock),
            ("inv?@S", "S", "I", inv, None),
            ("inv?@SM", "SM", "IM", inv, None),
            ("replace!", "M", "MI", None, Message(PUTM, node, directory)),
            ("wbAck?", "MI", "I", (WBACK, None, node), None),
        ]
        # Forwards are served in EVERY state.  Out of M the serve carries the
        # protocol meaning (read forwards downgrade to shared, write forwards
        # surrender ownership); everywhere else the forward is stale — the
        # block has already been written back, and a real system would answer
        # from memory.  Data values are not modelled, so the cache stands in
        # for that memory reply, which keeps the forward→data chain linear:
        # every forward in flight is one guaranteed data packet, no matter
        # where it lands.  One row per peer keeps guards and the produced
        # ``data`` monomorphic (a forward's ``src`` names the cache to serve).
        for peer in cache_nodes:
            if peer == node:
                continue
            served = Message(DATA, node, peer)
            for mtype in (FWDS, FWDM):
                for origin in CACHE_STATES:
                    target = origin
                    if origin == "M":
                        target = "S" if mtype == FWDS else "I"
                    label = f"{mtype}{_ctag(peer)}?data!@{origin}"
                    rows.append((label, origin, target, (mtype, peer, node), served))
        # Sharer invalidations are fire-and-forget, so a stale one — sent
        # while the directory still counted this cache a sharer of an epoch
        # it has since left — can land in any state; it is consumed and
        # dropped, keeping every state inv-consuming.
        for state in ("I", "IS", "IM", "M", "MI"):
            rows.append((f"staleinv@{state}", state, state, inv, None))
        yield node, CACHE_STATES, rows

    caches = sorted(cache_nodes)
    max_sharers = min(max_sharers, len(caches))
    if max_sharers < 1:
        raise ValueError("max_sharers must be >= 1")
    states, seen, rows = [("I",)], {("I",)}, []
    for state in states:  # also visits the states appended below: breadth-first
        for label, target, receive, send in _directory_moves(
            state, directory, caches, max_sharers
        ):
            rows.append((label, _state_name(state), _state_name(target), receive, send))
            if target not in seen:
                seen.add(target)
                states.append(target)
    yield directory, [_state_name(s) for s in states], rows


def msi_mesh(
    width: int,
    height: int,
    queue_size: int,
    directory_node: Node | None = None,
    vcs: int = MSI_VNETS,
    max_sharers: int = 2,
    validate: bool = True,
) -> ProtocolInstance:
    """Directory MSI on a ``width × height`` mesh.

    Every node except ``directory_node`` (default: the last node in
    canonical order) hosts an MSI cache.  The default ``vcs`` carries the
    three protocol vnets; ``vcs=1`` merges them for ablation (the
    request-blocks-response deadlocks come back).
    """
    return assemble(
        f"msi-{width}x{height}-mesh-q{queue_size}",
        MeshTopology(width, height),
        partial(_tables, max_sharers=max_sharers),
        msi_vc_assignment,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
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
    return assemble(
        f"msi-{width}x{height}-torus-q{queue_size}",
        TorusTopology(width, height),
        partial(_tables, max_sharers=max_sharers),
        msi_vc_assignment,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
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
    return assemble(
        f"msi-{n_nodes}-ring-q{queue_size}",
        RingTopology(n_nodes),
        partial(_tables, max_sharers=max_sharers),
        msi_vc_assignment,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
        validate=validate,
    )
