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

from ..fabrics.routing import RoutingFunction, xy_routing
from ..fabrics.topology import MeshTopology, Node, RingTopology, TorusTopology
from ..xmas import Network
from .assembly import ProtocolInstance, assemble
from .messages import Message

__all__ = ["mi_mesh", "mi_ring", "mi_torus", "mi_ether", "mi_vc_assignment"]

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


def _tables(directory: Node, caches: list[Node], dma: Node | None):
    """The five-state caches', the directory's and the DMA's tables."""
    tag = {c: f"{c[0]}{c[1]}" for c in caches}
    owned = {c: f"M_{c[0]}_{c[1]}" for c in caches}
    for node in caches:
        putx = Message(PUTX, node, directory)
        unblock = Message(UNBLOCK, node, directory)
        rows = [
            ("getx!", "I", "IM", None, Message(GETX, node, directory)),
            ("data?unblock!", "IM", "M", (DATA, None, node), unblock),
            ("replace!", "M", "MI", None, putx),
            ("wback?", "MI", "I", (WBACK, None, node), None),
            ("wbnack?", "MI", "II", (WBNACK, None, node), None),
            ("wbnack?@II", "II", "I", (WBNACK, None, node), None),
        ]
        # One row per possible requestor of a forward (the other caches
        # and the DMA) keeps guards and the produced ``data`` monomorphic.
        # A forward for the DMA is a *read*: the owner serves data and
        # keeps the block; a forward for a cache transfers ownership.
        for peer in [n for n in caches if n != node] + ([dma] if dma else []):
            data = Message(DATA, node, peer)
            if peer == dma:
                shapes = (("M", "M", ""), ("MI", "MI", "@MI"), ("II", "II", "@II"))
            else:
                shapes = (("M", "I", ""), ("MI", "II", "@MI"), ("II", "I", "@II"))
            for origin, target, suffix in shapes:
                label = f"fwd{peer[0]}{peer[1]}?data!{suffix}"
                rows.append((label, origin, target, (FWD, peer, node), data))
        yield node, ["I", "IM", "M", "MI", "II"], rows

    states, rows = ["I", "MB", *owned.values()], []
    for c in caches:
        m, get, put = owned[c], (GETX, c, None), (PUTX, c, None)
        wback, wbnack = Message(WBACK, directory, c), Message(WBNACK, directory, c)
        rows.append((f"getx?{tag[c]}@I", "I", "MB", get, Message(DATA, directory, c)))
        rows.append((f"unblock?{tag[c]}", "MB", m, (UNBLOCK, c, None), None))
        rows.append((f"putx?{tag[c]}@M", m, "I", put, wback))
        # Stale write-backs are nacked wherever the directory is busy or
        # has already moved ownership on.
        rows.append((f"putx?{tag[c]}@MB", "MB", "MB", put, wbnack))
        rows += [
            (f"putx?{tag[c]}@M{tag[o]}", owned[o], owned[o], put, wbnack)
            for o in caches
            if o != c
        ]
        # Conflicting cache request while owned: forward, await unblock.
        rows += [
            (f"getx?{tag[r]}@M{tag[c]}", m, "MB", (GETX, r, None), Message(FWD, r, c))
            for r in caches
            if r != c
        ]
        # DMA read while owned: forward, ownership unchanged, no unblock.
        if dma is not None:
            fwd = Message(FWD, dma, c)
            rows.append((f"getx?dma@M{tag[c]}", m, m, (GETX, dma, None), fwd))
    if dma is not None:
        states += ["DR", "DW"]
        rows += [
            ("dmard?@I", "I", "DR", (GETX, dma, None), Message(DATA, directory, dma)),
            ("dmawr?@I", "I", "DW", (PUTX, dma, None), Message(WBACK, directory, dma)),
            # Read rounds complete with the DMA's unblock, write rounds with
            # the DMA's write-data.  The two completions must be *distinct
            # colors*: a shared completion message decorrelates the DR and DW
            # occupancy flows during invariant elimination and produces
            # unprovable (false-negative) deadlock candidates.
            ("dmaunblock?@DR", "DR", "I", (UNBLOCK, dma, None), None),
            ("dmawrdata?@DW", "DW", "I", (DATA, dma, None), None),
        ]
    yield directory, states, rows

    if dma is not None:
        # Reads served by the directory complete with an ``unblock`` (it
        # waits in ``DR``); reads served cache-to-cache complete silently
        # (it never left ``M(c)``).  Writes complete with write-data, a
        # color distinct from the read completion (see above).
        unblock = Message(UNBLOCK, dma, directory)
        wrdata = Message(DATA, dma, directory)
        rows = [
            ("dmard!", "idle", "busy_rd", None, Message(GETX, dma, directory)),
            ("dmawr!", "idle", "busy_wr", None, Message(PUTX, dma, directory)),
            ("dirdata?unblock!", "busy_rd", "idle", (DATA, directory, dma), unblock),
            ("wback?wrdata!", "busy_wr", "idle", (WBACK, None, dma), wrdata),
        ]
        rows += [
            (f"ownerdata?{tag[c]}", "busy_rd", "idle", (DATA, c, dma), None)
            for c in caches
        ]
        yield dma, ["idle", "busy_rd", "busy_wr"], rows


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
    """The full MI protocol on a ``width × height`` mesh.

    One node hosts the directory (default: the last node in canonical
    order), one (optionally) the DMA controller, and every remaining node
    an L2 cache.
    """
    return assemble(
        f"mi-{width}x{height}-q{queue_size}",
        MeshTopology(width, height),
        _tables,
        mi_vc_assignment,
        queue_size,
        directory_node=directory_node,
        dma_node=dma_node,
        with_dma=with_dma,
        vcs=vcs,
        routing=routing,
        validate=validate,
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
    return assemble(
        f"mi-{width}x{height}-torus-q{queue_size}",
        TorusTopology(width, height),
        _tables,
        mi_vc_assignment,
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
    return assemble(
        f"mi-{n_nodes}-ring-q{queue_size}",
        RingTopology(n_nodes),
        _tables,
        mi_vc_assignment,
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
    return assemble(
        f"mi-ether-{width}x{height}",
        MeshTopology(width, height),
        _tables,
        mi_vc_assignment,
        directory_node=directory_node,
        dma_node=dma_node,
        with_dma=with_dma,
    ).network
