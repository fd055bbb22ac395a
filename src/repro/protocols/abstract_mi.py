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

from functools import partial

from ..fabrics.routing import RoutingFunction, xy_routing
from ..fabrics.topology import MeshTopology, Node, RingTopology, TorusTopology
from ..xmas import Network
from .assembly import ProtocolInstance, assemble
from .messages import Message

__all__ = [
    "abstract_mi_ether",
    "abstract_mi_mesh",
    "abstract_mi_ring",
    "abstract_mi_torus",
    "request_response_vc",
]

GETX = "getX"
PUTX = "putX"
INV = "inv"
ACK = "ack"


def request_response_vc(message: Message) -> int:
    """The standard VC assignment: requests on VC0, responses on VC1."""
    return 0 if message.mtype in (GETX, PUTX) else 1


def _tables(
    directory: Node,
    caches: list[Node],
    _dma: None,
    repeat_inv: bool,
    voluntary_replacement: bool,
    drop_stale_invs: bool,
):
    """The caches' tables (Figure 2a), then the directory's (Figure 2b).

    The default cache is the minimal three-edge automaton of Figure 2a:
    ``I --get!--> M --inv? put!--> MI --ack?--> I``.  With
    ``voluntary_replacement`` the cache may also flush spontaneously from
    ``M`` ("a replacement is triggered from the core itself"), which
    creates *stale* invalidations racing with the voluntary write-back;
    ``drop_stale_invs`` then controls whether those are
    consumed-and-dropped in ``I``/``MI`` or left to rotate until the next
    ownership epoch.

    The directory accepts ``putX`` in ``M(c)`` only with
    ``voluntary_replacement``: the edge is reachable only when caches
    write back voluntarily, and including it when it cannot fire weakens
    the derivable invariants (its firing count survives Gaussian
    elimination as an unconstrained unknown).
    """
    for node in caches:
        getx = Message(GETX, node, directory)
        putx = Message(PUTX, node, directory)
        rows = [
            ("get!", "I", "M", None, getx),
            ("inv?put!", "M", "MI", (INV, None, None), putx),
            ("ack?", "MI", "I", (ACK, None, None), None),
        ]
        if voluntary_replacement:
            rows.append(("replace!", "M", "MI", None, putx))
            if drop_stale_invs:
                rows.append(("staleinv@I", "I", "I", (INV, None, None), None))
                rows.append(("staleinv@MI", "MI", "MI", (INV, None, None), None))
        yield node, ["I", "M", "MI"], rows
    states, rows = ["I"], []
    for c in caches:
        tag, m, mi = f"{c[0]}{c[1]}", f"M_{c[0]}_{c[1]}", f"MI_{c[0]}_{c[1]}"
        states += [m, mi]
        inv = Message(INV, directory, c)
        rows.append((f"get?{tag}", "I", m, (GETX, c, None), None))
        rows.append((f"inv!{tag}", m, mi, None, inv))
        if repeat_inv:
            rows.append((f"reinv!{tag}", mi, mi, None, inv))
        ack = Message(ACK, directory, c)
        for origin in [mi, m] if voluntary_replacement else [mi]:
            rows.append((f"put?{tag}@{origin}", origin, "I", (PUTX, c, None), ack))
    yield directory, states, rows


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
    """The paper's case study: abstract MI on a ``width×height`` mesh.

    Every node except ``directory_node`` (default: the last node in
    canonical order — the bottom-right corner) hosts an L2 cache
    automaton.  All fabric queues share ``queue_size``.
    """
    return assemble(
        f"abstract-mi-{width}x{height}-q{queue_size}",
        MeshTopology(width, height),
        partial(
            _tables,
            repeat_inv=repeat_inv,
            voluntary_replacement=voluntary_replacement,
            drop_stale_invs=drop_stale_invs,
        ),
        request_response_vc,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        routing=routing,
        validate=validate,
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
    """Abstract MI on a wraparound torus (dateline escape VCs by default,
    so the fabric's own wrap-link cycle does not drown the protocol's
    deadlocks)."""
    return assemble(
        f"abstract-mi-{width}x{height}-torus-q{queue_size}",
        TorusTopology(width, height),
        partial(
            _tables,
            repeat_inv=repeat_inv,
            voluntary_replacement=voluntary_replacement,
            drop_stale_invs=drop_stale_invs,
        ),
        request_response_vc,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
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
    return assemble(
        f"abstract-mi-{n_nodes}-ring-q{queue_size}",
        RingTopology(n_nodes),
        partial(
            _tables,
            repeat_inv=repeat_inv,
            voluntary_replacement=voluntary_replacement,
            drop_stale_invs=drop_stale_invs,
        ),
        request_response_vc,
        queue_size,
        directory_node=directory_node,
        vcs=vcs,
        escape_vcs=escape_vcs,
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
    return assemble(
        f"abstract-mi-ether-{width}x{height}",
        MeshTopology(width, height),
        partial(
            _tables,
            repeat_inv=repeat_inv,
            voluntary_replacement=voluntary_replacement,
            drop_stale_invs=drop_stale_invs,
        ),
        request_response_vc,
        directory_node=directory_node,
    ).network
