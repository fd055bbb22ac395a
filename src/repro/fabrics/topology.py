"""Fabric topologies: the abstract :class:`Topology` interface and its
mesh / torus / ring implementations.

A topology describes the *shape* of an interconnect: its nodes, the ports
through which each node reaches its neighbours, a canonical directory
placement per symmetry orbit (:meth:`Topology.probe_positions`), and a
factory for its deadlock-aware routing functions (:meth:`Topology.routing`).
The router builder (:mod:`repro.fabrics.fabric`) instantiates any topology
into xMAS primitives without knowing its shape — per-port input queues, a
route switch behind every queue, a fair merge per outgoing link.

Ports are opaque hashables: the 2D fabrics use :class:`Direction` members,
the ring uses plain ``"CW"`` / ``"CCW"`` strings — nothing in the generic
machinery assumes a 4-way :class:`Direction` anymore.

Wraparound fabrics (:class:`TorusTopology`, :class:`RingTopology`) carry a
*dateline* escape-VC scheme (:meth:`Topology.escape_vc_bit`): their wrap
links close the channel-dependence graph into a cycle, so dimension-ordered
routing alone is deadlock-prone; splitting every link class into a pre- and
post-dateline virtual channel (packets switch to the escape VC when they
cross the wrap link of the dimension they are travelling) breaks the cycle.
The fabric builder applies the bit per link when ``escape_vcs=True``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..protocols.messages import Message
    from .routing import RoutingFunction

__all__ = [
    "Direction",
    "MeshTopology",
    "Node",
    "Port",
    "RingTopology",
    "Topology",
    "TorusTopology",
]

Node = tuple[int, int]
Port = Hashable


class Direction(enum.Enum):
    """Link directions; +x is EAST, +y is SOUTH (row-major screen layout)."""

    NORTH = (0, -1)
    EAST = (1, 0)
    SOUTH = (0, 1)
    WEST = (-1, 0)

    @property
    def dx(self) -> int:
        return self.value[0]

    @property
    def dy(self) -> int:
        return self.value[1]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]

    @property
    def short(self) -> str:
        return self.name[0]


_OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}

# Canonical port order of the 2D fabrics (sorted by enum name, which is the
# order the original mesh builder used: EAST, NORTH, SOUTH, WEST).  Kept
# explicit so fabric queue names stay byte-stable.
_DIRECTIONS_BY_NAME = tuple(sorted(Direction, key=lambda d: d.name))


class Topology(ABC):
    """Abstract interconnect shape consumed by the generic fabric builder.

    Implementations must be frozen/hashable plain data (they ride inside
    fabric configs and builder closures) and must keep :meth:`nodes` and
    :meth:`ports` deterministically ordered — fabric element names and
    therefore encoding identity derive from that order.
    """

    # ---- shape -----------------------------------------------------------
    @abstractmethod
    def nodes(self) -> Iterator[Node]:
        """All nodes, in canonical (row-major) order."""

    @abstractmethod
    def node_count(self) -> int:
        """``len(list(self.nodes()))`` without the iteration."""

    @abstractmethod
    def ports(self, node: Node) -> tuple[Port, ...]:
        """The outgoing link ports of ``node``, in canonical order."""

    @abstractmethod
    def neighbour(self, node: Node, port: Port) -> Node | None:
        """The node reached from ``node`` through ``port`` (None = edge)."""

    @abstractmethod
    def opposite(self, port: Port) -> Port:
        """The port through which a neighbour sees the link back."""

    def port_tag(self, port: Port) -> str:
        """Short stable label used in fabric element names."""
        return port.short if isinstance(port, Direction) else str(port)

    # ---- experiment support ---------------------------------------------
    @abstractmethod
    def probe_positions(self) -> list[Node]:
        """One directory placement per orbit of the topology's symmetry
        group — the grid axis the Figure-4 drivers iterate."""

    # ---- routing ---------------------------------------------------------
    @abstractmethod
    def routing(self, name: str | None = None) -> "RoutingFunction":
        """A deadlock-aware routing function ``(topology, node, message) ->
        port | None`` (``None`` = deliver locally).  ``name`` selects among
        the topology's algorithms (:meth:`routing_names`); default first."""

    def routing_names(self) -> tuple[str, ...]:
        """The algorithm names :meth:`routing` accepts (default first)."""
        return ("default",)

    def escape_vc_bit(self, node: Node, port: Port, message: "Message") -> int:
        """Dateline bit of the link ``node --port-->``: 1 once ``message``
        has crossed the wrap link of the dimension it is travelling.

        Only wraparound topologies have datelines; acyclic fabrics never
        need escape VCs.
        """
        raise NotImplementedError(f"{self} has no wrap links (no escape VCs)")


@dataclass(frozen=True)
class MeshTopology(Topology):
    """A ``width × height`` 2D mesh."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    def nodes(self) -> Iterator[Node]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def contains(self, node: Node) -> bool:
        x, y = node
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbour(self, node: Node, direction: Direction) -> Node | None:
        x, y = node
        candidate = (x + direction.dx, y + direction.dy)
        return candidate if self.contains(candidate) else None

    def neighbours(self, node: Node) -> dict[Direction, Node]:
        result = {}
        for direction in Direction:
            other = self.neighbour(node, direction)
            if other is not None:
                result[direction] = other
        return result

    def ports(self, node: Node) -> tuple[Direction, ...]:
        return tuple(
            d for d in _DIRECTIONS_BY_NAME if self.neighbour(node, d) is not None
        )

    def opposite(self, port: Direction) -> Direction:
        return port.opposite

    def node_count(self) -> int:
        return self.width * self.height

    def probe_positions(self) -> list[Node]:
        """Directory positions up to the mesh's symmetry group.

        The reflective symmetries make many directory placements
        equivalent; this returns one representative per orbit: the quadrant
        folded by the x- and y-reflections, plus — only for square meshes,
        whose symmetry group also contains the diagonal reflection — the
        fold onto ``x ≥ y`` (the "octant").  The Figure-4 experiment grids
        (``examples/queue_sizing.py``,
        ``benchmarks/bench_fig4_queue_sizes.py``,
        ``benchmarks/bench_experiments.py``) all iterate exactly this list,
        so the drivers stay byte-comparable.
        """
        positions = []
        for y in range((self.height + 1) // 2):
            for x in range((self.width + 1) // 2):
                if self.width == self.height and x < y:
                    continue  # diagonal reflection folds (x, y) onto (y, x)
                positions.append((x, y))
        return positions

    def routing_names(self) -> tuple[str, ...]:
        return ("xy", "yx")

    def routing(self, name: str | None = None) -> "RoutingFunction":
        from .routing import xy_routing, yx_routing

        table = {"xy": xy_routing, "yx": yx_routing, None: xy_routing}
        try:
            return table[name]
        except KeyError:
            raise ValueError(
                f"unknown mesh routing {name!r} (have {self.routing_names()})"
            ) from None

    def __str__(self) -> str:
        return f"{self.width}x{self.height} mesh"


def _ring_step(cur: int, dst: int, n: int, positive: Port, negative: Port):
    """One dimension-ordered hop around an ``n``-ring (tie breaks positive).

    The choice is stable along the path: moving in the chosen direction
    strictly shrinks the forward distance, so a packet never flips
    direction mid-ring (the dateline arithmetic in :func:`_dateline_bit`
    relies on this).
    """
    forward = (dst - cur) % n
    return positive if 2 * forward <= n else negative


def _dateline_bit(start: int, dst: int, n: int, cur: int, positive: bool) -> int:
    """1 iff the ``start → dst`` journey has crossed the ring's wrap link
    by the time it finishes the hop leaving coordinate ``cur``.

    Travelling positive, the journey wraps at all iff ``start > dst``; the
    coordinate after this hop is then past the dateline iff it has landed
    in ``[0, dst]``.  Mirror-image for negative travel.
    """
    if positive:
        after = (cur + 1) % n
        return 1 if (start > dst and after <= dst) else 0
    after = (cur - 1) % n
    return 1 if (start < dst and after >= dst) else 0


@dataclass(frozen=True)
class TorusTopology(Topology):
    """A ``width × height`` 2D torus: the mesh plus wraparound links.

    Every node has all four ports; dimension-ordered routing takes the
    shorter way around each ring (ties break EAST/SOUTH).  The wrap links
    make the channel-dependence graph cyclic, so the fabric is only
    deadlock-free under the dateline escape-VC scheme
    (:meth:`escape_vc_bit` + ``escape_vcs=True`` in the fabric config).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(
                "torus dimensions must be >= 2 (a 1-wide torus is a ring; "
                "use RingTopology)"
            )

    def nodes(self) -> Iterator[Node]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def node_count(self) -> int:
        return self.width * self.height

    def ports(self, node: Node) -> tuple[Direction, ...]:
        return _DIRECTIONS_BY_NAME

    def neighbour(self, node: Node, direction: Direction) -> Node:
        x, y = node
        return ((x + direction.dx) % self.width, (y + direction.dy) % self.height)

    def opposite(self, port: Direction) -> Direction:
        return port.opposite

    def probe_positions(self) -> list[Node]:
        # A torus is vertex-transitive: every placement is equivalent.
        return [(0, 0)]

    def routing_names(self) -> tuple[str, ...]:
        return ("dor",)

    def routing(self, name: str | None = None) -> "RoutingFunction":
        if name not in (None, "dor"):
            raise ValueError(
                f"unknown torus routing {name!r} (have {self.routing_names()})"
            )
        return torus_routing

    def escape_vc_bit(self, node: Node, port: Direction, message: "Message") -> int:
        (sx, sy), (tx, ty) = message.src, message.dst
        x, y = node
        if port in (Direction.EAST, Direction.WEST):
            return _dateline_bit(sx, tx, self.width, x, port is Direction.EAST)
        return _dateline_bit(sy, ty, self.height, y, port is Direction.SOUTH)

    def __str__(self) -> str:
        return f"{self.width}x{self.height} torus"


def torus_routing(topology: TorusTopology, node: Node, message: "Message"):
    """Wraparound dimension-ordered routing: x-ring first, then y-ring."""
    x, y = node
    tx, ty = message.dst
    if x != tx:
        return _ring_step(x, tx, topology.width, Direction.EAST, Direction.WEST)
    if y != ty:
        return _ring_step(y, ty, topology.height, Direction.SOUTH, Direction.NORTH)
    return None


@dataclass(frozen=True)
class RingTopology(Topology):
    """An ``n``-node bidirectional ring — the degenerate (1D) torus.

    Nodes are ``(i, 0)`` so protocol automata and messages keep their 2D
    coordinates; ports are the plain strings ``"CW"`` (+1) and ``"CCW"``
    (-1), exercising the port-agnostic side of the fabric builder.
    """

    n_nodes: int

    CW = "CW"
    CCW = "CCW"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("a ring needs at least two nodes")

    def nodes(self) -> Iterator[Node]:
        for i in range(self.n_nodes):
            yield (i, 0)

    def node_count(self) -> int:
        return self.n_nodes

    def ports(self, node: Node) -> tuple[str, ...]:
        return (self.CCW, self.CW)

    def neighbour(self, node: Node, port: str) -> Node:
        step = 1 if port == self.CW else -1
        return ((node[0] + step) % self.n_nodes, 0)

    def opposite(self, port: str) -> str:
        return self.CCW if port == self.CW else self.CW

    def probe_positions(self) -> list[Node]:
        # Rotationally symmetric: one orbit.
        return [(0, 0)]

    def routing_names(self) -> tuple[str, ...]:
        return ("shortest",)

    def routing(self, name: str | None = None) -> "RoutingFunction":
        if name not in (None, "shortest"):
            raise ValueError(
                f"unknown ring routing {name!r} (have {self.routing_names()})"
            )
        return ring_routing

    def escape_vc_bit(self, node: Node, port: str, message: "Message") -> int:
        return _dateline_bit(
            message.src[0], message.dst[0], self.n_nodes, node[0], port == self.CW
        )

    def __str__(self) -> str:
        return f"{self.n_nodes}-ring"


def ring_routing(topology: RingTopology, node: Node, message: "Message"):
    """Shortest-way-around ring routing (ties break clockwise)."""
    x, tx = node[0], message.dst[0]
    if x == tx:
        return None
    return _ring_step(x, tx, topology.n_nodes, RingTopology.CW, RingTopology.CCW)
