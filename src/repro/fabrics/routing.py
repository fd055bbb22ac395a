"""Routing functions over :class:`~repro.fabrics.topology.Topology`.

Every router has the shape

    ``RoutingFunction = (topology, node, message) -> port | None``

(``None`` = deliver locally): the topology argument carries the shape, the
returned port is one of ``topology.ports(node)``.

XY (dimension-ordered) mesh routing: correct the x coordinate first, then
the y coordinate.  The turn restriction (no Y→X turns) makes the routing
function acyclic on the mesh's channel dependence graph, so that *fabric
alone* is deadlock-free — exactly the premise of the paper's case study,
where the deadlocks that remain are cross-layer.  On wraparound fabrics
(torus/ring) dimension order is not enough: see
:meth:`~repro.fabrics.topology.Topology.escape_vc_bit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .topology import Direction, Node, Port, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..protocols.messages import Message

__all__ = ["RoutingFunction", "route_path", "xy_routing", "yx_routing"]

RoutingFunction = Callable[[Topology, Node, "Message"], Optional[Port]]


def xy_routing(topology: Topology, node: Node, message: Message) -> Direction | None:
    """Dimension-ordered XY: fix x first, then y; None at the destination."""
    x, y = node
    dst_x, dst_y = message.dst
    if dst_x > x:
        return Direction.EAST
    if dst_x < x:
        return Direction.WEST
    if dst_y > y:
        return Direction.SOUTH
    if dst_y < y:
        return Direction.NORTH
    return None


def yx_routing(topology: Topology, node: Node, message: Message) -> Direction | None:
    """Dimension-ordered YX (fix y first) — for ablation experiments."""
    x, y = node
    dst_x, dst_y = message.dst
    if dst_y > y:
        return Direction.SOUTH
    if dst_y < y:
        return Direction.NORTH
    if dst_x > x:
        return Direction.EAST
    if dst_x < x:
        return Direction.WEST
    return None


def route_path(
    routing: RoutingFunction,
    source: Node,
    message: Message,
    topology: Topology,
    max_hops: int = 1024,
) -> list[Node]:
    """The node sequence a message visits from ``source`` to delivery.

    Hops follow ``topology.neighbour`` (any port shape, wraparound
    included).
    """
    path = [source]
    node = source
    for _ in range(max_hops):
        step = routing(topology, node, message)
        if step is None:
            return path
        next_node = topology.neighbour(node, step)
        if next_node is None:
            raise RuntimeError(
                f"routing stepped off {topology} at {node} via {step!r}"
            )
        node = next_node
        path.append(node)
    raise RuntimeError(
        f"routing did not converge from {source} to {message.dst} "
        f"within {max_hops} hops"
    )
