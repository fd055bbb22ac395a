"""Interconnect fabrics assembled from xMAS primitives.

The fabric layer is a plugin API around the abstract
:class:`~repro.fabrics.topology.Topology` interface:

* :mod:`repro.fabrics.topology` — :class:`MeshTopology`,
  :class:`TorusTopology` (wraparound + dateline escape VCs) and
  :class:`RingTopology`; each knows its ports, neighbours, symmetry-orbit
  probe positions and routing functions.
* :mod:`repro.fabrics.fabric` — :func:`build_fabric` instantiates the
  store-and-forward input-queued router at every node of any topology
  into a :class:`~repro.xmas.NetworkBuilder`; protocol automata attach
  through the returned :class:`Fabric` ports.
* :mod:`repro.fabrics.routing` — the mesh routers and :func:`route_path`;
  every router takes ``(topology, node, message)``.
"""

from .fabric import (
    Fabric,
    FabricConfig,
    build_fabric,
    build_traffic,
    traffic_mesh,
    traffic_ring,
    traffic_torus,
)
from .routing import route_path, xy_routing, yx_routing
from .topology import (
    Direction,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
)

__all__ = [
    "Topology",
    "MeshTopology",
    "TorusTopology",
    "RingTopology",
    "Direction",
    "Fabric",
    "FabricConfig",
    "build_fabric",
    "build_traffic",
    "traffic_mesh",
    "traffic_torus",
    "traffic_ring",
    "xy_routing",
    "yx_routing",
    "route_path",
]
