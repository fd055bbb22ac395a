"""Tests for mesh topology and routing functions."""

import pytest

from repro.fabrics import Direction, MeshTopology, route_path, xy_routing, yx_routing
from repro.protocols import Message


def msg(src, dst):
    return Message("getX", src=src, dst=dst)


def test_topology_nodes_and_count():
    topo = MeshTopology(3, 2)
    assert topo.node_count() == 6
    assert list(topo.nodes())[0] == (0, 0)
    assert topo.contains((2, 1))
    assert not topo.contains((3, 0))


def test_topology_rejects_empty():
    with pytest.raises(ValueError):
        MeshTopology(0, 3)


def test_neighbours_corner():
    topo = MeshTopology(3, 3)
    neighbours = topo.neighbours((0, 0))
    assert set(neighbours) == {Direction.EAST, Direction.SOUTH}
    assert neighbours[Direction.EAST] == (1, 0)


def test_neighbours_centre():
    topo = MeshTopology(3, 3)
    assert len(topo.neighbours((1, 1))) == 4


def test_direction_opposites():
    assert Direction.NORTH.opposite is Direction.SOUTH
    assert Direction.EAST.opposite is Direction.WEST


MESH = MeshTopology(3, 3)


def test_xy_routing_x_first():
    assert xy_routing(MESH, (0, 0), msg((0, 0), (2, 2))) is Direction.EAST
    assert xy_routing(MESH, (2, 0), msg((0, 0), (2, 2))) is Direction.SOUTH
    assert xy_routing(MESH, (2, 2), msg((0, 0), (2, 2))) is None


def test_xy_routing_westward_and_north():
    assert xy_routing(MESH, (2, 2), msg((2, 2), (0, 0))) is Direction.WEST
    assert xy_routing(MESH, (0, 2), msg((2, 2), (0, 0))) is Direction.NORTH


def test_yx_routing_y_first():
    assert yx_routing(MESH, (0, 0), msg((0, 0), (2, 2))) is Direction.SOUTH
    assert yx_routing(MESH, (0, 2), msg((0, 0), (2, 2))) is Direction.EAST


def test_route_path_xy():
    path = route_path(xy_routing, (0, 0), msg((0, 0), (2, 1)), MESH)
    assert path == [(0, 0), (1, 0), (2, 0), (2, 1)]


def test_route_path_self():
    assert route_path(xy_routing, (1, 1), msg((0, 0), (1, 1)), MESH) == [(1, 1)]


def test_route_path_detects_divergence():
    def bad_routing(topology, node, message):
        # bounces between (0, 0) and (1, 0): never arrives at (0, 1)
        return Direction.EAST if node[0] == 0 else Direction.WEST

    with pytest.raises(RuntimeError, match="did not converge"):
        route_path(bad_routing, (0, 0), msg((0, 0), (0, 1)), MESH, max_hops=8)


def test_xy_never_turns_y_to_x():
    """The XY turn restriction: once travelling in y, never in x again."""
    topo = MeshTopology(4, 4)
    for src in topo.nodes():
        for dst in topo.nodes():
            path = route_path(xy_routing, src, msg(src, dst), topo)
            seen_y = False
            for a, b in zip(path, path[1:]):
                moved_x = a[0] != b[0]
                if seen_y:
                    assert not moved_x, f"Y->X turn on {src}->{dst}"
                if a[1] != b[1]:
                    seen_y = True


def test_octant_positions_fold_the_full_symmetry_group():
    """Mesh probe positions fold the full symmetry group: one directory
    placement per orbit."""
    # Square meshes fold x-, y- and diagonal reflections.
    assert MeshTopology(2, 2).probe_positions() == [(0, 0)]
    assert MeshTopology(3, 3).probe_positions() == [(0, 0), (1, 0), (1, 1)]
    # Rectangles have no diagonal symmetry: the middle-row orbit of the
    # 2x3 mesh needs its own representative.
    assert MeshTopology(2, 3).probe_positions() == [(0, 0), (0, 1)]
    assert MeshTopology(4, 4).probe_positions() == [(0, 0), (1, 0), (1, 1)]
    # Every node must be reachable from a representative via reflections.
    for width, height in ((2, 2), (2, 3), (3, 3), (3, 4)):
        reps = MeshTopology(width, height).probe_positions()
        covered = set()
        for x, y in reps:
            images = {(x, y), (width - 1 - x, y), (x, height - 1 - y),
                      (width - 1 - x, height - 1 - y)}
            if width == height:
                images |= {(iy, ix) for ix, iy in images}
            covered |= images
        assert covered == {
            (x, y) for x in range(width) for y in range(height)
        }, (width, height)
