from typing import NamedTuple

import numpy as np
import pytest

from meshfit import generate_cartesian
from meshfit.errors import MeshStructureError


class EdgeSide(NamedTuple):
    element: int
    local_edge: int
    # local traversal runs from the smaller to the larger vertex id
    forward: bool


class EdgeRecord(NamedTuple):
    verts: tuple[int, int]   # (min vertex id, max vertex id)
    sides: tuple[EdgeSide, ...]


def reference_edges(vertex_lists) -> tuple[EdgeRecord, ...]:
    """The edge table of elements with the given counterclockwise vertex
    lists, built by one loop over local edges: one record per edge in edge-id
    order (first appearance), with its sides in element order.  Raises
    ``MeshStructureError`` on a degenerate, over-shared or inconsistently
    oriented edge, with the message of ``MixedOrderMesh``.  This is the
    reference the mesh's array build must match exactly."""
    # edge ids follow first appearance, which is the dict's key order
    found: dict[tuple[int, int], list[EdgeSide]] = {}
    for e, verts in enumerate(vertex_lists):
        nverts = len(verts)
        for le in range(nverts):
            a, b = int(verts[le]), int(verts[(le + 1) % nverts])
            if a == b:
                raise MeshStructureError(f"element {e} has a degenerate edge")
            found.setdefault((min(a, b), max(a, b)), []).append(
                EdgeSide(e, le, forward=(a < b)))
    for key, ks in found.items():
        if len(ks) > 2:
            raise MeshStructureError(
                f"edge {key} is shared by {len(ks)} elements")
        if len(ks) == 2 and ks[0].forward == ks[1].forward:
            raise MeshStructureError(
                f"edge {key} is traversed in the same direction by both "
                "elements; element orientations are inconsistent")
    return tuple(EdgeRecord(key, tuple(ks)) for key, ks in found.items())


def edge_records(mesh) -> tuple[EdgeRecord, ...]:
    """``reference_edges`` of a mesh's elements."""
    return reference_edges([el.verts for el in mesh.elements])


def perturbed_mesh(nx, ny, order, amp=None, seed=0, split_triangles=False,
                   keep_boundary=True):
    """Cartesian mesh with randomly displaced interior nodes.

    The default amplitude stays well below the node spacing h / order so the
    result is always valid.  Boundary nodes are kept in place unless
    ``keep_boundary`` is off.
    """
    mesh = generate_cartesian(nx, ny, order, split_triangles=split_triangles)
    if amp is None:
        amp = 0.15 / (max(nx, ny) * order)
    rng = np.random.default_rng(seed)
    t = mesh.nodes
    move = amp * rng.uniform(-1.0, 1.0, t.shape)
    if keep_boundary:
        on_boundary = ((np.abs(t[:, 0]) < 1e-12) | (np.abs(t[:, 0] - 1) < 1e-12)
                       | (np.abs(t[:, 1]) < 1e-12) | (np.abs(t[:, 1] - 1) < 1e-12))
        move[on_boundary] = 0.0
    mesh.set_nodes(t + move)
    assert mesh.min_det() > 0.0, "perturbation amplitude too large"
    return mesh


def random_order_mesh(nx, ny, orders=(1, 2, 3), seed=0, split_triangles=False):
    """Conforming mesh with uniformly random per-element orders."""
    mesh = generate_cartesian(nx, ny, 1, split_triangles=split_triangles)
    rng = np.random.default_rng(seed)
    mesh.set_order(range(len(mesh.elements)),
                   [int(rng.choice(orders)) for _ in mesh.elements])
    return mesh


def set_orders(mesh, orders):
    """Resample every element whose order differs from ``orders``, as the
    adaptive driver applies a planned order field."""
    changed = np.flatnonzero(orders != mesh.orders())
    mesh.set_order(changed, orders[changed])


def meshes_identical(a, b):
    if not np.array_equal(a.vertices, b.vertices):
        return False
    if len(a.elements) != len(b.elements):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if (ea.geometry != eb.geometry or ea.order != eb.order
                or ea.attribute != eb.attribute
                or not np.array_equal(ea.verts, eb.verts)
                or not np.array_equal(ea.coords, eb.coords)):
            return False
    return a.marked_faces == b.marked_faces


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
