import numpy as np
import pytest

from meshfit import apply_edge_constraints, generate_cartesian


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
    dm = mesh.dof_map()
    t = dm.extract(mesh)
    move = amp * rng.uniform(-1.0, 1.0, t.shape)
    if keep_boundary:
        on_boundary = ((np.abs(t[:, 0]) < 1e-12) | (np.abs(t[:, 0] - 1) < 1e-12)
                       | (np.abs(t[:, 1]) < 1e-12) | (np.abs(t[:, 1] - 1) < 1e-12))
        move[on_boundary] = 0.0
    dm.scatter(mesh, t + move)
    assert mesh.min_det() > 0.0, "perturbation amplitude too large"
    return mesh


def random_order_mesh(nx, ny, orders=(1, 2, 3), seed=0, split_triangles=False):
    """Conforming mesh with uniformly random per-element orders."""
    mesh = generate_cartesian(nx, ny, 1, split_triangles=split_triangles)
    rng = np.random.default_rng(seed)
    for e in range(len(mesh.elements)):
        mesh.set_order(e, int(rng.choice(orders)))
    apply_edge_constraints(mesh)
    return mesh


def set_orders(mesh, orders):
    """Resample every element whose order differs from ``orders``, as the
    adaptive driver applies a planned order field."""
    for e in np.flatnonzero(orders != mesh.orders()):
        mesh.set_order(int(e), int(orders[e]))


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
