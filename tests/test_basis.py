import os
import subprocess
import sys

import numpy as np
import pytest

import meshfit
from meshfit.basis import (QUAD, TRI, BasisTables, ReferenceElement,
                           basis_tables, edge_samples, _gauss_legendre_01,
                           _gauss_lobatto_01, _gauss_lobatto_cached,
                           jacobian_table, lagrange_1d, lagrange_1d_deriv,
                           reference_element)


def test_gauss_lobatto_nodes_low_orders():
    assert np.allclose(_gauss_lobatto_cached(1), [0.0, 1.0])
    assert np.allclose(_gauss_lobatto_cached(2), [0.0, 0.5, 1.0])
    # interior p=3 nodes sit at (1 +- 1/sqrt(5)) / 2
    n3 = _gauss_lobatto_cached(3)
    assert np.allclose(n3, [0.0, 0.27639320225002106, 0.7236067977499789, 1.0])


def test_gauss_lobatto_nodes_symmetric():
    for p in range(1, 8):
        n = _gauss_lobatto_cached(p)
        assert n[0] == 0.0 and n[-1] == 1.0
        assert np.allclose(n + n[::-1], 1.0)
        assert np.all(np.diff(n) > 0)


def test_lagrange_basis_delta_and_partition():
    nodes = _gauss_lobatto_cached(4)
    L = lagrange_1d(nodes, nodes)
    assert np.allclose(L, np.eye(5), atol=1e-13)
    x = np.linspace(0.0, 1.0, 33)
    assert np.allclose(lagrange_1d(nodes, x).sum(axis=1), 1.0, atol=1e-12)


def test_lagrange_deriv_matches_fd():
    nodes = _gauss_lobatto_cached(3)
    x = np.array([0.12, 0.45, 0.81])
    eps = 1e-6
    fd = (lagrange_1d(nodes, x + eps) - lagrange_1d(nodes, x - eps)) / (2 * eps)
    assert np.allclose(lagrange_1d_deriv(nodes, x), fd, atol=1e-7)


def _lagrange_products(nodes, x):
    """Reference 1D Lagrange values and derivatives, one node at a time, with
    the factors multiplied and the terms added in the same order as
    ``lagrange_1d`` and ``lagrange_1d_deriv``."""
    n = len(nodes)
    vals = np.empty((len(x), n))
    ders = np.empty((len(x), n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        den = np.prod(nodes[i] - nodes[others])
        vals[:, i] = np.prod(x[:, None] - nodes[others], axis=1) / den
        ders[:, i] = sum(np.prod(x[:, None] - nodes[[j for j in others if j != k]],
                                 axis=1) for k in others) / den
    return vals, ders


@pytest.mark.parametrize("p", range(1, 7))
def test_lagrange_basis_matches_product_formula(p, rng):
    nodes = _gauss_lobatto_cached(p)
    x = np.concatenate([rng.uniform(-0.5, 1.5, 200), nodes])
    vals, ders = _lagrange_products(nodes, x)
    assert np.array_equal(lagrange_1d(nodes, x), vals)
    assert np.array_equal(lagrange_1d_deriv(nodes, x), ders)
    assert np.array_equal(lagrange_1d(nodes, nodes), np.eye(p + 1))


def test_legendre_rule_exactness():
    # n-point Gauss-Legendre on [0,1] integrates degree 2n-1 exactly
    for n in (2, 3, 5):
        x, w = _gauss_legendre_01(n)
        for k in range(2 * n):
            assert np.isclose(w @ x**k, 1.0 / (k + 1), atol=1e-14)


def test_lobatto_rule_exactness_and_endpoints():
    # n-point Gauss-Lobatto includes both endpoints, exact to degree 2n-3
    for n in (3, 4, 6):
        x, w = _gauss_lobatto_01(n)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.isclose(w.sum(), 1.0, atol=1e-14)
        for k in range(2 * n - 2):
            assert np.isclose(w @ x**k, 1.0 / (k + 1), atol=1e-13)


def test_quad_tensor_rule_integrates_polynomials():
    # the (2p+3)-point Lobatto tensor rule of the quad tables is exact to
    # degree 4p+3 per direction, and not to 4p+4
    for p in (1, 2, 3):
        tables = basis_tables(QUAD, p)
        pts, w = tables.quad_points, tables.quad_weights
        top = 4 * p + 3
        # int over unit square of x^a y^b = 1 / ((a+1)(b+1))
        for a in range(top + 2):
            for b in range(top + 2 - a):
                err = w @ (pts[:, 0]**a * pts[:, 1]**b) - 1.0 / ((a + 1) * (b + 1))
                if max(a, b) <= top:
                    assert abs(err) <= 1e-13, (p, a, b)
                else:
                    assert abs(err) > 1e-11, (p, a, b)


def test_tri_rule_integrates_polynomials():
    # the collapsed (2p+3)-point Gauss rule of the triangle tables is exact
    # to total degree 4p+4
    from math import factorial
    for p in (1, 2, 3):
        tables = basis_tables(TRI, p)
        pts, w = tables.quad_points, tables.quad_weights
        assert abs(w.sum() - 0.5) <= 1e-14  # reference triangle area
        # int over reference triangle of x^a y^b = a! b! / (a+b+2)!
        for a in range(4 * p + 5):
            for b in range(4 * p + 5 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                val = w @ (pts[:, 0]**a * pts[:, 1]**b)
                assert abs(val - exact) <= 1e-13, (p, a, b)


@pytest.mark.parametrize("geometry,order,num", [
    (QUAD, 1, 4), (QUAD, 3, 16), (TRI, 1, 3), (TRI, 2, 6), (TRI, 4, 15)])
def test_reference_node_counts(geometry, order, num):
    assert reference_element(geometry, order).num_nodes == num


def test_reference_basis_is_nodal():
    for geometry in (QUAD, TRI):
        for order in (1, 2, 3):
            ref = reference_element(geometry, order)
            V = ref.eval_basis(ref.nodes)
            assert np.allclose(V, np.eye(ref.num_nodes), atol=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_triangle_basis_rows_round_alike_alone_and_in_a_batch(order, rng):
    # the center and random points, each evaluated alone equals its row
    # of the batch bit for bit
    ref = reference_element(TRI, order)
    pts = np.vstack([ref.center, ref.center, rng.uniform(0.0, 0.5, (6, 2))])
    batch = ref.eval_basis(pts)
    for x, row in zip(pts, batch):
        assert np.array_equal(ref.eval_basis(x)[0], row)


def test_reference_basis_gradient_matches_fd(rng):
    for geometry in (QUAD, TRI):
        ref = reference_element(geometry, 3)
        pts = np.array([[0.21, 0.17], [0.4, 0.33], [0.05, 0.6]])
        G = ref.eval_basis_grad(pts)
        eps = 1e-6
        for d in range(2):
            dp = pts.copy()
            dp[:, d] += eps
            dmn = pts.copy()
            dmn[:, d] -= eps
            fd = (ref.eval_basis(dp) - ref.eval_basis(dmn)) / (2 * eps)
            assert np.abs(G[:, :, d] - fd).max() < 1e-8


def test_edge_points_interpolate_corners():
    for geometry in (QUAD, TRI):
        ref = reference_element(geometry, 2)
        t = np.array([0.0, 1.0])
        for le in range(len(ref.corners)):
            ends = ref.edge_point(le, t)
            c0 = ref.nodes[ref.corners[le]]
            c1 = ref.nodes[ref.corners[(le + 1) % len(ref.corners)]]
            assert np.allclose(ends[0], c0, atol=1e-14)
            assert np.allclose(ends[1], c1, atol=1e-14)


def test_tri_edge_nodes_at_lobatto_positions():
    # high-order triangle boundary nodes must follow the 1D Lobatto layout so
    # that neighbor edges (including quad-tri interfaces) can be conforming
    ref = reference_element(TRI, 4)
    gl = _gauss_lobatto_cached(4)
    for le, ids in enumerate(ref.edge_nodes):
        pts = ref.nodes[ids]
        a, b = pts[0], pts[-1]
        expected = a[None, :] + gl[:, None] * (b - a)[None, :]
        assert np.allclose(pts, expected, atol=1e-12)


def test_contains_and_clamp():
    # boundary_distance is positive inside, zero on the boundary and
    # negative outside; clamp moves an outside point onto the boundary
    tri = reference_element(TRI, 1)
    assert tri.boundary_distance(np.array([0.2, 0.2])) > 0.0
    assert tri.boundary_distance(np.array([0.5, 0.0])) == 0.0
    assert tri.boundary_distance(np.array([0.8, 0.8])) < 0.0
    clamped = tri.clamp(np.array([0.8, 0.8]))
    assert np.allclose(clamped, [0.5, 0.5], atol=1e-15)
    assert abs(tri.boundary_distance(clamped)) <= 1e-9
    quad = reference_element(QUAD, 1)
    pts = np.array([[0.5, 0.25], [1.0, 0.5], [1.2, 0.5], [-0.1, 1.3]])
    assert np.array_equal(np.sign(quad.boundary_distance(pts)),
                          [1.0, 0.0, -1.0, -1.0])
    clamped = quad.clamp(pts)
    assert np.array_equal(clamped[2:], [[1.0, 0.5], [0.0, 1.0]])
    assert np.array_equal(quad.boundary_distance(clamped), [0.25, 0, 0, 0])
    # a clamped inside point stays where it is
    assert np.array_equal(clamped[:2], pts[:2])


def test_basis_tables_rules():
    lob = basis_tables(QUAD, 2)
    assert isinstance(lob, BasisTables)
    # (2p+3)^2 points from the Lobatto set, which touches the element
    # boundary
    assert lob.quad_points.shape == (49, 2)
    assert lob.quad_points.min() == 0.0 and lob.quad_points.max() == 1.0
    assert np.isclose(lob.quad_weights.sum(), 1.0, atol=1e-13)
    # the triangle tables use the collapsed Gauss rule, inside the element
    tri = basis_tables(TRI, 2)
    assert tri.quad_points.shape == (49, 2)
    assert tri.ref.boundary_distance(tri.quad_points).min() > 0.0


def test_quad_fit_does_not_load_scipy_special():
    # only triangle bases need scipy.special, so a quad run never imports it
    code = "\n".join([
        "import sys",
        "import meshfit as mf",
        "m = mf.generate_cartesian(4, 4, 2)",
        "sq = mf.ANALYTIC_LEVELSETS['squircle2d']()",
        "mf.mark_interface_faces(m, sq)",
        "_, rep = mf.solve_r_adaptivity(mf.FitConfig().problem(m, sq))",
        "assert rep.num_iterations > 0, rep.reason",
        "print('scipy.special' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(meshfit.__file__))
    path = os.pathsep.join([src] + [p for p in
                                    [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _vtk_loop_cells(geometry, p):
    """Linear sub-cells of one order-p element by the nested index loops
    that the VTK export ran per element before the reference element held
    them."""
    cells = []
    if geometry == QUAD:
        def nid(i, j):
            return j * (p + 1) + i
        for j in range(p):
            for i in range(p):
                cells.append([nid(i, j), nid(i + 1, j),
                              nid(i + 1, j + 1), nid(i, j + 1)])
    else:
        offsets = [0]
        for j in range(p + 1):
            offsets.append(offsets[-1] + p + 1 - j)

        def tid(i, j):
            return offsets[j] + i
        for j in range(p):
            for i in range(p - j):
                cells.append([tid(i, j), tid(i + 1, j), tid(i, j + 1)])
                if i + j < p - 1:
                    cells.append([tid(i + 1, j), tid(i + 1, j + 1),
                                  tid(i, j + 1)])
    return cells


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("geometry", [QUAD, TRI])
def test_sub_cells_match_the_vtk_index_loops(geometry, p):
    ref = reference_element(geometry, p)
    assert ref.sub_cells.tolist() == _vtk_loop_cells(geometry, p)
    assert len(ref.sub_cells) == p * p


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("geometry", [QUAD, TRI])
def test_kind_tables_are_read_only_and_match_fresh_evaluations(geometry, p):
    ref, tables = reference_element(geometry, p), basis_tables(geometry, p)
    assert tables.ref is ref and basis_tables(geometry, p) is tables
    arrays = [ref.nodes, ref.corners, *ref.edge_nodes, ref.interior,
              ref.sub_cells, ref.center, tables.quad_points,
              tables.quad_weights, tables.grad_at_quad, tables.grad_at_nodes,
              tables.nodal, tables.validity, tables.center_basis,
              tables.center_grad]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    # the cached tables hold the same bits as the evaluations they replace
    fresh = ReferenceElement(geometry, p)
    G = fresh.eval_basis_grad(fresh.nodes)
    assert np.array_equal(tables.grad_at_nodes, G)
    assert np.array_equal(tables.nodal, jacobian_table(G))
    assert np.array_equal(tables.validity, jacobian_table(np.concatenate(
        [fresh.eval_basis_grad(tables.quad_points), G])))
    assert np.array_equal(tables.center_basis, fresh.eval_basis(fresh.center))
    assert np.array_equal(tables.center_grad,
                          fresh.eval_basis_grad(fresh.center))
    # the edge samples of the SVG outlines (16 segments) and the locator
    # boxes (4 p segments)
    for segments in (16, 4 * p):
        samples = edge_samples(geometry, p, segments)
        assert edge_samples(geometry, p, segments) is samples
        assert not samples.flags.writeable
        t = np.linspace(0.0, 1.0, segments + 1)
        assert np.array_equal(samples, fresh.eval_basis(np.vstack(
            [fresh.edge_point(le, t) for le in range(len(fresh.corners))])))
