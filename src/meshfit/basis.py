"""Nodal reference elements, Gauss-Lobatto nodes, and quadrature on [0,1]-based domains.

The reference quadrilateral is the unit square [0,1]^2 and the reference
triangle is the unit triangle {x >= 0, y >= 0, x + y <= 1}.  Nodal sets use
Gauss-Lobatto points along edges (tensor products for quads, warp-and-blend
interior placement for triangles), so edge traces of two elements that share
an edge are interpolants on the same 1D point set.

Every mesh-independent table of an element kind, a (geometry, order) pair,
is built once, read-only, by ``reference_element`` (nodes and their
topology), ``basis_tables`` (the basis at fixed points) or ``edge_samples``
(the basis at evenly spaced points along the edges).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

QUAD = "quad"
TRI = "tri"

GEOMETRIES = (QUAD, TRI)

#: Blend exponents for the triangular warp-and-blend nodal sets, indexed by order.
_WARP_ALPHA = (0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
               1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258)


@lru_cache(maxsize=None)
def _gauss_lobatto_cached(p: int) -> np.ndarray:
    n = p + 1
    if p == 1:
        x = np.array([-1.0, 1.0])
    else:
        # Newton iteration on the Gauss-Lobatto conditions, seeded with
        # Chebyshev-Lobatto points; the update uses the Legendre recurrence.
        x = -np.cos(np.pi * np.arange(n) / p)
        legendre = np.zeros((n, n))
        for _ in range(100):
            legendre[:, 0] = 1.0
            legendre[:, 1] = x
            for k in range(2, n):
                legendre[:, k] = ((2 * k - 1) * x * legendre[:, k - 1]
                                  - (k - 1) * legendre[:, k - 2]) / k
            dx = (x * legendre[:, p] - legendre[:, p - 1]) / (n * legendre[:, p])
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        x[0], x[-1] = -1.0, 1.0
        x = 0.5 * (x - x[::-1])  # enforce symmetry about the midpoint
    out = 0.5 * (x + 1.0)
    out.flags.writeable = False
    return out


def gauss_lobatto_nodes(p: int) -> np.ndarray:
    """Gauss-Lobatto nodes of order ``p`` on [0, 1].

    Returns the ``p + 1`` sorted nodes, always including both endpoints,
    symmetric about 0.5.

    Parameters
    ----------
    p : int
        Polynomial order, at least 1.
    """
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    return _gauss_lobatto_cached(p).copy()


@lru_cache(maxsize=None)
def _lagrange_masks(n: int):
    """Masks of the Lagrange products on n nodes; read-only.

    ``eye`` (n, n) marks node i's own factor j == i; ``skip`` (n, n, n)
    marks, for the term k of node i's derivative, the factors j == i and
    j == k.
    """
    eye = np.eye(n, dtype=bool)
    skip = eye[:, None, :] | eye[None, :, :]
    eye.flags.writeable = False
    skip.flags.writeable = False
    return eye, skip


def _lagrange_denominators(nodes: np.ndarray) -> np.ndarray:
    """prod_{j != i} (nodes[i] - nodes[j]) for every node i."""
    eye, _ = _lagrange_masks(nodes.size)
    return np.where(eye, 1.0, nodes[:, None] - nodes).prod(axis=1)


@lru_cache(maxsize=None)
def _gauss_lobatto_lagrange(p: int):
    """The order-p Gauss-Lobatto nodes and their Lagrange denominators;
    read-only."""
    nodes = _gauss_lobatto_cached(p)
    den = _lagrange_denominators(nodes)
    den.flags.writeable = False
    return nodes, den


def _lagrange_values(nodes, den, x):
    """``lagrange_1d`` with the denominators ``den`` of ``nodes`` given."""
    eye, _ = _lagrange_masks(nodes.size)
    num = np.where(eye, 1.0, (x[:, None] - nodes)[:, None, :]).prod(axis=2)
    return num / den


def _lagrange_derivs(nodes, den, x):
    """``lagrange_1d_deriv`` with the denominators ``den`` of ``nodes``
    given."""
    eye, skip = _lagrange_masks(nodes.size)
    terms = np.where(skip, 1.0,
                     (x[:, None] - nodes)[:, None, None, :]).prod(axis=3)
    terms[:, eye] = 0.0
    return terms.sum(axis=1) / den


def lagrange_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the 1D Lagrange basis on ``nodes`` at points ``x``.

    Shape (len(x), len(nodes)).  Evaluation at a node reproduces the
    Kronecker delta exactly.  Each numerator is a product over a
    (points, nodes, nodes) array whose diagonal is set to 1, so node i's own
    factor drops out without a loop over nodes.  The masks of these products
    are constant tables built once per order (node count); the reference
    elements also take the Gauss-Lobatto denominators from a table built
    once per order.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _lagrange_values(nodes, _lagrange_denominators(nodes), x)


def lagrange_1d_deriv(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First derivatives of the 1D Lagrange basis, shape (len(x), len(nodes)).

    d/dx l_i = sum_{k != i} prod_{j != i, k} (x - x_j) / den_i.  The terms
    are masked products over a (points, k, i, j) array; the sum over k runs
    along a leading axis, so it adds in ascending k.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _lagrange_derivs(nodes, _lagrange_denominators(nodes), x)


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _gauss_lobatto_01(n: int):
    """Gauss-Lobatto points and weights on [0, 1]; endpoints included."""
    if n < 2:
        raise ValueError(f"Lobatto rule needs >= 2 points, got {n}")
    x01 = _gauss_lobatto_cached(n - 1)
    xs = 2.0 * x01 - 1.0
    # weights 2 / (n (n-1) P_{n-1}(x)^2), halved for the unit interval
    pk = np.polynomial.legendre.Legendre.basis(n - 1)(xs)
    w = 1.0 / (n * (n - 1) * pk * pk)
    x = x01.copy()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# Triangle nodal sets (warp and blend) and the orthogonal Dubiner basis.

def _warp_factor(p: int, r: np.ndarray) -> np.ndarray:
    """1D warp moving equidistant points toward Gauss-Lobatto, sampled at r in [-1,1]."""
    gl = 2.0 * _gauss_lobatto_cached(p) - 1.0
    req = np.linspace(-1.0, 1.0, p + 1)
    warp = lagrange_1d(req, r) @ (gl - req)
    interior = np.abs(r) < 1.0 - 1e-10
    scale = 1.0 - (interior * r) ** 2
    return warp / scale + warp * (interior - 1.0)


def _tri_lattice(p: int) -> np.ndarray:
    """Integer lattice (i, j) with i + j <= p, j varying slowest."""
    out = [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    return np.array(out, dtype=int)


def _tri_nodes(p: int) -> np.ndarray:
    """Warp-and-blend nodes on the unit triangle, ordered like ``_tri_lattice``."""
    lattice = _tri_lattice(p)
    if p == 1:
        nodes = lattice.astype(float)
    else:
        alpha = _WARP_ALPHA[p] if p < len(_WARP_ALPHA) else 5.0 / 3.0
        l3 = lattice[:, 0] / p
        l1 = lattice[:, 1] / p
        l2 = 1.0 - l1 - l3
        x = l3 - l2
        y = (2.0 * l1 - l2 - l3) / np.sqrt(3.0)
        blend1 = 4.0 * l2 * l3
        blend2 = 4.0 * l1 * l3
        blend3 = 4.0 * l1 * l2
        w1 = blend1 * _warp_factor(p, l3 - l2) * (1.0 + (alpha * l1) ** 2)
        w2 = blend2 * _warp_factor(p, l1 - l3) * (1.0 + (alpha * l2) ** 2)
        w3 = blend3 * _warp_factor(p, l2 - l1) * (1.0 + (alpha * l3) ** 2)
        x = x + w1 + np.cos(2.0 * np.pi / 3.0) * (w2 + w3)
        y = y + np.sin(2.0 * np.pi / 3.0) * (w2 - w3)
        # equilateral coordinates back to unit-triangle barycentrics
        m1 = (np.sqrt(3.0) * y + 1.0) / 3.0             # weight of vertex (0, 1)
        m3 = (3.0 * x - np.sqrt(3.0) * y + 2.0) / 6.0   # weight of vertex (1, 0)
        nodes = np.column_stack([m3, m1])
    # Snap edge nodes to their exact Gauss-Lobatto positions so that edge
    # traces of neighboring elements interpolate on identical point sets.
    gl = _gauss_lobatto_cached(p)
    i, j = lattice[:, 0], lattice[:, 1]
    bottom = j == 0
    nodes[bottom, 0] = gl[i[bottom]]
    nodes[bottom, 1] = 0.0
    left = i == 0
    nodes[left, 0] = 0.0
    nodes[left, 1] = gl[j[left]]
    hypo = i + j == p
    nodes[hypo, 0] = gl[p - j[hypo]]
    nodes[hypo, 1] = 1.0 - gl[p - j[hypo]]
    nodes[0] = (0.0, 0.0)
    nodes[p] = (1.0, 0.0)
    nodes[-1] = (0.0, 1.0)
    return nodes


def _jacobi_norm(n: int, a: float, b: float) -> float:
    """L2 norm of the Jacobi polynomial P_n^{a,b} under its weight on [-1,1]."""
    # scipy.special is imported here and below, not at module level: only
    # triangle bases need it, and it is a tenth of `import meshfit`'s time
    from scipy.special import gammaln
    ln = ((a + b + 1.0) * np.log(2.0) - np.log(2.0 * n + a + b + 1.0)
          + gammaln(n + a + 1.0) + gammaln(n + b + 1.0)
          - gammaln(n + 1.0) - gammaln(n + a + b + 1.0))
    return np.exp(0.5 * ln)


def _jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    from scipy.special import eval_jacobi
    return eval_jacobi(n, a, b, x) / _jacobi_norm(n, a, b)


def _jacobi_deriv(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    if n == 0:
        return np.zeros_like(x)
    from scipy.special import eval_jacobi
    d = 0.5 * (n + a + b + 1.0) * eval_jacobi(n - 1, a + 1.0, b + 1.0, x)
    return d / _jacobi_norm(n, a, b)


def _dubiner(points: np.ndarray, p: int, with_grad: bool):
    """Orthogonal modal basis on the unit triangle via collapsed coordinates.

    Returns values of shape (npts, nmodes) and, when requested, gradients with
    respect to the unit-triangle coordinates of shape (npts, nmodes, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = 2.0 * pts[:, 0] - 1.0
    s = 2.0 * pts[:, 1] - 1.0
    near_top = np.abs(1.0 - s) < 1e-14
    denom = np.where(near_top, 1.0, 1.0 - s)
    a = np.where(near_top, -1.0, 2.0 * (1.0 + r) / denom - 1.0)
    b = s
    half1mb = 0.5 * (1.0 - b)
    nmodes = (p + 1) * (p + 2) // 2
    vals = np.empty((pts.shape[0], nmodes))
    grads = np.empty((pts.shape[0], nmodes, 2)) if with_grad else None
    m = 0
    for i in range(p + 1):
        fa = _jacobi(i, 0.0, 0.0, a)
        dfa = _jacobi_deriv(i, 0.0, 0.0, a)
        poweri = half1mb ** i
        powerim1 = half1mb ** (i - 1) if i > 0 else None
        for j in range(p + 1 - i):
            gb = _jacobi(j, 2.0 * i + 1.0, 0.0, b)
            vals[:, m] = np.sqrt(2.0) * fa * gb * poweri
            if with_grad:
                dgb = _jacobi_deriv(j, 2.0 * i + 1.0, 0.0, b)
                if i > 0:
                    dr = dfa * gb * powerim1
                    ds = dfa * gb * (0.5 * (1.0 + a)) * powerim1
                    ds = ds + fa * (dgb * poweri - 0.5 * i * gb * powerim1)
                else:
                    dr = dfa * gb
                    ds = fa * dgb
                # unit-triangle coordinates scale (r,s) by a factor of 2
                grads[:, m, 0] = 2.0 * np.sqrt(2.0) * dr
                grads[:, m, 1] = 2.0 * np.sqrt(2.0) * ds
            m += 1
    return vals, grads


def jacobian_table(G: np.ndarray) -> np.ndarray:
    """The (n, 2Q) GEMM table Gf[i, (q, c)] = G[q, i, c] of per-point basis
    gradients G (Q, n, 2), for ``mesh.map_jacobians``."""
    return G.transpose(1, 0, 2).reshape(G.shape[1], 2 * G.shape[0])


class ReferenceElement:
    """Nodal reference element of a fixed geometry and polynomial order;
    its arrays are read-only.

    Attributes
    ----------
    geometry : "quad" or "tri"
    order : polynomial order p
    nodes : (num_nodes, 2) reference coordinates of the nodal points
    corners : node indices of the element vertices, counterclockwise
    edge_nodes : per local edge, node indices from edge start to edge end
    interior : node indices not lying on any edge
    sub_cells : (p * p, 4) quads or (p * p, 3) triangles, counterclockwise
        node indices that split the node lattice into linear cells, by rows
        from the bottom; a triangle cell (i, j), (i + 1, j), (i, j + 1) is
        followed by the one across its diagonal, if any
    """

    def __init__(self, geometry: str, order: int):
        if geometry not in GEOMETRIES:
            raise ValueError(f"unsupported geometry {geometry!r}")
        if order < 1:
            raise ValueError(f"polynomial order must be >= 1, got {order}")
        self.geometry = geometry
        self.order = order
        p = order
        gl = _gauss_lobatto_cached(p)
        if geometry == QUAD:
            X, Y = np.meshgrid(gl, gl, indexing="xy")
            self.nodes = np.column_stack([X.ravel(), Y.ravel()])

            def nid(i, j):
                return j * (p + 1) + i

            self.corners = np.array([nid(0, 0), nid(p, 0), nid(p, p), nid(0, p)])
            self.edge_nodes = (
                np.array([nid(i, 0) for i in range(p + 1)]),
                np.array([nid(p, j) for j in range(p + 1)]),
                np.array([nid(i, p) for i in range(p, -1, -1)]),
                np.array([nid(0, j) for j in range(p, -1, -1)]),
            )
            self.interior = np.array(
                [nid(i, j) for j in range(1, p) for i in range(1, p)], dtype=int)
            self.sub_cells = np.array(
                [(nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))
                 for j in range(p) for i in range(p)])
            self.center = np.array([0.5, 0.5])
            self._vinv = None
        else:
            self.nodes = _tri_nodes(p)
            lattice = _tri_lattice(p)
            index = {(int(i), int(j)): k for k, (i, j) in enumerate(lattice)}
            self.corners = np.array([index[0, 0], index[p, 0], index[0, p]])
            self.edge_nodes = (
                np.array([index[i, 0] for i in range(p + 1)]),
                np.array([index[p - j, j] for j in range(p + 1)]),
                np.array([index[0, p - j] for j in range(p + 1)]),
            )
            self.interior = np.array(
                [index[i, j] for i, j in map(tuple, lattice)
                 if i > 0 and j > 0 and i + j < p], dtype=int)
            cells = []
            for j in range(p):
                for i in range(p - j):
                    up, right = index[i, j + 1], index[i + 1, j]
                    cells.append((index[i, j], right, up))
                    if i + j < p - 1:
                        cells.append((right, index[i + 1, j + 1], up))
            self.sub_cells = np.array(cells)
            self.center = np.array([1.0, 1.0]) / 3.0
            vand, _ = _dubiner(self.nodes, p, with_grad=False)
            self._vinv = np.linalg.inv(vand)
            self._vinv.flags.writeable = False
        self.num_nodes = len(self.nodes)
        for arr in (self.nodes, self.corners, *self.edge_nodes, self.interior,
                    self.sub_cells, self.center):
            arr.flags.writeable = False

    def _lagrange_xy(self, kernel, pts: np.ndarray) -> np.ndarray:
        """A 1D Lagrange ``kernel`` of the element's Gauss-Lobatto nodes at
        both coordinates of (npts, 2) points in one call, (npts, 2, p + 1)."""
        nodes, den = _gauss_lobatto_lagrange(self.order)
        return kernel(nodes, den, pts.ravel()).reshape(len(pts), 2, -1)

    def eval_basis(self, points: np.ndarray) -> np.ndarray:
        """Nodal basis values at reference points, shape (npts, num_nodes)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.geometry == QUAD:
            L = self._lagrange_xy(_lagrange_values, pts)
            return np.einsum("mi,mj->mji", L[:, 0], L[:, 1]).reshape(
                pts.shape[0], -1)
        vals, _ = _dubiner(pts, self.order, with_grad=False)
        # einsum's loop rounds a row alike alone and in a batch; a BLAS
        # product can take another path for a single row
        return np.einsum("mk,kn->mn", vals, self._vinv)

    def eval_basis_grad(self, points: np.ndarray) -> np.ndarray:
        """Nodal basis gradients at reference points, shape (npts, num_nodes, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.geometry == QUAD:
            L = self._lagrange_xy(_lagrange_values, pts)
            D = self._lagrange_xy(_lagrange_derivs, pts)
            n = pts.shape[0]
            gx = np.einsum("mi,mj->mji", D[:, 0], L[:, 1]).reshape(n, -1)
            gy = np.einsum("mi,mj->mji", L[:, 0], D[:, 1]).reshape(n, -1)
            return np.stack([gx, gy], axis=-1)
        vals, grads = _dubiner(pts, self.order, with_grad=True)
        return np.einsum("mkd,kn->mnd", grads, self._vinv)

    def boundary_distance(self, points):
        """Signed distance-like margin to the reference boundary (positive
        inside), per point of a (2,) point or an (..., 2) stack."""
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        if self.geometry == QUAD:
            return np.minimum(np.minimum(x, y), np.minimum(1.0 - x, 1.0 - y))
        return np.minimum(np.minimum(x, y), 1.0 - x - y)

    def clamp(self, points) -> np.ndarray:
        """Closest-point style projection of reference points into the domain,
        for a (2,) point or an (..., 2) stack."""
        pts = np.asarray(points, dtype=float)
        if self.geometry == QUAD:
            return np.clip(pts, 0.0, 1.0)
        x = np.maximum(pts[..., 0], 0.0)
        y = np.maximum(pts[..., 1], 0.0)
        # past the hypotenuse: shift both coordinates back along (1, 1)
        shift = np.where(x + y > 1.0, 0.5 * (x + y - 1.0), 0.0)
        x = np.minimum(np.maximum(x - shift, 0.0), 1.0)
        y = np.minimum(np.maximum(y - shift, 0.0), 1.0)
        return np.stack([x, y], axis=-1)

    def edge_point(self, local_edge: int, t) -> np.ndarray:
        """Reference coordinates of parameter(s) t in [0,1] along a local edge."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        if self.geometry == QUAD:
            segs = ((t, zero), (one, t), (1.0 - t, one), (zero, 1.0 - t))
        else:
            segs = ((t, zero), (1.0 - t, t), (zero, 1.0 - t))
        x, y = segs[local_edge]
        return np.column_stack([x, y])

    def __repr__(self):
        return f"ReferenceElement({self.geometry!r}, p={self.order})"


@lru_cache(maxsize=None)
def reference_element(geometry: str, order: int) -> ReferenceElement:
    """Shared, cached reference element instances."""
    return ReferenceElement(geometry, order)


class BasisTables:
    """The basis of one (geometry, order) at fixed points; read-only.

    Quality integration and validity checks share the quadrature points:
    tensor Gauss-Lobatto for quads, which samples element corners and edges
    where barrier-type integrands must detect degeneration and interior Gauss
    points never look, and the collapsed Gauss-Legendre rule for triangles.
    Validity checks add the nodes: ``validity`` is the ``jacobian_table`` of
    the gradients at both, ``nodal`` that of ``grad_at_nodes`` alone.
    ``center_basis`` (1, n) and ``center_grad`` (1, n, 2) are taken at the
    reference center.
    """

    def __init__(self, geometry: str, order: int):
        ref = reference_element(geometry, order)
        rule = _gauss_lobatto_01 if geometry == QUAD else _gauss_legendre_01
        x, w = rule(2 * order + 3)
        X, Y = np.meshgrid(x, x, indexing="ij")
        wts = np.outer(w, w)
        if geometry == TRI:
            # collapse the square onto the triangle: (x, y) -> (x (1 - y), y)
            X = X * (1.0 - Y)
            wts = wts * (1.0 - Y)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        wts = wts.ravel()
        self.ref = ref
        self.quad_points = pts
        self.quad_weights = wts
        self.grad_at_quad = ref.eval_basis_grad(pts)
        self.grad_at_nodes = ref.eval_basis_grad(ref.nodes)
        self.nodal = jacobian_table(self.grad_at_nodes)
        self.validity = jacobian_table(np.concatenate([self.grad_at_quad,
                                                       self.grad_at_nodes]))
        self.center_basis = ref.eval_basis(ref.center)
        self.center_grad = ref.eval_basis_grad(ref.center)
        for arr in (self.quad_points, self.quad_weights, self.grad_at_quad,
                    self.grad_at_nodes, self.nodal, self.validity,
                    self.center_basis, self.center_grad):
            arr.flags.writeable = False


@lru_cache(maxsize=None)
def basis_tables(geometry: str, order: int) -> BasisTables:
    """Shared, cached basis tables of one element kind."""
    return BasisTables(geometry, order)


@lru_cache(maxsize=None)
def edge_samples(geometry: str, order: int, segments: int) -> np.ndarray:
    """The basis of one element kind at segments + 1 evenly spaced points
    along each local edge, from its start to its end, edge after edge:
    (edges * (segments + 1), num_nodes); read-only.  Cached per kind and
    segment count."""
    ref = reference_element(geometry, order)
    t = np.linspace(0.0, 1.0, segments + 1)
    out = ref.eval_basis(np.vstack([ref.edge_point(le, t)
                                    for le in range(len(ref.corners))]))
    out.flags.writeable = False
    return out
