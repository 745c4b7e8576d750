"""Level-set fields and point location in high-order meshes.

Analytic fields wrap closed-form value/gradient pairs.  Discrete fields carry
nodal values on a background mesh and answer queries by locating the points
and interpolating.  Gradients of discrete fields come from a precomputed nodal
gradient field: element-wise derivatives averaged at shared nodes, then
interpolated like any other nodal field.  Nodal values must be finite.

Location is batched, in the style of gslib ``findpts``.  A grid over the
inflated element bounding boxes gives every (point, candidate element) pair;
one Newton iteration per (geometry, order) element group inverts the element
maps for all of that group's pairs at once, with the mesh's Jacobian
kernel (``map_jacobians``, ``cofactors``).  The Newton start tables and
the nodal gradient tables are the element kind's ``basis_tables``, and each
inversion keeps the basis rows of its last residual.
Interpolation multiplies the rows of the converged inversion (or of the snap
test) with the nodal values, so it evaluates no basis.  A point goes to the
first converged candidate whose reference point lies inside its element;
candidates are tried in ascending id order, so on a shared vertex or edge the
lowest element id wins.  A point just outside the mesh snaps to the closest
clamped candidate within ``Locator.SNAP_RTOL``.  A Newton from the center
can converge to a root of the element map outside the element, so the
candidates of a point that neither rule finds are inverted once more, each
from the element node nearest the point.  Non-finite points (nan,
+-inf) have no candidates and are not found: ``Locator.locate`` returns
``NOT_FOUND``.  A field query at a point that is not found, off the
background mesh or non-finite, always raises ``PointLocationError``.

A locator keeps its last batch.  A query at the same points, such as the
gradient query a solver makes at the trial point whose values it has just
accepted, reuses that location and evaluates no basis at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import basis_tables, edge_samples, reference_element
from .errors import PointLocationError
from .mesh import (MixedOrderMesh, check_node_blocks, cofactors,
                   jacobian_components, jacobian_det, map_jacobians)


class FoundFlag(Enum):
    INTERIOR = "interior"
    BORDER = "border"
    NOT_FOUND = "not_found"


@dataclass
class ComputationalCoords:
    """Result of locating one physical point: owning element and reference coords."""
    element: int
    ref: np.ndarray
    flag: FoundFlag
    residual: float
    iterations: int

    @property
    def found(self) -> bool:
        return self.flag is not FoundFlag.NOT_FOUND


class Locator:
    """findpts-style point locator: inflated element boxes on a uniform grid,
    inverted by one batched Newton per (geometry, order) element group."""

    #: element bounding boxes are inflated by this fraction of their diameter
    BOX_INFLATION = 0.01
    #: Newton convergence threshold, relative to the mesh diameter
    NEWTON_RTOL = 1e-12
    #: reference-space containment tolerance
    REF_TOL = 1e-10
    #: physical snap distance for marginally-outside points, relative to diameter
    SNAP_RTOL = 1e-8
    MAX_NEWTON = 20

    def __init__(self, mesh: MixedOrderMesh):
        if not mesh.elements:
            raise ValueError("cannot build a locator for an empty mesh")
        self.mesh = mesh
        self.diameter = mesh.diameter()
        num_el = len(mesh.elements)
        #: per (geometry, order) group: element ids, reference element and
        #: node coordinates; element e is row row_of[e] of group group_of[e]
        self.groups = mesh.groups()
        self.group_refs = [reference_element(*key) for key in self.groups]
        self.group_coords = [mesh.group_coords(ids)
                             for ids in self.groups.values()]
        #: widest basis row of any group
        self.max_nodes = max(ref.num_nodes for ref in self.group_refs)
        self.group_of = np.empty(num_el, dtype=int)
        self.row_of = np.empty(num_el, dtype=int)
        boxes = np.empty((num_el, 4))
        for g, ((geometry, order), ids) in enumerate(self.groups.items()):
            self.group_of[ids] = g
            self.row_of[ids] = np.arange(len(ids))
            X = self.group_coords[g]
            pts = X
            if order > 1:
                # curved edges can bulge past the node hull, so bound the
                # geometry with a dense edge sampling before inflating
                pts = np.concatenate(
                    [X, edge_samples(geometry, order, 4 * order) @ X], axis=1)
            lo = pts.min(axis=1)
            hi = pts.max(axis=1)
            pad = self.BOX_INFLATION * np.hypot(*(hi - lo).T)
            boxes[ids] = np.column_stack([lo - pad[:, None], hi + pad[:, None]])
        self.boxes = boxes
        self.grid_lo = boxes[:, :2].min(axis=0)
        self.grid_hi = boxes[:, 2:].max(axis=0)
        n = max(1, int(math.sqrt(num_el)))
        self.grid_n = n
        self.cell_size = (self.grid_hi - self.grid_lo) / n
        self.cell_size[self.cell_size <= 0] = 1.0
        # CSR from grid cell i * n + j to the ascending ids of the elements
        # whose box overlaps it
        lo_ij = self._cell_ij(boxes[:, :2])
        span = self._cell_ij(boxes[:, 2:]) - lo_ij + 1
        elem = np.repeat(np.arange(num_el), span[:, 0] * span[:, 1])
        k = _ranks(span[:, 0] * span[:, 1])
        cell = ((lo_ij[elem, 0] + k // span[elem, 1]) * n
                + lo_ij[elem, 1] + k % span[elem, 1])
        order_by_cell = np.argsort(cell, kind="stable")
        self.cell_elements = elem[order_by_cell]
        self.cell_start = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=n * n))])
        #: the last located batch: a copy of its points and its result
        self._last: tuple[np.ndarray, _Located] | None = None

    def _cell_ij(self, points: np.ndarray) -> np.ndarray:
        """Grid cell (i, j) of finite points, clamped to the grid, (npts, 2)."""
        inside = np.minimum(np.maximum(points, self.grid_lo), self.grid_hi)
        ij = (inside - self.grid_lo) / self.cell_size
        return np.minimum(np.maximum(ij, 0), self.grid_n - 1).astype(int)

    def _candidate_pairs(self, points: np.ndarray):
        """(point index, element id) of every point lying in an inflated
        element box, by point and then ascending element id.  Non-finite
        points have no candidates."""
        finite = np.isfinite(points).all(axis=1)
        cell = np.zeros(len(points), dtype=int)
        ij = self._cell_ij(points[finite])
        cell[finite] = ij[:, 0] * self.grid_n + ij[:, 1]
        start = self.cell_start[cell]
        count = np.where(finite, self.cell_start[cell + 1] - start, 0)
        pt = np.repeat(np.arange(len(points)), count)
        el = self.cell_elements[np.repeat(start, count) + _ranks(count)]
        b = self.boxes[el]
        x = points[pt]
        inside = ((b[:, 0] <= x[:, 0]) & (x[:, 0] <= b[:, 2])
                  & (b[:, 1] <= x[:, 1]) & (x[:, 1] <= b[:, 3]))
        return pt[inside], el[inside]

    def candidates(self, point) -> list[int]:
        """Element ids whose inflated box contains the point, ascending."""
        point = np.asarray(point, dtype=float).reshape(1, 2)
        return self._candidate_pairs(point)[1].tolist()

    def _invert(self, g: int, el: np.ndarray, target: np.ndarray,
                from_nodes: bool = False):
        """Invert the maps of elements el[s] of group g at points target[s].

        Every pair starts from the reference center, whose basis tables
        are the element kind's, or with ``from_nodes`` from the
        reference node whose physical position is nearest its target.  It
        stops updating once its residual is within ``NEWTON_RTOL *
        diameter`` or its Jacobian is singular.  Returns the reference
        points, the basis values there (the rows the last residual used),
        residuals, iterations and convergence flags.
        """
        ref = self.group_refs[g]
        tol = self.NEWTON_RTOL * self.diameter
        X = self.group_coords[g][self.row_of[el]]
        if from_nodes:
            near = ((X - target[:, None]) ** 2).sum(axis=2).argmin(axis=1)
            xi = ref.nodes[near]
            basis, grads = ref.eval_basis(xi), ref.eval_basis_grad(xi)
        else:
            tables = basis_tables(ref.geometry, ref.order)
            xi = np.repeat(ref.center[None], len(el), axis=0)
            # contiguous copies: a broadcast view could change einsum's kernel
            basis = np.repeat(tables.center_basis, len(el), axis=0)
            grads = np.repeat(tables.center_grad, len(el), axis=0)
        residual = np.full(len(el), np.inf)
        iterations = np.zeros(len(el), dtype=int)
        converged = np.zeros(len(el), dtype=bool)
        # the pairs still iterating: their indices, iterates, node blocks,
        # targets and basis rows, compressed as pairs drop out
        active = np.arange(len(el))
        x, t, B = xi, target, basis
        for it in range(self.MAX_NEWTON + 1):
            if it:
                B = ref.eval_basis(x)
                basis[active] = B
            r = t - np.einsum("sn,snd->sd", B, X)
            res = np.hypot(r[:, 0], r[:, 1])
            residual[active] = res
            done = res <= tol
            converged[active[done]] = True
            if it == self.MAX_NEWTON or done.all():
                break
            if done.any():
                keep = ~done
                active, x, X, t, r = (a[keep] for a in (active, x, X, t, r))
            G = ref.eval_basis_grad(x) if it else grads[active]
            # G is a per-pair table of one point
            A = [c[:, 0] for c in jacobian_components(map_jacobians(X, G))]
            det = jacobian_det(A)
            regular = np.abs(det) >= 1e-300
            if not regular.all():
                if not regular.any():
                    break
                active, x, X, t, r, det, *A = (
                    a[regular] for a in (active, x, X, t, r, det, *A))
            C00, C01, C10, C11 = cofactors(A)
            step = np.column_stack([(C00 * r[:, 0] + C10 * r[:, 1]) / det,
                                    (C01 * r[:, 0] + C11 * r[:, 1]) / det])
            # keep the iterate near the element: reference box inflated by 0.5
            x = np.minimum(np.maximum(x + step, -0.5), 1.5)
            xi[active] = x
            iterations[active] += 1
        return xi, basis, residual, iterations, converged

    def _locate(self, points: np.ndarray) -> "_Located":
        """Locate a batch of physical points, (npts, 2).

        Among the converged candidates of a point (in ascending id order)
        the first one whose reference point lies inside the
        element within ``REF_TOL`` wins.  Otherwise the candidate whose
        clamped reference point maps closest to the point wins, if that is
        within ``SNAP_RTOL * diameter``.  A Newton from the reference center
        can converge to a root of the element map outside the element, so
        the candidates of a point still not found are inverted once more,
        each from its node nearest the point, under the same rule.
        Otherwise the point is not found.  A batch equal to the previous
        one gets the previous result.
        """
        if self._last is not None and np.array_equal(points, self._last[0]):
            return self._last[1]
        npts = len(points)
        out = _Located(np.full(npts, -1), np.full((npts, 2), np.nan),
                       np.full(npts, FoundFlag.NOT_FOUND), np.full(npts, np.inf),
                       np.zeros(npts, dtype=int),
                       np.full((npts, self.max_nodes), np.nan))
        pt, el = self._candidate_pairs(points)
        self._select(points, pt, el, out)
        again = (out.element[pt] < 0).nonzero()[0]
        if again.size:
            self._select(points, pt[again], el[again], out, from_nodes=True)
        self._last = (points.copy(), out)
        return out

    def _select(self, points, pt, el, out: "_Located", from_nodes=False):
        """Invert the (point, element) pairs ``pt``, ``el`` (by point, then
        ascending element id) and set the points they locate in ``out``, by
        the rule of ``_locate``."""
        pair_group = self.group_of[el]
        xi = np.empty((len(el), 2))
        basis = np.zeros((len(el), self.max_nodes))
        residual = np.empty(len(el))
        iterations = np.empty(len(el), dtype=int)
        converged = np.empty(len(el), dtype=bool)
        margin = np.empty(len(el))
        for g, ref in enumerate(self.group_refs):
            s = (pair_group == g).nonzero()[0]
            if not s.size:
                continue
            xi[s], basis[s, :ref.num_nodes], residual[s], iterations[s], \
                converged[s] = self._invert(g, el[s], points[pt[s]],
                                            from_nodes)
            margin[s] = ref.boundary_distance(xi[s])
        inside = margin >= -self.REF_TOL
        interior = margin > self.REF_TOL
        win = (converged & inside).nonzero()[0]
        win = win[_first_per_point(pt[win])]
        out.set(pt[win], el[win], xi[win], basis[win], residual[win],
                iterations[win],
                np.where(interior[win], FoundFlag.INTERIOR, FoundFlag.BORDER))
        # converged candidates outside their element, for unfound points
        outside = (converged & ~inside & (out.element[pt] < 0)).nonzero()[0]
        if outside.size:
            clamped = np.empty((outside.size, 2))
            clamped_basis = np.zeros((outside.size, self.max_nodes))
            snap = np.empty(outside.size)
            for g, ref in enumerate(self.group_refs):
                s = (pair_group[outside] == g).nonzero()[0]
                if not s.size:
                    continue
                pairs = outside[s]
                clamped[s] = ref.clamp(xi[pairs])
                B = ref.eval_basis(clamped[s])
                clamped_basis[s, :ref.num_nodes] = B
                X = self.group_coords[g][self.row_of[el[pairs]]]
                r = points[pt[pairs]] - np.einsum("sn,snd->sd", B, X)
                snap[s] = np.hypot(r[:, 0], r[:, 1])
            # smallest snap residual per point; ties keep the candidate order
            best = np.lexsort((outside, snap, pt[outside]))
            best = best[_first_per_point(pt[outside][best])]
            best = best[snap[best] <= self.SNAP_RTOL * self.diameter]
            pairs = outside[best]
            out.set(pt[pairs], el[pairs], clamped[best], clamped_basis[best],
                    snap[best], iterations[pairs], FoundFlag.BORDER)

    def locate(self, point) -> ComputationalCoords:
        """Locate one physical point; ties go to the lowest element id."""
        point = np.asarray(point, dtype=float).reshape(1, 2)
        return self._locate(point).coords(0)


@dataclass
class _Located:
    """Array form of the ``ComputationalCoords`` of a batch of points."""
    element: np.ndarray
    ref: np.ndarray
    flag: np.ndarray        # FoundFlag per point
    residual: np.ndarray
    iterations: np.ndarray
    #: (npts, max nodes) basis values of each point's element at its ref,
    #: padded with zeros; NaN for a point not found
    basis: np.ndarray

    def set(self, i, element, ref, basis, residual, iterations, flag):
        self.element[i] = element
        self.ref[i] = ref
        self.basis[i] = basis
        self.residual[i] = residual
        self.iterations[i] = iterations
        self.flag[i] = flag

    def coords(self, i: int) -> ComputationalCoords:
        return ComputationalCoords(int(self.element[i]), self.ref[i].copy(),
                                   self.flag[i], float(self.residual[i]),
                                   int(self.iterations[i]))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def _first_per_point(pt: np.ndarray) -> np.ndarray:
    """Positions of the first entry of each run of equal values in the
    sorted array ``pt``."""
    first = np.empty(len(pt), dtype=bool)
    first[:1] = True
    np.not_equal(pt[1:], pt[:-1], out=first[1:])
    return first.nonzero()[0]


# ---------------------------------------------------------------------------
# Fields

@dataclass(frozen=True)
class AnalyticLevelSet:
    """Closed-form scalar field with an exact gradient."""
    name: str
    fn: callable
    grad_fn: callable

    def values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.fn(pts[:, 0], pts[:, 1])

    def gradients(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        gx, gy = self.grad_fn(pts[:, 0], pts[:, 1])
        return np.column_stack([np.broadcast_to(gx, pts.shape[0]),
                                np.broadcast_to(gy, pts.shape[0])])


def _squircle():
    r4 = 0.24 ** 4

    def fn(x, y):
        return (x - 0.5) ** 4 + (y - 0.5) ** 4 - r4

    def grad(x, y):
        return 4.0 * (x - 0.5) ** 3, 4.0 * (y - 0.5) ** 3

    return AnalyticLevelSet("squircle2d", fn, grad)


def _circle(cx=0.5, cy=0.5, radius=0.3):
    def fn(x, y):
        return (x - cx) ** 2 + (y - cy) ** 2 - radius ** 2

    def grad(x, y):
        return 2.0 * (x - cx), 2.0 * (y - cy)

    return AnalyticLevelSet("circle", fn, grad)


def _plane(offset=0.5):
    def fn(x, y):
        return y - offset

    def grad(x, y):
        return np.zeros_like(x), np.ones_like(y)

    return AnalyticLevelSet("plane", fn, grad)


ANALYTIC_LEVELSETS = {
    "squircle2d": _squircle,
    "circle": _circle,
    "plane": _plane,
}


class DiscreteLevelSet:
    """Nodal scalar field on a background mesh, queried by point location."""

    def __init__(self, mesh: MixedOrderMesh, blocks):
        self.mesh = mesh
        self.blocks = check_node_blocks(mesh, blocks)
        self._locator: Locator | None = None
        self._values: list[np.ndarray] | None = None
        self._gradients: list[np.ndarray] | None = None

    @classmethod
    def sample(cls, mesh: MixedOrderMesh, analytic) -> "DiscreteLevelSet":
        """Sample an analytic field (object with .values, or a plain callable
        on an (n, 2) point array) at the nodes of a background mesh."""
        fn = getattr(analytic, "values", analytic)
        blocks = [np.asarray(fn(el.coords.T), dtype=float)
                  for el in mesh.elements]
        return cls(mesh, blocks)

    @property
    def locator(self) -> Locator:
        if self._locator is None:
            self._locator = Locator(self.mesh)
        return self._locator

    def _value_blocks(self) -> list[np.ndarray]:
        """Nodal values per locator element group, (E_g, n, 1) each."""
        if self._values is None:
            self._values = [np.stack([self.blocks[e] for e in ids])[..., None]
                            for ids in self.locator.groups.values()]
        return self._values

    def _gradient_blocks(self) -> list[np.ndarray]:
        """Continuous nodal gradient per locator element group, (E_g, n, 2)
        each: element derivatives averaged at shared nodes."""
        if self._gradients is not None:
            return self._gradients
        loc = self.locator
        dm = self.mesh.dof_map()
        sums = np.zeros((dm.num_nodes, 2))
        counts = np.zeros(dm.num_nodes)
        for key, X, U in zip(loc.groups, loc.group_coords,
                             self._value_blocks()):
            tables = basis_tables(*key)
            du = np.einsum("ei,mib->emb", U[..., 0], tables.grad_at_nodes)
            # du: reference gradients; A^{-T} du = C du / det A, C = cof(A)
            A = jacobian_components(map_jacobians(X, tables.nodal))
            (C00, C01, C10, C11), det = cofactors(A), jacobian_det(A)
            g = np.stack([(C00 * du[..., 0] + C01 * du[..., 1]) / det,
                          (C10 * du[..., 0] + C11 * du[..., 1]) / det], -1)
            node_ids = dm.node_ids[key]
            mapped = node_ids >= 0
            np.add.at(sums, node_ids[mapped], g[mapped])
            np.add.at(counts, node_ids[mapped], 1.0)
        local = dm.expand @ (sums / counts[:, None])
        self._gradients = [local[dm.slots[key]] for key in loc.groups]
        return self._gradients

    def _interp(self, points, group_blocks):
        """Interpolate per-group nodal blocks at located points, with the
        basis rows the location left; (npts, fields)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        loc = self.locator
        located = loc._locate(pts)
        missing = (located.element < 0).nonzero()[0]
        if missing.size:
            raise PointLocationError(
                f"{missing.size} of {len(pts)} points lie outside the "
                f"background mesh (first: {pts[missing[0]]})")
        out = np.empty((len(pts), group_blocks[0].shape[-1]))
        group = loc.group_of[located.element]
        for g, ref in enumerate(loc.group_refs):
            s = (group == g).nonzero()[0]
            if s.size:
                V = group_blocks[g][loc.row_of[located.element[s]]]
                B = np.ascontiguousarray(located.basis[s, :ref.num_nodes])
                out[s] = np.einsum("sn,snk->sk", B, V)
        return out

    def values(self, points) -> np.ndarray:
        return self._interp(points, self._value_blocks())[:, 0]

    def gradients(self, points) -> np.ndarray:
        return self._interp(points, self._gradient_blocks())


def make_levelset(spec: str):
    """Build a field from a CLI-style string: ``name:<builtin>`` or ``file:<path>``."""
    kind, _, arg = spec.partition(":")
    if kind == "name":
        if arg not in ANALYTIC_LEVELSETS:
            known = ", ".join(sorted(ANALYTIC_LEVELSETS))
            raise ValueError(f"unknown level set {arg!r} (known: {known})")
        return ANALYTIC_LEVELSETS[arg]()
    if kind == "file":
        from .mesh_io import read_mesh
        mesh, blocks = read_mesh(arg, with_scalar=True)
        if blocks is None:
            raise ValueError(f"{arg} has no scalar block")
        return DiscreteLevelSet(mesh, blocks)
    raise ValueError(f"level set spec must start with 'name:' or 'file:', got {spec!r}")
