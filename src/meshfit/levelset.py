"""Level-set fields and point location in high-order meshes.

Analytic fields wrap closed-form value/gradient pairs.  Discrete fields carry
nodal values on a background mesh and answer queries by locating the point
(bounding-box hash grid + Newton inversion of the element map) and
interpolating.  Gradients of discrete fields come from a precomputed nodal
gradient field: element-wise derivatives averaged at shared nodes, then
interpolated like any other nodal field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import reference_element
from .errors import PointLocationError
from .mesh import MixedOrderMesh, det2


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
    """findpts-style point locator: inflated element boxes on a uniform grid."""

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
        boxes = np.empty((len(mesh.elements), 4))
        for e, el in enumerate(mesh.elements):
            ref = reference_element(el.geometry, el.order)
            # curved edges can bulge past the node hull, so bound the geometry
            # with a dense edge sampling before inflating
            samples = [el.coords.T]
            if el.order > 1:
                t = np.linspace(0.0, 1.0, 4 * el.order + 1)
                for le in range(len(el.verts)):
                    samples.append(mesh.eval_map(e, ref.edge_point(le, t)))
            pts = np.vstack(samples)
            lo = pts.min(axis=0)
            hi = pts.max(axis=0)
            pad = self.BOX_INFLATION * float(np.hypot(*(hi - lo)))
            boxes[e] = [lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad]
        self.boxes = boxes
        self.grid_lo = boxes[:, :2].min(axis=0)
        self.grid_hi = boxes[:, 2:].max(axis=0)
        n = max(1, int(math.sqrt(len(mesh.elements))))
        self.grid_n = n
        self.cell_size = (self.grid_hi - self.grid_lo) / n
        self.cell_size[self.cell_size <= 0] = 1.0
        cells: dict[tuple[int, int], list[int]] = {}
        for e in range(len(mesh.elements)):
            i0, j0 = self._cell_of(boxes[e, :2])
            i1, j1 = self._cell_of(boxes[e, 2:])
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    cells.setdefault((i, j), []).append(e)
        self.cells = cells

    def _cell_of(self, point) -> tuple[int, int]:
        ij = (np.asarray(point) - self.grid_lo) / self.cell_size
        i = min(max(int(ij[0]), 0), self.grid_n - 1)
        j = min(max(int(ij[1]), 0), self.grid_n - 1)
        return i, j

    def candidates(self, point) -> list[int]:
        """Element ids whose inflated box contains the point, ascending."""
        point = np.asarray(point, dtype=float)
        found = self.cells.get(self._cell_of(point), ())
        out = [e for e in found
               if (self.boxes[e, 0] <= point[0] <= self.boxes[e, 2]
                   and self.boxes[e, 1] <= point[1] <= self.boxes[e, 3])]
        return sorted(out)

    def _newton(self, e: int, target: np.ndarray):
        """Invert the element map for one physical point."""
        mesh = self.mesh
        el = mesh.elements[e]
        ref = reference_element(el.geometry, el.order)
        tol = self.NEWTON_RTOL * self.diameter
        xi = ref.center.copy()
        iterations = 0
        residual = np.inf
        for _ in range(self.MAX_NEWTON):
            r = target - mesh.eval_map(e, xi[None, :])[0]
            residual = float(np.hypot(*r))
            if residual <= tol:
                return xi, residual, iterations, True
            A = mesh.eval_jacobian(e, xi[None, :])[0]
            det = det2(A)
            if abs(det) < 1e-300:
                return xi, residual, iterations, False
            step = np.array([(A[1, 1] * r[0] - A[0, 1] * r[1]) / det,
                             (-A[1, 0] * r[0] + A[0, 0] * r[1]) / det])
            xi = xi + step
            # keep the iterate near the element: reference box inflated by 0.5
            np.clip(xi, -0.5, 1.5, out=xi)
            iterations += 1
        r = target - mesh.eval_map(e, xi[None, :])[0]
        residual = float(np.hypot(*r))
        return xi, residual, iterations, residual <= tol

    def locate(self, point, hint: int | None = None) -> ComputationalCoords:
        """Locate one physical point; ties go to the lowest element id."""
        target = np.asarray(point, dtype=float)
        cands = self.candidates(target)
        if hint is not None and hint in cands:
            cands = [hint] + [e for e in cands if e != hint]
        best_outside = None
        for e in cands:
            xi, residual, iterations, converged = self._newton(e, target)
            if not converged:
                continue
            ref = reference_element(self.mesh.elements[e].geometry,
                                    self.mesh.elements[e].order)
            if ref.contains(xi, tol=self.REF_TOL):
                margin = ref.boundary_distance(xi)
                flag = FoundFlag.INTERIOR if margin > self.REF_TOL else FoundFlag.BORDER
                return ComputationalCoords(e, xi, flag, residual, iterations)
            clamped = ref.clamp(xi)
            snap_res = float(np.hypot(*(target - self.mesh.eval_map(e, clamped[None, :])[0])))
            if best_outside is None or snap_res < best_outside[2]:
                best_outside = (e, clamped, snap_res, iterations)
        if best_outside is not None:
            e, clamped, snap_res, iterations = best_outside
            if snap_res <= self.SNAP_RTOL * self.diameter:
                return ComputationalCoords(e, clamped, FoundFlag.BORDER,
                                           snap_res, iterations)
        return ComputationalCoords(-1, np.full(2, np.nan), FoundFlag.NOT_FOUND,
                                   np.inf, 0)

    def locate_many(self, points, hints=None) -> list[ComputationalCoords]:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = []
        for i, pt in enumerate(points):
            hint = None if hints is None else hints[i]
            out.append(self.locate(pt, hint=hint))
        return out


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
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]
        if len(self.blocks) != len(mesh.elements):
            raise ValueError("one value block per element required")
        for e, (el, b) in enumerate(zip(mesh.elements, self.blocks)):
            n = reference_element(el.geometry, el.order).num_nodes
            if b.shape != (n,):
                raise ValueError(f"block {e} has shape {b.shape}, expected ({n},)")
        self._locator: Locator | None = None
        self._grad_blocks: tuple[list, list] | None = None

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

    def _gradient_blocks(self):
        """Continuous nodal gradient: element derivatives averaged at shared nodes."""
        if self._grad_blocks is not None:
            return self._grad_blocks
        mesh = self.mesh
        dm = mesh.dof_map()
        sums = np.zeros((dm.num_nodes, 2))
        counts = np.zeros(dm.num_nodes)
        for e, el in enumerate(mesh.elements):
            ref = reference_element(el.geometry, el.order)
            G = ref.eval_basis_grad(ref.nodes)              # (n, n, 2)
            du = np.einsum("i,mib->mb", self.blocks[e], G)  # reference gradient
            A = mesh.eval_jacobian(e, ref.nodes)
            g = np.linalg.solve(np.swapaxes(A, 1, 2), du[..., None])[..., 0]
            ids = dm.local_node_ids[e]
            mapped = ids >= 0
            np.add.at(sums, ids[mapped], g[mapped])
            np.add.at(counts, ids[mapped], 1.0)
        nodal = sums / counts[:, None]
        gx = dm.scatter_scalar(nodal[:, 0])
        gy = dm.scatter_scalar(nodal[:, 1])
        self._grad_blocks = (gx, gy)
        return self._grad_blocks

    def _interp(self, points, blocks_list, strict):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        coords = self.locator.locate_many(pts)
        missing = [i for i, c in enumerate(coords) if not c.found]
        if missing and strict:
            raise PointLocationError(
                f"{len(missing)} of {len(pts)} points lie outside the "
                f"background mesh (first: {pts[missing[0]]})")
        out = np.full((pts.shape[0], len(blocks_list)), np.nan)
        for i, c in enumerate(coords):
            if not c.found:
                continue
            el = self.mesh.elements[c.element]
            B = reference_element(el.geometry, el.order).eval_basis(c.ref[None, :])[0]
            for j, blocks in enumerate(blocks_list):
                out[i, j] = B @ blocks[c.element]
        return out

    def values(self, points, strict: bool = True) -> np.ndarray:
        return self._interp(points, [self.blocks], strict)[:, 0]

    def gradients(self, points, strict: bool = True) -> np.ndarray:
        gx, gy = self._gradient_blocks()
        return self._interp(points, [gx, gy], strict)


def interpolate(field, points, strict: bool = True) -> np.ndarray:
    """Field values at physical points, in input order."""
    if isinstance(field, DiscreteLevelSet):
        return field.values(points, strict=strict)
    return field.values(points)


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
