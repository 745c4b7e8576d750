"""2D meshes with per-element polynomial orders and hanging-order edge constraints.

Element node coordinates are stored per element as a (2, num_nodes) block.
Independent ("true") position unknowns live at mesh vertices, on edge
interiors at the edge's governing order (the minimum of the two adjacent
element orders), and inside elements.  On a mixed-order edge the high-order
side carries no independent edge unknowns: its edge nodes are interpolated
from the low-order side's trace, which keeps the geometry continuous across
the edge.

Four tables describe a mesh state, each built once by the object that owns
it.  The mesh owns the edge table (``edges``, ``edge_id``), the edge ids of
each element in local-edge order (``element_edges``) and the element groups
by (geometry, order) (``groups()``).  The ``DofMap`` owns the governing order
of each edge (``edge_orders``), the node numbering, ``expand`` and the slot
each non-vertex node is read from (``read_slots``).  Edges and element edges
depend only on the vertex lists; the groups and the DofMap are dropped by
``invalidate()`` after an order change and rebuilt on their next use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .basis import (basis_tables, lagrange_1d, reference_element,
                    _gauss_lobatto_cached)
from .errors import MeshInvalidError, MeshStructureError


@dataclass
class MeshElement:
    geometry: str
    verts: np.ndarray        # vertex ids, counterclockwise
    order: int
    coords: np.ndarray       # (2, num_nodes) node coordinates
    attribute: int = 1

    def copy(self) -> "MeshElement":
        return MeshElement(self.geometry, self.verts.copy(), self.order,
                           self.coords.copy(), self.attribute)


@dataclass(frozen=True)
class EdgeSide:
    element: int
    local_edge: int
    forward: bool  # local traversal runs from the smaller to the larger vertex id


@dataclass(frozen=True)
class EdgeRecord:
    verts: tuple[int, int]   # (min vertex id, max vertex id)
    sides: tuple[EdgeSide, ...]


def map_jacobians(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """T[e, q, a, c] = sum_i X[e, i, a] G[q, i, c] as one batched product.

    X holds per-element node coordinates (E, n, 2) and G per-point basis
    gradients (Q, n, 2), so T is the (E, Q, 2, 2) stack of map Jacobians.
    Routing the contraction through matmul keeps the inner loops in BLAS,
    which matters because this runs once per objective, gradient and Hessian
    evaluation.
    """
    n_el = X.shape[0]
    nq = G.shape[0]
    Gf = G.transpose(1, 0, 2).reshape(X.shape[1], 2 * nq)
    out = X.transpose(0, 2, 1) @ Gf
    return out.reshape(n_el, 2, nq, 2).transpose(0, 2, 1, 3)


def det2(A: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) stack."""
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


@lru_cache(maxsize=None)
def validity_gradients(geometry: str, order: int) -> np.ndarray:
    """Basis gradients at the validity sample set, (Q + num_nodes, n, 2).

    The set is the quality quadrature points plus the element nodes; an
    element is valid when its map determinant is positive on all of them.
    """
    tables = basis_tables(geometry, order)
    out = np.concatenate([tables.grad_at_quad, tables.grad_at_nodes])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def prolongation_matrix(order_low: int, order_high: int) -> np.ndarray:
    """Edge-trace interpolation from order_low to order_high Gauss-Lobatto nodes."""
    if order_high < order_low:
        raise ValueError("order_high must be >= order_low")
    if order_high == order_low:
        out = np.eye(order_low + 1)
    else:
        out = lagrange_1d(_gauss_lobatto_cached(order_low),
                          _gauss_lobatto_cached(order_high))
    out.flags.writeable = False
    return out


class MixedOrderMesh:
    """Mesh of quads or triangles with an independent order per element."""

    dimension = 2

    def __init__(self, vertices, elements, marked_faces=()):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshStructureError("vertices must be an (n, 2) array")
        self.elements: list[MeshElement] = list(elements)
        self.marked_faces: set[int] = set(marked_faces)
        self._edges: tuple[EdgeRecord, ...] | None = None
        self._edge_index: dict[tuple[int, int], int] | None = None
        self._element_edges: tuple[tuple[int, ...], ...] | None = None
        self._groups: dict[tuple[str, int], np.ndarray] | None = None
        self._dofmap: DofMap | None = None
        nv = len(self.vertices)
        for e, el in enumerate(self.elements):
            el.verts = np.asarray(el.verts, dtype=int)
            if el.verts.min(initial=0) < 0 or el.verts.max(initial=-1) >= nv:
                raise MeshStructureError(f"element {e} references unknown vertices")
            ref = reference_element(el.geometry, el.order)
            if len(el.verts) != len(ref.corners):
                raise MeshStructureError(
                    f"element {e} has {len(el.verts)} vertices, a "
                    f"{el.geometry} has {len(ref.corners)}")
            el.coords = np.asarray(el.coords, dtype=float)
            if el.coords.shape != (2, ref.num_nodes):
                raise MeshStructureError(
                    f"element {e} has coords {el.coords.shape}, "
                    f"expected (2, {ref.num_nodes})")

    # -- connectivity -----------------------------------------------------

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        if self._edges is None:
            self._build_edges()
        return self._edges

    @property
    def element_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids of each element, in local-edge order."""
        if self._element_edges is None:
            self._build_edges()
        return self._element_edges

    def edge_id(self, v0: int, v1: int) -> int:
        if self._edge_index is None:
            self._build_edges()
        key = (min(v0, v1), max(v0, v1))
        if key not in self._edge_index:
            raise MeshStructureError(f"no edge between vertices {v0} and {v1}")
        return self._edge_index[key]

    def _build_edges(self):
        # edge ids follow first appearance, which is the dict's key order
        found: dict[tuple[int, int], list[EdgeSide]] = {}
        index: dict[tuple[int, int], int] = {}
        element_edges = []
        for e, el in enumerate(self.elements):
            nverts = len(el.verts)
            own = []
            for le in range(nverts):
                a = int(el.verts[le])
                b = int(el.verts[(le + 1) % nverts])
                if a == b:
                    raise MeshStructureError(f"element {e} has a degenerate edge")
                key = (min(a, b), max(a, b))
                own.append(index.setdefault(key, len(index)))
                found.setdefault(key, []).append(EdgeSide(e, le, forward=(a < b)))
            element_edges.append(tuple(own))
        records = []
        for key, sides in found.items():
            if len(sides) > 2:
                raise MeshStructureError(f"edge {key} is shared by {len(sides)} elements")
            if len(sides) == 2 and sides[0].forward == sides[1].forward:
                raise MeshStructureError(
                    f"edge {key} is traversed in the same direction by both elements; "
                    "element orientations are inconsistent")
            records.append(EdgeRecord(key, tuple(sides)))
        self._edges = tuple(records)
        self._edge_index = index
        self._element_edges = tuple(element_edges)

    def boundary_edges(self) -> list[int]:
        return [k for k, r in enumerate(self.edges) if len(r.sides) == 1]

    def edge_order(self, edge_id: int) -> int:
        """Governing order of an edge: the minimum of the adjacent element orders."""
        rec = self.edges[edge_id]
        return min(self.elements[s.element].order for s in rec.sides)

    def edge_trace(self, edge_id: int) -> np.ndarray:
        """Node coordinates along an edge in canonical direction, (p + 1, 2).

        The trace comes from a side at the edge's governing order, lowest
        element id first, so it is exactly the conforming edge geometry.
        """
        p_edge = self.edge_order(edge_id)
        side = min((s for s in self.edges[edge_id].sides
                    if self.elements[s.element].order == p_edge),
                   key=lambda s: s.element)
        el = self.elements[side.element]
        ids = reference_element(el.geometry, el.order).edge_nodes[side.local_edge]
        coords = el.coords[:, ids].T
        return coords if side.forward else coords[::-1]

    # -- geometry evaluation ----------------------------------------------

    def eval_map(self, e: int, ref_points) -> np.ndarray:
        """Physical image of reference points under element ``e``'s map, (npts, 2)."""
        el = self.elements[e]
        B = reference_element(el.geometry, el.order).eval_basis(ref_points)
        return B @ el.coords.T

    def groups(self) -> dict[tuple[str, int], np.ndarray]:
        """Ascending element ids per (geometry, order), keys sorted, for
        batched evaluation.  Cached until the next ``invalidate()``."""
        if self._groups is None:
            found: dict[tuple[str, int], list[int]] = {}
            for e, el in enumerate(self.elements):
                found.setdefault((el.geometry, el.order), []).append(e)
            self._groups = {key: np.array(ids, dtype=int)
                            for key, ids in sorted(found.items())}
        return self._groups

    def group_coords(self, ids) -> np.ndarray:
        """Node coordinates of elements sharing one (geometry, order), as an
        (len(ids), num_nodes, 2) stack."""
        return np.stack([self.elements[e].coords.T for e in ids])

    def min_det(self, element_ids=None) -> float:
        """Minimum Jacobian determinant of (some) elements at validity samples."""
        groups = self.groups()
        if element_ids is not None:
            wanted = np.zeros(len(self.elements), dtype=bool)
            wanted[list(element_ids)] = True
            groups = {key: ids[wanted[ids]] for key, ids in groups.items()}
        return min_det_of((key, self.group_coords(ids))
                          for key, ids in groups.items() if len(ids))

    def is_valid(self) -> bool:
        return self.min_det() > 0.0

    def diameter(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def element_diameter(self, e: int) -> float:
        c = self.elements[e].coords
        return float(np.hypot(*(c.max(axis=1) - c.min(axis=1))))

    # -- mutation ----------------------------------------------------------

    def invalidate(self):
        """Drop the tables that depend on element orders."""
        self._groups = None
        self._dofmap = None

    def set_order(self, e: int, new_order: int):
        """Resample element ``e`` at a new order.

        Raising the order preserves the geometry exactly; lowering it
        interpolates the current map at the lower-order node set.
        """
        el = self.elements[e]
        if new_order == el.order:
            return
        new_nodes = reference_element(el.geometry, new_order).nodes
        new_coords = self.eval_map(e, new_nodes).T.copy()
        el.order = new_order
        el.coords = new_coords
        self.invalidate()

    def copy(self) -> "MixedOrderMesh":
        out = MixedOrderMesh(self.vertices.copy(),
                             [el.copy() for el in self.elements],
                             set(self.marked_faces))
        return out

    # -- degrees of freedom -----------------------------------------------

    def dof_map(self) -> "DofMap":
        if self._dofmap is None:
            self._dofmap = DofMap(self)
        return self._dofmap

    @property
    def num_position_dofs(self) -> int:
        """Number of independent position nodes (vertices + edge + interior)."""
        return self.dof_map().num_nodes

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for el in self.elements:
            hist[el.order] = hist.get(el.order, 0) + 1
        return dict(sorted(hist.items()))


class DofMap:
    """Mapping between independent position nodes and element node blocks.

    Node numbering: vertices first, then edge-interior nodes per edge at the
    edge's governing order (``edge_orders``), then element-interior nodes.
    ``expand`` is a sparse matrix taking a per-node vector (or (n, k) stack)
    to the concatenation of all element node blocks, applying trace
    interpolation on constrained high-order edge nodes.  ``read_slots`` gives,
    for each non-vertex node, the slot of that concatenation it is read
    from: its first directly mapped slot in element order, which for an edge
    node is the lowest element id at the edge's governing order.
    """

    def __init__(self, mesh: MixedOrderMesh):
        edges = mesh.edges
        nv = len(mesh.vertices)
        self.num_vertices = nv
        self.edge_orders = np.array(
            [min(mesh.elements[s.element].order for s in rec.sides)
             for rec in edges], dtype=int)
        edge_counts = self.edge_orders - 1
        self.edge_offsets = nv + np.cumsum(edge_counts) - edge_counts
        refs = [reference_element(el.geometry, el.order)
                for el in mesh.elements]
        pos = nv + int(edge_counts.sum())
        self.num_nodes = pos + sum(len(ref.interior) for ref in refs)

        self.element_slices: list[slice] = []
        self.local_node_ids: list[np.ndarray] = []
        read = np.full(self.num_nodes, -1)
        rows, cols, vals = [], [], []
        base = 0
        for el, ref, own_edges in zip(mesh.elements, refs, mesh.element_edges):
            n = ref.num_nodes
            self.element_slices.append(slice(base, base + n))
            ids = np.full(n, -1, dtype=int)
            ids[ref.corners] = el.verts
            for le, (k, enodes) in enumerate(zip(own_edges, ref.edge_nodes)):
                vmin, vmax = edges[k].verts
                p_edge = int(self.edge_orders[k])
                o = int(self.edge_offsets[k])
                canonical = enodes if el.verts[le] == vmin else enodes[::-1]
                if el.order == p_edge:
                    ids[canonical[1:-1]] = o + np.arange(p_edge - 1)
                    continue
                P = prolongation_matrix(p_edge, el.order)
                low_cols = [vmin, *range(o, o + p_edge - 1), vmax]
                for idx in range(1, el.order):
                    rows.extend([base + canonical[idx]] * (p_edge + 1))
                    cols.extend(low_cols)
                    vals.extend(P[idx])
            ids[ref.interior] = pos + np.arange(len(ref.interior))
            pos += len(ref.interior)
            mapped = np.flatnonzero(ids >= 0)
            nodes = ids[mapped]
            rows.extend((base + mapped).tolist())
            cols.extend(nodes.tolist())
            vals.extend([1.0] * len(mapped))
            unread = read[nodes] < 0
            read[nodes[unread]] = base + mapped[unread]
            self.local_node_ids.append(ids)
            base += n
        self.total_local = base
        self.read_slots = read[nv:]
        self.expand = sp.csr_matrix(
            (vals, (rows, cols)), shape=(base, self.num_nodes))

    def extract(self, mesh: MixedOrderMesh) -> np.ndarray:
        """Independent node positions, shape (num_nodes, 2)."""
        t = np.empty((self.num_nodes, 2))
        t[:self.num_vertices] = mesh.vertices
        if self.total_local:
            x_all = np.concatenate([el.coords for el in mesh.elements], axis=1)
            t[self.num_vertices:] = x_all[:, self.read_slots].T
        return t

    def scatter(self, mesh: MixedOrderMesh, t: np.ndarray):
        """Write independent node positions back into vertex and element storage."""
        x_all = self.expand @ t
        mesh.vertices[:] = t[:self.num_vertices]
        for e, el in enumerate(mesh.elements):
            el.coords[:] = x_all[self.element_slices[e]].T

    def scatter_scalar(self, t: np.ndarray) -> list[np.ndarray]:
        """Per-element blocks of a scalar field given independent nodal values."""
        x_all = self.expand @ t
        return [x_all[s].copy() for s in self.element_slices]

    def edge_node_ids(self, edge_id: int, mesh: MixedOrderMesh) -> np.ndarray:
        """Independent node ids along an edge in canonical order, endpoints included."""
        vmin, vmax = mesh.edges[edge_id].verts
        o = self.edge_offsets[edge_id]
        cnt = self.edge_orders[edge_id] - 1
        return np.array([vmin] + list(range(o, o + cnt)) + [vmax], dtype=int)

    def marked_node_ids(self, mesh: MixedOrderMesh) -> np.ndarray:
        """Sorted independent node ids lying on the marked face set."""
        ids: set[int] = set()
        for k in sorted(mesh.marked_faces):
            ids.update(self.edge_node_ids(k, mesh).tolist())
        return np.array(sorted(ids), dtype=int)


def apply_edge_constraints(mesh: MixedOrderMesh) -> MixedOrderMesh:
    """Overwrite dependent edge nodes from the governing low-order traces.

    Idempotent; a conforming equal-order mesh with consistent shared values is
    returned unchanged.
    """
    dm = mesh.dof_map()
    dm.scatter(mesh, dm.extract(mesh))
    return mesh


def element_min_dets(stacks) -> list[np.ndarray]:
    """Per-element minimum map determinant over the validity sample set.

    ``stacks`` yields (key, X) pairs: a (geometry, order) key and the
    (E, n, 2) node coordinates of E elements with that key.  Returns one
    length-E array per pair.
    """
    return [det2(map_jacobians(X, validity_gradients(*key))).min(axis=1)
            for key, X in stacks]


def min_det_of(stacks) -> float:
    """Smallest determinant of ``element_min_dets(stacks)``; inf for none,
    NaN when any determinant is NaN, so that a ``> 0.0`` check fails."""
    return float(np.min([np.inf] + [d.min() for d in element_min_dets(stacks)]))


def require_valid(mesh: MixedOrderMesh, context: str = "operation"):
    md = mesh.min_det()
    if not md > 0.0:
        raise MeshInvalidError(
            f"{context} requires a non-inverted mesh (min det = {md:.3e})")

