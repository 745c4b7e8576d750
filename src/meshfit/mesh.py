"""2D meshes with per-element polynomial orders and hanging-order edge constraints.

Element node coordinates are stored per element as a (2, num_nodes) block.
Independent ("true") position unknowns live at mesh vertices, on edge
interiors at the edge's governing order (the minimum of the two adjacent
element orders), and inside elements.  On a mixed-order edge the high-order
side carries no independent edge unknowns: its edge nodes are interpolated
from the low-order side's trace, which keeps the geometry continuous across
the edge.

Four tables describe a mesh state, each built once by the object that owns
it.  The mesh owns the edge table (``edges``, ``edge_id``), the
element-vertex, element-edge and edge-element incidence arrays
(``element_vertex_ids``, ``element_edge_ids``, ``edge_element_ids``) and
the element groups by (geometry, order) (``groups()``).  The ``DofMap`` owns
the governing order of each edge (``edge_orders``), the node numbering,
``expand`` and the slot each non-vertex node is read from (``read_slots``).
It keeps its per-element tables per group, as (E_g, n) arrays ``slots`` and
``node_ids``, and builds everything with a few array operations per group
from the mesh's incidence arrays, so an order change costs no loop over
elements.  Edges and the incidence arrays depend only on the vertex lists:
the constructor builds them, and raises ``MeshStructureError`` on a
malformed topology.  The groups and the DofMap are dropped by
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


def jacobian_table(G: np.ndarray) -> np.ndarray:
    """The (n, 2Q) GEMM table Gf[i, (q, c)] = G[q, i, c] of per-point basis
    gradients G (Q, n, 2), for ``map_jacobians``."""
    return G.transpose(1, 0, 2).reshape(G.shape[1], 2 * G.shape[0])


def map_jacobians(X: np.ndarray, Gf: np.ndarray) -> np.ndarray:
    """T[e, a, q, c] = sum_i X[e, i, a] G[q, i, c] as one batched product.

    X holds per-element node coordinates (E, n, 2) and Gf is the
    ``jacobian_table`` of per-point basis gradients G (Q, n, 2).  T is the
    (E, 2, Q, 2) product as the GEMM leaves it: the map Jacobian of element
    e at point q is T[e, :, q, :].  Routing the contraction through matmul
    keeps the inner loops in BLAS, which matters because this runs once per
    objective, gradient and Hessian evaluation.
    """
    n_el, nq = X.shape[0], Gf.shape[1] // 2
    return (X.transpose(0, 2, 1) @ Gf).reshape(n_el, 2, nq, 2)


def jacobian_components(T: np.ndarray):
    """The contiguous (E, Q) components (T00, T01, T10, T11) of a
    ``map_jacobians`` product, from one copy."""
    C = np.ascontiguousarray(T.transpose(1, 3, 0, 2))
    return C[0, 0], C[0, 1], C[1, 0], C[1, 1]


def det2(A: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) stack."""
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


@lru_cache(maxsize=None)
def validity_table(geometry: str, order: int) -> np.ndarray:
    """``jacobian_table`` of the basis gradients at the validity sample set;
    read-only.

    The set is the quality quadrature points plus the element nodes; an
    element is valid when its map determinant is positive on all of them.
    """
    tables = basis_tables(geometry, order)
    out = jacobian_table(np.concatenate([tables.grad_at_quad,
                                         tables.grad_at_nodes]))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def interpolation_matrix(order_from: int, order_to: int) -> np.ndarray:
    """Edge-trace interpolation from order_from to order_to Gauss-Lobatto
    nodes: the order_from Lagrange basis at the order_to nodes; read-only.
    Equal orders give the identity exactly."""
    out = lagrange_1d(_gauss_lobatto_cached(order_from),
                      _gauss_lobatto_cached(order_to))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def resampling_matrix(geometry: str, order_from: int,
                      order_to: int) -> np.ndarray:
    """The order_from basis of a geometry at the order_to nodes, which
    takes an element's node block to its resampling at order_to;
    read-only."""
    out = reference_element(geometry, order_from).eval_basis(
        reference_element(geometry, order_to).nodes)
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
        self._build_edges()

    # -- connectivity -----------------------------------------------------

    def edge_id(self, v0: int, v1: int) -> int:
        key = (min(v0, v1), max(v0, v1))
        if key not in self._edge_index:
            raise MeshStructureError(f"no edge between vertices {v0} and {v1}")
        return self._edge_index[key]

    def _build_edges(self):
        """The edge table and the incidence arrays; raises
        ``MeshStructureError`` on a degenerate, over-shared or inconsistently
        oriented edge."""
        # edge ids follow first appearance, which is the dict's key order
        found: dict[tuple[int, int], list[EdgeSide]] = {}
        index: dict[tuple[int, int], int] = {}
        width = max((len(el.verts) for el in self.elements), default=0)
        verts = np.full((len(self.elements), width), -1)
        own = np.full((len(self.elements), width), -1)
        for e, el in enumerate(self.elements):
            nverts = len(el.verts)
            verts[e, :nverts] = el.verts
            for le in range(nverts):
                a = int(el.verts[le])
                b = int(el.verts[(le + 1) % nverts])
                if a == b:
                    raise MeshStructureError(f"element {e} has a degenerate edge")
                key = (min(a, b), max(a, b))
                own[e, le] = index.setdefault(key, len(index))
                found.setdefault(key, []).append(EdgeSide(e, le, forward=(a < b)))
        records = []
        sides = np.full((len(found), 2), -1)
        for k, (key, ks) in enumerate(found.items()):
            if len(ks) > 2:
                raise MeshStructureError(f"edge {key} is shared by {len(ks)} elements")
            if len(ks) == 2 and ks[0].forward == ks[1].forward:
                raise MeshStructureError(
                    f"edge {key} is traversed in the same direction by both elements; "
                    "element orientations are inconsistent")
            records.append(EdgeRecord(key, tuple(ks)))
            sides[k, :len(ks)] = [s.element for s in ks]
        for a in (verts, own, sides):
            a.flags.writeable = False
        self.edges: tuple[EdgeRecord, ...] = tuple(records)
        self._edge_index = index
        #: (E, max vertices) vertex ids and edge ids of each element in local
        #: order, padded with -1
        self.element_vertex_ids = verts
        self.element_edge_ids = own
        #: (num edges, 2) elements of each edge in side order, -1 for the
        #: missing side of a boundary edge
        self.edge_element_ids = sides

    def boundary_edges(self) -> list[int]:
        return np.flatnonzero(self.edge_element_ids[:, 1] < 0).tolist()

    def orders(self) -> np.ndarray:
        """The order of each element, as an int array."""
        return np.array([el.order for el in self.elements], dtype=int)

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

    # -- mutation ----------------------------------------------------------

    def invalidate(self):
        """Drop the tables that depend on element orders."""
        self._groups = None
        self._dofmap = None

    def set_order(self, e: int, new_order: int):
        """Resample element ``e`` at a new order.

        Raising the order preserves the geometry exactly; lowering it
        interpolates the current map at the lower-order node set.  The
        resampling matrix is built once per (geometry, old order, new
        order).
        """
        el = self.elements[e]
        if new_order == el.order:
            return
        B = resampling_matrix(el.geometry, el.order, new_order)
        new_coords = (B @ el.coords.T).T.copy()
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
    edge's governing order (``edge_orders``), then element-interior nodes in
    element order.  The element node blocks are concatenated in element
    order.  For each (geometry, order) group of ``groups`` (the mesh's
    ``groups()``), ``slots[key]`` and ``node_ids[key]`` are (E_g, n) arrays
    over the group's elements: the position of each element node in that
    concatenation, and the independent node it reads directly (-1 for a
    constrained edge node).  ``expand`` is a sparse matrix taking a per-node
    vector (or (n, k) stack) to the concatenation, applying trace
    interpolation on constrained high-order edge nodes.  ``read_slots``
    gives, for each non-vertex node, the slot of the concatenation it is
    read from: its first directly mapped slot, which for an edge node is the
    lowest element id at the edge's governing order.

    The build is a few array operations per group and per local edge,
    reading the mesh's element-vertex, element-edge and edge-element arrays;
    no loop runs over elements.
    """

    def __init__(self, mesh: MixedOrderMesh):
        self.groups = mesh.groups()
        refs = {key: reference_element(*key) for key in self.groups}
        nv = len(mesh.vertices)
        self.num_vertices = nv
        num_el = len(mesh.elements)
        orders = np.empty(num_el, dtype=int)
        sizes = np.empty(num_el, dtype=int)
        inner = np.empty(num_el, dtype=int)
        for key, ids in self.groups.items():
            orders[ids] = key[1]
            sizes[ids] = refs[key].num_nodes
            inner[ids] = len(refs[key].interior)
        # the missing side (-1) of a boundary edge reads the appended maximum
        self.edge_orders = np.append(orders, np.iinfo(int).max)[
            mesh.edge_element_ids].min(axis=1)
        edge_counts = self.edge_orders - 1
        self.edge_offsets = nv + np.cumsum(edge_counts) - edge_counts
        first_interior = nv + int(edge_counts.sum())
        self.num_nodes = first_interior + int(inner.sum())
        self.total_local = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        interior_starts = first_interior + np.cumsum(inner) - inner

        self.slots: dict[tuple[str, int], np.ndarray] = {}
        self.node_ids: dict[tuple[str, int], np.ndarray] = {}
        # expand entries: direct (slot, node) pairs, then interpolated ones
        empty = np.zeros(0, dtype=int)
        direct_slots, direct_nodes = [empty], [empty]
        rows, cols, vals = [empty], [empty], [np.zeros(0)]
        for key, ids in self.groups.items():
            ref, p = refs[key], key[1]
            nverts = len(ref.corners)
            slots = starts[ids, None] + np.arange(ref.num_nodes)
            node = np.full(slots.shape, -1)
            V = mesh.element_vertex_ids[ids, :nverts]
            node[:, ref.corners] = V
            node[:, ref.interior] = interior_starts[ids, None] \
                + np.arange(len(ref.interior))
            # per (element, local edge): its ends a and b, edge id, governing
            # order, first edge node id, the element's row in the group and
            # its p + 1 local edge nodes from the smaller to the larger
            # vertex id
            a, b = V, np.roll(V, -1, axis=1)
            k = mesh.element_edge_ids[ids, :nverts]
            p_edge, o = self.edge_orders[k], self.edge_offsets[k]
            enodes = np.array(ref.edge_nodes)
            canonical = np.where((a < b)[..., None], enodes, enodes[:, ::-1])
            member = np.broadcast_to(np.arange(len(ids))[:, None], k.shape)
            same = p_edge == p
            node[member[same][:, None], canonical[same][:, 1:-1]] = \
                o[same][:, None] + np.arange(p - 1)
            for p_low in range(1, p):
                # edge nodes interpolated from the order p_low trace
                low = p_edge == p_low
                if not low.any():
                    continue
                trace = np.column_stack(
                    [np.minimum(a, b)[low],
                     o[low][:, None] + np.arange(p_low - 1),
                     np.maximum(a, b)[low]])
                dest = slots[member[low][:, None], canonical[low][:, 1:-1]]
                P = interpolation_matrix(p_low, p)[1:-1]
                rows.append(np.repeat(dest.ravel(), p_low + 1))
                cols.append(np.tile(trace, p - 1).ravel())
                vals.append(np.tile(P.ravel(), len(trace)))
            mapped = node >= 0
            direct_slots.append(slots[mapped])
            direct_nodes.append(node[mapped])
            slots.flags.writeable = False
            node.flags.writeable = False
            self.slots[key] = slots
            self.node_ids[key] = node
        direct_slots = np.concatenate(direct_slots)
        direct_nodes = np.concatenate(direct_nodes)
        self.expand = sp.csr_matrix(
            (np.concatenate([np.ones(direct_slots.size), *vals]),
             (np.concatenate([direct_slots, *rows]),
              np.concatenate([direct_nodes, *cols]))),
            shape=(self.total_local, self.num_nodes))
        read = np.full(self.num_nodes, self.total_local)
        np.minimum.at(read, direct_nodes, direct_slots)
        self.read_slots = read[nv:]

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
        for key, ids in self.groups.items():
            for e, x in zip(ids, x_all[self.slots[key]]):
                mesh.elements[e].coords[:] = x.T

    def scatter_scalar(self, t: np.ndarray) -> list[np.ndarray]:
        """Per-element blocks of a scalar field given independent nodal values."""
        x_all = self.expand @ t
        out = [None] * sum(len(ids) for ids in self.groups.values())
        for key, ids in self.groups.items():
            for e, x in zip(ids, x_all[self.slots[key]]):
                out[e] = x
        return out

    def edge_node_ids(self, edge_id: int, mesh: MixedOrderMesh) -> np.ndarray:
        """Independent node ids along an edge in canonical order, endpoints included."""
        vmin, vmax = mesh.edges[edge_id].verts
        o = self.edge_offsets[edge_id]
        cnt = self.edge_orders[edge_id] - 1
        return np.array([vmin] + list(range(o, o + cnt)) + [vmax], dtype=int)

    def marked_node_ids(self, mesh: MixedOrderMesh, faces=None) -> np.ndarray:
        """Sorted independent node ids lying on ``faces`` (default: the
        marked face set)."""
        ids: set[int] = set()
        for k in mesh.marked_faces if faces is None else faces:
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
    dets = []
    for key, X in stacks:
        T00, T01, T10, T11 = jacobian_components(
            map_jacobians(X, validity_table(*key)))
        dets.append((T00 * T11 - T01 * T10).min(axis=1))
    return dets


def min_det_of(stacks) -> float:
    """Smallest determinant of ``element_min_dets(stacks)``; inf for none,
    NaN when any determinant is NaN, so that a ``> 0.0`` check fails."""
    return float(np.min([np.inf] + [d.min() for d in element_min_dets(stacks)]))


def require_valid(mesh: MixedOrderMesh, context: str = "operation"):
    md = mesh.min_det()
    if not md > 0.0:
        raise MeshInvalidError(
            f"{context} requires a non-inverted mesh (min det = {md:.3e})")

