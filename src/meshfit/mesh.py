"""2D meshes with per-element polynomial orders and hanging-order edge constraints.

Element node coordinates are stored per element as a (2, num_nodes) block.
Independent ("true") position unknowns live at mesh vertices, on edge
interiors at the edge's governing order (the minimum of the two adjacent
element orders), and inside elements.  On a mixed-order edge the high-order
side carries no independent edge unknowns: its edge nodes are interpolated
from the low-order side's trace, which keeps the geometry continuous across
the edge.

A mesh state is described by tables, each built once by the object that
owns it.  The mesh owns the edge table (``_build_edges``), arrays only,
which depends on the vertex lists alone, and the element groups by
(geometry, order) (``groups()``).  The ``DofMap`` owns the node numbering
and is the one place that decides the side an edge trace is read from.
The groups and the DofMap are dropped by ``set_order`` when an element's
order changes and rebuilt on their next use.  ``lowering_min_det`` tells
whether lowering some elements would keep the mesh valid without changing
it: it rebuilds only the node blocks that the lowering and the constraint
pass after it would touch, by the DofMap's owner rule.  The
tables of an element kind depend on no mesh: ``basis.reference_element``
and ``basis.basis_tables`` build them once per (geometry, order).

One kernel (``map_jacobians``, ``jacobian_components``, ``jacobian_det``,
``cofactors``) gives every map Jacobian that the quality metric, the
validity check, the point locator and a discrete field's gradient read.
``check_node_blocks`` is the one rule for a nodal scalar field on a mesh.
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


def map_jacobians(X: np.ndarray, Gf: np.ndarray) -> np.ndarray:
    """T[e, a, q, c] = sum_i X[e, i, a] G[q, i, c] as one batched product.

    X holds per-element node coordinates (E, n, 2) and Gf the
    ``basis.jacobian_table`` (n, 2Q) of basis gradients G (Q, n, 2), or a
    table (E, n, 2Q) per element, such as the gradients (E, n, 2) at one
    point each.  T is the (E, 2, Q, 2) product as the GEMM leaves it: the map
    Jacobian of element e at point q is T[e, :, q, :].  Routing the
    contraction through matmul keeps the inner loops in BLAS, which matters
    because this runs once per objective, gradient and Hessian evaluation.
    """
    n_el, nq = X.shape[0], Gf.shape[-1] // 2
    return (X.transpose(0, 2, 1) @ Gf).reshape(n_el, 2, nq, 2)


def jacobian_components(T: np.ndarray):
    """The contiguous (E, Q) components (T00, T01, T10, T11) of a
    ``map_jacobians`` product, from one copy."""
    C = np.ascontiguousarray(T.transpose(1, 3, 0, 2))
    return C[0, 0], C[0, 1], C[1, 0], C[1, 1]


def jacobian_det(T):
    """det T from the components (T00, T01, T10, T11) of T."""
    T00, T01, T10, T11 = T
    return T00 * T11 - T01 * T10


def cofactors(T):
    """Components (C00, C01, C10, C11) of the cofactors C = d(det T)/dT from
    those of T; T^{-1} = C^T / det T."""
    T00, T01, T10, T11 = T
    return T11, -T10, -T01, T00


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
        """Id of the edge between vertices v0 and v1, given in either order."""
        lo, hi = self.edge_vertex_ids.T
        hit = np.flatnonzero((lo == min(v0, v1)) & (hi == max(v0, v1)))
        if not hit.size:
            raise MeshStructureError(f"no edge between vertices {v0} and {v1}")
        return int(hit[0])

    def _build_edges(self):
        """The edge table and the incidence arrays, from one ``np.unique``
        over the (smaller, larger) vertex-pair keys of all local edges; raises
        ``MeshStructureError`` on a degenerate, over-shared or inconsistently
        oriented edge.  Edge ids follow first appearance in element order,
        and the sides of an edge are in element order."""
        nverts = np.array([len(el.verts) for el in self.elements], dtype=int)
        # local edge i runs from vertex a[i] to b[i] in element element[i]
        a = np.concatenate([np.zeros(0, dtype=int),
                            *(el.verts for el in self.elements)])
        starts = np.cumsum(nverts) - nverts
        element = np.repeat(np.arange(len(nverts)), nverts)
        i = np.arange(len(a))
        local = i - starts[element]
        b = a[np.where(local + 1 < nverts[element], i + 1, starts[element])]
        degenerate = np.flatnonzero(a == b)
        if degenerate.size:
            raise MeshStructureError(
                f"element {element[degenerate[0]]} has a degenerate edge")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inverse, counts = np.unique(
            lo * len(self.vertices) + hi, return_index=True,
            return_inverse=True, return_counts=True)
        by_id = np.argsort(first)  # edge ids follow first appearance
        first, counts = first[by_id], counts[by_id]
        edge = np.argsort(by_id)[inverse]
        # a local edge that is not its edge's first is the second side, or
        # the third or later of an edge that fails the check below
        later = first[edge] != i
        same_way = np.zeros(len(first), dtype=bool)
        forward = a < b
        same_way[edge[later]] = forward[later] == forward[first[edge[later]]]
        ends = np.stack([lo[first], hi[first]], axis=1)
        bad = np.flatnonzero((counts > 2) | same_way)
        if bad.size:
            k = bad[0]
            what = (f"is shared by {counts[k]} elements" if counts[k] > 2 else
                    "is traversed in the same direction by both elements; "
                    "element orientations are inconsistent")
            raise MeshStructureError(f"edge {tuple(ends[k].tolist())} {what}")
        verts = np.full((len(nverts), nverts.max(initial=0)), -1)
        own = np.full(verts.shape, -1)
        sides = np.full((len(first), 2), -1)
        verts[element, local] = a
        own[element, local] = edge
        sides[:, 0] = element[first]
        sides[edge[later], 1] = element[later]
        for t in (verts, own, sides, ends):
            t.flags.writeable = False
        #: (num edges, 2) smaller and larger vertex id of each edge
        self.edge_vertex_ids = ends
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

    # -- geometry evaluation ----------------------------------------------

    def eval_map(self, e: int, ref_points) -> np.ndarray:
        """Physical image of reference points under element ``e``'s map, (npts, 2)."""
        el = self.elements[e]
        B = reference_element(el.geometry, el.order).eval_basis(ref_points)
        return B @ el.coords.T

    def groups(self) -> dict[tuple[str, int], np.ndarray]:
        """Ascending element ids per (geometry, order), keys sorted, for
        batched evaluation.  Cached until the next ``set_order``."""
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

    def diameter(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    # -- mutation ----------------------------------------------------------

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
        # drop the tables that depend on element orders
        self._groups = None
        self._dofmap = None

    def copy(self) -> "MixedOrderMesh":
        return MixedOrderMesh(self.vertices.copy(),
                              [el.copy() for el in self.elements],
                              set(self.marked_faces))

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
        """The number of elements of each order, by ascending order."""
        orders, counts = np.unique(self.orders(), return_counts=True)
        return dict(zip(orders.tolist(), counts.tolist()))


class DofMap:
    """Mapping between independent position nodes and element node blocks.

    Node numbering: vertices first, then edge-interior nodes per edge at the
    edge's governing order (``edge_orders``), then element-interior nodes in
    element order.  Row k of ``edge_nodes`` holds the p + 1 independent
    nodes of edge k at its governing order p, from its smaller to its larger
    vertex id, padded with -1 to the largest edge order + 1.  The element
    node blocks are concatenated in element order.  For each (geometry,
    order) group of ``groups`` (the mesh's ``groups()``), ``slots[key]`` and
    ``node_ids[key]`` are (E_g, n) arrays over the group's elements: the
    position of each element node in that concatenation, and the independent
    node it reads directly (-1 for a constrained edge node).  ``expand`` is
    a sparse matrix taking a per-node vector (or (n, k) stack) to the
    concatenation, applying trace interpolation on constrained high-order
    edge nodes.  ``read_slots`` gives, for each non-vertex node, the slot of
    the concatenation it is read from: its first directly mapped slot, which
    for an edge node is the lowest element id at the edge's governing order.
    So the trace of edge k at order p is
    ``extract(mesh)[edge_nodes[k, :p + 1]]``.

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
        offsets = nv + np.cumsum(edge_counts) - edge_counts
        first_interior = nv + int(edge_counts.sum())
        column = np.arange(self.edge_orders.max(initial=1) + 1)
        edge_nodes = np.where(column < self.edge_orders[:, None],
                              offsets[:, None] + column - 1, -1)
        edge_nodes[:, 0] = mesh.edge_vertex_ids[:, 0]
        edge_nodes[np.arange(len(edge_nodes)), self.edge_orders] = \
            mesh.edge_vertex_ids[:, 1]
        edge_nodes.flags.writeable = False
        self.edge_nodes = edge_nodes
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
            # per (element, local edge): edge id, governing order, the
            # element's row in the group and its p + 1 local edge nodes from
            # the smaller to the larger vertex id
            k = mesh.element_edge_ids[ids, :nverts]
            p_edge = self.edge_orders[k]
            enodes = np.array(ref.edge_nodes)
            canonical = np.where((V < np.roll(V, -1, axis=1))[..., None],
                                 enodes, enodes[:, ::-1])
            member = np.broadcast_to(np.arange(len(ids))[:, None], k.shape)
            same = p_edge == p
            node[member[same][:, None], canonical[same][:, 1:-1]] = \
                edge_nodes[k[same], 1:p]
            for p_low in range(1, p):
                # edge nodes interpolated from the order p_low trace
                low = p_edge == p_low
                if not low.any():
                    continue
                trace = edge_nodes[k[low], :p_low + 1]
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

    def marked_node_ids(self, mesh: MixedOrderMesh) -> np.ndarray:
        """Sorted independent node ids lying on the marked faces."""
        rows = self.edge_nodes[np.fromiter(mesh.marked_faces, dtype=int)]
        return np.unique(rows[rows >= 0])


def check_node_blocks(mesh: MixedOrderMesh, blocks) -> list[np.ndarray]:
    """A nodal scalar field as float arrays, one per element; raises
    ``ValueError`` unless there is one finite block per element holding a
    value per node of that element."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if len(blocks) != len(mesh.elements):
        raise ValueError("one scalar block per element required")
    for e, (el, b) in enumerate(zip(mesh.elements, blocks)):
        n = reference_element(el.geometry, el.order).num_nodes
        if b.shape != (n,):
            raise ValueError(f"block {e} has shape {b.shape}, expected ({n},)")
    if blocks and not np.isfinite(np.concatenate(blocks)).all():
        raise ValueError("non-finite scalar value")
    return blocks


def apply_edge_constraints(mesh: MixedOrderMesh) -> MixedOrderMesh:
    """Overwrite dependent edge nodes from the governing low-order traces.

    Idempotent; a conforming equal-order mesh with consistent shared values is
    returned unchanged.
    """
    dm = mesh.dof_map()
    dm.scatter(mesh, dm.extract(mesh))
    return mesh


def element_min_dets(stacks) -> list[np.ndarray]:
    """Per-element minimum map determinant over the validity sample set
    (``BasisTables.validity``).

    ``stacks`` yields (key, X) pairs: a (geometry, order) key and the
    (E, n, 2) node coordinates of E elements with that key.  Returns one
    length-E array per pair.
    """
    dets = []
    for key, X in stacks:
        dets.append(jacobian_det(jacobian_components(
            map_jacobians(X, basis_tables(*key).validity))).min(axis=1))
    return dets


def min_det_of(stacks) -> float:
    """Smallest determinant of ``element_min_dets(stacks)``; inf for none,
    NaN when any determinant is NaN, so that a ``> 0.0`` check fails."""
    return float(np.min([np.inf] + [d.min() for d in element_min_dets(stacks)]))


def _edge_local_nodes(mesh: MixedOrderMesh, e: int, k: int,
                      order: int) -> np.ndarray:
    """Local node indices of edge ``k`` in element ``e`` at ``order``, from
    the edge's smaller to its larger vertex id."""
    el = mesh.elements[e]
    le = int(np.flatnonzero(mesh.element_edge_ids[e] == k)[0])
    nodes = reference_element(el.geometry, order).edge_nodes[le]
    a, b = el.verts[le], el.verts[(le + 1) % len(el.verts)]
    return nodes if a < b else nodes[::-1]


def lowering_min_det(mesh: MixedOrderMesh, lowered, order: int) -> float:
    """``min_det`` of the elements in ``lowered`` and their edge neighbors
    after ``set_order(e, order)`` for each e in ``lowered`` and one
    ``apply_edge_constraints``, computed without changing the mesh.

    Only the node blocks that sequence writes are rebuilt: each lowered
    element is resampled and takes the vertices at its corners, and on each
    interior edge of a lowered element the side that does not own the trace
    rewrites its edge nodes from it.  The owner rule is the DofMap's: the governing
    order is the lower side's, and the trace is the lowest-id side at that
    order; an equal-order side copies it and a higher-order side
    interpolates it.  The other blocks hold as they are when the mesh
    satisfies its edge constraints.  The blocks agree with the applied
    sequence up to rounding, not bit for bit.
    """
    orders = mesh.orders()
    orders[lowered] = order
    blocks = {}   # element id -> (n, 2) node block
    for e in lowered:
        el = mesh.elements[e]
        X = resampling_matrix(el.geometry, el.order, order) @ el.coords.T
        X[reference_element(el.geometry, order).corners] = \
            mesh.vertices[el.verts]
        blocks[e] = X
    touched = set(lowered)
    edges = np.unique(mesh.element_edge_ids[lowered])
    for k in edges[edges >= 0].tolist():
        sides = mesh.edge_element_ids[k]
        if sides[1] < 0:
            continue   # a boundary edge's one side owns its trace
        touched.update(sides.tolist())
        governing = int(orders[sides].min())
        owner, other = sides.tolist() if orders[sides[0]] == governing \
            else sides[::-1].tolist()
        X = blocks[owner] if owner in blocks else mesh.elements[owner].coords.T
        trace = X[_edge_local_nodes(mesh, owner, k, governing)]
        p = int(orders[other])
        if other not in blocks:
            blocks[other] = mesh.elements[other].coords.T.copy()
        inner = _edge_local_nodes(mesh, other, k, p)[1:-1]
        blocks[other][inner] = trace[1:-1] if p == governing else \
            interpolation_matrix(governing, p)[1:-1] @ trace
    stacks: dict[tuple[str, int], list[np.ndarray]] = {}
    for e in sorted(touched):
        stacks.setdefault((mesh.elements[e].geometry, int(orders[e])), []) \
            .append(blocks[e] if e in blocks else mesh.elements[e].coords.T)
    return min_det_of((key, np.stack(X)) for key, X in stacks.items())


def require_valid(mesh: MixedOrderMesh, context: str = "operation"):
    md = mesh.min_det()
    if not md > 0.0:
        raise MeshInvalidError(
            f"{context} requires a non-inverted mesh (min det = {md:.3e})")

