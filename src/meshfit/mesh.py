"""2D meshes with per-element polynomial orders and hanging-order edge constraints.

A mesh has one element state and one position state.  The element state is
a set of arrays with one entry per element: its geometry, order and
attribute, and its vertex ids (``element_vertex_ids``).  ``set_order`` and
``set_attributes`` are their only writers, and ``elements`` gives read-only
``MeshElement`` records of them, built at the first read after a change.
The position state, ``nodes``, holds the independent ("true") positions in
``DofMap`` numbering, whose first rows are ``vertices``.  They live at
vertices, on edge interiors at the edge's governing order (the lower of its
two element orders) and inside elements.  On a mixed-order edge the
high-order side interpolates its edge nodes from the low-order side's
trace, which keeps the geometry continuous; ``edge_owners`` is the one rule
for the side a trace is read from.  The element blocks derive from the
nodes: one cached ``DofMap.expand @ nodes`` array, of which each record's
``coords`` is a read-only view and ``group_coords`` takes whole groups.
``set_nodes`` is the one writer.  The constructor and ``set_order`` read
the nodes from a block array by the owner rule (``apply_edge_constraints``),
so a dependent edge node takes its owner's trace.

Each table is built once by its owner.  The constructor reads its input
elements once, checks them once per set of alike elements and builds the
edge table (``_build_edges``).  The mesh groups the elements by
(geometry, order) from its arrays (``groups()``), the ``DofMap`` numbers the
nodes, and ``basis`` holds the tables and the rule of an element kind.
``set_order`` changes a batch of orders, then regroups and rebuilds the
DofMap and the nodes.

One kernel (``map_jacobians``, ``jacobian_components``, ``jacobian_det``,
``cofactors``) gives every map Jacobian that the quality metric, the
validity check, the point locator and a discrete field's gradient read.
``check_node_blocks`` is the one rule for a nodal scalar field on a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .basis import (basis_tables, check_kind, kind_fault, lagrange_1d,
                    reference_element, _gauss_lobatto_cached)
from .errors import MeshInvalidError, MeshStructureError


@dataclass(frozen=True)
class MeshElement:
    """One element: an input of ``MixedOrderMesh``, or a read-only record of
    its ``elements``."""
    geometry: str
    verts: np.ndarray        # vertex ids, counterclockwise
    order: int
    coords: np.ndarray       # (2, num_nodes); in a mesh, a read-only view
    attribute: int = 1


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
    """Mesh of quads or triangles with an independent order per element.
    The constructor reads its input elements once and keeps none of them,
    nor any of the caller's arrays."""

    def __init__(self, vertices, elements, marked_faces=()):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshStructureError("vertices must be an (n, 2) array")
        self._read_elements(elements)
        self.marked_faces: set[int] = set(marked_faces)
        self._read_nodes()

    # -- connectivity -----------------------------------------------------

    def _read_elements(self, elements):
        """Read the input elements in one pass into the element arrays, the
        block array and the edge table (``_build_edges``).  Raises
        ``MeshStructureError`` for the first bad element, naming its first
        fault of: unknown vertices, kind (``basis.kind_fault``), vertex count
        and node-block shape, checked at once for the elements alike in all
        of these and in the type of their order; then for the first bad
        attribute (``set_attributes``)."""
        rows = [(el.geometry, el.order, np.asarray(el.verts, dtype=int),
                 np.asarray(el.coords, dtype=float), el.attribute)
                for el in elements]
        geometry, orders, verts, coords, attributes = \
            zip(*rows) if rows else [()] * 5
        counts = np.array([len(v) for v in verts], dtype=int)
        ids = np.concatenate([np.zeros(0, dtype=int), *verts])
        unknown = np.bincount(np.repeat(np.arange(len(counts)), counts),
                              (ids < 0) | (ids >= len(self.vertices)),
                              len(counts)) > 0
        keys = list(zip(geometry, orders, map(type, orders), counts.tolist(),
                        (c.shape for c in coords), unknown.tolist()))
        faults = []
        for key in dict.fromkeys(keys):   # each set of alike elements once
            g, p, _, count, shape, off = key
            fault = kind_fault(g, p)
            if not fault:
                ref = reference_element(g, p)
                if count != len(ref.corners):
                    fault = f"{count} vertices, a {g} has {len(ref.corners)}"
                elif shape != (2, ref.num_nodes):
                    fault = f"coords {shape}, expected (2, {ref.num_nodes})"
            if off or fault:
                faults.append((keys.index(key), "references an unknown vertex"
                               if off else f"has {fault}"))
        if faults:
            e, what = min(faults)
            raise MeshStructureError(f"element {e} {what}")
        self._geometry = np.array(geometry, dtype=str)
        self._orders = np.array(orders, dtype=int)
        self.set_attributes(attributes)
        # element e's block is columns _bounds[e]:_bounds[e + 1] of _blocks
        self._blocks = np.concatenate([np.zeros((2, 0)), *coords], axis=1)
        self._bounds = np.cumsum([0, *(c.shape[1] for c in coords)])
        self._build_edges(ids, counts)

    def edge_ids(self, pairs) -> list[int]:
        """Ids of the edges between the (k, 2) vertex pairs, each in either
        order; raises ``MeshStructureError`` for the first pair that shares
        no edge."""
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        lo, hi, nv = pairs.min(axis=1), pairs.max(axis=1), len(self.vertices)
        keys = np.where((lo >= 0) & (hi < nv), lo * nv + hi, -1)
        at = np.searchsorted(self._edge_keys, keys)
        missing = np.flatnonzero(self._edge_keys[at] != keys)
        if missing.size:
            v0, v1 = pairs[missing[0]].tolist()
            raise MeshStructureError(f"no edge between vertices {v0} and {v1}")
        return self._edge_key_ids[at].tolist()

    def _build_edges(self, a: np.ndarray, nverts: np.ndarray):
        """The edge table and the incidence arrays, from the elements'
        concatenated vertex ids ``a``, ``nverts`` per element, by one
        ``np.unique`` over the (smaller, larger) vertex-pair keys of all
        local edges; raises ``MeshStructureError`` on a degenerate,
        over-shared or inconsistently oriented edge.  Edge ids follow first
        appearance in element order, and the sides of an edge are in element
        order."""
        # local edge i runs from vertex a[i] to b[i] in element element[i]
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
        keys, first, inverse, counts = np.unique(
            lo * len(self.vertices) + hi, return_index=True,
            return_inverse=True, return_counts=True)
        by_id = np.argsort(first)  # edge ids follow first appearance
        first, counts = first[by_id], counts[by_id]
        key_ids = np.argsort(by_id)  # edge id of each sorted key
        edge = key_ids[inverse]
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
        runs_up = np.zeros(verts.shape, dtype=bool)
        verts[element, local], own[element, local] = a, edge
        runs_up[element, local] = forward
        sides = np.full((len(first), 2), -1)
        side_local = np.full(sides.shape, -1)
        sides[:, 0], side_local[:, 0] = element[first], local[first]
        sides[edge[later], 1] = element[later]
        side_local[edge[later], 1] = local[later]
        for t in (verts, own, runs_up, sides, side_local, ends):
            t.flags.writeable = False
        #: (num edges, 2) smaller and larger vertex id of each edge
        self.edge_vertex_ids = ends
        #: (E, max vertices) per local edge of each element: its first vertex
        #: id, its edge id and whether it runs from the smaller to the larger
        #: vertex id; padded with -1 (False)
        self.element_vertex_ids, self.element_edge_ids = verts, own
        self.element_edge_forward = runs_up
        #: (num edges, 2) per side of each edge, in element order: its element
        #: and its local edge; -1 for the missing side of a boundary edge
        self.edge_element_ids, self.edge_local_ids = sides, side_local
        # the sorted vertex-pair keys lo * num vertices + hi, closed by a
        # sentinel no pair reaches, and the edge id of each key
        self._edge_keys = np.append(keys, np.iinfo(int).max)
        self._edge_key_ids = key_ids

    def boundary_edges(self) -> list[int]:
        return np.flatnonzero(self.edge_element_ids[:, 1] < 0).tolist()

    def orders(self) -> np.ndarray:
        """The order of each element, as a new int array."""
        return self._orders.copy()

    @property
    def elements(self) -> tuple[MeshElement, ...]:
        """One read-only record per element, built at the first read after
        the orders or attributes change: its ``verts`` and ``coords`` are
        read-only views of ``element_vertex_ids`` and of the element blocks,
        which ``set_nodes`` updates in place."""
        if self._elements is None:
            blocks = self._blocks.view()
            blocks.flags.writeable = False
            ends = self._bounds.tolist()
            counts = (self.element_vertex_ids >= 0).sum(axis=1).tolist()
            self._elements = tuple(map(
                MeshElement, self._geometry.tolist(),
                [v[:n] for v, n in zip(self.element_vertex_ids, counts)],
                self._orders.tolist(),
                [blocks[:, s:t] for s, t in zip(ends, ends[1:])],
                self.attributes.tolist()))
        return self._elements

    def set_attributes(self, values):
        """Make ``values``, one integer other than a bool per element (numpy
        integers included), the attributes.  Raises ``ValueError`` unless
        there is one value per element, and ``MeshStructureError`` naming the
        first element whose value is no such integer; changes nothing then."""
        values = list(values)
        if len(values) != len(self._orders):
            raise ValueError(f"{len(values)} attributes for "
                             f"{len(self._orders)} elements")
        bad = {t for t in set(map(type, values))
               if not issubclass(t, Integral) or issubclass(t, bool)}
        for e, value in enumerate(values if bad else ()):
            if type(value) in bad:
                raise MeshStructureError(f"element {e} has attribute "
                                         f"{value!r}, expected an integer")
        self.attributes = np.array(values, dtype=int)
        self.attributes.flags.writeable = False
        self._elements = None

    # -- geometry evaluation ----------------------------------------------

    def _block(self, e: int) -> np.ndarray:
        """Element ``e``'s (2, num_nodes) slice of the block array."""
        return self._blocks[:, self._bounds.item(e):self._bounds.item(e + 1)]

    def eval_map(self, e: int, ref_points) -> np.ndarray:
        """Physical image of reference points under element ``e``'s map, (npts, 2)."""
        B = reference_element(self._geometry.item(e),
                              self._orders.item(e)).eval_basis(ref_points)
        return B @ self._block(e).T

    def groups(self) -> dict[tuple[str, int], np.ndarray]:
        """Ascending element ids per (geometry, order), keys sorted, for
        batched evaluation."""
        return self._groups

    def group_coords(self, key) -> np.ndarray:
        """Node coordinates of the elements of one ``groups()`` key, an
        (E_g, num_nodes, 2) stack laid out as the elements' ``coords.T``."""
        X = self._blocks[:, self._dofmap.slots[key]]
        return np.ascontiguousarray(X.transpose(1, 0, 2)).transpose(0, 2, 1)

    def min_det(self) -> float:
        """Minimum Jacobian determinant of the elements at validity samples."""
        return min_det_of((key, self.group_coords(key)) for key in self._groups)

    def diameter(self) -> float:
        return float(np.hypot(*np.ptp(self.vertices, axis=0)))

    # -- the node state ----------------------------------------------------

    def _read_nodes(self):
        """Group the elements by the geometry and order arrays, build the
        DofMap, read the nodes from the block array by the owner rule and
        make the block array ``expand @ nodes``."""
        keys = sorted(set(zip(self._geometry.tolist(), self._orders.tolist())))
        self._groups = {(g, p): np.flatnonzero((self._geometry == g)
                                               & (self._orders == p))
                        for g, p in keys}
        self._dofmap = dm = DofMap(self)
        self._nodes = apply_edge_constraints(self)
        self.nodes = self._nodes.view()
        self.nodes.flags.writeable = False
        self.vertices = self.nodes[:dm.num_vertices]
        # (2, total_local), so that each element's block is row-major
        self._blocks = np.ascontiguousarray((dm.expand @ self._nodes).T)
        self._elements = None

    def set_nodes(self, t):
        """Make ``t`` the node positions; every element block follows.
        Raises ``ValueError`` unless it has the shape of ``nodes``."""
        t = np.asarray(t, dtype=float)
        if t.shape != self._nodes.shape:
            raise ValueError(f"nodes of shape {t.shape}, expected "
                             f"{self._nodes.shape}")
        self._nodes[:] = t
        self._blocks[:] = (self._dofmap.expand @ self._nodes).T

    def set_order(self, ids, orders):
        """Resample the elements ``ids`` (one id or several) at ``orders``
        (one for all, or one per id; ``resampled_block``), then regroup and
        rebuild the DofMap and the state, read by the owner rule.  Raises
        ``MeshStructureError``, and changes nothing, naming the first id that
        is no integer in 0..E-1 (a bool is none; numpy integers are) or whose
        new order makes no kind with its geometry (``basis.check_kind``)."""
        ids = np.atleast_1d(np.array(ids, dtype=object)).tolist()
        orders = np.broadcast_to(np.array(orders, dtype=object),
                                 len(ids)).tolist()
        geometry, current = self._geometry.tolist(), self._orders.tolist()
        kinds = set()   # the (geometry, int order) kinds checked so far
        for e, p in zip(ids, orders):
            if not (isinstance(e, Integral) and not isinstance(e, bool)
                    and 0 <= e < len(current)):
                raise MeshStructureError(f"element id {e!r} is not an "
                                         f"integer in 0..{len(current) - 1}")
            if type(p) is not int or (geometry[e], p) not in kinds:
                check_kind(geometry[e], p, f"element {e}")
                kinds.add((geometry[e], p))
        changed = {e: int(p) for e, p in zip(ids, orders) if p != current[e]}
        if not changed:
            return
        # the blocks of the changed elements, resampled per (geometry, old
        # order, new order); the others keep theirs, moved to the new bounds
        by_kind: dict[tuple[str, int, int], list[int]] = {}
        for e, p in changed.items():
            by_kind.setdefault((geometry[e], current[e], p), []).append(e)
        stacks = [(ids, resampled_blocks(self, ids, p))
                  for (_, _, p), ids in by_kind.items()]
        sizes = np.diff(self._bounds)
        for ids, X in stacks:
            sizes[ids] = X.shape[1]
        bounds = np.zeros(len(sizes) + 1, dtype=int)
        np.cumsum(sizes, out=bounds[1:])
        shift = np.repeat(self._bounds[:-1] - bounds[:-1], sizes)
        blocks = np.take(self._blocks, np.arange(bounds[-1]) + shift, axis=1,
                         mode="clip")
        for ids, X in stacks:
            blocks[:, bounds[ids, None] + np.arange(X.shape[1])] = \
                X.transpose(2, 0, 1)
        self._blocks, self._bounds = blocks, bounds
        self._orders[list(changed)] = list(changed.values())
        self._read_nodes()

    def copy(self) -> "MixedOrderMesh":
        """An independent mesh of the same state."""
        return MixedOrderMesh(self.vertices, self.elements, self.marked_faces)

    # -- degrees of freedom -----------------------------------------------

    def dof_map(self) -> "DofMap":
        return self._dofmap

    @property
    def num_position_dofs(self) -> int:
        """Number of independent position nodes (vertices + edge + interior)."""
        return self._dofmap.num_nodes

    def order_histogram(self) -> dict[int, int]:
        """The number of elements of each order, by ascending order."""
        orders, counts = np.unique(self.orders(), return_counts=True)
        return dict(zip(orders.tolist(), counts.tolist()))


def edge_owners(mesh: MixedOrderMesh, orders) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for the element that owns an edge's trace, at
    per-element ``orders``: per edge, its governing order (the lower side's)
    and its owner, the lowest element id at that order."""
    sides = mesh.edge_element_ids
    # the missing side (-1) of a boundary edge reads the appended maximum
    at = np.append(np.asarray(orders, dtype=int), np.iinfo(int).max)[sides]
    governing = at.min(axis=1)
    # the sides of an edge are in element order
    return governing, np.where(at[:, 0] == governing, sides[:, 0], sides[:, 1])


class DofMap:
    """Mapping between the independent position nodes and the element
    node blocks, concatenated in element order.

    Node numbering: vertices, then edge-interior nodes per edge at its
    governing order (``edge_orders``), then element-interior nodes in
    element order.  Row k of ``edge_nodes`` holds the p + 1 nodes of edge k
    at its governing order p, smaller vertex id first, padded with -1.  Per
    (geometry, order) group of ``mesh.groups()``, ``slots[key]`` and
    ``node_ids[key]`` (E_g, n) give each element node's position in the
    concatenation and the node it reads directly (-1 for a constrained edge
    node).  ``expand`` takes a per-node array to the concatenation,
    interpolating constrained edge nodes from their traces, and
    ``expand_T`` is its CSR transpose; scipy builds both from
    (slot, node, weight) triplets.  ``read_slots`` gives each
    non-vertex node's slot in its element, or in its edge's owner
    (``edge_owners``).  The build runs array operations per group and local
    edge; no loop runs over elements.
    """

    def __init__(self, mesh: MixedOrderMesh):
        groups = mesh.groups()
        refs = {key: reference_element(*key) for key in groups}
        self.num_vertices = nv = len(mesh.vertices)
        orders = mesh.orders()
        inner = np.empty(len(orders), dtype=int)
        for key, ids in groups.items():
            inner[ids] = len(refs[key].interior)
        self.edge_orders, owner = edge_owners(mesh, orders)
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
        starts, self.total_local = mesh._bounds[:-1], int(mesh._bounds[-1])
        interior_starts = first_interior + np.cumsum(inner) - inner

        self.slots: dict[tuple[str, int], np.ndarray] = {}
        self.node_ids: dict[tuple[str, int], np.ndarray] = {}
        read = np.empty(self.num_nodes - nv, dtype=int)
        # node[s] is the node that slot s reads directly, -1 for an
        # interpolated edge node, whose row of expand holds the p_low + 1
        # (slot, trace node, weight) triplets of its trace
        node = np.full(self.total_local, -1)
        rows, cols, weights = [], [], []
        for key, ids in groups.items():
            ref, p = refs[key], key[1]
            nverts = len(ref.corners)
            slots = starts[ids, None] + np.arange(ref.num_nodes)
            node[slots[:, ref.corners]] = mesh.element_vertex_ids[ids, :nverts]
            inside = slots[:, ref.interior]
            interior = interior_starts[ids, None] + np.arange(len(ref.interior))
            node[inside] = interior
            read[interior - nv] = inside
            if p > 1:   # an order-1 element has no edge-interior nodes
                # per (element, local edge): edge id, governing order and the
                # slots of its p + 1 local edge nodes from the smaller to the
                # larger vertex id
                k = mesh.element_edge_ids[ids, :nverts]
                p_edge = self.edge_orders[k]
                enodes = np.array(ref.edge_nodes)
                forward = mesh.element_edge_forward[ids, :nverts, None]
                along = starts[ids, None, None] \
                    + np.where(forward, enodes, enodes[:, ::-1])
                # edge_nodes is narrower than p + 1 when no edge is at p
                same = p_edge == p
                node[along[same][:, 1:-1].ravel()] = \
                    edge_nodes[k[same], 1:p].ravel()
                # an edge node is read from its owner's block
                own = owner[k] == ids[:, None]
                read[edge_nodes[k[own], 1:p].ravel() - nv] = \
                    along[own][:, 1:-1].ravel()
                for p_low in range(1, p):
                    # edge nodes interpolated from the order p_low trace
                    low = p_edge == p_low
                    if not low.any():
                        continue
                    dest = along[low][:, 1:-1]
                    shape = dest.shape + (p_low + 1,)
                    rows.append(np.repeat(dest, p_low + 1))
                    cols.append(np.broadcast_to(
                        edge_nodes[k[low], None, :p_low + 1], shape).ravel())
                    weights.append(np.broadcast_to(
                        interpolation_matrix(p_low, p)[1:-1], shape).ravel())
            slots.flags.writeable = False
            self.slots[key] = slots
        for key, slots in self.slots.items():
            self.node_ids[key] = node[slots]
            self.node_ids[key].flags.writeable = False
        self.read_slots = read
        # scipy sorts each row's columns and each node's slots ascending
        direct = np.flatnonzero(node >= 0)
        self.expand = sp.csr_matrix(
            (np.concatenate([np.ones(direct.size), *weights]),
             (np.concatenate([direct, *rows]),
              np.concatenate([node[direct], *cols]))),
            shape=(self.total_local, self.num_nodes))
        self.expand_T = self.expand.T.tocsr()

    def marked_node_ids(self, mesh: MixedOrderMesh) -> np.ndarray:
        """Sorted independent node ids lying on the marked faces."""
        rows = self.edge_nodes[np.fromiter(mesh.marked_faces, dtype=int)]
        return np.unique(rows[rows >= 0])


def check_node_blocks(mesh: MixedOrderMesh, blocks) -> list[np.ndarray]:
    """A nodal scalar field as float arrays, one per element; raises
    ``ValueError`` unless there is one finite block per element holding a
    value per node of that element."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    sizes = np.diff(mesh._bounds).tolist()
    if len(blocks) != len(sizes):
        raise ValueError("one scalar block per element required")
    for e, (n, b) in enumerate(zip(sizes, blocks)):
        if b.shape != (n,):
            raise ValueError(f"block {e} has shape {b.shape}, expected {(n,)}")
    if blocks and not np.isfinite(np.concatenate(blocks)).all():
        raise ValueError("non-finite scalar value")
    return blocks


def apply_edge_constraints(mesh: MixedOrderMesh) -> np.ndarray:
    """The nodes that the mesh's vertices and block array give by the owner
    rule (``DofMap.read_slots``): a dependent edge node is not read, so a
    block that disagrees with its edge's owner is overruled.  On a mesh's
    own blocks it returns its ``nodes``."""
    return np.concatenate([mesh.vertices,
                           mesh._blocks[:, mesh.dof_map().read_slots].T])


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


def resampled_blocks(mesh: MixedOrderMesh, ids, order: int) -> np.ndarray:
    """The (len(ids), n, 2) node blocks of the elements ``ids``, all of one
    geometry and one order, resampled at ``order``, with the vertices at
    their corners, which a resampled triangle misses by rounding."""
    ids = np.asarray(ids, dtype=int)
    geometry, p = mesh._geometry.item(ids[0]), mesh._orders.item(ids[0])
    n = mesh._bounds.item(ids[0] + 1) - mesh._bounds.item(ids[0])
    # a C-ordered (2, E, n) gather gives each product the layout of one
    # element's block.T, which BLAS rounds alike; an (E, n, 2) one does not
    X = np.take(mesh._blocks, mesh._bounds[ids, None] + np.arange(n), axis=1)
    X = resampling_matrix(geometry, p, order) @ X.transpose(1, 2, 0)
    corners = reference_element(geometry, order).corners
    X[:, corners] = mesh.vertices[mesh.element_vertex_ids[ids,
                                                          :len(corners)]]
    return X


def lowering_min_det(mesh: MixedOrderMesh, lowered, order: int) -> float:
    """``min_det`` of the elements in ``lowered`` and their edge neighbors
    after ``set_order(lowered, order)``, computed without changing the mesh
    on the blocks that the lowering changes: the lowered elements,
    resampled, and on each of their interior edges the side that does not
    own the trace (``edge_owners``), which copies or interpolates it.  They
    agree with ``set_order`` up to rounding, not bit for bit.  The loop
    over the touched edges reads Python lists: a trial touches about five
    edges, too few for array passes to pay."""
    geometry, forward = mesh._geometry, mesh.element_edge_forward

    def along(e, le, p):
        """Local nodes of local edge le of e at order p, smaller vertex id
        first."""
        nodes = reference_element(geometry.item(e), p).edge_nodes[le]
        return nodes if forward.item(e, le) else nodes[::-1]

    orders = mesh.orders()
    orders[lowered] = order
    governing, owners = edge_owners(mesh, orders)
    blocks = {e: resampled_blocks(mesh, [e], order)[0] for e in lowered}
    touched = set(lowered)
    k = np.unique(mesh.element_edge_ids[lowered])
    k = k[k >= 0]
    for (s0, s1), (l0, l1), p_edge, owner in zip(
            mesh.edge_element_ids[k].tolist(), mesh.edge_local_ids[k].tolist(),
            governing[k].tolist(), owners[k].tolist()):
        if s1 < 0:
            continue   # a boundary edge's one side owns its trace
        touched.update((s0, s1))
        other, l_owner, l_other = (s0, l1, l0) if owner == s1 else \
            (s1, l0, l1)
        X = blocks[owner] if owner in blocks else mesh._block(owner).T
        trace = X[along(owner, l_owner, p_edge)]
        p = orders.item(other)
        if other not in blocks:
            blocks[other] = mesh._block(other).T.copy()
        inner = along(other, l_other, p)[1:-1]
        blocks[other][inner] = trace[1:-1] if p == p_edge else \
            interpolation_matrix(p_edge, p)[1:-1] @ trace
    stacks: dict[tuple[str, int], list[np.ndarray]] = {}
    for e in sorted(touched):
        stacks.setdefault((geometry.item(e), orders.item(e)), []) \
            .append(blocks[e] if e in blocks else mesh._block(e).T)
    return min_det_of((key, np.stack(X)) for key, X in stacks.items())


def require_valid(mesh: MixedOrderMesh, context: str = "operation"):
    md = mesh.min_det()
    if not md > 0.0:
        raise MeshInvalidError(
            f"{context} requires a non-inverted mesh (min det = {md:.3e})")

