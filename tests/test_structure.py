"""The per-state builders against independent references.  The DofMap
reference builds ``expand`` from COO triplets and its transpose by scipy,
as ``DofMap`` does, but finds each slot's node through per-group
(element, local node) tables: it checks the numbering and the triplets,
not scipy's conversion.  The motion basis from COO triplets and the
Newton pattern's row matrix Q = [E2 Z; Z] from scipy's Kronecker
expansion, sparse product and stack are the builds that the hand-laid
ones replaced.  Every array must be equal, dtypes included, on every
order state of the four 8x8 bench variants, a 6x6 split-triangle p2 mesh,
a perturbed 4x4 p3 mesh and a 3x3 p1 mesh with a p3 element in the
middle."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from meshfit import (AdaptivityPlan, FitConfig, MixedOrderMesh, QualityMetric,
                     generate_cartesian, mark_interface_faces,
                     run_rp_adaptivity)
from meshfit.basis import reference_element
from meshfit.levelset import ANALYTIC_LEVELSETS
from meshfit.mesh import DofMap, edge_owners, interpolation_matrix
from meshfit.tmop import (_Assembly, _motion_basis, _NewtonPattern,
                          _product_terms, boundary_freedom)

from conftest import perturbed_mesh
from test_mesh import BENCH_PLANS


def _reference_dofmap(mesh):
    """The DofMap tables as the builder made them from COO triplets:
    ``expand`` by scipy's COO-to-CSR conversion, ``expand_T`` by its
    transpose."""
    groups = mesh.groups()
    refs = {key: reference_element(*key) for key in groups}
    nv = len(mesh.vertices)
    orders = mesh.orders()
    inner = np.empty(len(orders), dtype=int)
    for key, ids in groups.items():
        inner[ids] = len(refs[key].interior)
    edge_orders, owner = edge_owners(mesh, orders)
    edge_counts = edge_orders - 1
    offsets = nv + np.cumsum(edge_counts) - edge_counts
    first_interior = nv + int(edge_counts.sum())
    column = np.arange(edge_orders.max(initial=1) + 1)
    edge_nodes = np.where(column < edge_orders[:, None],
                          offsets[:, None] + column - 1, -1)
    edge_nodes[:, 0] = mesh.edge_vertex_ids[:, 0]
    edge_nodes[np.arange(len(edge_nodes)), edge_orders] = \
        mesh.edge_vertex_ids[:, 1]
    num_nodes = first_interior + int(inner.sum())
    starts, total_local = mesh._bounds[:-1], int(mesh._bounds[-1])
    interior_starts = first_interior + np.cumsum(inner) - inner
    out = SimpleNamespace(slots={}, node_ids={})
    read = np.empty(num_nodes - nv, dtype=int)
    empty = np.zeros(0, dtype=int)
    direct_slots, direct_nodes = [empty], [empty]
    rows, cols, vals = [empty], [empty], [np.zeros(0)]
    for key, ids in groups.items():
        ref, p = refs[key], key[1]
        nverts = len(ref.corners)
        slots = starts[ids, None] + np.arange(ref.num_nodes)
        node = np.full(slots.shape, -1)
        node[:, ref.corners] = mesh.element_vertex_ids[ids, :nverts]
        node[:, ref.interior] = interior_starts[ids, None] \
            + np.arange(len(ref.interior))
        k = mesh.element_edge_ids[ids, :nverts]
        p_edge = edge_orders[k]
        enodes = np.array(ref.edge_nodes)
        forward = mesh.element_edge_forward[ids, :nverts, None]
        canonical = np.where(forward, enodes, enodes[:, ::-1])
        member = np.broadcast_to(np.arange(len(ids))[:, None], k.shape)
        same = p_edge == p
        node[member[same][:, None], canonical[same][:, 1:-1]] = \
            edge_nodes[k[same], 1:p]
        own = owner[k] == ids[:, None]
        row, col = member[own][:, None], canonical[own][:, 1:-1]
        read[node[row, col] - nv] = slots[row, col]
        read[node[:, ref.interior] - nv] = slots[:, ref.interior]
        for p_low in range(1, p):
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
        out.slots[key] = slots
        out.node_ids[key] = node
    direct_slots = np.concatenate(direct_slots)
    direct_nodes = np.concatenate(direct_nodes)
    out.expand = sp.csr_matrix(
        (np.concatenate([np.ones(direct_slots.size), *vals]),
         (np.concatenate([direct_slots, *rows]),
          np.concatenate([direct_nodes, *cols]))),
        shape=(total_local, num_nodes))
    out.expand_T = out.expand.T.tocsr()
    out.read_slots = read
    return out


def _reference_motion_basis(kinds, tangents):
    """Z from COO triplets, its zeros eliminated."""
    first = np.cumsum(2 - kinds) - (2 - kinds)
    free, line = np.flatnonzero(kinds == 0), np.flatnonzero(kinds == 1)
    rows = np.concatenate([2 * free, 2 * free + 1, 2 * line, 2 * line + 1])
    cols = np.concatenate([first[free], first[free] + 1, first[line],
                           first[line]])
    vals = np.concatenate([np.ones(2 * free.size), tangents[line].T.ravel()])
    Z = sp.csr_matrix((vals, (rows, cols)),
                      shape=(2 * len(kinds), 2 * free.size + line.size))
    Z.eliminate_zeros()
    return Z


def _expand_xy(expand):
    """E2 = expand (x) I_2 on interleaved coordinates."""
    coo = expand.tocoo()
    rows = (2 * coo.row[:, None] + [0, 1]).ravel()
    cols = (2 * coo.col[:, None] + [0, 1]).ravel()
    return sp.csr_matrix((np.repeat(coo.data, 2), (rows, cols)),
                         shape=(2 * expand.shape[0], 2 * expand.shape[1]))


def _reference_pattern(asm, Z):
    """The Newton pattern with Q = [E2 Z; Z] from scipy's product and
    stack, and the row templates built per group."""
    n = Z.shape[1]
    Q = sp.vstack([_expand_xy(asm.dm.expand) @ Z, Z], format="csr")
    Q.eliminate_zeros()
    rows_a, rows_b = [], []
    for _, kind, gather in asm.groups:
        nn = gather.shape[1]
        i, j = kind.upper
        I, J = np.indices((nn, nn)).reshape(2, -1)
        first = 2 * gather[:, :1]
        for la, lb in ((np.r_[2 * i, 2 * i + 1], np.r_[2 * j, 2 * j + 1]),
                       (2 * I, 2 * J + 1)):
            rows_a.append((first + la).ravel())
            rows_b.append((first + lb).ravel())
    idx = 2 * asm.dm.total_local + 2 * asm.marked[:, None]
    rows_a.append((idx + [0, 1, 0]).ravel())
    rows_b.append((idx + [0, 1, 1]).ravel())
    num_values = sum(r.size for r in rows_a)
    k, keys, w = _product_terms(Q, np.concatenate(rows_a),
                                np.concatenate(rows_b))
    order = np.argsort(keys * keys.size + np.arange(keys.size))
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ref = _NewtonPattern.__new__(_NewtonPattern)
    ref.S = sp.csr_matrix((w[order], k[order], np.r_[starts, keys.size]),
                          shape=(starts.size, num_values))
    upper = keys[starts]
    cols, rows = np.divmod(upper, n)
    off = np.flatnonzero(rows < cols)
    full = np.concatenate([upper, rows[off] * n + cols[off]])
    moved = np.argsort(full)
    ref.shape = (n, n)
    _reference_set_slots(ref, full[moved])
    ref.slot_rows = np.concatenate([np.arange(upper.size), off])[moved]
    return ref


def _reference_set_slots(pattern, slots):
    """The CSC structure from the ascending slot keys j * n + i."""
    n = pattern.shape[0]
    cols, rows = np.divmod(slots, n)
    pattern.diag = np.searchsorted(slots, np.arange(n) * (n + 1))
    pattern.A = sp.csc_matrix(
        (np.zeros(slots.size), rows.astype(np.int32),
         np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)),
        shape=pattern.shape)


def _reference_renumber(pattern, perm):
    """Renumbering by one sort of the renumbered slot keys."""
    n = pattern.shape[0]
    perm = np.asarray(perm, dtype=np.int64)
    cols = np.repeat(np.arange(n), np.diff(pattern.A.indptr))
    keys = perm[cols] * n + perm[pattern.A.indices]
    moved = np.argsort(keys)
    _reference_set_slots(pattern, keys[moved])
    pattern.slot_rows = pattern.slot_rows[moved]
    return moved


@functools.lru_cache(maxsize=None)
def _states() -> tuple[MixedOrderMesh, ...]:
    """A copy of the mesh after every order change of the four 8x8 bench
    variants, then the two extra meshes, each with its marked faces."""
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    out = []
    set_order = MixedOrderMesh.set_order

    def copying(mesh, ids, orders):
        set_order(mesh, ids, orders)
        out.append(mesh.copy())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MixedOrderMesh, "set_order", copying)
        for extra in BENCH_PLANS.values():
            plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                                  refine_kind="absolute",
                                  refine_threshold=1e-14, fit_tol=1e-7,
                                  **extra)
            run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle,
                              FitConfig(metric=QualityMetric("mu2")), plan)
    assert len(out) == 12
    # one p3 element among p1 ones: no edge is at its order
    lone = generate_cartesian(3, 3, 1)
    lone.set_order(4, 3)
    for m in (generate_cartesian(6, 6, 2, split_triangles=True),
              perturbed_mesh(4, 4, 3), lone):
        mark_interface_faces(m, squircle)
        out.append(m)
    return tuple(out)


def _assert_same(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape and np.array_equal(got, want), what


def _assert_same_csr(got, want, what):
    assert got.shape == want.shape, what
    for name in ("data", "indices", "indptr"):
        _assert_same(getattr(got, name), getattr(want, name),
                     f"{what}.{name}")


@pytest.mark.parametrize("state", range(15))
def test_dofmap_equals_the_coo_build(state):
    m = _states()[state]
    dm, ref = DofMap(m), _reference_dofmap(m)
    _assert_same_csr(dm.expand, ref.expand, "expand")
    _assert_same_csr(dm.expand_T, ref.expand_T, "expand_T")
    _assert_same(dm.read_slots, ref.read_slots, "read_slots")
    assert list(dm.slots) == list(ref.slots)
    for key in ref.slots:
        _assert_same(dm.slots[key], ref.slots[key], f"slots {key}")
        _assert_same(dm.node_ids[key], ref.node_ids[key], f"node_ids {key}")


@pytest.mark.parametrize("state", range(15))
def test_motion_basis_and_newton_pattern_equal_the_scipy_build(state):
    m = _states()[state]
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    asm = _Assembly(FitConfig().problem(m, squircle))
    assert asm.marked.size
    perm = np.random.default_rng(state).permutation
    for mode in ("slide", "fixed", "free"):
        kinds, tangents = boundary_freedom(m, mode)
        Z, Z_ref = _motion_basis(kinds, tangents), \
            _reference_motion_basis(kinds, tangents)
        _assert_same_csr(Z, Z_ref, f"Z {mode}")
        got, want = _NewtonPattern(asm, Z), _reference_pattern(asm, Z_ref)
        got.set_values(np.random.default_rng(state).uniform(
            0.5, 1.0, got.S.shape[1]))
        for renumbered in (False, True):
            what = f"{mode}, renumbered {renumbered}"
            _assert_same_csr(got.S, want.S, f"S {what}")
            _assert_same(got.slot_rows, want.slot_rows, f"slot_rows {what}")
            _assert_same(got.diag, want.diag, f"diag {what}")
            for name in ("indices", "indptr"):
                _assert_same(getattr(got.A, name), getattr(want.A, name),
                             f"A.{name} {what}")
            if not renumbered:
                order = perm(Z.shape[1]).astype(np.int32)
                data = got.data
                _assert_same(got.renumber(order), np.argsort(order),
                             f"q {mode}")
                _assert_same(got.data, data[_reference_renumber(want, order)],
                             f"moved {mode}")
                # Z[:, q]: column c moves to order[c], a row keeps its one
                # entry or none
                _assert_same_csr(got.Z, sp.csr_matrix(
                    (Z_ref.data, order[Z_ref.indices], Z_ref.indptr),
                    shape=Z_ref.shape), f"Z renumbered {mode}")
