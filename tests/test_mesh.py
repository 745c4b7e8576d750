import numpy as np
import pytest
import scipy.sparse as sp

from meshfit import (AdaptivityPlan, MeshInvalidError, MixedOrderMesh,
                     apply_edge_constraints, generate_cartesian)
from meshfit.adapt import apply_refinement, propagate_orders, try_derefine
from meshfit.basis import reference_element
from meshfit.errors import MeshStructureError
from meshfit.levelset import ANALYTIC_LEVELSETS
from meshfit.mesh import (MeshElement, interpolation_matrix, require_valid,
                          resampling_matrix)

from conftest import (meshes_identical, perturbed_mesh, random_order_mesh,
                      set_orders)


def test_generate_counts_single_element():
    m = generate_cartesian(1, 1, 1)
    assert len(m.vertices) == 4
    assert len(m.elements) == 1
    assert m.num_position_dofs == 4


def test_generate_counts_4x4():
    m1 = generate_cartesian(4, 4, 1)
    assert m1.num_position_dofs == 25
    assert len(m1.elements) == 16
    # conforming count for uniform order p on an n x n grid is (p n + 1)^2
    m3 = generate_cartesian(4, 4, 3)
    assert m3.num_position_dofs == 169


def test_generate_split_triangles():
    m = generate_cartesian(4, 4, 2, split_triangles=True)
    assert len(m.elements) == 32
    assert all(el.geometry == "tri" for el in m.elements)
    # vertices + one node per interior edge for p=2
    n_edges = len(m.edges)
    assert m.num_position_dofs == len(m.vertices) + n_edges


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_cartesian(0, 4, 1)
    with pytest.raises(ValueError):
        generate_cartesian(4, 4, 0)
    with pytest.raises(ValueError):
        generate_cartesian(2, 2, 1, box=(0, 0, 0, 1))


def test_edge_table_4x4():
    m = generate_cartesian(4, 4, 1)
    assert len(m.edges) == 40  # 2 * 4 * 5
    assert len(m.boundary_edges()) == 16
    interior = [k for k, rec in enumerate(m.edges) if len(rec.sides) == 2]
    assert len(interior) == 24
    k = m.edge_id(0, 1)
    assert set(m.edges[k].verts) == {0, 1}
    with pytest.raises(MeshStructureError):
        m.edge_id(0, 24)  # opposite corners share no edge


def test_edge_overshare_rejected():
    # three elements claiming the same edge is not a 2D manifold mesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.5], [-1.0, 0.5]])
    ref = reference_element("tri", 1)

    def tri(a, b, c):
        coords = verts[[a, b, c]].T.copy()
        return MeshElement("tri", np.array([a, b, c]), 1, coords)

    with pytest.raises(MeshStructureError):  # the constructor builds edges
        MixedOrderMesh(verts, [tri(1, 2, 0), tri(1, 2, 4), tri(2, 1, 5)])


def test_element_vertex_count_checked():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    quad_nodes = verts.T.copy()  # a p=1 quad has its 4 corners as nodes
    with pytest.raises(MeshStructureError, match="3 vertices"):
        MixedOrderMesh(verts, [MeshElement("quad", np.array([0, 1, 2]), 1,
                                           quad_nodes)])
    with pytest.raises(MeshStructureError, match="4 vertices"):
        MixedOrderMesh(verts, [MeshElement("tri", np.array([0, 1, 2, 3]), 1,
                                           quad_nodes[:, :3])])


def _assert_tables_fresh(m):
    """Cached groups, incidence arrays and DofMap equal a fresh copy's."""
    fresh = MixedOrderMesh(m.vertices, [el.copy() for el in m.elements])
    groups, want = m.groups(), fresh.groups()
    assert list(groups) == list(want)
    assert all(np.array_equal(groups[key], want[key]) for key in want)
    for name in ("element_vertex_ids", "element_edge_ids", "edge_element_ids"):
        assert np.array_equal(getattr(m, name), getattr(fresh, name))
    dm, dm0 = m.dof_map(), fresh.dof_map()
    assert dm.num_nodes == dm0.num_nodes
    for name in ("edge_orders", "edge_offsets", "read_slots"):
        assert np.array_equal(getattr(dm, name), getattr(dm0, name))
    for table in ("slots", "node_ids"):
        mine, want = getattr(dm, table), getattr(dm0, table)
        assert list(mine) == list(want)
        assert all(np.array_equal(mine[key], want[key]) for key in want)
    assert dm.expand.shape == dm0.expand.shape
    assert (dm.expand != dm0.expand).nnz == 0
    assert np.array_equal(dm.extract(m), dm0.extract(fresh))


def test_order_changes_rebuild_cached_tables():
    m = generate_cartesian(3, 3, 3)
    m.set_order(0, 2)
    m.set_order(1, 2)
    apply_edge_constraints(m)
    m.groups(), m.dof_map()  # fill the caches
    m.set_order(8, 1)
    _assert_tables_fresh(m)

    # every candidate lowers an element next to an order-3 one by 2 > 1,
    # so the attempt is rolled back
    face = (set(m.element_edge_ids[0]) & set(m.element_edge_ids[1])).pop()
    plan = AdaptivityPlan(p_init=1, p_max=3, max_neighbor_diff=1,
                          deref_kind="size", deref_threshold=0.5)
    circle = ANALYTIC_LEVELSETS["circle"]()
    assert try_derefine(m, circle, plan, face) is None
    assert [m.elements[e].order for e in (0, 1, 8)] == [2, 2, 1]
    _assert_tables_fresh(m)

    before = m.orders()
    orders = apply_refinement(m, [face], AdaptivityPlan(p_max=3), before)
    assert set(np.flatnonzero(orders != before)) == {0, 1}
    raised = propagate_orders(m, orders, 1)
    assert set(np.flatnonzero(raised != orders)) == {8}
    set_orders(m, raised)
    _assert_tables_fresh(m)


@pytest.mark.parametrize("split", [False, True])
def test_extract_reads_edges_through_edge_trace(split):
    m = random_order_mesh(3, 3, seed=4, split_triangles=split)
    assert len({el.order for el in m.elements}) == 3
    # give every element its own copy of shared nodes, so the side an edge
    # node is read from shows in the result
    rng = np.random.default_rng(0)
    for el in m.elements:
        el.coords += 1e-3 * rng.standard_normal(el.coords.shape)
    dm = m.dof_map()
    expected = np.full((dm.num_nodes, 2), np.nan)
    expected[:len(m.vertices)] = m.vertices
    for k in range(len(m.edges)):
        expected[dm.edge_node_ids(k, m)[1:-1]] = m.edge_trace(k)[1:-1]
    for key, ids in m.groups().items():
        interior = reference_element(*key).interior
        for e, node in zip(ids, dm.node_ids[key]):
            expected[node[interior]] = m.elements[e].coords[:, interior].T
    assert np.array_equal(dm.extract(m), expected)


def _reference_dofmap(m):
    """The DofMap tables built by one loop over elements and local edges:
    ``expand``, ``read_slots``, ``edge_orders``, ``edge_offsets``,
    ``num_nodes`` and the node ids of each element (-1 where an edge node is
    interpolated).  The library builds them per element group; this is the
    reference it must match exactly."""
    edges = m.edges
    nv = len(m.vertices)
    edge_orders = np.array([min(m.elements[s.element].order for s in rec.sides)
                            for rec in edges], dtype=int)
    edge_counts = edge_orders - 1
    edge_offsets = nv + np.cumsum(edge_counts) - edge_counts
    refs = [reference_element(el.geometry, el.order) for el in m.elements]
    pos = nv + int(edge_counts.sum())
    num_nodes = pos + sum(len(ref.interior) for ref in refs)
    local_node_ids = []
    read = np.full(num_nodes, -1)
    rows, cols, vals = [], [], []
    base = 0
    for el, ref, own_edges in zip(m.elements, refs, m.element_edge_ids):
        ids = np.full(ref.num_nodes, -1, dtype=int)
        ids[ref.corners] = el.verts
        for le, (k, enodes) in enumerate(zip(own_edges, ref.edge_nodes)):
            vmin, vmax = edges[k].verts
            p_edge = int(edge_orders[k])
            o = int(edge_offsets[k])
            canonical = enodes if el.verts[le] == vmin else enodes[::-1]
            if el.order == p_edge:
                ids[canonical[1:-1]] = o + np.arange(p_edge - 1)
                continue
            P = interpolation_matrix(p_edge, el.order)
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
        local_node_ids.append(ids)
        base += ref.num_nodes
    expand = sp.csr_matrix((vals, (rows, cols)), shape=(base, num_nodes))
    return {"expand": expand, "read_slots": read[nv:],
            "edge_orders": edge_orders, "edge_offsets": edge_offsets,
            "num_nodes": num_nodes, "local_node_ids": local_node_ids}


def _dofmap_meshes():
    for seed in range(20):
        for split in (False, True):
            yield random_order_mesh(4, 3, seed=seed, split_triangles=split)
    # every interior edge joins a p1 and a p3 element
    m = generate_cartesian(4, 4, 1)
    for e in range(len(m.elements)):
        m.set_order(e, 3 if (e + e // 4) % 2 else 1)
    yield m
    yield random_order_mesh(3, 3, orders=(1, 3), seed=3, split_triangles=True)
    yield generate_cartesian(2, 2, 5)


def test_dofmap_matches_the_element_loop():
    for m in _dofmap_meshes():
        dm, ref = m.dof_map(), _reference_dofmap(m)
        assert dm.num_nodes == ref["num_nodes"]
        for name in ("read_slots", "edge_orders", "edge_offsets"):
            mine, want = getattr(dm, name), ref[name]
            assert mine.dtype == want.dtype and np.array_equal(mine, want)
        for name in ("indptr", "indices", "data"):
            mine, want = getattr(dm.expand, name), getattr(ref["expand"], name)
            assert mine.dtype == want.dtype and np.array_equal(mine, want)
        assert dm.expand.shape == ref["expand"].shape
        node_ids = [None] * len(m.elements)
        for key, ids in m.groups().items():
            for e, node in zip(ids, dm.node_ids[key]):
                node_ids[e] = node
        for mine, want in zip(node_ids, ref["local_node_ids"], strict=True):
            assert np.array_equal(mine, want)


def test_dofmap_tables_are_read_only():
    dm = random_order_mesh(3, 3, seed=1).dof_map()
    for table in (dm.slots, dm.node_ids):
        for a in table.values():
            with pytest.raises(ValueError):
                a[0, 0] = 0


def test_dof_roundtrip_bitwise():
    m = perturbed_mesh(3, 3, 2, seed=5)
    dm = m.dof_map()
    t = dm.extract(m)
    m2 = m.copy()
    m.dof_map().scatter(m, t)
    assert meshes_identical(m, m2)


def test_dof_expand_reproduces_element_nodes():
    m = random_order_mesh(3, 3, seed=2)
    dm = m.dof_map()
    t = dm.extract(m)
    full = dm.expand @ t
    for key, ids in m.groups().items():
        for e, slots in zip(ids, dm.slots[key]):
            assert np.allclose(full[slots], m.elements[e].coords.T, atol=1e-12)


def test_mixed_order_edges_conform():
    m = random_order_mesh(3, 3, seed=7)
    ts = np.linspace(0.0, 1.0, 9)
    for rec in m.edges:
        if len(rec.sides) != 2:
            continue
        vals = []
        for side in rec.sides:
            el = m.elements[side.element]
            ref = reference_element(el.geometry, el.order)
            t = ts if side.forward else 1.0 - ts
            vals.append(m.eval_map(side.element,
                                   ref.edge_point(side.local_edge, t)))
        assert np.abs(vals[0] - vals[1]).max() < 1e-12


def test_set_order_preserves_affine_geometry():
    m = generate_cartesian(2, 2, 1)
    before = [el.coords.copy() for el in m.elements]
    m.set_order(0, 3)
    m.set_order(0, 1)
    assert np.allclose(m.elements[0].coords, before[0], atol=1e-13)
    # raising keeps the bilinear map: mapped corners stay put
    m.set_order(1, 2)
    ref = reference_element("quad", 2)
    corners = m.eval_map(1, ref.nodes[ref.corners])
    assert np.allclose(corners, m.vertices[m.elements[1].verts], atol=1e-14)


@pytest.mark.parametrize("split", [False, True], ids=["quads", "triangles"])
def test_set_order_matches_eval_map_bit_for_bit(split):
    # every order change of a curved mesh: the cached resampling matrix
    # gives exactly the map evaluated at the new nodes
    for old in (1, 2, 3):
        for new in [q for q in (1, 2, 3, 4) if q != old]:
            m = perturbed_mesh(2, 2, old, seed=old, split_triangles=split)
            el = m.elements[1]
            expected = m.eval_map(1, reference_element(el.geometry,
                                                       new).nodes).T
            m.set_order(1, new)
            assert m.elements[1].order == new
            assert np.array_equal(m.elements[1].coords, expected)
    B = resampling_matrix(el.geometry, 2, 3)
    assert B is resampling_matrix(el.geometry, 2, 3)
    assert not B.flags.writeable


def test_prolongation_exact_for_low_degree():
    from meshfit.basis import gauss_lobatto_nodes
    P = interpolation_matrix(2, 4)
    lo = gauss_lobatto_nodes(2)
    hi = gauss_lobatto_nodes(4)
    for poly in (lambda x: 1 + 0 * x, lambda x: 2 * x - 1, lambda x: x**2):
        assert np.allclose(P @ poly(lo), poly(hi), atol=1e-13)


def test_min_det_and_validity():
    m = generate_cartesian(2, 2, 1)
    assert m.min_det() > 0.0
    assert m.is_valid()
    require_valid(m)
    # drag one interior vertex far outside its cell to invert neighbors
    dm = m.dof_map()
    t = dm.extract(m)
    interior = np.argmin(np.abs(t - 0.5).sum(axis=1))
    t[interior] = [2.5, 2.5]
    dm.scatter(m, t)
    assert m.min_det() < 0.0
    assert not m.is_valid()
    with pytest.raises(MeshInvalidError):
        require_valid(m)


@pytest.mark.parametrize("every_element", [False, True])
def test_nan_node_makes_mesh_invalid(every_element):
    # a NaN determinant must fail the > 0 check, not drop out of the minimum
    m = generate_cartesian(2, 2, 1)
    m.set_order(0, 2)
    m.elements[0].coords[:, 4] = np.nan
    if every_element:
        for el in m.elements[1:]:
            el.coords[:, 0] = np.nan
    assert np.isnan(m.min_det())
    assert not m.is_valid()
    with pytest.raises(MeshInvalidError):
        require_valid(m)
    # the finite elements alone keep their finite minimum
    if not every_element:
        assert m.min_det([1, 2, 3]) == generate_cartesian(2, 2, 1).min_det()


def test_min_det_subset_matches_global():
    m = perturbed_mesh(3, 3, 2, seed=9)
    all_ids = list(range(len(m.elements)))
    assert np.isclose(m.min_det(all_ids), m.min_det(), atol=1e-15)
    per_el = min(m.min_det([e]) for e in all_ids)
    assert np.isclose(per_el, m.min_det(), atol=1e-15)


def test_order_histogram_and_groups():
    m = generate_cartesian(3, 3, 1)
    m.set_order(0, 3)
    m.set_order(1, 3)
    m.set_order(2, 2)
    apply_edge_constraints(m)
    assert m.order_histogram() == {1: 6, 2: 1, 3: 2}
    groups = m.groups()
    assert list(groups) == [("quad", 1), ("quad", 2), ("quad", 3)]
    assert groups[("quad", 3)].tolist() == [0, 1]
    assert sum(len(ids) for ids in groups.values()) == 9


def test_copy_is_independent():
    m = perturbed_mesh(2, 2, 2, seed=3)
    m.marked_faces = {0, 1}
    c = m.copy()
    assert meshes_identical(m, c)
    c.elements[0].coords[:] += 1.0
    c.marked_faces.add(2)
    assert not np.array_equal(m.elements[0].coords, c.elements[0].coords)
    assert m.marked_faces == {0, 1}


def test_diameters():
    m = generate_cartesian(4, 2, 1, box=(0.0, 0.0, 2.0, 1.0))
    assert np.isclose(m.diameter(), np.hypot(2.0, 1.0), atol=1e-14)


def test_edge_order_is_min_of_sides():
    m = generate_cartesian(2, 1, 1)
    m.set_order(0, 3)
    apply_edge_constraints(m)
    shared = next(k for k, rec in enumerate(m.edges) if len(rec.sides) == 2)
    assert m.edge_order(shared) == 1


def test_marked_and_edge_node_ids():
    m = generate_cartesian(3, 3, 2)
    m.marked_faces = {m.edge_id(0, 1), m.edge_id(1, 2)}
    dm = m.dof_map()
    ids = dm.marked_node_ids(m)
    assert len(ids) == 5  # two p=2 edges sharing one endpoint
    assert np.all(np.diff(ids) > 0)
    edge_ids = dm.edge_node_ids(m.edge_id(0, 1), m)
    assert len(edge_ids) == 3
    t = dm.extract(m)
    pts = t[edge_ids]
    assert np.allclose(pts[:, 1], 0.0, atol=1e-14)  # bottom edge of the square
