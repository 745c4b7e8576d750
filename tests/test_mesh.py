import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp

import meshfit
from meshfit import (AdaptivityPlan, FitConfig, MeshInvalidError,
                     MixedOrderMesh, QualityMetric, apply_edge_constraints,
                     assign_materials, generate_cartesian, read_mesh,
                     run_rp_adaptivity, write_mesh)
from meshfit.adapt import apply_refinement, propagate_orders, try_derefine
from meshfit.basis import _gauss_lobatto_cached, reference_element
from meshfit.errors import MeshStructureError
from meshfit.levelset import ANALYTIC_LEVELSETS
from meshfit.mesh import (MeshElement, cofactors, element_min_dets,
                          interpolation_matrix, jacobian_det, min_det_of,
                          require_valid, resampled_blocks, resampling_matrix)

from conftest import (edge_records, meshes_identical, perturbed_mesh,
                      random_order_mesh, reference_edges, set_orders)


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
    n_edges = len(m.edge_vertex_ids)
    assert m.num_position_dofs == len(m.vertices) + n_edges


def _reference_cartesian(nx, ny, order, box, split_triangles):
    """The vertex table and the (geometry, vertex ids, node block) of each
    element of ``generate_cartesian``, placed one cell at a time."""
    xmin, ymin, xmax, ymax = box
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    vertices = np.array([[xs[i], ys[j]]
                         for j in range(ny + 1) for i in range(nx + 1)])
    geometry = "tri" if split_triangles else "quad"
    u, v = reference_element(geometry, order).nodes.T
    elements = []
    for j in range(ny):
        for i in range(nx):
            c = [j * (nx + 1) + i, j * (nx + 1) + i + 1,
                 (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i]
            for verts in ([c[:3], [c[0], c[2], c[3]]] if split_triangles
                          else [c]):
                pts = vertices[verts]
                if split_triangles:
                    coords = (np.outer(pts[0], 1 - u - v)
                              + np.outer(pts[1], u) + np.outer(pts[2], v))
                else:
                    coords = (np.outer(pts[0], (1 - u) * (1 - v))
                              + np.outer(pts[1], u * (1 - v))
                              + np.outer(pts[2], u * v)
                              + np.outer(pts[3], (1 - u) * v))
                elements.append((geometry, np.array(verts), coords))
    return vertices, elements


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_generate_matches_a_per_cell_reference(order, split):
    box = (-1.3, 0.7, 2.9, 1.1)
    m = generate_cartesian(3, 2, order, box=box, split_triangles=split)
    vertices, elements = _reference_cartesian(3, 2, order, box, split)
    assert m.vertices.dtype == vertices.dtype
    assert np.array_equal(m.vertices, vertices)
    assert len(m.elements) == len(elements)
    for el, (geometry, verts, coords) in zip(m.elements, elements):
        assert (el.geometry, el.order) == (geometry, order)
        assert el.verts.dtype == verts.dtype
        assert np.array_equal(el.verts, verts)
        assert el.coords.dtype == coords.dtype
        # bit for bit, signed zeros included
        assert np.array_equal(el.coords, coords)
        assert np.array_equal(np.signbit(el.coords), np.signbit(coords))


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_cartesian(0, 4, 1)
    with pytest.raises(ValueError):
        generate_cartesian(4, 4, 0)
    with pytest.raises(ValueError):
        generate_cartesian(2, 2, 1, box=(0, 0, 0, 1))


@pytest.mark.parametrize("box", [(0, 0, True, "1"), (0, 0, 1, True),
                                 (0, 0, "1", 1), (0, 0, 1), (0, 0, 1, 1, 1)],
                         ids=["bool_and_string", "bool", "string", "three",
                              "five"])
def test_generate_rejects_a_box_of_no_four_real_numbers(box):
    # True and "1" would otherwise build the unit square
    with pytest.raises(ValueError, match="box must be four real numbers"):
        generate_cartesian(2, 2, 1, box=box)
    m = generate_cartesian(2, 2, 1, box=(np.float64(0), 0, 2, np.int64(1)))
    assert m.diameter() == np.hypot(2.0, 1.0)


def test_edge_table_4x4():
    m = generate_cartesian(4, 4, 1)
    edges = edge_records(m)
    assert len(edges) == 40  # 2 * 4 * 5
    assert len(m.boundary_edges()) == 16
    interior = [k for k, rec in enumerate(edges) if len(rec.sides) == 2]
    assert len(interior) == 24
    k, = m.edge_ids([(0, 1)])
    assert set(edges[k].verts) == {0, 1}
    assert m.edge_vertex_ids.tolist() == [list(rec.verts) for rec in edges]
    with pytest.raises(ValueError):
        m.edge_vertex_ids[0, 0] = 1


def _edge_id_scan(m, v0, v1):
    """The edge id of vertices v0 and v1 by a scan of the edge table, as
    the scalar lookup that ``edge_ids`` replaced; None for no edge."""
    for k, (lo, hi) in enumerate(m.edge_vertex_ids.tolist()):
        if (lo, hi) == (min(v0, v1), max(v0, v1)):
            return k
    return None


def test_edge_ids_batches_the_scan():
    m = generate_cartesian(4, 4, 2, split_triangles=True)
    pairs = np.random.default_rng(3).integers(0, 25, size=(400, 2))
    pairs = pairs[[_edge_id_scan(m, *ab) is not None for ab in pairs.tolist()]]
    assert len(pairs) > 20
    pairs = np.concatenate([pairs, pairs[::-1], pairs[:5]])  # repeats
    want = [_edge_id_scan(m, a, b) for a, b in pairs.tolist()]
    assert m.edge_ids(pairs) == m.edge_ids(pairs[:, ::-1]) == want
    assert m.edge_ids(pairs.tolist()) == want
    assert m.edge_ids([]) == m.edge_ids(np.zeros((0, 2), dtype=int)) == []
    # the first pair that shares no edge is named, as given
    for bad in [(0, 24), (24, 0), (0, 0), (-1, 0), (3, 25), (0, 10 ** 15)]:
        assert _edge_id_scan(m, *bad) is None
        with pytest.raises(MeshStructureError, match=re.escape(
                f"no edge between vertices {bad[0]} and {bad[1]}")):
            m.edge_ids([(0, 1), bad, (6, 12)])
    with pytest.raises(MeshStructureError, match="vertices 7 and 19"):
        MixedOrderMesh(m.vertices, []).edge_ids([(7, 19), (0, 1)])


def test_edge_overshare_rejected():
    # three elements claiming the same edge is not a 2D manifold mesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.5], [-1.0, 0.5]])
    ref = reference_element("tri", 1)

    def tri(a, b, c):
        coords = verts[[a, b, c]].T.copy()
        return MeshElement("tri", np.array([a, b, c]), 1, coords)

    with pytest.raises(MeshStructureError, match="shared by 3"):
        MixedOrderMesh(verts, [tri(1, 2, 0), tri(1, 2, 4), tri(2, 1, 5)])


def _p1_triangles(vertex_lists):
    """Order-1 triangles on the unit-spaced vertices 0..8 of a 3x3 grid."""
    verts = np.array([[i % 3, i // 3] for i in range(9)], dtype=float)
    return verts, [MeshElement("tri", np.array(ids), 1,
                               verts[list(ids)].T.copy())
                   for ids in vertex_lists]


def test_same_way_edge_rejected():
    verts, tris = _p1_triangles([(0, 1, 4), (0, 1, 3)])
    with pytest.raises(MeshStructureError, match="same direction"):
        MixedOrderMesh(verts, tris)


@pytest.mark.parametrize("lists, match", [
    # edge (0, 1), traversed one way by both sides, comes first
    ([(0, 1, 3), (0, 1, 4), (5, 6, 2), (6, 5, 7), (5, 6, 8)],
     "edge \\(0, 1\\) is traversed in the same direction"),
    # edge (5, 6), shared by three elements, comes first
    ([(5, 6, 2), (6, 5, 7), (5, 6, 8), (0, 1, 3), (0, 1, 4)],
     "edge \\(5, 6\\) is shared by 3 elements"),
])
def test_the_first_bad_edge_in_edge_id_order_is_reported(lists, match):
    verts, tris = _p1_triangles(lists)
    with pytest.raises(MeshStructureError, match=match) as got:
        MixedOrderMesh(verts, tris)
    with pytest.raises(MeshStructureError) as want:
        reference_edges(lists)
    assert str(got.value) == str(want.value)


def _mixed_geometry_mesh():
    """A quad beside two triangles on a 2x1 grid, orders 1 to 3, so the
    element arrays carry -1 padding."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                      [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    quad_coords = np.empty((2, 4))
    corners = reference_element("quad", 1).corners
    quad_coords[:, corners] = verts[[0, 1, 4, 3]].T
    elements = [MeshElement("quad", np.array([0, 1, 4, 3]), 1, quad_coords)]
    for ids in ([1, 2, 5], [1, 5, 4]):
        elements.append(MeshElement("tri", np.array(ids), 1,
                                    verts[ids].T.copy()))
    m = MixedOrderMesh(verts, elements)
    m.set_order([0, 2], [3, 2])
    return m


def _shuffled_mesh():
    """A 3x3 split-triangle mesh with its elements in random order."""
    m = random_order_mesh(3, 3, seed=11, split_triangles=True)
    order = np.random.default_rng(5).permutation(len(m.elements))
    return MixedOrderMesh(m.vertices, [m.elements[e] for e in order])


def _read_back_mesh(tmp_path):
    m = random_order_mesh(4, 3, seed=6)
    m.marked_faces = set(m.edge_ids([(0, 1), (5, 6)]))
    write_mesh(m, tmp_path / "m.mesh")
    return read_mesh(tmp_path / "m.mesh")


EDGE_TABLE_MESHES = {
    "quads_4x4": lambda tmp_path: generate_cartesian(4, 4, 1),
    "triangles_4x4": lambda tmp_path: generate_cartesian(
        4, 4, 2, split_triangles=True),
    "random_orders": lambda tmp_path: random_order_mesh(4, 3, seed=3),
    "shuffled": lambda tmp_path: _shuffled_mesh(),
    "quads_and_triangles": lambda tmp_path: _mixed_geometry_mesh(),
    "read_back": _read_back_mesh,
    "perturbed_triangles": lambda tmp_path: perturbed_mesh(
        4, 3, 2, seed=2, split_triangles=True),
    "quads_64x64": lambda tmp_path: generate_cartesian(64, 64, 1),
}


@pytest.mark.parametrize("name", sorted(EDGE_TABLE_MESHES))
def test_edge_arrays_match_the_loop_reference(name, tmp_path):
    m = EDGE_TABLE_MESHES[name](tmp_path)
    records = edge_records(m)
    width = max(len(el.verts) for el in m.elements)
    verts = np.full((len(m.elements), width), -1)
    own = np.full((len(m.elements), width), -1)
    forward = np.zeros((len(m.elements), width), dtype=bool)
    sides = np.full((len(records), 2), -1)
    local = np.full((len(records), 2), -1)
    for k, rec in enumerate(records):
        for i, side in enumerate(rec.sides):
            own[side.element, side.local_edge] = k
            forward[side.element, side.local_edge] = side.forward
            sides[k, i] = side.element
            local[k, i] = side.local_edge
    for e, el in enumerate(m.elements):
        verts[e, :len(el.verts)] = el.verts
    ends = np.array([rec.verts for rec in records], dtype=int)
    for attr, want in (("edge_vertex_ids", ends),
                       ("element_vertex_ids", verts),
                       ("element_edge_ids", own),
                       ("element_edge_forward", forward),
                       ("edge_element_ids", sides), ("edge_local_ids", local)):
        mine = getattr(m, attr)
        assert mine.dtype == want.dtype and mine.shape == want.shape, attr
        assert np.array_equal(mine, want), attr
        with pytest.raises(ValueError):
            mine[0, 0] = mine[0, 0]
    ids = np.arange(len(records)).tolist()
    assert m.edge_ids(ends) == m.edge_ids(ends[:, ::-1]) == ids
    assert all(type(k) is int for k in m.edge_ids(ends))


def test_degenerate_edge_rejected():
    # a triangle listing one vertex twice has an edge from it to itself
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    tri = MeshElement("tri", np.array([0, 1, 1]), 1, verts[[0, 1, 1]].T.copy())
    with pytest.raises(MeshStructureError,
                       match="element 0 has a degenerate edge"):
        MixedOrderMesh(verts, [tri])


def test_element_vertex_count_checked():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    quad_nodes = verts.T.copy()  # a p=1 quad has its 4 corners as nodes
    with pytest.raises(MeshStructureError, match="3 vertices"):
        MixedOrderMesh(verts, [MeshElement("quad", np.array([0, 1, 2]), 1,
                                           quad_nodes)])
    with pytest.raises(MeshStructureError, match="4 vertices"):
        MixedOrderMesh(verts, [MeshElement("tri", np.array([0, 1, 2, 3]), 1,
                                           quad_nodes[:, :3])])


@pytest.mark.parametrize("geometry, order, match", [
    ("hex", 1, "element 0 has unsupported geometry 'hex'"),
    ("quad", True, "element 0 has order True"),
    ("quad", 1.0, "element 0 has order 1.0"),
    ("quad", 0, "element 0 has order 0"),
    ("quad", "1", "element 0 has order '1'"),
])
def test_a_bad_element_kind_is_a_structure_error(geometry, order, match):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    bad = MeshElement(geometry, np.arange(4), order, verts.T.copy())
    with pytest.raises(MeshStructureError, match=re.escape(match)):
        MixedOrderMesh(verts, [bad])


#: kinds that no entry point may take: orders that only equal a valid
#: order (2.0, True), an order below 1, a string, and an unknown geometry
BAD_KINDS = [("quad", 2.0), ("quad", True), ("quad", 0), ("quad", "1"),
             ("hex", 1)]


def _kind_outcomes():
    """(entry point, kind, exception type, message) of each entry point of
    the kind rule on each bad kind: every ``reference_element`` call first,
    then every ``generate_cartesian``, constructor and ``set_order`` call,
    so that in a fresh process only the order-1 quad is ever built."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    entries = {
        "reference_element": lambda g, p: reference_element(g, p),
        "generate_cartesian": lambda g, p: generate_cartesian(1, 1, p),
        "MixedOrderMesh": lambda g, p: MixedOrderMesh(
            verts, [MeshElement(g, np.arange(4), p, verts.T.copy())]),
        "set_order": lambda g, p: generate_cartesian(1, 1, 1).set_order(0, p),
    }
    out = []
    for name, call in entries.items():
        for geometry, order in BAD_KINDS:
            if geometry != "quad" and name in ("generate_cartesian",
                                               "set_order"):
                continue   # these two take no geometry
            try:
                call(geometry, order)
                got = ("no error", "")
            except Exception as exc:   # the outcome is what is compared
                got = (type(exc).__name__, str(exc))
            out.append([name, geometry, repr(order), *got])
    return out


def test_a_bad_kind_raises_one_typed_error_cached_or_not():
    # cold: a fresh process, where no table of the kinds that 2.0 and True
    # equal was built before the call
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(meshfit.__file__))
    path = os.pathsep.join([src, tests] + [p for p in
                                           [os.environ.get("PYTHONPATH")] if p])
    code = "\n".join([
        "import json, test_mesh",
        "from meshfit import basis",
        "assert basis._reference_elements.cache_info().currsize == 0",
        "print(json.dumps(test_mesh._kind_outcomes()))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    cold = json.loads(run.stdout)
    # warm: every valid kind that a bad order equals is cached
    for p in (1, 2, 3):
        generate_cartesian(1, 1, p)
    warm = _kind_outcomes()
    assert warm == cold
    for name, geometry, order, kind, message in warm:
        assert kind == "MeshStructureError", (name, geometry, order, message)
        fault = (f"unsupported geometry {geometry!r}" if geometry == "hex"
                 else f"order {order}, expected an integer >= 1")
        subject = ("element 0" if name in ("MixedOrderMesh", "set_order")
                   else f"element kind ({geometry!r}, {order})")
        assert message == f"{subject} has {fault}"


@pytest.mark.parametrize("order", [3.0, True, 0, "1"],
                         ids=["float", "bool", "zero", "string"])
def test_a_rejected_set_order_changes_nothing(order):
    m = generate_cartesian(2, 2, 1)
    m.set_order(3, 3)   # the order-3 tables are built
    groups = {key: ids.copy() for key, ids in m.groups().items()}
    coords = [el.coords.copy() for el in m.elements]
    for e in (0, 3):
        before = m.elements[e].order
        with pytest.raises(MeshStructureError, match=f"^element {e} has "):
            m.set_order(e, order)
        assert type(m.elements[e].order) is int
        assert m.elements[e].order == before
    assert all(np.array_equal(el.coords, c)
               for el, c in zip(m.elements, coords))
    assert list(m.groups()) == list(groups)
    assert all(np.array_equal(m.groups()[key], groups[key]) for key in groups)


@pytest.mark.parametrize("nx, ny", [(True, 2), (2.0, 2), (2, True), (2, 2.0),
                                    ("2", 2), (0, 2)],
                         ids=["bool_x", "float_x", "bool_y", "float_y",
                              "string_x", "zero_x"])
def test_generate_rejects_a_cell_count_that_is_no_integer(nx, ny):
    # True would build a 1 x 2 mesh
    with pytest.raises(ValueError, match="cell counts must be integers"):
        generate_cartesian(nx, ny, 1)


def test_numpy_integer_orders_are_accepted():
    m = generate_cartesian(2, 1, 2)
    elements = [m.elements[0], replace(m.elements[1], order=np.int64(2))]
    rebuilt = MixedOrderMesh(m.vertices, elements)
    assert list(rebuilt.groups()) == [("quad", 2)]
    assert rebuilt.groups()[("quad", 2)].tolist() == [0, 1]
    # and numpy integer element ids
    rebuilt.set_order(np.int64(1), 3)
    rebuilt.set_order(np.array([0], dtype=np.int32), np.int64(1))
    assert rebuilt.orders().tolist() == [1, 3]


def _first_bad_element(vertices, elements):
    """The constructor's element check as one loop over the elements: the
    message of the first bad element's first fault, or None."""
    for e, el in enumerate(elements):
        verts = np.asarray(el.verts, dtype=int)
        coords = np.asarray(el.coords, dtype=float)
        if verts.min(initial=0) < 0 or verts.max(initial=-1) >= len(vertices):
            return f"element {e} references an unknown vertex"
        if el.geometry not in ("quad", "tri"):
            return f"element {e} has unsupported geometry {el.geometry!r}"
        if type(el.order) not in (int, np.int64) or el.order < 1:
            return (f"element {e} has order {el.order!r}, expected an "
                    "integer >= 1")
        ref = reference_element(el.geometry, el.order)
        if len(verts) != len(ref.corners):
            return (f"element {e} has {len(verts)} vertices, a {el.geometry} "
                    f"has {len(ref.corners)}")
        if coords.shape != (2, ref.num_nodes):
            return (f"element {e} has coords {coords.shape}, expected "
                    f"(2, {ref.num_nodes})")
    # the attributes of a list with no other fault
    for e, el in enumerate(elements):
        if type(el.attribute) not in (int, np.int64):
            return (f"element {e} has attribute {el.attribute!r}, expected "
                    "an integer")
    return None


def _break(el, fault):
    """A copy of ``el`` with one fault."""
    if fault == "vertex":
        return replace(el, verts=np.append(el.verts[:-1], 99))
    if fault == "negative":
        return replace(el, verts=np.append(-1, el.verts[1:]))
    if fault == "geometry":
        return replace(el, geometry="hex")
    if fault == "order":
        return replace(el, order=0)
    if fault == "count":
        return replace(el, verts=el.verts[:-1])
    if fault == "attribute":
        return replace(el, attribute=1.0)
    return replace(el, coords=el.coords[:, :-1])


FAULTS = ("vertex", "negative", "geometry", "order", "count", "coords",
          "attribute")


def test_the_first_bad_element_in_element_order_is_reported():
    # element 5 of (quad, 1) and element 2 of (quad, 2): element 2 is named
    base = generate_cartesian(3, 3, 1)
    base.set_order(2, 2)
    for late, early in [("vertex", "coords"), ("coords", "vertex"),
                        ("order", "count"), ("geometry", "vertex"),
                        ("attribute", "attribute")]:
        elements = list(base.elements)
        elements[5], elements[2] = (_break(elements[5], late),
                                    _break(elements[2], early))
        want = _first_bad_element(base.vertices, elements)
        assert want.startswith("element 2 ")
        with pytest.raises(MeshStructureError, match=f"^{re.escape(want)}$"):
            MixedOrderMesh(base.vertices, elements)


def test_element_checks_agree_with_the_element_loop():
    # one to three faults, each alone or on top of another in one element,
    # on mixed-order quads and triangles
    rng = np.random.default_rng(11)
    for trial in range(200):
        m = random_order_mesh(3, 2, seed=trial, split_triangles=trial % 2 == 1)
        elements = list(m.elements)
        for _ in range(int(rng.integers(1, 4))):
            e = int(rng.integers(len(elements)))
            fault = FAULTS[rng.integers(len(FAULTS))]
            elements[e] = _break(elements[e], fault)
        want = _first_bad_element(m.vertices, elements)
        with pytest.raises(MeshStructureError) as got:
            MixedOrderMesh(m.vertices, elements)
        assert str(got.value) == want, f"trial {trial}"


def test_seeded_groups_equal_a_rebuild():
    m = random_order_mesh(4, 3, seed=5, split_triangles=True)
    for step in range(3):
        loop: dict = {}
        for e, el in enumerate(m.elements):
            loop.setdefault((el.geometry, el.order), []).append(e)
        seeded = MixedOrderMesh(m.vertices, m.elements)
        for groups in (m.groups(), seeded.groups()):
            assert list(groups) == sorted(loop)
            assert all(groups[key].tolist() == loop[key] for key in loop)
            assert all(ids.dtype == int for ids in groups.values())
        m.set_order(step, 3 if m.elements[step].order < 3 else 1)


def _assert_tables_fresh(m):
    """Cached groups, incidence arrays and DofMap equal a fresh copy's."""
    fresh = MixedOrderMesh(m.vertices, m.elements)
    groups, want = m.groups(), fresh.groups()
    assert list(groups) == list(want)
    assert all(np.array_equal(groups[key], want[key]) for key in want)
    for name in ("element_vertex_ids", "element_edge_ids", "edge_element_ids",
                 "edge_vertex_ids"):
        assert np.array_equal(getattr(m, name), getattr(fresh, name))
    dm, dm0 = m.dof_map(), fresh.dof_map()
    assert dm.num_nodes == dm0.num_nodes
    for name in ("edge_orders", "edge_nodes", "read_slots"):
        assert np.array_equal(getattr(dm, name), getattr(dm0, name))
    for table in ("slots", "node_ids"):
        mine, want = getattr(dm, table), getattr(dm0, table)
        assert list(mine) == list(want)
        assert all(np.array_equal(mine[key], want[key]) for key in want)
    assert dm.expand.shape == dm0.expand.shape
    assert (dm.expand != dm0.expand).nnz == 0
    assert np.array_equal(m.nodes, fresh.nodes)


def test_order_changes_rebuild_cached_tables():
    m = generate_cartesian(3, 3, 3)
    m.set_order([0, 1], 2)
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
    # node is read from shows in the nodes the constructor reads
    rng = np.random.default_rng(0)
    blocks = [el.coords + 1e-3 * rng.standard_normal(el.coords.shape)
              for el in m.elements]
    m = MixedOrderMesh(m.vertices, [replace(el, coords=X) for el, X
                                    in zip(m.elements, blocks)])
    dm = m.dof_map()
    expected = np.full((dm.num_nodes, 2), np.nan)
    expected[:len(m.vertices)] = m.vertices
    for k, rec in enumerate(edge_records(m)):
        # the trace owner: the lowest element id at the edge's minimum order
        p = min(m.elements[s.element].order for s in rec.sides)
        side = min((s for s in rec.sides if m.elements[s.element].order == p),
                   key=lambda s: s.element)
        el = m.elements[side.element]
        local = reference_element(el.geometry, p).edge_nodes[side.local_edge]
        trace = blocks[side.element][:, local].T
        expected[dm.edge_nodes[k, 1:p]] = \
            (trace if side.forward else trace[::-1])[1:-1]
    for key, ids in m.groups().items():
        interior = reference_element(*key).interior
        for e, node in zip(ids, dm.node_ids[key]):
            expected[node[interior]] = blocks[e][:, interior].T
    assert np.array_equal(m.nodes, expected)


def _reference_dofmap(m):
    """The DofMap tables built by one loop over elements and local edges:
    ``expand``, ``read_slots``, ``edge_orders``, ``edge_nodes``,
    ``num_nodes`` and the node ids of each element (-1 where an edge node is
    interpolated).  The library builds them per element group; this is the
    reference it must match exactly."""
    edges = edge_records(m)
    nv = len(m.vertices)
    edge_orders = np.array([min(m.elements[s.element].order for s in rec.sides)
                            for rec in edges], dtype=int)
    edge_counts = edge_orders - 1
    edge_offsets = nv + np.cumsum(edge_counts) - edge_counts
    edge_nodes = np.full((len(edges), edge_orders.max() + 1), -1)
    for k, rec in enumerate(edges):
        p, o = edge_orders[k], edge_offsets[k]
        edge_nodes[k, :p + 1] = [rec.verts[0], *range(o, o + p - 1),
                                 rec.verts[1]]
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
            "edge_orders": edge_orders, "edge_nodes": edge_nodes,
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
        for name in ("read_slots", "edge_orders", "edge_nodes"):
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


def _resampled_blocks(mesh, orders):
    """The (n, 2) node block of each element at ``orders``, as a one-element
    ``set_order`` left it before batches: resampled by the cached matrix,
    with the vertices at its corners, and the others as they are."""
    blocks = []
    for el, p in zip(mesh.elements, orders):
        X = el.coords.T
        if p != el.order:
            X = resampling_matrix(el.geometry, el.order, p) @ el.coords.T
            X[reference_element(el.geometry, p).corners] = \
                mesh.vertices[el.verts]
        blocks.append(X)
    return blocks


def _assert_state_of_the_extract_scatter_pass(m, blocks):
    """The state of ``m`` is bit for bit the one pass that followed the
    per-element resampling before batches: the nodes read from the
    concatenated ``blocks`` at the loop reference's ``read_slots``
    (extract), and every element block rebuilt as ``expand @ nodes``
    (scatter)."""
    ref = _reference_dofmap(m)
    vertices = np.array(m.vertices)
    t = np.concatenate([vertices, np.concatenate(blocks)[ref["read_slots"]]])
    expanded = ref["expand"] @ t
    assert np.array_equal(m.nodes, t)
    assert np.array_equal(m.vertices, vertices)
    ends = np.cumsum([el.coords.shape[1] for el in m.elements])
    for el, end in zip(m.elements, ends):
        n = el.coords.shape[1]
        assert np.array_equal(el.coords, expanded[end - n:end].T)


@pytest.mark.parametrize("split", [False, True], ids=["quads", "triangles"])
def test_a_batched_set_order_equals_the_per_element_sequence(split):
    rng = np.random.default_rng(8)
    for seed in range(6):
        m = random_order_mesh(4, 3, seed=seed, split_triangles=split)
        m.set_nodes(m.nodes + rng.uniform(-0.02, 0.02, m.nodes.shape))
        orders = rng.integers(1, 4, len(m.elements))
        blocks = _resampled_blocks(m, orders)
        changed = np.flatnonzero(orders != m.orders())
        m.set_order(changed, orders[changed])
        assert np.array_equal(m.orders(), orders)
        _assert_state_of_the_extract_scatter_pass(m, blocks)


#: the adaptive plans of the bench, by variant
BENCH_PLANS = {
    "adaptive": {},
    "deref": dict(deref_kind="size", deref_threshold=1e-5),
    "limited": dict(max_neighbor_diff=1),
    "limited_deref": dict(deref_kind="size", deref_threshold=1e-5,
                          max_neighbor_diff=1),
}


@pytest.mark.parametrize("variant", BENCH_PLANS)
def test_set_order_in_the_bench_runs_equals_the_per_element_sequence(
        variant, monkeypatch):
    # every order field that the refinements and accepted lowerings of the
    # 8x8 bench run apply
    set_order, calls = MixedOrderMesh.set_order, []

    def checked(mesh, ids, orders):
        new = mesh.orders()
        new[ids] = orders
        blocks = _resampled_blocks(mesh, new)
        set_order(mesh, ids, orders)
        _assert_state_of_the_extract_scatter_pass(mesh, blocks)
        calls.append(len(np.atleast_1d(ids)))

    monkeypatch.setattr(MixedOrderMesh, "set_order", checked)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7, **BENCH_PLANS[variant])
    run_rp_adaptivity(generate_cartesian(8, 8, 1),
                      ANALYTIC_LEVELSETS["squircle2d"](),
                      FitConfig(metric=QualityMetric("mu2")), plan)
    assert calls and max(calls) > 1


def test_edge_directions_match_the_rolled_vertex_test():
    # the DofMap orients each local edge by element_edge_forward; the rolled
    # vertex comparison it used before must give the same directions
    meshes = [*_dofmap_meshes(), _mixed_geometry_mesh(),
              generate_cartesian(64, 64, 1),
              generate_cartesian(64, 64, 1, split_triangles=True)]
    for m in meshes:
        for key, ids in m.groups().items():
            n = len(reference_element(*key).corners)
            V = m.element_vertex_ids[ids, :n]
            assert np.array_equal(m.element_edge_forward[ids, :n],
                                  V < np.roll(V, -1, axis=1))
            assert not m.element_edge_forward[ids, n:].any()


@pytest.mark.parametrize("make", [
    lambda: random_order_mesh(8, 8, seed=2),
    lambda: generate_cartesian(8, 8, 1),
    lambda: generate_cartesian(8, 8, 3),
    lambda: random_order_mesh(8, 8, seed=5, split_triangles=True),
], ids=["mixed_quads", "p1", "p3", "split_triangles"])
def test_expand_T_products_equal_the_transposed_expand(make):
    dm = make().dof_map()
    g = np.random.default_rng(7).standard_normal((dm.total_local, 2))
    assert (dm.expand_T != dm.expand.T).nnz == 0
    assert np.array_equal(dm.expand_T @ g, dm.expand.T @ g)


def test_dofmap_tables_are_read_only():
    dm = random_order_mesh(3, 3, seed=1).dof_map()
    for a in [*dm.slots.values(), *dm.node_ids.values(), dm.edge_nodes]:
        with pytest.raises(ValueError):
            a[0, 0] = 0


def test_dof_roundtrip_bitwise():
    m = perturbed_mesh(3, 3, 2, seed=5)
    t = m.nodes.copy()
    m2 = m.copy()
    m.set_nodes(t)
    assert meshes_identical(m, m2)


def test_dof_expand_reproduces_element_nodes():
    m = random_order_mesh(3, 3, seed=2)
    dm = m.dof_map()
    t = m.nodes.copy()
    full = dm.expand @ t
    for key, ids in m.groups().items():
        for e, slots in zip(ids, dm.slots[key]):
            assert np.allclose(full[slots], m.elements[e].coords.T, atol=1e-12)


def test_mixed_order_edges_conform():
    m = random_order_mesh(3, 3, seed=7)
    ts = np.linspace(0.0, 1.0, 9)
    for rec in edge_records(m):
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
    # gives exactly the map evaluated at the new nodes, and the corner nodes
    # are the vertices, which the map reproduces only up to rounding on a
    # triangle.  set_order keeps that block at every node the element reads
    # itself; a raised element's edge nodes follow its neighbors' traces
    for old in (1, 2, 3):
        for new in [q for q in (1, 2, 3, 4) if q != old]:
            m = perturbed_mesh(2, 2, old, seed=old, split_triangles=split)
            el = m.elements[1]
            ref = reference_element(el.geometry, new)
            expected = m.eval_map(1, ref.nodes).T
            expected[:, ref.corners] = m.vertices[el.verts].T
            assert np.array_equal(resampled_blocks(m, [1], new)[0].T, expected)
            m.set_order(1, new)
            assert m.elements[1].order == new
            key = (el.geometry, new)
            row = m.groups()[key].tolist().index(1)
            direct = m.dof_map().node_ids[key][row] >= 0
            assert np.array_equal(m.elements[1].coords[:, direct],
                                  expected[:, direct])
            assert np.allclose(m.elements[1].coords, expected, atol=1e-14)
    B = resampling_matrix(el.geometry, 2, 3)
    assert B is resampling_matrix(el.geometry, 2, 3)
    assert not B.flags.writeable


def test_prolongation_exact_for_low_degree():
    P = interpolation_matrix(2, 4)
    lo = _gauss_lobatto_cached(2)
    hi = _gauss_lobatto_cached(4)
    for poly in (lambda x: 1 + 0 * x, lambda x: 2 * x - 1, lambda x: x**2):
        assert np.allclose(P @ poly(lo), poly(hi), atol=1e-13)


def test_min_det_and_validity():
    m = generate_cartesian(2, 2, 1)
    assert m.min_det() > 0.0
    require_valid(m)
    # drag one interior vertex far outside its cell to invert neighbors
    t = m.nodes.copy()
    interior = np.argmin(np.abs(t - 0.5).sum(axis=1))
    t[interior] = [2.5, 2.5]
    m.set_nodes(t)
    assert m.min_det() < 0.0
    with pytest.raises(MeshInvalidError):
        require_valid(m)


@pytest.mark.parametrize("every_element", [False, True])
def test_nan_node_makes_mesh_invalid(every_element):
    # a NaN determinant must fail the > 0 check, not drop out of the minimum
    m = generate_cartesian(2, 2, 1)
    m.set_order(0, 2)
    t = m.nodes.copy()
    # the interior node of element 0, and the first corner of each other
    t[m.dof_map().node_ids[("quad", 2)][0,
                                        reference_element("quad", 2).interior]] \
        = np.nan
    if every_element:
        t[[el.verts[0] for el in m.elements[1:]]] = np.nan
    m.set_nodes(t)
    assert np.isnan(m.min_det())
    assert not m.min_det() > 0.0
    with pytest.raises(MeshInvalidError):
        require_valid(m)
    # the finite elements alone keep their finite minimum
    if not every_element:
        ids = m.groups()[("quad", 1)]
        assert ids.tolist() == [1, 2, 3]
        assert min_det_of([(("quad", 1), m.group_coords(("quad", 1)))]) == \
            generate_cartesian(2, 2, 1).min_det()


def test_cofactors_invert_the_jacobian(rng):
    A = rng.normal(size=(50, 2, 2))
    T = (A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1])
    det = jacobian_det(T)
    assert np.allclose(det, np.linalg.det(A), rtol=1e-13, atol=1e-15)
    C = np.stack(cofactors(T), axis=-1).reshape(-1, 2, 2)
    # C^T is the adjugate: C^T A = A C^T = det(A) I
    scaled_eye = det[:, None, None] * np.eye(2)
    tol = 1e-15 * np.abs(A).max() ** 2
    assert np.abs(C.transpose(0, 2, 1) @ A - scaled_eye).max() <= tol
    assert np.abs(A @ C.transpose(0, 2, 1) - scaled_eye).max() <= tol


def test_min_det_subset_matches_global():
    m = perturbed_mesh(3, 3, 2, seed=9)
    (key, ids), = m.groups().items()
    X = m.group_coords(key)
    per_el = element_min_dets([(key, X)])[0]
    alone = [min_det_of([(key, X[[i]])]) for i in range(len(ids))]
    assert np.allclose(per_el, alone, rtol=0.0, atol=1e-15)
    assert np.isclose(min(alone), m.min_det(), atol=1e-15)


def test_order_histogram_and_groups():
    m = generate_cartesian(3, 3, 1)
    m.set_order(0, 3)
    m.set_order(1, 3)
    m.set_order(2, 2)
    assert m.order_histogram() == {1: 6, 2: 1, 3: 2}
    groups = m.groups()
    assert list(groups) == [("quad", 1), ("quad", 2), ("quad", 3)]
    assert groups[("quad", 3)].tolist() == [0, 1]
    assert sum(len(ids) for ids in groups.values()) == 9


def _held_arrays(mesh):
    """Every array that a mesh holds: its attributes, its elements' and its
    DofMap's, the arrays of its dicts and of the DofMap's sparse matrices."""
    held = []
    for obj in [mesh, *mesh.elements, mesh.dof_map()]:
        for value in vars(obj).values():
            for v in value.values() if isinstance(value, dict) else [value]:
                if sp.issparse(v):
                    held += [v.data, v.indices, v.indptr]
                elif isinstance(v, np.ndarray):
                    held.append(v)
    return held


def test_copy_shares_no_writable_array_with_its_source():
    m = random_order_mesh(3, 3, seed=2, split_triangles=True)
    c = m.copy()
    assert meshes_identical(m, c)
    source = _held_arrays(m)
    for b in _held_arrays(c):
        for a in source:
            if np.shares_memory(a, b):
                assert not (a.flags.writeable or b.flags.writeable)


def test_coords_vertices_and_nodes_are_read_only_views_of_the_state():
    m = random_order_mesh(3, 3, seed=2)
    el = m.elements[4]
    for array in (el.coords, m.vertices, m.nodes):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        el.coords += 1.0
    # set_nodes refreshes every view in place
    before = el.coords.copy()
    m.set_nodes(m.nodes + 1.0)
    assert m.elements[4] is el
    assert np.array_equal(el.coords, before + 1.0)
    assert np.array_equal(m.vertices, m.nodes[:len(m.vertices)])
    with pytest.raises(ValueError, match="shape"):
        m.set_nodes(m.nodes[1:])


def test_copy_is_independent():
    m = perturbed_mesh(2, 2, 2, seed=3)
    m.marked_faces = {0, 1}
    c = m.copy()
    assert meshes_identical(m, c)
    c.set_nodes(c.nodes + 1.0)
    c.marked_faces.add(2)
    assert not np.array_equal(m.elements[0].coords, c.elements[0].coords)
    assert m.marked_faces == {0, 1}


def test_diameters():
    m = generate_cartesian(4, 2, 1, box=(0.0, 0.0, 2.0, 1.0))
    assert np.isclose(m.diameter(), np.hypot(2.0, 1.0), atol=1e-14)


def test_edge_order_is_min_of_sides():
    m = generate_cartesian(2, 1, 1)
    m.set_order(0, 3)
    shared = next(k for k, rec in enumerate(edge_records(m))
                  if len(rec.sides) == 2)
    dm = m.dof_map()
    assert dm.edge_orders[shared] == 1
    # a p1 edge holds its two end vertices and no interior node
    vmin, vmax = m.edge_vertex_ids[shared]
    assert dm.edge_nodes[shared].tolist() == [vmin, vmax, -1, -1]


def test_marked_and_edge_node_ids():
    m = generate_cartesian(3, 3, 2)
    faces = m.edge_ids([(0, 1), (1, 2)])
    m.marked_faces = set(faces)
    dm = m.dof_map()
    ids = dm.marked_node_ids(m)
    assert len(ids) == 5  # two p=2 edges sharing one endpoint
    assert np.all(np.diff(ids) > 0)
    edge_ids = dm.edge_nodes[faces[0]]
    assert len(edge_ids) == 3 and edge_ids[0] == 0 and edge_ids[-1] == 1
    assert set(ids) == set(edge_ids) | set(dm.edge_nodes[faces[1]])
    pts = m.nodes[edge_ids]
    assert np.allclose(pts[:, 1], 0.0, atol=1e-14)  # bottom edge of the square


# ---------------------------------------------------------------------------
# the one element state: arrays, read-only records and their two writers

def test_element_records_are_read_only():
    m = random_order_mesh(3, 3, seed=4, split_triangles=True)
    el = m.elements[5]
    for name in ("geometry", "verts", "order", "coords", "attribute"):
        with pytest.raises(FrozenInstanceError):
            setattr(el, name, getattr(el, name))
    for array in (el.verts, el.coords, m.attributes):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
    with pytest.raises(TypeError):
        m.elements[0] = el
    with pytest.raises(AttributeError):
        m.elements = [el]
    assert type(el.order) is int and type(el.attribute) is int
    assert isinstance(m.elements, tuple)


def _assert_one_element_state(m):
    """The records, ``orders()``, ``attributes``, ``groups()`` and the DofMap
    say the same, and the records rebuild the mesh."""
    records = m.elements
    assert [el.order for el in records] == m.orders().tolist()
    assert [el.attribute for el in records] == m.attributes.tolist()
    loop: dict = {}
    for e, el in enumerate(records):
        loop.setdefault((el.geometry, el.order), []).append(e)
        n = len(el.verts)
        assert np.array_equal(el.verts, m.element_vertex_ids[e, :n])
        assert (m.element_vertex_ids[e, n:] == -1).all()
    assert list(m.groups()) == sorted(loop)
    assert all(m.groups()[key].tolist() == loop[key] for key in loop)
    dm = m.dof_map()
    blocks = np.concatenate([el.coords for el in records], axis=1)
    assert blocks.shape == (2, dm.total_local)
    assert np.array_equal(blocks, (dm.expand @ m.nodes).T)
    for key, ids in m.groups().items():
        assert np.array_equal(m.group_coords(key),
                              np.stack([records[e].coords.T for e in ids]))
        assert dm.slots[key].shape == (len(ids),
                                       reference_element(*key).num_nodes)
    _assert_tables_fresh(m)
    assert meshes_identical(MixedOrderMesh(m.vertices, m.elements), m)


@pytest.mark.parametrize("split", [False, True], ids=["quads", "triangles"])
def test_records_arrays_groups_and_dofmap_agree_after_every_writer(split):
    m = random_order_mesh(5, 4, seed=8, split_triangles=split)
    assign_materials(m, ANALYTIC_LEVELSETS["squircle2d"]())
    assert set(m.attributes.tolist()) == {1, 2}
    _assert_one_element_state(m)
    rng = np.random.default_rng(3)
    ids = rng.choice(len(m.elements), 7, replace=False)
    m.set_order(ids, rng.integers(1, 4, len(ids)))
    _assert_one_element_state(m)
    m.set_attributes(3 - m.attributes)
    _assert_one_element_state(m)
    records = m.elements
    m.set_nodes(m.nodes * 1.01)
    assert m.elements is records   # the views follow the nodes
    _assert_one_element_state(m)
    c = m.copy()
    _assert_one_element_state(c)
    assert meshes_identical(c, m)


@pytest.mark.parametrize("e", [-1, 4, True, 1.0, np.float64(2.0), "1", None],
                         ids=["negative", "past_end", "bool", "float",
                              "numpy_float", "string", "none"])
def test_set_order_rejects_an_id_that_is_no_element(e):
    m = generate_cartesian(2, 2, 1)
    groups, dm, nodes = m.groups(), m.dof_map(), m.nodes
    message = f"^element id {re.escape(repr(e))} is not an integer in 0..3$"
    for ids in (e, [0, e]):
        with pytest.raises(MeshStructureError, match=message):
            m.set_order(ids, 2)
    # nothing changed and nothing was rebuilt
    assert m.orders().tolist() == [1, 1, 1, 1]
    assert m.groups() is groups and m.dof_map() is dm and m.nodes is nodes


BAD_ATTRIBUTES = [1.5, True, None, "2", np.float64(1.0), np.bool_(True)]
BAD_IDS = ["float", "bool", "none", "string", "numpy_float", "numpy_bool"]


@pytest.mark.parametrize("bad", BAD_ATTRIBUTES, ids=BAD_IDS)
def test_the_constructor_rejects_an_attribute_that_is_no_integer(bad):
    m = generate_cartesian(2, 2, 1)
    elements = [replace(el, attribute=bad) if e in (1, 3) else el
                for e, el in enumerate(m.elements)]
    message = (f"^element 1 has attribute {re.escape(repr(bad))}, expected "
               "an integer$")
    with pytest.raises(MeshStructureError, match=message):
        MixedOrderMesh(m.vertices, elements)


@pytest.mark.parametrize("bad", BAD_ATTRIBUTES, ids=BAD_IDS)
def test_set_attributes_rejects_a_value_that_is_no_integer(bad):
    m = generate_cartesian(2, 2, 1)
    m.set_attributes([2, 2, 2, 2])
    records = m.elements
    message = (f"^element 2 has attribute {re.escape(repr(bad))}, expected "
               "an integer$")
    with pytest.raises(MeshStructureError, match=message):
        m.set_attributes([1, 1, bad, bad])
    assert m.attributes.tolist() == [2, 2, 2, 2] and m.elements is records


def test_attributes_take_numpy_integers_and_one_value_per_element():
    m = generate_cartesian(2, 2, 1)
    rebuilt = MixedOrderMesh(m.vertices, [
        replace(el, attribute=np.int32(e)) for e, el in enumerate(m.elements)])
    assert rebuilt.attributes.tolist() == [0, 1, 2, 3]
    assert [type(el.attribute) for el in rebuilt.elements] == [int] * 4
    m.set_attributes(np.array([4, 5, 6, 7], dtype=np.int64))
    assert m.attributes.tolist() == [4, 5, 6, 7]
    for values in ([1, 2, 3], [1] * 5):
        with pytest.raises(ValueError, match="attributes for 4 elements"):
            m.set_attributes(values)
    assert m.attributes.tolist() == [4, 5, 6, 7]


@pytest.mark.parametrize("variant", BENCH_PLANS)
def test_the_adaptive_loop_builds_no_element_record(variant, monkeypatch):
    made = []
    init = MeshElement.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    m = generate_cartesian(8, 8, 1)
    monkeypatch.setattr(MeshElement, "__init__", counted)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7, **BENCH_PLANS[variant])
    result = run_rp_adaptivity(m, ANALYTIC_LEVELSETS["squircle2d"](),
                               FitConfig(metric=QualityMetric("mu2")), plan)
    assert made == []
    # the spy sees the records of the first read
    assert len(result.mesh.elements) == len(made) == 64


@pytest.mark.parametrize("ids, orders, message", [
    ([0, 1, 2], [2, 2.0, 3], "element 1 has order 2.0, expected an integer"),
    ([0, 1, 2], [2, 2, 0], "element 2 has order 0, expected an integer"),
    ([0, 1, 2], [3, True, 3], "element 1 has order True, expected an"),
    ([0, 4, 1], [2, 2, 0], "element id 4 is not an integer in 0..3"),
    ([0, 1, 4], [2, 0, 2], "element 1 has order 0, expected an integer"),
    ([2, True, 1], [2, 2, "x"], "element id True is not an integer"),
], ids=["float", "zero_after_a_kind", "bool", "id_first", "kind_first",
        "bool_id"])
def test_a_batched_set_order_names_the_first_bad_id(ids, orders, message):
    m = generate_cartesian(2, 2, 1)
    m.set_order(3, 2)
    nodes, dm, orders_before = m.nodes.copy(), m.dof_map(), m.orders()
    with pytest.raises(MeshStructureError, match="^" + re.escape(message)):
        m.set_order(ids, orders)
    assert m.dof_map() is dm and np.array_equal(m.orders(), orders_before)
    assert np.array_equal(m.nodes, nodes)


@pytest.mark.parametrize("split", [False, True], ids=["quads", "triangles"])
def test_set_order_runs_the_kind_rule_once_per_distinct_kind(split,
                                                             monkeypatch):
    m = perturbed_mesh(8, 8, 1, seed=2, split_triangles=split)
    rng = np.random.default_rng(5)
    ids = np.arange(len(m.elements))
    orders = rng.integers(1, 4, len(ids))
    for p in (1, 2, 3):   # the tables of every kind are built
        reference_element(m.elements[0].geometry, p)
    own, through_tables = [], []
    check = meshfit.basis.check_kind

    def spy(calls):
        def wrapper(geometry, order, subject=None):
            calls.append((geometry, order))
            return check(geometry, order, subject)
        return wrapper

    monkeypatch.setattr(meshfit.mesh, "check_kind", spy(own))
    monkeypatch.setattr(meshfit.basis, "check_kind", spy(through_tables))
    m.set_order(ids, orders)
    kinds = {(m.elements[0].geometry, int(p)) for p in orders}
    assert sorted(own) == sorted(kinds)
    # reference_element's rule runs per group, not per element
    assert len(through_tables) <= 3 * len(kinds)
    # the resampled blocks have the vertices at their corners
    for el in m.elements:
        corners = reference_element(el.geometry, el.order).corners
        assert np.array_equal(el.coords[:, corners], m.vertices[el.verts].T)
