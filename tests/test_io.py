import re

import numpy as np
import pytest

from meshfit import (DiscreteLevelSet, MeshFileError, export_svg, export_vtk,
                     generate_cartesian, make_levelset, mark_interface_faces,
                     read_mesh, write_mesh)
from meshfit.basis import reference_element
from meshfit.levelset import ANALYTIC_LEVELSETS
from meshfit import cli, levelset, mesh_io

from conftest import (edge_records, meshes_identical, perturbed_mesh,
                      random_order_mesh)


# ---------------------------------------------------------------------------
# mesh file round trips

def _scalar_blocks(m, t):
    """Per-element blocks of the nodal scalar ``t``: ``expand @ t`` cut at
    the element blocks, which it holds in element order."""
    sizes = [el.coords.shape[1] for el in m.elements]
    return np.split(m.dof_map().expand @ t, np.cumsum(sizes)[:-1])


def test_roundtrip_byte_identity(tmp_path):
    m = random_order_mesh(3, 3, orders=(1, 2, 3), seed=7)
    m.marked_faces = set(m.edge_ids([(0, 1), (5, 6)]))
    p1, p2 = tmp_path / "a.mesh", tmp_path / "b.mesh"
    write_mesh(m, p1)
    m2 = read_mesh(p1)
    write_mesh(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert meshes_identical(m, m2)


def test_roundtrip_perturbed_quads(tmp_path):
    m = perturbed_mesh(3, 2, 2, seed=11)
    path = tmp_path / "p.mesh"
    write_mesh(m, path)
    assert meshes_identical(m, read_mesh(path))


def test_roundtrip_triangles(tmp_path):
    m = random_order_mesh(2, 2, orders=(1, 2), seed=5, split_triangles=True)
    path = tmp_path / "t.mesh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert meshes_identical(m, m2)
    assert all(el.geometry == "tri" for el in m2.elements)


def test_roundtrip_with_scalar(tmp_path):
    m = generate_cartesian(2, 2, 2)
    dm = m.dof_map()
    t = np.linspace(-1.0, 1.0, dm.num_nodes)
    blocks = _scalar_blocks(m, t)
    path = tmp_path / "s.mesh"
    write_mesh(m, path, scalar=blocks)
    assert "\nscalar sigma\n" in path.read_text()
    m2, blocks2 = read_mesh(path, with_scalar=True)
    assert meshes_identical(m, m2)
    for a, b in zip(blocks, blocks2):
        assert np.array_equal(a, b)
    # absent scalar block reads back as None
    path2 = tmp_path / "ns.mesh"
    write_mesh(m, path2)
    _, none_blocks = read_mesh(path2, with_scalar=True)
    assert none_blocks is None


@pytest.mark.parametrize("scalar, match", [
    ([np.zeros(4)] * 3, "one scalar block per element"),
    ([np.zeros(4)] * 3 + [np.zeros(3)], r"block 3 has shape \(3,\)"),
    ([np.zeros(4)] * 3 + [np.array([0.0, np.nan, 0.0, 0.0])], "non-finite"),
    ([np.zeros(4)] * 3 + [np.array([0.0, 0.0, np.inf, 0.0])], "non-finite"),
])
def test_write_mesh_rejects_a_scalar_the_reader_would_reject(tmp_path, scalar,
                                                             match):
    # the writer checks the blocks by the discrete level set's rule before
    # it opens the file, so it leaves no file that read_mesh rejects
    m = generate_cartesian(2, 2, 1)
    path = tmp_path / "bad.mesh"
    with pytest.raises(ValueError, match=match):
        write_mesh(m, path, scalar=scalar)
    assert not path.exists()
    with pytest.raises(ValueError, match=match):
        DiscreteLevelSet(m, scalar)
    # the same blocks, corrected, round trip
    good = [np.zeros(4)] * 4
    write_mesh(m, path, scalar=good)
    _, back = read_mesh(path, with_scalar=True)
    assert all(np.array_equal(a, b) for a, b in zip(back, good))


def test_roundtrip_fuzz(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "f.mesh"
    for trial in range(100):
        nx = int(rng.integers(1, 4))
        ny = int(rng.integers(1, 4))
        split = bool(rng.integers(0, 2))
        m = random_order_mesh(nx, ny, orders=(1, 2, 3),
                              seed=int(rng.integers(1 << 30)),
                              split_triangles=split)
        n_marked = int(rng.integers(0, 3))
        interior = [k for k, rec in enumerate(edge_records(m))
                    if len(rec.sides) == 2]
        if interior and n_marked:
            m.marked_faces = {interior[int(i)] for i in
                              rng.integers(0, len(interior), n_marked)}
        write_mesh(m, path)
        assert meshes_identical(m, read_mesh(path)), f"trial {trial}"


def test_roundtrip_64x64_marked_interface(tmp_path):
    m = generate_cartesian(64, 64, 2)
    marked = mark_interface_faces(m, ANALYTIC_LEVELSETS["squircle2d"]())
    assert len(marked) == 120
    path = tmp_path / "big.mesh"
    write_mesh(m, path)
    back = read_mesh(path)
    assert meshes_identical(m, back)
    assert back.marked_faces == marked


@pytest.mark.parametrize("split", [False, True], ids=["quads", "triangles"])
def test_set_order_keeps_corners_on_vertices_through_a_round_trip(tmp_path,
                                                                 split):
    # resampling a triangle does not reproduce its corners exactly, so
    # set_order writes the vertices there; the reader requires them
    m = generate_cartesian(4, 4, 3, split_triangles=split)
    for e in range(len(m.elements)):
        m.set_order(e, 2 if e % 3 else 1)
    for el in m.elements:
        corners = reference_element(el.geometry, el.order).corners
        assert np.array_equal(el.coords[:, corners], m.vertices[el.verts].T)
    path = tmp_path / "lowered.mesh"
    write_mesh(m, path)
    assert meshes_identical(m, read_mesh(path))


# ---------------------------------------------------------------------------
# reader rejections

def _good_lines(tmp_path, scalar=False):
    m = random_order_mesh(2, 2, orders=(1, 2), seed=3)
    m.marked_faces = set(m.edge_ids([(0, 1)]))
    path = tmp_path / "good.mesh"
    if scalar:
        dm = m.dof_map()
        write_mesh(m, path, scalar=_scalar_blocks(m, np.ones(dm.num_nodes)))
    else:
        write_mesh(m, path)
    return path.read_text().splitlines()


def _expect_reject(tmp_path, lines, match=None):
    bad = tmp_path / "bad.mesh"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFileError, match=match):
        read_mesh(bad, with_scalar=True)


def test_reader_rejects_bad_header(tmp_path):
    lines = _good_lines(tmp_path)
    _expect_reject(tmp_path, ["meshfat mesh 1"] + lines[1:], match="not a")
    _expect_reject(tmp_path, ["meshfit mesh 2"] + lines[1:], match="version")
    _expect_reject(tmp_path, ["meshfit mesh"] + lines[1:], match="not a")
    _expect_reject(tmp_path, [lines[0], "dimension 3"] + lines[2:],
                   match="dimension 2")
    _expect_reject(tmp_path, [], match="end of file")


def test_reader_rejects_duplicate_vertices(tmp_path):
    lines = _good_lines(tmp_path)
    assert lines[2] == "vertices 9"
    lines[4] = lines[3]
    _expect_reject(tmp_path, lines, match="coincide")


def test_reader_rejects_close_vertices_that_are_not_neighbors_in_xy_order(
        tmp_path):
    # in (x, y) order (0, 2) lies between the close pair (0, 1), (1e-15, 1)
    lines = ["meshfit mesh 1", "dimension 2", "vertices 3", "0 1", "0 2",
             "1e-15 1", "elements 0", "nodes", "marked_faces 0"]
    _expect_reject(tmp_path, lines,
                   match="^vertices 0 and 2 coincide within 1e-14$")


def _brute_force_close_pair(vertices):
    d = np.hypot(*(vertices[:, None] - vertices[None]).transpose(2, 0, 1))
    return bool((d[np.triu_indices(len(vertices), 1)] < 1e-14).any())


def test_duplicate_vertex_check_matches_every_pair():
    # grid columns share their x, and near copies sit in every direction
    # at distances on both sides of 1e-14
    rng = np.random.default_rng(3)
    grid = generate_cartesian(4, 3, 1).vertices
    for trial in range(300):
        copies = grid[rng.integers(len(grid), size=rng.integers(0, 3))]
        angle = rng.uniform(0.0, 2.0 * np.pi, len(copies))
        step = rng.choice([0.0, 3e-15, 9e-15, 1.1e-14, 5e-14], len(copies))
        near = copies + step[:, None] * np.column_stack([np.cos(angle),
                                                         np.sin(angle)])
        vertices = rng.permutation(np.concatenate([grid, near]))
        if _brute_force_close_pair(vertices):
            with pytest.raises(MeshFileError, match="coincide"):
                mesh_io._reject_duplicate_vertices(vertices)
        else:
            mesh_io._reject_duplicate_vertices(vertices)


@pytest.mark.parametrize("orders", [(2, 2), (2, 3)],
                         ids=["equal_orders", "raised_neighbor"])
def test_a_shared_edge_node_off_its_owner_reads_as_the_owner_trace(
        tmp_path, orders):
    # element 0 owns the shared edge x = 0.5: it is the lower element id,
    # and its order is the governing one.  Element 1's copies of the edge's
    # interior nodes are moved off it in the file
    m = generate_cartesian(2, 1, orders[0])
    m.set_order(1, orders[1])
    path = tmp_path / "conforming.mesh"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    at = lines.index("nodes") + 2   # element 1's node block
    xy = np.array(lines[at].split(), dtype=float).reshape(-1, 2)
    on_edge = (xy[:, 0] == 0.5) & (xy[:, 1] > 0.0) & (xy[:, 1] < 1.0)
    assert on_edge.sum() == orders[1] - 1
    xy[on_edge, 0] += 0.01
    lines[at] = " ".join(format(v, ".17g") for v in xy.ravel())
    moved = tmp_path / "moved.mesh"
    moved.write_text("\n".join(lines) + "\n")
    back = read_mesh(moved)
    assert meshes_identical(back, m)
    again = tmp_path / "again.mesh"
    write_mesh(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_reader_rejects_bad_elements(tmp_path):
    base = _good_lines(tmp_path)
    first_el = 12 + 1  # header, dimension, "vertices 9", 9 rows, "elements 4"
    assert base[first_el - 1] == "elements 4"

    lines = list(base)
    lines[first_el] = "hex " + lines[first_el].split(None, 1)[1]
    _expect_reject(tmp_path, lines, match="geometry")

    lines = list(base)
    parts = lines[first_el].split()
    parts[2] = "0"
    lines[first_el] = " ".join(parts)
    _expect_reject(tmp_path, lines, match="order")

    lines = list(base)
    parts = lines[first_el].split()
    parts[3] = "99"
    lines[first_el] = " ".join(parts)
    _expect_reject(tmp_path, lines, match="unknown vertex")

    lines = list(base)
    lines[first_el] += " 7"
    _expect_reject(tmp_path, lines, match="malformed")


def test_reader_rejects_bad_nodes(tmp_path):
    base = _good_lines(tmp_path)
    i_nodes = base.index("nodes")

    lines = list(base)
    lines[i_nodes + 1] = lines[i_nodes + 1].rsplit(None, 1)[0]
    _expect_reject(tmp_path, lines, match="node block")

    # detached corner: first node of element 0 no longer matches vertex 0
    lines = list(base)
    parts = lines[i_nodes + 1].split()
    parts[0] = "0.001"
    lines[i_nodes + 1] = " ".join(parts)
    _expect_reject(tmp_path, lines, match="corner")

    lines = base[:i_nodes + 1]
    _expect_reject(tmp_path, lines, match="end of file")


def test_reader_names_the_first_element_with_a_detached_corner(tmp_path):
    # element 5 is in the (quad, 1) group, which is checked first, and
    # element 2 in the (quad, 2) group
    m = generate_cartesian(3, 3, 1)
    m.set_order(2, 2)
    path = tmp_path / "mixed.mesh"
    write_mesh(m, path)
    base = path.read_text().splitlines()
    i_nodes = base.index("nodes")
    for detached, first in [((5,), 5), ((5, 2), 2), ((2, 5), 2)]:
        lines = list(base)
        for e in detached:
            parts = lines[i_nodes + 1 + e].split()
            parts[0] = "0.001"
            lines[i_nodes + 1 + e] = " ".join(parts)
        _expect_reject(tmp_path, lines, match=f"^element {first} corner")


def test_reader_hands_element_checks_to_the_constructor(tmp_path):
    # the constructor's message for the first bad element, in the reader's
    # wrapping; an even but wrong node count is the constructor's
    lines = list(ONE_QUAD)
    lines[8] = "quad 1 1.0 0 1 3 2"
    _expect_reject(tmp_path, lines, match="^malformed mesh file")
    lines[8] = "quad 1 2 0 1 3 2"
    _expect_reject(tmp_path, lines, match=re.escape(
        "malformed mesh file: element 0 has coords (2, 4), expected (2, 9)"))
    lines[8], lines[10] = "quad 1 1 0 1 3 2", "0 0 1 0 0 1 1"
    _expect_reject(tmp_path, lines, match="node block of element 0 has 7")


def test_reader_rejects_bad_faces_and_trailing(tmp_path):
    base = _good_lines(tmp_path)
    i_mf = next(i for i, ln in enumerate(base)
                if ln.startswith("marked_faces"))
    assert base[i_mf] == "marked_faces 1"

    lines = list(base)
    lines[i_mf + 1] = "0 8"  # diagonally opposite vertices share no edge
    _expect_reject(tmp_path, lines, match="no edge between vertices 0 and 8")
    for face in ("-1 0", "0 9", f"0 {1 << 70}"):  # unknown vertices
        lines[i_mf + 1] = face
        _expect_reject(tmp_path, lines)

    lines = list(base)
    lines.append("banana")
    _expect_reject(tmp_path, lines, match="trailing")


@pytest.mark.parametrize("tris, match", [
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], "shared by 3"),
    ([(0, 1, 2), (0, 1, 3)], "same direction"),
    ([(0, 1, 1)], "element 0 has a degenerate edge"),
])
def test_reader_rejects_bad_edges_without_marked_faces(tmp_path, tris, match):
    verts = ["0 0", "1 0", "0.5 1", "0.5 -1", "0.5 2"]
    lines = (["meshfit mesh 1", "dimension 2", f"vertices {len(verts)}"]
             + verts + [f"elements {len(tris)}"]
             + [f"tri 1 1 {a} {b} {c}" for a, b, c in tris] + ["nodes"]
             + [" ".join(verts[v] for v in tri) for tri in tris]
             + ["marked_faces 0"])
    _expect_reject(tmp_path, lines, match=match)


def test_reader_rejects_bad_scalar(tmp_path):
    base = _good_lines(tmp_path, scalar=True)
    i_sc = next(i for i, ln in enumerate(base) if ln.startswith("scalar"))

    lines = list(base)
    lines[i_sc + 1] = lines[i_sc + 1].rsplit(None, 1)[0] if \
        " " in lines[i_sc + 1] else "1"
    _expect_reject(tmp_path, lines)

    lines = base[:i_sc + 2]  # scalar rows missing for three elements
    _expect_reject(tmp_path, lines, match="scalar")

    for bad in ("nan", "inf"):
        lines = list(base)
        lines[i_sc + 1] = " ".join([bad] + lines[i_sc + 1].split()[1:])
        _expect_reject(tmp_path, lines, match="non-finite scalar")


ONE_QUAD = ["meshfit mesh 1", "dimension 2", "vertices 4", "0 0", "1 0", "0 1",
            "1 1", "elements 1", "quad 1 1 0 1 3 2", "nodes",
            "0 0 1 0 0 1 1 1", "marked_faces 0"]


@pytest.mark.parametrize("edits, match", [
    ({0: "meshfit mesh one"}, "malformed mesh file"),
    ({2: "vertices four"}, "malformed mesh file"),
    ({3: "zero 0"}, "malformed mesh file"),
    ({8: "quad x 1 0 1 3 2"}, "malformed mesh file"),
    ({10: "q 0 1 0 0 1 1 1"}, "malformed mesh file"),
    ({11: "marked_faces z"}, "malformed mesh file"),
    ({2: "vertices -1"}, "negative vertices count"),
    ({3: "inf 0", 10: "inf 0 1 0 0 1 1 1"}, "non-finite"),
], ids=["version", "count", "coordinate", "attribute", "node", "faces",
        "negative-count", "inf-vertex"])
def test_reader_rejects_malformed_numbers(tmp_path, edits, match):
    path = tmp_path / "one.mesh"
    path.write_text("\n".join(ONE_QUAD) + "\n")
    read_mesh(path)  # the unedited file is valid
    lines = list(ONE_QUAD)
    for i, line in edits.items():
        lines[i] = line
    _expect_reject(tmp_path, lines, match=match)


def test_reader_ignores_comments_and_blanks(tmp_path):
    lines = _good_lines(tmp_path)
    decorated = ["# produced by hand", ""]
    for ln in lines:
        decorated.append(ln)
        decorated.append("")
    path = tmp_path / "c.mesh"
    path.write_text("\n".join(decorated) + "\n")
    m = read_mesh(path)
    assert len(m.elements) == 4


# ---------------------------------------------------------------------------
# SVG export

def test_svg_structure_and_pixel_anchors(tmp_path):
    m = generate_cartesian(1, 1, 1)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_svg(m, p1)
    export_svg(m, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("<polyline") == 4
    assert text.count("<polygon") == 1
    assert "order 1" in text  # legend entry
    assert 'fill="#dfe8f5"' in text
    # unit square with a 5% margin at 640 px: corner (0, 0) maps to
    # x = 0.05 * 640 / 1.1 = 29.09..., y = 640 - x
    assert "29.09,610.91" in text
    assert "610.91,29.09" in text


def test_svg_renders_curved_edges(tmp_path):
    m = perturbed_mesh(2, 2, 3, seed=2)
    path = tmp_path / "c.svg"
    export_svg(m, path)
    text = path.read_text()
    polys = re.findall(r'<polyline points="([^"]+)"', text)
    assert len(polys) == 4 * 4
    size, margin, scale = 640, 0.05, 640 / 1.1
    t = np.linspace(0.0, 1.0, 17)
    k = 0
    worst = 0.0
    for e, el in enumerate(m.elements):
        ref = reference_element(el.geometry, el.order)
        for le in range(len(el.verts)):
            pix = np.array([[float(v) for v in pt.split(",")]
                            for pt in polys[k].split()])
            phys = np.column_stack([pix[:, 0] / scale - margin,
                                    (size - pix[:, 1]) / scale - margin])
            truth = m.eval_map(e, ref.edge_point(le, t))
            worst = max(worst, np.abs(phys - truth).max())
            k += 1
    # pixel coordinates carry two decimals: half a hundredth of a pixel
    assert worst < 2 * 0.005 / scale + 1e-12


def test_svg_draws_mixed_order_triangles_in_element_order(tmp_path):
    # three (geometry, order) groups whose ids interleave
    m = random_order_mesh(3, 3, orders=(1, 2, 3), seed=4, split_triangles=True)
    assert len(m.groups()) == 3
    path = tmp_path / "t.svg"
    export_svg(m, path)
    text = path.read_text()
    polys = re.findall(r'<polyline points="([^"]+)"', text)
    fills = re.findall(r'<polygon points="([^"]+)"', text)
    assert len(polys) == 3 * len(m.elements) and len(fills) == len(m.elements)
    size, margin, scale = 640, 0.05, 640 / 1.1
    t = np.linspace(0.0, 1.0, 17)  # 16 segments per edge
    for e, el in enumerate(m.elements):
        ref = reference_element(el.geometry, el.order)
        truth = [m.eval_map(e, ref.edge_point(le, t)) for le in range(3)]
        drawn = [polys[3 * e + le] for le in range(3)] + [fills[e]]
        for pts, want in zip(drawn, truth + [np.vstack([p[:-1] for p in truth])]):
            pix = np.array([[float(v) for v in pt.split(",")]
                            for pt in pts.split()])
            phys = np.column_stack([pix[:, 0] / scale - margin,
                                    (size - pix[:, 1]) / scale - margin])
            assert np.abs(phys - want).max() < 2 * 0.005 / scale + 1e-12


def test_svg_points_match_per_point_formatting(tmp_path, monkeypatch):
    # a curved mixed-order mesh, against the writer formatting each point
    # with its own f-string
    m = random_order_mesh(3, 3, orders=(1, 2, 3), seed=4, split_triangles=True)
    dm = m.dof_map()
    t = m.nodes.copy()
    t[dm.num_vertices:] += 0.01 * np.sin(7.0 * t[dm.num_vertices:])
    m.set_nodes(t)
    assert m.min_det() > 0.0
    export_svg(m, tmp_path / "joined.svg", color_by="det")

    def per_point(x, y):
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y))

    monkeypatch.setattr(mesh_io, "_svg_points", per_point)
    export_svg(m, tmp_path / "per_point.svg", color_by="det")
    assert (tmp_path / "joined.svg").read_bytes() \
        == (tmp_path / "per_point.svg").read_bytes()


def test_svg_legend_covers_orders(tmp_path):
    m = random_order_mesh(3, 3, orders=(1, 2, 3), seed=1)
    path = tmp_path / "l.svg"
    export_svg(m, path)
    text = path.read_text()
    for p in sorted(m.order_histogram()):
        assert f"order {p}" in text


def test_svg_color_modes(tmp_path):
    m = generate_cartesian(4, 4, 1)
    mark_interface_faces(m, ANALYTIC_LEVELSETS["circle"]())
    export_svg(m, tmp_path / "m.svg", color_by="material")
    text = (tmp_path / "m.svg").read_text()
    assert 'fill="#fdd49e"' in text and 'fill="#a1d99b"' in text
    export_svg(m, tmp_path / "d.svg", color_by="det")
    assert (tmp_path / "d.svg").stat().st_size > 0
    with pytest.raises(ValueError):
        export_svg(m, tmp_path / "x.svg", color_by="rainbow")


# ---------------------------------------------------------------------------
# VTK export

def _parse_vtk(path):
    lines = path.read_text().splitlines()
    n_pts = int(lines[4].split()[1])
    pts = np.array([[float(v) for v in ln.split()]
                    for ln in lines[5:5 + n_pts]])
    i = 5 + n_pts
    n_cells = int(lines[i].split()[1])
    cells = [[int(v) for v in ln.split()[1:]]
             for ln in lines[i + 1:i + 1 + n_cells]]
    i += 1 + n_cells
    assert lines[i] == f"CELL_TYPES {n_cells}"
    types = [int(v) for v in lines[i + 1:i + 1 + n_cells]]
    i += 1 + n_cells
    assert lines[i] == f"CELL_DATA {n_cells}"
    assert lines[i + 1] == "SCALARS element_order int 1"
    orders = [int(v) for v in lines[i + 3:i + 3 + n_cells]]
    i += 3 + n_cells
    assert lines[i] == "SCALARS material int 1"
    materials = [int(v) for v in lines[i + 2:i + 2 + n_cells]]
    return pts, cells, types, orders, materials


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def test_vtk_single_p1_quad(tmp_path):
    m = generate_cartesian(1, 1, 1)
    path = tmp_path / "q.vtk"
    export_vtk(m, path)
    pts, cells, types, orders, materials = _parse_vtk(path)
    assert len(cells) == 1 and types == [9]
    assert orders == [1] and materials == [1]
    assert np.isclose(_shoelace(pts[cells[0]][:, :2]), 1.0)


def test_vtk_subdivision_counts_and_area(tmp_path):
    m = generate_cartesian(2, 2, 3)
    path = tmp_path / "s.vtk"
    export_vtk(m, path)
    pts, cells, types, orders, materials = _parse_vtk(path)
    assert len(cells) == 4 * 9  # each order-3 quad splits into 9 cells
    assert set(types) == {9}
    assert orders == [3] * 36
    area = sum(_shoelace(pts[c][:, :2]) for c in cells)
    assert np.isclose(area, 1.0, atol=1e-12)
    assert all(_shoelace(pts[c][:, :2]) > 0 for c in cells)


def test_vtk_triangles(tmp_path):
    m = generate_cartesian(1, 1, 2, split_triangles=True)
    path = tmp_path / "t.vtk"
    export_vtk(m, path)
    pts, cells, types, orders, materials = _parse_vtk(path)
    assert len(cells) == 2 * 4  # each order-2 triangle splits into 4
    assert set(types) == {5}
    area = sum(_shoelace(pts[c][:, :2]) for c in cells)
    assert np.isclose(area, 1.0, atol=1e-12)


def test_vtk_deterministic(tmp_path):
    m = perturbed_mesh(2, 2, 2, seed=9)
    export_vtk(m, tmp_path / "a.vtk")
    export_vtk(m, tmp_path / "b.vtk")
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()


# ---------------------------------------------------------------------------
# command line

def _run_cli(args):
    return cli.main(args)


def test_cli_single_fit_run(tmp_path):
    prefix = str(tmp_path / "run")
    assert _run_cli(["--generate", "4,4,1", "--levelset", "name:circle",
                     "--fit-tol", "1e-6", "--out-prefix", prefix]) == 0
    for ext in (".mesh", ".svg", ".vtk", "_history.csv"):
        assert (tmp_path / f"run{ext}").exists()
    hist = (tmp_path / "run_history.csv").read_text().splitlines()
    assert hist[0].split(",")[:3] == ["iteration", "objective_before",
                                      "objective_after"]
    assert len(hist) > 1
    m = read_mesh(prefix + ".mesh")
    assert m.min_det() > 0.0
    assert m.marked_faces


def test_cli_reruns_are_byte_identical(tmp_path):
    args = ["--generate", "4,4,1", "--levelset", "name:circle",
            "--fit-tol", "1e-6"]
    _run_cli(args + ["--out-prefix", str(tmp_path / "one")])
    _run_cli(args + ["--out-prefix", str(tmp_path / "two")])
    for ext in (".mesh", ".svg", ".vtk", "_history.csv"):
        a = (tmp_path / f"one{ext}").read_bytes()
        b = (tmp_path / f"two{ext}").read_bytes()
        assert a == b, ext


def test_cli_adaptive_run(tmp_path):
    prefix = str(tmp_path / "adapt")
    assert _run_cli(["--generate", "4,4,1", "--levelset", "name:circle",
                     "--p-init", "1", "--p-max", "2", "--fit-tol", "1e-6",
                     "--out-prefix", prefix]) == 0
    hist = (tmp_path / "adapt_history.csv").read_text().splitlines()
    assert hist[0].split(",")[:4] == ["outer", "phase", "dofs", "e_F"]
    phases = [ln.split(",")[1] for ln in hist[1:]]
    assert phases[0] == "initial" and phases[-1] == "final"
    m = read_mesh(prefix + ".mesh")
    assert m.order_histogram().get(2, 0) > 0


def test_cli_mesh_file_input(tmp_path):
    m = perturbed_mesh(3, 3, 1, seed=4)
    src = tmp_path / "in.mesh"
    write_mesh(m, src)
    prefix = str(tmp_path / "out")
    assert _run_cli(["--mesh", str(src), "--out-prefix", prefix]) == 0
    m2 = read_mesh(prefix + ".mesh")
    # pure quality pass on a perturbed mesh moves interior nodes
    assert m2.min_det() > 0.0
    assert len(m2.elements) == len(m.elements)


def test_cli_argument_errors(tmp_path):
    with pytest.raises(SystemExit):
        _run_cli(["--out-prefix", str(tmp_path / "x")])  # no mesh source
    with pytest.raises(SystemExit):
        _run_cli(["--generate", "4,4", "--out-prefix", str(tmp_path / "x")])
    with pytest.raises(SystemExit):
        _run_cli(["--generate", "2,2,1", "--levelset", "name:circle",
                  "--p-init", "1", "--out-prefix", str(tmp_path / "x")])
    with pytest.raises(SystemExit):
        _run_cli(["--generate", "2,2,1", "--p-init", "1", "--p-max", "2",
                  "--out-prefix", str(tmp_path / "x")])  # no levelset
    with pytest.raises(SystemExit):
        _run_cli(["--generate", "2,2,1", "--levelset", "name:circle",
                  "--p-init", "1", "--p-max", "2", "--refine", "maybe:1",
                  "--out-prefix", str(tmp_path / "x")])
    with pytest.raises(SystemExit):
        _run_cli(["--generate", "2,2,1", "--levelset", "name:circle",
                  "--p-init", "1", "--p-max", "2", "--deref", "b9:1",
                  "--out-prefix", str(tmp_path / "x")])
    with pytest.raises(SystemExit, match="^meshfit: fit_weight"):
        _run_cli(["--generate", "2,2,1", "--levelset", "name:circle",
                  "--fit-weight", "-1", "--out-prefix", str(tmp_path / "x")])
    with pytest.raises(SystemExit):  # argparse rejects the metric choice
        _run_cli(["--generate", "2,2,1", "--metric", "9"])
    # bad input files and specs end in one message, not a traceback
    malformed = tmp_path / "malformed.mesh"
    malformed.write_text("meshfit mesh 1\ndimension 2\nvertices four\n")
    inverted = tmp_path / "inverted.mesh"
    m = generate_cartesian(2, 2, 1)
    t = m.nodes.copy()
    t[np.all(t == 0.5, axis=1)] = [1.5, 0.5]  # folds the left elements
    m.set_nodes(t)
    assert m.min_det() < 0.0
    write_mesh(m, inverted)
    # a background field over the lower left quarter of the unit square only
    partial = tmp_path / "partial.mesh"
    bg = generate_cartesian(2, 2, 1, box=(0.0, 0.0, 0.5, 0.5))
    write_mesh(bg, partial, scalar=DiscreteLevelSet.sample(
        bg, ANALYTIC_LEVELSETS["squircle2d"]()).blocks)
    # a background field with one nan value
    with_nan = tmp_path / "nan.mesh"
    bg = generate_cartesian(4, 4, 1)
    blocks = DiscreteLevelSet.sample(
        bg, ANALYTIC_LEVELSETS["squircle2d"]()).blocks
    blocks[5][2] = 12345.0  # written finite, then edited to nan, since
    write_mesh(bg, with_nan, scalar=blocks)  # write_mesh rejects nan
    text = with_nan.read_text()
    assert text.count(" 12345 ") == 1
    with_nan.write_text(text.replace(" 12345 ", " nan "))
    adaptive = ["--levelset", "name:squircle2d", "--p-init", "1",
                "--p-max", "3"]
    for args in (["--mesh", str(malformed)],
                 ["--mesh", str(tmp_path / "missing.mesh")],
                 ["--generate", "2,2,1", "--levelset", "name:foo"],
                 ["--generate", "2,2,1", "--levelset", f"file:{malformed}"],
                 ["--mesh", str(inverted)],
                 ["--generate", "4,4,1", "--levelset", "name:squircle2d",
                  "--p-init", "3", "--p-max", "1"],
                 ["--generate", "4,4,1", *adaptive, "--dp", "0"],
                 ["--generate", "4,4,2", *adaptive],
                 ["--generate", "4,4,1", "--levelset", f"file:{partial}"],
                 ["--generate", "4,4,1", "--levelset", f"file:{with_nan}"],
                 ["--generate", "4,4,1", "--levelset", "name:circle",
                  "--fit-tol", "nan"],
                 ["--generate", "4,4,1", "--levelset", "name:circle",
                  "--max-outer", "-3"],
                 ["--generate", "4,4,1", *adaptive, "--refine", "abs:nan"]):
        with pytest.raises(SystemExit, match="^meshfit: "):
            _run_cli(args + ["--out-prefix", str(tmp_path / "x")])


def test_make_levelset_checks_a_file_scalar_block_once(tmp_path, monkeypatch):
    # read_mesh checks the blocks (check_node_blocks); the field reuses them
    bg = generate_cartesian(3, 3, 2)
    path = tmp_path / "bg.mesh"
    write_mesh(bg, path, scalar=DiscreteLevelSet.sample(
        bg, ANALYTIC_LEVELSETS["circle"]()).blocks)
    calls = []

    def spy(mesh, blocks):
        calls.append(len(blocks))
        return check(mesh, blocks)

    check = mesh_io.check_node_blocks
    monkeypatch.setattr(mesh_io, "check_node_blocks", spy)
    monkeypatch.setattr(levelset, "check_node_blocks", spy)
    field = make_levelset(f"file:{path}")
    assert calls == [len(bg.elements)]
    assert all(b.dtype == float for b in field.blocks)
    # a field built directly still checks its blocks
    DiscreteLevelSet(bg, field.blocks)
    assert len(calls) == 2


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[:-1], "one scalar block per element required"),
    (lambda rows: [rows[0] + " 1.0"] + rows[1:],
     "block 0 has shape (10,), expected (9,)"),
    (lambda rows: ["nan " + rows[0].split(None, 1)[1]] + rows[1:],
     "non-finite scalar value"),
], ids=["missing", "shape", "nan"])
def test_a_malformed_scalar_block_raises_one_error_from_both_readers(
        tmp_path, edit, message):
    bg = generate_cartesian(2, 2, 2)
    path = tmp_path / "bg.mesh"
    write_mesh(bg, path, scalar=DiscreteLevelSet.sample(
        bg, ANALYTIC_LEVELSETS["circle"]()).blocks)
    lines = path.read_text().splitlines()
    at = lines.index("scalar sigma") + 1
    path.write_text("\n".join(lines[:at] + edit(lines[at:])) + "\n")
    want = f"^malformed mesh file: {re.escape(message)}$"
    with pytest.raises(MeshFileError, match=want):
        read_mesh(path, with_scalar=True)
    with pytest.raises(MeshFileError, match=want):
        make_levelset(f"file:{path}")
