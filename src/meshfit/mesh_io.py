"""Mesh generation, the plain-text mesh format, and SVG / legacy VTK export.

The text format (version 1) is line oriented:

    meshfit mesh 1
    dimension 2
    vertices <nv>
    <x> <y>                      # one line per vertex
    elements <ne>
    <quad|tri> <attribute> <order> <v0> <v1> <v2> [<v3>]
    nodes
    <num_nodes floats x0 y0 x1 y1 ...>   # one line per element
    marked_faces <nf>
    <va> <vb>                    # edge identified by its vertex pair
    [scalar <name>]
    [<num_nodes floats>]         # one line per element, optional block

All floats are written with 17 significant digits, so write -> read -> write
is byte stable.  See docs/meshfile.md for the grammar.  ``write_mesh``
and ``read_mesh`` check a scalar block by one rule, ``check_node_blocks``;
the writer checks before it writes anything.  The VTK export splits each
element into its kind's ``ReferenceElement.sub_cells``.
"""

from __future__ import annotations

import numpy as np

from .basis import QUAD, TRI, edge_samples, reference_element
from .errors import MeshFileError
from .mesh import (MeshElement, MixedOrderMesh, check_node_blocks,
                   element_min_dets)

FORMAT_NAME = "meshfit mesh"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def generate_cartesian(nx: int, ny: int, order: int,
                       box=(0.0, 0.0, 1.0, 1.0),
                       split_triangles: bool = False) -> MixedOrderMesh:
    """Cartesian mesh of the rectangle ``box`` with ``nx`` by ``ny`` cells.

    Element nodes are placed at Gauss-Lobatto positions by one broadcast of
    the bilinear (quad) or linear (triangle) corner map over all elements;
    cells are split into two triangles each when ``split_triangles`` is
    set.

    Parameters
    ----------
    nx, ny : int
        Cell counts per direction, at least 1.
    order : int
        Polynomial order of every element.
    box : tuple
        (xmin, ymin, xmax, ymax); must have positive extents.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got {nx} x {ny}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    xmin, ymin, xmax, ymax = map(float, box)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate box {box}")
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    vertices = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    # cell corner ids counterclockwise from the lower left, cells by rows
    lower_left = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    corners = lower_left[:, None] + np.array([0, 1, nx + 2, nx + 1])
    geometry = TRI if split_triangles else QUAD
    verts = (corners[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3)
             if split_triangles else corners)
    X = vertices[verts].transpose(1, 0, 2)[..., None]  # (corner, E, 2, 1)
    u, v = reference_element(geometry, order).nodes.T
    if split_triangles:
        coords = X[0] * (1 - u - v) + X[1] * u + X[2] * v
    else:
        # bilinear in the reference square
        coords = (X[0] * ((1 - u) * (1 - v)) + X[1] * (u * (1 - v))
                  + X[2] * (u * v) + X[3] * ((1 - u) * v))
    return MixedOrderMesh(vertices, [
        MeshElement(geometry, ids, order, c) for ids, c in zip(verts, coords)])


# ---------------------------------------------------------------------------
# Text format


def write_mesh(mesh: MixedOrderMesh, path, scalar=None):
    """Write a mesh (and optionally a nodal scalar field, as the ``scalar
    sigma`` block) to ``path``.

    Raises ``ValueError``, and writes nothing, unless ``scalar`` is None or
    one finite block per element with a value per node of that element.
    """
    if scalar is not None:
        scalar = check_node_blocks(mesh, scalar)
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", "dimension 2"]
    lines.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        lines.append(f"{_fmt(v[0])} {_fmt(v[1])}")
    lines.append(f"elements {len(mesh.elements)}")
    for el in mesh.elements:
        ids = " ".join(str(int(v)) for v in el.verts)
        lines.append(f"{el.geometry} {el.attribute} {el.order} {ids}")
    lines.append("nodes")
    for el in mesh.elements:
        flat = el.coords.T.ravel()
        lines.append(" ".join(_fmt(x) for x in flat))
    faces = sorted(mesh.marked_faces)
    lines.append(f"marked_faces {len(faces)}")
    for k in faces:
        a, b = mesh.edge_vertex_ids[k]
        lines.append(f"{a} {b}")
    if scalar is not None:
        lines.append("scalar sigma")
        for block in scalar:
            lines.append(" ".join(_fmt(x) for x in block))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _expect(tokens, what, n=None):
    if n is not None and len(tokens) != n:
        raise MeshFileError(f"malformed {what} line: {' '.join(tokens)!r}")
    return tokens


def _count(tokens, what):
    """The count n of a "<what> <n>" block header line."""
    _expect(tokens, what, 2)
    if tokens[0] != what:
        raise MeshFileError(f"expected {what} block")
    n = int(tokens[1])
    if n < 0:
        raise MeshFileError(f"negative {what} count {n}")
    return n


def read_mesh(path, with_scalar: bool = False):
    """Read a mesh file; returns the mesh, or (mesh, scalar blocks) if requested.

    Every malformed file raises ``MeshFileError``.
    """
    with open(path) as f:
        raw = [ln.strip() for ln in f]
    try:
        mesh, scalar_blocks = _parse_mesh(
            [ln for ln in raw if ln and not ln.startswith("#")])
    except MeshFileError:
        raise
    except ValueError as exc:  # a non-numeric token or a structure error
        raise MeshFileError(f"malformed mesh file: {exc}") from exc
    return (mesh, scalar_blocks) if with_scalar else mesh


def _parse_mesh(lines):
    """The mesh and its scalar blocks (None without a scalar block) from the
    content lines of a mesh file."""
    it = iter(lines)

    def next_line(what):
        try:
            return next(it)
        except StopIteration:
            raise MeshFileError(f"unexpected end of file, expected {what}") from None

    header = next_line("header").split()
    if header[:2] != FORMAT_NAME.split() or len(header) != 3:
        raise MeshFileError(f"not a {FORMAT_NAME} file")
    if int(header[2]) != FORMAT_VERSION:
        raise MeshFileError(f"unsupported format version {header[2]}")
    dim = _expect(next_line("dimension").split(), "dimension", 2)
    if dim[0] != "dimension" or dim[1] != "2":
        raise MeshFileError("only dimension 2 is supported")

    nv = _count(next_line("vertices").split(), "vertices")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        parts = _expect(next_line("vertex").split(), "vertex", 2)
        vertices[i] = [float(parts[0]), float(parts[1])]
    if not np.isfinite(vertices).all():
        raise MeshFileError("non-finite vertex coordinate")
    _reject_duplicate_vertices(vertices)

    ne = _count(next_line("elements").split(), "elements")
    headers = []
    for _ in range(ne):
        parts = next_line("element").split()
        geometry = parts[0]
        if geometry not in (QUAD, TRI):
            raise MeshFileError(f"unknown element geometry {geometry!r}")
        want = 4 if geometry == QUAD else 3
        _expect(parts, "element", 3 + want)
        attribute, order = int(parts[1]), int(parts[2])
        if order < 1:
            raise MeshFileError(f"element order must be >= 1, got {order}")
        verts = np.array([int(x) for x in parts[3:]])
        if verts.min() < 0 or verts.max() >= nv:
            raise MeshFileError("element references unknown vertex")
        headers.append((geometry, attribute, order, verts))

    if next_line("nodes").split() != ["nodes"]:
        raise MeshFileError("expected nodes block")
    elements = []
    for geometry, attribute, order, verts in headers:
        ref = reference_element(geometry, order)
        parts = next_line("node block").split()
        if len(parts) != 2 * ref.num_nodes:
            raise MeshFileError(
                f"node block has {len(parts)} values, expected {2 * ref.num_nodes}")
        coords = np.array([float(x) for x in parts]).reshape(-1, 2).T.copy()
        if not np.isfinite(coords).all():
            raise MeshFileError("non-finite node coordinate")
        elements.append(MeshElement(geometry, verts, order, coords, attribute))

    mesh = MixedOrderMesh(vertices, elements)
    for e, el in enumerate(mesh.elements):
        ref = reference_element(el.geometry, el.order)
        stored = el.coords[:, ref.corners].T
        if not np.array_equal(stored, vertices[el.verts]):
            raise MeshFileError(
                f"element {e} corner nodes disagree with the shared vertex table")

    for _ in range(_count(next_line("marked_faces").split(), "marked_faces")):
        a, b = (int(x) for x in _expect(next_line("face").split(), "face", 2))
        mesh.marked_faces.add(mesh.edge_id(a, b))

    scalar_blocks = None
    remaining = list(it)
    if remaining:
        tok = remaining[0].split()
        if tok[0] != "scalar" or len(tok) != 2:
            raise MeshFileError(f"unexpected trailing content: {remaining[0]!r}")
        # a ValueError here is a malformed file to read_mesh
        scalar_blocks = check_node_blocks(
            mesh, [[float(x) for x in ln.split()] for ln in remaining[1:]])
    return mesh, scalar_blocks


def _reject_duplicate_vertices(vertices: np.ndarray, tol: float = 1e-14):
    if len(vertices) < 2:
        return
    order = np.lexsort((vertices[:, 1], vertices[:, 0]))
    sv = vertices[order]
    close = np.hypot(*np.diff(sv, axis=0).T) < tol
    if np.any(close):
        k = int(np.nonzero(close)[0][0])
        raise MeshFileError(
            f"vertices {order[k]} and {order[k + 1]} coincide within {tol}")


# ---------------------------------------------------------------------------
# SVG export

_ORDER_COLORS = {1: "#dfe8f5", 2: "#9ecae1", 3: "#4292c6", 4: "#08519c",
                 5: "#08306b", 6: "#041f42"}
_MATERIAL_COLORS = {1: "#fdd49e", 2: "#a1d99b"}


def _color_for(el, mode, det_range, d):
    if mode == "order":
        return _ORDER_COLORS.get(el.order, "#222222")
    if mode == "material":
        return _MATERIAL_COLORS.get(el.attribute, "#cccccc")
    lo, hi = det_range
    if d <= 0.0:
        return "#d73027"
    span = hi - lo if hi > lo else 1.0
    frac = (d - lo) / span
    c0, c1 = np.array([255, 255, 224]), np.array([0, 104, 55])
    rgb = (c0 + frac * (c1 - c0)).astype(int)
    return "#%02x%02x%02x" % tuple(rgb)


def _svg_points(x: np.ndarray, y: np.ndarray) -> str:
    """SVG ``points`` value "x,y x,y ..." of pixel coordinates at two
    decimals, as one ``%`` format over the point tuple."""
    return " ".join(["%.2f,%.2f"] * len(x)) \
        % tuple(np.column_stack([x, y]).ravel().tolist())


def export_svg(mesh: MixedOrderMesh, path, color_by: str = "order"):
    """Write a 640x640-pixel SVG rendering of the mesh.

    Curved edges are drawn as 16-segment polylines; elements are filled
    according to ``color_by`` in {"order", "material", "det"}, with a legend
    for the order palette.
    """
    if color_by not in ("order", "material", "det"):
        raise ValueError(f"unknown color mode {color_by!r}")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    margin = 0.05 * span
    size = 640
    scale = size / (span + 2 * margin)

    def to_px(pts):
        x = (pts[..., 0] - lo[0] + margin) * scale
        y = size - (pts[..., 1] - lo[1] + margin) * scale
        return x, y

    det_range = (0.0, 1.0)
    dets = np.zeros(len(mesh.elements))
    if color_by == "det":
        groups = mesh.groups()
        for ids, d in zip(groups.values(), element_min_dets(
                (key, mesh.group_coords(ids)) for key, ids in groups.items())):
            dets[ids] = d
        det_range = (float(dets.min()), float(dets.max()))

    # each element's edge points, (local edge, t, 2), 16 segments per edge,
    # from one product per (geometry, order) group
    outlines = [None] * len(mesh.elements)
    for key, ids in mesh.groups().items():
        pts = edge_samples(*key, 16) @ mesh.group_coords(ids)
        for e, p in zip(ids, pts.reshape(len(ids), -1, 17, 2)):
            outlines[e] = p
    body = []
    edge_paths = []
    for e, el in enumerate(mesh.elements):
        px, py = to_px(outlines[e])
        for ex, ey in zip(px, py):
            edge_paths.append(f'<polyline points="{_svg_points(ex, ey)}" />')
        poly = _svg_points(px[:, :-1].ravel(), py[:, :-1].ravel())
        fill = _color_for(el, color_by, det_range, float(dets[e]))
        body.append(f'<polygon points="{poly}" fill="{fill}" stroke="none" />')
    body.extend(['<g fill="none" stroke="#333333" stroke-width="1">']
                + edge_paths + ["</g>"])

    if color_by == "order":
        orders = sorted(mesh.order_histogram())
        for i, p in enumerate(orders):
            y = 12 + 18 * i
            color = _ORDER_COLORS.get(p, "#222222")
            body.append(f'<rect x="6" y="{y - 9}" width="12" height="12" '
                        f'fill="{color}" stroke="#333333" />')
            body.append(f'<text x="22" y="{y + 1}" font-size="12" '
                        f'font-family="sans-serif">order {p}</text>')

    svg = "\n".join(
        ['<?xml version="1.0" encoding="UTF-8"?>',
         f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">']
        + body + ["</svg>"])
    with open(path, "w") as f:
        f.write(svg + "\n")


# ---------------------------------------------------------------------------
# Legacy VTK export

#: VTK cell type of the linear sub-cells of each geometry
_VTK_CELL_TYPES = {QUAD: 9, TRI: 5}


def export_vtk(mesh: MixedOrderMesh, path):
    """Write a legacy ASCII VTK file, tessellating each element into linear cells.

    An order-p element becomes the p*p linear cells (quads, or triangles
    for triangular elements) of its reference element's ``sub_cells``;
    cell data carries the element order and material.
    """
    points, cells, data = [], [], []
    for el in mesh.elements:
        ref = reference_element(el.geometry, el.order)
        cells += (ref.sub_cells + len(points)).tolist()
        points += el.coords.T.tolist()
        data += [(el.geometry, el.order, el.attribute)] * len(ref.sub_cells)
    lines = ["# vtk DataFile Version 3.0", "meshfit export", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    lines += [f"{_fmt(x)} {_fmt(y)} 0" for x, y in points]
    lines.append(f"CELLS {len(cells)} {sum(len(c) + 1 for c in cells)}")
    lines += [f"{len(c)} " + " ".join(map(str, c)) for c in cells]
    lines += [f"CELL_TYPES {len(cells)}",
              *(str(_VTK_CELL_TYPES[g]) for g, _, _ in data),
              f"CELL_DATA {len(cells)}", "SCALARS element_order int 1",
              "LOOKUP_TABLE default", *(str(p) for _, p, _ in data),
              "SCALARS material int 1", "LOOKUP_TABLE default",
              *(str(m) for _, _, m in data)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
