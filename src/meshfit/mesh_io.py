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
is byte stable.  See docs/meshfile.md for the grammar.
"""

from __future__ import annotations

import numpy as np

from .basis import QUAD, TRI, reference_element
from .errors import MeshFileError
from .mesh import MeshElement, MixedOrderMesh, element_min_dets

FORMAT_NAME = "meshfit mesh"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def generate_cartesian(nx: int, ny: int, order: int,
                       box=(0.0, 0.0, 1.0, 1.0),
                       split_triangles: bool = False) -> MixedOrderMesh:
    """Cartesian mesh of the rectangle ``box`` with ``nx`` by ``ny`` cells.

    Element nodes are placed at Gauss-Lobatto positions; cells are split into
    two triangles each when ``split_triangles`` is set.

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

    def vid(i, j):
        return j * (nx + 1) + i

    vertices = np.array([[xs[i], ys[j]]
                         for j in range(ny + 1) for i in range(nx + 1)])
    elements = []
    geometry = TRI if split_triangles else QUAD
    ref = reference_element(geometry, order)
    for j in range(ny):
        for i in range(nx):
            corner_ids = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            quads = ([corner_ids[:3], [corner_ids[0], corner_ids[2], corner_ids[3]]]
                     if split_triangles else [corner_ids])
            for verts in quads:
                pts = vertices[verts]
                if geometry == QUAD:
                    # bilinear in the reference square
                    u, v = ref.nodes[:, 0], ref.nodes[:, 1]
                    coords = (np.outer(pts[0], (1 - u) * (1 - v))
                              + np.outer(pts[1], u * (1 - v))
                              + np.outer(pts[2], u * v)
                              + np.outer(pts[3], (1 - u) * v))
                else:
                    u, v = ref.nodes[:, 0], ref.nodes[:, 1]
                    coords = (np.outer(pts[0], 1 - u - v)
                              + np.outer(pts[1], u) + np.outer(pts[2], v))
                elements.append(MeshElement(geometry, np.array(verts), order, coords))
    return MixedOrderMesh(vertices, elements)


# ---------------------------------------------------------------------------
# Text format


def write_mesh(mesh: MixedOrderMesh, path, scalar=None, scalar_name="sigma"):
    """Write a mesh (and optionally a nodal scalar field) to ``path``."""
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
        a, b = mesh.edges[k].verts
        lines.append(f"{a} {b}")
    if scalar is not None:
        lines.append(f"scalar {scalar_name}")
        for block in scalar:
            lines.append(" ".join(_fmt(x) for x in np.asarray(block)))
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
        if len(remaining) != 1 + len(mesh.elements):
            raise MeshFileError("scalar block has the wrong number of lines")
        scalar_blocks = []
        for el, line in zip(mesh.elements, remaining[1:]):
            ref = reference_element(el.geometry, el.order)
            parts = line.split()
            if len(parts) != ref.num_nodes:
                raise MeshFileError(
                    f"scalar block row has {len(parts)} values, expected {ref.num_nodes}")
            scalar_blocks.append(np.array([float(x) for x in parts]))
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


def export_svg(mesh: MixedOrderMesh, path, color_by: str = "order",
               segments_per_edge: int = 16, size: int = 640):
    """Write an SVG rendering of the mesh.

    Curved edges are drawn as ``segments_per_edge``-segment polylines;
    elements are filled according to ``color_by`` in {"order", "material",
    "det"}, with a legend for the order palette.
    """
    if color_by not in ("order", "material", "det"):
        raise ValueError(f"unknown color mode {color_by!r}")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    margin = 0.05 * span
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

    t = np.linspace(0.0, 1.0, segments_per_edge + 1)
    # each element's edge points, (local edge, t, 2), from one basis
    # evaluation per (geometry, order) group
    outlines = [None] * len(mesh.elements)
    for (geometry, order), ids in mesh.groups().items():
        ref = reference_element(geometry, order)
        edges = [ref.edge_point(le, t) for le in range(len(ref.corners))]
        pts = ref.eval_basis(np.vstack(edges)) @ mesh.group_coords(ids)
        for e, p in zip(ids, pts.reshape(len(ids), len(edges), t.size, 2)):
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

def export_vtk(mesh: MixedOrderMesh, path):
    """Write a legacy ASCII VTK file, tessellating each element into linear cells.

    An order-p element becomes p*p linear cells (quads, or p*p triangles for
    triangular elements); cell data carries the element order and material.
    """
    points = []
    cells = []
    cell_types = []
    cell_order = []
    cell_material = []
    for e, el in enumerate(mesh.elements):
        p = el.order
        base = len(points)
        points.extend(el.coords.T.tolist())
        if el.geometry == QUAD:
            def nid(i, j):
                return base + j * (p + 1) + i
            for j in range(p):
                for i in range(p):
                    cells.append([nid(i, j), nid(i + 1, j),
                                  nid(i + 1, j + 1), nid(i, j + 1)])
                    cell_types.append(9)
                    cell_order.append(p)
                    cell_material.append(el.attribute)
        else:
            offsets = [0]
            for j in range(p + 1):
                offsets.append(offsets[-1] + p + 1 - j)

            def tid(i, j):
                return base + offsets[j] + i
            for j in range(p):
                for i in range(p - j):
                    cells.append([tid(i, j), tid(i + 1, j), tid(i, j + 1)])
                    cell_types.append(5)
                    cell_order.append(p)
                    cell_material.append(el.attribute)
                    if i + j < p - 1:
                        cells.append([tid(i + 1, j), tid(i + 1, j + 1), tid(i, j + 1)])
                        cell_types.append(5)
                        cell_order.append(p)
                        cell_material.append(el.attribute)
    lines = ["# vtk DataFile Version 3.0", "meshfit export", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    for x, y in points:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0")
    total = sum(len(c) + 1 for c in cells)
    lines.append(f"CELLS {len(cells)} {total}")
    for c in cells:
        lines.append(f"{len(c)} " + " ".join(map(str, c)))
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend(str(t) for t in cell_types)
    lines.append(f"CELL_DATA {len(cells)}")
    lines.append("SCALARS element_order int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(p) for p in cell_order)
    lines.append("SCALARS material int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(m) for m in cell_material)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
