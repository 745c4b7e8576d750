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
is byte stable.  See docs/meshfile.md for the grammar.  ``read_mesh``
checks what only a file can get wrong (tokens, numbers, coinciding
vertices, corner nodes) and leaves every element rule to the
``MixedOrderMesh`` constructor.  ``write_mesh`` and ``read_mesh`` check a
scalar block by one rule, ``check_node_blocks``; the writer checks before
it writes anything.  The VTK export splits each element into its kind's
``ReferenceElement.sub_cells``.
"""

from __future__ import annotations

import numpy as np

from .basis import (QUAD, TRI, edge_samples, is_count, is_real,
                    reference_element)
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
        Cell counts per direction, each an integer >= 1 other than a bool
        (``basis.is_count``); ``ValueError`` otherwise.
    order : int
        Polynomial order of every element; ``MeshStructureError`` unless
        it makes an element kind (``basis.check_kind``).
    box : tuple
        (xmin, ymin, xmax, ymax), four real numbers other than bools
        (``basis.is_real``) with positive extents; ``ValueError``
        otherwise.
    """
    if not (is_count(nx) and is_count(ny)):
        raise ValueError(f"cell counts must be integers >= 1, got {nx!r} x "
                         f"{ny!r}")
    if not (len(box) == 4 and all(map(is_real, box))):
        raise ValueError(f"box must be four real numbers, got {box!r}")
    geometry = TRI if split_triangles else QUAD
    u, v = reference_element(geometry, order).nodes.T
    xmin, ymin, xmax, ymax = map(float, box)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"degenerate box {box}")
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    vertices = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    # cell corner ids counterclockwise from the lower left, cells by rows
    lower_left = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    corners = lower_left[:, None] + np.array([0, 1, nx + 2, nx + 1])
    verts = (corners[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3)
             if split_triangles else corners)
    X = vertices[verts].transpose(1, 0, 2)[..., None]  # (corner, E, 2, 1)
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
    faces = sorted(mesh.marked_faces)
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", "dimension 2",
             f"vertices {len(mesh.vertices)}",
             *(f"{_fmt(x)} {_fmt(y)}" for x, y in mesh.vertices),
             f"elements {len(mesh.elements)}",
             *(f"{el.geometry} {el.attribute} {el.order} "
               + " ".join(map(str, el.verts.tolist())) for el in mesh.elements),
             "nodes",
             *(" ".join(map(_fmt, el.coords.T.ravel())) for el in mesh.elements),
             f"marked_faces {len(faces)}",
             *(f"{a} {b}" for a, b in mesh.edge_vertex_ids[faces].tolist())]
    if scalar is not None:
        lines += ["scalar sigma", *(" ".join(map(_fmt, b)) for b in scalar)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _expect(tokens, what, n):
    if len(tokens) != n:
        raise MeshFileError(f"malformed {what} line: {' '.join(tokens)!r}")
    return tokens


def _count(tokens, what):
    """The count n of a "<what> <n>" block header line."""
    if _expect(tokens, what, 2)[0] != what:
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
        lines = [ln for ln in map(str.strip, f) if ln and ln[0] != "#"]
    try:
        mesh, scalar_blocks = _parse_mesh(lines)
    except MeshFileError:
        raise
    except (ValueError, OverflowError) as exc:  # a bad token or structure
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
    vertices = np.array([_expect(next_line("vertex").split(), "vertex", 2)
                         for _ in range(nv)], dtype=float).reshape(nv, 2)
    if not np.isfinite(vertices).all():
        raise MeshFileError("non-finite vertex coordinate")
    _reject_duplicate_vertices(vertices)

    heads = []
    for _ in range(_count(next_line("elements").split(), "elements")):
        parts = next_line("element").split()
        if len(parts) < 3:
            raise MeshFileError(f"malformed element line: {' '.join(parts)!r}")
        geometry, attribute, order, *verts = parts
        heads.append((geometry, int(attribute), int(order),
                      [int(v) for v in verts]))
    if next_line("nodes").split() != ["nodes"]:
        raise MeshFileError("expected nodes block")
    blocks = [next_line("node block").split() for _ in heads]
    sizes = np.array([len(b) for b in blocks], dtype=int)
    odd = np.flatnonzero(sizes % 2)
    if odd.size:
        raise MeshFileError(f"node block of element {odd[0]} has "
                            f"{sizes[odd[0]]} values, not x y pairs")
    # every element's nodes, one (x, y) row each, in element order
    nodes = np.array([x for b in blocks for x in b],
                     dtype=float).reshape(-1, 2)
    if not np.isfinite(nodes).all():
        raise MeshFileError("non-finite node coordinate")
    starts = np.cumsum(sizes // 2) - sizes // 2
    mesh = MixedOrderMesh(vertices, [
        MeshElement(geometry, verts, order, X.T, attribute)
        for (geometry, attribute, order, verts), X
        in zip(heads, np.split(nodes, starts[1:]))])
    bad = []
    for key, ids in mesh.groups().items():
        corners = reference_element(*key).corners
        off = (nodes[starts[ids, None] + corners] != vertices[
            mesh.element_vertex_ids[ids, :len(corners)]]).any(axis=(1, 2))
        bad += ids[off][:1].tolist()
    if bad:
        raise MeshFileError(f"element {min(bad)} corner nodes disagree with "
                            "the shared vertex table")

    faces = [[int(x) for x in _expect(next_line("face").split(), "face", 2)]
             for _ in range(_count(next_line("marked_faces").split(),
                                   "marked_faces"))]
    mesh.marked_faces.update(mesh.edge_ids(faces))

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


def _reject_duplicate_vertices(vertices: np.ndarray):
    """Raise ``MeshFileError`` for a pair of vertices closer than 1e-14.
    In (x, y) order such a pair is adjacent if its x are equal, and else
    lies in the window (x, x + 1e-14] of its first vertex's x."""
    order = np.lexsort((vertices[:, 1], vertices[:, 0]))
    x = vertices[order, 0]
    start = np.searchsorted(x, x, side="right")
    count = np.searchsorted(x, x + 1e-14, side="right") - start
    a = np.concatenate([np.arange(len(x) - 1),
                        np.repeat(np.arange(len(x)), count)])
    b = np.concatenate([np.arange(1, len(x)), np.arange(count.sum())
                        + np.repeat(start - np.cumsum(count) + count, count)])
    a, b = order[a], order[b]
    close = np.flatnonzero(np.hypot(*(vertices[a] - vertices[b]).T) < 1e-14)
    if close.size:
        i, j = sorted((a[close[0]], b[close[0]]))
        raise MeshFileError(f"vertices {i} and {j} coincide within 1e-14")


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
                (key, mesh.group_coords(key)) for key in groups)):
            dets[ids] = d
        det_range = (float(dets.min()), float(dets.max()))

    # each element's edge points, (local edge, t, 2), 16 segments per edge,
    # from one product per (geometry, order) group
    outlines = [None] * len(mesh.elements)
    for key, ids in mesh.groups().items():
        pts = edge_samples(*key, 16) @ mesh.group_coords(key)
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
