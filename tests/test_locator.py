import dataclasses

import numpy as np
import pytest

from meshfit import (DiscreteLevelSet, FitConfig, Locator, SolverControls,
                     compute_face_errors, generate_cartesian, make_levelset,
                     mark_interface_faces, solve_r_adaptivity, write_mesh)
from meshfit.basis import reference_element
from meshfit.errors import PointLocationError
from meshfit.levelset import ANALYTIC_LEVELSETS, FoundFlag

from conftest import perturbed_mesh, random_order_mesh

LOCATOR_MESHES = {
    "perturbed_p1": lambda: perturbed_mesh(4, 4, 1, seed=5),
    "perturbed_p2": lambda: perturbed_mesh(4, 4, 2, seed=6),
    "perturbed_p3": lambda: perturbed_mesh(4, 4, 3, seed=7),
    "mixed_orders": lambda: random_order_mesh(4, 4, seed=2),
    "triangles_p2": lambda: perturbed_mesh(4, 4, 2, seed=9,
                                           split_triangles=True),
}


@pytest.fixture(params=sorted(LOCATOR_MESHES))
def located_mesh(request):
    return LOCATOR_MESHES[request.param]()


def test_locate_roundtrip_on_perturbed_mesh(rng):
    mesh = perturbed_mesh(4, 4, 2, seed=11)
    loc = Locator(mesh)
    diam = mesh.diameter()
    pts = rng.uniform(0.03, 0.97, size=(200, 2))
    for x in pts:
        res = loc.locate(x)
        assert res.found
        back = mesh.eval_map(res.element, res.ref[None, :])[0]
        assert np.hypot(*(back - x)) <= 1e-10 * diam


def test_locate_vertices_and_edges(rng):
    mesh = perturbed_mesh(3, 3, 2, seed=4)
    loc = Locator(mesh)
    # element corners sit on vertices shared by several elements
    for x in mesh.vertices:
        res = loc.locate(x)
        assert res.found
        back = mesh.eval_map(res.element, res.ref[None, :])[0]
        assert np.hypot(*(back - x)) <= 1e-10


def test_a_point_missed_from_the_center_is_found_from_a_node():
    # Newton from the reference center converges outside both candidates
    # (elements 7 and 11); from the node of element 11 nearest the point it
    # converges inside
    mesh = perturbed_mesh(4, 4, 3, seed=12)
    x = np.array([0.78579405, 0.49836178])
    res = Locator(mesh).locate(x)
    assert (res.element, res.flag) == (11, FoundFlag.INTERIOR)
    back = mesh.eval_map(res.element, res.ref[None, :])[0]
    assert np.hypot(*(back - x)) <= 1e-10 * mesh.diameter()


def test_locate_outside_returns_not_found():
    mesh = generate_cartesian(3, 3, 1)
    loc = Locator(mesh)
    res = loc.locate(np.array([1.7, 0.5]))
    assert res.flag is FoundFlag.NOT_FOUND
    assert not res.found


def test_located_points_map_back(located_mesh, rng):
    loc = Locator(located_mesh)
    diam = located_mesh.diameter()
    for x in rng.uniform(0.0, 1.0, size=(150, 2)):
        res = loc.locate(x)
        assert res.found
        back = located_mesh.eval_map(res.element, res.ref[None, :])[0]
        assert np.hypot(*(back - x)) <= 1e-10 * diam


def _shared_points(mesh):
    """Every vertex and every interior edge midpoint, with the ids of the
    elements touching it."""
    out = []
    for v, x in enumerate(mesh.vertices):
        touching = [e for e, el in enumerate(mesh.elements) if v in el.verts]
        out.append((x, touching))
    for rec in mesh.edges:
        if len(rec.sides) != 2:
            continue
        side = rec.sides[0]
        el = mesh.elements[side.element]
        t = reference_element(el.geometry, el.order).edge_point(
            side.local_edge, 0.5)
        out.append((mesh.eval_map(side.element, t)[0],
                    [s.element for s in rec.sides]))
    return out


def test_shared_points_go_to_lowest_touching_element(located_mesh):
    loc = Locator(located_mesh)
    for x, touching in _shared_points(located_mesh):
        res = loc.locate(x)
        assert res.found
        assert res.element == min(touching)


def test_points_outside_the_mesh_are_not_found(located_mesh):
    loc = Locator(located_mesh)
    outside = np.array([[-0.05, 0.5], [1.05, 0.3], [0.4, -0.2], [0.7, 1.3],
                        [-1.0, -1.0], [2.0, 2.0]])
    for x in outside:
        assert loc.locate(x).flag is FoundFlag.NOT_FOUND


def test_locate_many_matches_locate(located_mesh, rng):
    # many points in one batch, the path DiscreteLevelSet.values takes
    loc = Locator(located_mesh)
    pts = np.vstack([rng.uniform(-0.1, 1.1, size=(120, 2)),
                     [x for x, _ in _shared_points(located_mesh)]])
    batch = loc._locate(pts)
    assert len(batch.element) == len(pts)
    for i, x in enumerate(pts):
        b, one = batch.coords(i), loc.locate(x)
        assert (b.element, b.flag) == (one.element, one.flag)
        assert np.array_equal(b.ref, one.ref, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_not_found(bad):
    bg = generate_cartesian(3, 3, 2)
    loc = Locator(bg)
    assert loc.candidates([bad, 0.5]) == []
    res = loc.locate([bad, 0.5])
    assert res.flag is FoundFlag.NOT_FOUND
    assert loc.locate([0.5, bad]).flag is FoundFlag.NOT_FOUND
    field = DiscreteLevelSet.sample(bg, lambda pts: pts[:, 0])
    pts = np.array([[bad, 0.5], [0.25, 0.5]])
    with pytest.raises(PointLocationError):
        field.values(pts)
    with pytest.raises(PointLocationError):
        field.gradients(pts)
    vals = field.values(pts, strict=False)
    assert np.isnan(vals[0]) and np.isclose(vals[1], 0.25, atol=1e-12)
    grads = field.gradients(pts, strict=False)
    assert np.isnan(grads[0]).all() and np.allclose(grads[1], [1.0, 0.0])


def test_analytic_and_discrete_squircle_fits_agree():
    # the discrete fit may move its marked nodes by about the background
    # interpolation error divided by the field's gradient, and no further
    analytic = ANALYTIC_LEVELSETS["squircle2d"]()
    discrete = DiscreteLevelSet.sample(generate_cartesian(12, 12, 3), analytic)
    fitted = []
    for field in (analytic, discrete):
        mesh = generate_cartesian(6, 6, 2)
        mark_interface_faces(mesh, field)
        _, report = solve_r_adaptivity(FitConfig().problem(mesh, field))
        assert report.status == "converged"
        fitted.append(mesh)
    mesh_a, mesh_d = fitted
    assert mesh_a.marked_faces == mesh_d.marked_faces
    dm = mesh_d.dof_map()
    nodes = dm.marked_node_ids(mesh_d)
    x_d = dm.extract(mesh_d)[nodes]
    x_a = mesh_a.dof_map().extract(mesh_a)[nodes]
    eps = (np.abs(discrete.values(x_d) - analytic.values(x_d)).max()
           / np.hypot(*analytic.gradients(x_d).T).min())
    assert eps < 1e-4
    assert np.hypot(*(x_a - x_d).T).max() <= 5.0 * eps


def _poly2(x, y):
    return 0.3 + 0.7 * x - 1.1 * y + 0.25 * x * y + 0.5 * x**2 - 0.2 * y**2


def test_discrete_levelset_reproduces_polynomials(rng):
    # a degree-2 polynomial sampled on a Cartesian p=2 background lies in the
    # interpolation space (the map is affine per axis), so evaluation must be
    # exact up to roundoff anywhere in the domain
    bg = generate_cartesian(4, 4, 2)
    field = DiscreteLevelSet.sample(bg,
                                    lambda pts: _poly2(pts[:, 0], pts[:, 1]))
    pts = rng.uniform(0.02, 0.98, size=(500, 2))
    vals = field.values(pts)
    assert np.abs(vals - _poly2(pts[:, 0], pts[:, 1])).max() <= 1e-9


def test_discrete_levelset_linear_exact_on_perturbed_mesh(rng):
    # a linear field stays inside the space even with bilinear (perturbed p=1)
    # element maps: a + b x(u,v) + c y(u,v) is again bilinear in (u, v)
    bg = perturbed_mesh(4, 4, 1, seed=21)
    field = DiscreteLevelSet.sample(bg, lambda pts: 0.4 * pts[:, 0]
                                    - 1.3 * pts[:, 1] + 0.2)
    pts = rng.uniform(0.02, 0.98, size=(300, 2))
    exact = 0.4 * pts[:, 0] - 1.3 * pts[:, 1] + 0.2
    assert np.abs(field.values(pts) - exact).max() <= 1e-10


def test_discrete_levelset_gradients_exact_for_polynomials(rng):
    bg = generate_cartesian(4, 4, 2)
    field = DiscreteLevelSet.sample(bg,
                                    lambda pts: _poly2(pts[:, 0], pts[:, 1]))
    pts = rng.uniform(0.05, 0.95, size=(60, 2))
    grads = field.gradients(pts)
    gx = 0.7 + 0.25 * pts[:, 1] + 1.0 * pts[:, 0]
    gy = -1.1 + 0.25 * pts[:, 0] - 0.4 * pts[:, 1]
    assert np.abs(grads[:, 0] - gx).max() < 1e-8
    assert np.abs(grads[:, 1] - gy).max() < 1e-8


def _poly2_field(mesh):
    return DiscreteLevelSet.sample(mesh, lambda p: _poly2(p[:, 0], p[:, 1]))


def _count_calls(monkeypatch, cls, name, counts, key):
    """Count the calls of cls.name in counts[key]."""
    method = getattr(cls, name)

    def counting(self, *args, **kwargs):
        counts[key] += 1
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def _count_locations(monkeypatch, counts):
    # every batch located afresh starts with one candidate search
    _count_calls(monkeypatch, Locator, "_candidate_pairs", counts, "located")


def test_discrete_fit_locates_once_per_values_call(monkeypatch):
    field = DiscreteLevelSet.sample(generate_cartesian(8, 8, 2),
                                    ANALYTIC_LEVELSETS["squircle2d"]())
    counts = {"values": 0, "gradients": 0, "located": 0}
    for name in ("values", "gradients"):
        _count_calls(monkeypatch, DiscreteLevelSet, name, counts, name)
    _count_locations(monkeypatch, counts)
    mesh = generate_cartesian(4, 4, 2)
    mark_interface_faces(mesh, field)
    fit = FitConfig(controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(mesh, field))
    assert report.status == "converged"
    # the gradients at each accepted point reuse the location of its values
    assert counts["gradients"] == report.num_iterations + 1
    assert counts["located"] == counts["values"]


def test_a_batch_changed_in_place_is_located_again(monkeypatch, rng):
    bg = perturbed_mesh(4, 4, 2, seed=3)
    field = _poly2_field(bg)
    counts = {"located": 0}
    _count_locations(monkeypatch, counts)
    pts = rng.uniform(0.05, 0.95, size=(30, 2))
    field.values(pts)
    field.gradients(pts)
    assert counts["located"] == 1
    pts[:5] = pts[:5][::-1] + 0.01  # the caller reuses its array
    values = field.values(pts)
    assert counts["located"] == 2
    assert np.array_equal(values, _poly2_field(bg).values(pts.copy()))


def test_a_reused_location_is_bit_identical(located_mesh, rng):
    pts = np.vstack([rng.uniform(-0.1, 1.1, size=(60, 2)),
                     [x for x, _ in _shared_points(located_mesh)]])
    loc = Locator(located_mesh)
    first = loc._locate(pts)
    assert loc._locate(pts.copy()) is first
    fresh = Locator(located_mesh)._locate(pts)
    for f in dataclasses.fields(first):
        a, b = getattr(first, f.name), getattr(fresh, f.name)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    # the gradient query after a values query at the same points
    field, fresh_field = _poly2_field(located_mesh), _poly2_field(located_mesh)
    field.values(pts, strict=False)
    assert np.array_equal(field.gradients(pts, strict=False),
                          fresh_field.gradients(pts, strict=False),
                          equal_nan=True)


def test_interpolate_strict_raises_outside():
    bg = generate_cartesian(2, 2, 1)
    field = DiscreteLevelSet.sample(bg, lambda pts: pts[:, 0])
    with pytest.raises(PointLocationError):
        field.values(np.array([[3.0, 3.0]]))
    relaxed = field.values(np.array([[3.0, 3.0], [0.5, 0.5]]), strict=False)
    assert np.isnan(relaxed[0])  # unlocatable points are NaN, not an error
    assert np.isclose(relaxed[1], 0.5, atol=1e-12)


def test_analytic_levelsets_basics():
    sq = ANALYTIC_LEVELSETS["squircle2d"]()
    circ = ANALYTIC_LEVELSETS["circle"]()
    plane = ANALYTIC_LEVELSETS["plane"]()
    pts = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert sq.values(pts)[0] < 0 < sq.values(pts)[1]
    assert circ.values(pts)[0] < 0 < circ.values(pts)[1]
    assert np.allclose(plane.values(np.array([[0.3, 0.5]])), 0.0, atol=1e-15)
    # gradients against finite differences
    x = np.array([[0.62, 0.41]])
    eps = 1e-7
    for f in (sq, circ, plane):
        g = f.gradients(x)[0]
        for d in range(2):
            dp = x.copy()
            dp[0, d] += eps
            dm = x.copy()
            dm[0, d] -= eps
            fd = (f.values(dp) - f.values(dm))[0] / (2 * eps)
            assert abs(g[d] - fd) < 1e-6


def test_make_levelset_specs(tmp_path):
    assert make_levelset("name:circle") is not None
    with pytest.raises(ValueError):
        make_levelset("name:donut")
    with pytest.raises(ValueError):
        make_levelset("magic")
    bg = generate_cartesian(3, 3, 2)
    analytic = ANALYTIC_LEVELSETS["circle"]()
    field = DiscreteLevelSet.sample(bg, analytic.values)
    path = tmp_path / "bg.mesh"
    write_mesh(bg, path, scalar=field.blocks)
    loaded = make_levelset(f"file:{path}")
    pts = np.array([[0.4, 0.6], [0.2, 0.2]])
    assert np.allclose(loaded.values(pts), field.values(pts), atol=1e-14)


def _reference_query(field, x, blocks):
    """One point's interpolant of the per-group nodal ``blocks``: locate it
    alone, evaluate the basis at the returned reference point and contract
    with the element's block."""
    loc = Locator(field.mesh)
    res = loc.locate(x)
    if not res.found:
        return np.full(blocks[0].shape[-1], np.nan)
    e = res.element
    ref = loc.group_refs[loc.group_of[e]]
    block = blocks[loc.group_of[e]][loc.row_of[e]]
    return np.einsum("sn,snk->sk", ref.eval_basis(res.ref), block[None])[0]


# quad backgrounds only: the triangle basis is a BLAS product, and a single
# row of it may round differently from the same row inside a batch
QUERY_MESHES = {
    "mixed_orders": lambda: random_order_mesh(4, 4, seed=2),
    "perturbed_p3": lambda: perturbed_mesh(3, 3, 3, seed=8),
}


@pytest.mark.parametrize("name", sorted(QUERY_MESHES))
def test_queries_match_a_per_point_reference(name, rng):
    mesh = QUERY_MESHES[name]()
    field = _poly2_field(mesh)
    diam = mesh.diameter()
    # outside by more than REF_TOL in reference space, within the snap
    snapping = [1.0 + 0.1 * Locator.SNAP_RTOL * diam, 0.37]
    missing = [[1.5, 0.5], [np.nan, 0.5]]
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(40, 2)),
                     [x for x, _ in _shared_points(mesh)],
                     snapping, missing])
    located = field.locator._locate(pts)
    assert located.flag[-3] is FoundFlag.BORDER
    assert Locator.NEWTON_RTOL * diam < located.residual[-3] \
        <= Locator.SNAP_RTOL * diam
    assert (located.element[-2:] == -1).all()
    values = field.values(pts, strict=False)
    gradients = field.gradients(pts, strict=False)
    for i, x in enumerate(pts):
        assert np.array_equal(values[i:i + 1], _reference_query(
            field, x, field._value_blocks()), equal_nan=True)
        assert np.array_equal(gradients[i], _reference_query(
            field, x, field._gradient_blocks()), equal_nan=True)


def test_location_evaluates_the_basis_once_per_newton_step(monkeypatch, rng):
    field = _poly2_field(perturbed_mesh(4, 4, 2, seed=12))
    pts = rng.uniform(0.02, 0.98, size=(50, 2))
    field.gradients(rng.uniform(0.1, 0.9, size=(5, 2)))  # build the tables
    counts = {"eval_basis": 0, "eval_basis_grad": 0, "located": 0}
    ref_type = type(field.locator.group_refs[0])
    for name in ("eval_basis", "eval_basis_grad"):
        _count_calls(monkeypatch, ref_type, name, counts, name)
    _count_locations(monkeypatch, counts)
    steps = []
    invert = Locator._invert

    def spy(self, *args):
        out = invert(self, *args)
        steps.append(int(out[3].max()))
        return out

    monkeypatch.setattr(Locator, "_invert", spy)
    located = field.locator._locate(pts)
    assert (located.element >= 0).all() and max(steps) > 1
    # the start at the reference center reads the locator's tables
    assert counts["eval_basis"] <= sum(steps)
    assert counts["eval_basis_grad"] <= sum(steps)
    # interpolation reuses the basis rows of the location, and a gradient
    # query at the same points neither locates nor evaluates anything
    before = dict(counts)
    values = field.values(pts)
    gradients = field.gradients(pts)
    assert counts == before
    fresh = _poly2_field(field.mesh)
    assert np.array_equal(values, fresh.values(pts))
    assert np.array_equal(gradients, fresh.gradients(pts))


def test_a_report_after_a_discrete_solve_reuses_its_location(monkeypatch):
    field = DiscreteLevelSet.sample(generate_cartesian(8, 8, 2),
                                    ANALYTIC_LEVELSETS["squircle2d"]())
    mesh = generate_cartesian(4, 4, 2)
    mark_interface_faces(mesh, field)
    fit = FitConfig(controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(mesh, field))
    assert report.status == "converged"
    counts = {"located": 0}
    _count_locations(monkeypatch, counts)
    rep = compute_face_errors(mesh, field)
    # the face nodes are the solve's last query; only the traces are new
    assert counts["located"] == 1
    fresh = DiscreteLevelSet.sample(generate_cartesian(8, 8, 2),
                                    ANALYTIC_LEVELSETS["squircle2d"]())
    again = compute_face_errors(mesh, fresh)
    assert np.array_equal(rep.errors, again.errors)
    assert rep.node_sigma_max == again.node_sigma_max
