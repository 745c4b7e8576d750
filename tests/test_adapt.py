import functools

import numpy as np
import pytest

from meshfit import (AdaptivityPlan, DiscreteLevelSet, DofMap, FitConfig,
                     MixedOrderMesh, QualityMetric, SolverControls,
                     apply_edge_constraints,
                     compute_face_errors, generate_cartesian,
                     mark_interface_faces, run_rp_adaptivity,
                     solve_r_adaptivity)
from meshfit import adapt, mesh as mesh_module
from meshfit.adapt import (apply_refinement, derefinement_pass,
                           edge_touching_elevation, mark_for_refinement,
                           propagate_orders, try_derefine)
from meshfit.basis import (_gauss_legendre_01, _gauss_lobatto_cached,
                           lagrange_1d, lagrange_1d_deriv, reference_element)
from meshfit.levelset import ANALYTIC_LEVELSETS, AnalyticLevelSet
from meshfit.mesh import (interpolation_matrix, lowering_min_det, min_det_of,
                          resampling_matrix)
from meshfit.tmop import SolveReport

from conftest import (edge_records, meshes_identical, perturbed_mesh,
                      random_order_mesh, set_orders)


def _const_field(c):
    return AnalyticLevelSet("const",
                            lambda x, y: np.full_like(x, c),
                            lambda x, y: (np.zeros_like(x), np.zeros_like(y)))


def _linear_field(a, b, c):
    return AnalyticLevelSet("linear",
                            lambda x, y: a * x + b * y + c,
                            lambda x, y: (np.full_like(x, a),
                                          np.full_like(y, b)))


# ---------------------------------------------------------------------------
# face error measures

def test_face_error_constant_field():
    m = generate_cartesian(1, 1, 1)
    m.marked_faces = set(m.edge_ids([(0, 1)]))  # the bottom edge, length 1
    # e_f = integral of sigma^2 over the face
    rep = compute_face_errors(m, _const_field(2.0))
    assert np.isclose(rep.errors[0], 4.0, atol=1e-12)
    assert np.isclose(rep.lengths[0], 1.0, atol=1e-13)


def test_node_sigma_max_covers_the_given_faces():
    m = generate_cartesian(2, 2, 2)
    m.marked_faces = {0}
    rep = compute_face_errors(m, _const_field(2.0))
    assert np.isclose(rep.errors[0], 2.0, atol=1e-12)  # 4 on length 0.5
    assert rep.node_sigma_max == 2.0
    # the nodes of the marked faces only: sigma = y is 1 on the top edge
    # and 0 on the bottom edge
    field = _linear_field(0.0, 1.0, 0.0)
    m.marked_faces = set(m.edge_ids([(6, 7)]))
    assert compute_face_errors(m, field).node_sigma_max == 1.0
    m.marked_faces = set(m.edge_ids([(0, 1)]))
    assert compute_face_errors(m, field).node_sigma_max == 0.0


def test_face_error_linear_field():
    m = generate_cartesian(2, 2, 1)
    field = _linear_field(0.0, 1.0, -0.1)  # sigma = y - 0.1
    m.marked_faces = set(m.edge_ids([(0, 1)]))
    # on y = 0 the residual is 0.1 along a length-0.5 face
    rep = compute_face_errors(m, field)
    assert np.isclose(rep.errors[0], 0.01 * 0.5, atol=1e-14)
    m.marked_faces = set(m.edge_ids([(3, 4)]))  # a face on y = 0.5
    rep = compute_face_errors(m, field)
    assert np.isclose(rep.errors[0], 0.16 * 0.5, atol=1e-14)


def test_face_error_zero_on_contour():
    m = generate_cartesian(4, 4, 2)
    plane = ANALYTIC_LEVELSETS["plane"]()
    for face in mark_interface_faces(m, plane):
        m.marked_faces = {face}
        assert compute_face_errors(m, plane).errors[0] < 1e-28


def test_arc_length_of_curved_face():
    # bend the shared face of a 2x1 mesh into a parabolic arc and compare
    # against dense numerical integration of the true arc length
    m = generate_cartesian(2, 1, 2)
    k, = m.edge_ids([(1, 4)])
    dm = m.dof_map()
    ids = dm.edge_nodes[k]  # every edge is at p2, so the row is unpadded
    t = m.nodes.copy()
    mid = np.argmin(np.abs(t[ids] - [0.5, 0.5]).sum(axis=1))
    t[ids[mid]] += [0.08, 0.0]
    m.set_nodes(t)
    m.marked_faces = {k}
    measured = compute_face_errors(m, _const_field(0.0)).lengths[0]
    # the face runs x(s) = 0.5 + 0.08 * 4 s (1 - s), y(s) = s
    s = np.linspace(0.0, 1.0, 20001)
    xs = 0.5 + 0.32 * s * (1 - s)
    exact = np.hypot(np.diff(xs), np.diff(s)).sum()
    assert np.isclose(measured, exact, rtol=1e-8)


def test_cached_trace_tables_match_direct_evaluation():
    rng = np.random.default_rng(3)
    for p in range(1, 5):
        nodes = _gauss_lobatto_cached(p)
        coords = rng.standard_normal((p + 1, 2))
        for q in range(1, 5):
            tq, wq = _gauss_legendre_01(2 * q + 3)
            values, derivs, weights = adapt._trace_tables(p, q)
            assert np.array_equal(values, lagrange_1d(nodes, tq))
            assert np.array_equal(derivs, lagrange_1d_deriv(nodes, tq))
            assert np.array_equal(weights, wq)
            assert not (values.flags.writeable or derivs.flags.writeable)
            x, w, speed = adapt._face_traces(coords[None], q)
            dx = lagrange_1d_deriv(nodes, tq) @ coords
            assert np.array_equal(x[0], lagrange_1d(nodes, tq) @ coords)
            assert np.array_equal(speed[0], np.hypot(dx[:, 0], dx[:, 1]))
            P = interpolation_matrix(p, q)
            assert np.array_equal(P,
                                  lagrange_1d(nodes, _gauss_lobatto_cached(q)))
            assert np.array_equal(adapt._projected_trace(coords, q),
                                  P @ coords)
            assert not P.flags.writeable


def test_compute_face_errors_report():
    m = generate_cartesian(4, 4, 1)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    rep = compute_face_errors(m, circle)
    assert set(rep.faces) == m.marked_faces
    assert np.isclose(rep.total_error, rep.errors.sum(), atol=1e-15)
    assert np.isclose(rep.max_error, rep.errors.max(), atol=1e-15)
    marked = m.marked_faces
    for k, err in zip(rep.faces, rep.errors):
        m.marked_faces = {k}
        single = compute_face_errors(m, circle).errors[0]
        assert np.isclose(err, single, atol=1e-15)
    m.marked_faces = marked
    ids = m.dof_map().marked_node_ids(m)
    direct = np.abs(circle.values(m.nodes[ids])).max()
    assert np.isclose(rep.node_sigma_max, direct, atol=1e-15)


def _face_errors_loop(mesh, field):
    """Errors and lengths of the marked faces by a loop over faces, one
    trace and two sums each, with one field query: the reference that the
    per-order stacks of ``compute_face_errors`` must match bit for bit."""
    faces = sorted(mesh.marked_faces)
    dm = mesh.dof_map()
    t = mesh.nodes.copy()
    traces = []
    for k, p in zip(faces, dm.edge_orders[faces].tolist()):
        coords = t[dm.edge_nodes[k, :p + 1]]
        values, derivs, wq = adapt._trace_tables(p, p)
        dx = derivs @ coords
        traces.append((values @ coords, wq, np.hypot(dx[:, 0], dx[:, 1])))
    sigma = field.values(np.concatenate([x for x, _, _ in traces]))
    ends = np.cumsum([len(x) for x, _, _ in traces])[:-1]
    errors = [float(np.sum(wq * s * s * speed))
              for (_, wq, speed), s in zip(traces, np.split(sigma, ends))]
    lengths = [float(np.sum(wq * speed)) for _, wq, speed in traces]
    return errors, lengths


def _discrete_circle():
    return DiscreteLevelSet.sample(generate_cartesian(8, 8, 3),
                                   ANALYTIC_LEVELSETS["circle"]())


@pytest.mark.parametrize("mesh, field", [
    (lambda: generate_cartesian(6, 6, 1), None),
    (lambda: perturbed_mesh(6, 6, 2, seed=3), None),
    (lambda: perturbed_mesh(5, 5, 3, seed=4), None),
    (lambda: random_order_mesh(6, 6, seed=1), None),
    (lambda: random_order_mesh(5, 5, seed=2, split_triangles=True), None),
    (lambda: random_order_mesh(6, 6, seed=3), _discrete_circle),
], ids=["p1", "p2", "p3", "mixed", "triangles", "discrete"])
def test_face_errors_per_edge_order_match_the_face_loop(mesh, field):
    m = mesh()
    field = ANALYTIC_LEVELSETS["circle"]() if field is None else field()
    mark_interface_faces(m, field)
    errors, lengths = _face_errors_loop(m, field)
    rep = compute_face_errors(m, field)
    assert rep.faces == sorted(m.marked_faces)
    assert rep.errors.tolist() == errors
    assert rep.lengths.tolist() == lengths
    assert rep.total_error == float(np.sum(errors))
    orders = set(m.dof_map().edge_orders[rep.faces].tolist())
    if m.order_histogram().keys() == {1, 2, 3}:
        assert len(orders) > 1   # faces of several edge orders in one call


# ---------------------------------------------------------------------------
# marking and refinement

def test_mark_absolute_and_relative():
    m = generate_cartesian(4, 4, 1)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    rep = compute_face_errors(m, circle)
    plan_abs = AdaptivityPlan(p_init=1, p_max=3, refine_kind="absolute",
                              refine_threshold=rep.max_error)
    # strict comparison: faces attaining the max are not marked
    error_of = dict(zip(rep.faces, rep.errors))
    some = mark_for_refinement(rep, plan_abs)
    assert len(some) < len(rep.faces)
    assert all(error_of[f] < rep.max_error for f in some)
    plan_all = AdaptivityPlan(p_init=1, p_max=3, refine_kind="absolute",
                              refine_threshold=0.0)
    marked_all = mark_for_refinement(rep, plan_all)
    assert set(marked_all) == m.marked_faces
    plan_rel = AdaptivityPlan(p_init=1, p_max=3, refine_kind="relative",
                              refine_threshold=1.0)
    only_max = mark_for_refinement(rep, plan_rel)
    assert all(np.isclose(error_of[f], rep.max_error) for f in only_max)


def test_apply_refinement_both_sides():
    m = generate_cartesian(4, 4, 1)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2)
    before = m.orders()
    orders = apply_refinement(m, sorted(m.marked_faces), plan, before)
    # a planner only returns orders; the mesh is left as it was
    assert np.array_equal(m.orders(), before)
    edges = edge_records(m)
    band = {s.element for k in m.marked_faces for s in edges[k].sides}
    assert set(np.flatnonzero(orders != before)) == band
    assert (orders[sorted(band)] == 3).all()
    # capped at p_max on a second application
    again = apply_refinement(m, sorted(m.marked_faces), plan, orders)
    assert np.array_equal(again, orders)


def test_propagate_orders_ladders():
    # a 3x1 strip with orders [4, 1, 1] must become [4, 3, 2] under dp = 1
    m = generate_cartesian(3, 1, 1)
    start = np.array([4, 1, 1])
    assert propagate_orders(m, start, 1).tolist() == [4, 3, 2]
    assert start.tolist() == [4, 1, 1]
    # dp = 2 from the same start: [4, 2, 1], element 2 untouched
    orders = propagate_orders(m, start, 2)
    assert orders.tolist() == [4, 2, 1]
    # already-compatible orders are a no-op
    assert np.array_equal(propagate_orders(m, orders, 2), orders)
    assert (m.orders() == 1).all()


def test_refinement_preserves_face_error():
    # pure order raising cannot move the geometry, so the integrated face
    # error is unchanged while the new nodes initially sit off the contour
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(4, 4, 1)
    mark_interface_faces(m, circle)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    solve_r_adaptivity(fit.problem(m, circle))
    before = compute_face_errors(m, circle)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2)
    set_orders(m, apply_refinement(m, sorted(m.marked_faces), plan,
                                   m.orders()))
    after = compute_face_errors(m, circle)
    assert np.isclose(after.total_error, before.total_error, rtol=1e-10)
    assert after.node_sigma_max > 10 * before.node_sigma_max


# ---------------------------------------------------------------------------
# derefinement

def _fitted_refined_circle():
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(4, 4, 1)
    mark_interface_faces(m, circle)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2)
    set_orders(m, apply_refinement(m, sorted(m.marked_faces), plan,
                                   m.orders()))
    solve_r_adaptivity(fit.problem(m, circle))
    return m, circle


#: the derefining plans of the bench's adaptive variants
DEREF_VARIANTS = {
    "deref": dict(deref_kind="size", deref_threshold=1e-5),
    "limited_deref": dict(deref_kind="size", deref_threshold=1e-5,
                          max_neighbor_diff=1),
}


def _squircle_plan(name):
    return AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7, **DEREF_VARIANTS[name])


def _applied_min_det(mesh, lowered, order):
    """The apply-and-rollback trial that ``lowering_min_det`` replaces: the
    lowering applied to a copy of the mesh, then the smallest determinant
    of the lowered elements and their edge neighbors, a group at a time."""
    m = mesh.copy()
    m.set_order(lowered, order)
    k = m.element_edge_ids[lowered]
    sides = m.edge_element_ids[k[k >= 0]]
    wanted = np.zeros(len(m.elements), dtype=bool)
    wanted[lowered] = wanted[sides[sides >= 0]] = True
    return min_det_of((key, m.group_coords(key)[wanted[ids]])
                      for key, ids in m.groups().items() if wanted[ids].any())


def _edge_local_nodes(mesh, e, k, order):
    """Local node indices of edge ``k`` in element ``e`` at ``order``, from
    the edge's smaller to its larger vertex id, found by a scan of the
    element's edge ids and a comparison of its vertices."""
    el = mesh.elements[e]
    le = int(np.flatnonzero(mesh.element_edge_ids[e] == k)[0])
    nodes = reference_element(el.geometry, order).edge_nodes[le]
    a, b = el.verts[le], el.verts[(le + 1) % len(el.verts)]
    return nodes if a < b else nodes[::-1]


def _scanned_lowering_min_det(mesh, lowered, order):
    """``lowering_min_det`` as it read local edges before the edge table
    held them: through ``_edge_local_nodes``."""
    orders = mesh.orders()
    orders[lowered] = order
    blocks = {}
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
            continue
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
    stacks = {}
    for e in sorted(touched):
        stacks.setdefault((mesh.elements[e].geometry, int(orders[e])), []) \
            .append(blocks[e] if e in blocks else mesh.elements[e].coords.T)
    return min_det_of((key, np.stack(X)) for key, X in stacks.items())


@functools.lru_cache(maxsize=None)
def _derefining_run(name, n):
    """Every derefinement trial of the n x n squircle run of a bench variant,
    as (lowered, order, block min det, applied min det, scanned block min
    det), and a copy of the mesh before each derefinement pass."""
    trials, before_pass = [], []

    def trial(mesh, lowered, order):
        md = lowering_min_det(mesh, lowered, order)
        trials.append((list(lowered), order, md,
                       _applied_min_det(mesh, lowered, order),
                       _scanned_lowering_min_det(mesh, lowered, order)))
        return md

    def deref_pass(mesh, field, plan):
        before_pass.append(mesh.copy())
        return derefinement_pass(mesh, field, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "lowering_min_det", trial)
        mp.setattr(adapt, "derefinement_pass", deref_pass)
        run_rp_adaptivity(generate_cartesian(n, n, 1),
                          ANALYTIC_LEVELSETS["squircle2d"](),
                          FitConfig(metric=QualityMetric("mu2")),
                          _squircle_plan(name))
    return trials, before_pass


@pytest.mark.parametrize("name", DEREF_VARIANTS)
@pytest.mark.parametrize("n", [8, 16])
def test_block_trials_decide_like_the_applied_lowering(name, n):
    trials, _ = _derefining_run(name, n)
    assert trials
    for lowered, order, md, applied, scanned in trials:
        assert (md > 0.0) == (applied > 0.0), (lowered, order)
        assert abs(md - applied) <= 1e-12 * abs(applied), (lowered, order)
        assert md == scanned, (lowered, order)
    if name == "limited_deref":
        assert any(md <= 0.0 for _, _, md, _, _ in trials)


def test_try_derefine_rejection_leaves_mesh_untouched(monkeypatch):
    calls, dets = [], []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    def trial(mesh, lowered, order):
        dets.append(lowering_min_det(mesh, lowered, order))
        return dets[-1]

    monkeypatch.setattr(MixedOrderMesh, "set_order",
                        spy("set_order", MixedOrderMesh.set_order))
    monkeypatch.setattr(mesh_module, "apply_edge_constraints",
                        spy("constraints", apply_edge_constraints))
    monkeypatch.setattr(DofMap, "__init__", spy("dofmap", DofMap.__init__))
    monkeypatch.setattr(adapt, "lowering_min_det", trial)

    def attempt(m, field, plan, face):
        m.dof_map()   # the DofMap a derefinement pass has cached
        snapshot = m.copy()
        calls.clear()
        dets.clear()
        p_hat = try_derefine(m, field, plan, face)
        if p_hat is None:
            assert calls == []
            assert meshes_identical(m, snapshot)
        return p_hat

    m, circle = _fitted_refined_circle()
    # an impossible criterion rejects every candidate order
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          deref_kind="ref", deref_threshold=0.0)
    assert attempt(m, circle, plan, sorted(m.marked_faces)[0]) is None
    assert dets == []
    # the neighbor-limited 8x8 squircle pass rejects lowerings on their
    # Jacobians; a face whose every trial is rejected changes nothing
    _, before_pass = _derefining_run("limited_deref", 8)
    m = before_pass[0].copy()
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    rejected = 0
    for face in sorted(m.marked_faces):
        if attempt(m, squircle, _squircle_plan("limited_deref"),
                   face) is None:
            rejected += any(d <= 0.0 for d in dets)
    assert rejected > 0


def test_try_derefine_acceptance_lowers_orders():
    m, circle = _fitted_refined_circle()
    # generous size tolerance accepts the lowest candidate order
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          deref_kind="size", deref_threshold=0.9)
    face = sorted(m.marked_faces)[0]
    p_hat = try_derefine(m, circle, plan, face)
    assert p_hat is not None and p_hat < 3
    assert m.dof_map().edge_orders[face] == p_hat
    sides = m.edge_element_ids[face]
    assert p_hat in m.orders()[sides[sides >= 0]]
    assert m.min_det() > 0.0
    # conformity was restored after the projection
    assert np.all(np.isfinite(m.nodes))


def test_try_derefine_checks_the_neighbor_limit_before_the_mesh_changes(
        monkeypatch):
    # the p2 face between elements 0 and 1 keeps its length at p1, but
    # lowering either side puts it 2 below an order-3 neighbor
    m = generate_cartesian(3, 3, 3)
    set_orders(m, np.array([2, 2, 3, 3, 3, 3, 3, 3, 3]))
    face = (set(m.element_edge_ids[0]) & set(m.element_edge_ids[1])).pop()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          deref_kind="size", deref_threshold=0.5)
    assert try_derefine(m.copy(), _const_field(0.0), plan, face) == 1
    limited = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                             max_neighbor_diff=1, deref_kind="size",
                             deref_threshold=0.5)
    snapshot = m.copy()
    calls = []
    set_order = MixedOrderMesh.set_order
    monkeypatch.setattr(MixedOrderMesh, "set_order",
                        lambda mesh, e, p: (calls.append((e, p)),
                                            set_order(mesh, e, p)))
    assert try_derefine(m, _const_field(0.0), limited, face) is None
    assert calls == []
    assert meshes_identical(m, snapshot)


def test_derefinement_pass_reports_lowered_faces():
    m, circle = _fitted_refined_circle()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          deref_kind="size", deref_threshold=0.9)
    lowered = derefinement_pass(m, circle, plan)
    assert lowered
    edge_orders = m.dof_map().edge_orders
    for face, p_hat in lowered.items():
        assert p_hat < 3
        # later acceptances may lower a shared element further
        assert edge_orders[face] <= p_hat
    assert m.min_det() > 0.0


def test_deref_requires_multi_step_plans():
    # with refine_step = 1 the adaptive driver never derefines, matching the
    # single-increment schedule where refinement is already minimal
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(4, 4, 1)
    plan = AdaptivityPlan(p_init=1, p_max=2, refine_step=1,
                          deref_kind="size", deref_threshold=0.9,
                          fit_tol=1e-6)
    res = run_rp_adaptivity(m, circle, FitConfig(metric=QualityMetric("mu2")),
                            plan)
    assert not any(r.phase == "derefine" for r in res.records)


# ---------------------------------------------------------------------------
# plan validation and the driver

def test_plan_validation():
    with pytest.raises(ValueError):
        AdaptivityPlan(p_init=3, p_max=1)
    with pytest.raises(ValueError):
        AdaptivityPlan(p_init=1, p_max=3, refine_step=0)
    with pytest.raises(ValueError):
        AdaptivityPlan(p_init=1, p_max=3, refine_kind="sometimes")
    with pytest.raises(ValueError):
        AdaptivityPlan(p_init=1, p_max=3, deref_kind="magic")
    with pytest.raises(ValueError):
        AdaptivityPlan(p_init=1, p_max=3, fit_tol=0.0)
    # order and step fields must be integers: 1.5 would run as step 1 and
    # 2.5 as p_max 2, and True as 1; Python and numpy integers pass
    for bad in (dict(refine_step=1.5), dict(p_max=2.5), dict(p_init=1.0),
                dict(max_neighbor_diff=1.5), dict(p_max="3"),
                dict(p_init=True), dict(p_max=True), dict(refine_step=True),
                dict(max_neighbor_diff=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            AdaptivityPlan(**{"p_init": 1, "p_max": 3, **bad})
    plan = AdaptivityPlan(p_init=np.int64(1), p_max=np.int32(3),
                          refine_step=np.int64(2), max_neighbor_diff=1)
    assert plan.outer_cap == 2
    # NaN fails every check written as "not x >= 0" or "not x > 0"
    for bad in (dict(fit_tol=np.nan), dict(refine_threshold=np.nan),
                dict(deref_threshold=np.nan)):
        with pytest.raises(ValueError):
            AdaptivityPlan(p_init=1, p_max=3, **bad)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2)
    assert plan.neighbor_limit == 3  # defaults to p_max: no constraint
    assert plan.outer_cap == 2
    assert AdaptivityPlan(p_init=1, p_max=4, refine_step=1).outer_cap == 4


@pytest.mark.parametrize("name", ["refine_threshold", "deref_threshold",
                                  "fit_tol"])
@pytest.mark.parametrize("value", [True, False, "1e-8"])
def test_plan_rejects_a_threshold_that_is_no_real_number(name, value):
    # True would otherwise run as 1.0 and False as 0.0
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        AdaptivityPlan(p_init=1, p_max=3, **{name: value})
    assert getattr(AdaptivityPlan(p_init=1, p_max=3,
                                  **{name: np.float64(0.5)}), name) == 0.5


def test_driver_requires_uniform_initial_order():
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(3, 3, 1)
    m.set_order(0, 2)
    with pytest.raises(ValueError):
        run_rp_adaptivity(m, circle, FitConfig(), AdaptivityPlan(p_init=1,
                                                                 p_max=3))


def test_driver_exits_when_nothing_to_refine():
    # plane interface aligned with mesh edges: zero error, no refinement
    plane = ANALYTIC_LEVELSETS["plane"]()
    m = generate_cartesian(4, 4, 1)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7)
    res = run_rp_adaptivity(m, plane, FitConfig(metric=QualityMetric("mu2")),
                            plan)
    assert res.exit_reason == "no faces refined"
    assert res.mesh.order_histogram() == {1: 16}
    assert res.records[-1].dofs == 25


def test_relative_marking_skips_faces_without_error():
    # the plane y = 0.5 runs along mesh lines of an 8x8 mesh: every marked
    # face has zero error, so neither rule may mark one
    plane = ANALYTIC_LEVELSETS["plane"]()
    m = generate_cartesian(8, 8, 1)
    mark_interface_faces(m, plane)
    rep = compute_face_errors(m, plane)
    assert len(rep.faces) == 8 and rep.max_error == 0.0
    for kind in ("absolute", "relative"):
        plan = AdaptivityPlan(p_init=1, p_max=3, refine_kind=kind,
                              refine_threshold=0.5)
        assert mark_for_refinement(rep, plan) == []
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_kind="relative",
                          refine_threshold=0.5, fit_tol=1e-7)
    res = run_rp_adaptivity(m, plane, FitConfig(), plan)
    assert res.exit_reason == "no faces refined"
    assert res.mesh.order_histogram() == {1: 64}
    assert res.records[-1].dofs == 81


def test_driver_refines_to_p_max_on_circle():
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(4, 4, 1)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7)
    res = run_rp_adaptivity(m, circle, FitConfig(metric=QualityMetric("mu2")),
                            plan)
    assert res.exit_reason == "interface at p_max"
    assert res.outer_iterations <= plan.outer_cap
    hist = res.mesh.order_histogram()
    assert hist.get(3, 0) > 0 and hist.get(1, 0) > 0
    assert res.mesh.min_det() > 0.0
    # records carry the full phase history
    phases = [r.phase for r in res.records]
    assert phases[0] == "initial" and phases[-1] == "final"
    assert "refine" in phases and "fit" in phases


def _assert_final_repeats_the_last_record(res, field):
    *_, last, final = res.records
    assert (final.phase, final.outer) == ("final", res.outer_iterations)
    assert (final.solver_status, final.solver_iterations) == (None, None)
    assert final.histogram == last.histogram == res.mesh.order_histogram()
    assert final.dofs == last.dofs == res.mesh.num_position_dofs
    fresh = compute_face_errors(res.mesh, field)
    assert final.total_error == last.total_error == fresh.total_error
    assert final.max_error == last.max_error == fresh.max_error
    assert final.node_sigma_max == last.node_sigma_max \
        == fresh.node_sigma_max


@pytest.mark.parametrize("name, plan, exit_reason", [
    ("plane", dict(refine_step=2, refine_threshold=1e-14),
     "no faces refined"),
    ("circle", dict(refine_step=2, refine_threshold=1e-14),
     "interface at p_max"),
    ("circle", dict(refine_kind="relative", refine_threshold=1.0),
     "outer iteration cap"),
], ids=["nothing_refined", "p_max", "cap"])
def test_final_record_repeats_the_last_one(name, plan, exit_reason):
    # the mesh is unchanged since the last record on every exit, so the
    # final record reuses its face errors instead of measuring again
    field = ANALYTIC_LEVELSETS[name]()
    plan = AdaptivityPlan(p_init=1, p_max=3, fit_tol=1e-7, **plan)
    res = run_rp_adaptivity(generate_cartesian(4, 4, 1), field,
                            FitConfig(metric=QualityMetric("mu2")), plan)
    assert res.exit_reason == exit_reason
    _assert_final_repeats_the_last_record(res, field)


def _ended(status="converged", w_end=1e6, sigma_end=1e-8):
    return SolveReport(status=status, final_fit_weight=w_end,
                       final_sigma_max=sigma_end)


def test_restart_weight_scales_the_last_equilibrium():
    # c = w_end * sigma_end = 1e-2
    assert adapt._restart_weight(_ended(), 1e-5, 1.0) == pytest.approx(1e3)
    assert adapt._restart_weight(_ended(), 0.1, 1.0) == 1.0     # below weight
    assert adapt._restart_weight(_ended(), 1e-10, 1.0) == 1e6   # above w_end
    assert adapt._restart_weight(_ended(), 1e-5, 1e4) == 1e4


@pytest.mark.parametrize("report, sigma0", [
    (_ended(status="stalled"), 1e-5),
    (_ended(status="max_iterations"), 1e-5),
    (_ended(sigma_end=None), 1e-5),
    (_ended(), 0.0),
    (_ended(), -1e-5),
], ids=["stalled", "max_iterations", "no_residual", "sigma0_zero",
        "sigma0_negative"])
def test_restart_weight_falls_back_to_the_callers_weight(report, sigma0):
    assert adapt._restart_weight(report, sigma0, 2.0) == 2.0


def test_re_solve_starts_at_the_equilibrium_weight():
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7)
    fit = FitConfig(metric=QualityMetric("mu2"))
    solves = []

    def spy(problem):
        solves.append((problem.fit_weight, *solve_r_adaptivity(problem)))
        return solves[-1][1:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "solve_r_adaptivity", spy)
        res = run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle, fit,
                                plan)
    assert len(solves) == 2
    (w_first, _, first), (w_second, _, second) = solves
    assert w_first == 1.0 and first.status == "converged"
    sigma0, = [r.node_sigma_max for r in res.records if r.phase == "refine"]
    w_end = first.final_fit_weight
    expected = w_end * first.final_sigma_max / sigma0
    # the formula, strictly inside its clamp [fit weight, w_end]
    assert 1.0 < expected < w_end
    assert w_second == pytest.approx(expected, rel=1e-15)
    assert second.status == "converged"
    assert second.num_iterations < first.num_iterations
    assert fit.fit_weight == 1.0


@pytest.fixture(scope="module")
def derefining_squircle_run():
    """The 8x8 squircle run with derefinement, plus a copy of the mesh at
    each record but the last (the driver measures face errors once per
    record, and the final record repeats the one before it)."""
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          deref_kind="size", deref_threshold=1e-5,
                          fit_tol=1e-7)
    at_record = []

    def measure(mesh, field):
        at_record.append(mesh.copy())
        return compute_face_errors(mesh, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "compute_face_errors", measure)
        res = run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle,
                                FitConfig(metric=QualityMetric("mu2")), plan)
    assert len(at_record) == len(res.records) - 1
    return res, at_record


def test_driver_stops_at_fixpoint(derefining_squircle_run):
    # outer 2 would re-refine exactly what outer 1 derefined
    res, _ = derefining_squircle_run
    assert res.exit_reason == "fixpoint"
    fits = [r for r in res.records if r.phase == "fit"]
    assert len(fits) == 2
    hists = [tuple(r.histogram.items()) for r in fits]
    assert len(set(hists)) == len(hists)
    deref1, = [r for r in res.records
               if r.phase == "derefine" and r.outer == 1]
    assert res.records[-1].phase == "final"
    assert res.records[-1].dofs == deref1.dofs
    assert res.records[-1].histogram == deref1.histogram


def test_fixpoint_exit_restores_the_derefined_mesh(derefining_squircle_run):
    res, at_record = derefining_squircle_run
    i, = [i for i, r in enumerate(res.records)
          if r.phase == "derefine" and r.outer == 1]
    # orders, node blocks, vertices and marked faces, compared exactly
    assert meshes_identical(res.mesh, at_record[i])


def test_fixpoint_final_record_repeats_the_last_one(derefining_squircle_run):
    res, _ = derefining_squircle_run
    _assert_final_repeats_the_last_record(
        res, ANALYTIC_LEVELSETS["squircle2d"]())


@pytest.mark.parametrize("limit", [None, 1], ids=["deref", "limited_deref"])
def test_derefinement_pass_leaves_orders_and_constraints_settled(limit):
    # propagation and constraint re-application after an accepting pass
    # would change nothing
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          deref_kind="size", deref_threshold=1e-5,
                          max_neighbor_diff=limit, fit_tol=1e-7)
    passes = []

    def checked(mesh, field, plan):
        accepted = derefinement_pass(mesh, field, plan)
        settled = np.array_equal(
            propagate_orders(mesh, mesh.orders(), plan.neighbor_limit),
            mesh.orders())
        # the owner rule reads the mesh's own blocks back as its nodes
        unchanged = np.array_equal(apply_edge_constraints(mesh), mesh.nodes)
        passes.append((len(accepted), settled, unchanged))
        return accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "derefinement_pass", checked)
        run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle,
                          FitConfig(metric=QualityMetric("mu2")), plan)
    assert any(n > 0 for n, _, _ in passes)
    assert all(settled and unchanged for _, settled, unchanged in passes)


def test_driver_respects_neighbor_limit():
    circle = ANALYTIC_LEVELSETS["circle"]()
    m = generate_cartesian(4, 4, 1)
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          max_neighbor_diff=1, refine_kind="absolute",
                          refine_threshold=1e-14, fit_tol=1e-7)
    res = run_rp_adaptivity(m, circle, FitConfig(metric=QualityMetric("mu2")),
                            plan)
    worst = 0
    for rec in edge_records(res.mesh):
        if len(rec.sides) == 2:
            a, b = (res.mesh.elements[s.element].order for s in rec.sides)
            worst = max(worst, abs(a - b))
    assert worst <= 1
    hist = res.mesh.order_histogram()
    assert hist.get(2, 0) > 0  # the transition jacket exists


def test_edge_touching_elevation():
    # element 8 of a 3x3 grid touches the marked cross at one vertex only
    m = generate_cartesian(3, 3, 1)
    center = 4
    m.set_order(center, 3)
    m.marked_faces = {k for k, rec in enumerate(edge_records(m))
                      if any(s.element == center for s in rec.sides)}
    before = m.orders()
    orders = edge_touching_elevation(m, before)
    assert np.array_equal(m.orders(), before)
    # the four diagonal neighbors touch two marked faces at a shared vertex,
    # and are raised to the highest order adjacent to the touched faces
    assert set(np.flatnonzero(orders != before)) == {0, 2, 6, 8}
    assert (orders[[0, 2, 6, 8]] == 3).all()


def test_driver_elevates_elements_touching_the_interface_at_a_vertex():
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7, edge_touch_elevate=True)
    res = run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle,
                            FitConfig(metric=QualityMetric("mu2")), plan)
    assert res.exit_reason == "interface at p_max"
    m = res.mesh
    assert m.num_position_dofs == 305  # 273 without the elevation
    orders = m.orders()
    edges = edge_records(m)
    touching = 0
    for e, el in enumerate(m.elements):
        if m.marked_faces.intersection(m.element_edge_ids[e].tolist()):
            continue
        for v in el.verts:
            at_v = [k for k in m.marked_faces if v in edges[k].verts]
            if len(at_v) >= 2:
                touching += 1
                assert orders[e] == max(orders[s.element] for k in at_v
                                        for s in edges[k].sides)
    assert touching > 0


def test_driver_fits_the_domain_boundary():
    # the box lies inside the squircle, so every boundary face is marked
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          fit_tol=1e-7)
    res = run_rp_adaptivity(
        generate_cartesian(8, 8, 1, box=(0.3, 0.3, 0.7, 0.7)), squircle,
        FitConfig(metric=QualityMetric("mu2"), boundary="free"), plan,
        boundary_fit=True)
    m = res.mesh
    assert len(m.marked_faces) == 32
    assert m.marked_faces == set(m.boundary_edges())
    assert [r.solver_status for r in res.records if r.phase == "fit"] \
        == ["converged", "converged"]
    assert res.exit_reason == "interface at p_max"
    assert res.records[-1].dofs == 313
    assert res.records[-1].total_error < 1e-11
    assert m.min_det() > 0.0


def test_limited_run_is_at_its_order_floor():
    """The 8x8 neighbor-limited squircle run of acceptance criterion 4 ends
    at the smallest order field its rules allow, so no program following
    those rules can use fewer DOFs there."""
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    plan = AdaptivityPlan(p_init=1, p_max=3, refine_step=2,
                          refine_kind="absolute", refine_threshold=1e-14,
                          max_neighbor_diff=1, fit_tol=1e-7)
    res = run_rp_adaptivity(generate_cartesian(8, 8, 1), squircle,
                            FitConfig(metric=QualityMetric("mu2")), plan)
    m = res.mesh
    order = np.array([el.order for el in m.elements])

    def edge_neighbors(elems):
        k = m.element_edge_ids[list(elems)]
        sides = m.edge_element_ids[k[k >= 0]]
        return set(sides[sides >= 0].tolist()) - set(elems)

    edges = edge_records(m)
    band = {s.element for k in m.marked_faces for s in edges[k].sides}
    jacket = edge_neighbors(band)
    assert set(np.flatnonzero(order == 3)) == band
    assert set(np.flatnonzero(order == 2)) == jacket

    # every face error is above the refine threshold, so refinement rules
    # require p_max on both sides of every marked face
    errors = compute_face_errors(m, squircle).errors
    assert errors.min() > plan.refine_threshold
    for e in range(len(m.elements)):
        if order[e] == plan.p_init or e in band:
            continue
        # lowering e by one breaks the neighbor limit against some neighbor
        assert max(order[list(edge_neighbors([e]))]) - (order[e] - 1) \
            > plan.max_neighbor_diff
    floor = generate_cartesian(8, 8, 1)
    for e in sorted(band | jacket):
        floor.set_order(e, 3 if e in band else 2)
    assert m.num_position_dofs == floor.num_position_dofs
