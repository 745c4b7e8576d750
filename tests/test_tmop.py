import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshfit import (FitConfig, MeshInvalidError, QualityMetric,
                     SolverControls, TargetSpec, TmopProblem, assign_materials,
                     element_quality, generate_cartesian, gradient,
                     mark_interface_faces, metric_value, objective,
                     solve_r_adaptivity)
from meshfit.mesh import map_jacobians, require_valid
from meshfit.levelset import ANALYTIC_LEVELSETS
from meshfit.tmop import (IDEAL_TRIANGLE_TARGET, _Assembly, _element_pass,
                          _hessian_values, _min_element_diameter,
                          _motion_basis, _NewtonPattern, _product_terms, adj2,
                          boundary_freedom)

from conftest import meshes_identical, perturbed_mesh, random_order_mesh


# ---------------------------------------------------------------------------
# metric values

def test_metric_hand_values():
    T = np.diag([2.0, 1.0])
    # mu2 = |T|^2 / (2 det T) - 1 = 5/4 - 1
    assert np.isclose(metric_value(QualityMetric("mu2"), T), 0.25, atol=1e-14)
    # mu77 = 0.5 (det - 1/det)^2 = 0.5 (3/2)^2
    assert np.isclose(metric_value(QualityMetric("mu77"), T), 1.125, atol=1e-14)
    blended = metric_value(QualityMetric("mu80", gamma=0.5), T)
    assert np.isclose(blended, 0.5 * 0.25 + 0.5 * 1.125, atol=1e-14)


def test_metric_invariances():
    th = 0.37
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert abs(metric_value(QualityMetric("mu2"), R)) < 1e-14
    assert abs(metric_value(QualityMetric("mu77"), R)) < 1e-14
    # mu2 ignores pure scaling, mu77 does not
    assert abs(metric_value(QualityMetric("mu2"), 3.0 * R)) < 1e-14
    assert metric_value(QualityMetric("mu77"), 3.0 * R) > 1.0


def test_metric_barrier_on_inversion():
    T = np.diag([1.0, -0.5])
    for name in ("mu2", "mu77", "mu80"):
        assert metric_value(QualityMetric(name), T) == np.inf
    assert metric_value(QualityMetric("mu2"), np.zeros((2, 2))) == np.inf


def test_metric_derivatives_match_fd(rng):
    Ts = rng.normal(size=(12, 2, 2)) * 0.3 + np.eye(2)
    Ts = Ts[np.linalg.det(Ts) > 0.2]
    eps = 1e-7
    for name in ("mu2", "mu77", "mu80"):
        metric = QualityMetric(name, gamma=0.3)
        _, der = metric.values_and_derivs(Ts)
        for a in range(2):
            for b in range(2):
                Tp = Ts.copy()
                Tp[:, a, b] += eps
                Tm = Ts.copy()
                Tm[:, a, b] -= eps
                fd = (metric.values(Tp) - metric.values(Tm)) / (2 * eps)
                assert np.abs(der[:, a, b] - fd).max() < 1e-6


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        QualityMetric("mu99")


def test_target_spec():
    t = TargetSpec()
    assert np.allclose(t.for_geometry("quad"), np.eye(2))
    assert np.allclose(t.for_geometry("tri"), IDEAL_TRIANGLE_TARGET)
    assert np.isclose(np.linalg.det(IDEAL_TRIANGLE_TARGET), np.sqrt(3) / 2)
    custom = TargetSpec("matrix", np.diag([2.0, 1.0]))
    assert np.allclose(custom.for_geometry("quad"), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError):
        TargetSpec("matrix", np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        TargetSpec("banana")


def test_element_quality_values():
    # a 2x1 stretched element against the unit-square target gives the
    # diag(2, 1) hand value everywhere
    m = generate_cartesian(1, 1, 2, box=(0.0, 0.0, 2.0, 1.0))
    q = element_quality(m, QualityMetric("mu2"))
    assert np.allclose(q, 0.25, atol=1e-13)
    m2 = generate_cartesian(2, 2, 1)
    assert np.allclose(element_quality(m2, QualityMetric("mu2")), 0.0,
                       atol=1e-14)
    mean = element_quality(m, QualityMetric("mu2"), reduce="mean")
    assert np.allclose(mean, 0.25, atol=1e-13)


# ---------------------------------------------------------------------------
# materials and marking

def test_assign_materials_and_marking_circle():
    m = generate_cartesian(4, 4, 1)
    circle = ANALYTIC_LEVELSETS["circle"]()
    assign_materials(m, circle)
    attrs = np.array([el.attribute for el in m.elements]).reshape(4, 4)
    assert (attrs == 1).sum() == 4  # the four center cells contain the disk
    assert attrs[1, 1] == attrs[1, 2] == attrs[2, 1] == attrs[2, 2] == 1
    marked = mark_interface_faces(m, circle)
    assert marked == m.marked_faces
    assert len(marked) == 8  # perimeter of the 2x2 material-1 block
    for k in marked:
        a, b = (m.elements[s.element].attribute for s in m.edges[k].sides)
        assert {a, b} == {1, 2}


def test_boundary_mode_marks_outer_edges():
    m = generate_cartesian(2, 2, 1)
    for el in m.elements:
        el.attribute = 1
    marked = mark_interface_faces(m, boundary_mode=True)
    assert marked == set(m.boundary_edges())


# ---------------------------------------------------------------------------
# objective and gradient

def test_objective_zero_on_ideal_mesh():
    m = generate_cartesian(3, 3, 1)
    prob = FitConfig(metric=QualityMetric("mu2")).problem(m)
    assert objective(prob) < 1e-28
    # the size metric sees tau = h^2 != 1 and is far from zero
    prob77 = FitConfig(metric=QualityMetric("mu77")).problem(m)
    assert objective(prob77) > 1.0


def test_objective_infinite_on_tangled_mesh():
    m = generate_cartesian(2, 2, 1)
    dm = m.dof_map()
    t = dm.extract(m)
    t[np.argmin(np.abs(t - 0.5).sum(axis=1))] = [2.5, 2.5]
    prob = FitConfig(metric=QualityMetric("mu2")).problem(m)
    assert objective(prob, t) == np.inf


def test_gradient_matches_fd_with_fit_term(rng):
    sq = ANALYTIC_LEVELSETS["squircle2d"]()
    m = perturbed_mesh(3, 3, 2, seed=13)
    mark_interface_faces(m, sq)
    prob = FitConfig(metric=QualityMetric("mu80", gamma=0.4),
                     fit_weight=5.0).problem(m, sq)
    g = gradient(prob)
    dm = m.dof_map()
    t = dm.extract(m)
    eps = 1e-6
    idx = rng.choice(t.shape[0], size=8, replace=False)
    for i in idx:
        for a in range(2):
            tp = t.copy()
            tp[i, a] += eps
            tm = t.copy()
            tm[i, a] -= eps
            fd = (objective(prob, tp) - objective(prob, tm)) / (2 * eps)
            assert abs(fd - g[i, a]) < 1e-5 * max(1.0, abs(g[i, a]))


def _sheared_mixed_mesh():
    """3x3 mesh of orders 1 and 3, with constrained edge nodes, sheared."""
    m = random_order_mesh(3, 3, orders=(1, 3), seed=5)
    dm = m.dof_map()
    t = dm.extract(m)
    t[:, 0] += 0.2 * t[:, 1]
    dm.scatter(m, t)
    return m


FD_MESHES = {
    "quad2": lambda: perturbed_mesh(3, 3, 2, seed=17),
    "mixed13": _sheared_mixed_mesh,
    "tri2": lambda: perturbed_mesh(3, 3, 2, seed=17, split_triangles=True),
}
FD_CASES = {"mu2": ("mu2", None, 0.0), "mu77": ("mu77", None, 0.0),
            "mu80": ("mu80", None, 0.0),
            # Gauss-Newton is exact for the affine plane field y = 0.3
            "mu2-plane": ("mu2", ANALYTIC_LEVELSETS["plane"](0.3), 5.0)}


@pytest.mark.parametrize("metric, field, fit_weight, mesh", [
    case + (mesh,) for mesh in FD_MESHES for case in FD_CASES.values()],
    ids=[name if mesh == "quad2" else f"{name}-{mesh}"
         for mesh in FD_MESHES for name in FD_CASES])
def test_quality_hessian_matches_fd(rng, metric, field, fit_weight, mesh):
    m = FD_MESHES[mesh]()
    if field is not None:
        mark_interface_faces(m, field)
        assert m.marked_faces
    prob = FitConfig(metric=QualityMetric(metric, gamma=0.3),
                     fit_weight=fit_weight).problem(m, field)
    asm = _Assembly(prob)
    t = m.dof_map().extract(m)
    # the matrix the solver factors; with a free boundary Z = I
    newton = _NewtonPattern(asm, _motion_basis(*boundary_freedom(m, "free")))
    H = newton.matrix(newton.assemble(_hessian_values(
        asm, _element_pass(asm, prob.metric, t)[1], fit_weight,
        asm.sigma_gradients(t)))).toarray()
    assert np.abs(H - H.T).max() < 1e-10
    # mu77 entries reach about 1e4 on this mesh, so the bound scales with H
    tol = 2e-9 * np.abs(H).max()
    eps = 1e-6
    idx = rng.choice(t.shape[0], size=5, replace=False)
    if field is not None:  # include marked nodes, where the fit block acts
        idx[:2] = asm.marked[:2]
    for i in idx:
        for a in range(2):
            tp = t.copy()
            tp[i, a] += eps
            tm = t.copy()
            tm[i, a] -= eps
            col = (gradient(prob, tp) - gradient(prob, tm)).ravel() / (2 * eps)
            assert np.abs(col - H[:, 2 * i + a]).max() < tol


def test_newton_pattern_matches_dense_assembly(rng):
    # p1 next to p3 leaves constrained edge nodes; the shear makes the
    # sliding tangents of the left and right sides oblique
    m = random_order_mesh(4, 4, orders=(1, 3), seed=5)
    dm = m.dof_map()
    t = dm.extract(m)
    t[:, 0] += 0.2 * t[:, 1]
    dm.scatter(m, t)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    prob = FitConfig(metric=QualityMetric("mu80", gamma=0.3),
                     fit_weight=7.0).problem(m, circle)
    asm = _Assembly(prob)
    assert asm.marked.size
    assert np.any((asm.expand.data != 0.0) & (asm.expand.data != 1.0))
    kinds, tangents = boundary_freedom(m, "slide")
    oblique = (kinds == 1) & (np.abs(tangents).min(axis=1) > 0.1)
    assert oblique.any() and (kinds == 2).any()
    Z = _motion_basis(kinds, tangents)
    newton = _NewtonPattern(asm, Z)
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1],
                             prob.fit_weight, asm.sigma_gradients(t))
    data = newton.assemble(values)
    Hp = newton.matrix(data).toarray()

    # dense reference Z^T (E2^T B E2 + GN) Z from the same values
    n_local = 2 * dm.total_local
    B = np.zeros((n_local, n_local))
    pos = 0
    for g in asm.groups:
        nn = g["tables"].ref.num_nodes
        size = 2 * nn
        for first in 2 * g["gather"][:, 0]:
            # values in (a, b, i, j) order, B rows 2 i + a and columns 2 j + b
            B[first:first + size, first:first + size] = \
                values[pos:pos + size * size].reshape(2, 2, nn, nn) \
                .transpose(2, 0, 3, 1).reshape(size, size)
            pos += size * size
    GN = np.zeros((2 * len(kinds), 2 * len(kinds)))
    for node in asm.marked:
        GN[2 * node:2 * node + 2, 2 * node:2 * node + 2] = \
            values[pos:pos + 4].reshape(2, 2)
        pos += 4
    assert pos == values.size
    E2, Zd = np.kron(asm.expand.toarray(), np.eye(2)), Z.toarray()
    ref = Zd.T @ (E2.T @ B @ E2 + GN) @ Zd
    assert np.abs(Hp - ref).max() <= 1e-13 * np.abs(ref).max()

    # damping shifts the diagonal only, on a copy of the values
    shift = 1e-3 * rng.uniform(0.5, 1.0, Z.shape[1])
    damped = newton.damped(data, shift).toarray()
    assert np.array_equal(damped, Hp + np.diag(shift))
    assert np.array_equal(newton.matrix(data).toarray(), Hp)

    # renumbered by perm, the pattern holds P^T A P with P = I[:, q] and
    # q = argsort(perm); its slots, slot rows and diagonal move together
    perm = rng.permutation(Z.shape[1])
    q = np.argsort(perm)
    P = np.eye(Z.shape[1])[:, q]
    moved = newton.renumber(perm)
    renumbered = newton.assemble(values)
    assert np.array_equal(renumbered, data[moved])
    assert np.array_equal(newton.matrix(renumbered).toarray(), P.T @ Hp @ P)
    assert np.array_equal(newton.damped(renumbered, shift[q]).toarray(),
                          P.T @ damped @ P)


def test_slot_keys_of_a_wide_system_do_not_overflow():
    # the CSC keys j * n + i pass 2^31 from n = 46341 on
    n = 50000
    Q = sp.csr_matrix(([2.0, 3.0], ([0, 1], [n - 1, n - 2])), shape=(2, n))
    assert Q.indices.dtype == np.int32
    _, keys, w = _product_terms(Q, np.array([0, 1]), np.array([1, 0]))
    assert keys.tolist() == [(n - 2) * n + n - 1, (n - 1) * n + n - 2]
    assert w.tolist() == [6.0, 6.0]


def test_renumbering_by_the_mmd_ordering_keeps_its_fill():
    # natural order on the matrix renumbered by an MMD factorization's
    # perm_c fills in like that factorization; renumbering by perm_c in
    # place of its inverse does not
    m = random_order_mesh(6, 6, orders=(2, 3), seed=4)
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    mark_interface_faces(m, squircle)
    prob = FitConfig().problem(m, squircle)
    asm = _Assembly(prob)
    t = asm.dm.extract(m)
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1],
                             prob.fit_weight, asm.sigma_gradients(t))

    def fill(newton, permc_spec):
        data = newton.assemble(values)
        lu = spla.splu(newton.damped(data, 1e-4 * data[newton.diag]),
                       permc_spec=permc_spec,
                       options={"SymmetricMode": True})
        return lu, lu.L.nnz + lu.U.nnz

    Z = _motion_basis(*boundary_freedom(m))
    lu, mmd_fill = fill(_NewtonPattern(asm, Z), "MMD_AT_PLUS_A")
    right, wrong = _NewtonPattern(asm, Z), _NewtonPattern(asm, Z)
    right.renumber(lu.perm_c)
    wrong.renumber(np.argsort(lu.perm_c))
    assert fill(right, "NATURAL")[1] <= 1.01 * mmd_fill
    assert fill(wrong, "NATURAL")[1] > 1.5 * mmd_fill


def _tk_dk_element_blocks(asm, metric, t):
    """Reference element Hessian blocks from batched products of T K^T and
    adj(T) K^T, one (E, 2 nn, 2 nn) stack per group on local coordinates
    2 node + component."""
    x_all = asm.expand @ t
    blocks = []
    for g in asm.groups:
        K = g["K"]
        nq, nn = K.shape[:2]
        T = map_jacobians(x_all[g["gather"]], K)
        adj = adj2(T)
        good, (_, mu_f, mu_tau, mu_ftau, mu_tautau) = metric._eval(T)
        assert good.all()
        w = g["detW"] * g["tables"].quad_weights[None, :]
        c_id, c_sym, c_dd, c_eps = (w * c for c in (
            2.0 * mu_f, 2.0 * mu_ftau, mu_tautau, mu_tau))
        tK = np.matmul(K[None], T.transpose(0, 1, 3, 2)).reshape(-1, nq, 2 * nn)
        dK = np.matmul(K[None], adj.transpose(0, 1, 3, 2)).reshape(-1, nq, 2 * nn)
        KK = np.einsum("qic,qjc->qij", K, K).reshape(nq, nn * nn)
        Weps = (K[:, :, None, 0] * K[:, None, :, 1]
                - K[:, :, None, 1] * K[:, None, :, 0]).reshape(nq, nn * nn)
        He = np.matmul(np.swapaxes(tK * c_sym[:, :, None], 1, 2), dK)
        He = He + np.swapaxes(He, 1, 2)
        He += np.matmul(np.swapaxes(dK * c_dd[:, :, None], 1, 2), dK)
        He5 = He.reshape(-1, nn, 2, nn, 2)
        Hid = (c_id @ KK).reshape(-1, nn, nn)
        Heps = (c_eps @ Weps).reshape(-1, nn, nn)
        He5[:, :, 0, :, 0] += Hid
        He5[:, :, 1, :, 1] += Hid
        He5[:, :, 0, :, 1] += Heps
        He5[:, :, 1, :, 0] -= Heps
        blocks.append(He)
    return blocks


@pytest.mark.parametrize("split", [False, True], ids=["quad", "tri"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("metric", ["mu2", "mu77", "mu80"])
def test_element_hessian_gemm_matches_tk_dk_reference(metric, order, split):
    m = perturbed_mesh(3, 3, order, seed=order, split_triangles=split)
    prob = FitConfig(metric=QualityMetric(metric, gamma=0.3)).problem(m)
    asm = _Assembly(prob)
    t = m.dof_map().extract(m)
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1], 0.0,
                             asm.sigma_gradients(t))
    pos = 0
    for g, ref in zip(asm.groups, _tk_dk_element_blocks(asm, prob.metric, t)):
        n_el, size = ref.shape[:2]
        nn = size // 2
        # values in (e, a, b, i, j) order, reference rows 2 i + a
        got = values[pos:pos + ref.size].reshape(n_el, 2, 2, nn, nn) \
            .transpose(0, 3, 1, 4, 2).reshape(ref.shape)
        pos += ref.size
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert pos == values.size


# ---------------------------------------------------------------------------
# boundary policy

def test_boundary_freedom_classification():
    m = generate_cartesian(3, 3, 1)
    kinds, tangents = boundary_freedom(m, "slide")
    t = m.dof_map().extract(m)
    corners = ((np.abs(t[:, 0]) < 1e-12) | (np.abs(t[:, 0] - 1) < 1e-12)) \
        & ((np.abs(t[:, 1]) < 1e-12) | (np.abs(t[:, 1] - 1) < 1e-12))
    edge = (((np.abs(t[:, 0]) < 1e-12) | (np.abs(t[:, 0] - 1) < 1e-12))
            | ((np.abs(t[:, 1]) < 1e-12) | (np.abs(t[:, 1] - 1) < 1e-12))) \
        & ~corners
    assert np.all(kinds[corners] == 2)
    assert np.all(kinds[edge] == 1)
    assert np.all(kinds[~corners & ~edge] == 0)
    # tangents of sliding nodes are unit vectors along the boundary lines
    norms = np.linalg.norm(tangents[edge], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)


def test_boundary_freedom_fixed_and_free_modes():
    m = generate_cartesian(2, 2, 1)
    kinds, _ = boundary_freedom(m, "slide")
    kinds_f, _ = boundary_freedom(m, "fixed")
    assert np.all(kinds_f[kinds > 0] == 2) and np.all(kinds_f[kinds == 0] == 0)
    kinds_free, _ = boundary_freedom(m, "free")
    assert np.all(kinds_free == 0)


def _sheared_cartesian(n, order, shear=0.3):
    m = generate_cartesian(n, n, order)
    dm = m.dof_map()
    t = dm.extract(m)
    t[:, 0] += shear * t[:, 1]
    dm.scatter(m, t)
    return m


def test_motion_basis_spans_the_allowed_motions():
    # the shear makes the tangents of the left and right sides oblique
    kinds, tangents = boundary_freedom(_sheared_cartesian(3, 2), "slide")
    oblique = (kinds == 1) & (np.abs(tangents).min(axis=1) > 0.1)
    assert oblique.any() and (kinds == 2).any() and (kinds == 0).any()
    Z = _motion_basis(kinds, tangents).toarray()
    assert Z.shape == (2 * len(kinds), int(np.sum(2 - kinds)))
    assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), rtol=0.0, atol=1e-15)
    # Z Z^T is block diagonal: I per free node, t t^T per sliding node and
    # 0 per fixed node
    blocks = np.zeros((len(kinds), 2, 2))
    blocks[kinds == 0] = np.eye(2)
    line = kinds == 1
    blocks[line] = tangents[line, :, None] * tangents[line, None, :]
    n = len(kinds)
    expected = np.zeros((2 * n, 2 * n))
    for node in range(n):
        expected[2 * node:2 * node + 2, 2 * node:2 * node + 2] = blocks[node]
    assert np.allclose(Z @ Z.T, expected, rtol=0.0, atol=1e-15)


def test_slide_solve_keeps_boundary_nodes_on_their_lines():
    m = _sheared_cartesian(4, 2, shear=0.4)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    dm = m.dof_map()
    t0 = dm.extract(m)
    kinds, tangents = boundary_freedom(m, "slide")
    assert ((kinds == 1) & (np.abs(tangents).min(axis=1) > 0.1)).any()
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(m, circle))
    assert report.num_iterations > 0
    t1 = dm.extract(m)
    moved = t1 - t0
    line = kinds == 1
    assert np.abs(moved[line]).max() > 1e-6
    # no motion across the boundary line of a sliding node
    normal = moved[line, 0] * tangents[line, 1] \
        - moved[line, 1] * tangents[line, 0]
    assert np.abs(normal).max() <= 1e-12 * m.diameter()
    assert np.array_equal(t1[kinds == 2], t0[kinds == 2])


# ---------------------------------------------------------------------------
# solver

@pytest.mark.parametrize("split", [False, True], ids=["quad", "tri"])
@pytest.mark.parametrize("seed", range(5))
def test_min_element_diameter_matches_the_element_loop(split, seed):
    m = random_order_mesh(4, 3, seed=seed, split_triangles=split)
    rng = np.random.default_rng(seed)
    for el in m.elements:  # per-element jitter: every diameter differs
        el.coords += rng.uniform(-0.05, 0.05, el.coords.shape)
    assert len(m.groups()) > 1
    # bounding-box diagonal of each element's nodes, element by element
    assert _min_element_diameter(m) == min(
        float(np.hypot(*(el.coords.max(axis=1) - el.coords.min(axis=1))))
        for el in m.elements)


def test_solver_converges_on_circle():
    m = generate_cartesian(4, 4, 1)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(m, circle))
    assert report.status == "converged"
    assert report.final_sigma_max <= 1e-7
    assert report.final_min_det > 0.0
    assert report.initial_sigma_max > 1e-2
    # every accepted step kept the mesh valid
    assert all(rec.min_det > 0.0 for rec in report.iterations)
    assert all(rec.objective_after < rec.objective_before
               for rec in report.iterations)
    # marked nodes truly sit on the isocontour now
    ids = m.dof_map().marked_node_ids(m)
    vals = circle.values(m.dof_map().extract(m)[ids])
    assert np.abs(vals).max() <= 1e-7


def test_solver_counts_factorizations():
    m = generate_cartesian(4, 4, 2)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    fit = FitConfig(controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(m, circle))
    assert report.status == "converged"
    assert report.num_iterations > 0
    # every iteration factors at least once; rejected factorizations are
    # damping retries
    assert report.factorizations >= report.num_iterations
    assert 0 <= report.damping_retries <= report.factorizations


def _squircle_fit(n, p, metric):
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    m = generate_cartesian(n, n, p)
    mark_interface_faces(m, squircle)
    return FitConfig(metric=metric, controls=SolverControls(fit_tol=1e-7)) \
        .problem(m, squircle)


def test_solve_computes_one_mmd_ordering(monkeypatch):
    orderings = []
    splu = spla.splu

    def recording(A, permc_spec=None, **kwargs):
        orderings.append(permc_spec)
        if len(orderings) == 2:  # one rejected system: a damping retry
            raise RuntimeError("Factor is exactly singular")
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    _, report = solve_r_adaptivity(_squircle_fit(4, 2, QualityMetric("mu2")))
    assert report.status == "converged"
    assert report.damping_retries >= 1
    assert len(orderings) == report.factorizations > 2
    assert orderings[0] == "MMD_AT_PLUS_A"
    assert set(orderings[1:]) == {"NATURAL"}


def test_solve_matches_an_mmd_ordering_per_factorization(monkeypatch):
    # the renumbered solve takes the same steps up to rounding as one that
    # orders every factorization afresh
    fits = []
    for fresh in (False, True):
        if fresh:
            splu = spla.splu
            monkeypatch.setattr(
                spla, "splu", lambda A, permc_spec=None, **kwargs: splu(
                    A, permc_spec="MMD_AT_PLUS_A", **kwargs))
        prob = _squircle_fit(6, 2, QualityMetric("mu2"))
        _, report = solve_r_adaptivity(prob)
        fits.append((prob.mesh, report))
    (m0, r0), (m1, r1) = fits
    assert r0.status == r1.status == "converged"
    assert (r0.num_iterations, r0.factorizations) == \
        (r1.num_iterations, r1.factorizations)
    for a, b in zip(r0.iterations, r1.iterations):
        assert a.backtracks == b.backtracks and a.direction == b.direction
    x0, x1 = m0.dof_map().extract(m0), m1.dof_map().extract(m1)
    assert np.abs(x0 - x1).max() <= 1e-9 * m0.diameter()


def test_solver_early_exit_already_fitted():
    # mesh edges already lie on the plane x = 0.5, so there is nothing to do
    m = generate_cartesian(4, 4, 2)
    plane = ANALYTIC_LEVELSETS["plane"]()
    mark_interface_faces(m, plane)
    assert len(m.marked_faces) == 4
    snapshot = m.copy()
    _, report = solve_r_adaptivity(
        FitConfig(metric=QualityMetric("mu2")).problem(m, plane))
    assert report.status == "converged"
    assert report.num_iterations == 0
    assert meshes_identical(m, snapshot)


def test_solver_early_exit_zero_gradient():
    # uniform square mesh is a global minimum of the shape metric
    m = generate_cartesian(3, 3, 1)
    snapshot = m.copy()
    _, report = solve_r_adaptivity(
        FitConfig(metric=QualityMetric("mu2")).problem(m))
    assert report.status == "converged"
    assert report.num_iterations == 0
    assert meshes_identical(m, snapshot)


def test_solver_pure_quality_improves_perturbed_mesh():
    m = perturbed_mesh(4, 4, 1, seed=3, amp=0.08)
    fit = FitConfig(metric=QualityMetric("mu2"))
    f0 = objective(fit.problem(m))
    _, report = solve_r_adaptivity(fit.problem(m))
    f1 = objective(fit.problem(m))
    assert f1 < f0
    assert report.status == "converged"
    assert m.min_det() > 0.0
    # with nothing fitted there is no residual to report
    assert report.initial_sigma_max is None and report.final_sigma_max is None
    assert all(rec.sigma_max is None for rec in report.iterations)


def test_weight_escalation_schedule():
    sq = ANALYTIC_LEVELSETS["squircle2d"]()
    m = generate_cartesian(8, 8, 2)
    mark_interface_faces(m, sq)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(m, sq))
    weights = [rec.fit_weight for rec in report.iterations]
    assert weights[0] == 1.0
    assert report.final_fit_weight > 1.0  # escalation did kick in
    # weights only grow, by exactly the configured factor, within the cap
    for a, b in zip(weights, weights[1:]):
        assert b == a or np.isclose(b, a * 10.0)
        assert b <= 1e10
    assert report.status == "converged"


def test_solver_respects_sliding_boundary():
    plane = ANALYTIC_LEVELSETS["plane"]()
    m = perturbed_mesh(4, 4, 1, seed=29, amp=0.06)
    mark_interface_faces(m, plane)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-8))
    _, report = solve_r_adaptivity(fit.problem(m, plane))
    t = m.dof_map().extract(m)
    on_boundary = ((np.abs(t[:, 0]) < 1e-9) | (np.abs(t[:, 0] - 1) < 1e-9)
                   | (np.abs(t[:, 1]) < 1e-9) | (np.abs(t[:, 1] - 1) < 1e-9))
    # perturbation kept boundary nodes on the box, and sliding must too
    assert on_boundary.sum() == 16
    for corner in ([0, 0], [1, 0], [1, 1], [0, 1]):
        assert np.any(np.all(np.abs(t - corner) < 1e-12, axis=1))


def test_mixed_order_gradient_with_constraints(rng):
    sq = ANALYTIC_LEVELSETS["squircle2d"]()
    m = random_order_mesh(3, 3, orders=(1, 2, 3), seed=31)
    mark_interface_faces(m, sq)
    prob = FitConfig(metric=QualityMetric("mu2"), fit_weight=2.0).problem(m, sq)
    g = gradient(prob)
    dm = m.dof_map()
    t = dm.extract(m)
    eps = 1e-6
    idx = rng.choice(t.shape[0], size=6, replace=False)
    for i in idx:
        for a in range(2):
            tp = t.copy()
            tp[i, a] += eps
            tm = t.copy()
            tm[i, a] -= eps
            fd = (objective(prob, tp) - objective(prob, tm)) / (2 * eps)
            assert abs(fd - g[i, a]) < 1e-5 * max(1.0, abs(g[i, a]))


def test_zero_fit_weight_reports_true_residual():
    sq = ANALYTIC_LEVELSETS["squircle2d"]()
    m = generate_cartesian(4, 4, 1)
    mark_interface_faces(m, sq)

    def residual():
        dm = m.dof_map()
        return float(np.abs(sq.values(dm.extract(m)[dm.marked_node_ids(m)])).max())

    initial = residual()
    assert initial == pytest.approx(4.49e-3, abs=1e-5)
    _, report = solve_r_adaptivity(FitConfig(fit_weight=0.0).problem(m, sq))
    assert report.initial_sigma_max == initial
    assert report.final_sigma_max == residual()
    assert "already on the isocontour" not in report.reason


@pytest.mark.parametrize("fit_weight", [-1.0, np.inf, np.nan])
def test_invalid_fit_weight_rejected(fit_weight):
    m = generate_cartesian(2, 2, 1)
    with pytest.raises(ValueError, match="fit_weight"):
        TmopProblem(m, QualityMetric("mu2"), fit_weight=fit_weight)
    with pytest.raises(ValueError, match="fit_weight"):
        FitConfig(fit_weight=fit_weight)


@pytest.mark.parametrize("seed", [64, 307, 346])
def test_mesh_and_solver_agree_on_validity(seed):
    # perturbations that leave every interior Gauss point and node valid but
    # invert the map at a Lobatto point on the element boundary
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 4))
    m = generate_cartesian(2, 2, p)
    dm = m.dof_map()
    t = dm.extract(m)
    t = t + rng.uniform(-1, 1, t.shape) * float(rng.uniform(0.05, 0.4)) / (2 * p)
    dm.scatter(m, t)
    problem = TmopProblem(m, QualityMetric("mu2"))
    assert m.min_det() == pytest.approx(_Assembly(problem).min_det(t),
                                        rel=1e-12)
    assert not m.is_valid()
    with pytest.raises(MeshInvalidError):
        require_valid(m)
    with pytest.raises(MeshInvalidError):
        solve_r_adaptivity(problem)
