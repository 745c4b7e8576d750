import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meshfit import (FitConfig, MeshInvalidError, QualityMetric,
                     SolverControls, TmopProblem, assign_materials,
                     element_quality, generate_cartesian, gradient,
                     mark_interface_faces, objective, solve_r_adaptivity, tmop)
from meshfit.basis import basis_tables, jacobian_table, reference_element
from meshfit.mesh import element_min_dets, map_jacobians, require_valid
from meshfit.levelset import ANALYTIC_LEVELSETS, AnalyticLevelSet
from meshfit.tmop import (IDEAL_TRIANGLE_TARGET, _Assembly, _element_pass,
                          _hessian_values, _metric_derivs,
                          _min_element_diameter, _motion_basis, _motion_rows,
                          _NewtonPattern,
                          _product_terms, TargetTables, boundary_freedom,
                          target_tables)

from conftest import (edge_records, meshes_identical, perturbed_mesh,
                      random_order_mesh)


# ---------------------------------------------------------------------------
# metric values

def _components(T):
    """The components (T00, T01, T10, T11) of a (..., 2, 2) stack."""
    T = np.asarray(T, dtype=float)
    return T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1]


def _metric(name, T, **kw):
    return QualityMetric(name, **kw).values(_components(T))


def test_metric_hand_values():
    T = np.diag([2.0, 1.0])
    # mu2 = |T|^2 / (2 det T) - 1 = 5/4 - 1
    assert np.isclose(_metric("mu2", T), 0.25, atol=1e-14)
    # mu77 = 0.5 (det - 1/det)^2 = 0.5 (3/2)^2
    assert np.isclose(_metric("mu77", T), 1.125, atol=1e-14)
    blended = _metric("mu80", T, gamma=0.5)
    assert np.isclose(blended, 0.5 * 0.25 + 0.5 * 1.125, atol=1e-14)


def test_metric_invariances():
    th = 0.37
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert abs(_metric("mu2", R)) < 1e-14
    assert abs(_metric("mu77", R)) < 1e-14
    # mu2 ignores pure scaling, mu77 does not
    assert abs(_metric("mu2", 3.0 * R)) < 1e-14
    assert _metric("mu77", 3.0 * R) > 1.0


def test_metric_barrier_on_inversion():
    T = np.diag([1.0, -0.5])
    for name in ("mu2", "mu77", "mu80"):
        assert _metric(name, T) == np.inf
    assert _metric("mu2", np.zeros((2, 2))) == np.inf


def test_metric_derivatives_match_fd(rng):
    Ts = rng.normal(size=(12, 2, 2)) * 0.3 + np.eye(2)
    Ts = Ts[np.linalg.det(Ts) > 0.2]
    eps = 1e-7
    for name in ("mu2", "mu77", "mu80"):
        metric = QualityMetric(name, gamma=0.3)
        good, partials = metric._eval(_components(Ts))
        assert good.all()
        # the components d(mu)/dT_ab in (00, 01, 10, 11) order
        for ab, der in enumerate(_metric_derivs(_components(Ts), partials)):
            a, b = divmod(ab, 2)
            Tp = Ts.copy()
            Tp[:, a, b] += eps
            Tm = Ts.copy()
            Tm[:, a, b] -= eps
            fd = (metric.values(_components(Tp))
                  - metric.values(_components(Tm))) / (2 * eps)
            assert np.abs(der - fd).max() < 1e-6


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        QualityMetric("mu99")


@pytest.mark.parametrize("metric_id", ["mu2", "mu80"])
@pytest.mark.parametrize("gamma", [True, False, "0.5"])
def test_metric_rejects_a_gamma_that_is_no_real_number(metric_id, gamma):
    # True would otherwise run mu80 as pure mu2
    with pytest.raises(ValueError, match="gamma"):
        QualityMetric(metric_id, gamma=gamma)
    assert QualityMetric(metric_id, gamma=np.float64(0.25)).gamma == 0.25


def test_target_spec():
    # each geometry's ideal target W, through K = grad(phi) W^{-1} and det W
    quad = target_tables("quad", 2)
    assert np.array_equal(quad.K, basis_tables("quad", 2).grad_at_quad)
    assert quad.detW == 1.0
    tri = target_tables("tri", 2)
    assert np.allclose(np.einsum("qic,cb->qib", tri.K, IDEAL_TRIANGLE_TARGET),
                       basis_tables("tri", 2).grad_at_quad, atol=1e-14)
    assert np.isclose(tri.detW, np.sqrt(3) / 2)


@pytest.mark.parametrize("bad", [dict(max_iterations=0),
                                 dict(max_iterations=-3),
                                 dict(fit_tol=0.0), dict(fit_tol=-1e-8),
                                 dict(fit_tol=np.nan), dict(fit_tol=np.inf),
                                 dict(max_iterations=2.5),
                                 dict(max_iterations=200.0),
                                 dict(max_iterations=True),
                                 # True would otherwise run at fit_tol 1.0
                                 dict(fit_tol=True), dict(fit_tol="1e-8")])
def test_solver_controls_reject_meaningless_numbers(bad):
    with pytest.raises(ValueError):
        SolverControls(**bad)


def test_element_quality_values():
    # a 2x1 stretched element against the unit-square target gives the
    # diag(2, 1) hand value everywhere
    m = generate_cartesian(1, 1, 2, box=(0.0, 0.0, 2.0, 1.0))
    q = element_quality(m, QualityMetric("mu2"))
    assert np.allclose(q, 0.25, atol=1e-13)
    m2 = generate_cartesian(2, 2, 1)
    assert np.allclose(element_quality(m2, QualityMetric("mu2")), 0.0,
                       atol=1e-14)


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
    edges = edge_records(m)
    for k in marked:
        a, b = (m.elements[s.element].attribute for s in edges[k].sides)
        assert {a, b} == {1, 2}


def test_boundary_mode_marks_outer_edges():
    m = generate_cartesian(2, 2, 1)
    m.set_attributes([1] * 4)
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
    t = m.nodes.copy()
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
    t = m.nodes.copy()
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
    t = m.nodes.copy()
    t[:, 0] += 0.2 * t[:, 1]
    m.set_nodes(t)
    return m


FD_MESHES = {
    "quad2": lambda: perturbed_mesh(3, 3, 2, seed=17),
    "mixed13": _sheared_mixed_mesh,
    "tri2": lambda: perturbed_mesh(3, 3, 2, seed=17, split_triangles=True),
}
FD_CASES = {"mu2": ("mu2", None, 0.0), "mu77": ("mu77", None, 0.0),
            "mu80": ("mu80", None, 0.0),
            # Gauss-Newton is exact for the affine plane field y = 0.3
            "mu2-plane": ("mu2", AnalyticLevelSet(
                "plane", lambda x, y: y - 0.3,
                lambda x, y: (np.zeros_like(x), np.ones_like(y))), 5.0)}


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
    t = m.nodes.copy()
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


def _mirrored_blocks(asm, values):
    """The full element blocks, one (E, 2 nn, 2 nn) stack per group on local
    coordinates 2 node + component, and the (marked, 2, 2) Gauss-Newton
    blocks, mirrored from the upper-triangle ``_hessian_values`` layout."""
    blocks, pos = [], 0
    for _, _, gather in asm.groups:
        n_el, nn = gather.shape
        i, j = np.triu_indices(nn)
        I, J = np.indices((nn, nn)).reshape(2, -1)
        diag = values[pos:pos + 2 * n_el * i.size].reshape(n_el, 2, i.size)
        pos += diag.size
        off = values[pos:pos + n_el * nn * nn].reshape(n_el, nn * nn)
        pos += off.size
        He = np.zeros((n_el, 2 * nn, 2 * nn))
        for a in range(2):
            He[:, 2 * i + a, 2 * j + a] = diag[:, a]
            He[:, 2 * j + a, 2 * i + a] = diag[:, a]
        He[:, 2 * I, 2 * J + 1] = off
        He[:, 2 * J + 1, 2 * I] = off
        blocks.append(He)
    gn = values[pos:].reshape(-1, 3)
    assert len(gn) == asm.marked.size
    return blocks, gn[:, [0, 2, 2, 1]].reshape(-1, 2, 2)


def _oblique_mixed_system():
    """Problem, assembly, node positions and motion basis of a mixed-order
    mesh whose sliding boundary nodes move along oblique lines: p1 next to
    p3 leaves constrained edge nodes, and the shear makes the sliding
    tangents of the left and right sides oblique."""
    m = random_order_mesh(4, 4, orders=(1, 3), seed=5)
    t = m.nodes.copy()
    t[:, 0] += 0.2 * t[:, 1]
    m.set_nodes(t)
    circle = ANALYTIC_LEVELSETS["circle"]()
    mark_interface_faces(m, circle)
    prob = FitConfig(metric=QualityMetric("mu80", gamma=0.3),
                     fit_weight=7.0).problem(m, circle)
    asm = _Assembly(prob)
    assert asm.marked.size
    assert np.any((asm.dm.expand.data != 0.0) & (asm.dm.expand.data != 1.0))
    kinds, tangents = boundary_freedom(m, "slide")
    oblique = (kinds == 1) & (np.abs(tangents).min(axis=1) > 0.1)
    assert oblique.any() and (kinds == 2).any()
    return prob, asm, t, _motion_basis(kinds, tangents)


def test_newton_pattern_matches_dense_assembly(rng):
    prob, asm, t, Z = _oblique_mixed_system()
    newton = _NewtonPattern(asm, Z)
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1],
                             prob.fit_weight, asm.sigma_gradients(t))
    data = newton.assemble(values)
    Hp = newton.matrix(data).toarray()

    # dense reference Z^T (E2^T B E2 + GN) Z from the same values, with B
    # and GN mirrored from their upper triangles
    n_local = 2 * asm.dm.total_local
    B = np.zeros((n_local, n_local))
    blocks, gn = _mirrored_blocks(asm, values)
    for (_, _, gather), He in zip(asm.groups, blocks):
        size = He.shape[1]
        for first, block in zip(2 * gather[:, 0], He):
            B[first:first + size, first:first + size] = block
    num_nodes = asm.dm.num_nodes
    GN = np.zeros((2 * num_nodes, 2 * num_nodes))
    for node, block in zip(asm.marked, gn):
        GN[2 * node:2 * node + 2, 2 * node:2 * node + 2] = block
    E2, Zd = np.kron(asm.dm.expand.toarray(), np.eye(2)), Z.toarray()
    ref = Zd.T @ (E2.T @ B @ E2 + GN) @ Zd
    assert np.abs(Hp - ref).max() <= 1e-13 * np.abs(ref).max()

    # damping shifts the diagonal only, and leaves the values it was given
    shift = 1e-3 * rng.uniform(0.5, 1.0, Z.shape[1])
    kept = data.copy()
    damped = newton.damped(data, shift).toarray()
    assert np.array_equal(damped, Hp + np.diag(shift))
    assert np.array_equal(data, kept)
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


def test_newton_matrix_is_exactly_symmetric_and_held_in_int32(rng):
    # an entry and its mirror image are filled by one row of S, before and
    # after a renumbering; the one held CSC matrix has SuperLU's index type
    prob, asm, t, Z = _oblique_mixed_system()
    newton = _NewtonPattern(asm, Z)
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1],
                             prob.fit_weight, asm.sigma_gradients(t))
    held = newton.matrix(newton.assemble(values))
    assert held.indices.dtype == held.indptr.dtype == np.int32
    H = held.toarray()
    assert np.array_equal(H, H.T)
    newton.renumber(rng.permutation(Z.shape[1]))
    renumbered = newton.damped(newton.assemble(values),
                               rng.uniform(0.5, 1.0, Z.shape[1]))
    assert renumbered is newton.matrix(newton.assemble(values))
    H = renumbered.toarray()
    assert np.array_equal(H, H.T)


def test_expanded_coordinates_match_the_kronecker_form():
    # with every node free, Z = I and the rows of Q are those of
    # [expand (x) I_2; I], each row's entries in reverse column order
    m = _oblique_mixed_system()[0].mesh
    expand = m.dof_map().expand
    Z = _motion_basis(*boundary_freedom(m, "free"))
    assert (Z != sp.eye(Z.shape[0], format="csr")).nnz == 0
    Q = _motion_rows(expand, Z)
    ref = sp.vstack([sp.kron(expand, sp.eye(2), format="csr"), Z],
                    format="csr")
    assert Q.shape == ref.shape
    assert np.array_equal(Q.indptr, ref.indptr)
    for r in range(Q.shape[0]):
        got, want = slice(*Q.indptr[r:r + 2]), slice(*ref.indptr[r:r + 2])
        assert np.array_equal(Q.indices[got], ref.indices[want][::-1])
        assert np.array_equal(Q.data[got], ref.data[want][::-1])


@pytest.mark.parametrize("system", ["oblique", "mixed_6x6"])
def test_newton_pattern_orders_its_terms_like_a_stable_sort(system,
                                                            monkeypatch):
    # the rows of S from the tie-broken default sort equal those of a
    # stable sort of the same product terms
    if system == "oblique":
        _, asm, _, Z = _oblique_mixed_system()
    else:
        m = random_order_mesh(6, 6, orders=(1, 2, 3), seed=4)
        squircle = ANALYTIC_LEVELSETS["squircle2d"]()
        mark_interface_faces(m, squircle)
        asm = _Assembly(FitConfig().problem(m, squircle))
        Z = _motion_basis(*boundary_freedom(m))
    terms = []

    def spy(Q, rows_a, rows_b):
        terms.append((Q, rows_a.size, _product_terms(Q, rows_a, rows_b)))
        return terms[-1][2]

    monkeypatch.setattr(tmop, "_product_terms", spy)
    S = _NewtonPattern(asm, Z).S
    Q, num_values, (k, keys, w) = terms[0]
    assert keys.size > np.unique(keys).size  # there are ties to break
    # at orders up to 3 a row of E2 Z reads at most 3 trace nodes, so a
    # value has at most 3 x 3 terms (the bound of the next test)
    assert np.diff(Q.indptr).max() <= 3 and keys.size <= 9 * num_values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    for got, want in ((S.indptr, np.r_[starts, keys.size]),
                      (S.indices, k[order]), (S.data, w[order])):
        assert np.array_equal(got, want)


def test_tie_broken_sort_key_fits_in_int64_at_64x64_p3():
    # key * 2^b + term index < n^2 * 2 * 9 * values, with 2^b the power of
    # two above the term count, n <= 2 * nodes motion coordinates, and
    # values the upper triangles of the element blocks plus 3 per marked
    # node, at most one per node; n^2 * 9 * values stays 50 times below
    # the int64 limit
    dm = generate_cartesian(64, 64, 3).dof_map()
    nn = reference_element("quad", 3).num_nodes
    n = 2 * dm.num_nodes
    values = 64 * 64 * (nn * (nn + 1) + nn * nn) + 3 * dm.num_nodes
    assert n * n * 9 * values < 2 ** 63 // 50


def test_element_quality_is_the_max_of_the_element_pass_values(rng):
    m = random_order_mesh(8, 8, seed=3)
    assert len(m.groups()) == 3
    dm = m.dof_map()
    m.set_nodes(m.nodes + rng.uniform(-3e-3, 3e-3, (dm.num_nodes, 2)))
    metric = QualityMetric("mu80", gamma=0.3)
    asm = _Assembly(FitConfig(metric=metric).problem(m))
    _, state = _element_pass(asm, metric, m.nodes)
    want = np.empty(len(m.elements))
    for ids, (_, (mu, *_)) in zip(m.groups().values(), state):
        want[ids] = mu.max(axis=1)
    got = element_quality(m, metric)
    assert np.array_equal(got, want) and got.min() > 0.0


def test_assemblies_and_solves_read_one_table_set_per_kind(monkeypatch):
    # two meshes of the same kinds, two solves: every element pass reads
    # the kind's one cached, read-only TargetTables
    circle = ANALYTIC_LEVELSETS["circle"]()
    seen = []
    element_pass = tmop._element_pass

    def spy(asm, metric, t):
        seen.append({key: kind for key, kind, _ in asm.groups})
        return element_pass(asm, metric, t)

    monkeypatch.setattr(tmop, "_element_pass", spy)
    fit = FitConfig(controls=SolverControls(max_iterations=2))
    first_of_second = None
    for _ in range(2):
        m = random_order_mesh(4, 4, seed=2)
        mark_interface_faces(m, circle)
        first_of_second = len(seen)
        solve_r_adaptivity(fit.problem(m, circle))
    assert 0 < first_of_second < len(seen)
    kinds = seen[0]
    assert len(kinds) == 3 and all(s.keys() == kinds.keys() for s in seen)
    for key, kind in kinds.items():
        assert kind is target_tables(*key)
        assert all(s[key] is kind for s in seen)
        assert kind.quad_weights is basis_tables(*key).quad_weights
        for arr in (kind.K, kind.Gf, kind.Kf, kind.KK, kind.KKu, *kind.upper):
            assert not arr.flags.writeable


def test_slot_keys_of_a_wide_system_do_not_overflow():
    # the CSC keys j * n + i pass 2^31 from n = 46341 on
    n = 50000
    Q = sp.csr_matrix(([2.0, 3.0, 1.0, 5.0], ([0, 1, 2, 2],
                                               [n - 1, n - 2, n - 2, n - 1])),
                      shape=(3, n))
    assert Q.indices.dtype == np.int32
    k, keys, w = _product_terms(Q, np.array([0, 1, 2, 2]),
                                np.array([1, 1, 0, 2]))
    # value 0 (rows 0, 1) is mirrored onto the upper slot; value 1 (rows
    # 1, 1) is on the diagonal; value 2 (rows 2, 0) doubles its diagonal
    # term; value 3 (rows 2, 2) drops its term below the diagonal
    upper, diag = (n - 1) * n + n - 2, [(n - 2) * (n + 1), (n - 1) * (n + 1)]
    assert k.tolist() == [0, 1, 2, 2, 3, 3, 3]
    assert keys.tolist() == [upper, diag[0], upper, diag[1],
                             diag[0], upper, diag[1]]
    assert w.tolist() == [6.0, 9.0, 2.0, 20.0, 1.0, 5.0, 25.0]


def test_renumbering_by_the_mmd_ordering_keeps_its_fill():
    # natural order on the matrix renumbered by an MMD factorization's
    # perm_c fills in like that factorization; renumbering by perm_c in
    # place of its inverse does not
    m = random_order_mesh(6, 6, orders=(2, 3), seed=4)
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    mark_interface_faces(m, squircle)
    prob = FitConfig().problem(m, squircle)
    asm = _Assembly(prob)
    t = m.nodes.copy()
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


# ---------------------------------------------------------------------------
# reference kernels on (E, Q, 2, 2) stacks of map Jacobians, the layout the
# solver kept before it read the GEMM's (E, 2, Q, 2) product by components;
# the solver must reproduce them bit for bit

def _stack_jacobians(X, K):
    """T[e, q, a, c] = sum_i X[e, i, a] K[q, i, c], an (E, Q, 2, 2) stack."""
    n_el, nq = X.shape[0], K.shape[0]
    Gf = K.transpose(1, 0, 2).reshape(X.shape[1], 2 * nq)
    return (X.transpose(0, 2, 1) @ Gf).reshape(n_el, 2, nq, 2) \
        .transpose(0, 2, 1, 3)


def _stack_det(T):
    return T[..., 0, 0] * T[..., 1, 1] - T[..., 0, 1] * T[..., 1, 0]


def _stack_adj(T):
    return T[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _stack_eval(metric, T):
    tau = _stack_det(T)
    good = tau > 0.0
    frob2 = np.sum(T * T, axis=(-2, -1))
    return good, metric._partials(frob2, np.where(good, tau, 1.0))


def _stack_quality_terms(asm, problem, t, target_tables):
    """Quality objective, gradient and element Hessian values at t, with
    the target tables of ``target_tables``."""
    x_all = asm.dm.expand @ t
    fq, g_all, values = 0.0, np.zeros((asm.dm.total_local, 2)), []
    for key, _, gather in asm.groups:
        kind = target_tables(*key)
        K, detW = kind.K, kind.detW
        n_el, nn = gather.shape
        nq = K.shape[0]
        T = _stack_jacobians(x_all[gather], K)
        good, (mu, mu_f, mu_tau, mu_ftau, mu_tautau) = \
            _stack_eval(problem.metric, T)
        assert good.all()
        wq = kind.quad_weights
        fq += detW * float((mu @ wq).sum())
        D = wq[None, :, None, None] * (
            (2.0 * mu_f)[..., None, None] * T
            + mu_tau[..., None, None] * _stack_adj(T))
        Df = D.transpose(0, 2, 1, 3).reshape(n_el, 2, 2 * nq)
        Kf = K.transpose(0, 2, 1).reshape(2 * nq, nn)
        g_all[gather] = detW * (Df @ Kf).transpose(0, 2, 1)
        w = detW * wq
        c_id, c_sym = (2.0 * w) * mu_f, (2.0 * w) * mu_ftau
        c_dd, c_eps = w * mu_tautau, w * mu_tau
        A = _stack_adj(T)
        Tc = [T[:, :, a, c] for a in range(2) for c in range(2)]
        adj = [A[:, :, a, c] for a in range(2) for c in range(2)]
        N = np.empty((n_el, 2, 2, nq, 2, 2))
        for ac in range(4):
            a, c = divmod(ac, 2)
            left = c_sym * Tc[ac] + c_dd * adj[ac]
            right = c_sym * adj[ac]
            for bd in range(ac, 4):
                b, d = divmod(bd, 2)
                v = left * adj[bd] + right * Tc[bd]
                if bd == ac:
                    v += c_id
                elif ac + bd == 3:
                    v += c_eps if a == c else -c_eps
                N[:, a, b, :, c, d] = v
                N[:, b, a, :, d, c] = v
        # the upper triangle: the (a, a) blocks' (i <= j) entries, then the
        # (0, 1) blocks
        KK = np.einsum("qic,qjd->qcdij", K, K).reshape(4 * nq, nn * nn)
        i, j = np.triu_indices(nn)
        values.append((N[:, [0, 1], [0, 1]].reshape(2 * n_el, 4 * nq)
                       @ KK[:, i * nn + j]).ravel())
        values.append((np.ascontiguousarray(N[:, 0, 1]).reshape(n_el, 4 * nq)
                       @ KK).ravel())
    return fq, asm.dm.expand.T @ g_all, np.concatenate(values)


BIT_MESHES = {
    **{f"{kind}{p}": (lambda p=p, split=split: perturbed_mesh(
        3, 3, p, seed=7 + p, split_triangles=split))
       for p in (1, 2, 3) for kind, split in (("quad", False), ("tri", True))},
    "mixed": lambda: random_order_mesh(3, 3, seed=2),
}
#: None: the ideal target of each geometry; a matrix: that W for every
#: geometry, fed to the kernels through their one target-table builder,
#: since they read whatever K and det W it gives
BIT_TARGETS = {"ideal": None,
               "matrix": np.array([[1.2, 0.3], [-0.1, 0.9]])}


def _matrix_target_tables(W):
    """A stand-in for the cache ``target_tables`` with the target matrix W
    for every geometry."""
    def stand_in(geometry, order):
        return TargetTables(basis_tables(geometry, order), W)
    return stand_in


@pytest.mark.parametrize("target", list(BIT_TARGETS))
@pytest.mark.parametrize("metric", ["mu2", "mu77", "mu80"])
@pytest.mark.parametrize("mesh", list(BIT_MESHES))
def test_component_kernels_match_the_stack_form_bit_for_bit(mesh, metric,
                                                            target,
                                                            monkeypatch):
    kind_tables = target_tables
    if BIT_TARGETS[target] is not None:
        kind_tables = _matrix_target_tables(BIT_TARGETS[target])
        monkeypatch.setattr(tmop, "target_tables", kind_tables)
    m = BIT_MESHES[mesh]()
    prob = FitConfig(metric=QualityMetric(metric, gamma=0.3)).problem(m)
    asm = _Assembly(prob)
    t = m.nodes.copy()
    fq, grad, hess = _stack_quality_terms(asm, prob, t, kind_tables)
    assert objective(prob) == fq
    assert np.array_equal(gradient(prob), grad)
    state = _element_pass(asm, prob.metric, t)[1]
    assert np.array_equal(
        _hessian_values(asm, state, 0.0, np.zeros((0, 2))), hess)
    groups = m.groups()
    for key, dets in zip(groups, element_min_dets(
            (key, m.group_coords(key)) for key in groups)):
        tables = basis_tables(*key)
        T = _stack_jacobians(m.group_coords(key), np.concatenate(
            [tables.grad_at_quad, tables.grad_at_nodes]))
        assert np.array_equal(dets, _stack_det(T).min(axis=1))
    ref = np.empty(len(m.elements))
    for key, ids in groups.items():
        good, (mu, *_) = _stack_eval(
            prob.metric, _stack_jacobians(m.group_coords(key),
                                          kind_tables(*key).K))
        ref[ids] = np.where(good, mu, np.inf).max(axis=1)
    assert np.array_equal(element_quality(m, prob.metric), ref)


def test_inverted_and_nan_elements_fail_the_component_kernels():
    m = perturbed_mesh(3, 3, 2, seed=3)
    t = m.nodes.copy()
    # push vertex 5, interior at (1/3, 1/3), past its opposite corner
    t[5] = [0.9, 0.9]
    m.set_nodes(t)
    prob = FitConfig().problem(m)
    assert objective(prob) == np.inf
    assert m.min_det() <= 0.0
    assert np.isinf(element_quality(m, prob.metric)).any()
    t[5] = np.nan
    m.set_nodes(t)
    assert np.isnan(m.min_det())
    dets = element_min_dets((key, m.group_coords(key)) for key in m.groups())
    assert np.isnan(np.concatenate(dets)).sum() == 4


def _tk_dk_element_blocks(asm, metric, t):
    """Reference element Hessian blocks from batched products of T K^T and
    adj(T) K^T, one (E, 2 nn, 2 nn) stack per group on local coordinates
    2 node + component."""
    x_all = asm.dm.expand @ t
    blocks = []
    for _, kind, gather in asm.groups:
        K = kind.K
        nq, nn = K.shape[:2]
        # the (E, Q, 2, 2) stack T[e, q] of the map Jacobians
        T = map_jacobians(x_all[gather], jacobian_table(K)) \
            .transpose(0, 2, 1, 3)
        adj = _stack_adj(T)
        good, (_, mu_f, mu_tau, mu_ftau, mu_tautau) = _stack_eval(metric, T)
        assert good.all()
        w = kind.detW * kind.quad_weights[None, :]
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
    t = m.nodes.copy()
    values = _hessian_values(asm, _element_pass(asm, prob.metric, t)[1], 0.0,
                             asm.sigma_gradients(t))
    blocks, gn = _mirrored_blocks(asm, values)
    assert gn.size == 0
    refs = _tk_dk_element_blocks(asm, prob.metric, t)
    assert len(blocks) == len(refs)
    for got, ref in zip(blocks, refs):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# boundary policy

def test_boundary_freedom_classification():
    m = generate_cartesian(3, 3, 1)
    kinds, tangents = boundary_freedom(m, "slide")
    t = m.nodes.copy()
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


def _boundary_freedom_loop(mesh, mode):
    """The per-edge, per-node loop that ``boundary_freedom`` must match bit
    for bit."""
    dm = mesh.dof_map()
    kinds = np.zeros(dm.num_nodes, dtype=int)
    tangents = np.zeros((dm.num_nodes, 2))
    if mode == "free":
        return kinds, tangents
    for k in mesh.boundary_edges():
        ids = dm.edge_nodes[k, :dm.edge_orders[k] + 1]
        tangent = mesh.vertices[ids[-1]] - mesh.vertices[ids[0]]
        norm = float(np.hypot(*tangent))
        if norm == 0.0:
            continue
        tangent = tangent / norm
        for node in ids:
            if mode == "fixed":
                kinds[node] = 2
            elif kinds[node] == 0:
                kinds[node] = 1
                tangents[node] = tangent
            elif kinds[node] == 1:
                cross = abs(tangents[node, 0] * tangent[1]
                            - tangents[node, 1] * tangent[0])
                if cross > 1e-12:
                    kinds[node] = 2
    return kinds, tangents


@pytest.mark.parametrize("mode", ["slide", "fixed", "free"])
@pytest.mark.parametrize("mesh", [
    lambda: generate_cartesian(3, 3, 2),
    # boundary nodes moved too, so most boundary vertices become corners
    lambda: perturbed_mesh(4, 3, 2, seed=5, keep_boundary=False),
    lambda: random_order_mesh(4, 4, seed=2),
    lambda: perturbed_mesh(3, 3, 3, seed=1, split_triangles=True,
                           keep_boundary=False),
], ids=["square", "perturbed", "mixed", "triangles"])
def test_boundary_freedom_matches_the_node_loop(mesh, mode):
    m = mesh()
    kinds, tangents = boundary_freedom(m, mode)
    ref_kinds, ref_tangents = _boundary_freedom_loop(m, mode)
    assert np.array_equal(kinds, ref_kinds)
    assert np.array_equal(tangents, ref_tangents)
    if mode == "slide":
        assert {0, 1, 2} <= set(kinds.tolist())


def _sheared_cartesian(n, order, shear=0.3):
    m = generate_cartesian(n, n, order)
    t = m.nodes.copy()
    t[:, 0] += shear * t[:, 1]
    m.set_nodes(t)
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
    t0 = m.nodes.copy()
    kinds, tangents = boundary_freedom(m, "slide")
    assert ((kinds == 1) & (np.abs(tangents).min(axis=1) > 0.1)).any()
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=1e-7))
    _, report = solve_r_adaptivity(fit.problem(m, circle))
    assert report.num_iterations > 0
    t1 = m.nodes.copy()
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
    # jitter every node: every diameter differs
    m.set_nodes(m.nodes + rng.uniform(-0.05, 0.05, m.nodes.shape))
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
    vals = circle.values(m.nodes[ids])
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


def test_damping_escalation_keeps_a_free_triangle_fit_going():
    # the split-triangle fit with free boundary nodes rejects 3 of its first
    # 8 factorizations; with one factorization per iteration it would stop
    # before its first step
    squircle = ANALYTIC_LEVELSETS["squircle2d"]()
    m = generate_cartesian(6, 6, 2, split_triangles=True)
    mark_interface_faces(m, squircle)
    fit = FitConfig(boundary="free",
                    controls=SolverControls(max_iterations=5))
    _, report = solve_r_adaptivity(fit.problem(m, squircle))
    assert report.status == "max_iterations"
    assert report.num_iterations == 5
    assert report.damping_retries >= 1
    assert report.final_sigma_max < report.initial_sigma_max


def test_solve_stops_when_no_factorization_gives_a_descent_direction(
        monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    problem = _squircle_fit(4, 2, QualityMetric("mu2"))
    before = problem.mesh.nodes.copy()
    _, report = solve_r_adaptivity(problem)
    assert (report.status, report.reason) == ("stalled",
                                              "no descent direction")
    assert report.num_iterations == 0
    assert (report.factorizations, report.damping_retries) == (8, 8)
    assert np.array_equal(problem.mesh.nodes,
                          before)


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
    x0, x1 = m0.nodes, m1.nodes
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
    t = m.nodes.copy()
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
    t = m.nodes.copy()
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
        return float(np.abs(sq.values(m.nodes[dm.marked_node_ids(m)])).max())

    initial = residual()
    assert initial == pytest.approx(4.49e-3, abs=1e-5)
    _, report = solve_r_adaptivity(FitConfig(fit_weight=0.0).problem(m, sq))
    assert report.initial_sigma_max == initial
    assert report.final_sigma_max == residual()
    assert "already on the isocontour" not in report.reason


@pytest.mark.parametrize("fit_weight", [-1.0, np.inf, np.nan, True, False,
                                        "1.0"])
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
    t = m.nodes.copy()
    t = t + rng.uniform(-1, 1, t.shape) * float(rng.uniform(0.05, 0.4)) / (2 * p)
    m.set_nodes(t)
    problem = TmopProblem(m, QualityMetric("mu2"))
    assert m.min_det() == pytest.approx(_Assembly(problem).min_det(t),
                                        rel=1e-12)
    assert not m.min_det() > 0.0
    with pytest.raises(MeshInvalidError):
        require_valid(m)
    with pytest.raises(MeshInvalidError):
        solve_r_adaptivity(problem)
