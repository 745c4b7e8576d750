"""End-to-end acceptance criteria.

Each numbered test checks one promised behavior of the package at its stated
tolerance and prints a single ``CRITERION n: PASS|FAIL`` line with the
measured values, so the suite output doubles as a releases checklist.  The
expensive squircle runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from meshfit import (AdaptivityPlan, DiscreteLevelSet, FitConfig, Locator,
                     QualityMetric, SolverControls, compute_face_errors,
                     element_quality, generate_cartesian, gradient,
                     mark_interface_faces, objective, run_rp_adaptivity,
                     solve_r_adaptivity)
from meshfit.basis import reference_element
from meshfit.levelset import ANALYTIC_LEVELSETS

from conftest import edge_records, perturbed_mesh, random_order_mesh

SQUIRCLE = ANALYTIC_LEVELSETS["squircle2d"]()
FIT_TOL = 1e-7


def _report(n, label, ok, detail):
    print(f"CRITERION {n} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def _fit_uniform(n, p):
    mesh = generate_cartesian(n, n, p)
    mark_interface_faces(mesh, SQUIRCLE)
    fit = FitConfig(metric=QualityMetric("mu2"),
                    controls=SolverControls(fit_tol=FIT_TOL))
    _, rep = solve_r_adaptivity(fit.problem(mesh, SQUIRCLE))
    return mesh, rep, compute_face_errors(mesh, SQUIRCLE)


@pytest.fixture(scope="module")
def uniform_sweep():
    """Squircle fits at uniform order p in {1,2,3} on n x n grids up to 32."""
    t0 = time.perf_counter()
    rows = {}
    for p in (1, 2, 3):
        for n in (4, 8, 16, 32):
            mesh, rep, err = _fit_uniform(n, p)
            rows[(p, n)] = {"mesh": mesh, "report": rep,
                            "dofs": mesh.num_position_dofs,
                            "e_F": err.total_error,
                            "sigma": err.node_sigma_max}
    rows["wall"] = time.perf_counter() - t0
    return rows


@pytest.fixture(scope="module")
def adaptive_runs():
    """Order-adaptive squircle runs on the 8x8 base mesh, plus the uniform
    order-3 reference fit."""
    base = dict(p_init=1, p_max=3, refine_step=2, refine_kind="absolute",
                refine_threshold=1e-14, fit_tol=FIT_TOL)
    variants = {
        "adaptive": {},
        "deref": dict(deref_kind="size", deref_threshold=1e-5),
        "limited": dict(max_neighbor_diff=1),
        "limited_deref": dict(deref_kind="size", deref_threshold=1e-5,
                              max_neighbor_diff=1),
    }
    out = {}
    for key, extra in variants.items():
        mesh = generate_cartesian(8, 8, 1)
        plan = AdaptivityPlan(**base, **extra)
        res = run_rp_adaptivity(mesh, SQUIRCLE,
                                FitConfig(metric=QualityMetric("mu2")), plan)
        out[key] = {"result": res, "plan": plan,
                    "dofs": res.mesh.num_position_dofs,
                    "e_F": compute_face_errors(res.mesh, SQUIRCLE).total_error}
    mesh3, rep3, err3 = _fit_uniform(8, 3)
    out["uniform3"] = {"mesh": mesh3, "report": rep3,
                       "dofs": mesh3.num_position_dofs,
                       "e_F": err3.total_error, "sigma": err3.node_sigma_max}
    return out


def test_criterion_01_uniform_refinement_study(uniform_sweep):
    sizes = (4, 8, 16, 32)
    monotone = {p: all(uniform_sweep[(p, a)]["e_F"] > uniform_sweep[(p, b)]["e_F"]
                       for a, b in zip(sizes, sizes[1:]))
                for p in (1, 2, 3)}
    d1 = np.array([uniform_sweep[(1, n)]["dofs"] for n in sizes], float)
    e1 = np.array([uniform_sweep[(1, n)]["e_F"] for n in sizes], float)
    # no refinement level puts an order-1 and order-3 mesh within 20% of the
    # same DOF count, so the order-1 error curve is interpolated (log-log)
    # at the order-3 budgets that fall inside its range
    ratios = []
    for n in sizes:
        d3 = uniform_sweep[(3, n)]["dofs"]
        e3 = uniform_sweep[(3, n)]["e_F"]
        direct = [e1[i] for i in range(len(d1)) if abs(d1[i] - d3) <= 0.2 * d3]
        if direct:
            ratios.append(min(direct) / e3)
        elif d1[0] <= d3 <= d1[-1]:
            e1_at = np.exp(np.interp(np.log(d3), np.log(d1), np.log(e1)))
            ratios.append(e1_at / e3)
    wall = uniform_sweep["wall"]
    ok = all(monotone.values()) and min(ratios) >= 10.0 and wall < 600.0
    _report(1, "uniform-order refinement study", ok,
            f"e_F monotone per order {monotone}; matched-budget "
            f"error ratios p1/p3 {[f'{r:.0f}' for r in ratios]} (need >= 10); "
            f"sweep wall {wall:.1f}s (< 600s)")
    for p, mono in monotone.items():
        assert mono, f"e_F not monotone for order {p}"
    assert ratios, "no order-3 budget fell inside the order-1 DOF range"
    assert min(ratios) >= 10.0
    assert wall < 600.0
    # two anchor values guard against silent behavior drift
    assert np.isclose(uniform_sweep[(1, 4)]["e_F"], 6.505e-07, rtol=1e-3)
    assert np.isclose(uniform_sweep[(3, 8)]["e_F"], 1.210e-11, rtol=1e-3)


def test_criterion_02_adaptive_order_efficiency(adaptive_runs):
    a, u = adaptive_runs["adaptive"], adaptive_runs["uniform3"]
    dof_ratio = a["dofs"] / u["dofs"]
    err_ratio = a["e_F"] / u["e_F"]
    ok = dof_ratio <= 0.6 and err_ratio <= 2.0
    _report(2, "adaptive order placement efficiency", ok,
            f"dofs {a['dofs']} vs uniform {u['dofs']} "
            f"(ratio {dof_ratio:.3f}, need <= 0.6); "
            f"e_F {a['e_F']:.3e} vs {u['e_F']:.3e} "
            f"(ratio {err_ratio:.2f}, need <= 2)")
    assert dof_ratio <= 0.6
    assert err_ratio <= 2.0


def test_criterion_03_derefinement_reduces_dofs(adaptive_runs):
    a, b = adaptive_runs["adaptive"], adaptive_runs["deref"]
    hist = b["result"].mesh.order_histogram()
    err_ratio = b["e_F"] / a["e_F"]
    ok = b["dofs"] < a["dofs"] and {1, 3} <= set(hist) and err_ratio <= 100.0
    _report(3, "derefinement reduces DOFs", ok,
            f"dofs {b['dofs']} < {a['dofs']}; orders {hist} (need 1 and 3); "
            f"e_F ratio {err_ratio:.1f} (need <= 100)")
    assert b["dofs"] < a["dofs"]
    assert {1, 3} <= set(hist)
    assert err_ratio <= 100.0


def test_criterion_04_neighbor_limit_overhead(adaptive_runs):
    c, b = adaptive_runs["limited"], adaptive_runs["deref"]
    cd = adaptive_runs["limited_deref"]
    mesh = c["result"].mesh
    worst_jump = 0
    for rec in edge_records(mesh):
        if len(rec.sides) == 2:
            pa, pb = (mesh.elements[s.element].order for s in rec.sides)
            worst_jump = max(worst_jump, abs(pa - pb))
    dof_ratio = c["dofs"] / b["dofs"]
    err_ratio = c["e_F"] / b["e_F"]
    ok = worst_jump <= 1 and dof_ratio <= 1.25 and err_ratio <= 2.0
    _report(4, "neighbor-order limit overhead", ok,
            f"max order jump {worst_jump} (need <= 1); "
            f"dofs {c['dofs']} vs derefined {b['dofs']} "
            f"(ratio {dof_ratio:.3f}, need <= 1.25; "
            f"derefining variant {cd['dofs']}, "
            f"ratio {cd['dofs'] / b['dofs']:.3f}); "
            f"e_F ratio {err_ratio:.3f} (need <= 2)")
    assert worst_jump <= 1
    assert err_ratio <= 2.0
    # The transition jacket around the order-3 interface band costs more
    # than the 25% allowance on an 8x8 mesh: the band is a fixed fraction
    # of the mesh at this resolution, so the one-level ladder adds order-2
    # elements faster than derefinement can pay for them.  The overhead
    # shrinks with resolution (measured 1.42 at 16x16 vs 1.58 here) but
    # does not reach the bound at the prescribed mesh size.
    assert dof_ratio <= 1.25, (
        f"neighbor-limited run needs {c['dofs']} DOFs vs {b['dofs']} "
        f"({dof_ratio:.3f}x, bound 1.25x); derefining variant "
        f"{cd['dofs']} ({cd['dofs'] / b['dofs']:.3f}x)")


def test_criterion_05_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    meshes = [
        ("quads p2", perturbed_mesh(3, 3, 2, seed=1)),
        ("tris p2", perturbed_mesh(3, 3, 2, seed=2, split_triangles=True)),
        ("mixed quads", random_order_mesh(3, 3, orders=(1, 2, 3), seed=3)),
        ("quads p1", perturbed_mesh(4, 4, 1, seed=4)),
        ("mixed tris", random_order_mesh(3, 3, orders=(1, 2), seed=5,
                                         split_triangles=True)),
    ]
    metrics = (QualityMetric("mu2"), QualityMetric("mu77"),
               QualityMetric("mu80", gamma=0.4))
    eps = 1e-6
    worst = 0.0
    for name, mesh in meshes:
        mark_interface_faces(mesh, SQUIRCLE)
        t = mesh.nodes
        for metric in metrics:
            prob = FitConfig(metric=metric,
                             fit_weight=5.0).problem(mesh, SQUIRCLE)
            g = gradient(prob)
            scale = max(1.0, np.abs(g).max())
            for i in rng.choice(t.shape[0], size=6, replace=False):
                for a in range(2):
                    tp = t.copy()
                    tp[i, a] += eps
                    tm = t.copy()
                    tm[i, a] -= eps
                    fd = (objective(prob, tp) - objective(prob, tm)) / (2 * eps)
                    worst = max(worst, abs(fd - g[i, a]) / scale)
    ok = worst <= 1e-6
    _report(5, "gradient matches finite differences", ok,
            f"{len(meshes)} meshes x 3 metrics, worst relative error "
            f"{worst:.2e} (need <= 1e-6)")
    assert worst <= 1e-6


def test_criterion_06_validity_across_all_runs(uniform_sweep, adaptive_runs):
    steps = 0
    min_det = np.inf
    solves = 0
    for key, row in uniform_sweep.items():
        if key == "wall":
            continue
        solves += 1
        for it in row["report"].iterations:
            steps += 1
            min_det = min(min_det, it.min_det)
        min_det = min(min_det, row["mesh"].min_det())
    final_meshes = 12
    for key in ("adaptive", "deref", "limited", "limited_deref"):
        final_meshes += 1
        min_det = min(min_det, adaptive_runs[key]["result"].mesh.min_det())
    solves += 1
    final_meshes += 1
    for it in adaptive_runs["uniform3"]["report"].iterations:
        steps += 1
        min_det = min(min_det, it.min_det)
    min_det = min(min_det, adaptive_runs["uniform3"]["mesh"].min_det())
    ok = min_det > 0.0
    _report(6, "validity preserved across all runs", ok,
            f"{steps} accepted steps over {solves} solves and "
            f"{final_meshes} final meshes (order-adaptive ones after "
            f"derefinement); min det {min_det:.3e} (need > 0)")
    assert min_det > 0.0


def test_criterion_07_fitting_convergence_order3(adaptive_runs):
    row = adaptive_runs["uniform3"]
    iters = row["report"].num_iterations
    sigma = row["sigma"]
    ok = sigma <= 1e-7 and iters <= 200
    _report(7, "fitting convergence at order 3", ok,
            f"8x8 order-3 squircle: max node residual {sigma:.2e} "
            f"(need <= 1e-7) in {iters} iterations (need <= 200), "
            f"status {row['report'].status}")
    assert sigma <= 1e-7
    assert iters <= 200


def test_criterion_08_interpolation_and_point_location():
    rng = np.random.default_rng(2024)

    def poly2(x, y):
        return 0.3 + 0.7 * x - 1.1 * y + 0.25 * x * y + 0.5 * x * x - 0.2 * y * y

    bg = generate_cartesian(4, 4, 2)
    field = DiscreteLevelSet.sample(bg,
                                    lambda pts: poly2(pts[:, 0], pts[:, 1]))
    pts = rng.uniform(0.01, 0.99, size=(1000, 2))
    interp_err = np.abs(field.values(pts) - poly2(pts[:, 0], pts[:, 1])).max()

    round_err = 0.0
    for seed in (11, 23):
        mesh = perturbed_mesh(4, 4, 2, seed=seed)
        loc = Locator(mesh)
        diam = mesh.diameter()
        for x in rng.uniform(0.02, 0.98, size=(500, 2)):
            res = loc.locate(x)
            assert res.found
            back = mesh.eval_map(res.element, res.ref[None, :])[0]
            round_err = max(round_err, np.hypot(*(back - x)) / diam)
    ok = interp_err <= 1e-9 and round_err <= 1e-10
    _report(8, "interpolation exactness and locate roundtrip", ok,
            f"degree-2 field at 1000 points: err {interp_err:.2e} "
            f"(need <= 1e-9); locate roundtrip on 2 perturbed order-2 "
            f"meshes: {round_err:.2e} of diameter (need <= 1e-10)")
    assert interp_err <= 1e-9
    assert round_err <= 1e-10


def test_criterion_09_mixed_order_conformity():
    mesh = random_order_mesh(8, 8, orders=(1, 2, 3, 4), seed=99)
    ts = np.linspace(0.0, 1.0, 10)
    worst = 0.0
    n_edges = 0
    for rec in edge_records(mesh):
        if len(rec.sides) != 2:
            continue
        n_edges += 1
        vals = []
        for side in rec.sides:
            el = mesh.elements[side.element]
            ref = reference_element(el.geometry, el.order)
            t = ts if side.forward else 1.0 - ts
            vals.append(mesh.eval_map(side.element,
                                      ref.edge_point(side.local_edge, t)))
        worst = max(worst, np.abs(vals[0] - vals[1]).max())
    ok = worst <= 1e-12
    _report(9, "mixed-order edge conformity", ok,
            f"orders 1-4 on 8x8: {n_edges} interior edges x 10 points, "
            f"worst mismatch {worst:.2e} (need <= 1e-12)")
    assert worst <= 1e-12


def test_criterion_10_triangle_shape_optimization():
    mesh = perturbed_mesh(4, 4, 2, seed=3, split_triangles=True)
    before = mesh.copy()
    metric = QualityMetric("mu2")
    prob = FitConfig(metric=metric).problem(mesh, None)
    f0 = objective(prob)
    solve_r_adaptivity(prob)
    f1 = objective(prob)
    q0 = element_quality(before, metric).max()
    q1 = element_quality(mesh, metric).max()
    drop = 1.0 - q1 / q0
    ok = f1 < f0 and drop >= 0.25
    _report(10, "triangle shape optimization", ok,
            f"objective {f0:.3e} -> {f1:.3e}; max element shape measure "
            f"{q0:.3e} -> {q1:.3e} ({drop * 100.0:.0f}% drop, need >= 25%)")
    assert f1 < f0
    assert drop >= 0.25


def test_criterion_11_adaptive_loop_termination(adaptive_runs):
    rows = []
    ok = True
    for key in ("adaptive", "deref", "limited", "limited_deref"):
        res = adaptive_runs[key]["result"]
        cap = adaptive_runs[key]["plan"].outer_cap
        rows.append(f"{key}: {res.outer_iterations}/{cap}")
        ok = ok and res.outer_iterations <= cap
    _report(11, "adaptive loop termination", ok,
            "outer iterations vs cap - " + ", ".join(rows))
    for key in ("adaptive", "deref", "limited", "limited_deref"):
        res = adaptive_runs[key]["result"]
        assert res.outer_iterations <= adaptive_runs[key]["plan"].outer_cap
