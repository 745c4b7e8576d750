"""One run of one benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
meshfit from ``src/``, builds the workload's inputs (set-up), fits, writes
the outputs the CLI writes, then checks them.  It records
``time.perf_counter()`` stamps at the end of set-up, fit and write; the
parent subtracts its own stamp taken just before the process was started,
which works because ``perf_counter`` reads the system-wide monotonic clock.
The result goes to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIT_TOL = 1e-7
#: adaptive variants of the acceptance fixture: plan overrides per variant
ADAPTIVE_VARIANTS = {
    "adaptive": {},
    "deref": dict(deref_kind="size", deref_threshold=1e-5),
    "limited": dict(max_neighbor_diff=1),
    "limited_deref": dict(deref_kind="size", deref_threshold=1e-5,
                          max_neighbor_diff=1),
}


def squircle(mf, dx: float, dy: float):
    """The squircle level set with its center shifted by (dx, dy).

    A zero shift returns the package's own ``squircle2d`` field, the
    canonical input of the acceptance tests.
    """
    if dx == 0.0 and dy == 0.0:
        return mf.ANALYTIC_LEVELSETS["squircle2d"]()
    cx, cy, r4 = 0.5 + dx, 0.5 + dy, 0.24 ** 4

    def fn(x, y):
        return (x - cx) ** 4 + (y - cy) ** 4 - r4

    def grad(x, y):
        return 4.0 * (x - cx) ** 3, 4.0 * (y - cy) ** 3

    return mf.AnalyticLevelSet("squircle2d", fn, grad)


def fit_config(mf):
    return mf.FitConfig(metric=mf.QualityMetric("mu2"),
                        controls=mf.SolverControls(fit_tol=FIT_TOL))


# -- workloads: set-up returns a state, fit adds meshes, solves and errors ---

def setup_uniform(mf, a, wrap):
    mesh = mf.generate_cartesian(a.n, a.n, 3)
    field = wrap(squircle(mf, a.dx, a.dy))
    mf.mark_interface_faces(mesh, field)
    return {"meshes": [mesh], "field": field}


def setup_discrete(mf, a, wrap):
    field = mf.make_levelset(f"file:{a.background}")
    field.locator  # build the point locator now, as part of set-up
    field = wrap(field)
    mesh = mf.generate_cartesian(a.n, a.n, 2)
    mf.mark_interface_faces(mesh, field)
    return {"meshes": [mesh], "field": field}


def fit_single(mf, state):
    mesh = state["meshes"][0]
    _, report = mf.solve_r_adaptivity(fit_config(mf).problem(mesh,
                                                             state["field"]))
    state["solves"] = [(report.status, report.num_iterations)]
    state["errors"] = [mf.compute_face_errors(mesh, state["field"])]


def setup_adaptive(mf, a, wrap):
    field = wrap(squircle(mf, a.dx, a.dy))
    base = dict(p_init=1, p_max=3, refine_step=2, refine_kind="absolute",
                refine_threshold=1e-14, fit_tol=FIT_TOL)
    plans = [mf.AdaptivityPlan(**base, **extra)
             for extra in ADAPTIVE_VARIANTS.values()]
    meshes = [mf.generate_cartesian(a.n, a.n, 1) for _ in plans]
    return {"meshes": meshes, "field": field, "plans": plans}


def fit_adaptive(mf, state):
    field = state["field"]
    state["solves"], state["errors"], state["outer"] = [], [], []
    for i, plan in enumerate(state["plans"]):
        result = mf.run_rp_adaptivity(
            state["meshes"][i], field,
            mf.FitConfig(metric=mf.QualityMetric("mu2")), plan)
        state["meshes"][i] = result.mesh
        state["solves"] += [(r.solver_status, r.solver_iterations)
                            for r in result.records if r.phase == "fit"]
        state["outer"].append((result.outer_iterations, plan.outer_cap))
        state["errors"].append(mf.compute_face_errors(result.mesh, field))


WORKLOADS = {
    "uniform_p3": (setup_uniform, fit_single),
    "discrete_p2": (setup_discrete, fit_single),
    "adaptive_8x8": (setup_adaptive, fit_adaptive),
}


def write_outputs(mf, meshes, prefix):
    """The files the CLI writes for a fitted mesh (history CSV aside)."""
    paths = []
    for i, mesh in enumerate(meshes):
        p = f"{prefix}_{i}"
        mf.write_mesh(mesh, f"{p}.mesh")
        mf.export_svg(mesh, f"{p}.svg", color_by="order")
        mf.export_vtk(mesh, f"{p}.vtk")
        paths.append(f"{p}.mesh")
    return paths


# -- correctness ---------------------------------------------------------------

def check(mf, np, state, mesh_paths) -> list[str]:
    """Problems with the run's outputs; empty when all checks pass."""
    problems = []
    for i, (mesh, path) in enumerate(zip(state["meshes"], mesh_paths)):
        if not mesh.min_det() > 0.0:
            problems.append(f"mesh {i}: min_det {mesh.min_det():.3e} <= 0")
        back = mf.read_mesh(path)
        same = (len(back.elements) == len(mesh.elements)
                and back.marked_faces == mesh.marked_faces
                and np.array_equal(back.vertices, mesh.vertices)
                and all(x.order == y.order and np.array_equal(x.coords, y.coords)
                        for x, y in zip(back.elements, mesh.elements)))
        if not same:
            problems.append(f"mesh {i}: {path} does not read back identically")
    for i, err in enumerate(state["errors"]):
        if not (math.isfinite(err.total_error)
                and math.isfinite(err.node_sigma_max)):
            problems.append(f"mesh {i}: non-finite e_F or sigma_max")
    for i, (outer, cap) in enumerate(state.get("outer", ())):
        if outer > cap:
            problems.append(f"adaptive run {i}: {outer} outer iterations "
                            f"exceed outer_cap {cap}")
    return problems


# -- entry points ---------------------------------------------------------------

def prepare_background(a):
    """Write the discrete workload's background field: the squircle sampled
    on a 2n x 2n order-3 mesh, stored as a mesh file with a scalar block."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import meshfit as mf
    bg = mf.generate_cartesian(2 * a.n, 2 * a.n, 3)
    field = mf.DiscreteLevelSet.sample(bg, squircle(mf, a.dx, a.dy))
    mf.write_mesh(bg, a.background, scalar=field.blocks)


def run(a) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy
    import meshfit as mf

    tracer = None
    wrap = lambda field: field  # noqa: E731
    if a.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        wrap = tracer.wrap_field
    setup, fit = WORKLOADS[a.workload]
    state = setup(mf, a, wrap)
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready}
    if a.setup_only:
        return out
    fit(mf, state)
    t_fit = time.perf_counter()
    mesh_paths = write_outputs(mf, state["meshes"], a.prefix)
    t_written = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(a.prefix + "_spans.jsonl.gz")

    errors = state["errors"]
    out.update({
        "t_fit": t_fit, "t_written": t_written,
        "solves": state["solves"],
        "fit_error": max(e.total_error for e in errors),
        "sigma_max": max(e.node_sigma_max for e in errors),
        "dofs": sum(m.num_position_dofs for m in state["meshes"]),
        "quality_max": max(float(mf.element_quality(
            m, mf.QualityMetric("mu2")).max()) for m in state["meshes"]),
        # exact values for comparing a traced run with an untraced one
        "e_F": [e.total_error.hex() for e in errors],
        "problems": check(mf, np, state, mesh_paths),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["inclusive_s"] = dict(tracer.inclusive_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--n", type=int, required=True,
                    help="cells per side of the fitted mesh")
    ap.add_argument("--dx", type=float, default=0.0)
    ap.add_argument("--dy", type=float, default=0.0)
    ap.add_argument("--background", help="background field mesh file")
    ap.add_argument("--prefix", help="prefix of the output files")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--prepare", action="store_true",
                    help="write the background field file and exit")
    ap.add_argument("--out", help="result JSON file")
    a = ap.parse_args(argv)
    if a.prepare:
        prepare_background(a)
        return 0
    out = run(a)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
