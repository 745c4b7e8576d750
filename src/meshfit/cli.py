"""Command-line entry point for mesh fitting and order-adaptive runs.

Two modes:

* single run: build or load a mesh, fit it to a level set (optionally with
  per-element order adaptation) and write ``<prefix>.mesh``, ``<prefix>.svg``,
  ``<prefix>.vtk`` and ``<prefix>_history.csv``;
* study mode (``--study config.json``): run every configured case and write
  ``<prefix>_study.csv``.

Outputs contain no timestamps, so identical invocations produce identical
files (study timing is disabled with ``--no-timing``).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .adapt import compute_face_errors, run_rp_adaptivity
from .errors import MeshInvalidError
from .levelset import make_levelset
from .mesh_io import export_svg, export_vtk, generate_cartesian, read_mesh, \
    write_mesh
from .study import fit_config, plan_from, run_study
from .tmop import mark_interface_faces, solve_r_adaptivity


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meshfit",
        description="TMOP-based mesh optimization with level-set surface "
                    "fitting and per-element order adaptation.")
    src = ap.add_argument_group("mesh source")
    src.add_argument("--mesh", help="input mesh file")
    src.add_argument("--generate", metavar="NX,NY,P",
                     help="generate an NX x NY Cartesian mesh of order P "
                          "on the unit square")
    src.add_argument("--split-tri", action="store_true",
                     help="split generated quads into triangles")

    fit = ap.add_argument_group("fitting")
    fit.add_argument("--levelset", metavar="SPEC",
                     help="level-set source, name:<analytic> or file:<path>")
    fit.add_argument("--metric", choices=("2", "77", "80"), default="2",
                     help="quality metric id (default 2, shape)")
    fit.add_argument("--metric-gamma", type=float, default=0.5,
                     help="shape/size blend weight for metric 80")
    fit.add_argument("--target", choices=("ideal",), default="ideal",
                     help="target element family")
    fit.add_argument("--fit-weight", type=float, default=1.0,
                     help="initial fitting penalty weight")
    fit.add_argument("--fit-tol", type=float, default=1e-8,
                     help="max node-residual convergence threshold")
    fit.add_argument("--max-outer", type=int, default=200,
                     help="Newton iteration budget per solve")
    fit.add_argument("--boundary", choices=("slide", "fixed", "free"),
                     default="slide", help="domain-boundary node policy")
    fit.add_argument("--boundary-fit", action="store_true",
                     help="fit domain-boundary faces instead of interior "
                          "interfaces")

    adapt = ap.add_argument_group("order adaptation")
    adapt.add_argument("--p-init", type=int,
                       help="uniform starting order; enables the adaptive "
                            "loop together with --p-max")
    adapt.add_argument("--p-max", type=int, help="order ceiling")
    adapt.add_argument("--dp-ref", type=int, default=1,
                       help="order increment per refinement (default 1)")
    adapt.add_argument("--dp", type=int,
                       help="max order difference between neighbors")
    adapt.add_argument("--refine", metavar="abs:G1|rel:G2",
                       default="abs:1e-14",
                       help="marking rule: absolute or relative threshold")
    adapt.add_argument("--deref", metavar="b1:X|b2:X|size:X|none",
                       default="none", help="derefinement criterion")
    adapt.add_argument("--edge-touch-elevate", action="store_true",
                       help="raise orders of elements touching the interface "
                            "only at a vertex")

    out = ap.add_argument_group("output")
    out.add_argument("--out-prefix", default="meshfit_out",
                     help="prefix for output files")
    out.add_argument("--color-by", choices=("order", "material", "det"),
                     default="order", help="SVG fill coloring")
    out.add_argument("--study", metavar="CONFIG",
                     help="run a JSON study config instead of a single case")
    out.add_argument("--no-timing", action="store_true",
                     help="omit wall times from the study CSV")
    return ap


def _parse_generate(text: str):
    try:
        nx, ny, p = (int(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"--generate expects NX,NY,P, got {text!r}")
    return nx, ny, p


def _write_history(path, rows, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.study:
        records, _ = run_study(args.study,
                               out_path=f"{args.out_prefix}_study.csv",
                               include_timing=not args.no_timing)
        for rec in records:
            print(f"{rec.label}: status={rec.status} dofs={rec.dofs} "
                  f"e_F={rec.total_error} sigma_max={rec.sigma_max}")
        print(f"wrote {args.out_prefix}_study.csv ({len(records)} rows)")
        return 0

    try:
        if args.mesh:
            mesh = read_mesh(args.mesh)
        elif args.generate:
            nx, ny, p = _parse_generate(args.generate)
            mesh = generate_cartesian(nx, ny, p,
                                      split_triangles=args.split_tri)
        else:
            raise SystemExit("need --mesh or --generate (or --study)")
        field = make_levelset(args.levelset) if args.levelset else None
        adaptive = args.p_init is not None or args.p_max is not None
        if adaptive and (args.p_init is None or args.p_max is None):
            raise SystemExit("adaptive runs need both --p-init and --p-max")
        if adaptive and field is None:
            raise SystemExit("adaptive runs need --levelset")
        fit = fit_config(vars(args))  # argparse dests match the study keys
        plan = plan_from(dict(
            p_init=args.p_init, p_max=args.p_max, refine_step=args.dp_ref,
            max_neighbor_diff=args.dp, refine=args.refine, deref=args.deref,
            fit_tol=args.fit_tol, edge_touch_elevate=args.edge_touch_elevate)
        ) if adaptive else None
    except (OSError, ValueError) as exc:  # unreadable or malformed input
        raise SystemExit(f"meshfit: {exc}")

    try:
        if adaptive:
            result = run_rp_adaptivity(mesh, field, fit, plan,
                                       boundary_fit=args.boundary_fit)
        else:
            mark_interface_faces(mesh, field, boundary_mode=args.boundary_fit)
            _, report = solve_r_adaptivity(fit.problem(mesh, field))
    except MeshInvalidError as exc:  # an inverted input mesh
        raise SystemExit(f"meshfit: {exc}")

    if adaptive:
        mesh = result.mesh
        _write_history(
            f"{args.out_prefix}_history.csv",
            [[r.outer, r.phase, r.dofs, "%.17g" % r.total_error,
              "%.17g" % r.max_error, "%.17g" % r.node_sigma_max,
              ";".join(f"{p}:{c}" for p, c in sorted(r.histogram.items())),
              r.solver_status or "", r.solver_iterations]
             for r in result.records],
            ["outer", "phase", "dofs", "e_F", "max_face_error", "sigma_max",
             "orders", "solver_status", "solver_iterations"])
        print(f"adaptive run: exit '{result.exit_reason}' after "
              f"{result.outer_iterations} outer iterations")
    else:
        _write_history(
            f"{args.out_prefix}_history.csv",
            [[r.index, "%.17g" % r.objective_before,
              "%.17g" % r.objective_after, "%.17g" % r.fit_weight,
              "" if r.sigma_max is None else "%.17g" % r.sigma_max,
              "%.17g" % r.step_size, "%.17g" % r.grad_norm,
              "%.17g" % r.min_det, r.backtracks, r.direction]
             for r in report.iterations],
            ["iteration", "objective_before", "objective_after", "fit_weight",
             "sigma_max", "step_size", "grad_norm", "min_det", "backtracks",
             "direction"])
        print(f"solve: {report.status} ({report.reason}) after "
              f"{report.num_iterations} iterations")

    if field is not None and mesh.marked_faces:
        errors = compute_face_errors(mesh, field)
        print(f"dofs={mesh.num_position_dofs} e_F={errors.total_error:.6e} "
              f"sigma_max={errors.node_sigma_max:.6e} "
              f"orders={mesh.order_histogram()}")
    else:
        print(f"dofs={mesh.num_position_dofs} "
              f"orders={mesh.order_histogram()}")
    write_mesh(mesh, f"{args.out_prefix}.mesh")
    export_svg(mesh, f"{args.out_prefix}.svg", color_by=args.color_by)
    export_vtk(mesh, f"{args.out_prefix}.vtk")
    print(f"wrote {args.out_prefix}.mesh/.svg/.vtk and "
          f"{args.out_prefix}_history.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
