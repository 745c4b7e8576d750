"""Command-line entry point for mesh fitting and order-adaptive runs.

Two modes:

* single run: build or load a mesh, fit it to a level set (optionally with
  per-element order adaptation) and write ``<prefix>.mesh``, ``<prefix>.svg``,
  ``<prefix>.vtk`` and ``<prefix>_history.csv``;
* study mode (``--study config.json``): run every configured case and write
  ``<prefix>_study.csv``.

A single run is the study run whose keys are the arguments that are set
(argparse dests are study keys), fitted and measured by the study's code.

Outputs contain no timestamps, so identical invocations produce identical
files (study timing is disabled with ``--no-timing``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import astuple

from .levelset import make_levelset
from .mesh_io import COLOR_MODES, export_svg, export_vtk, write_mesh
from .study import csv_cell, fit_run, measure, run_study
from .tmop import BOUNDARY_MODES, METRIC_IDS

#: argparse dests that are keys of a run's ``plan`` block
PLAN_KEYS = ("p_init", "p_max", "refine_step", "max_neighbor_diff", "refine",
             "deref", "edge_touch_elevate")
#: history CSV headers, one column per field of ``AdaptRecord`` and of
#: ``IterationRecord``, in field order
ADAPT_HISTORY_COLUMNS = ("outer", "phase", "dofs", "e_F", "max_face_error",
                         "sigma_max", "orders", "solver_status",
                         "solver_iterations")
SOLVE_HISTORY_COLUMNS = ("iteration", "objective_before", "objective_after",
                         "fit_weight", "sigma_max", "step_size", "grad_norm",
                         "min_det", "backtracks", "direction")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meshfit",
        description="TMOP-based mesh optimization with level-set surface "
                    "fitting and per-element order adaptation.")
    src = ap.add_argument_group("mesh source")
    src.add_argument("--mesh", help="input mesh file")
    src.add_argument("--generate", metavar="NX,NY,P", type=cells_and_order,
                     help="generate an NX x NY Cartesian mesh of order P "
                          "on the unit square")
    src.add_argument("--split-tri", dest="split", action="store_true",
                     help="split generated quads into triangles")

    fit = ap.add_argument_group("fitting")
    fit.add_argument("--levelset", metavar="SPEC",
                     help="level-set source, name:<analytic> or file:<path>")
    # unset fitting and adaptation options take the study's defaults
    fit.add_argument("--metric", choices=[m[2:] for m in METRIC_IDS],
                     help="quality metric id (default 2, shape)")
    fit.add_argument("--metric-gamma", type=float,
                     help="shape/size blend weight for metric 80")
    fit.add_argument("--fit-weight", type=float,
                     help="initial fitting penalty weight")
    fit.add_argument("--fit-tol", type=float,
                     help="max node-residual convergence threshold")
    fit.add_argument("--max-outer", type=int,
                     help="Newton iteration budget per solve")
    fit.add_argument("--boundary", choices=BOUNDARY_MODES,
                     help="domain-boundary node policy")
    fit.add_argument("--boundary-fit", action="store_true",
                     help="fit domain-boundary faces instead of interior "
                          "interfaces")

    adapt = ap.add_argument_group("order adaptation")
    adapt.add_argument("--p-init", type=int,
                       help="uniform starting order; enables the adaptive "
                            "loop together with --p-max")
    adapt.add_argument("--p-max", type=int, help="order ceiling")
    adapt.add_argument("--dp-ref", dest="refine_step", type=int,
                       help="order increment per refinement (default 1)")
    adapt.add_argument("--dp", dest="max_neighbor_diff", type=int,
                       help="max order difference between neighbors")
    adapt.add_argument("--refine", metavar="abs:G1|rel:G2",
                       default="abs:1e-14",
                       help="marking rule: absolute or relative threshold")
    adapt.add_argument("--deref", metavar="b1:X|b2:X|size:X|none",
                       help="derefinement criterion; derefines only "
                            "with --dp-ref 2 or more")
    adapt.add_argument("--edge-touch-elevate", action="store_true",
                       help="raise orders of elements touching the interface "
                            "only at a vertex")

    out = ap.add_argument_group("output")
    out.add_argument("--out-prefix", default="meshfit_out",
                     help="prefix for output files")
    out.add_argument("--color-by", choices=COLOR_MODES,
                     default="order", help="SVG fill coloring")
    out.add_argument("--study", metavar="CONFIG",
                     help="run a JSON study config instead of a single case")
    out.add_argument("--no-timing", action="store_true",
                     help="omit wall times from the study CSV")
    return ap


def cells_and_order(text: str):
    """The (NX, NY, P) of ``--generate NX,NY,P``."""
    nx, ny, p = (int(v) for v in text.split(","))
    return nx, ny, p


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

    if not (args.mesh or args.generate):
        raise SystemExit("need --mesh or --generate (or --study)")
    adaptive = args.p_init is not None or args.p_max is not None
    if adaptive and (args.p_init is None or args.p_max is None):
        raise SystemExit("adaptive runs need both --p-init and --p-max")
    if adaptive and not args.levelset:
        raise SystemExit("adaptive runs need --levelset")
    # the arguments that are set, under the study's run keys
    run = {k: v for k, v in vars(args).items() if v is not None}
    if adaptive:
        run["plan"] = {k: run.pop(k) for k in PLAN_KEYS if k in run}
    try:
        field = make_levelset(args.levelset) if args.levelset else None
        mesh, result = fit_run(run, field)
    except (OSError, ValueError) as exc:  # unreadable or malformed input, or
        # bad input found by the run, e.g. an inverted mesh, a non-uniform
        # start order or an unlocatable point
        raise SystemExit(f"meshfit: {exc}")

    if adaptive:
        header, records = ADAPT_HISTORY_COLUMNS, result.records
        print(f"adaptive run: exit '{result.exit_reason}' after "
              f"{result.outer_iterations} outer iterations")
    else:
        header, records = SOLVE_HISTORY_COLUMNS, result.iterations
        print(f"solve: {result.status} ({result.reason}) after "
              f"{result.num_iterations} iterations")
    with open(f"{args.out_prefix}_history.csv", "w", newline="",
              encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [[csv_cell(v) for v in astuple(r)] for r in records])

    m = measure(mesh, field)
    errors = "" if m["total_error"] is None else \
        f"e_F={m['total_error']:.6e} sigma_max={m['sigma_max']:.6e} "
    print(f"dofs={m['dofs']} {errors}orders={m['histogram']}")
    write_mesh(mesh, f"{args.out_prefix}.mesh")
    export_svg(mesh, f"{args.out_prefix}.svg", color_by=args.color_by)
    export_vtk(mesh, f"{args.out_prefix}.vtk")
    print(f"wrote {args.out_prefix}.mesh/.svg/.vtk and "
          f"{args.out_prefix}_history.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
