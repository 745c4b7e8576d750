"""Batch study harness: run fitting configurations, tabulate DOFs vs error.

A study config is a JSON document with a shared level set, optional defaults,
and a list of runs.  Each run either fits a mesh at its generated order or,
when a ``plan`` block is present, drives the full order-adaptive loop.  Runs
that raise are recorded as failed rows and the study continues.

``fit_run`` builds and fits the mesh of a run, ``measure`` measures it;
the CLI's single run, a run dict of its arguments, calls the same two.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field as dfield

from .adapt import AdaptivityPlan, compute_face_errors, run_rp_adaptivity
from .levelset import make_levelset
from .mesh_io import generate_cartesian, read_mesh
from .tmop import (FitConfig, QualityMetric, SolverControls,
                   mark_interface_faces, solve_r_adaptivity)

CSV_COLUMNS = ["label", "status", "dofs", "e_F", "sigma_max", "orders",
               "wall_time"]


def histogram_text(histogram: dict[int, int]) -> str:
    """An order histogram as ``p:count`` pairs by ascending order, joined
    by ``;``, as the study CSV and the adaptive history write it."""
    return ";".join(f"{p}:{c}" for p, c in sorted(histogram.items()))


@dataclass
class StudyRecord:
    label: str
    status: str
    dofs: int | None = None
    total_error: float | None = None
    sigma_max: float | None = None
    histogram: dict[int, int] = dfield(default_factory=dict)
    wall_time: float | None = None

    def row(self, include_timing: bool = True) -> list[str]:
        def num(v, fmt="%.17g"):
            return "" if v is None else fmt % v
        wall = num(self.wall_time, "%.3f") if include_timing else ""
        return [self.label, self.status, num(self.dofs, "%d"),
                num(self.total_error), num(self.sigma_max),
                histogram_text(self.histogram), wall]


def metric_from(spec, gamma) -> QualityMetric:
    """Quality metric from a metric id (2, 77, 80) or name; ValueError if unknown."""
    names = {2: "mu2", 77: "mu77", 80: "mu80",
             "2": "mu2", "77": "mu77", "80": "mu80"}
    return QualityMetric(names.get(spec, spec), gamma=gamma)


def _kind_and_threshold(key: str, spec, kinds: dict):
    kind, _, val = str(spec).partition(":")
    if kind not in kinds:
        choices = ", ".join(f"{k}:<x>" for k in kinds)
        raise ValueError(f"{key} expects {choices}, got {spec!r}")
    return kinds[kind], float(val)


def plan_from(cfg: dict) -> AdaptivityPlan:
    """Adaptivity plan from plan keys, where ``refine`` (abs:<x> | rel:<x>) and
    ``deref`` (b1:<x> | b2:<x> | size:<x> | none) abbreviate the kind and
    threshold fields.  Raises ValueError on a malformed abbreviation."""
    kw = dict(cfg)
    refine = kw.pop("refine", None)
    if refine is not None:
        kw["refine_kind"], kw["refine_threshold"] = _kind_and_threshold(
            "refine", refine, {"abs": "absolute", "rel": "relative"})
    deref = kw.pop("deref", None)
    if deref is not None and deref != "none":
        kw["deref_kind"], kw["deref_threshold"] = _kind_and_threshold(
            "deref", deref, {"b1": "ref", "b2": "change", "size": "size"})
    return AdaptivityPlan(**kw)


def fit_config(run: dict) -> FitConfig:
    """Solver settings of a run from its keys ``metric``, ``metric_gamma``,
    ``fit_weight``, ``max_outer``, ``fit_tol`` and ``boundary``."""
    metric = metric_from(run.get("metric", 2), run.get("metric_gamma", 0.5))
    controls = SolverControls(
        max_iterations=run.get("max_outer", 200),
        fit_tol=run.get("fit_tol", 1e-8))
    return FitConfig(metric=metric, fit_weight=run.get("fit_weight", 1.0),
                     controls=controls, boundary=run.get("boundary", "slide"))


def _flag(run: dict, key: str) -> bool:
    """A run's boolean key, False when absent; ValueError unless it is a
    bool (JSON true or false)."""
    value = run.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def fit_run(run: dict, field):
    """Build a run's mesh (``mesh`` file or ``generate``) and fit it: through
    ``run_rp_adaptivity`` with its ``plan`` block, if any, else by one solve.
    Returns the fitted mesh and the ``AdaptResult`` or ``SolveReport``.
    ``split`` and ``boundary_fit`` must be booleans, and ``generate`` the
    cell counts and order that ``generate_cartesian`` checks."""
    if "mesh" in run:
        mesh = read_mesh(run["mesh"])
    else:
        nx, ny, p = run["generate"]
        mesh = generate_cartesian(
            nx, ny, p, box=tuple(run.get("box", (0.0, 0.0, 1.0, 1.0))),
            split_triangles=_flag(run, "split"))
    fit = fit_config(run)
    boundary_fit = _flag(run, "boundary_fit")
    if "plan" in run:
        plan_cfg = dict(run["plan"])
        plan_cfg.setdefault("fit_tol", fit.controls.fit_tol)
        result = run_rp_adaptivity(mesh, field, fit, plan_from(plan_cfg),
                                   boundary_fit=boundary_fit)
        return result.mesh, result
    mark_interface_faces(mesh, field, boundary_mode=boundary_fit)
    _, report = solve_r_adaptivity(fit.problem(mesh, field))
    return mesh, report


def measure(mesh, field) -> dict:
    """DOFs, e_F, sigma_max and order histogram of a fitted mesh, as
    ``StudyRecord`` fields; the errors are None without marked faces."""
    out = {"dofs": mesh.num_position_dofs, "total_error": None,
           "sigma_max": None, "histogram": mesh.order_histogram()}
    if field is not None and mesh.marked_faces:
        errors = compute_face_errors(mesh, field)
        out.update(total_error=errors.total_error,
                   sigma_max=errors.node_sigma_max)
    return out


def run_one(run: dict, field) -> StudyRecord:
    """Execute a single study run and measure its final state."""
    t0 = time.perf_counter()
    mesh, result = fit_run(run, field)
    if "plan" in run:
        status = next((r.solver_status for r in reversed(result.records)
                       if r.solver_status), "ok")
    else:
        status = result.status
    return StudyRecord(label=run.get("label", "run"), status=status,
                       **measure(mesh, field),
                       wall_time=time.perf_counter() - t0)


def expand_runs(config: dict) -> list[dict]:
    """Flatten sweep blocks and merge per-run settings over the defaults."""
    defaults = config.get("defaults", {})
    out = []
    for entry in config.get("runs", []):
        if "sweep" in entry:
            sw = entry["sweep"]
            base = {k: v for k, v in entry.items() if k != "sweep"}
            prefix = base.pop("label", None)
            for p in sw.get("orders", [1]):
                for n in sw.get("sizes", [4]):
                    run = {**defaults, **base, "generate": [n, n, p]}
                    run["label"] = f"{prefix}_p{p}_n{n}" if prefix \
                        else f"p{p}_n{n}"
                    out.append(run)
        else:
            out.append({**defaults, **entry})
    for i, run in enumerate(out):
        run.setdefault("label", f"run{i}")
    return out


def run_study(config, out_path=None, include_timing: bool = True):
    """Run every configured case and return (records, csv_text).

    ``config`` is a dict or a path to a JSON file.  A run that raises is
    recorded with status ``failed:<ExceptionName>`` and empty measurements.
    With ``include_timing`` off the wall-time column is left blank so that
    repeated runs produce byte-identical output.
    """
    if not isinstance(config, dict):
        with open(config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    field = make_levelset(config["levelset"]) if "levelset" in config else None
    records = []
    for run in expand_runs(config):
        try:
            records.append(run_one(run, field))
        except Exception as exc:
            records.append(StudyRecord(label=run.get("label", "run"),
                                       status=f"failed:{type(exc).__name__}"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row(include_timing))
    text = buf.getvalue()
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return records, text
