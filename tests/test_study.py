import json
import os

import numpy as np

from meshfit import QualityMetric, SolverControls, run_study
from meshfit.study import (CSV_COLUMNS, StudyRecord, expand_runs, fit_config,
                           run_one)
from meshfit import cli
from meshfit.levelset import ANALYTIC_LEVELSETS


def test_expand_runs_sweep_and_defaults():
    cfg = {
        "defaults": {"fit_tol": 1e-6, "metric": 2},
        "runs": [
            {"sweep": {"orders": [1, 2], "sizes": [4, 8]}},
            {"label": "special", "generate": [3, 3, 2], "metric": 77},
        ],
    }
    runs = expand_runs(cfg)
    assert [r["label"] for r in runs] == ["p1_n4", "p1_n8", "p2_n4", "p2_n8",
                                          "special"]
    assert runs[0]["generate"] == [4, 4, 1]
    assert runs[3]["generate"] == [8, 8, 2]
    # defaults merge under per-run overrides
    assert all(r["fit_tol"] == 1e-6 for r in runs)
    assert runs[0]["metric"] == 2 and runs[4]["metric"] == 77


def test_expand_runs_sweep_label_prefix():
    cfg = {"runs": [{"label": "tri", "split": True,
                     "sweep": {"orders": [2], "sizes": [4]}}]}
    runs = expand_runs(cfg)
    assert runs[0]["label"] == "tri_p2_n4"
    assert runs[0]["split"] is True


def test_expand_runs_labels_runs_without_one():
    runs = expand_runs({"runs": [{"generate": [2, 2, 1]},
                                 {"generate": [2, 2, 2]}]})
    assert [r["label"] for r in runs] == ["run0", "run1"]


def test_run_one_plane_is_exact():
    field = ANALYTIC_LEVELSETS["plane"]()
    rec = run_one({"label": "plane", "generate": [4, 4, 1],
                   "fit_tol": 1e-10}, field)
    assert rec.status == "converged"
    assert rec.dofs == 25
    assert rec.total_error is not None and rec.total_error <= 1e-16
    assert rec.sigma_max is not None and rec.sigma_max <= 1e-10
    assert rec.histogram == {1: 16}
    assert rec.wall_time is not None and rec.wall_time > 0


def test_run_one_adaptive_uses_fewer_dofs_than_uniform():
    field = ANALYTIC_LEVELSETS["circle"]()
    uniform = run_one({"label": "u", "generate": [4, 4, 2],
                       "fit_tol": 1e-6}, field)
    adaptive = run_one({"label": "a", "generate": [4, 4, 1], "fit_tol": 1e-6,
                        "plan": {"p_init": 1, "p_max": 2}}, field)
    assert adaptive.dofs < uniform.dofs
    assert adaptive.histogram.get(2, 0) > 0
    assert adaptive.histogram.get(1, 0) > 0
    assert adaptive.status in ("converged", "stalled")


def test_run_study_records_failures_and_continues(tmp_path):
    cfg = {
        "levelset": "name:circle",
        "runs": [
            {"label": "ok", "generate": [3, 3, 1], "fit_tol": 1e-5},
            {"label": "broken", "mesh": str(tmp_path / "missing.mesh")},
            {"label": "also_ok", "generate": [3, 3, 1], "fit_tol": 1e-5},
        ],
    }
    records, text = run_study(cfg)
    assert [r.label for r in records] == ["ok", "broken", "also_ok"]
    assert records[1].status == "failed:FileNotFoundError"
    assert records[1].dofs is None
    assert records[0].status == records[2].status == "converged"
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert lines[2].startswith("broken,failed:FileNotFoundError,,")


def test_run_study_csv_schema_and_file_output(tmp_path):
    cfg = {"levelset": "name:plane",
           "runs": [{"label": "a", "generate": [2, 2, 1], "fit_tol": 1e-8}]}
    out = tmp_path / "study.csv"
    records, text = run_study(cfg, out_path=out)
    assert out.read_text() == text
    header, row = text.splitlines()
    assert header.split(",") == CSV_COLUMNS
    cells = row.split(",")
    assert cells[0] == "a" and cells[1] == "converged"
    assert int(cells[2]) == 9
    assert float(cells[3]) >= 0.0
    assert cells[5] == "1:4"
    assert float(cells[6]) > 0  # wall time present by default


def test_run_study_no_timing_is_deterministic(tmp_path):
    cfg = {"levelset": "name:circle",
           "runs": [{"label": "fit", "generate": [4, 4, 1],
                     "fit_tol": 1e-6}]}
    _, text1 = run_study(cfg, include_timing=False)
    _, text2 = run_study(cfg, include_timing=False)
    assert text1 == text2
    assert text1.splitlines()[1].endswith(",")  # blank wall-time column
    # with timing on, the rows usually differ; the schema must not
    _, timed = run_study(cfg)
    assert timed.splitlines()[0] == text1.splitlines()[0]


def test_study_record_row_formatting():
    rec = StudyRecord(label="x", status="converged", dofs=25,
                      total_error=1.5e-9, sigma_max=2e-10,
                      histogram={1: 12, 3: 4}, wall_time=0.1234)
    row = rec.row()
    assert row == ["x", "converged", "25", "1.5e-09",
                   "2.0000000000000001e-10", "1:12;3:4", "0.123"]
    assert rec.row(include_timing=False)[6] == ""
    empty = StudyRecord(label="y", status="failed:ValueError")
    assert empty.row() == ["y", "failed:ValueError", "", "", "", "", ""]


def test_cli_study_mode(tmp_path):
    cfg = {"levelset": "name:circle",
           "defaults": {"fit_tol": 1e-6},
           "runs": [{"sweep": {"orders": [1], "sizes": [4]}}]}
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix1 = str(tmp_path / "one")
    prefix2 = str(tmp_path / "two")
    assert cli.main(["--study", str(cfg_path), "--out-prefix", prefix1,
                     "--no-timing"]) == 0
    assert cli.main(["--study", str(cfg_path), "--out-prefix", prefix2,
                     "--no-timing"]) == 0
    a = (tmp_path / "one_study.csv").read_bytes()
    b = (tmp_path / "two_study.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("p1_n4,converged,25,")


def test_cli_and_study_share_run_settings(tmp_path):
    prefix = str(tmp_path / "cli")
    assert cli.main(["--generate", "4,4,1", "--levelset", "name:circle",
                     "--fit-tol", "1e-6", "--metric", "80",
                     "--metric-gamma", "0.3", "--p-init", "1", "--p-max", "3",
                     "--dp-ref", "2", "--refine", "abs:1e-14",
                     "--deref", "size:1e-5", "--dp", "1",
                     "--out-prefix", prefix]) == 0
    final = (tmp_path / "cli_history.csv").read_text().splitlines()[-1]
    dofs, e_f = final.split(",")[2:4]
    records, _ = run_study({
        "levelset": "name:circle",
        "runs": [{"label": "a", "generate": [4, 4, 1], "fit_tol": 1e-6,
                  "metric": 80, "metric_gamma": 0.3,
                  "plan": {"p_init": 1, "p_max": 3, "refine_step": 2,
                           "refine": "abs:1e-14", "deref": "size:1e-5",
                           "max_neighbor_diff": 1}}]})
    assert records[0].dofs == int(dofs)
    assert records[0].total_error == float(e_f)


def test_run_study_records_malformed_plan_as_value_error():
    records, _ = run_study({
        "levelset": "name:circle",
        "runs": [{"label": "bad", "generate": [2, 2, 1],
                  "plan": {"p_init": 1, "p_max": 2, "refine": "maybe:1"}},
                 {"label": "negative weight", "generate": [2, 2, 1],
                  "fit_weight": -1}]})
    assert [r.status for r in records] == ["failed:ValueError"] * 2


def test_run_study_rejects_fractional_order_and_iteration_fields():
    # each would otherwise run as its integer part
    runs = [{"label": "step", "generate": [2, 2, 1],
             "plan": {"p_init": 1, "p_max": 3, "refine_step": 1.5}},
            {"label": "p_max", "generate": [2, 2, 1],
             "plan": {"p_init": 1, "p_max": 2.5}},
            {"label": "max_outer", "generate": [2, 2, 1], "max_outer": 2.5}]
    records, _ = run_study({"levelset": "name:circle", "runs": runs})
    assert [r.status for r in records] == ["failed:ValueError"] * 3


def test_run_study_rejects_a_boolean_order_or_iteration_field():
    # JSON true is a Python bool, which is an integer: p_max true would run
    # as p_max 1 and max_outer true as one iteration
    runs = [{"label": "p_max", "generate": [2, 2, 1],
             "plan": {"p_init": 1, "p_max": True}},
            {"label": "max_outer", "generate": [2, 2, 1], "max_outer": True}]
    records, _ = run_study({"levelset": "name:circle", "runs": runs})
    assert [r.status for r in records] == ["failed:ValueError"] * 2


def test_run_study_rejects_a_boolean_tolerance_or_weight():
    # JSON true is a Python bool: fit_tol true would run at fit_tol 1.0 and
    # report converged
    runs = [{"label": "fit_tol", "generate": [2, 2, 1], "fit_tol": True},
            {"label": "fit_weight", "generate": [2, 2, 1], "fit_weight": True},
            {"label": "gamma", "generate": [2, 2, 1], "metric": 80,
             "metric_gamma": True},
            {"label": "threshold", "generate": [2, 2, 1],
             "plan": {"p_init": 1, "p_max": 2, "refine_threshold": True}}]
    records, _ = run_study({"levelset": "name:circle", "runs": runs})
    assert [r.status for r in records] == ["failed:ValueError"] * 4


def test_run_study_rejects_a_flag_or_cell_count_of_the_wrong_type():
    # "no" is truthy: the split row would run on triangles, the boundary_fit
    # row would fit the box boundary, and JSON true would run one cell wide
    runs = [{"label": "split", "generate": [4, 4, 1], "split": "no"},
            {"label": "boundary_fit", "generate": [4, 4, 1],
             "boundary_fit": "no"},
            {"label": "cells", "generate": [True, 4, 1]},
            {"label": "cells_y", "generate": [4, 4.0, 1]}]
    records, _ = run_study({"levelset": "name:circle", "runs": runs})
    assert [r.status for r in records] == ["failed:ValueError"] * 4


def test_run_study_rejects_a_box_of_no_four_real_numbers():
    # JSON true would otherwise run as 1.0: the unit square
    runs = [{"label": "box", "generate": [2, 2, 1], "box": [0, 0, True, 1]}]
    records, _ = run_study({"levelset": "name:circle", "runs": runs})
    assert [r.status for r in records] == ["failed:ValueError"]


def test_robustness_study_config_parses():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "robustness_study.json")
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    runs = expand_runs(config)
    assert [r["label"] for r in runs] == [
        "m77_p1", "m77_p2", "m80_p1", "m80_p2", "tri_fixed", "tri_free",
        "p2n8"]
    fits = {r["label"]: fit_config(r) for r in runs}
    assert fits["m80_p1"].metric == QualityMetric("mu80", gamma=0.3)
    assert {fits["tri_fixed"].boundary, fits["tri_free"].boundary} == \
        {"fixed", "free"}
    assert fits["p2n8"].controls.fit_tol == SolverControls().fit_tol
    assert all(f.controls.fit_tol == 1e-7 for k, f in fits.items()
               if k != "p2n8")
