"""meshfit: high-order mesh optimization with level-set surface fitting.

The package moves the nodes of curved finite-element meshes so that selected
mesh faces land on the zero isocontour of a level-set function, while a
target-matrix quality metric keeps every element well shaped and valid.  On
top of the node solver sits a per-element polynomial-order adaptation loop
that concentrates degrees of freedom where the interface needs them.
"""

from .errors import (MeshFileError, MeshInvalidError, MeshStructureError,
                     PointLocationError)
from .mesh import DofMap, MeshElement, MixedOrderMesh, apply_edge_constraints
from .mesh_io import (export_svg, export_vtk, generate_cartesian, read_mesh,
                      write_mesh)
from .levelset import (ANALYTIC_LEVELSETS, AnalyticLevelSet, DiscreteLevelSet,
                       Locator, make_levelset)
from .tmop import (FitConfig, QualityMetric, SolveReport, SolverControls,
                   TmopProblem, assign_materials, element_quality, gradient,
                   mark_interface_faces, objective, solve_r_adaptivity)
from .adapt import (AdaptivityPlan, AdaptResult, FaceErrorReport,
                    compute_face_errors, run_rp_adaptivity)
from .study import StudyRecord, run_study

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_LEVELSETS", "AdaptResult", "AdaptivityPlan", "AnalyticLevelSet",
    "DiscreteLevelSet", "DofMap", "FaceErrorReport", "FitConfig", "Locator",
    "MeshElement", "MeshFileError", "MeshInvalidError", "MeshStructureError",
    "MixedOrderMesh", "PointLocationError", "QualityMetric", "SolveReport",
    "SolverControls", "StudyRecord", "TmopProblem", "apply_edge_constraints",
    "assign_materials", "compute_face_errors", "element_quality",
    "export_svg", "export_vtk", "generate_cartesian", "gradient",
    "make_levelset", "mark_interface_faces", "objective",
    "read_mesh", "run_rp_adaptivity", "run_study", "solve_r_adaptivity",
    "write_mesh",
]
