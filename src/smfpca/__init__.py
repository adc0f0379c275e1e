"""Smoothed functional principal component analysis on triangulated
2-manifolds.

Functional data sampled on a surface mesh are decomposed into principal
component functions that are smooth with respect to the surface
Laplacian, via an alternating least-squares iteration on a sparse
saddle-point system built from linear surface finite elements.
"""

__version__ = "0.1.0"

from .errors import (
    SmfpcaError,
    InputError,
    NumericalError,
    ParseError,
    TopologyError,
    DegenerateTriangle,
    DimensionMismatch,
    InvalidFoldCount,
    ResourceLimit,
    NotASphere,
    SingularSystem,
    ConvergenceFailure,
    DegenerateData,
    DegenerateSmoother,
    RankDeficient,
    NonMonotoneObjective,
)
from .mesh import (
    Locations,
    SurfaceLocation,
    TriangleMesh,
    load_mesh,
    save_mesh,
    unit_sphere_mesh,
    vertex_locations,
)
from .fem import FemOperators, EigenPair, assemble, l2_inner, lb_eigenpairs
from .solver import SaddleSystem
from .estimator import (
    DataMatrix,
    ObservationSet,
    PcComponent,
    SmFpcaResult,
    initialize,
    score_step,
    function_step,
    penalty_value,
    fit_component,
    deflate,
    fit,
    fit_missing,
    adjusted_total_variance,
)
from .selection import (
    SelectionTrace,
    default_lambda_grid,
    kfold_select,
    gcv_select,
    make_folds,
)
from .synth import (
    SyntheticDataset,
    generate_eigen_dataset,
    sphere_pc_functions,
    generate_sphere_dataset,
    generate_misaligned_dataset,
)
from .metrics import (
    MvPcaComponent,
    EvaluationReport,
    mv_pca,
    mse,
    principal_angle,
    evaluate_arrays,
)

__all__ = [
    "__version__",
    "SmfpcaError", "InputError", "NumericalError", "ParseError",
    "TopologyError", "DegenerateTriangle", "DimensionMismatch",
    "InvalidFoldCount", "ResourceLimit", "NotASphere", "SingularSystem",
    "ConvergenceFailure", "DegenerateData", "DegenerateSmoother",
    "RankDeficient", "NonMonotoneObjective",
    "Locations", "SurfaceLocation", "TriangleMesh",
    "load_mesh", "save_mesh", "unit_sphere_mesh", "vertex_locations",
    "FemOperators", "EigenPair", "assemble", "l2_inner", "lb_eigenpairs",
    "SaddleSystem",
    "DataMatrix", "ObservationSet", "PcComponent", "SmFpcaResult",
    "initialize", "score_step", "function_step", "penalty_value",
    "fit_component", "deflate", "fit", "fit_missing",
    "adjusted_total_variance",
    "SelectionTrace", "default_lambda_grid", "kfold_select", "gcv_select",
    "make_folds",
    "SyntheticDataset", "generate_eigen_dataset", "sphere_pc_functions",
    "generate_sphere_dataset", "generate_misaligned_dataset",
    "MvPcaComponent", "EvaluationReport", "mv_pca", "mse",
    "principal_angle", "evaluate_arrays",
]
