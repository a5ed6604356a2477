"""Primal-dual block Frank-Wolfe solvers for l1- and trace-norm-constrained
empirical risk minimization, with reference solvers and a benchmark CLI."""

from .baselines import BaselineConfig, solve_baseline
from .core_linalg import SparseDesignMatrix, SparseUpdate, project_l1_ball, \
    sparse_l1_prox, top_k_by_magnitude
from .data_io import Dataset, ParseError, PortableRng, SyntheticSpec, \
    generate_synthetic, normalize_rows, parse_libsvm
from .losses import LossModel, MatrixQuadraticLoss, Regularizer, \
    quadratic_loss, smooth_hinge_loss
from .metrics import ConvergenceTrace, DivergenceError, TraceRecord, \
    dual_objective, dual_objective_trace, project_nuclear_ball
from .pdbfw_l1 import SolverConfig, SolverState, solve
from .pdbfw_trace import ApproximationError, LowRankFactor, \
    approx_lowrank_prox, solve_trace

__version__ = "0.1.0"

__all__ = [
    "ApproximationError",
    "BaselineConfig",
    "ConvergenceTrace",
    "Dataset",
    "DivergenceError",
    "LossModel",
    "LowRankFactor",
    "MatrixQuadraticLoss",
    "ParseError",
    "PortableRng",
    "Regularizer",
    "SolverConfig",
    "SolverState",
    "SparseDesignMatrix",
    "SparseUpdate",
    "SyntheticSpec",
    "TraceRecord",
    "approx_lowrank_prox",
    "dual_objective",
    "dual_objective_trace",
    "generate_synthetic",
    "normalize_rows",
    "parse_libsvm",
    "project_l1_ball",
    "project_nuclear_ball",
    "quadratic_loss",
    "smooth_hinge_loss",
    "solve",
    "solve_baseline",
    "solve_trace",
    "sparse_l1_prox",
    "top_k_by_magnitude",
    "__version__",
]
