"""Primal-dual block Frank-Wolfe solvers for l1- and trace-norm-constrained
empirical risk minimization, with reference solvers and a benchmark CLI."""

from .baselines import BaselineConfig, solve_acc_pgd, solve_baseline, \
    solve_fw, solve_svrg
from .core_linalg import SparseDesignMatrix, SparseUpdate, project_l1_ball, \
    sparse_l1_prox, top_k_by_magnitude
from .data_io import Dataset, DatasetMeta, ParseError, PortableRng, \
    SyntheticSpec, generate_synthetic, normalize_rows, parse_libsvm, \
    write_libsvm
from .losses import LossModel, MatrixQuadraticLoss, Regularizer, \
    primal_objective, quadratic_loss, smooth_hinge_loss
from .metrics import ConvergenceTrace, DivergenceError, TraceRecord, \
    dual_objective, dual_objective_trace, duality_gap, project_nuclear_ball, \
    relative_primal_error
from .pdbfw_l1 import ConfigurationError, SolverConfig, SolverState, solve
from .pdbfw_trace import ApproximationError, LmoAuditRecord, LowRankFactor, \
    approx_lowrank_prox, solve_trace

__version__ = "0.1.0"

__all__ = [
    "ApproximationError",
    "BaselineConfig",
    "ConfigurationError",
    "ConvergenceTrace",
    "Dataset",
    "DatasetMeta",
    "DivergenceError",
    "LmoAuditRecord",
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
    "duality_gap",
    "generate_synthetic",
    "normalize_rows",
    "parse_libsvm",
    "primal_objective",
    "project_l1_ball",
    "project_nuclear_ball",
    "quadratic_loss",
    "relative_primal_error",
    "smooth_hinge_loss",
    "solve",
    "solve_acc_pgd",
    "solve_baseline",
    "solve_fw",
    "solve_svrg",
    "solve_trace",
    "sparse_l1_prox",
    "top_k_by_magnitude",
    "write_libsvm",
    "__version__",
]
