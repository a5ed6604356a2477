"""Span tracing for the benchmark's traced run.

`install` rebinds, for the duration of a `with` block, the module-level names
that `pdbfw_l1`, `pdbfw_trace`, `baselines`, `core_linalg` and `metrics`
call, the two input readers that the benchmark's set-up calls, and the layer
methods of `SparseDesignMatrix` and the two loss classes. Each wrapper
records a span (name, start, end, parent) in memory and, for the sparse
update kernels, the nonzeros it touches. No solver code is changed; leaving
the block restores every original.

A span's self time is its duration minus the durations of its direct
children. Calls are nested and single-threaded, so the self times of a root
span and all its descendants add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import workloads
from pdbfw import baselines, core_linalg, losses, metrics, pdbfw_l1, pdbfw_trace


class Tracer:
    """Spans held as parallel lists; index order is start order."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []

    def __len__(self):
        return len(self.names)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block; the benchmark's root spans use this."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span named `name` around every call. `count(*args)`
        returns a dict of counters to add, evaluated after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.counts[name + ".calls"] += 1
                if count is not None:
                    self.counts.update(count(*args))

        return traced

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self, root: int) -> dict:
        """Self time per span name over `root` and all its descendants."""
        inside = {root}
        child_time = defaultdict(float)
        for idx in range(root + 1, len(self.names)):
            parent = self.parents[idx]
            if parent not in inside:
                if self.starts[idx] > self.ends[root]:
                    break
                continue
            inside.add(idx)
            child_time[parent] += self.duration(idx)
        totals = defaultdict(float)
        for idx in inside:
            totals[self.names[idx]] += self.duration(idx) - child_time[idx]
        return dict(totals)

    def roots(self, name: str) -> list:
        return [i for i, (n, p) in enumerate(zip(self.names, self.parents))
                if n == name and p == -1]


def _row_nnz(key):
    def count(A, rows, *rest):
        return {key: int(A.row_nnz[rows].sum())}
    return count


def _col_nnz(A, dx, *rest):
    return {"core_linalg.col_product_nnz": int(A.col_nnz[dx.indices].sum())}


# (module, attribute, span name, counter) for every rebound module-level name
_FUNCTIONS = [
    (pdbfw_l1, "primal_step", "pdbfw_l1.primal_step", None),
    (pdbfw_l1, "dual_step", "pdbfw_l1.dual_step", None),
    (pdbfw_l1, "sparse_l1_prox", "core_linalg.sparse_l1_prox", None),
    (pdbfw_l1, "top_k_by_magnitude", "core_linalg.top_k_by_magnitude", None),
    (pdbfw_l1, "apply_sparse_col_product",
     "core_linalg.apply_sparse_col_product", _col_nnz),
    (pdbfw_l1, "apply_row_slice_transpose",
     "core_linalg.apply_row_slice_transpose",
     _row_nnz("core_linalg.row_transpose_nnz")),
    (pdbfw_l1, "dual_objective", "metrics.dual_objective", None),
    (pdbfw_trace, "primal_step_trace", "pdbfw_trace.primal_step_trace", None),
    (pdbfw_trace, "dual_step_trace", "pdbfw_trace.dual_step_trace", None),
    (pdbfw_trace, "approx_lowrank_prox", "pdbfw_trace.approx_lowrank_prox",
     None),
    (pdbfw_trace, "project_l1_ball", "core_linalg.project_l1_ball", None),
    (pdbfw_trace, "top_k_by_magnitude", "core_linalg.top_k_by_magnitude",
     None),
    (pdbfw_trace, "dual_objective_trace", "metrics.dual_objective_trace",
     None),
    (baselines, "apply_sparse_col_product",
     "core_linalg.apply_sparse_col_product", _col_nnz),
    (baselines, "project_l1_ball", "core_linalg.project_l1_ball", None),
    (baselines, "dual_objective", "metrics.dual_objective", None),
    (baselines, "loss_derivative", "losses.loss_derivative", None),
    (core_linalg, "top_k_by_magnitude", "core_linalg.top_k_by_magnitude",
     None),
    (core_linalg, "project_l1_ball", "core_linalg.project_l1_ball", None),
    (metrics, "project_l1_ball", "core_linalg.project_l1_ball", None),
    (metrics, "project_nuclear_ball", "metrics.project_nuclear_ball", None),
    (workloads, "generate_synthetic", "data_io.generate_synthetic", None),
    (workloads, "parse_libsvm", "data_io.parse_libsvm", None),
]

# (class, method, span name, counter) for every wrapped method
_METHODS = [
    (core_linalg.SparseDesignMatrix, "__init__", "core_linalg.design_build",
     None),
    (core_linalg.SparseDesignMatrix, "matvec", "core_linalg.matvec", None),
    (core_linalg.SparseDesignMatrix, "rmatvec", "core_linalg.rmatvec", None),
    (core_linalg.SparseDesignMatrix, "row_dot", "core_linalg.row_dot", None),
    (core_linalg.SparseDesignMatrix, "add_scaled_row",
     "core_linalg.add_scaled_row", None),
    (core_linalg.SparseDesignMatrix, "row_submatrix_t_dot",
     "core_linalg.row_submatrix_t_dot",
     lambda A, rows, block: {"core_linalg.row_submatrix_nnz":
                             int(A.row_nnz[rows].sum())}),
    (losses.LossModel, "dual_prox", "losses.dual_prox", None),
    (losses.LossModel, "mean_value", "losses.mean_value", None),
    (losses.LossModel, "derivatives", "losses.derivatives", None),
    (losses.LossModel, "conjugate_sum", "losses.conjugate_sum", None),
    (losses.MatrixQuadraticLoss, "dual_prox", "losses.dual_prox", None),
    (losses.MatrixQuadraticLoss, "mean_value", "losses.mean_value", None),
    (losses.MatrixQuadraticLoss, "conjugate_sum", "losses.conjugate_sum",
     None),
]


@contextmanager
def install(tracer: Tracer):
    """Route every listed call through `tracer` while the block runs."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in _FUNCTIONS + _METHODS]
    try:
        for (owner, attr, name, count), (_, _, original) in zip(
                _FUNCTIONS + _METHODS, saved):
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# The pdbfw solve span split into phases. Each wrapped name that can run
# inside a solve maps to one phase (the set-up spans never do), so the
# phases plus the solver's own self time add up to the traced solve time.
PDBFW_PHASES = {
    "pdbfw_l1.primal_step": "primal_step",
    "pdbfw_trace.primal_step_trace": "primal_step",
    "core_linalg.sparse_l1_prox": "primal_prox",
    "pdbfw_trace.approx_lowrank_prox": "primal_prox",
    "core_linalg.apply_sparse_col_product": "w_update",
    "core_linalg.matvec": "w_update",
    "pdbfw_l1.dual_step": "dual_step",
    "pdbfw_trace.dual_step_trace": "dual_step",
    "losses.dual_prox": "dual_prox",
    "core_linalg.top_k_by_magnitude": "selection",
    "core_linalg.apply_row_slice_transpose": "z_update",
    "core_linalg.row_submatrix_t_dot": "z_update",
    "core_linalg.project_l1_ball": "projection",
    "metrics.dual_objective": "certificate",
    "metrics.dual_objective_trace": "certificate",
    "metrics.project_nuclear_ball": "certificate",
    "losses.conjugate_sum": "certificate",
    "core_linalg.rmatvec": "certificate",
    "losses.mean_value": "objective",
    "losses.derivatives": "objective",
    "losses.loss_derivative": "objective",
    "core_linalg.row_dot": "w_update",
    "core_linalg.add_scaled_row": "z_update",
}
PHASES = ("primal_step", "primal_prox", "w_update", "dual_step", "dual_prox",
          "selection", "z_update", "projection", "certificate", "objective")


def pdbfw_phases(self_times: dict) -> dict:
    """Self time per phase of one pdbfw solve, plus the solver's own."""
    phases = dict.fromkeys(PHASES, 0.0)
    phases["self"] = 0.0
    for name, seconds in self_times.items():
        phases[PDBFW_PHASES.get(name, "self")] += seconds
    return phases
