"""Seeded inputs, solver calls and result checks for the benchmark workloads.

Every input is drawn from `PortableRng` seeded by the benchmark's `--seed`
and reaches the program through its own input paths: `generate_synthetic`
for the dense l1 and low-rank instances, index:value text read back by
`parse_libsvm` for the sparse smooth-hinge instance. The solvers are called
only through their public entry points (`solve`, `solve_trace`,
`solve_baseline`).
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from pdbfw import (BaselineConfig, MatrixQuadraticLoss, PortableRng,
                   Regularizer, SolverConfig, SparseDesignMatrix,
                   SyntheticSpec, generate_synthetic, parse_libsvm,
                   quadratic_loss, smooth_hinge_loss, solve, solve_baseline,
                   solve_trace)

# iteration caps, far above what each workload needs (epochs for svrg), so
# that only a regression can reach them and the gap check then fails
MAX_ITERS = {"pdbfw": 1000, "acc_pgd": 1000, "svrg": 60}
# rows of a sparse design hold distinct columns; this many redraw rounds
# always suffice for the sizes used here
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class Workload:
    """One problem instance family and the solvers timed on it.

    `source` names the input path: "sparse_regression" and "trace_sensing"
    go through `generate_synthetic`; "libsvm_text" builds a sparse design
    from COO, writes it as index:value text and parses it back.
    """

    name: str
    source: str
    loss: str
    n: int
    d: int
    truth: int              # planted support size or rank
    noise: float
    radius: float
    s: int
    k: int
    delta: float
    gap_tol: float
    solvers: tuple
    c: int = 0              # target columns (trace_sensing only)
    row_nnz: int = 0        # nonzeros per row (libsvm_text only)

    @property
    def constraint(self) -> str:
        return "trace" if self.source == "trace_sensing" else "l1"


WORKLOADS = {
    "l1_dense": Workload(
        name="l1_dense",
        source="sparse_regression", loss="quadratic",
        n=500, d=1000, truth=10, noise=1.0, radius=5.2,
        s=250, k=250, delta=1000.0, gap_tol=1e-8,
        solvers=("pdbfw", "acc_pgd", "svrg")),
    "l1_sparse_hinge": Workload(
        name="l1_sparse_hinge",
        source="libsvm_text", loss="smooth_hinge",
        n=2500, d=10000, truth=50, noise=0.3, radius=10.0,
        s=500, k=500, delta=1000.0, gap_tol=1e-6,
        solvers=("pdbfw", "acc_pgd"), row_nnz=20),
    "trace_lowrank": Workload(
        name="trace_lowrank",
        source="trace_sensing", loss="quadratic",
        n=200, d=150, c=100, truth=10, noise=0.0, radius=40.0,
        s=16, k=100, delta=100.0, gap_tol=1e-8,
        solvers=("pdbfw",)),
}

class DensifyError(AssertionError):
    """A sparse workload's input path called SparseDesignMatrix.to_dense."""


@contextmanager
def forbid_densify():
    """Make SparseDesignMatrix.to_dense raise while the block runs."""
    original = SparseDesignMatrix.to_dense

    def refuse(self):
        raise DensifyError(
            f"to_dense called on a {self.n_rows}x{self.n_cols} sparse design")

    SparseDesignMatrix.to_dense = refuse
    try:
        yield
    finally:
        SparseDesignMatrix.to_dense = original


@dataclass
class Inputs:
    """What the benchmark hands the program: a synthetic spec, or the text
    of a sparse dataset together with the COO arrays it was written from."""

    spec: Optional[SyntheticSpec] = None
    text: Optional[str] = None
    coo: Optional[sp.coo_matrix] = None
    labels: Optional[np.ndarray] = None


@dataclass
class Problem:
    workload: Workload
    matrix: SparseDesignMatrix
    loss: object
    reg: Regularizer


def _distinct_columns(rng: PortableRng, n: int, d: int, m: int) -> np.ndarray:
    """n x m column indices, sorted and distinct within each row."""
    cols = rng.integers(n * m, d).reshape(n, m)
    for _ in range(_MAX_REDRAWS):
        cols.sort(axis=1)
        dup = np.zeros_like(cols, dtype=bool)
        dup[:, 1:] = cols[:, 1:] == cols[:, :-1]
        count = int(dup.sum())
        if count == 0:
            return cols
        cols[dup] = rng.integers(count, d)
    raise RuntimeError("could not draw distinct columns")


def _sparse_hinge_inputs(wl: Workload, seed: int) -> Inputs:
    """Unit-norm rows with `row_nnz` entries each, labels from a planted
    sparse vector plus Gaussian noise; built as COO, never densified."""
    rng = PortableRng(seed)
    n, d, m = wl.n, wl.d, wl.row_nnz
    cols = _distinct_columns(rng, n, d, m)
    vals = rng.normals(n * m).reshape(n, m)
    vals /= np.linalg.norm(vals, axis=1)[:, None]
    support = np.argsort(rng.uniforms(d), kind="stable")[:wl.truth]
    x0 = np.zeros(d)
    x0[support] = rng.normals(wl.truth)
    margins = (vals * x0[cols]).sum(axis=1) + wl.noise * rng.normals(n)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    lines = []
    for i in range(n):
        pairs = " ".join(f"{j + 1}:{v!r}" for j, v in
                         zip(cols[i].tolist(), vals[i].tolist()))
        lines.append(f"{int(labels[i])} {pairs}\n")
    coo = sp.coo_matrix((vals.ravel(), (np.repeat(np.arange(n), m),
                                        cols.ravel())), shape=(n, d))
    return Inputs(text="".join(lines), coo=coo, labels=labels)


def generate_inputs(wl: Workload, seed: int) -> Inputs:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    if wl.source == "libsvm_text":
        return _sparse_hinge_inputs(wl, seed)
    return Inputs(spec=SyntheticSpec(
        kind=wl.source, n=wl.n, d=wl.d,
        c=wl.c if wl.source == "trace_sensing" else None,
        true_sparsity_or_rank=wl.truth, noise_level=wl.noise, seed=seed))


def load(wl: Workload, inputs: Inputs) -> Problem:
    """The timed set-up: the program's input path, design construction
    included, then the loss and regularizer."""
    if inputs.text is not None:
        with forbid_densify():
            dataset = parse_libsvm(io.StringIO(inputs.text), n_cols=wl.d,
                                   name=wl.name)
    else:
        dataset, _ = generate_synthetic(inputs.spec)
    if wl.constraint == "trace":
        loss = MatrixQuadraticLoss(B=dataset.labels)
    elif wl.loss == "smooth_hinge":
        loss = smooth_hinge_loss(dataset.labels)
    else:
        loss = quadratic_loss(dataset.labels)
    return Problem(workload=wl, matrix=dataset.matrix, loss=loss,
                   reg=Regularizer(mu=10.0 / wl.n))


def check_load(problem: Problem, inputs: Inputs) -> list:
    """Failures of the set-up: the parsed text must reproduce the COO design
    and labels it was written from."""
    if inputs.text is None:
        return []
    expected = inputs.coo.tocsr()
    expected.sort_indices()
    got = problem.matrix._csr
    failures = []
    if got.shape != expected.shape or not (
            np.array_equal(got.indptr, expected.indptr)
            and np.array_equal(got.indices, expected.indices)
            and np.array_equal(got.data, expected.data)):
        failures.append("parsed design differs from the COO it was written from")
    if not np.array_equal(problem.loss.targets, inputs.labels):
        failures.append("parsed labels differ from the written labels")
    return failures


def run_solver(problem: Problem, solver: str, seed: int):
    """One public solver call to the workload's gap; returns (x, trace)."""
    wl = problem.workload
    if solver == "pdbfw":
        cfg = SolverConfig(radius=wl.radius, s=wl.s, k=wl.k, delta=wl.delta,
                           max_iters=MAX_ITERS[solver], gap_tol=wl.gap_tol)
        call = solve_trace if wl.constraint == "trace" else solve
        x, _, trace = call(problem.matrix, problem.loss, problem.reg, cfg)
        return x, trace
    cfg = BaselineConfig(kind=solver, radius=wl.radius,
                         max_iters=MAX_ITERS[solver], seed=seed,
                         gap_tol=wl.gap_tol)
    return solve_baseline(problem.matrix, problem.loss, problem.reg, cfg)


def first_time_to_gap(trace, gap: float) -> float:
    """elapsed_seconds of the first record whose gap is at most `gap`; every
    workload's gap_tol is below 1e-4, so a checked call always has one."""
    return next(r.elapsed_seconds for r in trace.records if r.gap <= gap)


def check_result(problem: Problem, solver: str, x, trace,
                 reference=None, partner=None) -> list:
    """Failures of one solver call.

    `reference` is an earlier result (x, trace) of the same solver and seed,
    whose iteration and flop counts must repeat exactly. `partner` is a
    result of another l1 solver: weak duality puts both primal values within
    their own gap of the optimum, so they differ by at most the larger gap.
    """
    wl = problem.workload
    final = trace.final
    failures = []
    if not final.gap <= wl.gap_tol:
        failures.append(f"{solver}: gap {final.gap:.3e} above {wl.gap_tol:.0e} "
                        f"after {final.iteration} iterations")
    if reference is not None:
        ref = reference[1].final
        if (final.iteration, final.flops) != (ref.iteration, ref.flops):
            failures.append(
                f"{solver}: iterations/flops {final.iteration}/{final.flops} "
                f"differ from an earlier call's {ref.iteration}/{ref.flops}")
    limit = wl.radius * (1.0 + 1e-9)
    if wl.constraint == "trace":
        sv = np.linalg.svd(x, compute_uv=False)
        rank = int(np.count_nonzero(
            sv > sv[0] * max(x.shape) * np.finfo(float).eps)) if sv[0] > 0 else 0
        if sv.sum() > limit:
            failures.append(f"{solver}: nuclear norm {sv.sum()!r} above radius")
        if rank > wl.s:
            failures.append(f"{solver}: rank {rank} above s={wl.s}")
    else:
        if np.abs(x).sum() > limit:
            failures.append(f"{solver}: l1 norm {np.abs(x).sum()!r} above radius")
        if partner is not None:
            other = partner[1].final
            bound = max(final.gap, other.gap)
            if abs(final.primal - other.primal) > bound:
                failures.append(
                    f"{solver}: primal {final.primal!r} and partner primal "
                    f"{other.primal!r} differ by more than {bound:.3e}")
    return failures


def agreement_partner(wl: Workload, solver: str) -> Optional[str]:
    """The solver whose primal value an l1 result is compared against."""
    if wl.constraint != "l1" or len(wl.solvers) < 2:
        return None
    return "acc_pgd" if solver == "pdbfw" else "pdbfw"
