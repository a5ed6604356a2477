"""Benchmark command line.

`pdbfw run` solves one problem instance with one or more solvers and writes
a CSV trace per solver plus a summary.tsv. `pdbfw compare` reads those CSVs
back and tabulates time-to-accuracy.

Trace CSVs have the pinned header

    iter,seconds,primal,dual,gap,flops,support

where `seconds` is virtual time: the cumulative flop count divided by a
1 GFLOP/s reference rate. That makes the files byte-identical across runs
and machines; real wall-clock timings go to summary.tsv only. Floats are
written with repr() so they round-trip exactly.

Exit codes: 0 success, 1 solver failure (divergence or a low-rank prox that
did not converge), 2 usage errors (bad flags, unknown solver, unreadable
input).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from . import pdbfw_l1, pdbfw_trace
from .baselines import BASELINE_KINDS, BaselineConfig, solve_baseline
from .data_io import Dataset, ParseError, SyntheticSpec, generate_synthetic, \
    normalize_rows, parse_libsvm
from .losses import MatrixQuadraticLoss, Regularizer, quadratic_loss, \
    smooth_hinge_loss
from .metrics import ConvergenceTrace, DivergenceError
from .pdbfw_trace import ApproximationError

CSV_HEADER = "iter,seconds,primal,dual,gap,flops,support"
VIRTUAL_FLOPS_PER_SECOND = 1e9
GAP_THRESHOLDS = (1e-2, 1e-4, 1e-6)
VALID_SOLVERS = ("pdbfw",) + BASELINE_KINDS

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2


@dataclass
class RunSpec:
    """Everything one `pdbfw run` invocation needs."""

    dataset_path: Optional[str] = None
    synthetic: Optional[str] = None
    n: int = 200
    d: int = 100
    c: int = 20
    sparsity: int = 5
    noise: float = 0.0
    seed: int = 0
    loss: str = "quadratic"
    constraint: str = "l1"
    radius: float = 300.0
    mu: Optional[float] = None
    s: Optional[int] = None
    k: Optional[int] = None
    eta: Optional[float] = None
    delta: Optional[float] = None
    max_iters: int = 500
    gap_tol: float = 1e-8
    solvers: List[str] = field(default_factory=lambda: ["pdbfw"])
    output_dir: str = "results"
    normalize: bool = True
    n_cols: Optional[int] = None


class UsageError(Exception):
    pass


def _usage_check(spec: RunSpec) -> None:
    if (spec.dataset_path is None) == (spec.synthetic is None):
        raise UsageError("exactly one of --dataset and --synthetic is required")
    unknown = [s for s in spec.solvers if s not in VALID_SOLVERS]
    if unknown:
        raise UsageError(
            f"unknown solver(s) {', '.join(unknown)}; "
            f"valid solvers are: {', '.join(VALID_SOLVERS)}")
    if spec.constraint == "trace":
        wrong = [s for s in spec.solvers if s != "pdbfw"]
        if wrong:
            raise UsageError(
                f"--constraint trace only supports the pdbfw solver, "
                f"got {', '.join(wrong)}")
        if spec.dataset_path is not None:
            raise UsageError(
                "--constraint trace needs matrix targets; use "
                "--synthetic trace_sensing")
        if spec.synthetic != "trace_sensing":
            raise UsageError("--constraint trace requires --synthetic trace_sensing")
        if spec.loss != "quadratic":
            raise UsageError("--constraint trace only supports --loss quadratic")
    elif spec.synthetic == "trace_sensing":
        raise UsageError("--synthetic trace_sensing requires --constraint trace")


def _load(spec: RunSpec) -> Dataset:
    if spec.dataset_path is not None:
        try:
            dataset = parse_libsvm(spec.dataset_path, n_cols=spec.n_cols)
        except OSError as exc:
            raise UsageError(f"cannot read {spec.dataset_path}: {exc}") from exc
        if spec.normalize:
            dataset = normalize_rows(dataset)
        return dataset
    synth = SyntheticSpec(kind=spec.synthetic, n=spec.n, d=spec.d,
                          c=spec.c if spec.synthetic == "trace_sensing" else None,
                          true_sparsity_or_rank=spec.sparsity,
                          noise_level=spec.noise, seed=spec.seed)
    dataset, _ = generate_synthetic(synth)
    return dataset


def _format_float(value: float) -> str:
    return repr(float(value))


def write_trace_csv(path: str, trace: ConvergenceTrace) -> None:
    with open(path, "w") as handle:
        handle.write(CSV_HEADER + "\n")
        for record in trace.records:
            seconds = record.flops / VIRTUAL_FLOPS_PER_SECOND
            handle.write(",".join([
                str(record.iteration),
                _format_float(seconds),
                _format_float(record.primal),
                _format_float(record.dual),
                _format_float(record.gap),
                str(record.flops),
                str(record.support),
            ]) + "\n")


def _run_one(solver: str, spec: RunSpec, dataset: Dataset):
    n = dataset.matrix.n_rows
    d = dataset.matrix.n_cols
    mu = spec.mu if spec.mu is not None else 10.0 / n
    reg = Regularizer(mu=mu)
    if spec.constraint == "trace":
        loss = MatrixQuadraticLoss(B=dataset.labels)
        s_default, call = min(10, d, loss.n_tasks), pdbfw_trace.solve_trace
    else:
        make_loss = (smooth_hinge_loss if spec.loss == "smooth_hinge"
                     else quadratic_loss)
        loss = make_loss(dataset.labels)
        s_default, call = min(10, d), pdbfw_l1.solve
    if solver == "pdbfw":
        cfg = pdbfw_l1.SolverConfig(
            radius=spec.radius, s=spec.s if spec.s is not None else s_default,
            k=spec.k, eta=spec.eta, delta=spec.delta,
            max_iters=spec.max_iters, gap_tol=spec.gap_tol)
        _, _, trace = call(dataset.matrix, loss, reg, cfg)
        return trace
    cfg = BaselineConfig(kind=solver, radius=spec.radius,
                         max_iters=spec.max_iters, seed=spec.seed,
                         gap_tol=spec.gap_tol)
    _, trace = solve_baseline(dataset.matrix, loss, reg, cfg)
    return trace


def run(spec: RunSpec) -> int:
    """Execute one benchmark run; returns the process exit code."""
    try:
        _usage_check(spec)
        dataset = _load(spec)
    except (UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(spec.output_dir, exist_ok=True)
    summary_rows = []
    for solver in spec.solvers:
        try:
            trace = _run_one(solver, spec, dataset)
        except (DivergenceError, ApproximationError) as exc:
            print(f"error: solver {solver} failed: {exc}", file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        except ValueError as exc:  # covers ConfigurationError
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        csv_path = os.path.join(spec.output_dir, f"{solver}.csv")
        write_trace_csv(csv_path, trace)
        final = trace.final
        summary_rows.append((solver, final.primal, final.gap,
                             final.iteration, final.elapsed_seconds))
        print(f"{solver}: primal {final.primal:.6e}, gap {final.gap:.3e}, "
              f"{final.iteration} iterations, {final.elapsed_seconds:.3f} s "
              f"-> {csv_path}")
    summary_path = os.path.join(spec.output_dir, "summary.tsv")
    with open(summary_path, "w") as handle:
        handle.write("solver\tfinal_primal\tfinal_gap\titerations\twall_seconds\n")
        for solver, primal, gap, iters, wall in summary_rows:
            handle.write(f"{solver}\t{_format_float(primal)}\t"
                         f"{_format_float(gap)}\t{iters}\t{wall:.6f}\n")
    return EXIT_OK


def _read_trace_csv(path: str):
    rows = []
    with open(path) as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise UsageError(f"{path}: unexpected header {header!r}")
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise UsageError(f"{path}: malformed row {line.strip()!r}")
            rows.append((int(parts[0]), float(parts[1]), float(parts[2]),
                         float(parts[3]), float(parts[4]), int(parts[5]),
                         int(parts[6])))
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return rows


def compare(output_dir: str) -> int:
    """Tabulate virtual time to reach relative primal accuracy thresholds.

    A threshold t is reached once primal - p_star <= t |p_star|, where
    p_star is the best final primal value across all solver CSVs found in
    the directory; a dash marks thresholds a solver never reached.
    """
    try:
        names = sorted(f for f in os.listdir(output_dir) if f.endswith(".csv"))
    except OSError as exc:
        print(f"error: cannot read {output_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not names:
        print(f"error: no trace CSVs in {output_dir}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traces = {name[:-4]: _read_trace_csv(os.path.join(output_dir, name))
                  for name in names}
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    p_star = min(rows[-1][2] for rows in traces.values())
    print(f"best final primal: {p_star!r}")
    header = ["solver"] + [f"sec_to_{t:.0e}" for t in GAP_THRESHOLDS] + ["final_primal"]
    widths = [max(12, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for solver, rows in traces.items():
        cells = [solver]
        for threshold in GAP_THRESHOLDS:
            hit = next((seconds for _, seconds, primal, *_ in rows
                        if primal - p_star <= threshold * abs(p_star)),
                       None)
            cells.append("—" if hit is None else f"{hit:.6f}")
        cells.append(repr(rows[-1][2]))
        print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdbfw",
        description="Benchmark sparse and low-rank constrained ERM solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one instance, write trace CSVs")
    run_p.add_argument("--dataset", help="path to an index:value text file")
    run_p.add_argument("--synthetic",
                       choices=["sparse_regression", "trace_sensing"],
                       help="generate a seeded synthetic instance instead")
    run_p.add_argument("--n", type=int, default=200, help="synthetic samples")
    run_p.add_argument("--d", type=int, default=100, help="synthetic features")
    run_p.add_argument("--c", type=int, default=20,
                       help="synthetic task count (trace_sensing)")
    run_p.add_argument("--sparsity", type=int, default=5,
                       help="true sparsity or rank of the synthetic signal")
    run_p.add_argument("--noise", type=float, default=0.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--loss", choices=["smooth_hinge", "quadratic"],
                       default="quadratic")
    run_p.add_argument("--constraint", choices=["l1", "trace"], default="l1")
    run_p.add_argument("--radius", type=float, default=300.0,
                       help="constraint ball radius (default 300)")
    run_p.add_argument("--mu", type=float, default=None,
                       help="l2 regularization weight (default 10/n)")
    run_p.add_argument("--s", type=int, default=None,
                       help="primal sparsity/rank budget (default min(10, d), "
                       "or min(10, d, c) for --constraint trace)")
    run_p.add_argument("--k", type=int, default=None,
                       help="dual block size (default from theory)")
    run_p.add_argument("--eta", type=float, default=None,
                       help="primal step size (default mu/(2L))")
    run_p.add_argument("--delta", type=float, default=None,
                       help="dual prox weight (default from theory)")
    run_p.add_argument("--max-iters", type=int, default=500)
    run_p.add_argument("--gap-tol", type=float, default=1e-8)
    run_p.add_argument("--solvers", default="pdbfw",
                       help="comma-separated list: " + ", ".join(VALID_SOLVERS))
    run_p.add_argument("--output-dir", default="results")
    run_p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="scale dataset rows to unit norm (default on)")
    run_p.add_argument("--n-cols", type=int, default=None,
                       help="force the parsed feature dimension")

    cmp_p = sub.add_parser("compare", help="tabulate time-to-accuracy from CSVs")
    cmp_p.add_argument("output_dir")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return compare(args.output_dir)
    spec = RunSpec(
        dataset_path=args.dataset, synthetic=args.synthetic, n=args.n,
        d=args.d, c=args.c, sparsity=args.sparsity, noise=args.noise,
        seed=args.seed, loss=args.loss, constraint=args.constraint,
        radius=args.radius, mu=args.mu, s=args.s, k=args.k, eta=args.eta,
        delta=args.delta, max_iters=args.max_iters, gap_tol=args.gap_tol,
        solvers=[s.strip() for s in args.solvers.split(",") if s.strip()],
        output_dir=args.output_dir, normalize=args.normalize,
        n_cols=args.n_cols)
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
