"""Benchmark command line.

`pdbfw run` solves one problem instance with one or more solvers and writes
a CSV trace per solver plus a summary.tsv. The targets pick the constraint
set: a vector of n targets selects the l1 ball, and n x c targets (as
`--synthetic trace_sensing` makes them) select the trace-norm ball. Nothing
is written until every solver has returned, so a run that fails at any
point leaves no output. `pdbfw compare` reads those CSVs back and
tabulates time-to-accuracy.

Trace CSVs have the pinned header

    iter,seconds,primal,dual,gap,flops,support

where `seconds` is virtual time: the cumulative flop count divided by a
1 GFLOP/s reference rate. That makes the files byte-identical across runs
and machines; real wall-clock timings go to summary.tsv only. Floats are
written with repr() so they round-trip exactly.

Exit codes: 0 success, 1 solver failure (divergence, a low-rank prox that
did not converge, or a LAPACK failure), 2 usage errors (bad flags, unknown
solver, unreadable input, an output directory that cannot be written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import List, Optional

from numpy.linalg import LinAlgError

from . import pdbfw_l1, pdbfw_trace
from .baselines import BASELINE_KINDS, BaselineConfig, solve_baseline
from .data_io import Dataset, ParseError, SyntheticSpec, generate_synthetic, \
    normalize_rows, parse_libsvm
from .losses import MatrixQuadraticLoss, Regularizer, quadratic_loss, \
    smooth_hinge_loss
from .metrics import ConvergenceTrace, DivergenceError
from .pdbfw_trace import ApproximationError

CSV_HEADER = "iter,seconds,primal,dual,gap,flops,support"
_CSV_TYPES = (int, float, float, float, float, int, int)
VIRTUAL_FLOPS_PER_SECOND = 1e9
GAP_THRESHOLDS = (1e-2, 1e-4, 1e-6)
VALID_SOLVERS = ("pdbfw",) + BASELINE_KINDS

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _usage_check(args: argparse.Namespace) -> None:
    if (args.dataset is None) == (args.synthetic is None):
        raise UsageError("exactly one of --dataset and --synthetic is required")
    if not args.solvers:
        raise UsageError("--solvers names no solver")
    unknown = [s for s in args.solvers if s not in VALID_SOLVERS]
    if unknown:
        raise UsageError(
            f"unknown solver(s) {', '.join(unknown)}; "
            f"valid solvers are: {', '.join(VALID_SOLVERS)}")
    if len(set(args.solvers)) < len(args.solvers):
        raise UsageError(
            f"--solvers names a solver twice: {','.join(args.solvers)}")


def _load(args: argparse.Namespace) -> Dataset:
    if args.dataset is not None:
        try:
            dataset = parse_libsvm(args.dataset, n_cols=args.n_cols)
        except OSError as exc:
            raise UsageError(f"cannot read {args.dataset}: {exc}") from exc
        if args.normalize:
            dataset = normalize_rows(dataset)
        return dataset
    synth = SyntheticSpec(kind=args.synthetic, n=args.n, d=args.d,
                          c=args.c if args.synthetic == "trace_sensing" else None,
                          true_sparsity_or_rank=args.sparsity,
                          noise_level=args.noise, seed=args.seed)
    dataset, _ = generate_synthetic(synth)
    return dataset


def _format_float(value: float) -> str:
    return repr(float(value))


def _trace_csv(trace: ConvergenceTrace) -> str:
    return CSV_HEADER + "\n" + "".join(
        f"{r.iteration},{_format_float(r.flops / VIRTUAL_FLOPS_PER_SECOND)},"
        f"{_format_float(r.primal)},{_format_float(r.dual)},"
        f"{_format_float(r.gap)},{r.flops},{r.support}\n"
        for r in trace.records)


def _solver_calls(args: argparse.Namespace, dataset: Dataset):
    """(solver, call) per requested solver, where `call()` returns a tuple
    that ends with the trace. Every config is built before any solver runs.
    n x c targets select the trace-norm ball, which only pdbfw solves, and
    only with the quadratic loss."""
    A = dataset.matrix
    d = A.n_cols
    mu = args.mu if args.mu is not None else 10.0 / A.n_rows
    reg = Regularizer(mu=mu)
    if dataset.labels.ndim == 2:
        wrong = [s for s in args.solvers if s != "pdbfw"]
        if wrong:
            raise UsageError(
                f"n x c targets select the trace-norm ball, which only the "
                f"pdbfw solver supports; got {', '.join(wrong)}")
        if args.loss != "quadratic":
            raise UsageError(
                "the trace-norm ball only supports --loss quadratic")
        loss = MatrixQuadraticLoss(B=dataset.labels)
        s_default, solve = min(10, d, loss.n_tasks), pdbfw_trace.solve_trace
    else:
        make_loss = (smooth_hinge_loss if args.loss == "smooth_hinge"
                     else quadratic_loss)
        loss = make_loss(dataset.labels)
        s_default, solve = min(10, d), pdbfw_l1.solve
    calls = []
    for solver in args.solvers:
        if solver == "pdbfw":
            cfg = pdbfw_l1.SolverConfig(
                radius=args.radius,
                s=args.s if args.s is not None else s_default,
                k=args.k, delta=args.delta,
                max_iters=args.max_iters, gap_tol=args.gap_tol)
            call = functools.partial(solve, A, loss, reg, cfg)
        else:
            cfg = BaselineConfig(kind=solver, radius=args.radius,
                                 max_iters=args.max_iters, seed=args.seed,
                                 gap_tol=args.gap_tol)
            call = functools.partial(solve_baseline, A, loss, reg, cfg)
        calls.append((solver, call))
    return calls


def run(args: argparse.Namespace) -> int:
    """Execute one benchmark run from the parsed `run` flags; returns the
    process exit code. The output directory is made only once every solver
    has returned. Each file is written under a temporary name and renamed
    once all are written; a failed write removes what the run made, the
    directory too if the run created it, so a failed run leaves no output."""
    traces = []
    try:
        _usage_check(args)
        for solver, call in _solver_calls(args, _load(args)):
            traces.append((solver, call()[-1]))
    except (DivergenceError, ApproximationError, LinAlgError) as exc:
        # before the usage arm: LinAlgError is a ValueError
        print(f"error: solver {solver} failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    texts = {f"{solver}.csv": _trace_csv(trace) for solver, trace in traces}
    texts["summary.tsv"] = (
        "solver\tfinal_primal\tfinal_gap\titerations\twall_seconds\n" +
        "".join(f"{solver}\t{_format_float(t.final.primal)}\t"
                f"{_format_float(t.final.gap)}\t{t.final.iteration}\t"
                f"{t.final.elapsed_seconds:.6f}\n" for solver, t in traces))
    out = args.output_dir
    made_dir = not os.path.isdir(out)
    temps = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp")
             for name in texts}
    renamed = []
    try:
        os.makedirs(out, exist_ok=True)
        for name, text in texts.items():
            with open(temps[name], "w") as handle:
                handle.write(text)
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out, name))
            renamed.append(os.path.join(out, name))
    except OSError as exc:
        for path in [*temps.values(), *renamed]:
            with contextlib.suppress(OSError):
                os.remove(path)
        if made_dir:
            with contextlib.suppress(OSError):
                os.rmdir(out)
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for solver, trace in traces:
        final = trace.final
        print(f"{solver}: primal {final.primal:.6e}, gap {final.gap:.3e}, "
              f"{final.iteration} iterations, {final.elapsed_seconds:.3f} s "
              f"-> {os.path.join(out, solver + '.csv')}")
    return EXIT_OK


def _read_trace_csv(path: str):
    rows = []
    with open(path) as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise UsageError(f"{path}: unexpected header {header!r}")
        for line in handle:
            parts = line.strip().split(",")
            try:
                rows.append(tuple(convert(part) for convert, part
                                  in zip(_CSV_TYPES, parts, strict=True)))
            except ValueError:
                raise UsageError(
                    f"{path}: malformed row {line.strip()!r}") from None
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


def _solver_list(text: str) -> List[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


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
    run_p.add_argument("--radius", type=float, default=300.0,
                       help="constraint ball radius (default 300)")
    run_p.add_argument("--mu", type=float, default=None,
                       help="l2 regularization weight (default 10/n)")
    run_p.add_argument("--s", type=int, default=None,
                       help="primal sparsity/rank budget (default min(10, d), "
                       "or min(10, d, c) for n x c targets)")
    run_p.add_argument("--k", type=int, default=None,
                       help="dual block size (default from theory)")
    run_p.add_argument("--delta", type=float, default=None,
                       help="dual prox weight (default n, the sample count)")
    run_p.add_argument("--max-iters", type=int, default=500)
    run_p.add_argument("--gap-tol", type=float, default=pdbfw_l1.DEFAULT_GAP_TOL)
    run_p.add_argument("--solvers", type=_solver_list, default="pdbfw",
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
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
