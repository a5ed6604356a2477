"""Measurement loops of the benchmark: set-up, warm-up, the timed window and
the traced window, with every solver call checked and counted.

The untraced run (`traced=False`) gives the end-to-end metrics; the traced
run gives the per-layer metrics. Both take their inputs from the seed only.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter

import numpy as np
import scipy
import scipy.sparse as sp

from tracing import PHASES, Tracer, install, pdbfw_phases
from workloads import (Workload, agreement_partner, check_load, check_result,
                       first_time_to_gap, generate_inputs, load, run_solver)

END_TO_END = {
    "setup_s": "s",
    "pdbfw_solve_s": "s",
    "pdbfw_to_gap_1e-4_s": "s",
    "baseline_solve_s": "s",
    "peak_mem_mb": "MB",
}

# the solvers a workload may run, by the prefix of their per-layer metrics
SOLVER_PREFIXES = {"pdbfw": "pdbfw", "acc_pgd": "baselines.acc_pgd",
                   "svrg": "baselines.svrg"}

# function-level self times: metric name -> the span names it sums, over
# every solver call of the traced round
FUNCTION_TIMES = {
    "core_linalg.row_transpose_s": ("core_linalg.apply_row_slice_transpose",),
    "core_linalg.col_product_s": ("core_linalg.apply_sparse_col_product",),
    "core_linalg.sparse_l1_prox_s": ("core_linalg.sparse_l1_prox",),
    "core_linalg.project_l1_ball_s": ("core_linalg.project_l1_ball",),
    "core_linalg.matvec_s": ("core_linalg.matvec",),
    "core_linalg.rmatvec_s": ("core_linalg.rmatvec",),
    "core_linalg.row_ops_s": ("core_linalg.row_dot",
                              "core_linalg.add_scaled_row"),
    "core_linalg.row_submatrix_t_dot_s": ("core_linalg.row_submatrix_t_dot",),
    "losses.dual_prox_s": ("losses.dual_prox",),
    "losses.objective_s": ("losses.mean_value", "losses.derivatives",
                           "losses.loss_derivative"),
    "metrics.dual_objective_s": ("metrics.dual_objective",),
    "metrics.dual_objective_trace_s": ("metrics.dual_objective_trace",
                                       "metrics.project_nuclear_ball"),
    "pdbfw_trace.lowrank_prox_s": ("pdbfw_trace.approx_lowrank_prox",),
}

# counters kept by the tracing wrappers, reported as they are
COUNTS = {
    "core_linalg.row_transpose_nnz": "core_linalg.row_transpose_nnz",
    "core_linalg.col_product_nnz": "core_linalg.col_product_nnz",
    "core_linalg.row_submatrix_nnz": "core_linalg.row_submatrix_nnz",
    "core_linalg.project_l1_ball_calls": "core_linalg.project_l1_ball.calls",
    "pdbfw_trace.lowrank_prox_calls": "pdbfw_trace.approx_lowrank_prox.calls",
}

PER_LAYER = {
    "pdbfw.traced_solve_s": "s",
    "pdbfw.self_s": "s",
    **{f"pdbfw.{phase}_s": "s" for phase in PHASES},
    **{f"{prefix}.{what}": "count" for prefix in SOLVER_PREFIXES.values()
       for what in ("iterations", "flops", "final_support")},
    **{f"{prefix}.wall_per_virtual": "s/s"
       for prefix in SOLVER_PREFIXES.values()},
    **dict.fromkeys(FUNCTION_TIMES, "s"),
    **dict.fromkeys(COUNTS, "count"),
    "core_linalg.bytes_computed": "bytes",
    "core_linalg.design_build_s": "s",
    "data_io.generate_s": "s",
    "data_io.parse_libsvm_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}

# end-to-end times are scaled to a machine on which one run of the
# ReferenceKernel takes this long
REFERENCE_SECONDS = 0.005
# bytes one touched nonzero costs at least: an 8-byte value, a 4-byte index
BYTES_PER_NNZ = 12
# set-up repeats: at least this many, and more while under this many seconds
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class ReferenceKernel:
    """A fixed piece of work, independent of the program, run between every
    two timed set-ups or solver calls. It mixes what the program spends its
    time on: a Python loop of small numpy operations on sparse rows, sparse
    products and a dense SVD. Other tenants of a shared machine slow it down
    together with the calls around it, so scaling a call by the kernel's
    time around it keeps the program's speed and drops most of the
    machine's (see README.md)."""

    def __init__(self):
        rng = np.random.default_rng(20190606)
        self.csr = sp.random(2000, 4000, density=0.005, format="csr",
                             random_state=rng)
        self.x = rng.standard_normal(4000)
        self.z = np.zeros(4000)
        self.dense = rng.standard_normal((120, 90))
        self.times = []

    def _run(self) -> float:
        csr, z = self.csr, self.z
        start = time.perf_counter()
        for i in range(0, 2000, 2):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            z[csr.indices[lo:hi]] += 0.5 * csr.data[lo:hi]
        for _ in range(3):
            z += csr.T @ (csr @ self.x)
        np.linalg.svd(self.dense, compute_uv=False)
        return time.perf_counter() - start

    def start(self) -> None:
        """Run the kernel right before the first of a series of calls."""
        self.times.append(self._run())

    def factor(self) -> float:
        """Run the kernel again; returns REFERENCE_SECONDS over the mean
        kernel time before and after the call made since the last run. A
        call's wall time times this factor is its time at reference speed."""
        self.times.append(self._run())
        return REFERENCE_SECONDS / ((self.times[-2] + self.times[-1]) / 2)


class HarnessError(RuntimeError):
    """The run cannot produce its metrics (set-up failed, or no solver call
    of some solver succeeded)."""


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Ledger:
    """Counts solver calls and the ones that failed, and keeps the reference
    result (the warm-up call) of each solver for the checks."""

    def __init__(self, problem, seed: int):
        self.problem = problem
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.references = {}

    def call(self, solver: str, tracer: Tracer = None):
        """One checked call; returns (seconds, trace) or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                x, trace = run_solver(self.problem, solver, self.seed)
                seconds = time.perf_counter() - t0
            else:
                with tracer.span("solve." + solver) as root:
                    x, trace = run_solver(self.problem, solver, self.seed)
                seconds = tracer.duration(root)
        except Exception as exc:  # a failing call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.messages.append(f"{solver}: raised {exc!r}")
            return None
        partner = agreement_partner(self.problem.workload, solver)
        failures = check_result(self.problem, solver, x, trace,
                                reference=self.references.get(solver),
                                partner=self.references.get(partner))
        self.references.setdefault(solver, (x, trace))
        if failures:
            self.failed += 1
            self.messages.extend(failures)
            return None
        return seconds, trace


def _setups(wl: Workload, inputs, kernel: ReferenceKernel,
            tracer: Tracer = None):
    """Repeated timed set-ups with runs of `kernel` between them; returns the
    last problem, the wall times, the times at reference speed and, when
    traced, the root span of each repeat."""
    times, scaled, roots = [], [], []
    deadline = time.perf_counter() + SETUP_MIN_SECONDS
    kernel.start()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() < deadline:
        problem = None
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            problem = load(wl, inputs)
            times.append(time.perf_counter() - t0)
        else:
            with install(tracer), tracer.span("setup") as root:
                problem = load(wl, inputs)
            times.append(tracer.duration(root))
            roots.append(root)
        scaled.append(times[-1] * kernel.factor())
    return problem, times, scaled, roots


def _peak_mem_bytes(wl: Workload, inputs, ledger: Ledger) -> int:
    """tracemalloc peak over one set-up and one pdbfw solve."""
    tracemalloc.start()
    try:
        problem = load(wl, inputs)
        saved, ledger.problem = ledger.problem, problem
        try:
            ledger.call("pdbfw")
        finally:
            ledger.problem = saved
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _window(seconds: float, one_round):
    """Run `one_round` until the next round would end past the deadline."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def _median(values, what: str) -> float:
    if not values:
        raise HarnessError(f"no successful sample of {what}")
    return statistics.median(values)


def _fastest(values, what: str) -> float:
    if not values:
        raise HarnessError(f"no successful sample of {what}")
    return min(values)


def _solver_figures(ledger: Ledger, fastest: dict) -> dict:
    """Iterations, flops and final support of each solver's reference call,
    and its fastest untraced time per virtual second; 0 for a solver the
    workload does not run."""
    out = {}
    for solver, prefix in SOLVER_PREFIXES.items():
        ref = ledger.references.get(solver)
        final = ref[1].final if ref is not None else None
        out[f"{prefix}.iterations"] = final.iteration if final else 0
        out[f"{prefix}.flops"] = final.flops if final else 0
        out[f"{prefix}.final_support"] = final.support if final else 0
        out[f"{prefix}.wall_per_virtual"] = (
            fastest[solver] / (final.flops / 1e9)
            if final and solver in fastest else 0.0)
    return out


def _round_summary(tracer: Tracer, wl: Workload) -> dict:
    """Per-layer figures of one traced round (one call of each solver)."""
    roots = {s: tracer.roots("solve." + s) for s in wl.solvers}
    if not all(roots.values()):
        return None
    pdbfw_root = roots["pdbfw"][0]
    phases = pdbfw_phases(tracer.self_times(pdbfw_root))
    out = {"pdbfw.traced_solve_s": tracer.duration(pdbfw_root)}
    out.update({f"pdbfw.{phase}_s": v for phase, v in phases.items()})
    totals = Counter()
    for solver in wl.solvers:
        totals.update(tracer.self_times(roots[solver][0]))
    out.update({metric: sum(totals[span] for span in spans)
                for metric, spans in FUNCTION_TIMES.items()})
    out.update({metric: tracer.counts[key] for metric, key in COUNTS.items()})
    out["core_linalg.bytes_computed"] = BYTES_PER_NNZ * sum(
        out[metric] for metric in COUNTS if metric.endswith("_nnz"))
    out["tracing.spans"] = len(tracer)
    return {"metrics": out, "self_times": dict(totals)}


def _number(value, unit: str):
    return int(value) if unit in ("count", "bytes") else float(value)


def measure(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result record (see run.py)."""
    inputs = generate_inputs(wl, seed)
    kernel = ReferenceKernel()
    setup_tracer = Tracer() if traced else None
    try:
        problem, setup_times, setup_scaled, setup_roots = _setups(
            wl, inputs, kernel, setup_tracer)
    except Exception as exc:
        raise HarnessError(f"set-up failed: {exc!r}") from exc
    problems = check_load(problem, inputs)
    ledger = Ledger(problem, seed)
    for solver in wl.solvers:  # warm-up; also the reference results
        ledger.call(solver)

    samples = {solver: [] for solver in wl.solvers}
    scaled = {solver: [] for solver in wl.solvers}
    to_gap = []
    traced_scaled = []
    rounds = []

    def timed_round():
        for solver in wl.solvers:
            got = ledger.call(solver)
            factor = kernel.factor()
            if got is not None:
                samples[solver].append(got[0])
                scaled[solver].append(got[0] * factor)
                if solver == "pdbfw":
                    to_gap.append(first_time_to_gap(got[1], 1e-4) * factor)

    def traced_round():
        timed_round()
        tracer = Tracer()
        with install(tracer):
            for solver in wl.solvers:
                got = ledger.call(solver, tracer)
                factor = kernel.factor()
                if got is not None and solver == "pdbfw":
                    traced_scaled.append(got[0] * factor)
        summary = _round_summary(tracer, wl)
        if summary is not None:
            rounds.append(summary)

    detail = {"setup_s": setup_times, "solve_s": samples,
              "kernel_s": kernel.times}
    if not traced:
        peak = _peak_mem_bytes(wl, inputs, ledger)
        kernel.start()
        _window(seconds, timed_round)
        typical = {s: _median(scaled[s], s) for s in wl.solvers}
        baselines = [s for s in wl.solvers if s != "pdbfw"] or ["pdbfw"]
        metrics = {
            "setup_s": _median(setup_scaled, "set-up"),
            "pdbfw_solve_s": typical["pdbfw"],
            "pdbfw_to_gap_1e-4_s": _median(to_gap, "time to gap 1e-4"),
            "baseline_solve_s": math.exp(
                statistics.fmean(math.log(typical[s]) for s in baselines)),
            "peak_mem_mb": peak / 1e6,
        }
    else:
        kernel.start()
        _window(seconds, traced_round)
        if not rounds:
            raise HarnessError("no traced round completed")
        fastest = {s: _fastest(samples[s], "untraced " + s)
                   for s in wl.solvers}
        rounds.sort(key=lambda r: r["metrics"]["pdbfw.traced_solve_s"])
        middle = rounds[(len(rounds) - 1) // 2]
        metrics = dict(middle["metrics"])
        setup_root = sorted(setup_roots, key=setup_tracer.duration)[
            (len(setup_roots) - 1) // 2]
        setup_self = setup_tracer.self_times(setup_root)
        for metric, span in (
                ("core_linalg.design_build_s", "core_linalg.design_build"),
                ("data_io.generate_s", "data_io.generate_synthetic"),
                ("data_io.parse_libsvm_s", "data_io.parse_libsvm")):
            metrics[metric] = setup_self.get(span, 0.0)
        metrics.update(_solver_figures(ledger, fastest))
        metrics["tracing.overhead_s"] = (
            _median(traced_scaled, "traced pdbfw")
            - _median(scaled["pdbfw"], "untraced pdbfw"))
        parts = metrics["pdbfw.self_s"] + sum(
            metrics[f"pdbfw.{phase}_s"] for phase in PHASES)
        if abs(parts - metrics["pdbfw.traced_solve_s"]) > 1e-6:
            problems.append(
                f"pdbfw phases sum to {parts!r}, traced solve took "
                f"{metrics['pdbfw.traced_solve_s']!r}")
        detail["traced_rounds"] = len(rounds)
        detail["self_times_median_round"] = middle["self_times"]

    units = PER_LAYER if traced else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise HarnessError(f"metrics not produced: {sorted(missing)}")
    problems.extend(ledger.messages)
    return {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": _number(metrics[name], unit),
                           "unit": unit}
                    for name, unit in units.items()},
        "problems": problems,
        "detail": detail,
    }
