"""Harness tests: metric names, a tiny-size smoke run of every workload,
per-seed determinism of the inputs, and the never-densify guard.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads
from pdbfw import SparseDesignMatrix, pdbfw_l1

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# small instances of the same shape as each workload
TINY = {
    "l1_dense": dict(n=80, d=160, truth=5, radius=2.0, s=60, k=40),
    "l1_sparse_hinge": dict(n=120, d=400, truth=10, radius=3.0, s=100,
                            k=60, row_nnz=8),
    "trace_lowrank": dict(n=40, d=20, c=15, truth=3, radius=8.0, s=6, k=20),
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


def test_benchmark_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_benchmark_spec_matches_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, traced):
    wl = tiny(name)
    record = harness.measure(wl, seed=1, seconds=0.05, traced=traced)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= len(wl.solvers) + 1
    units = harness.PER_LAYER if traced else harness.END_TO_END
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units
    values = {k: v["value"] for k, v in record["metrics"].items()}
    if not traced:
        assert all(v > 0 for v in values.values())
        return
    parts = values["pdbfw.self_s"] + sum(
        values[f"pdbfw.{phase}_s"] for phase in tracing.PHASES)
    assert parts == pytest.approx(values["pdbfw.traced_solve_s"], abs=1e-6)
    for solver, prefix in harness.SOLVER_PREFIXES.items():
        ran = solver in wl.solvers
        assert (values[f"{prefix}.iterations"] > 0) == ran
        assert (values[f"{prefix}.wall_per_virtual"] > 0) == ran
    l1_kernels = ("core_linalg.row_transpose_s", "core_linalg.col_product_s",
                  "core_linalg.row_transpose_nnz",
                  "core_linalg.col_product_nnz")
    trace_kernels = ("core_linalg.row_submatrix_t_dot_s",
                     "core_linalg.row_submatrix_nnz",
                     "pdbfw_trace.lowrank_prox_s",
                     "pdbfw_trace.lowrank_prox_calls")
    on, off = ((trace_kernels, l1_kernels) if wl.constraint == "trace"
               else (l1_kernels, trace_kernels))
    assert all(values[k] > 0 for k in on)
    assert all(values[k] == 0 for k in off)
    reader = ("data_io.parse_libsvm_s" if wl.source == "libsvm_text"
              else "data_io.generate_s")
    assert values[reader] > 0 and values["core_linalg.design_build_s"] > 0


def _arrays(wl, seed):
    inputs = workloads.generate_inputs(wl, seed)
    problem = workloads.load(wl, inputs)
    csr = problem.matrix._csr
    targets = getattr(problem.loss, "targets", getattr(problem.loss, "B", None))
    return [csr.indptr, csr.indices, csr.data, targets]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed(name):
    wl = tiny(name)
    first, again, other = _arrays(wl, 3), _arrays(wl, 3), _arrays(wl, 4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_sparse_workload_never_densifies():
    wl = workloads.WORKLOADS["l1_sparse_hinge"]
    with workloads.forbid_densify():
        inputs = workloads.generate_inputs(wl, 5)
        problem = workloads.load(wl, inputs)
    assert workloads.check_load(problem, inputs) == []
    assert problem.matrix.nnz == wl.n * wl.row_nnz
    with workloads.forbid_densify(), pytest.raises(workloads.DensifyError):
        problem.matrix.to_dense()
    assert problem.matrix.to_dense().shape == (wl.n, wl.d)


def test_install_restores_every_binding():
    before = (pdbfw_l1.apply_row_slice_transpose, SparseDesignMatrix.matvec)
    with tracing.install(tracing.Tracer()):
        assert pdbfw_l1.apply_row_slice_transpose is not before[0]
    assert (pdbfw_l1.apply_row_slice_transpose,
            SparseDesignMatrix.matvec) == before


def test_every_wrapped_name_has_a_pdbfw_phase():
    names = {name for _, _, name, _ in tracing._FUNCTIONS + tracing._METHODS}
    assert names - set(tracing.PDBFW_PHASES) == {
        "core_linalg.design_build", "data_io.generate_synthetic",
        "data_io.parse_libsvm"}
    assert set(tracing.PDBFW_PHASES.values()) == set(tracing.PHASES)


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
    parts = tracer.self_times(root)
    assert set(parts) == {"root", "a", "b"}
    assert sum(parts.values()) == pytest.approx(tracer.duration(root),
                                                abs=1e-12)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_lowrank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
