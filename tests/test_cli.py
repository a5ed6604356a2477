"""Tests for the benchmark command line: exit codes, the pinned CSV header,
byte-identical reruns, the summary table, and the compare subcommand."""

import os
import subprocess
import sys

import pytest

import pdbfw
from pdbfw.cli import (CSV_HEADER, EXIT_OK, EXIT_SOLVER_FAILURE, EXIT_USAGE,
                       RunSpec, compare, main, run)


def _tiny_args(out_dir, **overrides):
    args = ["run", "--synthetic", "sparse_regression", "--n", "30",
            "--d", "12", "--sparsity", "2", "--noise", "0.3",
            "--seed", "3", "--radius", "5.0", "--max-iters", "40",
            "--output-dir", out_dir]
    for flag, value in overrides.items():
        args += [flag, value]
    return args


def test_run_writes_trace_with_pinned_header(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out)) == EXIT_OK
    csv_path = os.path.join(out, "pdbfw.csv")
    with open(csv_path) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[0] == "0"
    assert first[5] == "0"  # no flops before the first step
    # stdout reports one line per solver
    assert "pdbfw: primal" in capsys.readouterr().out


def test_run_writes_summary_tsv(tmp_path):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out, **{"--solvers": "pdbfw,fw"})) == EXIT_OK
    with open(os.path.join(out, "summary.tsv")) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "solver\tfinal_primal\tfinal_gap\titerations\twall_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("pdbfw\t")
    assert lines[2].startswith("fw\t")


def test_repeated_runs_are_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    solvers = "pdbfw,fw,acc_pgd,svrg"
    assert main(_tiny_args(out1, **{"--solvers": solvers})) == EXIT_OK
    assert main(_tiny_args(out2, **{"--solvers": solvers})) == EXIT_OK
    for solver in solvers.split(","):
        name = f"{solver}.csv"
        with open(os.path.join(out1, name), "rb") as h1, \
                open(os.path.join(out2, name), "rb") as h2:
            assert h1.read() == h2.read(), name


def test_trace_constraint_run(tmp_path):
    out = str(tmp_path / "res")
    code = main(["run", "--synthetic", "trace_sensing", "--constraint",
                 "trace", "--n", "30", "--d", "10", "--c", "8",
                 "--sparsity", "2", "--radius", "8.0", "--s", "4",
                 "--max-iters", "30", "--output-dir", out])
    assert code == EXIT_OK
    with open(os.path.join(out, "pdbfw.csv")) as handle:
        assert handle.readline().strip() == CSV_HEADER


def test_trace_reruns_byte_identical(tmp_path):
    args = lambda out: ["run", "--synthetic", "trace_sensing", "--constraint",
                        "trace", "--n", "25", "--d", "8", "--c", "6",
                        "--sparsity", "2", "--radius", "6.0", "--s", "3",
                        "--max-iters", "20", "--output-dir", out]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args(out1)) == EXIT_OK
    assert main(args(out2)) == EXIT_OK
    with open(os.path.join(out1, "pdbfw.csv"), "rb") as h1, \
            open(os.path.join(out2, "pdbfw.csv"), "rb") as h2:
        assert h1.read() == h2.read()


# ---------------------------------------------------------------------------
# Usage errors -> exit 2


def test_unknown_solver_lists_valid_ones(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(_tiny_args(out, **{"--solvers": "pdbfw,newton"}))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "newton" in err
    assert "pdbfw, fw, acc_pgd, svrg" in err


def test_dataset_and_synthetic_conflict(tmp_path, capsys):
    code = run(RunSpec(dataset_path="x.txt", synthetic="sparse_regression",
                       output_dir=str(tmp_path)))
    assert code == EXIT_USAGE
    assert "exactly one" in capsys.readouterr().err
    # neither source is a usage error too
    assert run(RunSpec(output_dir=str(tmp_path))) == EXIT_USAGE


def test_trace_constraint_flag_combinations(tmp_path, capsys):
    base = dict(synthetic="trace_sensing", output_dir=str(tmp_path))
    # trace_sensing without trace constraint
    assert run(RunSpec(constraint="l1", **base)) == EXIT_USAGE
    # trace constraint with a baseline solver
    assert run(RunSpec(constraint="trace", solvers=["pdbfw", "fw"],
                       **base)) == EXIT_USAGE
    # trace constraint with hinge loss
    assert run(RunSpec(constraint="trace", loss="smooth_hinge",
                       **base)) == EXIT_USAGE
    # trace constraint with a file dataset
    assert run(RunSpec(constraint="trace", dataset_path="x.txt",
                       output_dir=str(tmp_path))) == EXIT_USAGE


def test_missing_dataset_file(tmp_path, capsys):
    code = run(RunSpec(dataset_path=str(tmp_path / "absent.txt"),
                       output_dir=str(tmp_path)))
    assert code == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_malformed_dataset_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:1\n+1 0:2\n")
    code = run(RunSpec(dataset_path=str(path), output_dir=str(tmp_path / "o")))
    assert code == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_bad_solver_parameters_exit_usage(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out, **{"--radius": "-1.0"})) == EXIT_USAGE
    assert "radius" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Dataset-file runs


def test_run_from_dataset_file_with_hinge(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:0.9 2:0.1\n-1 1:-0.4 3:0.8\n+1 2:1.0\n-1 3:-1.0\n")
    out = str(tmp_path / "res")
    code = main(["run", "--dataset", str(path), "--loss", "smooth_hinge",
                 "--radius", "2.0", "--mu", "0.5", "--max-iters", "50",
                 "--solvers", "pdbfw,acc_pgd", "--output-dir", out])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "pdbfw.csv"))
    assert os.path.exists(os.path.join(out, "acc_pgd.csv"))


def test_no_normalize_flag_changes_matrix(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("1.0 1:3 2:4\n-1.0 1:1\n")
    out_norm = str(tmp_path / "n")
    out_raw = str(tmp_path / "r")
    base = ["run", "--dataset", str(path), "--radius", "2.0", "--mu", "0.5",
            "--max-iters", "10"]
    assert main(base + ["--output-dir", out_norm]) == EXIT_OK
    assert main(base + ["--no-normalize", "--output-dir", out_raw]) == EXIT_OK
    with open(os.path.join(out_norm, "pdbfw.csv")) as h1, \
            open(os.path.join(out_raw, "pdbfw.csv")) as h2:
        assert h1.read() != h2.read()


# ---------------------------------------------------------------------------
# compare


def test_compare_tabulates_thresholds(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out, **{"--solvers": "pdbfw,fw",
                                   "--max-iters": "60"})) == EXIT_OK
    assert main(["compare", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "best final primal:" in text
    assert "sec_to_1e-02" in text
    assert "pdbfw" in text and "fw" in text


def test_compare_marks_unreached_thresholds(tmp_path, capsys):
    out = str(tmp_path / "res")
    os.makedirs(out)
    # hand-written traces: "good" reaches the best primal, "bad" stays far
    with open(os.path.join(out, "good.csv"), "w") as handle:
        handle.write(CSV_HEADER + "\n0,0.0,1.0,0.0,1.0,0,0\n"
                     "1,0.5,0.5,0.4,0.1,500000000,1\n")
    with open(os.path.join(out, "bad.csv"), "w") as handle:
        handle.write(CSV_HEADER + "\n0,0.0,1.0,0.0,1.0,0,0\n"
                     "1,0.5,0.9,0.4,0.5,500000000,1\n")
    assert compare(out) == EXIT_OK
    text = capsys.readouterr().out
    bad_line = next(line for line in text.splitlines()
                    if line.startswith("bad"))
    assert "—" in bad_line  # never reached 1e-4 or 1e-6
    good_line = next(line for line in text.splitlines()
                     if line.startswith("good"))
    assert "—" not in good_line


def test_compare_thresholds_are_relative_to_best_primal(tmp_path, capsys):
    # p_star = 24: the 1e-2 threshold allows primal - p_star <= 0.24, so
    # 24.2 at t=0 already reaches it; 24.001 is within 1e-4 but not 1e-6
    out = str(tmp_path / "res")
    os.makedirs(out)
    with open(os.path.join(out, "pdbfw.csv"), "w") as handle:
        handle.write(CSV_HEADER + "\n0,0.0,24.2,0.0,24.2,0,0\n"
                     "1,0.5,24.001,23.9,0.101,500000000,1\n"
                     "2,1.0,24.0,24.0,0.0,1000000000,1\n")
    assert compare(out) == EXIT_OK
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("pdbfw"))
    assert line.split()[1:4] == ["0.000000", "0.500000", "1.000000"]


def test_compare_missing_directory(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "absent")]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_compare_empty_directory(tmp_path, capsys):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    assert compare(out) == EXIT_USAGE
    assert "no trace CSVs" in capsys.readouterr().err


def test_compare_rejects_foreign_header(tmp_path, capsys):
    out = str(tmp_path / "res")
    os.makedirs(out)
    with open(os.path.join(out, "x.csv"), "w") as handle:
        handle.write("time,value\n0,1\n")
    assert compare(out) == EXIT_USAGE
    assert "unexpected header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Process-level entry point


def run_module(*args):
    """`python -m pdbfw.cli args` importing the same package as the tests,
    also from a checkout where it is not installed."""
    src = os.path.dirname(os.path.dirname(pdbfw.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "pdbfw.cli", *args],
                          capture_output=True, text=True, env=env)


def test_module_entry_point_runs_in_subprocess(tmp_path):
    out = str(tmp_path / "res")
    result = run_module(
        "run", "--synthetic", "sparse_regression", "--n", "20", "--d", "8",
        "--sparsity", "2", "--radius", "3.0", "--max-iters", "15",
        "--output-dir", out)
    assert result.returncode == EXIT_OK, result.stderr
    assert os.path.exists(os.path.join(out, "pdbfw.csv"))


def test_module_entry_point_usage_error_code():
    result = run_module("run", "--synthetic", "sparse_regression",
                        "--solvers", "bogus")
    assert result.returncode == EXIT_USAGE
    assert "bogus" in result.stderr
