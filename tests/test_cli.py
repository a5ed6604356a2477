"""Tests for the benchmark command line: exit codes, the pinned CSV header,
byte-identical reruns, the summary table, the compare subcommand, and the
two benchmark scripts."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import pdbfw
from pdbfw import cli, pdbfw_l1, pdbfw_trace
from pdbfw.cli import (CSV_HEADER, EXIT_OK, EXIT_SOLVER_FAILURE, EXIT_USAGE,
                        compare, main)
from pdbfw.metrics import DivergenceError
from pdbfw.pdbfw_trace import ApproximationError

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


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
    code = main(["run", "--synthetic", "trace_sensing",
                 "--n", "30", "--d", "10", "--c", "8",
                 "--sparsity", "2", "--radius", "8.0", "--s", "4",
                 "--max-iters", "30", "--output-dir", out])
    assert code == EXIT_OK
    with open(os.path.join(out, "pdbfw.csv")) as handle:
        assert handle.readline().strip() == CSV_HEADER


def test_trace_reruns_byte_identical(tmp_path):
    args = lambda out: ["run", "--synthetic", "trace_sensing",
                        "--n", "25", "--d", "8", "--c", "6",
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


@pytest.mark.parametrize("solvers, fragment", [
    (",", "names no solver"),
    ("pdbfw,pdbfw", "names a solver twice: pdbfw,pdbfw"),
], ids=["empty", "repeated"])
def test_solver_list_must_name_each_solver_once(tmp_path, capsys, solvers,
                                                fragment):
    # an empty list would write a header-only summary; a repeated name
    # would solve twice and write its CSV and summary row twice
    out = tmp_path / "res"
    assert main(_tiny_args(str(out), **{"--solvers": solvers})) == EXIT_USAGE
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_dataset_and_synthetic_conflict(tmp_path, capsys):
    out = ["--output-dir", str(tmp_path)]
    code = main(["run", "--dataset", "x.txt", "--synthetic",
                 "sparse_regression", *out])
    assert code == EXIT_USAGE
    assert "exactly one" in capsys.readouterr().err
    # neither source is a usage error too
    assert main(["run", *out]) == EXIT_USAGE


def test_matrix_targets_pick_the_trace_ball(tmp_path, capsys):
    # trace_sensing's n x c targets select the trace-norm ball, which only
    # pdbfw solves; its targets are real-valued, which the smooth hinge refuses
    out = tmp_path / "res"
    base = ["run", "--synthetic", "trace_sensing", "--output-dir", str(out)]
    assert main(base + ["--solvers", "pdbfw,fw"]) == EXIT_USAGE
    assert "only the pdbfw solver supports; got fw" in capsys.readouterr().err
    assert main(base + ["--loss", "smooth_hinge"]) == EXIT_USAGE
    assert "smooth hinge labels must be in {-1, +1}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_constraint_flag_is_gone(tmp_path, capsys):
    # argparse rejects the flag the targets made redundant
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--synthetic", "trace_sensing", "--constraint", "trace",
              "--output-dir", str(tmp_path / "res")])
    assert exit_info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --constraint trace" in \
        capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "--constraint" not in capsys.readouterr().out


def test_eta_flag_is_gone(tmp_path, capsys):
    # argparse rejects the step-size flag; the primal step is fixed
    with pytest.raises(SystemExit) as exit_info:
        main(_tiny_args(str(tmp_path / "res"), **{"--eta": "0.5"}))
    assert exit_info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --eta 0.5" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "--eta" not in capsys.readouterr().out


@pytest.mark.parametrize("target", ["taken", os.path.join("taken", "sub")],
                         ids=["existing_file", "under_a_file"])
def test_unwritable_output_dir_exits_usage(tmp_path, capsys, target):
    # the solves succeed, then the output directory cannot be made
    (tmp_path / "taken").write_text("kept\n")
    out = str(tmp_path / target)
    assert main(_tiny_args(out)) == EXIT_USAGE
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_blocked_csv_name_leaves_no_output(tmp_path, capsys):
    # the CSV's name is taken by a directory, so its rename fails after
    # every file is written; no temporary or summary.tsv may remain
    out = tmp_path / "res"
    (out / "pdbfw.csv").mkdir(parents=True)
    code = main(["run", "--synthetic", "sparse_regression", "--n", "20",
                 "--d", "10", "--output-dir", str(out)])
    assert code == EXIT_USAGE
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert os.listdir(out) == ["pdbfw.csv"]
    assert os.listdir(out / "pdbfw.csv") == []


def test_second_csv_failing_leaves_no_first_csv(tmp_path, capsys):
    # the second solver's CSV cannot take its name after the first CSV has
    # taken its own; the first one is removed again
    out = tmp_path / "res"
    (out / "fw.csv").mkdir(parents=True)
    assert main(_tiny_args(str(out), **{"--solvers": "pdbfw,fw"})) == EXIT_USAGE
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert os.listdir(out) == ["fw.csv"]


def test_failed_write_removes_the_directory_it_made(tmp_path, monkeypatch,
                                                    capsys):
    # the second of two CSV writes fails: the first CSV's temporary and the
    # directory this run created are removed
    real_open, opened = open, []

    def failing_open(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 2:
            raise OSError(28, "No space left on device")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "res"
    assert main(_tiny_args(str(out), **{"--solvers": "pdbfw,fw"})) == EXIT_USAGE
    assert "No space left on device" in capsys.readouterr().err
    assert [os.path.basename(p) for p in opened] == [
        f".pdbfw.csv.{os.getpid()}.tmp", f".fw.csv.{os.getpid()}.tmp"]
    assert not out.exists()


def test_missing_dataset_file(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path / "absent.txt"),
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_malformed_dataset_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:1\n+1 0:2\n")
    code = main(["run", "--dataset", str(path),
                 "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_malformed_late_line_of_a_large_dataset_exits_usage(tmp_path):
    # 1000 lines of eleven tokens span several parse batches; the bad value
    # on line 950 is in a late one
    pairs = " ".join(f"{j}:0.{j}" for j in range(1, 11))
    lines = [f"{'+1' if i % 3 else '-1'} {pairs}\n" for i in range(1000)]
    lines[949] = "-1 1:0.5 2:oops\n"
    path = tmp_path / "large.txt"
    path.write_text("".join(lines))
    result = run_module("run", "--dataset", str(path),
                        "--output-dir", str(tmp_path / "o"))
    assert result.returncode == EXIT_USAGE
    assert "line 950: bad index:value pair '2:oops'" in result.stderr
    assert not (tmp_path / "o").exists()


def test_bad_solver_parameters_exit_usage(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out, **{"--radius": "-1.0"})) == EXIT_USAGE
    assert "radius" in capsys.readouterr().err


def _raise(error):
    def fail(*args, **kwargs):
        raise error
    return fail


@pytest.mark.parametrize("argv, patch, code, fragment", [
    (["--synthetic", "sparse_regression", "--n", "30", "--d", "12",
      "--sparsity", "2", "--s", "50", "--solvers", "fw,pdbfw"],
     None, EXIT_USAGE, "s=50 exceeds feature dimension 12"),
    (["--synthetic", "trace_sensing", "--n", "30", "--d", "12", "--c", "8",
      "--sparsity", "2", "--s", "50"],
     None, EXIT_USAGE, "s=50 exceeds min(d, c)=8"),
    (["--synthetic", "sparse_regression", "--n", "50", "--d", "40",
      "--radius", "1", "--delta", "inf"],
     None, EXIT_USAGE, "delta must be positive and finite, got inf"),
    (["--synthetic", "sparse_regression", "--n", "30", "--d", "12",
      "--sparsity", "2", "--mu", "inf"],
     None, EXIT_USAGE, "mu must be positive and finite, got inf"),
    (["--synthetic", "sparse_regression", "--n", "30", "--d", "12",
      "--sparsity", "2", "--radius", "inf", "--solvers", "fw"],
     None, EXIT_USAGE, "radius must be positive and finite, got inf"),
    (["--synthetic", "sparse_regression", "--n", "30", "--d", "12",
      "--sparsity", "2", "--radius", "1e-300", "--solvers", "svrg,pdbfw"],
     None, EXIT_USAGE, "radius 1e-300 is below the rounding"),
    (["--synthetic", "trace_sensing", "--n", "30", "--d", "12", "--c", "8",
      "--sparsity", "2", "--s", "4"],
     (pdbfw_trace, "approx_lowrank_prox", ApproximationError(1e-3, 100)),
     EXIT_SOLVER_FAILURE, "solver pdbfw failed: low-rank prox"),
    # LinAlgError subclasses ValueError but is a solver failure
    (["--synthetic", "trace_sensing", "--n", "30", "--d", "12", "--c", "8",
      "--sparsity", "2", "--s", "4"],
     (pdbfw_trace, "approx_lowrank_prox",
      np.linalg.LinAlgError("LAPACK dgesdd failed (info=-4)")),
     EXIT_SOLVER_FAILURE, "solver pdbfw failed: LAPACK dgesdd failed"),
    (["--synthetic", "sparse_regression", "--n", "30", "--d", "12",
      "--sparsity", "2", "--solvers", "fw,pdbfw"],
     (pdbfw_l1, "primal_step", DivergenceError(3)),
     EXIT_SOLVER_FAILURE, "solver pdbfw failed: solver diverged at iteration 3"),
], ids=["l1", "trace", "delta_inf", "mu_inf", "radius_inf",
        "radius_underflow", "approximation", "linalg", "divergence"])
def test_setting_one_solver_rejects_writes_nothing(tmp_path, capsys,
                                                   monkeypatch, argv, patch,
                                                   code, fragment):
    # a run that fails, whether on a setting, inside a solve or in a later
    # solver after an earlier one returned, must leave no output directory.
    # An infinite delta would make every dual prox NaN, so y would never move
    if patch is not None:
        module, name, error = patch
        monkeypatch.setattr(module, name, _raise(error))
    out = tmp_path / "res"
    assert main(["run", *argv, "--output-dir", str(out)]) == code
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, solvers, fragment", [
    ("--gap-tol", "pdbfw", "gap_tol"),
    ("--gap-tol", "acc_pgd", "gap_tol"),
    ("--mu", "pdbfw", "mu must be positive"),
    ("--noise", "pdbfw", "noise level must be >= 0"),
])
def test_nan_solver_parameters_exit_usage(tmp_path, capsys, flag, solvers,
                                          fragment):
    out = str(tmp_path / "res")
    code = main(_tiny_args(out, **{flag: "nan", "--solvers": solvers}))
    assert code == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_infinite_noise_exits_usage(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(_tiny_args(out, **{"--noise": "inf"})) == EXIT_USAGE
    assert "noise level must be >= 0 and finite" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# Dataset-file runs


def test_negative_forced_width_exits_usage(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:0.9 2:0.1\n-1 1:-0.4 3:0.8\n")
    out = str(tmp_path / "res")
    assert main(["run", "--dataset", str(path), "--n-cols", "-1",
                 "--radius", "2.0", "--output-dir", out]) == EXIT_USAGE
    assert "n_cols must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("row", ["0,x,1.0,0.0,1.0,0,0", "0.5,0.0,1.0,0.0,1.0,0,0",
                                 "0,0.0,1.0,0.0,1.0,0"])
def test_compare_rejects_malformed_row(tmp_path, capsys, row):
    out = str(tmp_path / "res")
    os.makedirs(out)
    path = os.path.join(out, "x.csv")
    with open(path, "w") as handle:
        handle.write(CSV_HEADER + "\n" + row + "\n")
    assert compare(out) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and repr(row) in err


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


# ---------------------------------------------------------------------------
# Benchmark scripts under scripts/


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, shrink", [
    ("run_l1_benchmark", ["--n", "30", "--d", "12", "--s", "6", "--k", "10",
                          "--solvers", "pdbfw,fw", "--max-iters", "5"]),
    ("run_trace_benchmark", ["--n", "20", "--d", "8", "--c", "6",
                             "--sparsity", "2", "--s", "3", "--k", "10",
                             "--max-iters", "5"]),
], ids=["l1", "trace"])
@pytest.mark.parametrize("dir_flag", ["--output-dir=%s", "--output %s"],
                         ids=["equals", "abbreviated"])
def test_benchmark_scripts_compare_their_output_dir(tmp_path, monkeypatch, capsys,
                                                 name, shrink, dir_flag):
    # run from an empty directory, so the default results/ does not exist
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "elsewhere")
    monkeypatch.setattr(sys, "argv",
                        [name] + shrink + (dir_flag % out).split(" "))
    assert _load_script(name).run() == EXIT_OK
    assert "best final primal:" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "pdbfw.csv"))
    assert not os.path.exists(tmp_path / "results")
