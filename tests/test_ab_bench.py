"""The paired A/B summary of scripts/ab_bench.py, on canned result lines."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load():
    spec = importlib.util.spec_from_file_location(
        "ab_bench", ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = _load()


def stdout(solve, baseline, failed=0):
    """A run's standard output: readable lines, then the result object."""
    metrics = {"setup_s": 0.03, "pdbfw_solve_s": solve,
               "pdbfw_to_gap_1e-4_s": solve / 2, "baseline_solve_s": baseline,
               "peak_mem_mb": 16.05}
    record = {"correct": failed == 0, "attempted": 40, "failed": failed,
              "metrics": {k: {"value": v, "unit": "MB" if k == "peak_mem_mb"
                              else "s"} for k, v in metrics.items()}}
    return (f"# machine: {{}}\nl1_dense pdbfw_solve_s {solve} s\n"
            f"{json.dumps(record)}\n")


def rows(lines):
    return {line.split()[0]: line for line in lines[1:]}


def test_summary_reports_a_clear_gain_and_a_regression():
    base = [ab_bench.last_json(stdout(0.0140 + 0.0001 * i, 0.048))
            for i in range(10)]
    new = [ab_bench.last_json(stdout(0.0100 + 0.0001 * i, 0.062))
           for i in range(10)]
    got = rows(ab_bench.summarize(base, new, SPEC))
    assert "10/10" in got["pdbfw_solve_s"]
    assert "wins hold, spread holds: gain" in got["pdbfw_solve_s"]
    # equal values tie: no pair won, no bound crossed
    assert " 0/10" in got["peak_mem_mb"]
    assert "no gain" in got["peak_mem_mb"]
    assert "WORSE" not in got["peak_mem_mb"]
    # +29% against a bound of 0.25
    assert "WORSE than bound 0.25" in got["baseline_solve_s"]
    assert got["base:"].startswith("base: 0 of 400 solver calls failed")


def test_summary_needs_nine_of_ten_wins_and_a_gap_past_the_spread():
    solves = [0.0140, 0.0150, 0.0130, 0.0160, 0.0120,
              0.0140, 0.0150, 0.0130, 0.0160, 0.0120]
    base = [ab_bench.last_json(stdout(s, 0.048)) for s in solves]
    # eight of ten pairs won, median far below the base's
    new = [ab_bench.last_json(stdout(s * (0.5 if i < 8 else 1.5), 0.048))
           for i, s in enumerate(solves)]
    line = rows(ab_bench.summarize(base, new, SPEC))["pdbfw_solve_s"]
    assert "8/10" in line and "wins fail, spread holds: no gain" in line
    # every pair won, by less than the base's quartile spread
    new = [ab_bench.last_json(stdout(s - 0.0001, 0.048)) for s in solves]
    line = rows(ab_bench.summarize(base, new, SPEC))["pdbfw_solve_s"]
    assert "10/10" in line and "wins hold, spread fails: no gain" in line


def test_summary_counts_failed_calls_and_incorrect_runs():
    base = [ab_bench.last_json(stdout(0.014, 0.048)) for _ in range(3)]
    new = [ab_bench.last_json(stdout(0.014, 0.048, failed=f))
           for f in (0, 2, 0)]
    got = rows(ab_bench.summarize(base, new, SPEC))
    assert got["new:"] == ("new: 2 of 120 solver calls failed, "
                           "1 of 3 runs not correct")


def _trees(tmp_path):
    """Two source trees that hold a perfbench/run.py."""
    for side in ("base", "new"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    return ["--base", str(tmp_path / "base"), "--new", str(tmp_path / "new")]


def test_main_runs_a_workload_list_one_workload_at_a_time(tmp_path, capsys,
                                                          monkeypatch):
    # each workload's pairs run before the next workload's, the first side
    # alternates per pair, and each workload gets its own summary block
    calls = []
    solves = {"trace_lowrank": (0.058, 0.049), "l1_dense": (0.0100, 0.0100)}

    def fake_run(tree, workload, args, out):
        side = tree.name
        calls.append((workload, side))
        return ab_bench.last_json(stdout(solves[workload][side == "new"],
                                         0.048))

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    assert ab_bench.main([*_trees(tmp_path), "--workload",
                          "trace_lowrank,l1_dense", "--seed", "29",
                          "--pairs", "3"]) == 0
    assert calls == [(w, side) for w in ("trace_lowrank", "l1_dense")
                     for side in ("base", "new", "new", "base", "base",
                                  "new")]
    out = capsys.readouterr().out
    blocks = out.split("## ")[1:]
    assert [b.split(":")[0] for b in blocks] == ["trace_lowrank", "l1_dense"]
    first, second = (rows([line for line in b.splitlines()[1:]
                           if not line.startswith("#")]) for b in blocks)
    assert "3/3" in first["pdbfw_solve_s"]
    assert " 0/3" in second["pdbfw_solve_s"]
    assert blocks[0].startswith("trace_lowrank: seed 29, 3 pairs")


@pytest.mark.parametrize("workloads, fragment", [
    ("l1_dense,no_such", "unknown workload 'no_such'"),
    ("l1_dense,l1_dense", "workload named twice"),
    ("l1_dense,", "unknown workload ''"),
])
def test_main_rejects_bad_workload_lists(tmp_path, capsys, monkeypatch,
                                         workloads, fragment):
    monkeypatch.setattr(ab_bench, "run_once", None)  # nothing may run
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([*_trees(tmp_path), "--workload", workloads,
                       "--seed", "29"])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_main_rejects_pair_counts_below_one(tmp_path, capsys, monkeypatch,
                                            pairs):
    monkeypatch.setattr(ab_bench, "run_once", None)  # nothing may run
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([*_trees(tmp_path), "--workload", "l1_dense",
                       "--seed", "29", "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_summary_leaves_a_metric_unresolved_when_the_base_spreads_past_its_bound():
    # the base's quartiles lie 0.3 of its median apart, past the bound 0.25
    solves = [0.0100, 0.0120, 0.0140, 0.0160, 0.0180,
              0.0100, 0.0120, 0.0140, 0.0160, 0.0180]
    base = [ab_bench.last_json(stdout(s, 0.048)) for s in solves]
    # 40% slower in the median, but the base cannot tell
    new = [ab_bench.last_json(stdout(s * 1.4, 0.048)) for s in solves]
    line = rows(ab_bench.summarize(base, new, SPEC))["pdbfw_solve_s"]
    assert "unresolved: base spread" in line and "bound 0.25" in line
    assert "gain" not in line and "WORSE" not in line
    # every new run beats every base run: the verdict stands
    new = [ab_bench.last_json(stdout(0.0090, 0.048)) for _ in solves]
    line = rows(ab_bench.summarize(base, new, SPEC))["pdbfw_solve_s"]
    assert "10/10" in line and "unresolved" not in line
    assert "wins hold, spread holds: gain" in line
    # one new run ties the best base run: unresolved again
    new[3] = ab_bench.last_json(stdout(0.0100, 0.048))
    line = rows(ab_bench.summarize(base, new, SPEC))["pdbfw_solve_s"]
    assert "unresolved" in line
