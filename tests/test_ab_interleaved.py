"""The interleaved A/B timer of scripts/ab_interleaved.py: its summary on
canned seconds, the order of its calls, and one short live session."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "ab_interleaved", ROOT / "scripts" / "ab_interleaved.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_interleaved = _load()


def test_summary_gives_medians_the_median_ratio_and_wins():
    seconds = {"base": {"pdbfw": [0.010, 0.012, 0.011, 0.013]},
               "new": {"pdbfw": [0.009, 0.013, 0.010, 0.012]}}
    header, line = ab_interleaved.summarize(seconds)
    assert header.split() == ["solver", "base", "median", "s", "new",
                              "median", "s", "new/base", "new", "won"]
    # ratios 0.9, 1.083, 0.909, 0.923: the median is (0.909 + 0.923) / 2
    assert line.split() == ["pdbfw", "0.0115", "0.011", "0.9161", "3/4"]


def test_summary_leaves_out_pairs_with_a_failed_call():
    seconds = {"base": {"a": [0.010, None, 0.011], "b": [None]},
               "new": {"a": [0.009, 0.001, None], "b": [0.5]}}
    _, a, b = ab_interleaved.summarize(seconds)
    assert a.split() == ["a", "0.01", "0.009", "0.9000", "1/1"]
    assert b.split()[1:] == ["no", "pair", "without", "a", "failed", "call"]


def test_baseline_summary_gives_each_pairs_geometric_mean_and_wins():
    seconds = {"base": {"pdbfw": [1.0, 1.0, 1.0], "a": [1.0, 1.0, 1.0],
                        "b": [2.0, 2.0, None]},
               "new": {"pdbfw": [9.0, 9.0, 9.0], "a": [0.5, 2.0, 0.5],
                       "b": [1.0, 4.0, 1.0]}}
    by_pair, total = ab_interleaved.summarize_baselines(seconds)
    # pdbfw is left out; pair 0: sqrt(0.5 * 0.5), pair 1: sqrt(2 * 2); pair
    # 2 has a failed call
    assert by_pair == "geometric mean of a, b, new/base by pair: 0.5000 2.0000"
    assert total == "geometric mean of a, b: median 1.2500, new won 1/2"
    seconds["new"]["a"][:2] = [None, None]
    assert ab_interleaved.summarize_baselines(seconds) == [
        "geometric mean of a, b: no pair without a failed call"]
    only_pdbfw = {"base": {"pdbfw": [1.0]}, "new": {"pdbfw": [0.5]}}
    assert ab_interleaved.summarize_baselines(only_pdbfw) == []


class _Fake:
    """A child that logs its calls and its closing; its `fail`-th call
    (counting from 1) fails its checks."""

    def __init__(self, side, log, fail=0):
        self.side, self.log, self.fail, self.calls = side, log, fail, 0
        self.header = {"solvers": ["a", "b"], "failures": []}

    def close(self):
        self.log.append((self.side, "closed"))

    def call(self, solver):
        self.calls += 1
        self.log.append((self.side, solver))
        wrong = [f"{solver}: wrong"] if self.calls == self.fail else []
        return {"seconds": 1.0 if self.side == "base" else 0.5,
                "failures": wrong}


def test_run_warms_up_then_alternates_the_first_side():
    log = []
    children = {"base": _Fake("base", log), "new": _Fake("new", log, fail=2)}
    seconds, failures = ab_interleaved.run(children.get, pairs=2)
    assert log == [("base", "a"), ("base", "b"), ("new", "a"), ("new", "b"),
                   ("base", "a"), ("new", "a"), ("base", "b"), ("new", "b"),
                   ("new", "a"), ("base", "a"), ("new", "b"), ("base", "b"),
                   ("base", "closed"), ("new", "closed")]
    # the warm-up calls are checked but not timed
    assert seconds == {"base": {"a": [1.0, 1.0], "b": [1.0, 1.0]},
                       "new": {"a": [0.5, 0.5], "b": [0.5, 0.5]}}
    assert failures == {"base": [], "new": ["b: wrong"]}


def test_run_times_no_call_that_failed():
    children = {"base": _Fake("base", []), "new": _Fake("new", [], fail=4)}
    seconds, failures = ab_interleaved.run(children.get, pairs=1)
    assert seconds == {"base": {"a": [1.0], "b": [1.0]},
                       "new": {"a": [0.5], "b": [None]}}
    assert failures == {"base": [], "new": ["b: wrong"]}


def test_run_restarts_and_rewarms_both_children_every_block(monkeypatch):
    monkeypatch.setattr(ab_interleaved, "RESTART_EVERY", 2)
    log, spawned = [], []

    def spawn(side):
        spawned.append(side)
        return _Fake(side, log)

    seconds, failures = ab_interleaved.run(spawn, pairs=5)
    # blocks of pairs 0-1, 2-3 and 4, each with fresh children
    assert spawned == ["base", "new"] * 3
    assert log.count(("base", "closed")) == log.count(("new", "closed")) == 3
    # per block: one warm-up call per solver and side, then 2 calls per pair
    assert len(log) == 3 * (4 + 2) + 5 * 4
    first_pair = [("base", "a"), ("new", "a"), ("base", "b"), ("new", "b")]
    assert log[4:8] == first_pair
    # the block of pairs 2-3 warms up afresh; pair 2 starts with base again
    third = log.index(("new", "closed")) + 1
    assert log[third:third + 4] == [("base", "a"), ("base", "b"),
                                    ("new", "a"), ("new", "b")]
    assert log[third + 4:third + 8] == first_pair
    assert seconds == {"base": {"a": [1.0] * 5, "b": [1.0] * 5},
                       "new": {"a": [0.5] * 5, "b": [0.5] * 5}}
    assert failures == {"base": [], "new": []}


def test_a_live_session_times_both_trees(capsys):
    code = ab_interleaved.main(["--base", str(ROOT), "--new", str(ROOT),
                                "--workload", "trace_lowrank", "--seed", "3",
                                "--pairs", "2"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0].startswith("## trace_lowrank: seed 3, 2 pairs")
    package = str(ROOT / "src" / "pdbfw" / "__init__.py")
    assert lines[1:3] == [f"# base: {package}", f"# new: {package}"]
    row = lines[4].split()
    assert row[0] == "pdbfw" and row[-1].endswith("/2")
    assert lines[5:] == ["base: 0 failures", "new: 0 failures"]


@pytest.mark.parametrize("args, fragment", [
    (["--workload", "no_such"], "unknown workload 'no_such'"),
    (["--workload", "l1_dense", "--pairs", "0"], "--pairs must be at least 1"),
])
def test_main_rejects_bad_arguments(capsys, args, fragment):
    with pytest.raises(SystemExit) as exc:
        ab_interleaved.main(["--base", str(ROOT), "--new", str(ROOT),
                             "--seed", "3", *args])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err
