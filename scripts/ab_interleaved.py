#!/usr/bin/env python3
"""Time two source trees' solvers in alternating calls from two live processes.

    python3 scripts/ab_interleaved.py --base ../parent --new . \\
        --workload trace_lowrank --seed 5 --pairs 60

One child process runs per tree, for the whole session: this script run as
`ab_interleaved.py serve TREE WORKLOAD SEED`, which reads solver names on
standard input and answers each with one JSON line. Each child imports
the tree's own `src/` and `perfbench/workloads.py` (which it only reads),
builds the workload's problem once from `--seed`, and then runs one checked
solver call per request: the call is timed, and its result must pass the
checks of `workloads.check_result`, against the child's first call of that
solver as perfbench does. After one untimed warm-up call per solver and
side, each pair runs every solver of the workload once on each side, back
to back; the side that goes first alternates from pair to pair. The summary
gives, per solver, each side's median seconds, the median of the pairs'
new/base ratios and the number of pairs the new side won (a tie counts for
neither). When the workload runs solvers other than pdbfw, two more lines
give each pair's geometric mean of their new/base ratios, the figure behind
perfbench's `baseline_solve_s`, with its median and the pairs the new side
won. The exit status is 1 when a call failed or a check did not hold.

Alternating calls between two processes that stay up shares every slow or
fast phase of a busy machine between both sides, where separate benchmark
runs each catch their own phase. The figures are raw seconds with one BLAS
thread (unless the caller set the thread variables), not perfbench's
reference-scaled ones, and they are no substitute for `scripts/ab_bench.py`,
which runs the benchmark itself.
"""

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "new")
# as perfbench/run.py: one BLAS thread unless the caller chose otherwise
BLAS_THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


def _reply(message: dict) -> None:
    print(json.dumps(message), flush=True)


def serve(tree: Path, workload: str, seed: int) -> int:
    """The child: build the problem, then answer one solver name per line
    of standard input with one JSON line of seconds and failures."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    # imported here, after the thread settings and the tree's paths
    import pdbfw
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = workloads.generate_inputs(wl, seed)
    problem = workloads.load(wl, inputs)
    _reply({"solvers": list(wl.solvers), "package": pdbfw.__file__,
            "failures": workloads.check_load(problem, inputs)})
    results = {}
    for line in sys.stdin:
        solver = line.strip()
        gc.collect()
        try:
            t0 = time.perf_counter()
            x, trace = workloads.run_solver(problem, solver, seed)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # a failing call is reported, not fatal
            _reply({"seconds": None, "failures": [f"{solver}: raised {exc!r}"]})
            continue
        partner = workloads.agreement_partner(wl, solver)
        failures = workloads.check_result(problem, solver, x, trace,
                                          reference=results.get(solver),
                                          partner=results.get(partner))
        results.setdefault(solver, (x, trace))
        _reply({"seconds": seconds, "failures": failures})
    return 0


class Child:
    """One tree's serving process."""

    def __init__(self, tree: Path, workload: str, seed: int):
        env = dict(os.environ)
        for var, value in BLAS_THREAD_DEFAULTS.items():
            env.setdefault(var, value)
        self.tree = tree
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "serve",
             str(tree), workload, str(seed)],
            cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.header = self._read()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"{self.tree}: the child process exited "
                             f"({self.process.wait()})")
        return json.loads(line)

    def call(self, solver: str) -> dict:
        self.process.stdin.write(solver + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.stdin:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def summarize(seconds: dict) -> list:
    """Summary lines for `seconds[side][solver]`, lists whose i-th entries
    ran as pair i; a pair with a failed call (None) is left out."""
    lines = [f"{'solver':10} {'base median s':>14} {'new median s':>14} "
             f"{'new/base':>9} {'new won':>8}"]
    for solver in seconds["base"]:
        timed = [(x, y) for x, y in zip(seconds["base"][solver],
                                        seconds["new"][solver])
                 if x is not None and y is not None]
        if not timed:
            lines.append(f"{solver:10} no pair without a failed call")
            continue
        base, new = zip(*timed)
        ratio = statistics.median(y / x for x, y in timed)
        wins = sum(y < x for x, y in zip(base, new))
        lines.append(f"{solver:10} {statistics.median(base):>14.6g} "
                     f"{statistics.median(new):>14.6g} {ratio:>9.4f} "
                     f"{wins:>4}/{len(base):<3}")
    return lines


def summarize_baselines(seconds: dict) -> list:
    """Lines for the pairs' geometric means, over the solvers other than
    pdbfw, of their new/base ratios: the figure behind perfbench's
    `baseline_solve_s`. No lines when pdbfw is the only solver; a pair with a
    failed call among those solvers is left out."""
    solvers = [s for s in seconds["base"] if s != "pdbfw"]
    if not solvers:
        return []
    ratios = []
    for pair in zip(*(zip(seconds["base"][s], seconds["new"][s])
                      for s in solvers)):
        if all(x is not None and y is not None for x, y in pair):
            ratios.append(math.exp(statistics.fmean(
                math.log(y / x) for x, y in pair)))
    name = f"geometric mean of {', '.join(solvers)}"
    if not ratios:
        return [f"{name}: no pair without a failed call"]
    wins = sum(r < 1.0 for r in ratios)
    return [f"{name}, new/base by pair: "
            + " ".join(f"{r:.4f}" for r in ratios),
            f"{name}: median {statistics.median(ratios):.4f}, new won "
            f"{wins}/{len(ratios)}"]


def run(children: dict, pairs: int) -> tuple:
    """Warm-up, then the alternating pairs; returns (seconds, failures),
    with None in place of the seconds of a call that failed."""
    solvers = children["base"].header["solvers"]
    failures = {side: list(children[side].header["failures"])
                for side in SIDES}
    seconds = {side: {solver: [] for solver in solvers} for side in SIDES}
    for side in SIDES:
        for solver in solvers:
            failures[side] += children[side].call(solver)["failures"]
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for solver in solvers:
            for side in order:
                reply = children[side].call(solver)
                failures[side] += reply["failures"]
                seconds[side][solver].append(
                    None if reply["failures"] else reply["seconds"])
    return seconds, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["serve"]:
        return serve(Path(argv[1]), argv[2], int(argv[3]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--new", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=60)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(known)}")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for tree in (args.base, args.new):
        if not (tree / "perfbench" / "workloads.py").is_file():
            parser.error(f"no perfbench/workloads.py under {tree}")
    children = {}
    try:
        for side in SIDES:
            children[side] = Child(getattr(args, side).resolve(),
                                   args.workload, args.seed)
        seconds, failures = run(children, args.pairs)
    finally:
        for child in children.values():
            child.close()
    print(f"## {args.workload}: seed {args.seed}, {args.pairs} pairs, "
          f"one call per solver and side in each")
    for side in SIDES:
        print(f"# {side}: {children[side].header['package']}")
    print("\n".join(summarize(seconds) + summarize_baselines(seconds)))
    for side in SIDES:
        print(f"{side}: {len(failures[side])} failures")
        for failure in failures[side]:
            print(f"# FAILED ({side}): {failure}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
