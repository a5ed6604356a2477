#!/usr/bin/env python3
"""Run the benchmark of two source trees in alternating pairs and summarize.

    python3 scripts/ab_bench.py --base ../parent --new . \\
        --workload l1_dense,trace_lowrank --seed 5 --pairs 10 --seconds 30 \\
        --trace 0

`--workload` names one workload or a comma-separated list of them; the
workloads run one after another, all pairs of one before the next. Each
pair runs `perfbench/run.py` once in each tree, with the same arguments;
the side that runs first alternates from pair to pair. Every standard output
is saved under results/ab/. After a workload's last pair, one summary block
headed by the workload's name follows. For each metric it gives each side's
median and quartiles and the number of pairs the new side won (a tie counts
for neither side). A gain holds when both rules hold: the new side won at
least nine tenths of the pairs, and its median is better than the base's by
more than the distance between the base's quartiles. An end-to-end metric is
also checked against the bound BENCHMARK.json gives it; when the base's
quartile spread, relative to its median, is wider than that bound, the metric
reads "unresolved" in place of a verdict, unless every new run beat every
base run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(text: str) -> dict:
    """The result object a run prints on its last line."""
    return json.loads(text.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """As perfbench's harness.quartiles, which needs the program to import."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _cell(median, q1, q3) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(base: list, new: list, spec: dict) -> list:
    """Summary lines for paired result objects; base[i] and new[i] ran as
    pair i."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = [n for n in declared if all(n in r["metrics"] for r in base + new)]
    lines = [f"{'metric':40} {'base median [q1, q3]':>30} "
             f"{'new median [q1, q3]':>30} {'new won':>7}  verdict"]
    for name in names:
        meta = declared[name]
        sign = 1.0 if meta["better"] == "lower" else -1.0
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, n))
        b_med, n_med = statistics.median(b), statistics.median(n)
        b_q1, b_q3 = quartiles(b)
        n_q1, n_q3 = quartiles(n)
        most = 10 * wins >= 9 * len(b)
        clear = sign * (b_med - n_med) > b_q3 - b_q1
        verdict = (f"wins {'hold' if most else 'fail'}, "
                   f"spread {'holds' if clear else 'fails'}: "
                   f"{'gain' if most and clear else 'no gain'}")
        if "bound" in meta and b_med:
            change = sign * (n_med - b_med) / abs(b_med)
            spread = (b_q3 - b_q1) / abs(b_med)
            beat_all = max(sign * v for v in n) < min(sign * v for v in b)
            if spread > meta["bound"] and not beat_all:
                verdict = (f"unresolved: base spread {spread:.3g} wider "
                           f"than bound {meta['bound']}")
            elif change > meta["bound"]:
                verdict += f"; WORSE than bound {meta['bound']}"
        lines.append(f"{name + ' (' + meta['unit'] + ')':40} "
                     f"{_cell(b_med, b_q1, b_q3):>30} "
                     f"{_cell(n_med, n_q1, n_q3):>30} "
                     f"{wins:>4}/{len(b):<2}  {verdict}")
    for side, records in (("base", base), ("new", new)):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        wrong = sum(not r["correct"] for r in records)
        lines.append(f"{side}: {failed} of {attempted} solver calls failed, "
                     f"{wrong} of {len(records)} runs not correct")
    return lines


def run_once(tree: Path, workload: str, args, out: Path) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out.write_text(done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return last_json(done.stdout)


def run_pairs(workload: str, args, outdir: Path) -> dict:
    """The alternating pairs of one workload; each side's result objects."""
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    results = {"base": [], "new": []}
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        for side in order:
            out = outdir / f"{stem}-pair{pair:02d}-{side}.txt"
            results[side].append(
                run_once(getattr(args, side), workload, args, out))
        print(f"# {workload}: pair {pair + 1} of {args.pairs} done "
              f"({order[0]} first)", flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--new", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        help="a workload or a comma-separated list of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for tree in (args.base, args.new):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",")
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(known)}")
    if len(set(workloads)) != len(workloads):
        parser.error(f"workload named twice in {args.workload!r}")
    outdir = ROOT / "results" / "ab"
    outdir.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        results = run_pairs(workload, args, outdir)
        print(f"## {workload}: seed {args.seed}, {args.pairs} pairs, "
              f"--seconds {args.seconds:g}, --trace {args.trace}")
        print("\n".join(summarize(results["base"], results["new"], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
