#!/usr/bin/env python3
"""Compare benchmark results of two versions of the program.

    python3 perfbench/compare.py --base a1.txt a2.txt --new b1.txt b2.txt

Each file is a saved standard output of `run.py`; its last line is read.
Give one workload and one `--trace` setting per comparison, with one file
per seed on each side. For every metric the table shows each side's median,
the change of the new median against the base median, and, for end-to-end
metrics, whether the change is worse than the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_result(path: str) -> dict:
    return json.loads(Path(path).read_text().strip().splitlines()[-1])


def medians(paths) -> dict:
    values = {}
    for path in paths:
        record = read_result(path)
        if not record["correct"]:
            print(f"warning: {path} reports incorrect results", file=sys.stderr)
        for name, entry in record["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = medians(args.base), medians(args.new)
    worse = 0
    print(f"{'metric':36} {'unit':6} {'base':>12} {'new':>12} {'change':>8}")
    for name in sorted(base.keys() & new.keys()):
        meta = declared.get(name, {})
        b, n = base[name], new[name]
        change = (n - b) / abs(b) if b else float("nan")
        verdict = ""
        if "bound" in meta:
            sign = 1.0 if meta["better"] == "lower" else -1.0
            if sign * change > meta["bound"]:
                verdict = f"WORSE than bound {meta['bound']}"
                worse += 1
        print(f"{name:36} {meta.get('unit', ''):6} {b:12.6g} {n:12.6g} "
              f"{change:+8.1%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
