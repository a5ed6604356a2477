#!/usr/bin/env python3
"""Time the pdbfw solvers to a certified duality gap on one workload.

    python3 perfbench/run.py --workload l1_dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/`. Inputs are
generated from `--seed`; every solver call is checked. With `--trace 0` the
run reports the end-to-end metrics, with `--trace 1` the per-layer metrics of
a traced run. Human-readable lines come first; the last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; `perfbench/compare.py` reads it from saved outputs. See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("l1_dense", "l1_sparse_hinge", "trace_lowrank")
# one BLAS thread unless the caller chose otherwise: the hot paths are Python
# loops and single-threaded scipy kernels, and on a shared machine a second
# BLAS thread adds more noise than speed
BLAS_THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_summary(name: str, record: dict) -> None:
    from harness import quartiles

    detail = record["detail"]
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    timings = {"setup": detail["setup_s"]}
    timings.update({f"{solver} solve": values
                    for solver, values in detail["solve_s"].items()})
    timings["reference kernel"] = detail["kernel_s"]
    for what, values in timings.items():
        if values:
            q1, q3 = quartiles(values)
            print(f"# {name} wall {what} min {min(values):.4f} s, "
                  f"median {statistics.median(values):.4f} s "
                  f"(n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f})")
    if "traced_rounds" in detail:
        print(f"# {name} self time per span in the median of "
              f"{detail['traced_rounds']} traced rounds:")
        spans = detail["self_times_median_round"]
        for span in sorted(spans, key=spans.get, reverse=True):
            print(f"#   {span} {spans[span]:.6f} s")
    for metric, entry in record["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0
    print(f"{name} solve_fail_ratio {ratio:.6g} "
          f"({record['failed']} of {record['attempted']} calls)")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pdbfw" / "__init__.py").is_file():
        print(f"error: no pdbfw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var, value in BLAS_THREAD_DEFAULTS.items():
        os.environ.setdefault(var, value)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    # imported here: numpy reads the thread settings when it is first loaded
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        record = harness.measure(workload, args.seed, args.seconds,
                                 traced=bool(args.trace))
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["machine"] = harness.machine_facts()
    _print_summary(args.workload, record)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
