#!/usr/bin/env python3
"""Run the four l1-ball solvers on one synthetic sparse-regression instance
and print the time-to-accuracy comparison.

Any extra command line flags are forwarded to `pdbfw run`, so e.g.

    python scripts/run_l1_benchmark.py --n 2000 --d 5000 --noise 1.0

scales the instance up. Results land in results/l1 by default.
"""

import sys

from pdbfw.cli import build_parser, main

# radius is sized to the planted signal so the constraint binds; the primal
# rank budget s must cover the support of the constrained optimum (about 180
# coordinates here) or the greedy steps stall short of full accuracy
DEFAULTS = [
    "--synthetic", "sparse_regression",
    "--n", "500", "--d", "1000", "--sparsity", "10", "--noise", "1.0",
    "--seed", "0", "--radius", "5.2",
    "--s", "192", "--k", "250", "--delta", "1000.0",
    "--solvers", "pdbfw,fw,acc_pgd,svrg",
    "--max-iters", "300",
    "--output-dir", "results/l1",
]


def run() -> int:
    argv = ["run"] + DEFAULTS + sys.argv[1:]
    code = main(argv)
    if code != 0:
        return code
    return main(["compare", build_parser().parse_args(argv).output_dir])


if __name__ == "__main__":
    sys.exit(run())
