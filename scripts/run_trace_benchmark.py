#!/usr/bin/env python3
"""Run the trace-norm solver on one synthetic matrix-sensing instance.

Extra flags are forwarded to `pdbfw run`; results land in results/trace.
"""

import sys

from pdbfw.cli import build_parser, main

# k is widened past its default of 24; with it the solver certifies a 1e-8
# gap on this instance in under 30 iterations
DEFAULTS = [
    "--synthetic", "trace_sensing",
    "--n", "100", "--d", "80", "--c", "60", "--sparsity", "5",
    "--seed", "0", "--radius", "30.0", "--s", "8",
    "--k", "50",
    "--max-iters", "300",
    "--output-dir", "results/trace",
]


def run() -> int:
    argv = ["run"] + DEFAULTS + sys.argv[1:]
    code = main(argv)
    if code != 0:
        return code
    return main(["compare", build_parser().parse_args(argv).output_dir])


if __name__ == "__main__":
    sys.exit(run())
