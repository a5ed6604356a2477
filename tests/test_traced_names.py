"""The benchmark's tracer (perfbench/tracing.py) rebinds module-level names
of the solver modules and relies on the solvers looking them up at call
time. A solver that bound one of them once, at import time, would still run
and pass every other test, but its spans would silently drop out of the
per-layer metrics. This test wraps each such name in a counter, runs every
solver and checks that each wrapper was called."""

import sys
from collections import Counter
from pathlib import Path

from pdbfw import baselines, pdbfw_l1, pdbfw_trace
from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import PortableRng
from pdbfw.losses import MatrixQuadraticLoss, Regularizer, quadratic_loss

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402  (perfbench/ is not a package)

SOLVER_MODULES = (pdbfw_l1, pdbfw_trace, baselines)


def test_every_traced_solver_name_is_looked_up_at_call_time(monkeypatch):
    names = [(owner, attr) for owner, attr, _, _ in tracing._FUNCTIONS
             if owner in SOLVER_MODULES]
    assert {owner for owner, _ in names} == set(SOLVER_MODULES)
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, attr in names:
        monkeypatch.setattr(owner, attr,
                            counting((owner, attr), getattr(owner, attr)))

    rng = PortableRng(7)
    n, d, c = 10, 6, 3
    A = SparseDesignMatrix(rng.normals(n * d).reshape(n, d))
    loss = quadratic_loss(rng.normals(n))
    reg = Regularizer(mu=0.5)
    cfg = pdbfw_l1.SolverConfig(radius=1.0, s=2, max_iters=3, gap_tol=-1.0)
    pdbfw_l1.solve(A, loss, reg, cfg)
    B = rng.normals(n * c).reshape(n, c)
    pdbfw_trace.solve_trace(A, MatrixQuadraticLoss(B=B), reg, cfg)
    for kind in baselines.BASELINE_KINDS:
        bcfg = baselines.BaselineConfig(kind=kind, radius=1.0, max_iters=3,
                                        gap_tol=1e-300)
        baselines.solve_baseline(A, loss, reg, bcfg)

    missed = [f"{owner.__name__}.{attr}" for owner, attr in names
              if calls[owner, attr] == 0]
    assert not missed, f"never called through the module global: {missed}"
