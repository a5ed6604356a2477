"""Test oracles for the trace-norm solver's low-rank prox: the dense-SVD
route to the same prox, and an audit of every prox call a run makes."""

from typing import NamedTuple

import numpy as np

from pdbfw import pdbfw_trace
from pdbfw.pdbfw_l1 import ETA
from pdbfw.core_linalg import project_l1_ball


def exact_lowrank_prox_dense(M, radius, s):
    """Keep the top-s singular triplets of M from a full SVD and project the
    kept singular values onto the l1 ball."""
    u, sv, vt = np.linalg.svd(M, full_matrices=False)
    s_eff = min(s, sv.size)
    projected = project_l1_ball(sv[:s_eff], radius)
    return (u[:, :s_eff] * projected) @ vt[:s_eff]


def _subproblem_value(G, X, V, l_eta):
    diff = V - X
    return float(np.vdot(G, diff)) + 0.5 * l_eta * float(np.vdot(diff, diff))


class ProxAudit(NamedTuple):
    """One primal prox call: the subproblem value <G, V - X> +
    (L ETA / 2)||V - X||^2 at the computed V, and at the dense-SVD one."""

    value: float
    exact: float

    def satisfied(self, gamma: float, eps: float) -> bool:
        return self.value <= (1.0 - gamma) * self.exact + eps


def audit_prox_calls(monkeypatch) -> list:
    """Wrap `pdbfw_trace.primal_step_trace` so every call appends a
    ProxAudit to the returned list; `solve_trace` looks the step up at each
    call, so the wrapper also sees every call of a solve. The prox's start
    block is passed through."""
    audits = []
    step = pdbfw_trace.primal_step_trace

    def audited(state, cfg, A, reg, *start):
        l_eta = reg.mu * ETA
        G = state.z / A.n_rows + reg.grad(state.x)
        X = state.x.copy()
        V_star = exact_lowrank_prox_dense(X - G / l_eta, cfg.radius, cfg.s)
        factor = step(state, cfg, A, reg, *start)
        audits.append(ProxAudit(
            _subproblem_value(G, X, factor.to_dense(), l_eta),
            _subproblem_value(G, X, V_star, l_eta)))
        return factor

    monkeypatch.setattr(pdbfw_trace, "primal_step_trace", audited)
    return audits
