"""Reference Picard sweep: one einsum over the rate tensor per sweep.

Each sweep builds gamma[k, x, a] from an einsum over lambda(x, a, y), adds
the slack term (L - lambda(x, a, E)) vt(s, x) and the scaled running cost
as separate temporaries, and recomputes the scaled residual. The math and
the stopping rule are those of jumpcontrol.hjb.solve_hjb_picard, which
folds the slack into one rate matrix and does a single matrix product per
sweep; the tests compare the two. Both march the same time blocks
(hjb._picard_blocks), each its own fixed point with its own stopping test.
Its argmax pass builds the action values q[k, x, a] from v itself
(_action_values), where the solver takes the argmax of one more sweep of
the rescaled iterate.
"""
from __future__ import annotations

import math

import numpy as np

from jumpcontrol.hjb import HJBSolution, NonconvergenceError, _picard_blocks
from jumpcontrol.linear import ValueGrid
from jumpcontrol.model import Problem, cost_layer, rate_bound


def _action_values(p: Problem, v, cost) -> np.ndarray:
    """Generator plus running cost, q[..., x, a], for layers v[..., x]."""
    q = np.einsum("xay,...y->...xa", p.rates, v)
    q -= p.row_sums * v[..., None]
    q += cost
    return q


def solve_hjb_picard(
    p: Problem,
    n_steps: int = 2000,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> HJBSolution:
    T = p.horizon
    lam = rate_bound(p)
    dt = T / n_steps
    ts = np.linspace(0.0, T, n_steps + 1)
    cost = cost_layer(p, ts)  # (k, x, a)
    slack = lam - p.row_sums  # (x, a)
    # Exact integral of exp(-lam s) times the linear interpolant of the
    # unscaled maximum over each cell, in terms of the scaled nodes m.
    x = lam * dt
    if x < 1e-4:
        w0, w1 = dt * (0.5 - x / 6 + x * x / 24), dt * (0.5 + x / 6 + x * x / 24)
    else:
        w0, w1 = (x + math.expm1(-x)) / (lam * x), (math.expm1(x) - x) / (lam * x)

    # The time blocks of the solver, solved last to first; each is rescaled
    # from its own first node and ends at the value the later block found.
    edges = _picard_blocks(n_steps, x)
    v = np.empty((n_steps + 1, p.n_states))
    v[-1] = p.terminal_cost
    iterations, residual = 0, 0.0
    for k0, k1 in reversed(list(zip(edges, edges[1:]))):
        scale_down = np.exp(-lam * (ts[k0 : k1 + 1] - ts[k0]))[:, None]
        f_scaled = cost[k0 : k1 + 1] * scale_down[:, :, None]
        g_term = math.exp(-lam * (ts[k1] - ts[k0])) * v[k1]
        vt = np.repeat(g_term[None, :], k1 - k0 + 1, axis=0)
        converged = False
        for sweeps in range(1, max_iter + 1):
            gamma = np.einsum("ky,xay->kxa", vt, p.rates)
            gamma += slack[None, :, :] * vt[:, :, None]
            gamma += f_scaled
            m = gamma.max(axis=2)  # (k, x)
            # Integral of m over [t_k, t_k1], accumulated from the end.
            incr = w0 * m[:-1] + w1 * m[1:]
            big_gamma = np.zeros_like(m)
            big_gamma[:-1] = incr[::-1].cumsum(axis=0)[::-1]
            vt_new = g_term[None, :] + big_gamma
            update = np.abs(vt_new - vt).max()
            block_residual = float(np.abs((vt_new - vt) / scale_down).max())
            vt = vt_new
            if update <= tol * np.abs(vt).max():
                converged = True
                break
        if not converged:
            raise NonconvergenceError(block_residual, sweeps)
        iterations, residual = max(iterations, sweeps), max(residual, block_residual)
        v[k0:k1] = (vt / scale_down)[:-1]

    if not np.all(np.isfinite(v)):
        raise NonconvergenceError(residual, iterations)
    argmax = _action_values(p, v, cost).argmax(axis=2)
    return HJBSolution(ValueGrid(v, T), argmax, iterations, residual, len(edges) - 1)
