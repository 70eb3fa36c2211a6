"""Primal HJB solver via the exponential-rescaling fixed-point iteration.

The dynamic programming equation

    -dv/dt(t, x) = max_a [ sum_y (v(t, y) - v(t, x)) lambda(x, a, y) + f(t, x, a) ],
    v(T, x) = g(x),

is solved by iterating, on the rescaled unknown vt(t, x) = exp(-L t) v(t, x)
with L the uniform rate bound,

    vt <- exp(-L T) g + Gamma[vt],
    Gamma[vt](t, x) = int_t^T max_a gamma[vt](s, x, a) ds,
    gamma[vt](s, x, a) = sum_y vt(s, y) B(y, a, x) + exp(-L s) f(s, x, a),
    B(y, a, x) = lambda(x, a, y) + [y = x] (L - lambda(x, a, E)).

The rescaling makes every entry of B nonnegative and the map a contraction
in sup norm, so the iteration converges from any start. With the slack
folded into B, one sweep over all grid nodes is a single matrix product of
the (nodes, states) iterate with B as a (states, actions x states) matrix,
then a max over actions and a cumulative sum of cell integrals, all in
preallocated buffers. Each cell integrates the linear interpolant of the
unscaled maximum exactly against exp(-L s); the trapezoid rule would treat
exp(-L s) as linear, an error like L^3 T dt^2. The brute-force oracle
(oracle.oracle_value), a first-order explicit scheme, is the independent
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear import ValueGrid
from .model import Problem, cost_layer, rate_bound
from .simulate import FeedbackPolicy


class NonconvergenceError(RuntimeError):
    def __init__(self, residual, iterations, message=None):
        super().__init__(
            message or f"Picard iteration did not converge in {iterations} iterations (last residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class HJBSolution:
    """Solved value grid with the per-node maximizing action table."""

    values: ValueGrid
    argmax: np.ndarray
    iterations: int
    residual: float


def solve_hjb_picard(
    p: Problem,
    n_steps: int = 2000,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> HJBSolution:
    """Fixed-point solve of the HJB equation on the uniform grid.

    Convergence is declared when the sup-norm update of the rescaled
    iterate is at most tol times the sup norm of the new iterate; the
    reported residual is scaled back to the original unknown. Raises
    NonconvergenceError past max_iter, and when the solution is not finite
    because L T is too large for the rescaling.
    """
    T = p.horizon
    nS, nA, nK = p.n_states, p.n_actions, n_steps + 1
    lam = rate_bound(p)
    if math.exp(-lam * T) == 0.0:  # v(T) = (exp(-L T) g) / exp(-L T) would be 0/0
        raise NonconvergenceError(math.inf, 0, f"no finite solution: exp(-L t) underflows to 0 at L*T = {lam * T:g}")
    dt = T / n_steps
    ts = np.linspace(0.0, T, nK)
    scale_down = np.exp(-lam * ts)[:, None]
    # The rate matrix with the slack folded in, rows y and columns (a, x):
    # B[y, a, x] = lambda(x, a, y) + [y = x] (L - lambda(x, a, E)).
    rates_slack = p.rates.transpose(2, 1, 0).copy()
    diag = np.arange(nS)
    rates_slack[diag, :, diag] += lam - p.row_sums
    rates_slack = rates_slack.reshape(nS, nA * nS)
    # gamma's cost term carries the same exp(-L s) factor as the unknown;
    # stored in gamma's (k, a, x) layout.
    f_scaled = np.empty((nK, nA, nS))
    np.multiply(cost_layer(p, ts).transpose(0, 2, 1), scale_down[:, :, None], out=f_scaled)
    f_scaled = f_scaled.reshape(nK, nA * nS)
    g_term = math.exp(-lam * T) * p.terminal_cost
    # Over a cell, int exp(-L s) h(s) ds = w0 m_k + w1 m_{k+1} for h linear
    # and m = exp(-L t) h at the nodes; Taylor forms where the closed forms cancel.
    x = lam * dt
    if x < 1e-4:
        w0, w1 = dt * (0.5 - x / 6 + x * x / 24), dt * (0.5 + x / 6 + x * x / 24)
    else:
        try:
            w0, w1 = (x + math.expm1(-x)) / (lam * x), (math.expm1(x) - x) / (lam * x)
        except OverflowError:  # exp(L dt) past L dt = 709.78
            raise NonconvergenceError(math.inf, 0, f"exp(L dt) overflows the cell weights at L*dt = {x:g}") from None

    gamma = np.empty((nK, nA * nS))
    gamma3 = gamma.reshape(nK, nA, nS)
    m = np.empty((nK, nS))
    vt = np.repeat(g_term[None, :], nK, axis=0)
    vt_new = vt.copy()  # the terminal layer g_term is never overwritten
    converged = False
    for iterations in range(1, max_iter + 1):
        np.matmul(vt, rates_slack, out=gamma)
        gamma += f_scaled
        # Max over actions, one action slice at a time: np.max over the
        # short middle axis costs several times more.
        m[...] = gamma3[:, 0]
        for a in range(1, nA):
            np.maximum(m, gamma3[:, a], out=m)
        # Integral of the maximum over [t_k, T], accumulated from the end;
        # m is free to scale, as it is overwritten by the update below.
        head = vt_new[:-1]
        np.multiply(m[1:], w1, out=head)
        m[:-1] *= w0
        head += m[:-1]
        np.cumsum(head[::-1], axis=0, out=head[::-1])
        head += g_term
        np.subtract(vt_new, vt, out=m)
        np.abs(m, out=m)  # m now holds the update
        vt, vt_new = vt_new, vt
        if m.max() <= tol * max(vt.max(), -vt.min()):  # relative: vt can be as small as exp(-L T) g
            converged = True
            break
    residual = float((m / scale_down).max())
    if not converged:
        raise NonconvergenceError(residual, iterations)

    # One more sweep of the converged iterate: gamma = exp(-L s) (generator
    # + running cost + L v), so its argmax over actions is the feedback.
    np.matmul(vt, rates_slack, out=gamma)
    gamma += f_scaled
    del f_scaled, m, vt_new
    argmax = gamma3.argmax(axis=1)
    v = vt
    v /= scale_down
    if not np.all(np.isfinite(v)):
        # exp(-L t) underflows once L t passes about 745: no finite solution to return.
        raise NonconvergenceError(residual, iterations)
    return HJBSolution(ValueGrid(v, T), argmax, iterations, residual)


def extract_feedback(sol: HJBSolution) -> FeedbackPolicy:
    """Per-node maximizing actions as a feedback law."""
    return FeedbackPolicy(sol.argmax, sol.values.horizon)
