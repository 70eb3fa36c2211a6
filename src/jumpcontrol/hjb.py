"""Primal HJB solver via the exponential-rescaling fixed-point iteration.

The dynamic programming equation

    -dv/dt(t, x) = max_a [ sum_y (v(t, y) - v(t, x)) lambda(x, a, y) + f(t, x, a) ],
    v(T, x) = g(x),

is solved by iterating, on the rescaled unknown vt(t, x) = exp(-L t) v(t, x)
with L the uniform rate bound,

    vt <- exp(-L T) g + Gamma[vt],
    Gamma[vt](t, x) = int_t^T max_a gamma[vt](s, x, a) ds,
    gamma[vt](s, x, a) = sum_y vt(s, y) lambda(x, a, y)
                       + (L - lambda(x, a, E)) vt(s, x) + exp(-L s) f(s, x, a).

The rescaling makes the vt(s, x) coefficient nonnegative and the map a
contraction in sup norm, so the iteration converges from any start. The
time integral is composite trapezoid on the solver grid. A first-order
explicit marching solver provides an independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear import ValueGrid
from .model import Problem, cost_layer, rate_bound
from .simulate import FeedbackPolicy


class NonconvergenceError(RuntimeError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"Picard iteration did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
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


def _action_values(p: Problem, v, cost) -> np.ndarray:
    """Generator plus running cost, q[..., x, a], for layers v[..., x].

    Built in place, so that all nodes at once cost one extra (k, x, a) array.
    """
    q = np.einsum("xay,...y->...xa", p.rates, v)
    q -= p.row_sums * v[..., None]
    q += cost
    return q


def hamiltonian(p: Problem, t: float, v_layer) -> tuple[np.ndarray, np.ndarray]:
    """Per-state max over actions of (generator + running cost) at time t.

    Returns (values, argmax); ties break to the lowest action index, which
    is what np.argmax delivers on exact ties.
    """
    q = _action_values(p, np.asarray(v_layer, dtype=float), cost_layer(p, t))
    am = q.argmax(axis=1)
    return q[np.arange(p.n_states), am], am


def solve_hjb_picard(
    p: Problem,
    n_steps: int = 2000,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> HJBSolution:
    """Fixed-point solve of the HJB equation on the uniform grid.

    Convergence is declared when the sup-norm update of the rescaled
    iterate drops below tol; the reported residual is scaled back to the
    original unknown. Raises NonconvergenceError past max_iter, and when the
    solution is not finite because L T is too large for the rescaling.
    """
    T = p.horizon
    lam = rate_bound(p)
    dt = T / n_steps
    ts = np.linspace(0.0, T, n_steps + 1)
    scale_down = np.exp(-lam * ts)[:, None]
    cost = cost_layer(p, ts)  # (k, x, a)
    # gamma's cost term carries the same exp(-L s) factor as the unknown.
    f_scaled = cost * np.exp(-lam * ts)[:, None, None]
    slack = lam - p.row_sums  # (x, a), nonnegative by definition of lam
    g_term = math.exp(-lam * T) * p.terminal_cost

    vt = np.repeat(g_term[None, :], n_steps + 1, axis=0)
    residual = math.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        # Built in place: cost is held next to f_scaled for the argmax pass.
        gamma = np.einsum("ky,xay->kxa", vt, p.rates)
        gamma += slack[None, :, :] * vt[:, :, None]
        gamma += f_scaled
        m = gamma.max(axis=2)  # (k, x)
        # Composite trapezoid of m over [t_k, T], accumulated from the end.
        incr = 0.5 * dt * (m[1:] + m[:-1])
        big_gamma = np.zeros_like(m)
        big_gamma[:-1] = incr[::-1].cumsum(axis=0)[::-1]
        vt_new = g_term[None, :] + big_gamma
        update = np.abs(vt_new - vt).max()
        residual = float(np.abs((vt_new - vt) / scale_down).max())
        vt = vt_new
        if update < tol:
            converged = True
            break
    if not converged:
        raise NonconvergenceError(residual, iterations)

    del gamma, f_scaled  # the argmax pass needs neither; this keeps the peak down
    v = vt / scale_down
    if not np.all(np.isfinite(v)):
        # exp(-L t) underflows once L t passes about 745: no finite solution to return.
        raise NonconvergenceError(residual, iterations)
    argmax = _action_values(p, v, cost).argmax(axis=2)
    return HJBSolution(ValueGrid(v, T), argmax, iterations, residual)


def solve_hjb_marching(p: Problem, n_steps: int = 10_000) -> HJBSolution:
    """Backward explicit Euler reference: v[k] = v[k+1] + dt * H(t_k, v[k+1])."""
    T = p.horizon
    dt = T / n_steps
    ts = np.linspace(0.0, T, n_steps + 1)
    v = np.empty((n_steps + 1, p.n_states))
    argmax = np.empty((n_steps + 1, p.n_states), dtype=np.int64)
    v[n_steps] = p.terminal_cost
    _, argmax[n_steps] = hamiltonian(p, T, v[n_steps])
    for k in range(n_steps - 1, -1, -1):
        h, argmax[k] = hamiltonian(p, ts[k], v[k + 1])
        v[k] = v[k + 1] + dt * h
    return HJBSolution(ValueGrid(v, T), argmax, n_steps, 0.0)


def extract_feedback(sol: HJBSolution, epsilon: float = 0.0) -> FeedbackPolicy:
    """Per-node maximizing actions as a feedback law.

    On a finite action set the exact maximizer exists, so epsilon only
    labels the discretization-induced suboptimality budget epsilon*(T - t)
    carried by the grid policy; it does not affect the selection.
    """
    return FeedbackPolicy(sol.argmax, sol.values.horizon)
