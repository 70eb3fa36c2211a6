"""Primal HJB solver via the exponential-rescaling fixed-point iteration.

The dynamic programming equation

    -dv/dt(t, x) = max_a [ sum_y (v(t, y) - v(t, x)) lambda(x, a, y) + f(t, x, a) ],
    v(T, x) = g(x),

is solved backward over time blocks [t_k0, t_k1], the last first, each by
iterating on the rescaled unknown vt(t, x) = exp(-L (t - t_k0)) v(t, x),
with L the uniform rate bound and v(t_k1) from the block after it (g last),

    vt <- exp(-L (t_k1 - t_k0)) v(t_k1) + Gamma[vt],
    Gamma[vt](t, x) = int_t^t_k1 max_a gamma[vt](s, x, a) ds,
    gamma[vt](s, x, a) = sum_y vt(s, y) B(y, a, x) + exp(-L (s - t_k0)) f(s, x, a),
    B(y, a, x) = lambda(x, a, y) + [y = x] (L - lambda(x, a, E)).

The rescaling makes every entry of B nonnegative and the map a contraction
in sup norm, so the iteration converges from any start, about as
(L tau)^k / k! after k sweeps over a block of length tau: blocks of L tau
near 1 (_picard_blocks) keep the sweep count from growing with L T. Each
block stops on its own relative update test. One sweep over a block is a
single matrix product of the (nodes, states) iterate with B as a (states,
actions x states) matrix, then a max over actions and a cumulative sum of
cell integrals, in preallocated buffers. Each cell integrates the linear
interpolant of the unscaled maximum exactly against exp(-L s), not by the
trapezoid rule (an error like L^3 T dt^2); these weights depend only on
dt, so the blocks solve the discrete equations of one block over [0, T].
The brute-force oracle (oracle.oracle_value), a first-order explicit
scheme, is the independent cross-check.
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
    iterations: int  # the most sweeps of any time block
    residual: float  # the largest last update of any block, scaled back to v
    blocks: int


# A block spans about _BLOCK_L_TAU / L, and at least _MIN_BLOCK_CELLS cells
# so that its sweeps outweigh their per-call overhead. Measured against
# L tau of 0.25, 0.5 and 1.5 and floors of 64 and 128 (BENCH_19.json).
_BLOCK_L_TAU = 1.0
_MIN_BLOCK_CELLS = 256


def _picard_blocks(n_steps: int, x: float) -> list:
    """Nodes that bound the time blocks, 0 to n_steps: the fewest near-equal
    blocks of at most max(_MIN_BLOCK_CELLS, ceil(_BLOCK_L_TAU / x)) cells,
    x = L dt; one block when L T <= _BLOCK_L_TAU."""
    if x * n_steps <= _BLOCK_L_TAU:
        return [0, n_steps]
    n_blocks = -(-n_steps // max(_MIN_BLOCK_CELLS, math.ceil(_BLOCK_L_TAU / x)))
    return [i * n_steps // n_blocks for i in range(n_blocks + 1)]


def solve_hjb_picard(
    p: Problem,
    n_steps: int = 2000,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> HJBSolution:
    """Fixed-point solve of the HJB equation on the uniform grid.

    A block has converged when the sup-norm update of its rescaled iterate
    is at most tol times the sup norm of the new iterate. `iterations` is the
    most sweeps of any block, `residual` the largest last update of any
    block, scaled back to v. Raises ValueError for a tol not below 1, which
    any sweep passes, or a max_iter below 1; NonconvergenceError when a
    block passes max_iter, and when the solution cannot be finite.
    """
    if not tol < 1.0:  # NaN and inf too: a relative update below 1 holds after any sweep
        raise ValueError(f"tol must be finite and below 1, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    T = p.horizon
    nS, nA, nK = p.n_states, p.n_actions, n_steps + 1
    lam = rate_bound(p)
    # Refused although blocks would not underflow: a coarse grid then returns a wrong finite value.
    if math.exp(-lam * T) == 0.0:
        raise NonconvergenceError(math.inf, 0, f"no finite solution: exp(-L t) underflows to 0 at L*T = {lam * T:g}")
    dt = T / n_steps
    ts = np.linspace(0.0, T, nK)
    # The rate matrix with the slack folded in, rows y and columns (a, x):
    # B[y, a, x] = lambda(x, a, y) + [y = x] (L - lambda(x, a, E)).
    rates_slack = p.rates.transpose(2, 1, 0).copy()
    diag = np.arange(nS)
    rates_slack[diag, :, diag] += lam - p.row_sums
    rates_slack = rates_slack.reshape(nS, nA * nS)
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

    edges = _picard_blocks(n_steps, x)
    rows = max(b - a for a, b in zip(edges, edges[1:])) + 1
    gamma_buf = np.empty((rows, nA * nS))
    m_buf, vt_buf, new_buf = np.empty((3, rows, nS))
    v = np.empty((nK, nS))
    argmax = np.empty((nK, nS), dtype=np.intp)
    v_end = p.terminal_cost  # v at the end of the block being solved
    iterations, residual = 0, 0.0
    for k0, k1 in reversed(list(zip(edges, edges[1:]))):
        n = k1 - k0 + 1
        gamma, m = gamma_buf[:n], m_buf[:n]
        gamma3 = gamma.reshape(n, nA, nS)
        tb = ts[k0 : k1 + 1]
        scale_down = np.exp(-lam * (tb - tb[0]))[:, None]
        # gamma's cost term carries the unknown's exp(-L s) factor, in gamma's (k, a, x) layout.
        f_scaled = (cost_layer(p, tb).transpose(0, 2, 1) * scale_down[:, :, None]).reshape(n, nA * nS)
        g_term = math.exp(-lam * (tb[-1] - tb[0])) * v_end
        vt, vt_new = vt_buf[:n], new_buf[:n]
        vt[...] = g_term
        vt_new[-1] = g_term  # the terminal layer is never overwritten
        for sweeps in range(1, max_iter + 1):
            np.matmul(vt, rates_slack, out=gamma)
            gamma += f_scaled
            # Max over actions a slice at a time: np.max over the middle axis costs several times more.
            m[...] = gamma3[:, 0]
            for a in range(1, nA):
                np.maximum(m, gamma3[:, a], out=m)
            # Integral of the maximum over [t_k, t_k1] from the end; m is free to scale, as the update overwrites it.
            head = vt_new[:-1]
            np.multiply(m[1:], w1, out=head)
            m[:-1] *= w0
            head += m[:-1]
            np.cumsum(head[::-1], axis=0, out=head[::-1])
            head += g_term
            np.subtract(vt_new, vt, out=m)
            np.abs(m, out=m)  # m now holds the update
            vt, vt_new = vt_new, vt
            if m.max() <= tol * max(vt.max(), -vt.min()):  # relative: vt can be as small as exp(-L tau) v(t_k1)
                break
        else:
            raise NonconvergenceError(float((m / scale_down).max()), sweeps)
        iterations, residual = max(iterations, sweeps), max(residual, float((m / scale_down).max()))
        # One more sweep: gamma = exp(-L (s - t_k0)) (generator + running cost + L v), so its argmax
        # over actions is the feedback. Node k1 belongs to the block after this one, except at T.
        own = n if k1 == n_steps else n - 1
        np.matmul(vt[:own], rates_slack, out=gamma[:own])
        gamma[:own] += f_scaled[:own]
        argmax[k0 : k0 + own] = gamma3[:own].argmax(axis=1)
        np.divide(vt[:own], scale_down[:own], out=v[k0 : k0 + own])
        v_end = v[k0]
    v[-1] = p.terminal_cost  # not its round trip through the rescaling
    if not np.all(np.isfinite(v)):  # costs or rates so large that v overflows
        raise NonconvergenceError(residual, iterations)
    return HJBSolution(ValueGrid(v, T), argmax, iterations, residual, len(edges) - 1)


def extract_feedback(sol: HJBSolution) -> FeedbackPolicy:
    """Per-node maximizing actions as a feedback law."""
    return FeedbackPolicy(sol.argmax, sol.values.horizon)
