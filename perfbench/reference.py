"""Reference values computed without the program under test.

Each function takes a model document (the JSON schema the program reads)
and works from its raw arrays with numpy and scipy only. The equations are
written out here again on purpose: sharing code with `jumpcontrol` would
let one mistake pass both sides.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from models import arrays


def cost_at(f, T, s):
    """f(s) as an (x, a) table; piecewise-linear between uniform time nodes."""
    if f.ndim == 2:
        return f
    u = min(max(s / T, 0.0), 1.0) * (f.shape[0] - 1)
    k = min(int(u), f.shape[0] - 2)
    w = u - k
    return (1.0 - w) * f[k] + w * f[k + 1]


def _rk4_backward(rhs, v, s_end, length, steps):
    """Classical RK4 for -dv/ds = rhs(s, v), backward over [s_end - length, s_end]."""
    h = length / steps
    for i in range(steps):
        s = s_end - i * h
        k1 = rhs(s, v)
        k2 = rhs(s - 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(s - 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(s - h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def hjb_v0(doc, steps):
    """v(0, .) of -dv/dt = max_a [ sum_y lambda(x, a, y) (v(y) - v(x)) + f(t, x, a) ]."""
    rates, _, f, g, T = arrays(doc)
    out_rate = rates.sum(axis=2)

    def rhs(s, v):
        return (rates @ v - out_rate * v[:, None] + cost_at(f, T, s)).max(axis=1)

    return _rk4_backward(rhs, g.copy(), T, T, steps)


def hjb_reference(doc, steps=4000):
    """(v(0, .), error estimate): RK4 at 2*steps, error = change from steps."""
    coarse = hjb_v0(doc, steps)
    fine = hjb_v0(doc, 2 * steps)
    return fine, np.abs(fine - coarse)


def _substeps(rates, T, n_cells, per_step=0.02):
    return max(2, math.ceil(T / n_cells * rates.sum(axis=2).max() / per_step))


def policy_value(doc, table):
    """J(0, .) of the grid feedback law table[k][x], held on [t_k, t_{k+1})."""
    rates, _, f, g, T = arrays(doc)
    n_cells = table.shape[0] - 1
    n_sub = _substeps(rates, T, n_cells)
    idx = np.arange(rates.shape[0])
    v = g.copy()
    for k in range(n_cells - 1, -1, -1):
        acts = table[k]
        jump = rates[idx, acts]
        out_rate = jump.sum(axis=1)

        def rhs(s, v):
            return jump @ v - out_rate * v + cost_at(f, T, s)[idx, acts]

        v = _rk4_backward(rhs, v, (k + 1) * T / n_cells, T / n_cells, n_sub)
    return v


def terminal_law(doc, table, x0):
    """Law of X_T from X_0 = x0 under the grid feedback law (forward equation)."""
    rates, _, _, _, T = arrays(doc)
    n_cells = table.shape[0] - 1
    n_sub = _substeps(rates, T, n_cells)
    h = T / n_cells / n_sub
    idx = np.arange(rates.shape[0])
    p = np.zeros(rates.shape[0])
    p[x0] = 1.0
    for k in range(n_cells):
        jump = rates[idx, table[k]]
        out_rate = jump.sum(axis=1)
        for _ in range(n_sub):
            k1 = p @ jump - p * out_rate
            q = p + 0.5 * h * k1
            k2 = q @ jump - q * out_rate
            q = p + 0.5 * h * k2
            k3 = q @ jump - q * out_rate
            q = p + h * k3
            k4 = q @ jump - q * out_rate
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def pair_gain(doc, nu=1.0):
    """E[g(X_T) + int_0^T f(X, I) ds] from every (x, a) when I jumps to b at
    rate nu * lambda0[b]; nu = 1 is the reference pair law.

    Exact: the matrix exponential of the pair generator, augmented with one
    row and column that accumulates the running cost. f must be constant in time.
    """
    rates, lam0, f, g, T = arrays(doc)
    lam0 = nu * lam0
    if f.ndim != 2:
        raise ValueError("pair_gain needs a time-constant running cost")
    nS, nA = f.shape
    m = nS * nA
    gen = np.zeros((m + 1, m + 1))
    for x in range(nS):
        for a in range(nA):
            i = x * nA + a
            for y in range(nS):
                gen[i, y * nA + a] += rates[x, a, y]
            for b in range(nA):
                gen[i, x * nA + b] += lam0[b]
            gen[i, i] -= rates[x, a].sum() + lam0.sum()
            gen[i, m] = f[x, a]
    e = expm(gen * T)
    gain = e[:m, :m] @ np.repeat(g, nA) + e[:m, m]
    return gain.reshape(nS, nA)


def penalized_v0(doc, levels, steps):
    """v^n(0, ., .) for every level n of the penalized pair equation

        -dv/dt = sum_y lambda(x, a, y) (v(y, a) - v(x, a)) + f
                 + n sum_b [v(x, b) - v(x, a)]^+ lambda0[b],   v(T, x, a) = g(x),

    which is the program's penalized equation after its -psi coupling
    cancels the lambda0 part of the pair generator.
    """
    rates, lam0, f, g, T = arrays(doc)
    out_rate = rates.sum(axis=2)
    n = np.asarray(levels, dtype=float)[:, None, None]

    def rhs(s, v):
        move = np.einsum("xay,lya->lxa", rates, v) - out_rate * v
        psi = v[:, :, None, :] - v[:, :, :, None]  # [l, x, a, b] = v(x, b) - v(x, a)
        return move + cost_at(f, T, s) + n * (np.maximum(psi, 0.0) @ lam0)

    v = np.broadcast_to(g[None, :, None], (len(levels), g.size, rates.shape[1])).copy()
    return _rk4_backward(rhs, v, T, T, steps)


def penalized_reference(doc, levels, steps=4000):
    """(v^n(0, ., .) per level, error estimate) by step halving, as hjb_reference."""
    coarse = penalized_v0(doc, levels, steps)
    fine = penalized_v0(doc, levels, 2 * steps)
    return fine, np.abs(fine - coarse)
