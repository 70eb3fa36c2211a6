"""Reference penalized march: the X generator as an einsum over the rate
tensor, and an RK4 step that allocates its stages.

Each stage evaluates the cancelled derivative

    -(L_X^a v + f(s) + n sum_b [v(x, b) - v(x, a)]^+ lambda0[b])

on a (levels, n_states, n_actions) state, with f from cost_layer at the
stage time. The math, the sub-step rule and the terminal layer are those of
jumpcontrol.penalized._march_levels, which holds the state flat, applies
L_X^a as one matrix and marches with preallocated stage buffers; the tests
compare the two. penalty_layer and penalty_term are the full coupling of
the uncancelled equation, against which the cancellation is tested.
"""
from __future__ import annotations

import math

import numpy as np

from jumpcontrol.model import Problem, cost_layer, pair_rate_bound

_STABILITY = 0.5


def rk4_march(v_terminal, n_steps, T, deriv, n_sub):
    """March dv/ds = deriv(s, v) backward from T to 0 on the uniform grid."""
    dt = T / n_steps
    out = np.empty((n_steps + 1, *np.shape(v_terminal)))
    out[n_steps] = v_terminal
    h = dt / n_sub
    for k in range(n_steps - 1, -1, -1):
        v = out[k + 1]
        s = (k + 1) * dt
        for _ in range(n_sub):
            k1 = deriv(s, v)
            k2 = deriv(s - 0.5 * h, v - 0.5 * h * k1)
            k3 = deriv(s - 0.5 * h, v - 0.5 * h * k2)
            k4 = deriv(s - h, v - h * k3)
            v = v - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s -= h
        out[k] = v
    return out


def pair_x_generator(p: Problem):
    """v -> sum_y (v(y, a) - v(x, a)) lambda(x, a, y) for v of shape
    (..., n_states, n_actions)."""
    rates, rows = p.rates, p.row_sums

    def apply(v):
        return np.einsum("xay,...ya->...xa", rates, v) - rows * v

    return apply


def march_levels(p: Problem, levels, n_steps: int):
    """v^n for every level on one grid: (N+1, levels, n_states, n_actions),
    and the common sub-step count."""
    lam0 = p.lambda0
    dt = p.horizon / n_steps
    lipschitz = pair_rate_bound(p) + (max(levels, default=0) + 1) * float(lam0.sum())
    n_sub = max(1, math.ceil(dt * lipschitz / _STABILITY))
    n_col = np.asarray(levels, dtype=float)[:, None, None]
    x_gen = pair_x_generator(p)
    g = np.broadcast_to(p.terminal_cost[:, None], (len(levels), p.n_states, p.n_actions))

    def deriv(s, v):
        psi = v[..., None, :] - v[..., :, None]  # psi[l, x, a, b] = v[l, x, b] - v[l, x, a]
        return -(x_gen(v) + cost_layer(p, s) + n_col * (np.maximum(psi, 0.0) @ lam0))

    return rk4_march(g, n_steps, p.horizon, deriv, n_sub), n_sub


def penalty_layer(v_layer: np.ndarray, lam0: np.ndarray, n: int) -> np.ndarray:
    """Penalty term for a whole layer v[x, a]; returns an (x, a) array."""
    v = np.asarray(v_layer, dtype=float)
    psi = v[:, None, :] - v[:, :, None]  # psi[x, a, b] = v[x, b] - v[x, a]
    return np.einsum("xab,b->xa", n * np.maximum(psi, 0.0) - psi, lam0)


def penalty_term(v_layer, x: int, a: int, lam0, n: int) -> float:
    """sum_b { n [v(x,b) - v(x,a)]^+ - (v(x,b) - v(x,a)) } lambda0[b]."""
    v = np.asarray(v_layer, dtype=float)
    psi = v[x, :] - v[x, a]
    return float(np.dot(n * np.maximum(psi, 0.0) - psi, np.asarray(lam0, dtype=float)))
