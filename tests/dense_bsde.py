"""Grid-dense reference for the BSDE path functionals.

Every grid node between t0 and T is a breakpoint, next to the jump times,
so each path costs O(grid). The integrals are exact for the interpolant of
v^n, the same as in jumpcontrol.bsde, which evaluates them from cumulative
tables in O(jumps); the tests compare the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from jumpcontrol.penalized import _positive_part_integral
from path_loops import running_cost_along_path


@dataclass(frozen=True)
class DenseSample:
    path: object
    breakpoints: np.ndarray
    seg_x: np.ndarray
    seg_a: np.ndarray
    y_values: np.ndarray
    k_values: np.ndarray
    jump_z: np.ndarray
    layers: np.ndarray  # v^n interpolated at breakpoints


def build_sample(p, vn, path) -> DenseSample:
    """Evaluate (Y, Z, K) from v^n along a pair path."""
    grid = vn.values
    T = path.horizon
    N = grid.n_steps
    nodes = np.linspace(0.0, T, N + 1)
    bp = np.unique(np.concatenate(([path.t0], nodes[(nodes > path.t0) & (nodes < T)], path.times, [T])))
    m = bp.size - 1

    # Interpolate v^n at every breakpoint: (m+1, nS, nA).
    u = np.clip(bp / T, 0.0, 1.0) * N
    k = np.minimum(u.astype(np.int64), N - 1)
    w = (u - k)[:, None, None]
    layers = (1.0 - w) * grid.values[k] + w * grid.values[k + 1]

    mids = 0.5 * (bp[:-1] + bp[1:])
    pos = np.searchsorted(path.times, mids, side="right") - 1
    seg_x = np.where(pos >= 0, path.x_marks[np.maximum(pos, 0)] if path.n_jumps else 0, path.x0)
    seg_a = np.where(pos >= 0, path.a_marks[np.maximum(pos, 0)] if path.n_jumps else 0, path.a0)
    seg_x = seg_x.astype(np.int64)
    seg_a = seg_a.astype(np.int64)

    idx = np.arange(m)
    # Y at breakpoints, cadlag (state after the breakpoint; at T the final state).
    state_x = np.concatenate((seg_x, [path.state_at(T)]))
    state_a = np.concatenate((seg_a, [path.action_at(T)]))
    y_values = layers[np.arange(m + 1), state_x, state_a]

    # K increments: psi_b linear on each segment in the segment's state.
    own0 = layers[idx, seg_x, seg_a]
    own1 = layers[idx + 1, seg_x, seg_a]
    psi0 = layers[:-1][idx, seg_x, :] - own0[:, None]
    psi1 = layers[1:][idx, seg_x, :] - own1[:, None]
    h = (bp[1:] - bp[:-1])[:, None]
    incr = vn.level * (_positive_part_integral(psi0, psi1, h) @ p.lambda0)
    k_values = np.concatenate(([0.0], np.cumsum(incr)))

    # Z at the realized jump marks.
    jump_z = np.empty(path.n_jumps)
    if path.n_jumps:
        jpos = np.searchsorted(bp, path.times)
        pre_x = np.concatenate(([path.x0], path.x_marks[:-1])).astype(np.int64)
        pre_a = np.concatenate(([path.a0], path.a_marks[:-1])).astype(np.int64)
        jump_z = layers[jpos, path.x_marks, path.a_marks] - layers[jpos, pre_x, pre_a]
    return DenseSample(path, bp, seg_x, seg_a, y_values, k_values, jump_z, layers)


def bsde_residual(p, sample: DenseSample) -> float:
    """Pathwise residual of the penalized backward identity; see
    jumpcontrol.bsde.bsde_residual."""
    path = sample.path
    bp = sample.breakpoints
    layers = sample.layers
    seg_x, seg_a = sample.seg_x, sample.seg_a
    idx = np.arange(seg_x.size)

    own0 = layers[idx, seg_x, seg_a]
    own1 = layers[idx + 1, seg_x, seg_a]
    h = bp[1:] - bp[:-1]

    # sum_y Z(y, I) lambda(X, I, y): linear on each segment, trapezoid exact.
    rate_rows = p.rates[seg_x, seg_a, :]  # (m, nS)
    rsum = rate_rows.sum(axis=1)
    l0 = layers[:-1][idx, :, seg_a]  # v^n(., y, seg_a) at left ends: (m, nS)
    l1 = layers[1:][idx, :, seg_a]
    c1_0 = (l0 * rate_rows).sum(axis=1) - own0 * rsum
    c1_1 = (l1 * rate_rows).sum(axis=1) - own1 * rsum
    int_c1 = float((0.5 * (c1_0 + c1_1) * h).sum())

    g_term = float(p.terminal_cost[path.state_at(path.horizon)])
    int_f = running_cost_along_path(p, path)
    rhs = g_term + int_f + float(sample.k_values[-1]) - float(sample.jump_z.sum()) + int_c1
    return float(sample.y_values[0]) - rhs
