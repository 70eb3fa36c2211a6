"""Constrained-BSDE objects materialized from penalized solutions.

Along a simulated pair path, the triple

    Y_s = v^n(s, X_s, I_s),
    Z_s(y, b) = v^n(s, y, b) - v^n(s, X_{s-}, I_{s-}),
    dK_s = n * sum_b [Z_s(X_s, b)]^+ lambda0[b] ds,

solves the penalized backward equation, and the sign constraint on
Z_s(X_s, b) is recovered in the limit of large n. build_sample evaluates
(Y, Z, K) with piecewise-linear time interpolation of v^n; all time
integrals are computed exactly for that interpolant (the positive part is
integrated segment by segment with its kink located analytically), so the
pathwise residual isolates the solver's ODE error rather than quadrature
noise.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Problem
from .penalized import PenalizedSolution
from .simulate import Path, child_rng, running_cost_along_path, simulate_pair_path


@dataclass(frozen=True)
class BSDESample:
    """(Y, Z, K) along one pair path, on the union of grid and jump times.

    breakpoints[0] = t0 and breakpoints[-1] = T; segment i spans
    (breakpoints[i], breakpoints[i+1]) with constant pair state
    (seg_x[i], seg_a[i]). Y and K are tabulated at the breakpoints
    (cadlag: at a jump time the post-jump state is used); jump_z[j] is the
    Z field at the j-th jump evaluated at the realized mark.
    """

    path: Path
    level: int
    breakpoints: np.ndarray
    seg_x: np.ndarray
    seg_a: np.ndarray
    y_values: np.ndarray
    k_values: np.ndarray
    jump_z: np.ndarray
    layers: np.ndarray = field(repr=False)  # v^n interpolated at breakpoints


def _positive_part_integral(p0, p1, h):
    """Exact integral of [linear]^+ over segments; all arguments broadcast."""
    both_pos = np.minimum(p0, p1) >= 0.0
    both_neg = np.maximum(p0, p1) <= 0.0
    denom = np.where(p0 == p1, 1.0, p0 - p1)
    tau = np.clip(p0 / denom, 0.0, 1.0) * h
    crossing = np.where(p0 > 0.0, 0.5 * p0 * tau, 0.5 * p1 * (h - tau))
    out = np.where(both_pos, 0.5 * (p0 + p1) * h, crossing)
    return np.where(both_neg, 0.0, out)


def build_sample(p: Problem, vn: PenalizedSolution, path: Path) -> BSDESample:
    """Evaluate (Y, Z, K) from v^n along a pair path."""
    if path.a_marks is None:
        raise ValueError("build_sample needs a pair path")
    grid = vn.values
    if abs(grid.horizon - path.horizon) > 1e-12:
        raise ValueError("value grid and path horizons differ")
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
    own0 = layers[idx, seg_x, seg_a]  # v^n at left endpoint, segment state
    own1 = layers[idx + 1, seg_x, seg_a]
    row0 = layers[:-1][idx, seg_x, :]  # v^n(., seg_x, b) at left endpoints: (m, nA)
    row1 = layers[1:][idx, seg_x, :]
    psi0 = row0 - own0[:, None]
    psi1 = row1 - own1[:, None]
    h = (bp[1:] - bp[:-1])[:, None]
    incr = vn.level * (_positive_part_integral(psi0, psi1, h) @ p.lambda0)
    k_values = np.concatenate(([0.0], np.cumsum(incr)))

    # Z at the realized jump marks.
    jump_z = np.empty(path.n_jumps)
    if path.n_jumps:
        jpos = np.searchsorted(bp, path.times)
        pre_x = np.concatenate(([path.x0], path.x_marks[:-1])).astype(np.int64)
        pre_a = np.concatenate(([path.a0], path.a_marks[:-1])).astype(np.int64)
        jump_z = (
            layers[jpos, path.x_marks, path.a_marks] - layers[jpos, pre_x, pre_a]
        )
    return BSDESample(path, vn.level, bp, seg_x, seg_a, y_values, k_values, jump_z, layers)


def bsde_residual(p: Problem, sample: BSDESample) -> float:
    """Pathwise residual of the penalized backward identity.

    R = Y_t - [ g(X_T) + int f dr + K_T - sum_jumps Z(mark)
                + int sum_y Z(y, I) lambda(X, I, y) dr ].

    The lambda0 part of the pair compensator, int sum_b Z(X, b) lambda0[b] dr,
    cancels against the -psi coupling of the penalized driver, so neither
    appears. R is zero for the exact solution; for the numerical v^n it is
    bounded by the integrator's ODE residual (the quadrature here is exact
    for the interpolant).
    """
    path = sample.path
    bp = sample.breakpoints
    layers = sample.layers
    seg_x, seg_a = sample.seg_x, sample.seg_a
    m = seg_x.size
    idx = np.arange(m)

    own0 = layers[idx, seg_x, seg_a]
    own1 = layers[idx + 1, seg_x, seg_a]
    h = bp[1:] - bp[:-1]

    # sum_y Z(y, I) lambda(X, I, y): linear on each segment, trapezoid exact.
    rate_rows = p.rates[seg_x, seg_a, :]  # (m, nS)
    rsum = rate_rows.sum(axis=1)
    l0 = layers[:-1][idx, :, :][idx, :, seg_a]  # v^n(., y, seg_a) left: (m, nS)
    l1 = layers[1:][idx, :, :][idx, :, seg_a]
    c1_0 = (l0 * rate_rows).sum(axis=1) - own0 * rsum
    c1_1 = (l1 * rate_rows).sum(axis=1) - own1 * rsum
    int_c1 = float((0.5 * (c1_0 + c1_1) * h).sum())

    g_term = float(p.terminal_cost[path.state_at(path.horizon)])
    int_f = running_cost_along_path(p, path)
    rhs = g_term + int_f + float(sample.k_values[-1]) - float(sample.jump_z.sum()) + int_c1
    return float(sample.y_values[0]) - rhs


def constraint_violation(
    p: Problem,
    vn: PenalizedSolution,
    t: float,
    x: int,
    a: int,
    n_paths: int,
    master_seed: int = 0,
    paths=None,
) -> tuple[float, float]:
    """MC estimate of E int_t^T sum_b [Z_s(X_s, b)]^+ lambda0[b] ds.

    Equals E[K_T] / n; Lemma-level bounds keep n times this quantity
    bounded uniformly in n, so the estimate decays like 1/n. Pass `paths`
    (simulated under the reference pair law from (t, x, a)) to reuse one
    batch across several levels.
    """
    if paths is None:
        paths = (
            simulate_pair_path(p, t, x, a, None, rng=child_rng(master_seed, i))
            for i in range(n_paths)
        )
    samples = np.empty(n_paths)
    level = max(vn.level, 1)
    for i, path in enumerate(paths):
        samples[i] = build_sample(p, vn, path).k_values[-1] / level
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return float(samples.mean()), se


@dataclass
class MinimalYRow:
    level: int
    start_a: int
    y_t: float


@dataclass
class MinimalYReport:
    rows: list
    primal_value: float
    limit_estimate: dict  # start action -> largest-level Y_t
    max_gap_to_primal: float

    def to_csv(self, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["n", "start_a", "Y_t"])
        for r in self.rows:
            w.writerow([r.level, r.start_a, repr(r.y_t)])


def minimal_y_report(
    p: Problem,
    solutions: dict,
    t: float,
    x: int,
    primal_value: float,
) -> MinimalYReport:
    """Tabulate Y_t^{n,t,x,a} = v^n(t, x, a) across levels and start actions."""
    levels = sorted(solutions)
    rows = []
    for n in levels:
        grid = solutions[n].values
        for a in range(p.n_actions):
            rows.append(MinimalYRow(n, a, grid.value_at(t, x, a)))
    top = levels[-1]
    limit = {a: solutions[top].values.value_at(t, x, a) for a in range(p.n_actions)}
    max_gap = max(primal_value - y for y in limit.values())
    return MinimalYReport(rows, primal_value, limit, max_gap)
