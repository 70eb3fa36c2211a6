"""Constrained-BSDE objects materialized from penalized solutions.

Along a simulated pair path, the triple

    Y_s = v^n(s, X_s, I_s),
    Z_s(y, b) = v^n(s, y, b) - v^n(s, X_{s-}, I_{s-}),
    dK_s = n * sum_b [Z_s(X_s, b)]^+ lambda0[b] ds,

solves the penalized backward equation, and the sign constraint on
Z_s(X_s, b) is recovered in the limit of large n. build_sample evaluates
(Y, Z, K) with piecewise-linear time interpolation of v^n. Its breakpoints
are t0, the jump times and T, because the pair state is constant in
between. K, the X-compensator and the running cost are rates (cum, cell)
of simulate's one segment integrator: PenalizedSolution builds the first
two once per v^n, so a segment costs a difference of cum plus its two end
cells, each read from its grid cell's two node layers, and a path costs
O(jumps), not O(grid). All integrals are exact for the interpolant (the
positive part is integrated cell by cell with its kink located
analytically), so the pathwise residual isolates the solver's ODE error
rather than quadrature noise.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import Problem
from .penalized import PenalizedSolution
from .simulate import (
    Path, PathBatch, _mean_se, _per_path, _segment_integrals, _segments, _sim_tables, simulate_pair_sample,
)


@dataclass(frozen=True)
class BSDESample:
    """(Y, Z, K) along one pair path, at t0, the jump times and T.

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
    solution: PenalizedSolution = field(repr=False)


def build_sample(p: Problem, vn: PenalizedSolution, path: Path) -> BSDESample:
    """Evaluate (Y, Z, K) from v^n along a pair path.

    p is the problem vn solves; the tables and rates are read from vn.
    """
    T = vn.values.horizon
    lo, hi, seg_x, seg_a, _ = _segments(PathBatch.from_paths([path], T))
    bp = np.append(lo, T)
    layers = vn.values.layer_at(bp)  # v^n at the breakpoints: (m+1, nS, nA)
    m = seg_x.size

    # Y at breakpoints, cadlag (state after the breakpoint; at T the final state).
    state_x = np.append(seg_x, path.state_at(T))
    state_a = np.append(seg_a, path.action_at(T))
    y_values = layers[np.arange(m + 1), state_x, state_a]
    k_values = np.concatenate(([0.0], np.cumsum(_segment_integrals(T, vn.k_table, lo, hi, seg_x, seg_a))))

    # Z at the realized jump marks; a jump at T reads the layer at T. Jump j
    # leaves segment j's state, and a jump at T opens no segment of its own.
    n = path.n_jumps
    jpos = np.searchsorted(bp, path.times)
    jump_z = layers[jpos, path.x_marks, path.a_marks] - layers[jpos, seg_x[:n], seg_a[:n]]
    return BSDESample(path, vn.level, bp, seg_x, seg_a, y_values, k_values, jump_z, vn)


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
    path, bp = sample.path, sample.breakpoints
    segments = (bp[:-1], bp[1:], sample.seg_x, sample.seg_a)
    int_c1 = float(_segment_integrals(p.horizon, sample.solution.compensator_table, *segments).sum())
    int_f = float(_segment_integrals(p.horizon, _sim_tables(p)["cost"], *segments).sum())
    g_term = float(p.terminal_cost[path.state_at(path.horizon)])
    rhs = g_term + int_f + float(sample.k_values[-1]) - float(sample.jump_z.sum()) + int_c1
    return float(sample.y_values[0]) - rhs


def terminal_k(vn: PenalizedSolution, paths) -> np.ndarray:
    """K_T^n of every pair path of a list or a PathBatch, from one pass over
    their flattened segments."""
    return _per_path(PathBatch.from_paths(paths, vn.values.horizon), vn.k_table)


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
    (n_paths paths simulated under the reference pair law from (t, x, a),
    as a list or a PathBatch) to reuse one batch across several levels;
    without them the paths are simulate_pair_sample's from master_seed.
    """
    if paths is None:
        paths = simulate_pair_sample(p, None, t, x, a, n_paths, master_seed)
    elif len(paths) != n_paths:
        raise ValueError(f"expected {n_paths} paths, got {len(paths)}")
    return _mean_se(terminal_k(vn, paths) / max(vn.level, 1))


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
