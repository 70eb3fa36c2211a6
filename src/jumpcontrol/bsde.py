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
O(jumps), not O(grid). A path keeps its location on each grid
(simulate._located): Y, Z, K at every level and the compensator read the
one on the grid of v^n, the running cost the one on the grid of f. All
integrals are exact for the interpolant (the positive part is integrated
cell by cell with its kink located analytically), so the pathwise
residual isolates the solver's ODE error rather than quadrature noise.
constraint_violation is one call of simulate._estimate, as in randomized.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import Problem, _interp_cells
from .penalized import PenalizedSolution
from .simulate import Path, PathBatch, _estimate, _integrate, _located, _per_path, _sim_tables


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
    grid = vn.values
    (lo, _, seg_x, seg_a), located = _located(path, grid.horizon, grid.n_steps)
    m, n = seg_x.size, path.n_jumps
    x_T, a_T = (path.x_marks[-1], path.a_marks[-1]) if n else (path.x0, path.a0)

    # v^n at both ends of every segment in its state, then at T in the final
    # state: Y at the breakpoints (cadlag) and, at the hi ends, left limits.
    k, w, x, a = located[:4]
    k, w = np.concatenate((k, k[-1:])), np.concatenate((w, w[-1:]))
    v = _interp_cells(grid.values, k, w, np.concatenate((x, [x_T])), np.concatenate((a, [a_T])))
    y_values = np.concatenate((v[:m], v[-1:]))
    k_values = np.concatenate(([0.0], np.cumsum(_integrate(vn.k_table, located))))

    # Z at the marks: jump j ends segment j at breakpoint j + 1, where Y reads the mark.
    jump_z = y_values[1 : n + 1] - v[m : m + n]
    return BSDESample(path, vn.level, np.append(lo, grid.horizon), seg_x, seg_a, y_values, k_values, jump_z, vn)


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
    path, T, vn = sample.path, p.horizon, sample.solution
    cost = _sim_tables(p)["cost"]
    int_c1 = float(_integrate(vn.compensator_table, _located(path, T, vn.values.n_steps)[1]).sum())
    int_f = float(_integrate(cost, _located(path, T, cost[0].shape[0] - 1)[1]).sum())
    g_term = float(p.terminal_cost[path.x_marks[-1] if path.n_jumps else path.x0])
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
    to reuse one batch across levels, as simulate._estimate takes them.
    """
    return _estimate(p, None, t, x, a, n_paths, master_seed, paths, lambda b: terminal_k(vn, b) / max(vn.level, 1))


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
    rows = [MinimalYRow(n, a, solutions[n].values.value_at(t, x, a)) for n in levels for a in range(p.n_actions)]
    top = levels[-1]
    limit = {a: solutions[top].values.value_at(t, x, a) for a in range(p.n_actions)}
    max_gap = max(primal_value - y for y in limit.values())
    return MinimalYReport(rows, primal_value, limit, max_gap)
