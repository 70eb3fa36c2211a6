"""Penalized HJB family on the pair space E x A.

For each penalization level n the equation

    dv/dt + L v + f + sum_b { n [v(t,x,b) - v(t,x,a)]^+
                              - (v(t,x,b) - v(t,x,a)) } lambda0[b] = 0,
    v(T, x, a) = g(x),

is marched backward on the uniform grid (L is the pair generator). The
-psi coupling cancels the lambda0 part of L exactly, so the derivative is
computed in the cancelled form

    dv/dt + L_X^a v + f + n sum_b [v(t,x,b) - v(t,x,a)]^+ lambda0[b] = 0,

with L_X^a the generator of X under the frozen action a. The solutions
increase in n, stay below the primal HJB solution, and lose their
dependence on the a argument as n grows; convergence_report measures all
three effects against the primal solver.

All requested levels are marched together as one (levels, n_states *
n_actions) state on the flat pair index x * n_actions + a, so the family
costs about as much as a single level. A stage is one product with L_X^a,
one matrix on that index built once per problem, the positive parts of psi
in a preallocated buffer, and one batched product with the per-level
weights n lambda0; f is tabulated at the stage times by one cost_layer call
per block of steps. The penalty's Lipschitz constant grows like (n + 1) *
lambda0(A), so every level takes the common sub-step count set by the
largest level n_max, which keeps dt_eff * (Lambda_pair + (n_max + 1) *
lambda0(A)) below 0.5; a march of more than MAX_RK4_STEPS steps in all is
refused before it starts (linear._substeps). Steps use
classical RK4: the monotonicity and domination checks compare solutions to
within 1e-9, which a first-order scheme cannot reach at practical grid
sizes.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linear import MAX_RK4_STEPS, ValueGrid, _rk4_march, _substeps  # MAX_RK4_STEPS: the README names it here
from .model import Problem, cost_layer, pair_rate_bound
from .hjb import HJBSolution, solve_hjb_picard
from .simulate import _prefix, _trapezoid


def _positive_part_integral(p0, p1, h):
    """Exact integral of [linear]^+ over segments; all arguments broadcast."""
    both_pos = np.minimum(p0, p1) >= 0.0
    both_neg = np.maximum(p0, p1) <= 0.0
    denom = np.where(p0 == p1, 1.0, p0 - p1)
    tau = np.clip(p0 / denom, 0.0, 1.0) * h
    crossing = np.where(p0 > 0.0, 0.5 * p0 * tau, 0.5 * p1 * (h - tau))
    out = np.where(both_pos, 0.5 * (p0 + p1) * h, crossing)
    return np.where(both_neg, 0.0, out)


def penalty_integral(psi0, psi1, h, lam0, n):
    """n * int sum_b [psi_b]^+ lambda0[b] ds over segments of length h on which
    psi runs linearly from psi0 to psi1 (the last axis is b)."""
    return n * (_positive_part_integral(psi0, psi1, h) * lam0).sum(axis=-1)


@dataclass(frozen=True)
class PenalizedSolution:
    """v^n on the grid, with the rates of the path functionals built on
    first use.

    k_table and compensator_table are the rates (cum, cell) of the
    integrands of K and of the X-compensator (simulate._segment_integrals):
    for every constant pair state (x, a), cum holds their exact integrals
    from 0 to each grid node along the piecewise-linear interpolant of v^n,
    and cell integrates them inside one grid cell from its two node layers.
    """

    level: int
    values: ValueGrid
    n_substeps: int
    problem: Problem = field(repr=False, compare=False)

    @cached_property
    def k_table(self):
        """The rate of n * sum_b [v^n(s, x, b) - v^n(s, x, a)]^+ lambda0[b]."""
        v, lam0, n = self.values.values, self.problem.lambda0, self.level
        dt = self.values.horizon / self.values.n_steps
        psi = v[..., None, :] - v[..., :, None]  # psi[k, x, a, b]

        def cell(k, s0, s1, x, a):
            w = (np.stack((s0, s1)) / dt - k)[..., None]
            layer = (1.0 - w) * v[k, x] + w * v[k + 1, x]  # v^n(s, x, .) at s0 and s1
            psi_s = layer - np.take_along_axis(layer, a[None, :, None], axis=2)  # psi at s0 and s1
            return penalty_integral(psi_s[0], psi_s[1], (s1 - s0)[:, None], lam0, n)

        return _prefix(penalty_integral(psi[:-1], psi[1:], dt, lam0, n)), cell

    @cached_property
    def compensator_rate(self) -> ValueGrid:
        """sum_y lambda(x, a, y) v^n(t, y, a) - lambda(x, a, E) v^n(t, x, a) on the grid."""
        v = self.values.values
        rate = v.reshape(v.shape[0], -1) @ self.problem.x_generator.T
        return ValueGrid(rate.reshape(v.shape), self.values.horizon)

    @cached_property
    def compensator_table(self):
        """The rate of compensator_rate, linear on each grid cell."""
        return _trapezoid(self.compensator_rate.values, self.values.horizon / self.values.n_steps)


def _march_levels(p: Problem, levels, n_steps: int) -> list:
    """Solve every level in one backward march; the values are views into
    one (N+1, levels, n_states, n_actions) array."""
    if any(n < 0 for n in levels):
        raise ValueError("penalization level must be nonnegative")
    lam0 = p.lambda0
    lipschitz = pair_rate_bound(p) + (max(levels, default=0) + 1) * float(lam0.sum())
    n_sub = _substeps(n_steps, p.horizon, lipschitz, f"level {max(levels)}")
    n_lev, nS, nA = len(levels), p.n_states, p.n_actions
    m = nS * nA
    neg_gen_t = -p.x_generator.T
    neg_weights = -np.multiply.outer(np.asarray(levels, dtype=float), lam0)[:, :, None]
    psi = np.empty((n_lev, nS, nA, nA))
    psi_rows = psi.reshape(n_lev, m, nA)
    pen = np.empty((n_lev, m, 1))
    pen_flat = pen[..., 0]

    def deriv(s, v, out):
        np.dot(v, neg_gen_t, out=out)
        v3 = v.reshape(n_lev, nS, nA)
        np.subtract(v3[:, :, None, :], v3[:, :, :, None], out=psi)  # psi[l, x, a, b] = v[l, x, b] - v[l, x, a]
        np.maximum(psi, 0.0, out=psi)
        np.matmul(psi_rows, neg_weights, out=pen)
        out += pen_flat

    g = np.broadcast_to(np.repeat(p.terminal_cost, nA), (n_lev, m))
    vals = _rk4_march(g, n_steps, p.horizon, deriv, n_sub, lambda ts: cost_layer(p, ts).reshape(*ts.shape, m))
    vals = vals.reshape(n_steps + 1, n_lev, nS, nA)
    return [
        PenalizedSolution(int(n), ValueGrid(vals[:, i], p.horizon), n_sub, p)
        for i, n in enumerate(levels)
    ]


def solve_penalized(p: Problem, n: int, n_steps: int = 2000) -> PenalizedSolution:
    """Solve the level-n penalized equation backward on the grid.

    n = 0 is allowed: the penalty drops and each action column solves the
    linear equation of X under that frozen action, which is the cross-check
    case against the linear solver.
    """
    return _march_levels(p, [n], n_steps)[0]


@dataclass
class ConvergenceRow:
    level: int
    sigma: float  # max over (t, x) of the spread of v^n across a
    delta: float  # max over (t, x, a) of v - v^n
    monotonicity_violations: int  # count of v^prev > v^n + tol vs previous level
    cap_violations: int  # count of v^n > v + tol


@dataclass
class ConvergenceReport:
    rows: list
    primal: HJBSolution
    solutions: dict  # level -> PenalizedSolution

    def to_csv(self, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["n", "sigma_n", "delta_n", "monotonicity_violations", "cap_violations"])
        for r in self.rows:
            w.writerow(
                [r.level, repr(r.sigma), repr(r.delta), r.monotonicity_violations, r.cap_violations]
            )


ORDER_TOL = 1e-9  # absorbs rounding in ideal-arithmetic inequalities


def convergence_report(
    p: Problem,
    levels,
    n_steps: int = 2000,
    primal: HJBSolution | None = None,
) -> ConvergenceReport:
    """Monotonicity / domination / a-flattening diagnostics across levels."""
    levels = [int(n) for n in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if primal is None:
        primal = solve_hjb_picard(p, n_steps=n_steps)
    v = primal.values.values  # (N+1, nS)
    rows = []
    solutions = {}
    prev = None
    for n, sol in zip(levels, _march_levels(p, levels, n_steps)):
        solutions[n] = sol
        vn = sol.values.values  # (N+1, nS, nA)
        sigma = float((vn.max(axis=2) - vn.min(axis=2)).max())
        delta = float((v[:, :, None] - vn).max())
        mono = 0 if prev is None else int(np.count_nonzero(prev > vn + ORDER_TOL))
        cap = int(np.count_nonzero(vn > v[:, :, None] + ORDER_TOL))
        rows.append(ConvergenceRow(n, sigma, delta, mono, cap))
        prev = vn
    return ConvergenceReport(rows, primal, solutions)
