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
costs about as much as a single level. While the sign pattern sigma of
psi(x, a, b) = v(x, b) - v(x, a) holds still, a level's equation is the pair
equation tilted by w = n sigma, and its sub-steps are step-map products
(_AffineSubsteps). Every level takes the sub-step count of the largest,
n_max, at the rate bound Lambda_pair + (n_max + 1) * lambda0(A). RK4, as the
monotonicity and domination checks compare solutions to within 1e-9, which
a first-order scheme cannot reach at practical grid sizes.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linear import ValueGrid, _map_inputs, _matmul, _rk4_march, _rk4_substep, _step_maps, _substeps
from .model import Problem, _interp_cells, cost_layer, pair_rate_bound, tilted_pair_generator
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
    integrands of K and of the X-compensator (simulate._integrate):
    for every constant pair state (x, a), cum holds their exact integrals
    from 0 to each grid node along the piecewise-linear interpolant of v^n,
    and cell integrates them inside one grid cell from its two node layers.

    nonlinear_steps, maps_built and block_products count the nonlinear
    sub-steps, step maps and block products of the march of all levels.
    """

    level: int
    values: ValueGrid
    n_substeps: int
    nonlinear_steps: int
    maps_built: int
    block_products: int
    problem: Problem = field(repr=False, compare=False)

    @cached_property
    def k_table(self):
        """The rate of n * sum_b [v^n(s, x, b) - v^n(s, x, a)]^+ lambda0[b]."""
        v, lam0, n = self.values.values, self.problem.lambda0, self.level
        dt = self.values.horizon / self.values.n_steps
        psi = v[..., None, :] - v[..., :, None]  # psi[k, x, a, b]

        def cell(k, s0, s1, x, a):
            m, kk = len(a), np.concatenate((k, k))
            layer = _interp_cells(v, kk, np.concatenate((s0, s1)) / dt - kk, np.concatenate((x, x)))  # at s0, then s1
            psi = layer - layer[np.arange(2 * m), np.concatenate((a, a))][:, None]
            return penalty_integral(psi[:m], psi[m:], (s1 - s0)[:, None], lam0, n)

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


# Most sub-steps of one product: blocks of 32 and 64 were slower on the
# fixtures, as the rebuilds after sign changes grow with the block.
_BLOCK_MAX_STEPS = 16
# Most entries per level of the block map, which a map of e entries fills
# with _BLOCK_MAX_ENTRIES // e sub-steps, at least one. On constant-f random
# models of 4 to 32 pair states that came within 6 % of one sub-step per
# product where psi changed sign in up to 5 % of the sub-steps, and was faster
# elsewhere; at 1 << 14, maps of 810 to 5400 entries were up to a third slower.
_BLOCK_MAX_ENTRIES = 1 << 12


class _AffineSubsteps:
    """The RK4 sub-steps of the penalized family as affine maps per level.

    While the sign pattern sigma = (psi > 0) of a level holds, its RK4 step
    v' - v = v P + c C (linear._step_maps) and checks, psi (2 sigma - 1) at
    the four stage inputs, are affine; it is the nonlinear step when all
    checks are >= 0, up to rounding. With f constant, c C is one row t, and
    one product with the block map takes B sub-steps: v_j - v = v D_j + e_j,
    D_j = (I + P)^j - I, built in increment form by doubling, (D; e)_{i+j} =
    (D; e)_i + (D; e)_j + (D; e)_i D_j. The march takes the sub-steps up to
    the first whose checks fail, that one by the nonlinear stages, and
    rebuilds the maps of the levels whose sigma moved.
    """

    def __init__(self, p: Problem, levels, nonlinear, inputs):
        nS, nA, m = p.n_states, p.n_actions, p.n_states * p.n_actions
        x, a, b = np.nonzero(np.broadcast_to(~np.eye(nA, dtype=bool), (nS, nA, nA)))
        self.lo, self.hi = x * nA + a, x * nA + b  # pair j = (x, a, b != a): psi_j = v[hi] - v[lo]
        self.pairs = self.lo * nA + b  # the flat index of (x, a, b)
        self.problem, self.levels = p, np.asarray(levels, dtype=float)
        self.weights = np.multiply.outer(self.levels, p.lambda0)[:, b]  # n lambda0[b]
        self.diff = np.eye(m)[:, self.hi] - np.eye(m)[:, self.lo]  # w @ diff is psi at w
        self.f_row = None if p.running_cost.ndim == 3 else p.running_cost.reshape(1, m)
        # A product leaves psi a few ulps of |v| <= |g| + T |f| off, so a psi of 0
        # (actions that agree at a state) reads as either sign; a check passes down
        # to this floor, at a cost below 0.5 times it in the step.
        scale = np.abs(p.terminal_cost).max() + p.horizon * np.abs(p.running_cost).max()
        self.floor = -16 * np.finfo(float).eps * scale
        self.shape, self.basis, self.stage_costs = inputs
        rows, cols = self.shape
        # a block of one where f depends on time: its stage costs change from sub-step to sub-step
        self.block = 1 if self.f_row is None else max(1, min(_BLOCK_MAX_STEPS, _BLOCK_MAX_ENTRIES // (rows * cols)))
        self.blocks = np.empty((len(levels), rows, self.block, cols))  # blocks[level, :, j]: sub-step j + 1
        self.maps = self.blocks.reshape(len(levels), rows, -1)
        self.v_map, self.tail = self.maps[:, :m], self.maps[:, m:]
        self.out = np.empty((len(levels), 1, self.maps.shape[2]))
        steps = self.out.reshape(len(levels), self.block, cols)
        self.inc, self.checks = steps[..., :m].swapaxes(0, 1), steps[..., m:]  # inc[j, level]
        self.first = self.inc[0]
        self.nonlinear = nonlinear
        self.sigma = None
        self.nonlinear_steps = self.maps_built = self.block_products = 0

    def pattern(self, v):
        return v[:, self.hi] - v[:, self.lo] > 0.0

    def build(self, idx, sigma, h):
        """The maps of the levels idx at their patterns sigma."""
        p, m, n = self.problem, self.basis.shape[1], len(idx)
        w = np.zeros((n, m * p.n_actions))
        w[:, self.pairs] = self.levels[idx, None] * sigma
        gens = tilted_pair_generator(p, w.reshape(n, p.n_states, p.n_actions, p.n_actions))
        signed_diff = self.diff * np.where(self.weights[idx] > 0.0, 2.0 * sigma - 1.0, 0.0)[:, None, :]
        inc, stages = _step_maps(gens, self.basis, self.stage_costs, h)
        checks = np.concatenate([_matmul(s, signed_diff) for s in stages], axis=2)  # as functions of v, then of c
        # Sub-step j + 1 of a block: inc[:, :, j] = (D_{j+1}; e_{j+1}), and
        # its checks at v_j, checks + inc[:, :, j - 1] C with C = checks[:, :m].
        inc = inc[:, :, None]
        while inc.shape[2] < self.block:  # inc[J + j] = inc[j] + inc[J] + inc[j] D_J, D_J = inc[J][:m]
            last = inc[:, :, -1]
            inc = np.concatenate((inc, inc + last[:, :, None] + _matmul(inc, last[:, :m])), axis=2)
        self.blocks[idx, :, :, :m] = inc[:, :, : self.block]
        self.blocks[idx, :, :, m:] = checks[:, :, None]
        if self.block > 1:
            self.blocks[idx, :, 1:, m:] += _matmul(inc[:, :, : self.block - 1], checks[:, :m])
        self.maps_built += n

    def __call__(self, v, h, rows, costs, i):
        if self.sigma is None:
            self.sigma = self.pattern(v)
            self.build(np.arange(len(v)), self.sigma, h)
        np.matmul(v[:, None, :], self.v_map, out=self.out)
        self.out += self.tail if self.f_row is not None else np.reshape(costs[i], (1, -1)) @ self.tail
        self.block_products += 1
        passed = np.minimum.reduce(self.checks, axis=None, initial=0.0) >= self.floor  # initial: one action, no psi
        if passed and self.block == 1:  # one sub-step, in place, as by the classical rule
            v += self.first
            return None
        k = n = min(self.block, len(rows) - i)  # none past the rows
        if not passed:  # up to the first failing sub-step
            k = 0 if self.block == 1 else min(n, int(np.argmin(np.minimum.reduce(self.checks, axis=(0, 2)) >= self.floor)))
        states = v + self.inc[: min(k + 1, n)]  # after each sub-step taken, and a row for the nonlinear one
        if k:
            v[...] = states[k - 1]
        if k == n:
            return states
        self.nonlinear(v, h, rows, costs, i + k)
        self.nonlinear_steps += 1
        sigma = self.pattern(v)
        idx = np.flatnonzero((sigma != self.sigma).any(axis=1))
        if len(idx):
            self.sigma = sigma
            self.build(idx, sigma[idx], h)
        states[k] = v
        return states


def _level_map(p: Problem):
    """linear._map_inputs of a level's map: columns for the increment, then psi at 4 stage inputs."""
    m = p.n_states * p.n_actions
    f_row = None if p.running_cost.ndim == 3 else p.running_cost.reshape(1, m)
    return _map_inputs(m, f_row, m * (1 + 4 * (p.n_actions - 1)))


def _substep(p: Problem, levels):
    """The sub-step of the family's march on a (levels, n_states * n_actions)
    state: affine where a level's map fits the size rule, else nonlinear."""
    n_lev, nS, nA = len(levels), p.n_states, p.n_actions
    m = nS * nA
    neg_gen_t = -p.x_generator.T
    neg_weights = -np.multiply.outer(np.asarray(levels, dtype=float), p.lambda0)[:, :, None]
    psi = np.empty((n_lev, nS, nA, nA))
    psi_rows = psi.reshape(n_lev, m, nA)
    pen = np.empty((n_lev, m, 1))
    pen_flat = pen[..., 0]

    def deriv(v, out, _gen):
        np.dot(v, neg_gen_t, out=out)
        v3 = v.reshape(n_lev, nS, nA)
        np.subtract(v3[:, :, None, :], v3[:, :, :, None], out=psi)  # psi[l, x, a, b] = v[l, x, b] - v[l, x, a]
        np.maximum(psi, 0.0, out=psi)
        np.matmul(psi_rows, neg_weights, out=pen)
        out += pen_flat

    nonlinear, inputs = _rk4_substep(deriv, (n_lev, m)), _level_map(p)
    return nonlinear if inputs[1] is None else _AffineSubsteps(p, levels, nonlinear, inputs)


def _march_levels(p: Problem, levels, n_steps: int) -> list:
    """Solve every level in one backward march; the values are views into
    one (N+1, levels, n_states, n_actions) array."""
    if not len(levels) or not all(float(n).is_integer() and n >= 0 for n in levels):
        raise ValueError(f"penalization levels must be one or more nonnegative integers, got {list(levels)}")
    lipschitz = pair_rate_bound(p) + (max(levels) + 1) * float(p.lambda0.sum())
    n_sub = _substeps(n_steps, p.horizon, lipschitz, f"level {max(levels)}")
    nS, nA = p.n_states, p.n_actions
    step = _substep(p, levels)
    g = np.broadcast_to(np.repeat(p.terminal_cost, nA), (len(levels), nS * nA))
    vals = _rk4_march(g, n_steps, p.horizon, n_sub, step, lambda ts: cost_layer(p, ts).reshape(*ts.shape, nS * nA))
    vals = vals.reshape(n_steps + 1, len(levels), nS, nA)
    affine = isinstance(step, _AffineSubsteps)
    counts = (step.nonlinear_steps, step.maps_built, step.block_products) if affine else (n_steps * n_sub, 0, 0)
    return [
        PenalizedSolution(int(n), ValueGrid(vals[:, i], p.horizon), n_sub, *counts, p)
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
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    sols = _march_levels(p, levels, n_steps)
    if primal is None:
        primal = solve_hjb_picard(p, n_steps=n_steps)
    v = primal.values.values  # (N+1, nS)
    rows = []
    solutions = {}
    prev = None
    for sol in sols:
        n = sol.level
        solutions[n] = sol
        vn = sol.values.values  # (N+1, nS, nA)
        sigma = float((vn.max(axis=2) - vn.min(axis=2)).max())
        delta = float((v[:, :, None] - vn).max())
        mono = 0 if prev is None else int(np.count_nonzero(prev > vn + ORDER_TOL))
        cap = int(np.count_nonzero(vn > v[:, :, None] + ORDER_TOL))
        rows.append(ConvergenceRow(n, sigma, delta, mono, cap))
        prev = vn
    return ConvergenceReport(rows, primal, solutions)
