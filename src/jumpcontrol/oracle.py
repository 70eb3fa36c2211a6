"""Brute-force backward-induction value engine used as ground truth.

oracle_value is the reference: independent of the main solvers, plain Python
loops over flat lists, a first-order explicit scheme, a hard stability bound
dt * Lambda_E <= 0.1 (which also makes the scheme monotone), and a grid 10x-25x
finer than the solver's. oracle_compare is one array reduction over shared nodes.
"""
from __future__ import annotations

import numpy as np

from .linear import ValueGrid
from .model import Problem, cost_at

_STABILITY = 0.1


def oracle_value(p: Problem, n_steps: int) -> ValueGrid:
    """Backward induction V[k][x] = V[k+1][x] + dt * max_a (sum + f)."""
    n_states = len(p.states)
    n_actions = len(p.actions)
    T = p.horizon
    dt = T / n_steps
    rates = [[[float(p.rates[x][a][y]) for y in range(n_states)]
              for a in range(n_actions)] for x in range(n_states)]
    lam = 0.0
    for x in range(n_states):
        for a in range(n_actions):
            row = 0.0
            for y in range(n_states):
                row += rates[x][a][y]
            if row > lam:
                lam = row
    if dt * lam > _STABILITY:
        raise ValueError(
            f"oracle stability precondition violated: dt*Lambda = {dt * lam:.4f} > {_STABILITY}"
        )
    time_dependent_cost = p.running_cost.ndim == 3
    f_const = None
    if not time_dependent_cost:
        f_const = [[float(p.running_cost[x][a]) for a in range(n_actions)]
                   for x in range(n_states)]
    values = [[0.0] * n_states for _ in range(n_steps + 1)]
    for x in range(n_states):
        values[n_steps][x] = float(p.terminal_cost[x])
    for k in range(n_steps - 1, -1, -1):
        t_k = k * dt
        nxt = values[k + 1]
        cur = values[k]
        for x in range(n_states):
            best = None
            for a in range(n_actions):
                total = 0.0
                row = rates[x][a]
                for y in range(n_states):
                    total += (nxt[y] - nxt[x]) * row[y]
                if time_dependent_cost:
                    total += cost_at(p, t_k, x, a)
                else:
                    total += f_const[x][a]
                if best is None or total > best:
                    best = total
            cur[x] = nxt[x] + dt * best
    return ValueGrid(np.array(values), T)


def oracle_compare(p: Problem, sol, tol: float, n_steps_oracle: int | None = None) -> dict:
    """Sup-norm gap between the oracle and a solved HJB solution.

    The oracle grid is a whole multiple of the solution grid so the two can
    be compared at shared nodes; reports the gap at t = 0, the gap over the
    shared grid (NaN, which fails, if the solution holds one) and pass/fail.
    """
    grid = sol.values
    n_main = grid.n_steps
    ratio = 25 if n_steps_oracle is None else max(1, round(n_steps_oracle / n_main))
    gap = np.abs(grid.values - oracle_value(p, ratio * n_main).values[::ratio])
    gap_grid = float(gap.max())
    return {
        "gap_t0": float(gap[0].max()),
        "gap_grid": gap_grid,
        "n_steps_oracle": ratio * n_main,
        "tol": tol,
        "passed": gap_grid <= tol,
    }
