"""Per-path loop references for the pair-path functionals.

Each function walks one path jump by jump in plain Python: the running
cost over the pieces cut by the jumps and the cost nodes, and the Girsanov
log weight over the pieces cut by the jumps and the control's layer edges.
jumpcontrol.simulate and jumpcontrol.randomized compute the same integrals
for a whole batch from cumulative tables; the tests compare the two.
"""
from __future__ import annotations

import math

import numpy as np

from jumpcontrol.model import cost_at


def running_cost_along_path(p, path) -> float:
    """Exact integral of f(s, X_s, I_s) ds over [t0, T] along a pair path.

    Breakpoints are the jump times plus (for time-dependent f) the cost
    grid nodes; on each piece the state is constant and f is linear, so the
    trapezoid rule is exact.
    """
    f = p.running_cost
    T = p.horizon
    total = 0.0
    if f.ndim == 2:
        ftab = f.tolist()
        lo, x, a = path.t0, path.x0, path.a0
        for j in range(path.n_jumps):
            hi = path.times[j]
            total += ftab[x][a] * (hi - lo)
            lo, x, a = hi, int(path.x_marks[j]), int(path.a_marks[j])
        return total + ftab[x][a] * (T - lo)
    nodes = np.linspace(0.0, T, f.shape[0])
    cuts = np.union1d(
        np.asarray([path.t0, *path.times.tolist(), T]),
        nodes[(nodes > path.t0) & (nodes < T)],
    )
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        x, a = path.state_at(mid), path.action_at(mid)
        total += 0.5 * (cost_at(p, lo, x, a) + cost_at(p, hi, x, a)) * (hi - lo)
    return total


def girsanov_log_weight(p, nu, path) -> float:
    """log L_T of the nu-tilted law along a reference pair path.

    The drift sum_b (1 - nu_j(x, a, b)) lambda0[b] is integrated layer by
    layer over each constant-state piece; every jump adds
    log(nu(T_j, X-, I-, b) d1 + d2).
    """
    if path.a_marks is None:
        raise ValueError("girsanov_log_weight needs a pair path")
    T = path.horizon
    lam0 = p.lambda0.tolist()
    drift = (float(p.lambda0.sum()) - nu.field @ p.lambda0).tolist()
    field = nu.field.tolist()
    n_layers = nu.n_layers
    layer_len = T / n_layers
    last_layer = n_layers - 1
    scale = n_layers / T

    log_w = 0.0
    times = path.times.tolist()
    xm = path.x_marks.tolist()
    am = path.a_marks.tolist()
    lo, x_pre, a_pre = path.t0, path.x0, path.a0
    for j in range(path.n_jumps + 1):
        hi = times[j] if j < path.n_jumps else T
        if hi > lo:
            j0 = min(int(lo * scale + 1e-12), last_layer)
            j1 = min(int(hi * scale - 1e-12), last_layer)
            row = drift[j0][x_pre][a_pre]
            if j1 == j0:
                log_w += row * (hi - lo)
            else:
                log_w += row * ((j0 + 1) * layer_len - lo)
                for jj in range(j0 + 1, j1):
                    log_w += drift[jj][x_pre][a_pre] * layer_len
                log_w += drift[j1][x_pre][a_pre] * (hi - j1 * layer_len)
        if j < path.n_jumps:
            y, b = xm[j], am[j]
            m1 = lam0[b] if y == x_pre else 0.0
            m2 = float(p.rates[x_pre, a_pre, y]) if b == a_pre else 0.0
            jl = min(int(hi * scale + 1e-12), last_layer)
            log_w += math.log((field[jl][x_pre][a_pre][b] * m1 + m2) / (m1 + m2))
            lo, x_pre, a_pre = hi, y, b
    return log_w
