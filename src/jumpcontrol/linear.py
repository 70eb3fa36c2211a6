"""Backward Kolmogorov solvers: policy evaluation and the pair semigroup.

Both equations are linear and smooth in time, so they are marched backward
with classical 4-stage Runge-Kutta; a stability guard sub-steps whenever
dt times the relevant rate bound exceeds 0.5.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Problem, _interp, cost_layer, pair_rate_bound, rate_bound
from .simulate import FeedbackPolicy, _mean_se, child_rng, simulate_controlled_paths

_STABILITY = 0.5
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ValueGrid:
    """A value function tabulated on the uniform grid t_k = k T / N.

    values has shape (N+1, n_states) or, for pair-space values,
    (N+1, n_states, n_actions). The terminal layer equals the supplied
    terminal function exactly.
    """

    values: np.ndarray
    horizon: float

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def layer_at(self, s, *index) -> np.ndarray:
        """Piecewise-linear time interpolation of the whole layer, or only of
        its entries at the leading indices `index`; see model._interp."""
        return _interp(self.values, s, self.horizon, *index)

    def value_at(self, s: float, x: int, a: int | None = None) -> float:
        layer = self.layer_at(s)
        return float(layer[x] if a is None else layer[x, a])

    def to_csv(self, fileobj, states, actions=None):
        """Rows (k, t, state[, action], value) with repr floats, byte for
        byte what csv.writer writes."""
        ts = [repr(t) for t in self.times.tolist()]
        fields = [csv_field(s) for s in states]
        layers = zip(ts, self.values)
        if actions is None:
            header = "k,t,state,value\r\n"
            rows = (
                f"{k},{t},{sx},{v!r}\r\n"
                for k, (t, layer) in enumerate(layers)
                for sx, v in zip(fields, layer.tolist())
            )
        else:
            header = "k,t,state,action,value\r\n"
            afields = [csv_field(a) for a in actions]
            rows = (
                f"{k},{t},{sx},{sa},{v!r}\r\n"
                for k, (t, layer) in enumerate(layers)
                for sx, row in zip(fields, layer.tolist())
                for sa, v in zip(afields, row)
            )
        write_csv_rows(fileobj, header, rows)


def csv_field(label) -> str:
    """label as csv.writer writes it inside a row: quoted only where needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow((label, ""))
    return buf.getvalue()[: -len(",\r\n")]


def write_csv_rows(fileobj, header, rows):
    """Write the header line, then the finished row lines a chunk at a time,
    so that neither the whole text nor one write call per row is needed."""
    fileobj.write(header)
    rows = iter(rows)
    while text := "".join(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        fileobj.write(text)


def _rk4_march(v_terminal, n_steps, T, deriv, n_sub):
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
    """The X part of the pair generator, with the action argument frozen.

    Returns v -> sum_y (v(y, a) - v(x, a)) lambda(x, a, y) for v of shape
    (..., n_states, n_actions); lambda(x, a, E) is summed once here, not
    once per call.
    """
    rates, rows = p.rates, p.row_sums

    def apply(v):
        return np.einsum("xay,...ya->...xa", rates, v) - rows * v

    return apply


def policy_running_cost(p: Problem, alpha: FeedbackPolicy):
    """Running-cost field s -> f(s, x, alpha(s, x)) as a per-state vector."""
    idx = np.arange(p.n_states)

    def f_running(s):
        k = alpha.layer_index(s)
        return cost_layer(p, s)[idx, alpha.table[k]]

    return f_running


def solve_kolmogorov(
    p: Problem,
    alpha: FeedbackPolicy,
    g_vec=None,
    f_running=None,
    n_steps: int = 2000,
) -> ValueGrid:
    """Solve the backward equation dv/ds + L_s v + f = 0, v(T) = g.

    L_s is the generator of X under the feedback law alpha; f_running is a
    callable s -> per-state vector, or None for zero running cost. The
    value of the policy from (t, x) is the grid entry at (t, x).
    """
    g = p.terminal_cost if g_vec is None else np.asarray(g_vec, dtype=float)
    idx = np.arange(p.n_states)
    dt = p.horizon / n_steps
    n_sub = max(1, math.ceil(dt * rate_bound(p) / _STABILITY))

    def deriv(s, v):
        acts = alpha.table[alpha.layer_index(s)]
        lam = p.rates[idx, acts]
        drift = lam @ v - lam.sum(axis=1) * v
        if f_running is not None:
            drift = drift + f_running(s)
        return -drift

    return ValueGrid(_rk4_march(g, n_steps, p.horizon, deriv, n_sub), p.horizon)


def evaluate_policy(p: Problem, alpha: FeedbackPolicy, n_steps: int = 2000) -> ValueGrid:
    """Gain J(t, x, alpha) on the whole grid (problem costs, terminal g)."""
    return solve_kolmogorov(
        p, alpha, g_vec=p.terminal_cost, f_running=policy_running_cost(p, alpha), n_steps=n_steps
    )


def solve_kolmogorov_pair(
    p: Problem, g_pair=None, f_pair=None, n_steps: int = 2000
) -> ValueGrid:
    """Backward equation for the pair generator on E x A.

    L phi(x, a) = sum_y (phi(y, a) - phi(x, a)) lambda(x, a, y)
                + sum_b (phi(x, b) - phi(x, a)) lambda0[b].
    g_pair may be a per-state vector (broadcast over actions) or an
    (n_states, n_actions) array; f_pair is a callable s -> layer or None.
    """
    if g_pair is None:
        g_pair = p.terminal_cost
    g = np.asarray(g_pair, dtype=float)
    if g.ndim == 1:
        g = np.repeat(g[:, None], p.n_actions, axis=1)
    lam0 = p.lambda0
    lam0_tot = float(lam0.sum())
    dt = p.horizon / n_steps
    n_sub = max(1, math.ceil(dt * pair_rate_bound(p) / _STABILITY))
    x_gen = pair_x_generator(p)

    def deriv(s, v):
        drift = x_gen(v) + (v @ lam0)[:, None] - lam0_tot * v
        if f_pair is not None:
            drift = drift + f_pair(s)
        return -drift

    return ValueGrid(_rk4_march(g, n_steps, p.horizon, deriv, n_sub), p.horizon)


def mc_check_markov(
    p: Problem,
    alpha: FeedbackPolicy,
    t: float,
    x: int,
    s: float,
    g_vec,
    n_paths: int,
    master_seed: int = 0,
    n_steps: int = 2000,
) -> dict:
    """Tower-property check E[P_sT[g](X_s)] vs E[g(X_T)] on shared paths.

    Both estimators use the same simulated paths, so at s = T the per-path
    difference is exactly zero.
    """
    if not (t <= s <= p.horizon + 1e-12):
        raise ValueError("need t <= s <= T")
    g = np.asarray(g_vec, dtype=float)
    grid = solve_kolmogorov(p, alpha, g_vec=g, f_running=None, n_steps=n_steps)
    paths = simulate_controlled_paths(p, alpha, t, x, n_paths, child_rng(master_seed, 0))
    mean, se = _mean_se(grid.layer_at(s)[paths.states_at(s)] - g[paths.states_at(p.horizon)])
    return {
        "difference": mean,
        "std_error": se,
        "n_paths": n_paths,
        "within_3se": bool(abs(mean) <= 3.0 * se + 1e-12),
    }
