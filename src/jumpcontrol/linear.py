"""Backward Kolmogorov solvers: policy evaluation and the pair semigroup.

Both are one linear march (_linear_march) of classical RK4. Every RK4
march, the penalized one too, sub-steps by _substeps and is walked by
_rk4_march; where its generator holds still, a sub-step is one product with
a step map (_step_maps) within the one size rule (_map_inputs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Problem, _interp, cost_layer, csv_field, pair_rate_bound, rate_bound, tilted_pair_generator, write_grid_csv,
)
from .simulate import FeedbackPolicy, _check_policy, _layer

_STABILITY = 0.5
# Largest n_steps * n_sub of one march. Far above the 2000 steps of a
# default march, and a march this long already takes tens of seconds.
MAX_RK4_STEPS = 1_000_000
_COST_BLOCK = 1 << 16  # bounds the cost table of one block of RK4 sub-steps


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

    def layer_at(self, s) -> np.ndarray:
        """Piecewise-linear time interpolation of the whole layer; see model._interp."""
        return _interp(self.values, s, self.horizon)

    def value_at(self, s: float, x: int, a: int | None = None) -> float:
        layer = self.layer_at(s)
        return float(layer[x] if a is None else layer[x, a])

    def to_csv(self, fileobj, states):
        """Rows (k, t, state, value) of a per-state grid in model's CSV
        dialect: byte for byte what csv.writer writes, with repr floats."""
        fields = [csv_field(s) for s in states]
        tails = ([f"{sx},{v!r}\r\n" for sx, v in zip(fields, layer)] for layer in self.values.tolist())
        write_grid_csv(fileobj, "k,t,state,value\r\n", self.times, tails, len(fields))


def _substeps(n_steps, T, bound, what, layers=1) -> int:
    """Sub-steps per grid step that keep h * bound below _STABILITY, rounded
    up to a multiple of layers // gcd(n_steps, layers) so that every edge of
    `layers` uniform layers over [0, T] is a sub-step boundary; a march past
    MAX_RK4_STEPS sub-steps in all raises ValueError naming `what`, as does an
    n_steps below 1."""
    if n_steps < 1:
        raise ValueError(f"{what}: n_steps must be at least 1, got {n_steps!r}")
    align = layers // math.gcd(n_steps, layers)
    n_sub = -(-max(1, math.ceil(T / n_steps * bound / _STABILITY)) // align) * align
    if n_steps * n_sub > MAX_RK4_STEPS:
        raise ValueError(
            f"{what} at rate bound {bound:g} needs {n_sub} RK4 sub-steps per grid step, "
            f"{n_steps * n_sub} in all, past the limit of {MAX_RK4_STEPS}"
        )
    return n_sub


def _rk4_substep(deriv, shape):
    """The classical RK4 sub-step of dv/ds = deriv(v) - c(s), backward by h,
    as a step of _rk4_march that takes sub-step i alone, in place, with the
    running cost costs[i] at its stage times (three arrays broadcasting
    against v), and returns None. deriv(v, out, gen), with the step's gen,
    writes the derivative at each stage input v in turn into out, a buffer
    of the given shape allocated once, and must not write v."""
    k1, k2, k3, k4, w = (np.empty(shape) for _ in range(5))

    def step(v, h, _rows, costs, i, gen=None):
        nonlocal k1, k2, k3, k4, w  # rebound to themselves by the in-place operators
        c = costs[i]
        deriv(v, k1, gen)
        k1 -= c[0]
        np.multiply(k1, -0.5 * h, out=w)
        w += v
        deriv(w, k2, gen)
        k2 -= c[1]
        np.multiply(k2, -0.5 * h, out=w)
        w += v
        deriv(w, k3, gen)
        k3 -= c[1]
        np.multiply(k3, -h, out=w)
        w += v
        deriv(w, k4, gen)
        k4 -= c[2]
        # v -= h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        v -= k2

    return step


def _rk4_march(v_terminal, n_steps, T, n_sub, step, cost=None):
    """March v backward from T to 0 on the uniform grid, n_sub sub-steps of
    length h per grid step, a block at a time: rows[i] = (s, s - h/2, s - h)
    are the stage times of the block's i-th sub-step and costs[i] the running
    cost there, zero if cost is None, else cost(stage times) (their shape
    first, the rest broadcasting against v) once per block. step(v, h, rows,
    costs, i) takes one or more sub-steps from the i-th on, none past the
    block's end, in place, and returns None after one or the values after each.
    """
    dt = T / n_steps
    h = dt / n_sub
    out = np.empty((n_steps + 1, *np.shape(v_terminal)))
    out[n_steps] = v = np.array(v_terminal, dtype=float, order="C")
    block = max(1, _COST_BLOCK // (3 * v.size))
    offsets = np.array([0.0, 0.5 * h, h])
    for top in range(n_steps * n_sub, 0, -block):
        ends = np.arange(top, max(top - block, 0), -1)
        nodes = -(-ends // n_sub)  # sub-step i below node k starts at t_k - i h
        times = (nodes * dt - (nodes * n_sub - ends) * h)[:, None] - offsets
        costs = ((0.0,) * 3,) * len(ends) if cost is None else cost(times)
        rows, i = times.tolist(), 0
        while i < len(rows):
            states = step(v, h, rows, costs, i)
            if states is None:  # sub-step e ends at (e - 1) h, on node (e - 1) / n_sub if that is whole
                i += 1
                if (top - i) % n_sub == 0:
                    out[(top - i) // n_sub] = v
                continue
            node, first = divmod(top - i - 1, n_sub)  # the first node among them, and its sub-step
            kept = states[first::n_sub]
            out[node + 1 - len(kept) : node + 1] = kept[::-1]
            i += len(states)
    return out


# Largest step map, in entries, of any march. Past it, the products and the
# rebuilds after sign changes of the penalized march cost more than the
# stages they replace (random 8 x 4 and 16 x 2 pair spaces, f timed).
_MAP_MAX_ENTRIES = 1 << 13


def _matmul(a, b, out=None):
    """a @ b over stacks of small matrices without BLAS, whose first
    matrix-matrix product pages in about 0.3 MB of peak memory."""
    return np.einsum("l...j,ljk->l...k", a, b, out=out)


def _map_inputs(m, f_row, cols):
    """The shape (rows, cols) of a step map on m values, and its inputs: the
    rows of v, then of c at the three stage times, 3 m rows if f_row is None,
    else f_row's (none or one). Past the size rule, None for both."""
    rows = m + (3 * m if f_row is None else len(f_row))
    if rows * cols > _MAP_MAX_ENTRIES:
        return (rows, cols), None, None
    costs = [np.eye(rows, m, -j * m) if f_row is None else np.eye(rows, len(f_row), -m) @ f_row for j in (1, 2, 3)]
    return (rows, cols), np.eye(rows, m), costs


def _step_maps(gens, basis, stage_costs, h):
    """Per G of gens, v' - v = v P + c C of one RK4 sub-step of dv/ds + G v +
    c = 0, backward by h, on the inputs of _map_inputs; and the stage inputs."""
    stages = []

    def deriv(x, out, neg_q):  # x is the increment so far, neg_q = -G for row vectors
        stages.append(basis + x)
        _matmul(stages[-1], neg_q, out)

    inc = np.zeros((len(gens), *basis.shape))
    _rk4_substep(deriv, inc.shape)(inc, h, None, [stage_costs], 0, np.negative(gens.swapaxes(1, 2), order="C"))
    return inc, stages


def _linear_march(g, gens, layer, n_steps, T, bound, what, cost=None) -> ValueGrid:
    """March dv/ds + G v + c = 0 backward from v(T) = g, G = gens[layer[j]] on
    the j-th of len(layer) uniform layers, each edge a sub-step boundary,
    acting on g's flat index; cost is as in _rk4_march. Within the size rule,
    the generators of the most layers, as many as the grid's size holds, take
    their sub-steps by step maps built at first use; the others by stages."""
    n_sub = _substeps(n_steps, T, bound, what, len(layer))
    m, gens, layer = g.size, np.asarray(gens), np.asarray(layer)
    (n_inputs, _), basis, stage_costs = _map_inputs(m, np.empty((0, m)) if cost is None else None, m)
    n_maps = 0 if basis is None else (n_steps + 1) // n_inputs
    maps = dict.fromkeys(np.argsort(-np.bincount(layer), kind="stable")[:n_maps].tolist())
    x, layer, neg_gens = np.empty(n_inputs), layer.tolist(), -gens  # a map's inputs: v, then c
    c = x[m:].reshape(-1, *g.shape)
    stage_rule = _rk4_substep(lambda v, out, q: np.dot(q, v.reshape(-1), out=out.reshape(-1)), g.shape)

    def step(v, h, rows, costs, i):
        j = layer[_layer(rows[i][1], T, len(layer))]
        if j not in maps:
            return stage_rule(v, h, rows, costs, i, neg_gens[j])
        if maps[j] is None:
            maps[j] = _step_maps(gens[j : j + 1], basis, stage_costs, h)[0][0]
        flat = v.reshape(-1)
        x[:m] = flat
        if cost is not None:
            c[...] = costs[i]
        flat += x @ maps[j]

    return ValueGrid(_rk4_march(g, n_steps, T, n_sub, step, cost), T)


def solve_kolmogorov(
    p: Problem,
    alpha: FeedbackPolicy,
    g_vec=None,
    f_running=None,
    n_steps: int = 2000,
) -> ValueGrid:
    """Solve the backward equation dv/ds + L_s v + f = 0, v(T) = g.

    L_s is the generator of X under the feedback law alpha. Each sub-step, and
    each row of stage times handed to f_running, lies in one policy layer;
    f_running maps them to the running cost, of shape times.shape +
    (n_states,), or is None for zero. Raises ValueError for a policy of
    another horizon or whose table does not give every state one of p's
    actions, or for a march past MAX_RK4_STEPS.
    """
    _check_policy(alpha, p)
    g = p.terminal_cost if g_vec is None else np.asarray(g_vec, dtype=float)
    n_layers, nS, nA = max(alpha.n_layers, 1), p.n_states, p.n_actions
    rows, layer = np.unique(alpha.table[:n_layers], axis=0, return_inverse=True)
    gens = p.x_generator.reshape(nS, nA, nS, nA)[np.arange(nS), rows, :, rows]  # L_X under each distinct row
    what = f"solve_kolmogorov of a {n_layers}-layer policy"
    return _linear_march(g, gens, layer, n_steps, p.horizon, rate_bound(p), what, f_running)


def evaluate_policy(p: Problem, alpha: FeedbackPolicy, n_steps: int = 2000) -> ValueGrid:
    """Gain J(t, x, alpha) on the whole grid (problem costs, terminal g)."""

    def f_running(ts):  # f(s, x, alpha(s, x)), alpha read at each sub-step's middle stage time
        return cost_layer(p, ts[..., None], np.arange(p.n_states), alpha.table[alpha.layer_index(ts[:, 1:2])])

    return solve_kolmogorov(p, alpha, g_vec=p.terminal_cost, f_running=f_running, n_steps=n_steps)


def solve_kolmogorov_pair(
    p: Problem, g_pair=None, f_pair=None, n_steps: int = 2000
) -> ValueGrid:
    """Backward equation for the pair generator on E x A (tilted at w = 1).
    g_pair is a per-state vector (broadcast over actions) or (n_states,
    n_actions); f_pair is None or as f_running, of layers (n_states, n_actions).
    """
    if g_pair is None:
        g_pair = p.terminal_cost
    nS, nA = p.n_states, p.n_actions
    g = np.broadcast_to(np.reshape(g_pair, (nS, -1)), (nS, nA))
    gen = tilted_pair_generator(p, np.ones((nS, nA, nA)))
    return _linear_march(g, [gen], [0], n_steps, p.horizon, pair_rate_bound(p), "solve_kolmogorov_pair", f_pair)
