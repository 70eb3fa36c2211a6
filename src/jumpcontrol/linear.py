"""Backward Kolmogorov solvers: policy evaluation and the pair semigroup.

Both equations are linear and smooth in time, so they are marched backward
with classical 4-stage Runge-Kutta. Every RK4 march, the penalized one
too, sub-steps to keep the sub-step times its rate bound below 0.5 and
refuses more than MAX_RK4_STEPS sub-steps in all (_substeps). One marcher
(_rk4_march) walks the sub-steps and tabulates the running cost, a
function of an array of stage times, once per block of them; the step is
an argument, and takes one or more sub-steps per call. Both Kolmogorov
solvers are one linear march (_linear_march) of the classical stage rule
(_rk4_substep) with one generator per uniform layer, every layer edge a
sub-step boundary; the penalized march builds its step maps by it, and
takes it where its penalty's argument changes sign.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Problem, _interp, cost_layer, pair_rate_bound, rate_bound
from .simulate import FeedbackPolicy, _check_horizon, _layer

_STABILITY = 0.5
# Largest n_steps * n_sub of one march. Far above the 2000 steps of a
# default march, and a march this long already takes tens of seconds.
MAX_RK4_STEPS = 1_000_000
_CSV_CHUNK_ROWS = 4096
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
        """Rows (k, t, state, value) of a per-state grid with repr floats,
        byte for byte what csv.writer writes."""
        fields = [csv_field(s) for s in states]
        tails = ([f"{sx},{v!r}\r\n" for sx, v in zip(fields, layer)] for layer in self.values.tolist())
        write_grid_csv(fileobj, "k,t,state,value\r\n", self.times, tails, len(fields))


def csv_field(label) -> str:
    """label as csv.writer writes it inside a row: quoted only where needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow((label, ""))
    return buf.getvalue()[: -len(",\r\n")]


def write_csv_rows(fileobj, header, rows, chunk=_CSV_CHUNK_ROWS):
    """Write the header line, then the finished row lines `chunk` at a time,
    so that neither the whole text nor one write call per row is needed."""
    fileobj.write(header)
    rows = iter(rows)
    while text := "".join(itertools.islice(rows, chunk)):
        fileobj.write(text)


def write_grid_csv(fileobj, header, times, tails, width):
    """Write the header line, then each time layer k of `width` rows as one
    string: its rows share the prefix "k,t,", joined with the layer's
    finished row tails; about _CSV_CHUNK_ROWS rows go out per write."""
    prefixes = (f"{k},{t!r}," for k, t in enumerate(times.tolist()))
    layers = (pre + pre.join(layer) for pre, layer in zip(prefixes, tails))
    write_csv_rows(fileobj, header, layers, max(1, _CSV_CHUNK_ROWS // width))


def _substeps(n_steps, T, bound, what, layers=1) -> int:
    """Sub-steps per grid step that keep h * bound below _STABILITY, rounded
    up to a multiple of layers // gcd(n_steps, layers) so that every edge of
    `layers` uniform layers over [0, T] is a sub-step boundary; a march past
    MAX_RK4_STEPS sub-steps in all raises ValueError naming `what`."""
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
    as a step of _rk4_march: step(v, h, rows, costs, i) takes sub-step i
    alone, in place, with the running cost costs[i] at its stage times s,
    s - h/2 and s - h (three arrays broadcasting against v; rows is not
    read), and returns None. deriv(v, out) is called on each stage input in
    turn, v first; it writes into out, a stage buffer of the given shape
    allocated once, and must not write v.
    """
    k1, k2, k3, k4, w = (np.empty(shape) for _ in range(5))

    def step(v, h, _rows, costs, i):
        nonlocal k1, k2, k3, k4, w  # rebound to themselves by the in-place operators
        c = costs[i]
        deriv(v, k1)
        k1 -= c[0]
        np.multiply(k1, -0.5 * h, out=w)
        w += v
        deriv(w, k2)
        k2 -= c[1]
        np.multiply(k2, -0.5 * h, out=w)
        w += v
        deriv(w, k3)
        k3 -= c[1]
        np.multiply(k3, -h, out=w)
        w += v
        deriv(w, k4)
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
    """March v backward from T to 0 on the uniform grid, n_sub equal
    sub-steps of length h per grid step.

    The sub-steps are walked a block at a time: rows[i] = (s, s - h/2, s - h)
    are the stage times of the block's i-th sub-step and costs[i] the
    running cost there, zero if cost is None. cost maps an array of stage
    times to the running cost (the times' shape leads; the rest broadcasts
    against v), once per block of at most _COST_BLOCK entries of v's size.
    step(v, h, rows, costs, i) takes one or more sub-steps from the i-th
    on, none past the block's end, in place on v. It returns None after
    one, or the values after each, stacked; the march keeps the grid nodes.
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


def _linear_march(g, gens, layer, n_steps, T, bound, what, cost=None) -> ValueGrid:
    """March dv/ds + G v + c = 0 backward from v(T) = g, G = gens[layer[j]] on
    the j-th of len(layer) uniform layers, acting on g's flat index; cost is
    as in _rk4_march. Every layer edge is a sub-step boundary (_substeps), so
    each sub-step reads the one generator of the layer holding its midpoint."""
    n_sub = _substeps(n_steps, T, bound, what, len(layer))
    neg_gens, layer = -np.asarray(gens), np.asarray(layer).tolist()
    current = [None]  # -G of the sub-step being taken, set by step
    rk4 = _rk4_substep(lambda v, out: np.dot(current[0], v.reshape(-1), out=out.reshape(-1)), g.shape)

    def step(v, h, rows, costs, i):
        current[0] = neg_gens[layer[_layer(rows[i][1], T, len(layer))]]
        rk4(v, h, rows, costs, i)

    return ValueGrid(_rk4_march(g, n_steps, T, n_sub, step, cost), T)


def solve_kolmogorov(
    p: Problem,
    alpha: FeedbackPolicy,
    g_vec=None,
    f_running=None,
    n_steps: int = 2000,
) -> ValueGrid:
    """Solve the backward equation dv/ds + L_s v + f = 0, v(T) = g.

    L_s is the generator of X under the feedback law alpha, taken from
    Problem.x_generator once per distinct action row. With L policy layers on
    N steps the sub-step count is a multiple of L / gcd(N, L), so that each
    sub-step, and each row of the stage times handed to f_running, lies in
    one layer. f_running maps such an array to the running cost there, of
    shape times.shape + (n_states,), or is None for zero running cost. The
    value of the policy from (t, x) is the grid entry at (t, x). Raises
    ValueError for a policy of another horizon or a march past MAX_RK4_STEPS.
    """
    _check_horizon(alpha, p)
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
    """Backward equation for the pair generator on E x A.

    L phi(x, a) = sum_y (phi(y, a) - phi(x, a)) lambda(x, a, y)
                + sum_b (phi(x, b) - phi(x, a)) lambda0[b].
    g_pair may be a per-state vector (broadcast over actions) or an
    (n_states, n_actions) array; f_pair is None or, as f_running of
    solve_kolmogorov, maps stage times to layers of shape (n_states, n_actions).
    """
    if g_pair is None:
        g_pair = p.terminal_cost
    nS, nA = p.n_states, p.n_actions
    g = np.broadcast_to(np.reshape(g_pair, (nS, -1)), (nS, nA))
    gen = p.x_generator + np.kron(np.eye(nS), p.lambda0 - p.lambda0.sum() * np.eye(nA))
    return _linear_march(g, [gen], [0], n_steps, p.horizon, pair_rate_bound(p), "solve_kolmogorov_pair", f_pair)
