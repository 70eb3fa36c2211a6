"""Problem data for finite-horizon control of finite-state pure jump processes.

A problem is a controlled rate kernel lambda[x][a][y] on a finite state space,
a strictly positive base intensity lambda0 on the action space, running and
terminal costs, and a horizon. All integrals over states/actions are finite
sums, so every solver in this package can be checked exactly.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _readonly(a, dtype=float):
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Problem:
    """Immutable problem data.

    rates has shape (n_states, n_actions, n_states); self-jumps (positive
    diagonal entries) are allowed and are treated as genuine jump events.
    running_cost is either (n_states, n_actions), constant in time, or
    (K, n_states, n_actions) sampled at the uniform nodes k*T/(K-1) and
    interpolated piecewise-linearly in between.
    """

    states: tuple
    actions: tuple
    rates: np.ndarray
    lambda0: np.ndarray
    running_cost: np.ndarray
    terminal_cost: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "rates", _readonly(self.rates))
        object.__setattr__(self, "lambda0", _readonly(self.lambda0))
        object.__setattr__(self, "running_cost", _readonly(self.running_cost))
        object.__setattr__(self, "terminal_cost", _readonly(self.terminal_cost))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    @property
    def row_sums(self):
        """Total jump rate lambda(x, a, E) as an (n_states, n_actions) array."""
        return self.rates.sum(axis=2)

    @cached_property
    def x_generator(self) -> np.ndarray:
        """L_X^a, the generator of X under the frozen action a, as one matrix
        on the flat pair state x * n_actions + a; built on first use."""
        gen = np.einsum("xay,ab->xayb", self.rates, np.eye(self.n_actions)).reshape(self.row_sums.size, -1)
        gen[np.diag_indices_from(gen)] -= self.row_sums.ravel()
        return _readonly(gen)


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters shared by the solvers and diagnostic suites."""

    n_steps: int = 2000
    picard_tol: float = 1e-10
    mc_paths: int = 20_000
    penalization_levels: tuple = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not 0 < self.picard_tol < 1:  # NaN and inf too; at 1 or more every sweep passes
            raise ValueError("picard_tol must be positive and below 1")
        if self.mc_paths < 1:
            raise ValueError("mc_paths must be at least 1")
        levels = tuple(int(n) for n in self.penalization_levels)
        if len(levels) < 2:  # the monotonicity and decay checks compare successive levels
            raise ValueError(f"at least two penalization levels are needed; got {len(levels)}")
        if any(n <= 0 for n in levels):
            raise ValueError("penalization levels must be positive integers")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("penalization levels must be strictly increasing")
        object.__setattr__(self, "penalization_levels", levels)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, location, detail):
        self.violations.append({"kind": kind, "location": location, "detail": detail})

    def __str__(self):
        if self.ok:
            return "problem admissible"
        return "; ".join(f"{v['kind']} at {v['location']}: {v['detail']}" for v in self.violations)


def validate_problem(p: Problem) -> ValidationReport:
    """Check admissibility of the problem data; pure and idempotent.

    Returns a report listing every violation (repeated label, negative or
    non-finite rate, a lambda0 entry without full support, non-finite cost,
    bad horizon); the report is empty iff the problem is admissible.
    """
    rep = ValidationReport()
    nS, nA = p.n_states, p.n_actions
    for kind, labels in (("state", p.states), ("action", p.actions)):
        for label, count in Counter(labels).items():
            if count > 1:
                rep.add(f"repeated {kind} label", repr(label), f"{count} times")
    if p.rates.shape != (nS, nA, nS):
        rep.add("rates shape", p.rates.shape, f"expected {(nS, nA, nS)}")
        return rep
    if p.lambda0.shape != (nA,):
        rep.add("lambda0 shape", p.lambda0.shape, f"expected {(nA,)}")
        return rep
    bad = ~np.isfinite(p.rates)
    for idx in np.argwhere(bad):
        rep.add("non-finite rate", tuple(int(i) for i in idx), float("nan"))
    neg = np.isfinite(p.rates) & (p.rates < 0)
    for idx in np.argwhere(neg):
        rep.add("negative rate", tuple(int(i) for i in idx), float(p.rates[tuple(idx)]))
    for b in range(nA):
        lb = p.lambda0[b]
        if not np.isfinite(lb):
            rep.add("non-finite lambda0", b, float("nan"))
        elif lb <= 0:
            rep.add("lambda0 support", b, float(lb))
    if p.running_cost.ndim not in (2, 3):
        rep.add("running_cost shape", p.running_cost.shape, "expected 2-D or 3-D")
    elif p.running_cost.shape[-2:] != (nS, nA):
        rep.add("running_cost shape", p.running_cost.shape, f"trailing axes must be {(nS, nA)}")
    elif p.running_cost.ndim == 3 and p.running_cost.shape[0] < 2:
        rep.add("running_cost shape", p.running_cost.shape, "time axis needs at least 2 layers")
    if not np.all(np.isfinite(p.running_cost)):
        rep.add("non-finite running cost", "f", "NaN or inf entry")
    if p.terminal_cost.shape != (nS,):
        rep.add("terminal_cost shape", p.terminal_cost.shape, f"expected {(nS,)}")
    elif not np.all(np.isfinite(p.terminal_cost)):
        rep.add("non-finite terminal cost", "g", "NaN or inf entry")
    if not (math.isfinite(p.horizon) and p.horizon > 0):
        rep.add("horizon", "T", float(p.horizon))
    return rep


def rate_bound(p: Problem) -> float:
    """Uniform bound Lambda_E = max over (x, a) of the total jump rate."""
    return float(p.row_sums.max())


def pair_rate_bound(p: Problem) -> float:
    """Rate bound for the pair process (X, I): Lambda_E plus the lambda0 mass."""
    return rate_bound(p) + float(p.lambda0.sum())


def tilted_pair_generator(p: Problem, w) -> np.ndarray:
    """L_X^a phi(x, a) + sum_b w(x, a, b) lambda0[b] (phi(x, b) - phi(x, a)),
    I's intensity tilted by w (..., x, a, b; w(x, a, a) unread), one matrix
    on the flat pair index per leading index: w = 1 is the generator of (X, I)."""
    nS, nA, m = p.n_states, p.n_actions, p.n_states * p.n_actions
    rate = w * p.lambda0  # rate[..., x, a, b], and at b = a minus the total
    diagonal = np.einsum("...aa->...a", rate)  # a view, as are the blocks below
    diagonal[...] = 0.0
    diagonal -= rate.sum(axis=-1)
    gen = p.x_generator + np.zeros((*rate.shape[:-3], m, m))
    blocks = np.einsum("...xaxb->...xab", gen.reshape(*rate.shape[:-3], nS, nA, nS, nA))
    blocks += rate
    return gen


def grid_cell(t, T: float, n: int):
    """Cell index and weight of t on the uniform grid of n cells over [0, T].

    Returns (k, w) with t = (k + w) T / n, 0 <= k < n and 0 <= w <= 1,
    after clamping t to [0, T]; t may be a scalar or an array.
    """
    u = np.minimum(np.maximum(np.divide(t, T), 0.0), 1.0) * n
    k = np.minimum(u.astype(np.int64), n - 1)
    return k, u - k


def check_times(t, T: float) -> None:
    """Raise ValueError unless every time in t lies in [0, T], up to 1e-12."""
    t_lo, t_hi = (t, t) if np.ndim(t) == 0 else (np.min(t, initial=np.inf), np.max(t, initial=-np.inf))
    if t_lo < -1e-12 or t_hi > T + 1e-12:
        raise ValueError(f"time {t_lo if t_lo < -1e-12 else t_hi} outside [0, {T}]")


def _interp(table, t, T: float, *index) -> np.ndarray:
    """Piecewise-linear time interpolation of a node table table[k, ...] on
    the uniform grid over [0, T], whole or at the leading indices `index`.

    t and the indices may be arrays; they broadcast, and their shape leads
    the result. Raises ValueError for a time outside [0, T].
    """
    check_times(t, T)
    return _interp_cells(table, *grid_cell(t, T, table.shape[0] - 1), *index)


def _interp_cells(table, k, w, *index) -> np.ndarray:
    """_interp at times already located on the table's grid: cell k, weight w."""
    w = w[(...,) + (None,) * (table.ndim - 1 - len(index))]
    return (1.0 - w) * table[(k, *index)] + w * table[(k + 1, *index)]


def cost_layer(p: Problem, t, *index) -> np.ndarray:
    """Running cost at time t as an (n_states, n_actions) array, or only its
    entries at the leading indices `index`, as in _interp.

    Piecewise-linear in t between the sampled nodes; exact at nodes. Array
    times and indices broadcast, and their shape leads the result.
    """
    f = p.running_cost
    if f.ndim == 3:
        return _interp(f, t, p.horizon, *index)
    check_times(t, p.horizon)
    return np.broadcast_to(f[index], np.broadcast(t, *index).shape + f.shape[len(index):])


def cost_at(p: Problem, t: float, x: int, a: int) -> float:
    """Running cost f(t, x, a); see cost_layer for the interpolation rule."""
    return float(cost_layer(p, t)[x, a])


def problem_from_dict(doc: dict) -> Problem:
    """Build a Problem from the JSON model schema.

    Keys: states, actions, rates [x][a][y], lambda0, f (scalar | [x][a] |
    [k][x][a]), g, T. Scalar or 2-D f broadcasts over the missing axes.
    """
    states = tuple(str(s) for s in doc["states"])
    actions = tuple(str(a) for a in doc["actions"])
    nS, nA = len(states), len(actions)
    f = doc["f"]
    if np.isscalar(f):
        f = np.full((nS, nA), float(f))
    else:
        f = np.asarray(f, dtype=float)
    return Problem(
        states=states,
        actions=actions,
        rates=np.asarray(doc["rates"], dtype=float),
        lambda0=np.asarray(doc["lambda0"], dtype=float),
        running_cost=f,
        terminal_cost=np.asarray(doc["g"], dtype=float),
        horizon=float(doc["T"]),
    )


def problem_to_dict(p: Problem) -> dict:
    return {
        "states": list(p.states),
        "actions": list(p.actions),
        "rates": p.rates.tolist(),
        "lambda0": p.lambda0.tolist(),
        "f": p.running_cost.tolist(),
        "g": p.terminal_cost.tolist(),
        "T": p.horizon,
    }


def load_problem(path) -> Problem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
