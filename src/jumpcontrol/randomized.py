"""Girsanov tilting of the pair process and the dual gain functional.

The tilted measure multiplies the I-component's intensity by a bounded
positive field nu. Its density with respect to the reference pair law is
the Doleans-Dade exponential

    L_T = exp( int_t^T sum_b (1 - nu(r, X, I, b)) lambda0[b] dr )
          * prod_{jumps} ( nu(T_j, X-, I-, A_j) d1 + d2 ),

where (d1, d2) splits the compensator mass at the realized mark between
the I-channel and the X-channel. The dual gain J(t, x, a, nu) is estimated
two independent ways: importance sampling under the reference dynamics
(weight L_T) and direct simulation under the tilted dynamics.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import Problem
from .penalized import PenalizedSolution
from .simulate import (
    NU_MIN,
    IntensityControl,
    Path,
    child_rng,
    constant_control,
    running_cost_along_path,
    simulate_pair_path,
    simulate_tilted_path,
)


class ImpossibleMarkError(ValueError):
    pass


@dataclass(frozen=True)
class GirsanovWeight:
    log_weight: float

    @property
    def weight(self) -> float:
        return math.exp(self.log_weight)


def d_split(p: Problem, x_pre: int, i_pre: int, y: int, b: int) -> tuple[float, float]:
    """Compensator mass split (d1, d2) at the mark (y, b) from (x_pre, i_pre).

    d1 is the I-channel share lambda0[b] 1{y = x_pre}, d2 the X-channel
    share lambda(x_pre, i_pre, y) 1{b = i_pre}, normalized to sum to 1. A
    mark carrying no mass in either channel cannot occur on a simulated
    path and raises ImpossibleMarkError.
    """
    m1 = float(p.lambda0[b]) if y == x_pre else 0.0
    m2 = float(p.rates[x_pre, i_pre, y]) if b == i_pre else 0.0
    tot = m1 + m2
    if tot <= 0.0:
        raise ImpossibleMarkError(
            f"mark (y={y}, b={b}) from (x={x_pre}, i={i_pre}) has zero compensator mass"
        )
    return m1 / tot, m2 / tot


def girsanov_weight(p: Problem, nu: IntensityControl, path: Path) -> GirsanovWeight:
    """Density L_T of the nu-tilted law along a reference pair path.

    The time integral is exact: nu is piecewise-constant in time and the
    path state is piecewise-constant, so the integrand is a step function
    whose breakpoints are the control layer edges and the jump times.
    Accumulation is in log domain.
    """
    if path.a_marks is None:
        raise ValueError("girsanov_weight needs a pair path")
    if abs(nu.horizon - path.horizon) > 1e-12:
        raise ValueError("control and path horizons differ")
    T = path.horizon
    lam0 = p.lambda0.tolist()
    lam0_tot = float(p.lambda0.sum())
    rates = p.rates

    # drift[j][x][a] = sum_b (1 - nu_j(x, a, b)) lambda0[b], cached on the control.
    cache = nu.__dict__.get("_weight_cache")
    if cache is None:
        drift = (lam0_tot - nu.field @ p.lambda0).tolist()
        cache = {"drift": drift, "field": nu.field.tolist()}
        object.__setattr__(nu, "_weight_cache", cache)
    drift, field = cache["drift"], cache["field"]
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
            # Integrate the piecewise-constant drift over [lo, hi).
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
            m2 = float(rates[x_pre, a_pre, y]) if b == a_pre else 0.0
            tot = m1 + m2
            if tot <= 0.0:
                raise ImpossibleMarkError(
                    f"mark (y={y}, b={b}) from (x={x_pre}, i={a_pre}) has zero compensator mass"
                )
            jl = min(int(hi * scale + 1e-12), last_layer)
            log_w += math.log((field[jl][x_pre][a_pre][b] * m1 + m2) / tot)
            lo, x_pre, a_pre = hi, y, b
    return GirsanovWeight(log_w)


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return float(samples.mean()), se


def dual_gain_importance(
    p: Problem,
    nu: IntensityControl,
    t: float,
    x: int,
    a: int,
    n_paths: int,
    master_seed: int = 0,
    paths=None,
) -> tuple[float, float]:
    """J(t, x, a, nu) by importance sampling under the reference dynamics.

    Pass `paths` (simulated under the reference pair law from (t, x, a)) to
    reuse one batch across several controls.
    """
    g = p.terminal_cost
    if paths is None:
        paths = (
            simulate_pair_path(p, t, x, a, None, rng=child_rng(master_seed, i))
            for i in range(n_paths)
        )
    samples = np.empty(n_paths)
    for i, path in enumerate(paths):
        payoff = float(g[path.state_at(p.horizon)]) + running_cost_along_path(p, path)
        samples[i] = math.exp(girsanov_weight(p, nu, path).log_weight) * payoff
    return _mean_se(samples)


def dual_gain_direct(
    p: Problem,
    nu: IntensityControl,
    t: float,
    x: int,
    a: int,
    n_paths: int,
    master_seed: int = 0,
) -> tuple[float, float]:
    """J(t, x, a, nu) by direct simulation under the tilted dynamics."""
    g = p.terminal_cost
    samples = np.empty(n_paths)
    for i in range(n_paths):
        path = simulate_tilted_path(p, nu, t, x, a, None, rng=child_rng(master_seed, i))
        samples[i] = float(g[path.state_at(p.horizon)]) + running_cost_along_path(p, path)
    return _mean_se(samples)


def girsanov_mean_weight(
    p: Problem,
    nu: IntensityControl,
    t: float,
    x: int,
    a: int,
    n_paths: int,
    master_seed: int = 0,
    paths=None,
) -> tuple[float, float]:
    """MC mean of L_T; the martingale property makes the target exactly 1."""
    if paths is None:
        paths = (
            simulate_pair_path(p, t, x, a, None, rng=child_rng(master_seed, i))
            for i in range(n_paths)
        )
    samples = np.empty(n_paths)
    for i, path in enumerate(paths):
        samples[i] = math.exp(girsanov_weight(p, nu, path).log_weight)
    return _mean_se(samples)


def greedy_control_from_vn(
    p: Problem, vn: PenalizedSolution, n_layers: int = 64
) -> IntensityControl:
    """Bang-bang tilt synthesized from a penalized solution.

    nu(t, x, a, b) = n where v^n(t, x, b) > v^n(t, x, a), else the floor
    NU_MIN: push the I-component toward actions the penalized value ranks
    higher. Its dual gain approaches v^n(t, x, a) as the floor vanishes.
    """
    level = max(vn.level, 1)
    edges = np.linspace(0.0, p.horizon, n_layers + 1)
    field = np.full((n_layers, p.n_states, p.n_actions, p.n_actions), NU_MIN)
    for j in range(n_layers):
        layer = vn.values.layer_at(0.5 * (edges[j] + edges[j + 1]))  # (x, a)
        better = layer[:, None, :] > layer[:, :, None]  # [x, a, b]: v(x,b) > v(x,a)
        field[j][better] = float(level)
    return IntensityControl(field, p.horizon, float(level))


@dataclass
class DualCheckRow:
    control_id: str
    start_a: int
    estimator: str
    mean: float
    std_error: float
    n_paths: int


@dataclass
class DualCheckReport:
    rows: list
    primal_value: float
    greedy_targets: dict  # start action -> v^n(t, x, a)
    all_below_primal: bool
    greedy_reaches_target: bool

    def to_csv(self, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["control_id", "start_a", "estimator", "mean", "std_error", "n_paths"])
        for r in self.rows:
            w.writerow([r.control_id, r.start_a, r.estimator, repr(r.mean), repr(r.std_error), r.n_paths])


def dual_value_check(
    p: Problem,
    t: float,
    x: int,
    primal_value: float,
    vn: PenalizedSolution,
    controls: list | None = None,
    n_paths: int = 20_000,
    master_seed: int = 0,
    tolerance: float = 1e-2,
    start_actions=None,
) -> DualCheckReport:
    """Weak-duality and near-attainment check for the dual problem.

    Every candidate gain must stay below the primal value (up to 3 SE plus
    the scheme tolerance); the greedy control synthesized from v^n must
    reach v^n(t, x, a) from every start action (down to 3 SE plus the
    tolerance). A NaN estimate or standard error fails its check.
    """
    if controls is None:
        controls = []
    candidates = [("nu=1", constant_control(p, 1.0))] + list(controls)
    greedy = greedy_control_from_vn(p, vn)
    candidates.append(("greedy", greedy))
    if start_actions is None:
        start_actions = range(p.n_actions)
    rows = []
    all_below = True
    greedy_ok = True
    greedy_targets = {}
    for a in start_actions:
        greedy_targets[int(a)] = vn.values.value_at(t, x, int(a))
    for cid, nu in candidates:
        for a in start_actions:
            est, se = dual_gain_direct(p, nu, t, x, int(a), n_paths, master_seed)
            rows.append(DualCheckRow(cid, int(a), "direct", est, se, n_paths))
            # Written as "passes iff inside the band", so a NaN fails.
            if not est <= primal_value + 3.0 * se + tolerance:
                all_below = False
            if cid == "greedy" and not est >= greedy_targets[int(a)] - 3.0 * se - tolerance:
                greedy_ok = False
    return DualCheckReport(rows, primal_value, greedy_targets, all_below, greedy_ok)
