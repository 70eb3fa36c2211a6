"""Girsanov tilting of the pair process and the dual gain functional.

The tilted measure multiplies the I-component's intensity by a bounded
positive field nu. Its density with respect to the reference pair law is
the Doleans-Dade exponential

    L_T = exp( int_t^T sum_b (1 - nu(r, X, I, b)) lambda0[b] dr )
          * prod_{jumps} ( nu(T_j, X-, I-, A_j) d1 + d2 ),

where (d1, d2) splits the compensator mass at the realized mark between
the I-channel and the X-channel. log L_T is computed for a batch of paths:
the drift through the segment integrator of simulate, the marks over the
flat array of jumps. The dual gain J(t, x, a, nu) is estimated two
independent ways: importance sampling under the reference dynamics
(weight L_T) and direct simulation under the tilted dynamics. One exact
batch sampler draws both laws (simulate.simulate_pair_sample): the
reference pair is its nu = 1 case. Both, and the mean weight, are one
call each of simulate._estimate: parts of 256 paths, n_paths >= 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Problem, write_csv_rows
from .penalized import PenalizedSolution
from .simulate import (
    NU_MIN, IntensityControl, PathBatch, _check_horizon, _estimate, _per_path, _prefix, _running_costs,
    constant_control,
)

# Allowance for the grid schemes' error in both bands of dual_value_check.
_DUAL_TOLERANCE = 1e-2


class ImpossibleMarkError(ValueError):
    pass


def d_split(p: Problem, x_pre, i_pre, y, b):
    """Compensator mass split (d1, d2) at the mark (y, b) from (x_pre, i_pre).

    d1 is the I-channel share lambda0[b] 1{y = x_pre}, d2 the X-channel
    share lambda(x_pre, i_pre, y) 1{b = i_pre}, normalized to sum to 1. The
    arguments may be arrays of jumps; they broadcast. A mark carrying no
    mass in either channel cannot occur on a simulated path and raises
    ImpossibleMarkError.
    """
    x_pre, i_pre, y, b = np.broadcast_arrays(x_pre, i_pre, y, b)
    m1 = np.where(y == x_pre, p.lambda0[b], 0.0)
    m2 = np.where(b == i_pre, p.rates[x_pre, i_pre, y], 0.0)
    tot = m1 + m2
    if not np.all(tot > 0.0):
        j = np.argmin(tot > 0.0)
        raise ImpossibleMarkError(
            f"mark (y={y.flat[j]}, b={b.flat[j]}) from (x={x_pre.flat[j]}, i={i_pre.flat[j]}) "
            "has zero compensator mass"
        )
    return m1 / tot, m2 / tot


def _log_weights(p: Problem, nu: IntensityControl, paths) -> np.ndarray:
    """log L_T of the nu-tilted law along each reference pair path of a list
    or a PathBatch, exactly: the drift is constant on each segment within a
    layer of nu, and a jump at T still carries its mark term."""
    T = p.horizon
    _check_horizon(nu, p)
    drift = float(p.lambda0.sum()) - nu.field @ p.lambda0  # [j, x, a]
    batch = PathBatch.from_paths(paths, T)
    log_w = _per_path(batch, (_prefix(drift * (T / nu.n_layers)), lambda k, s0, s1, x, a: drift[k, x, a] * (s1 - s0)))
    y, b = batch.x_marks, batch.a_marks
    # The state before each jump: the previous mark, or the start for a path's first jump.
    moved = np.diff(batch.offsets) > 0
    first = batch.offsets[:-1][moved]
    x_pre, a_pre = np.roll(y, 1), np.roll(b, 1)
    x_pre[first] = batch.x0[moved]
    a_pre[first] = batch.a0[moved]
    d1, d2 = d_split(p, x_pre, a_pre, y, b)
    marks = np.log(nu.field[nu.layer_index(batch.times), x_pre, a_pre, b] * d1 + d2)
    return log_w + np.bincount(batch.owner, weights=marks, minlength=len(batch))


def _payoffs(p: Problem, batch: PathBatch) -> np.ndarray:
    """g(X_T) plus the running cost along each path of a batch."""
    return p.terminal_cost[batch.states_at(p.horizon)] + _running_costs(p, batch)


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

    Pass `paths` to reuse one batch of reference pair paths across several
    controls, as simulate._estimate takes them.
    """
    return _estimate(
        p, None, t, x, a, n_paths, master_seed, paths, lambda b: np.exp(_log_weights(p, nu, b)) * _payoffs(p, b)
    )


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
    return _estimate(p, nu, t, x, a, n_paths, master_seed, None, lambda b: _payoffs(p, b))


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
    """MC mean of L_T, exactly 1 by the martingale property; `paths` as for
    dual_gain_importance."""
    return _estimate(p, None, t, x, a, n_paths, master_seed, paths, lambda b: np.exp(_log_weights(p, nu, b)))


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
    layers = vn.values.layer_at(0.5 * (edges[:-1] + edges[1:]))  # (j, x, a) at the midpoints
    better = layers[:, :, None, :] > layers[:, :, :, None]  # [j, x, a, b]: v(x,b) > v(x,a)
    return IntensityControl(np.where(better, float(level), NU_MIN), p.horizon, float(level))


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
    all_below_primal: bool
    greedy_reaches_target: bool

    def to_csv(self, fileobj):
        """One row per estimate in model's CSV dialect; no control id or estimator needs quoting."""
        rows = (
            f"{r.control_id},{r.start_a},{r.estimator},{r.mean!r},{r.std_error!r},{r.n_paths}\r\n" for r in self.rows
        )
        write_csv_rows(fileobj, "control_id,start_a,estimator,mean,std_error,n_paths\r\n", rows)


def dual_value_check(
    p: Problem,
    t: float,
    x: int,
    primal_value: float,
    vn: PenalizedSolution,
    n_paths: int = 20_000,
    master_seed: int = 0,
) -> DualCheckReport:
    """Weak-duality and near-attainment check for the dual problem.

    The gains of nu = 1 and of the greedy control synthesized from v^n, from
    every start action, must stay below the primal value (up to 3 SE plus
    _DUAL_TOLERANCE); the greedy gain must reach v^n(t, x, a) (down to 3 SE
    plus the same tolerance). A NaN estimate or standard error fails its check.
    """
    candidates = [("nu=1", constant_control(p, 1.0)), ("greedy", greedy_control_from_vn(p, vn))]
    rows, all_below, greedy_ok = [], True, True
    for cid, nu in candidates:
        for a in range(p.n_actions):
            est, se = dual_gain_direct(p, nu, t, x, a, n_paths, master_seed)
            rows.append(DualCheckRow(cid, a, "direct", est, se, n_paths))
            # Written as "passes iff inside the band", so a NaN fails.
            if not est <= primal_value + 3.0 * se + _DUAL_TOLERANCE:
                all_below = False
            if cid == "greedy" and not est >= vn.values.value_at(t, x, a) - 3.0 * se - _DUAL_TOLERANCE:
                greedy_ok = False
    return DualCheckReport(rows, all_below, greedy_ok)
