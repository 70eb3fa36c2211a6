"""The rate contract of the path integrals.

Every time integral along pair paths (running cost, X-compensator, K and
the Girsanov drift) is a rate (cum, cell) that simulate._integrate
integrates over constant-state segments located by simulate._locate. An
exact integral is additive in its end points wherever they fall: inside a
cell, on a grid node, or on a layer edge of the control.
"""
import numpy as np
import pytest

import jumpcontrol as jc
from jumpcontrol import randomized, simulate
from jumpcontrol.bsde import bsde_residual, build_sample, terminal_k
from jumpcontrol.randomized import _log_weights
from jumpcontrol.simulate import _integrate, _locate, _running_costs, _sim_tables

N_STEPS = 300
N_COST = 5  # cells of the time-dependent f
N_LAYERS = 8


@pytest.fixture(scope="module", params=["constant f", "time-dependent f"])
def case(request, threestate):
    p = threestate
    if request.param == "time-dependent f":
        f = np.random.default_rng(90).uniform(-1.0, 1.0, (N_COST + 1, p.n_states, p.n_actions))
        p = jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, p.horizon)
    vn = jc.solve_penalized(p, 8, n_steps=N_STEPS)
    field = np.random.default_rng(91).uniform(0.2, 3.0, (N_LAYERS, p.n_states, p.n_actions, p.n_actions))
    return p, vn, jc.IntensityControl(field, p.horizon, 3.0)


def drift_rate(p, nu, monkeypatch):
    """The rate of the Girsanov drift, as _log_weights hands it to _per_path."""
    seen = []

    def per_path(batch, rate):
        seen.append(rate)
        return simulate._per_path(batch, rate)

    monkeypatch.setattr(randomized, "_per_path", per_path)
    _log_weights(p, nu, [])
    return seen[0]


def test_integrals_are_additive(case, monkeypatch):
    p, vn, nu = case
    T = p.horizon
    rates = {
        "running cost": _sim_tables(p)["cost"],
        "compensator": vn.compensator_table,
        "K": vn.k_table,
        "Girsanov drift": drift_rate(p, nu, monkeypatch),
    }
    rng = np.random.default_rng(92)
    edges = np.concatenate([np.arange(1, n) * T / n for n in (N_STEPS, N_COST, N_LAYERS)])
    mid = np.concatenate((rng.uniform(0.0, T, 300), rng.choice(edges, 300), edges))
    # Each end a random distance from mid, or mid itself, a point in mid's
    # own cell, or 0 and T.
    def offset(room):
        near = rng.choice([0.0, 1e-9, 1e-4, 1e-3, 1.0], room.size)
        return np.where(rng.random(room.size) < 0.5, rng.uniform(0.0, 1.0, room.size), near) * room

    lo = mid - offset(mid)
    hi = np.minimum(mid + offset(T - mid), T)
    x = rng.integers(0, p.n_states, mid.size)
    a = rng.integers(0, p.n_actions, mid.size)
    for name, rate in rates.items():
        n = rate[0].shape[0] - 1
        whole = _integrate(rate, _locate(T, n, lo, hi, x, a))
        parts = _integrate(rate, _locate(T, n, lo, mid, x, a)) + _integrate(rate, _locate(T, n, mid, hi, x, a))
        assert np.abs(whole).max() > 0.0, name
        assert np.abs(whole - parts).max() <= 1e-13, name


def test_path_starting_at_the_horizon_integrates_to_zero(case):
    p, vn, nu = case
    T = p.horizon
    paths = [jc.Path(T, x, a, [], [], [], T) for x in range(p.n_states) for a in range(p.n_actions)]
    zeros = [0.0] * len(paths)
    assert terminal_k(vn, paths).tolist() == zeros
    assert _running_costs(p, paths).tolist() == zeros
    assert _log_weights(p, nu, paths).tolist() == zeros
    assert [bsde_residual(p, build_sample(p, vn, q)) for q in paths] == zeros


def test_path_starting_before_zero_is_rejected(case):
    # the cells integrate inside [0, T] only; they do not extrapolate
    p, vn, nu = case
    early = [jc.Path(-0.1, 0, 0, [], [], [], p.horizon)]
    for functional in (lambda q: _running_costs(p, q), lambda q: terminal_k(vn, q), lambda q: _log_weights(p, nu, q)):
        with pytest.raises(ValueError, match="outside"):
            functional(early)
