import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jumpcontrol as jc
from jumpcontrol import cli
from jumpcontrol.model import cost_layer, grid_cell


def small_problem(rates=None, lambda0=(1.0, 1.0)):
    if rates is None:
        rates = np.full((2, 2, 2), 0.5)
    return jc.Problem(
        states=("0", "1"),
        actions=("a", "b"),
        rates=np.asarray(rates, dtype=float),
        lambda0=np.asarray(lambda0, dtype=float),
        running_cost=np.full((2, 2), 3.0),
        terminal_cost=np.array([0.0, 1.0]),
        horizon=1.0,
    )


class TestValidateProblem:
    def test_well_formed(self):
        assert jc.validate_problem(small_problem()).ok

    def test_lambda0_support(self):
        rep = jc.validate_problem(small_problem(lambda0=(1.0, 0.0)))
        assert not rep.ok
        assert any(v["kind"] == "lambda0 support" and v["location"] == 1 for v in rep.violations)

    def test_negative_rate(self):
        rates = np.full((2, 2, 2), 0.5)
        rates[0, 0, 1] = -1.0
        rep = jc.validate_problem(small_problem(rates=rates))
        assert any(v["kind"] == "negative rate" and v["location"] == (0, 0, 1) for v in rep.violations)

    def test_nan_rate(self):
        rates = np.full((2, 2, 2), 0.5)
        rates[1, 1, 0] = float("nan")
        rep = jc.validate_problem(small_problem(rates=rates))
        assert any(v["kind"] == "non-finite rate" for v in rep.violations)

    @pytest.mark.parametrize("axis", ["states", "actions"])
    def test_repeated_label(self, axis):
        rep = jc.validate_problem(dataclasses.replace(small_problem(), **{axis: ("0", "0")}))
        kind = "repeated state label" if axis == "states" else "repeated action label"
        assert [v["kind"] for v in rep.violations] == [kind]

    def test_idempotent_and_pure(self):
        p = small_problem(lambda0=(1.0, 0.0))
        first = jc.validate_problem(p)
        second = jc.validate_problem(p)
        assert first.violations == second.violations


class TestRateBound:
    def test_uniform_half(self):
        assert jc.rate_bound(small_problem()) == 1.0

    def test_m2_hand_sum(self, m2):
        assert jc.rate_bound(m2) == 2.0

    def test_pair_bound_additivity(self):
        p = small_problem(lambda0=(0.7, 0.3))
        assert jc.pair_rate_bound(p) == pytest.approx(jc.rate_bound(p) + 1.0)

    def test_bound_dominates_every_row(self, threestate):
        lam = jc.rate_bound(threestate)
        rows = threestate.row_sums
        assert np.all(rows <= lam)
        assert np.any(rows == lam)


class TestCostAt:
    def test_constant(self):
        p = small_problem()
        assert jc.cost_at(p, 0.37, 1, 0) == 3.0

    def test_linear_midpoint(self):
        p = small_problem()
        f = np.arange(5.0)[:, None, None] * np.ones((1, 2, 2))
        p = jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, 1.0)
        # nodes at t_k = k/4 carry value k; midpoint of (t_0, t_1) gives 0.5
        assert jc.cost_at(p, 0.125, 0, 0) == pytest.approx(0.5)
        assert jc.cost_at(p, 1.0, 0, 1) == pytest.approx(4.0)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            jc.cost_at(small_problem(), 1.5, 0, 0)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=2, max_value=7))
    def test_node_exactness(self, k, layers):
        f = np.linspace(0.0, 1.0, layers * 4).reshape(layers, 2, 2)
        p = small_problem()
        p = jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, 1.0)
        k = min(k, layers - 1)
        t_k = k / (layers - 1)
        assert jc.cost_at(p, t_k, 1, 1) == pytest.approx(f[k, 1, 1], abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_interpolation_within_range(self, t):
        f = np.array([[[0.1, 0.9], [0.4, 0.2]], [[0.8, 0.3], [0.0, 1.0]]])
        p = small_problem()
        p = jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, 1.0)
        val = jc.cost_at(p, t, 0, 1)
        assert min(f[:, 0, 1]) - 1e-12 <= val <= max(f[:, 0, 1]) + 1e-12


    def test_array_of_times_matches_scalars(self):
        f = np.array([[[0.1, 0.9], [0.4, 0.2]], [[0.8, 0.3], [0.0, 1.0]], [[0.5, 0.5], [0.2, 0.7]]])
        p = small_problem()
        for cost in (f, f[0]):
            q = jc.Problem(p.states, p.actions, p.rates, p.lambda0, cost, p.terminal_cost, 1.0)
            ts = np.linspace(0.0, 1.0, 13)
            layers = cost_layer(q, ts)
            assert layers.shape == (13, 2, 2)
            for t, layer in zip(ts, layers):
                assert np.array_equal(layer, cost_layer(q, t))
            with pytest.raises(ValueError):
                cost_layer(q, np.array([0.5, 1.5]))


class TestGridCell:
    def test_scalar_and_array_agree_and_clamp(self):
        ts = np.array([-0.5, 0.0, 0.3, 0.5, 0.99, 1.0, 2.0])
        k, w = grid_cell(ts, 1.0, 4)
        assert k.tolist() == [0, 0, 1, 2, 3, 3, 3]
        assert np.allclose(w, [0.0, 0.0, 0.2, 0.0, 0.96, 1.0, 1.0])
        for t, kk, ww in zip(ts, k, w):
            assert grid_cell(t, 1.0, 4) == (kk, ww)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = jc.SolverConfig()
        assert cfg.penalization_levels == (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def test_cli_defaults_are_the_config_defaults(self):
        cfg = jc.SolverConfig()
        _, commands = cli._build_parser()
        for command, parser in commands.items():
            args = parser.parse_args(["--model", "m.json"])
            assert (args.n_steps, args.tol) == (cfg.n_steps, cfg.picard_tol) == (2000, 1e-10), command
        args = commands["diagnose"].parse_args(["--model", "m.json"])
        assert (args.paths, args.levels) == (cfg.mc_paths, cfg.penalization_levels)
        assert args.paths == 20_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_steps": 1},
            {"picard_tol": 0.0},
            {"picard_tol": 1.0},
            {"picard_tol": 1e300},
            {"picard_tol": float("inf")},
            {"picard_tol": float("nan")},
            {"penalization_levels": (4, 2)},
            {"penalization_levels": (0, 1)},
            {"mc_paths": 0},
            {"penalization_levels": ()},
            {"penalization_levels": (64,)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            jc.SolverConfig(**kwargs)


class TestModelFile:
    def test_round_trip(self, threestate):
        doc = jc.problem_to_dict(threestate)
        q = jc.problem_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(q.rates, threestate.rates)
        assert q.states == threestate.states
        assert q.horizon == threestate.horizon

    def test_scalar_f_broadcast(self):
        doc = {
            "states": ["0"],
            "actions": ["a"],
            "rates": [[[0.0]]],
            "lambda0": [1.0],
            "f": 2.5,
            "g": [0.0],
            "T": 1.0,
        }
        p = jc.problem_from_dict(doc)
        assert p.running_cost.shape == (1, 1)
        assert jc.cost_at(p, 0.5, 0, 0) == 2.5

    def test_immutability(self, m2):
        with pytest.raises(ValueError):
            m2.rates[0, 0, 0] = 9.0
