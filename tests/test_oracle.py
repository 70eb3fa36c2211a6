import math

import numpy as np
import pytest

import jumpcontrol as jc
from jumpcontrol.oracle import oracle_compare, oracle_value


class TestOracleValue:
    def test_constant_terminal_no_running_cost(self, zero_rate):
        p = jc.Problem(
            zero_rate.states, zero_rate.actions, zero_rate.rates, zero_rate.lambda0,
            zero_rate.running_cost, np.full(2, 3.5), zero_rate.horizon,
        )
        grid = oracle_value(p, 100)
        assert np.all(grid.values == 3.5)

    def test_m2_closed_form(self, m2):
        grid = oracle_value(m2, 100_000)
        assert abs(grid.values[0, 0] - (1.0 - math.exp(-2.0))) <= 1e-4

    def test_monotone_in_terminal_cost(self, threestate):
        p = threestate
        bumped = jc.Problem(
            p.states, p.actions, p.rates, p.lambda0,
            p.running_cost, p.terminal_cost + 0.3, p.horizon,
        )
        lo = oracle_value(p, 2000).values
        hi = oracle_value(bumped, 2000).values
        assert np.all(hi >= lo)

    def test_stability_precondition(self, m2):
        # dt * Lambda_E = 2 / n_steps must stay <= 0.1
        with pytest.raises(ValueError):
            oracle_value(m2, 10)


class TestOracleCompare:
    def test_degenerate_model_tiny_gap(self, zero_rate):
        sol = jc.solve_hjb_picard(zero_rate, n_steps=100)
        report = oracle_compare(zero_rate, sol, tol=1e-6, n_steps_oracle=1000)
        assert report["passed"]
        assert report["gap_grid"] <= 1e-6

    def test_m2_pass(self, m2):
        sol = jc.solve_hjb_picard(m2, n_steps=4000)
        report = oracle_compare(m2, sol, tol=1e-3, n_steps_oracle=100_000)
        assert report["passed"]
        assert report["gap_t0"] <= report["gap_grid"] + 1e-15

    def test_threestate_pass(self, threestate):
        sol = jc.solve_hjb_picard(threestate, n_steps=2000)
        report = oracle_compare(threestate, sol, tol=2e-3)
        assert report["passed"]

    def test_failure_reported_not_raised(self, m2):
        sol = jc.solve_hjb_picard(m2, n_steps=4000)
        report = oracle_compare(m2, sol, tol=1e-12, n_steps_oracle=100_000)
        assert not report["passed"]

    def test_nan_solution_fails(self, m2):
        # an all-NaN solution used to report a gap of 0 and pass, as d > gap skips NaN
        sol = jc.solve_hjb_picard(m2, n_steps=100)
        nan = jc.HJBSolution(jc.ValueGrid(np.full_like(sol.values.values, np.nan), m2.horizon), sol.argmax, 0, 0.0, 1)
        report = oracle_compare(m2, nan, tol=1e-3, n_steps_oracle=2000)
        assert report["passed"] is False
        assert math.isnan(report["gap_grid"]) and math.isnan(report["gap_t0"])
