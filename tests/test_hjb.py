import math

import numpy as np
import pytest

import einsum_picard
import jumpcontrol as jc
from jumpcontrol.hjb import NonconvergenceError
from jumpcontrol.model import cost_layer
from jumpcontrol.oracle import oracle_value


def hamiltonian(p, t, v_layer):
    """Per-state max over actions of (generator + running cost) at time t,
    and the maximizing actions; ties break to the lowest action index, as
    np.argmax does."""
    q = einsum_picard._action_values(p, np.asarray(v_layer, dtype=float), cost_layer(p, t))
    am = q.argmax(axis=1)
    return q[np.arange(p.n_states), am], am


def random_problem(seed, n_states, n_actions, bound, f_nodes):
    """Random admissible problem with about half the transitions present and
    largest total jump rate `bound`; f has f_nodes time nodes."""
    rng = np.random.default_rng(seed)
    rates = rng.random((n_states, n_actions, n_states))
    rates *= rng.random(rates.shape) < 0.5
    rates[:, :, 0] += 1e-3
    totals = bound * rng.uniform(0.3, 1.0, (n_states, n_actions))
    totals[0, 0] = bound
    rates *= (totals / rates.sum(axis=2))[:, :, None]
    return jc.Problem(
        tuple(f"x{i}" for i in range(n_states)), tuple(f"a{i}" for i in range(n_actions)),
        rates, rng.uniform(0.5, 1.5, n_actions), rng.random((f_nodes, n_states, n_actions)),
        rng.random(n_states), 1.0,
    )


class TestHamiltonian:
    def test_hand_computed_layer(self, m2):
        # v = (0, 1): at state 0, action a gives a * (v(1) - v(0)) = a, so
        # the maximum is 2 at action index 1; state 1 is absorbing, H = 0
        vals, am = hamiltonian(m2, 0.3, np.array([0.0, 1.0]))
        assert vals == pytest.approx([2.0, 0.0])
        assert list(am) == [1, 0]

    def test_tie_breaks_to_lowest_action(self, aflat):
        # identical rows across actions: every state ties, argmax must be 0
        _, am = hamiltonian(aflat, 0.0, np.linspace(0.0, 1.0, aflat.n_states))
        assert np.all(am == 0)


class TestPicard:
    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat"])
    def test_argmax_table_is_per_node_hamiltonian(self, request, name):
        p = request.getfixturevalue(name)
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        ts, v = sol.values.times, sol.values.values
        expect = np.stack([hamiltonian(p, t, v[k])[1] for k, t in enumerate(ts)])
        assert np.array_equal(sol.argmax, expect)

    def test_non_finite_solution_raises(self):
        # L T = 800: exp(-L t) underflows, so v = vt exp(L t) cannot be finite
        L = 800.0
        p = jc.Problem(
            ("0", "1"), ("0", "1"),
            np.array([[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]]),
            np.array([1.0, 1.0]), np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([0.0, 1.0]), 1.0,
        )
        with np.errstate(all="ignore"), pytest.raises(NonconvergenceError):
            jc.solve_hjb_picard(p, n_steps=200)

    def test_exponential_weight_overflow_raises(self):
        # L dt = 1000: exp(L dt) in the cell weights overflows a float
        p = jc.Problem(
            ("0", "1"), ("0",), np.array([[[0.0, 2e6]], [[0.0, 0.0]]]),
            np.array([1.0]), np.zeros((2, 1)), np.array([0.0, 1.0]), 1.0,
        )
        with pytest.raises(NonconvergenceError):
            jc.solve_hjb_picard(p, n_steps=2000)

    @pytest.mark.parametrize("n_steps", [200, 2000])
    def test_underflow_raises_before_iterating(self, n_steps):
        # L T = 800: exp(-L T) is 0.0, so v(T) would be 0/0 whatever the grid
        L = 800.0
        p = jc.Problem(
            ("0", "1"), ("0", "1"),
            np.array([[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]]),
            np.array([1.0, 1.0]), np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([0.0, 1.0]), 1.0,
        )
        with pytest.raises(NonconvergenceError) as exc:
            jc.solve_hjb_picard(p, n_steps=n_steps)
        assert exc.value.iterations == 0
        message = str(exc.value)
        assert "L*T = 800" in message and "underflows" in message and "n-steps" not in message

    @pytest.mark.parametrize("L", [30.0, 100.0, 200.0])
    def test_terminal_only_source_below_tol_converges(self, L):
        # exp(-L T) g is below tol everywhere, so an absolute stopping test
        # would stop after one sweep near 0; jump 0 -> 1 at rate L, state 1
        # absorbing with g = 1: v(0, .) = (1 - exp(-L), 1)
        p = jc.Problem(
            ("0", "1"), ("a",), np.array([[[0.0, L]], [[0.0, 0.0]]]),
            np.array([1.0]), np.zeros((2, 1)), np.array([0.0, 1.0]), 1.0,
        )
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        assert sol.iterations > 1
        assert np.abs(sol.values.values[0] - [1.0 - math.exp(-L), 1.0]).max() <= 1e-9

    def test_stiff_rate_names_l_t(self):
        p = jc.Problem(
            ("0", "1"), ("0",), np.array([[[0.0, 2e6]], [[0.0, 0.0]]]),
            np.array([1.0]), np.zeros((2, 1)), np.array([0.0, 1.0]), 1.0,
        )
        with pytest.raises(NonconvergenceError) as exc:
            jc.solve_hjb_picard(p, n_steps=2000)
        assert exc.value.iterations == 0
        assert "L*T = 2e+06" in str(exc.value) and "underflows" in str(exc.value)

    def test_cell_weight_overflow_names_l_dt(self):
        # L T = 720 leaves exp(-L T) subnormal, but exp(L dt) overflows at N = 1
        p = jc.Problem(
            ("0", "1"), ("0",), np.array([[[0.0, 720.0]], [[0.0, 0.0]]]),
            np.array([1.0]), np.zeros((2, 1)), np.array([0.0, 1.0]), 1.0,
        )
        with pytest.raises(NonconvergenceError) as exc:
            jc.solve_hjb_picard(p, n_steps=1)
        assert exc.value.iterations == 0
        assert "L*dt = 720" in str(exc.value) and "overflows" in str(exc.value)

    def test_stiff_model(self):
        # L = 200, L dt = 0.1: the trapezoid rule on the rescaled unknown
        # gave v(0, 0) = 1.1698; exact exponential cell weights fix it
        L = 200.0
        p = jc.Problem(
            ("0", "1"), ("0", "1"),
            np.array([[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]]),
            np.array([1.0, 1.0]), np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([0.0, 1.0]), 1.0,
        )
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        v0 = sol.values.values[0]
        assert np.abs(v0 - oracle_value(p, 200_000).values[0]).max() <= 1e-5
        own = jc.evaluate_policy(p, jc.extract_feedback(sol), n_steps=2000).values[0]
        assert np.abs(v0 - own).max() <= 5e-5

    def test_m2_closed_form(self, m2):
        sol = jc.solve_hjb_picard(m2, n_steps=2000)
        assert abs(sol.values.values[0, 0] - (1.0 - math.exp(-2.0))) <= 1e-4
        assert np.allclose(sol.values.values[:, 1], 1.0, atol=1e-12)
        # working action is everywhere the higher rate
        assert np.all(sol.argmax[:-1, 0] == 1)

    def test_terminal_layer_exact(self, threestate):
        sol = jc.solve_hjb_picard(threestate, n_steps=200)
        assert np.array_equal(sol.values.values[-1], threestate.terminal_cost)

    def test_sup_norm_bound(self, threestate):
        sol = jc.solve_hjb_picard(threestate, n_steps=2000)
        cap = (
            np.abs(threestate.terminal_cost).max()
            + threestate.horizon * np.abs(threestate.running_cost).max()
        )
        assert np.abs(sol.values.values).max() <= cap + 1e-8

    def test_agrees_with_marching(self, threestate):
        # the oracle is an explicit Euler march on a grid 20x finer
        picard = jc.solve_hjb_picard(threestate, n_steps=2000)
        march = oracle_value(threestate, 40_000)
        gap = np.abs(picard.values.values[0] - march.values[0]).max()
        assert gap <= 1e-3

    def test_single_action_reduces_to_kolmogorov(self, single_action):
        sol = jc.solve_hjb_picard(single_action, n_steps=1000)
        grid = jc.evaluate_policy(
            single_action, jc.constant_policy(single_action, 0), n_steps=1000
        )
        assert np.abs(sol.values.values - grid.values).max() <= 1e-6

    def test_nonconvergence_raises(self, threestate):
        with pytest.raises(NonconvergenceError) as exc:
            jc.solve_hjb_picard(threestate, n_steps=100, tol=1e-16, max_iter=2)
        assert exc.value.iterations == 2

    def test_iteration_count_reported(self, m2):
        sol = jc.solve_hjb_picard(m2, n_steps=500)
        assert 1 <= sol.iterations < 100
        assert sol.residual < 1e-9


class TestPicardKernel:
    """The one-matrix-product sweep against the einsum reference sweep."""

    @pytest.mark.parametrize(
        "name", ["m2", "threestate", "aflat", "single_action", "zero_rate", "random16x2", "random64x4"]
    )
    def test_matches_einsum_reference(self, request, name):
        random_shapes = {"random16x2": (16, 16, 2, 10.0, 9), "random64x4": (64, 64, 4, 6.0, 5)}
        if name in random_shapes:
            p = random_problem(*random_shapes[name])
        else:
            p = request.getfixturevalue(name)
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        ref = einsum_picard.solve_hjb_picard(p, n_steps=2000)
        v, v_ref = sol.values.values, ref.values.values
        assert np.all(np.abs(v - v_ref) <= 1e-13 * (1.0 + np.abs(v_ref)))
        assert sol.iterations == ref.iterations
        assert np.array_equal(sol.argmax, ref.argmax)
        assert sol.residual == pytest.approx(ref.residual, rel=1e-6)

    def test_nonconvergence_residual_matches_reference(self, threestate):
        with pytest.raises(NonconvergenceError) as exc:
            jc.solve_hjb_picard(threestate, n_steps=100, tol=1e-16, max_iter=3)
        with pytest.raises(NonconvergenceError) as ref:
            einsum_picard.solve_hjb_picard(threestate, n_steps=100, tol=1e-16, max_iter=3)
        assert exc.value.iterations == ref.value.iterations == 3
        assert exc.value.residual == pytest.approx(ref.value.residual, rel=1e-9)


class TestMonotonicity:
    def test_value_monotone_in_terminal_cost(self, threestate):
        # raising g pointwise cannot lower the value anywhere
        p = threestate
        bigger = jc.Problem(
            p.states, p.actions, p.rates, p.lambda0,
            p.running_cost, p.terminal_cost + 0.25, p.horizon,
        )
        lo = jc.solve_hjb_picard(p, n_steps=500).values.values
        hi = jc.solve_hjb_picard(bigger, n_steps=500).values.values
        assert np.all(hi >= lo - 1e-12)

    def test_value_dominates_every_constant_policy(self, threestate):
        sol = jc.solve_hjb_picard(threestate, n_steps=2000)
        for a in range(threestate.n_actions):
            grid = jc.evaluate_policy(threestate, jc.constant_policy(threestate, a), n_steps=2000)
            assert np.all(sol.values.values >= grid.values - 1e-8)


class TestExtractFeedback:
    def test_feedback_achieves_value(self, threestate):
        sol = jc.solve_hjb_picard(threestate, n_steps=2000)
        alpha = jc.extract_feedback(sol)
        grid = jc.evaluate_policy(threestate, alpha, n_steps=2000)
        assert np.abs(grid.values[0] - sol.values.values[0]).max() <= 1e-3

    def test_policy_table_shape(self, m2):
        sol = jc.solve_hjb_picard(m2, n_steps=100)
        alpha = jc.extract_feedback(sol)
        assert alpha.table.shape == (101, 2)
        assert alpha.horizon == m2.horizon
