import math

import numpy as np
import pytest

import einsum_picard
import jumpcontrol as jc
from jumpcontrol import hjb
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
        # g of this model does not survive exp(-L tau) g / exp(-L tau): 1.1e-16 off if not written in
        p = random_problem(*TestTimeBlocks.SHAPES["random64x4"])
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        assert np.array_equal(sol.values.values[-1], p.terminal_cost)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_raises(self, m2, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            jc.solve_hjb_picard(m2, n_steps=50, max_iter=max_iter)

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


def stiff_problem(L):
    """Two states and two actions with rates up to L: rate bound L."""
    return jc.Problem(
        ("0", "1"), ("0", "1"),
        np.array([[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]]),
        np.array([1.0, 1.0]), np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([0.0, 1.0]), 1.0,
    )


def whole_horizon_picard(p, n_steps, tol=1e-10, max_iter=1000):
    """The solver's sweep over one block [0, T], written out on its own:
    the matrix product, the max over actions one slice at a time and the
    cumulative cell integrals in the same order, so that a grid inside one
    block must match it bit for bit. Returns (v, argmax, iterations, residual)."""
    T, nS, nA, nK = p.horizon, p.n_states, p.n_actions, n_steps + 1
    lam = jc.rate_bound(p)
    dt = T / n_steps
    ts = np.linspace(0.0, T, nK)
    scale_down = np.exp(-lam * ts)[:, None]
    rates_slack = p.rates.transpose(2, 1, 0).copy()
    diag = np.arange(nS)
    rates_slack[diag, :, diag] += lam - p.row_sums
    rates_slack = rates_slack.reshape(nS, nA * nS)
    f_scaled = np.empty((nK, nA, nS))
    np.multiply(cost_layer(p, ts).transpose(0, 2, 1), scale_down[:, :, None], out=f_scaled)
    f_scaled = f_scaled.reshape(nK, nA * nS)
    g_term = math.exp(-lam * T) * p.terminal_cost
    x = lam * dt
    if x < 1e-4:
        w0, w1 = dt * (0.5 - x / 6 + x * x / 24), dt * (0.5 + x / 6 + x * x / 24)
    else:
        w0, w1 = (x + math.expm1(-x)) / (lam * x), (math.expm1(x) - x) / (lam * x)
    gamma = np.empty((nK, nA * nS))
    gamma3 = gamma.reshape(nK, nA, nS)
    m = np.empty((nK, nS))
    vt = np.repeat(g_term[None, :], nK, axis=0)
    vt_new = vt.copy()
    for iterations in range(1, max_iter + 1):
        np.matmul(vt, rates_slack, out=gamma)
        gamma += f_scaled
        m[...] = gamma3[:, 0]
        for a in range(1, nA):
            np.maximum(m, gamma3[:, a], out=m)
        head = vt_new[:-1]
        np.multiply(m[1:], w1, out=head)
        m[:-1] *= w0
        head += m[:-1]
        np.cumsum(head[::-1], axis=0, out=head[::-1])
        head += g_term
        np.subtract(vt_new, vt, out=m)
        np.abs(m, out=m)
        vt, vt_new = vt_new, vt
        if m.max() <= tol * max(vt.max(), -vt.min()):
            break
    residual = float((m / scale_down).max())
    np.matmul(vt, rates_slack, out=gamma)
    gamma += f_scaled
    vt /= scale_down
    vt[-1] = p.terminal_cost
    return vt, gamma3.argmax(axis=1), iterations, residual


class TestTimeBlocks:
    SHAPES = {"random16x2": (16, 16, 2, 10.0, 9), "random64x4": (64, 64, 4, 6.0, 5)}

    def problem(self, request, name):
        if name in self.SHAPES:
            return random_problem(*self.SHAPES[name])
        if name == "stiff":
            return stiff_problem(200.0)
        return request.getfixturevalue(name)

    @pytest.mark.parametrize("name", ["m2", "threestate", "random16x2", "random64x4", "stiff"])
    def test_blocks_match_one_block(self, request, monkeypatch, name):
        # Only the stopping test differs between the blocked solve and one
        # block over [0, T]. Measured gap at tol 1e-10, N = 2000: at most
        # 1.8e-10 (1 + |v|) on the stiff model (L = 200, 8 blocks) and
        # 2.0e-11 (1 + |v|) on the others; the bound leaves a factor 5.
        p = self.problem(request, name)
        blocked = jc.solve_hjb_picard(p, n_steps=2000)
        monkeypatch.setattr(hjb, "_MIN_BLOCK_CELLS", 2000)
        whole = jc.solve_hjb_picard(p, n_steps=2000)
        assert blocked.blocks > 1 and whole.blocks == 1
        v, v_ref = blocked.values.values, whole.values.values
        assert np.all(np.abs(v - v_ref) <= 1e-9 * (1.0 + np.abs(v_ref)))
        assert np.array_equal(blocked.argmax, whole.argmax)

    @pytest.mark.parametrize("name", ["m2", "threestate", "random16x2", "stiff"])
    @pytest.mark.parametrize("n_steps", [50, 128, 256])
    def test_one_block_is_the_whole_horizon_loop(self, request, name, n_steps):
        p = self.problem(request, name)
        sol = jc.solve_hjb_picard(p, n_steps=n_steps)
        v, argmax, iterations, residual = whole_horizon_picard(p, n_steps)
        assert sol.blocks == 1
        assert np.array_equal(sol.values.values, v)
        assert np.array_equal(sol.argmax, argmax)
        assert (sol.iterations, sol.residual) == (iterations, residual)

    @pytest.mark.parametrize(
        "name, n_steps, blocks",
        [("m2", 2000, 2), ("threestate", 2000, 5), ("threestate", 500, 2), ("random64x4", 2000, 6),
         ("stiff", 2000, 8), ("stiff", 256, 1), ("stiff", 257, 2), ("zero_rate", 2000, 1)],
    )
    def test_block_count_and_sweep_bound(self, request, name, n_steps, blocks):
        # L tau about 1 with at least 256 cells a block: L = 2 gives 2 blocks
        # of 1000 cells, L = 4.15 five of 400, L = 6 six of 333-334; the
        # floor binds for L = 200 (8 blocks of 250) and for L = 4.15 at
        # N = 500; L = 0 (no jumps) or N <= 256 is one block
        p = self.problem(request, name)
        sol = jc.solve_hjb_picard(p, n_steps=n_steps)
        assert sol.blocks == blocks
        # iterations is the most sweeps of any block: enough as max_iter, one short is not
        again = jc.solve_hjb_picard(p, n_steps=n_steps, max_iter=sol.iterations)
        assert again.iterations == sol.iterations <= 1000
        assert np.array_equal(again.values.values, sol.values.values)
        if sol.iterations > 1:
            with pytest.raises(NonconvergenceError) as exc:
                jc.solve_hjb_picard(p, n_steps=n_steps, max_iter=sol.iterations - 1)
            assert exc.value.iterations == sol.iterations - 1

    def test_nonconvergence_in_a_later_block_reports_its_count(self):
        # f and g vanish on [0.5, 1], so the blocks there converge in one
        # sweep each; the first block with f > 0 fails at max_iter and must
        # report max_iter, not a count summed over the blocks
        p = jc.Problem(
            ("0", "1"), ("0", "1"),
            np.array([[[0.0, 10.0], [0.0, 5.0]], [[3.0, 0.0], [10.0, 0.0]]]),
            np.array([1.0, 1.0]),
            np.array([[[1.0, 0.5], [0.2, 0.8]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
            np.zeros(2), 1.0,
        )
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        assert sol.blocks == 8 and sol.iterations > 3
        assert np.all(sol.values.values[1000:] == 0.0)
        for max_iter in (1, 3):
            with pytest.raises(NonconvergenceError) as exc:
                jc.solve_hjb_picard(p, n_steps=2000, max_iter=max_iter)
            assert exc.value.iterations == max_iter
            assert exc.value.residual > 0.0

    @pytest.mark.parametrize("tol", [1.0, 1e300, math.inf, math.nan])
    def test_tol_not_below_one_raises(self, threestate, tol):
        # a relative update below 1 holds after any sweep: such a tol checks nothing
        with pytest.raises(ValueError):
            jc.solve_hjb_picard(threestate, n_steps=100, tol=tol)
