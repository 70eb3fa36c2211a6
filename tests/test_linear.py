import csv
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

import jumpcontrol as jc
from jumpcontrol import linear
from jumpcontrol.linear import MAX_RK4_STEPS, _substeps
from jumpcontrol.model import cost_layer, tilted_pair_generator
from jumpcontrol.simulate import _mean_se
from test_hjb import random_problem


def mc_check_markov(
    p,
    alpha,
    t: float,
    x: int,
    s: float,
    g_vec,
    n_paths: int,
    master_seed: int = 0,
    n_steps: int = 2000,
) -> dict:
    """Tower-property check E[P_sT[g](X_s)] vs E[g(X_T)] on shared paths.

    Both estimators use the same simulated paths, so at s = T the per-path
    difference is exactly zero.
    """
    if not (t <= s <= p.horizon + 1e-12):
        raise ValueError("need t <= s <= T")
    g = np.asarray(g_vec, dtype=float)
    grid = jc.solve_kolmogorov(p, alpha, g_vec=g, f_running=None, n_steps=n_steps)
    paths = jc.simulate_controlled_paths(p, alpha, t, x, n_paths, jc.child_rng(master_seed, 0))
    mean, se = _mean_se(grid.layer_at(s)[paths.states_at(s)] - g[paths.states_at(p.horizon)])
    return {
        "difference": mean,
        "std_error": se,
        "n_paths": n_paths,
        "within_3se": bool(abs(mean) <= 3.0 * se + 1e-12),
    }


class TestValueGrid:
    def test_value_at_interpolates(self):
        vals = np.array([[0.0, 2.0], [1.0, 0.0]])
        grid = jc.ValueGrid(vals, 1.0)
        assert grid.value_at(0.5, 0) == pytest.approx(0.5)
        assert grid.value_at(1.0, 1) == pytest.approx(0.0)
        assert grid.value_at(0.0, 1) == pytest.approx(2.0)

    def test_rejects_times_outside_grid(self):
        vals = np.array([[0.0], [1.0]])
        grid = jc.ValueGrid(vals, 1.0)
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError):
                grid.value_at(t, 0)
            with pytest.raises(ValueError):
                grid.layer_at(np.array([0.5, t]))
        assert grid.value_at(1.0 + 1e-13, 0) == 1.0
        assert grid.value_at(-1e-13, 0) == 0.0

    def test_same_time_bound_as_cost_layer(self, threestate):
        grid = jc.ValueGrid(np.zeros((3, threestate.n_states)), threestate.horizon)
        for t in (-0.1, threestate.horizon + 0.1):
            with pytest.raises(ValueError):
                grid.layer_at(t)
            with pytest.raises(ValueError):
                cost_layer(threestate, t)
        t = threestate.horizon + 1e-13
        grid.layer_at(t)
        cost_layer(threestate, t)


class TestKolmogorov:
    def test_m2_closed_form(self, m2):
        # under action "2" absorption at rate 2: v(t, 0) = 1 - exp(-2(T-t))
        alpha = jc.constant_policy(m2, 1)
        grid = jc.solve_kolmogorov(m2, alpha, n_steps=2000)
        for k, t in ((0, 0.0), (1000, 0.5)):
            assert grid.values[k, 0] == pytest.approx(1.0 - math.exp(-2.0 * (1.0 - t)), abs=1e-7)
        assert np.allclose(grid.values[:, 1], 1.0)

    def test_running_cost_only(self, m2):
        # f = 1, g = 0: expected value is just the remaining time
        alpha = jc.constant_policy(m2, 0)
        grid = jc.solve_kolmogorov(
            m2, alpha, g_vec=np.zeros(2), f_running=lambda ts: np.ones(ts.shape + (2,)), n_steps=500
        )
        assert grid.values[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert grid.values[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_grid_refinement_order(self, threestate):
        # RK4 marching should show at least fourth-order decay, which is
        # far beyond the >= 3.5 bar
        alpha = jc.constant_policy(threestate, 0)
        fine = jc.solve_kolmogorov(threestate, alpha, n_steps=4096)
        errs = []
        for n in (16, 32, 64):
            coarse = jc.solve_kolmogorov(threestate, alpha, n_steps=n)
            errs.append(abs(coarse.values[0, 0] - fine.values[0, 0]))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5
        assert math.log2(errs[1] / errs[2]) >= 3.5

    def test_evaluate_policy_matches_simulation(self, threestate):
        # constant-action policy, so the running cost along a path is
        # f(x0, a0) T plus, at each jump, the change of f(., a0) times the
        # time left
        a0 = 0
        alpha = jc.constant_policy(threestate, a0)
        v = jc.evaluate_policy(threestate, alpha, n_steps=2000).values[0, 0]
        f = threestate.running_cost[:, a0]
        T = threestate.horizon
        n = 20_000
        batch = jc.simulate_controlled_paths(threestate, alpha, 0.0, 0, n, jc.child_rng(11, 0))
        pre = np.roll(batch.x_marks, 1)
        pre[batch.offsets[:-1][np.diff(batch.offsets) > 0]] = 0  # a path's first jump leaves x0 = 0
        change = (f[batch.x_marks] - f[pre]) * (T - batch.times)
        run = f[0] * T + np.bincount(batch.owner, weights=change, minlength=n)
        samples = run + threestate.terminal_cost[batch.states_at(T)]
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - v) <= 3.0 * se

    def test_running_cost_along_pair_path(self, threestate):
        # exact pathwise integral of f(X, I) averaged over pair paths agrees
        # with the pair Kolmogorov solve with terminal condition zero
        from jumpcontrol.simulate import _running_costs

        grid = jc.solve_kolmogorov_pair(
            threestate,
            g_pair=np.zeros((3, 2)),
            f_pair=lambda ts: cost_layer(threestate, ts),
            n_steps=1000,
        )
        n = 10_000
        vals = _running_costs(
            threestate,
            [jc.simulate_pair_path(threestate, 0.0, 1, 0, None, rng=jc.child_rng(12, i)) for i in range(n)],
        )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - grid.values[0, 1, 0]) <= 3.0 * se


def layered_policy_gain(p, table):
    """Exact gain at t = 0 of a policy that is constant on each of the
    len(table) - 1 uniform layers, for a running cost constant in time: one
    matrix exponential per layer of the generator augmented by a cost column."""
    idx = np.arange(p.n_states)
    n_layers, n = len(table) - 1, p.n_states
    v = p.terminal_cost.copy()
    for acts in table[n_layers - 1::-1]:
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = p.rates[idx, acts] - np.diag(p.row_sums[idx, acts])
        aug[:n, n] = p.running_cost[idx, acts]
        v = (expm(aug * (p.horizon / n_layers)) @ np.append(v, 1.0))[:n]
    return v


class TestLayeredPolicy:
    @pytest.mark.parametrize("n_steps", [400, 500, 2000])
    def test_forty_layers_fourth_order(self, threestate, n_steps):
        # the policy switches on its 40 layer edges; each RK4 sub-step lies
        # in one layer, so the march keeps its fourth order there
        table = np.random.default_rng(3).integers(0, threestate.n_actions, (41, threestate.n_states))
        alpha = jc.FeedbackPolicy(table, threestate.horizon)
        got = jc.evaluate_policy(threestate, alpha, n_steps=n_steps).values[0]
        assert np.abs(got - layered_policy_gain(threestate, table)).max() <= 1e-11

    def test_rejects_policy_of_another_horizon(self, threestate):
        alpha = jc.FeedbackPolicy(np.zeros((4, threestate.n_states)), 3.0)
        with pytest.raises(ValueError, match="horizons differ"):
            jc.evaluate_policy(threestate, alpha, n_steps=100)
        with pytest.raises(ValueError, match="horizons differ"):
            jc.solve_kolmogorov(threestate, alpha, n_steps=100)

    @pytest.mark.parametrize("entry", ["evaluate_policy", "solve_kolmogorov", "simulate_controlled_paths"])
    @pytest.mark.parametrize("table", ["minus_one", "n_actions", "narrow", "wide"])
    def test_rejects_policy_not_on_the_problem(self, threestate, table, entry):
        # numpy would wrap -1 to the last action and sample from a wide table without error
        nS, nA = threestate.n_states, threestate.n_actions
        tables = {"minus_one": np.full((4, nS), -1), "n_actions": np.full((4, nS), nA),
                  "narrow": np.zeros((4, nS - 1)), "wide": np.zeros((4, 5))}
        alpha = jc.FeedbackPolicy(tables[table], threestate.horizon)
        calls = {
            "evaluate_policy": lambda: jc.evaluate_policy(threestate, alpha, n_steps=100),
            "solve_kolmogorov": lambda: jc.solve_kolmogorov(threestate, alpha, n_steps=100),
            "simulate_controlled_paths": lambda: jc.simulate_controlled_paths(
                threestate, alpha, 0.0, 0, 10, jc.child_rng(0, 0)
            ),
        }
        with pytest.raises(ValueError, match="policy table"):
            calls[entry]()


def constant_f(p):
    return jc.Problem(p.states, p.actions, p.rates, p.lambda0, p.running_cost[0], p.terminal_cost, p.horizon)


class TestStepMaps:
    """Both Kolmogorov solvers take a sub-step as one product with the step
    map of its generator where the map fits linear._MAP_MAX_ENTRIES and the
    maps kept fit the size of the grid, and by the stage rule elsewhere; the
    two paths agree."""

    @staticmethod
    def solvers(p):
        forty = jc.FeedbackPolicy(np.random.default_rng(3).integers(0, p.n_actions, (41, p.n_states)), p.horizon)
        picard = jc.extract_feedback(jc.solve_hjb_picard(p, n_steps=2000))
        return {
            "picard": lambda: jc.evaluate_policy(p, picard, n_steps=2000).values,
            "forty_layers": lambda: jc.evaluate_policy(p, forty, n_steps=400).values,
            "pair": lambda: jc.solve_kolmogorov_pair(p, n_steps=2000).values,
        }

    @pytest.mark.parametrize("case", ["picard", "forty_layers", "pair"])
    @pytest.mark.parametrize("name", ["m2", "threestate"])
    def test_map_path_matches_stage_path(self, name, case, request, monkeypatch):
        solve = self.solvers(request.getfixturevalue(name))[case]
        built = []
        step_maps = linear._step_maps
        monkeypatch.setattr(linear, "_step_maps", lambda gens, *args: built.append(len(gens)) or step_maps(gens, *args))
        mapped = solve()
        assert sum(built) >= 1
        monkeypatch.setattr(linear, "_MAP_MAX_ENTRIES", 0)
        built.clear()
        staged = solve()
        assert built == []
        assert np.abs(mapped - staged).max() <= 1e-14

    def test_maps_of_distinct_rows_stay_within_the_grid(self, monkeypatch):
        # 400 layers on 16 states, every row distinct: maps of 64 x 16 entries
        # go to no more generators than the 401 x 16 grid holds, one at a time
        p = random_problem(4, 16, 2, 400.0, 2)
        table = np.random.default_rng(5).choice(1 << 16, 401, replace=False)[:, None] >> np.arange(16) & 1
        alpha = jc.FeedbackPolicy(table, p.horizon)
        built = []
        step_maps = linear._step_maps
        monkeypatch.setattr(linear, "_step_maps", lambda gens, *args: built.append(len(gens)) or step_maps(gens, *args))
        mapped = jc.evaluate_policy(p, alpha, n_steps=400).values
        assert built == [1] * (401 // 64)
        monkeypatch.setattr(linear, "_MAP_MAX_ENTRIES", 0)
        assert np.abs(mapped - jc.evaluate_policy(p, alpha, n_steps=400).values).max() <= 1e-14

    def test_running_cost_that_broadcasts(self, threestate):
        alpha = jc.constant_policy(threestate, 0)
        full = jc.solve_kolmogorov(threestate, alpha, f_running=lambda ts: np.ones((*ts.shape, 3)), n_steps=200)
        flat = jc.solve_kolmogorov(threestate, alpha, f_running=lambda ts: np.ones((*ts.shape, 1)), n_steps=200)
        assert np.array_equal(full.values, flat.values)

    def test_past_the_size_rule(self):
        # 48 states: a map of 4 * 48 rows and 48 columns is past the size rule
        p = constant_f(random_problem(6, 48, 2, 5.0, 2))
        assert linear._map_inputs(48, None, 48)[1] is None
        table = np.random.default_rng(3).integers(0, p.n_actions, (41, p.n_states))
        got = jc.evaluate_policy(p, jc.FeedbackPolicy(table, p.horizon), n_steps=2000).values[0]
        assert np.abs(got - layered_policy_gain(p, table)).max() <= 1e-11


class TestPairKolmogorov:
    def test_matches_scalar_when_lambda0_tiny(self, m2):
        # with negligible action switching the pair value at (x, a) is close
        # to the frozen-action value at x
        p = jc.Problem(
            m2.states, m2.actions, m2.rates, np.array([1e-8, 1e-8]),
            m2.running_cost, m2.terminal_cost, m2.horizon,
        )
        pair = jc.solve_kolmogorov_pair(p, n_steps=1000)
        for a in (0, 1):
            frozen = jc.solve_kolmogorov(m2, jc.constant_policy(m2, a), n_steps=1000)
            assert np.allclose(pair.values[:, :, a], frozen.values, atol=1e-6)

    @pytest.mark.parametrize("name", ["m2", "threestate", "random"])
    def test_tilted_generator_at_one_is_the_pair_generator(self, name, request):
        p = random_problem(5, 4, 3, 5.0, 2) if name == "random" else request.getfixturevalue(name)
        nS, nA = p.n_states, p.n_actions
        ref = p.x_generator + np.kron(np.eye(nS), p.lambda0 - p.lambda0.sum() * np.eye(nA))
        got = tilted_pair_generator(p, np.ones((nS, nA, nA)))
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()

    def test_broadcasts_scalar_terminal(self, threestate):
        pair = jc.solve_kolmogorov_pair(threestate, n_steps=200)
        assert pair.values.shape == (201, 3, 2)
        assert np.allclose(pair.values[-1, :, 0], threestate.terminal_cost)
        assert np.allclose(pair.values[-1, :, 1], threestate.terminal_cost)

    def test_mc_check_markov(self, m2):
        alpha = jc.constant_policy(m2, 1)
        report = mc_check_markov(
            m2, alpha, 0.0, 0, 0.5, m2.terminal_cost, n_paths=5000, master_seed=3
        )
        assert report["within_3se"]

    def test_mc_check_markov_terminal_time(self, m2):
        alpha = jc.constant_policy(m2, 1)
        report = mc_check_markov(
            m2, alpha, 0.0, 0, m2.horizon, m2.terminal_cost, n_paths=100, master_seed=3
        )
        assert report["difference"] == 0.0


def csv_writer_values(fh, grid, states):
    """Row-by-row csv.writer reference for ValueGrid.to_csv."""
    w = csv.writer(fh)
    ts = grid.times
    w.writerow(["k", "t", "state", "value"])
    for k in range(grid.n_steps + 1):
        for x, sx in enumerate(states):
            w.writerow([k, repr(float(ts[k])), sx, repr(float(grid.values[k, x]))])


QUOTED_LABELS = ("a,b", 'say "hi"', "", "two\nlines", "plain")


class TestValueGridCSV:
    def test_bytes_match_csv_writer(self, tmp_path):
        # 5000 nodes x 5 states passes the row chunk size of the writer
        rng = np.random.default_rng(4)
        states = QUOTED_LABELS
        shape = (5001, len(states))
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        vals.flat[:3] = (0.0, -0.0, 1.0)
        grid = jc.ValueGrid(vals, 0.7)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        with open(ours, "w", newline="") as fh:
            grid.to_csv(fh, states)
        with open(ref, "w", newline="") as fh:
            csv_writer_values(fh, grid, states)
        assert ours.read_bytes() == ref.read_bytes()

    def test_round_trip_layout(self, m2, tmp_path):
        grid = jc.solve_kolmogorov(m2, jc.constant_policy(m2, 1), n_steps=10)
        out = tmp_path / "values.csv"
        with open(out, "w") as fh:
            grid.to_csv(fh, m2.states)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,t,state,value"
        assert len(lines) == 1 + 11 * 2  # header + (N + 1) layers x 2 states


class TestStepLimit:
    def test_substep_rule_at_the_limit(self):
        # N = 2000 over T = 1: a bound of 5e5 needs 500 sub-steps a step, 1e6 in all
        assert _substeps(2000, 1.0, 5e5, "march") == 500
        assert 2000 * 500 == MAX_RK4_STEPS
        with pytest.raises(ValueError, match="march at rate bound 500100 needs 501 RK4 sub-steps"):
            _substeps(2000, 1.0, 5.001e5, "march")

    def test_substeps_put_layer_edges_on_boundaries(self):
        # 40 layers on 500 steps: a layer is 12.5 steps, so 2 sub-steps a step
        assert _substeps(500, 1.0, 1.0, "march", 40) == 2
        assert _substeps(2000, 1.0, 1.0, "march", 40) == 1
        assert _substeps(500, 1.0, 500.0, "march", 40) == 2
        assert _substeps(500, 1.0, 501.0, "march", 40) == 4
        assert _substeps(199, 1.0, 1.0, "march", 200) == 200

    def test_misaligned_policy_refused_before_marching(self, threestate):
        # a 2000-layer policy on 1999 steps needs 2000 sub-steps a step
        alpha = jc.extract_feedback(jc.solve_hjb_picard(threestate, n_steps=2000))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="past the limit"):
            jc.evaluate_policy(threestate, alpha, n_steps=1999)
        assert time.perf_counter() - start < 1.0

    def test_kolmogorov_marches_refused_before_marching(self):
        # rate 2e6 at N = 2000 would need 4e6 sub-steps
        p = jc.Problem(
            ("0", "1"), ("0",), np.array([[[0.0, 2e6]], [[0.0, 0.0]]]),
            np.array([1.0]), np.zeros((2, 1)), np.array([0.0, 1.0]), 1.0,
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match="past the limit"):
            jc.evaluate_policy(p, jc.constant_policy(p, 0), n_steps=2000)
        with pytest.raises(ValueError, match="past the limit"):
            jc.solve_kolmogorov_pair(p, n_steps=2000)
        assert time.perf_counter() - start < 1.0
