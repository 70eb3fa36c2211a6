import csv
import io
import math

import numpy as np
import pytest

import jumpcontrol as jc
import path_loops
from jumpcontrol.randomized import (
    _log_weights,
    ImpossibleMarkError,
    d_split,
    dual_gain_direct,
    dual_gain_importance,
    dual_value_check,
    girsanov_mean_weight,
    greedy_control_from_vn,
)
from jumpcontrol.bsde import constraint_violation
from jumpcontrol.model import cost_layer
from jumpcontrol.simulate import NU_MIN, Path, _running_costs


def make_pair_path(t0, x0, a0, jumps, T):
    """Hand-built pair path from a list of (time, x, a) marks."""
    times = np.array([j[0] for j in jumps])
    xm = np.array([j[1] for j in jumps], dtype=np.int64)
    am = np.array([j[2] for j in jumps], dtype=np.int64)
    return Path(t0, x0, a0, times, xm, am, T)


class TestDSplit:
    def test_pure_x_channel(self, m2):
        # state change with unchanged action: all mass on the X channel
        assert d_split(m2, 0, 1, 1, 1) == (0.0, 1.0)

    def test_pure_i_channel(self, m2):
        # action change with unchanged state: all mass on the I channel
        assert d_split(m2, 0, 1, 0, 0) == (1.0, 0.0)

    def test_mixed_channels(self):
        # a self-loop rate makes the mark (y = x, b = i) reachable by both
        # channels; shares follow the rate masses
        rates = np.full((2, 2, 2), 0.0)
        rates[0, 0, 0] = 0.3
        p = jc.Problem(
            ("0", "1"), ("a", "b"), rates, np.array([0.7, 0.3]),
            np.zeros((2, 2)), np.zeros(2), 1.0,
        )
        d1, d2 = d_split(p, 0, 0, 0, 0)
        assert d1 == pytest.approx(0.7 / 1.0)
        assert d2 == pytest.approx(0.3 / 1.0)
        assert d1 + d2 == pytest.approx(1.0)

    def test_impossible_mark_raises(self, m2):
        # state and action changing at once carries no compensator mass
        with pytest.raises(ImpossibleMarkError):
            d_split(m2, 0, 1, 1, 0)

    def test_arrays_match_scalar_calls(self, threestate):
        marks = [(0, 1, 2, 1), (2, 0, 2, 1), (1, 1, 0, 1), (1, 0, 1, 1)]
        d1, d2 = d_split(threestate, *np.array(marks).T)
        assert np.array_equal(np.stack((d1, d2), axis=1), [d_split(threestate, *m) for m in marks])
        with pytest.raises(ImpossibleMarkError):
            d_split(threestate, *np.array(marks + [(0, 0, 1, 1)]).T)


class TestGirsanovWeight:
    def test_no_jump_closed_form(self, zero_rate):
        # L_T = exp(int (1 - nu) lambda0(A) dr) on a jump-free path
        c = 0.4
        nu = jc.constant_control(zero_rate, c)
        path = make_pair_path(0.0, 0, 0, [], 1.0)
        w = _log_weights(zero_rate, nu, [path])[0]
        assert w == pytest.approx((1.0 - c) * 2.0 * 1.0)
        assert math.exp(w) == pytest.approx(math.exp((1.0 - c) * 2.0))

    def test_unit_control_is_identity(self, m2):
        nu = jc.constant_control(m2, 1.0)
        for i in range(50):
            path = jc.simulate_pair_path(m2, 0.0, 0, 1, None, rng=jc.child_rng(21, i))
            assert _log_weights(m2, nu, [path])[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_jump_hand_value(self, m2):
        # one I-jump at time 0.5 switching action 0 -> 1 under constant nu:
        # log L = (1 - nu) lambda0(A) T + log(nu d1 + d2) with d1 = 1
        c = 2.0
        nu = jc.constant_control(m2, c, n_max=4.0)
        path = make_pair_path(0.0, 0, 0, [(0.5, 0, 1)], 1.0)
        w = _log_weights(m2, nu, [path])[0]
        assert w == pytest.approx((1.0 - c) * 1.0 * 1.0 + math.log(c))

    def test_rejects_controlled_path(self, m2):
        alpha = jc.constant_policy(m2, 0)
        path = jc.simulate_controlled_paths(m2, alpha, 0.0, 0, 1, jc.child_rng(7, 0)).path(0)
        with pytest.raises(ValueError):
            _log_weights(m2, jc.constant_control(m2, 1.0), [path])[0]

    def test_layered_drift_integration(self, zero_rate):
        # two layers with constant nu on each half; jump-free path gives
        # log L = (1 - nu_0) lam0(A)/2 + (1 - nu_1) lam0(A)/2 with lam0(A) = 2
        field = np.empty((2, 2, 2, 2))
        field[0] = 0.5
        field[1] = 2.0
        nu = jc.IntensityControl(field, 1.0, 4.0)
        path = make_pair_path(0.0, 0, 0, [], 1.0)
        w = _log_weights(zero_rate, nu, [path])[0]
        assert w == pytest.approx((1.0 - 0.5) * 1.0 + (1.0 - 2.0) * 1.0)

    def test_martingale_property(self, m2):
        for c, seed in ((0.3, 31), (1.6, 32)):
            nu = jc.constant_control(m2, c, n_max=2.0)
            mean, se = girsanov_mean_weight(m2, nu, 0.0, 0, 1, 20_000, master_seed=seed)
            assert abs(mean - 1.0) <= 3.0 * se


def with_time_dependent_cost(p, n_nodes, horizon, seed):
    """p with a random f on n_nodes uniform time nodes over [0, horizon]."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1.0, 1.0, (n_nodes, p.n_states, p.n_actions))
    return jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, horizon)


class TestBatchMatchesLoops:
    """Batch running costs and log weights against the per-path loops."""

    @pytest.fixture(scope="class", params=["constant f", "time-dependent f"])
    def case(self, request, threestate):
        p = threestate
        if request.param == "time-dependent f":
            p = with_time_dependent_cost(threestate, 6, 0.7, 80)  # cost nodes k T / 5
        T = p.horizon
        rng = np.random.default_rng(81)
        nu = jc.IntensityControl(rng.uniform(0.2, 3.0, (8, 3, 2, 2)), T, 3.0)
        paths = [
            jc.simulate_pair_path(p, 0.0, i % 3, i % 2, None, rng=jc.child_rng(82, i))
            for i in range(24)
        ]
        paths += [
            jc.simulate_pair_path(p, 0.3 * T, 1, 0, 83),
            Path(0.0, 2, 1, [], [], [], T),  # no jumps
            # On cost nodes (k T / 5) and control layer edges (j T / 8).
            Path(0.0, 0, 0, [T / 5, 2 * T / 5, T / 2, 3 * T / 4, 4 * T / 5],
                 [1, 1, 2, 2, 0], [0, 1, 1, 0, 0], T),
            Path(0.1 * T, 1, 1, [0.4 * T, T], [0, 0], [1, 0], T),  # last jump at T
        ]
        return p, nu, paths

    def test_running_cost(self, case):
        p, _, paths = case
        ref = np.array([path_loops.running_cost_along_path(p, q) for q in paths])
        got = _running_costs(p, paths)
        if p.running_cost.ndim == 2:
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 1e-12
        assert [_running_costs(p, [q])[0] for q in paths] == got.tolist()

    def test_log_weight(self, case):
        p, nu, paths = case
        ref = np.array([path_loops.girsanov_log_weight(p, nu, q) for q in paths])
        got = _log_weights(p, nu, paths)
        assert np.abs(got - ref).max() <= 1e-12
        assert [_log_weights(p, nu, [q])[0] for q in paths] == got.tolist()
        # The mark term of the jump at T counts: it is an I-jump, so d1 = 1.
        no_last = Path(0.1 * p.horizon, 1, 1, [0.4 * p.horizon], [0], [1], p.horizon)
        assert got[-1] - _log_weights(p, nu, [no_last])[0] == pytest.approx(math.log(nu.field[-1, 0, 1, 0]))

    def test_estimators_average_the_loop_samples(self, case):
        # 600 paths: two full batches and a partial one; without paths= the
        # estimators draw them as one batch on child stream 0
        p, nu, _ = case
        n, T = 600, p.horizon
        batch = jc.simulate_pair_paths(p, jc.constant_control(p, 1.0), 0.0, 1, 0, n, jc.child_rng(84, 0))
        ref_paths = [batch.path(i) for i in range(n)]
        payoff = np.array([
            p.terminal_cost[q.state_at(T)] + path_loops.running_cost_along_path(p, q) for q in ref_paths
        ])
        weight = np.exp([path_loops.girsanov_log_weight(p, nu, q) for q in ref_paths])
        for estimate, samples in (
            (dual_gain_importance(p, nu, 0.0, 1, 0, n, master_seed=84), weight * payoff),
            (girsanov_mean_weight(p, nu, 0.0, 1, 0, n, paths=ref_paths), weight),
        ):
            assert estimate == pytest.approx(
                (samples.mean(), samples.std(ddof=1) / math.sqrt(n)), rel=1e-12
            )
        batch = jc.simulate_pair_paths(p, nu, 0.0, 1, 0, n, jc.child_rng(85, 0))
        tilted = [batch.path(i) for i in range(n)]
        direct = np.array([
            p.terminal_cost[q.state_at(T)] + path_loops.running_cost_along_path(p, q) for q in tilted
        ])
        assert dual_gain_direct(p, nu, 0.0, 1, 0, n, master_seed=85) == pytest.approx(
            (direct.mean(), direct.std(ddof=1) / math.sqrt(n)), rel=1e-12
        )

    def test_chunk_c_of_4096_paths_is_child_stream_c(self, case):
        p, nu, _ = case
        T = p.horizon
        chunks = [jc.simulate_pair_paths(p, nu, 0.0, 2, 1, n, jc.child_rng(89, c)) for c, n in enumerate((4096, 5))]
        paths = [b.path(i) for b in chunks for i in range(len(b))]
        payoff = np.array([p.terminal_cost[q.state_at(T)] + path_loops.running_cost_along_path(p, q) for q in paths])
        assert dual_gain_direct(p, nu, 0.0, 2, 1, 4101, master_seed=89) == pytest.approx(
            (payoff.mean(), payoff.std(ddof=1) / math.sqrt(4101)), rel=1e-12
        )


class TestPathCount:
    """The one rule of the four pair-path estimates (simulate._estimate):
    n_paths of at least 1, given paths of exactly n_paths that all start at
    (t, x, a), and drawn paths that are simulate_pair_sample's."""

    @staticmethod
    def target(p, estimator):
        """The tilt an estimator takes, or the v^n of constraint_violation."""
        return jc.solve_penalized(p, 2, n_steps=50) if estimator is constraint_violation else jc.constant_control(p, 2.0)

    @pytest.mark.parametrize("estimator", [dual_gain_importance, girsanov_mean_weight, constraint_violation])
    @pytest.mark.parametrize("given", [50, 250])
    def test_wrong_batch_size_raises(self, m2, estimator, given):
        # fewer paths than n_paths used to average uninitialised entries,
        # more used to raise IndexError
        paths = [jc.simulate_pair_path(m2, 0.0, 0, 0, None, rng=jc.child_rng(86, i)) for i in range(given)]
        with pytest.raises(ValueError):
            estimator(m2, self.target(m2, estimator), 0.0, 0, 0, 200, paths=paths)

    @pytest.mark.parametrize(
        "estimator", [dual_gain_importance, girsanov_mean_weight, dual_gain_direct, constraint_violation]
    )
    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_count_below_one_raises(self, m2, estimator, n_paths):
        # 0 used to return NaN with numpy's "Mean of empty slice" warning
        with pytest.raises(ValueError, match="at least 1"):
            estimator(m2, self.target(m2, estimator), 0.0, 0, 0, n_paths)
        if estimator is not dual_gain_direct:
            with pytest.raises(ValueError, match="at least 1"):
                estimator(m2, self.target(m2, estimator), 0.0, 0, 0, n_paths, paths=[])

    @pytest.mark.parametrize("estimator", [dual_gain_importance, girsanov_mean_weight, constraint_violation])
    def test_paths_from_another_start_raise(self, m2, estimator):
        # they used to give an estimate for the start the paths came from
        target = self.target(m2, estimator)
        batch = jc.simulate_pair_sample(m2, None, 0.0, 0, 0, 60, 5)
        for start in [(0.5, 0, 0), (0.0, 1, 0), (0.0, 0, 1)]:
            with pytest.raises(ValueError, match="does not start at"):
                estimator(m2, target, *start, 60, paths=batch)
        # one path of the list from elsewhere is enough
        paths = [batch.path(i) for i in range(59)] + [jc.Path(0.0, 0, 1, [], [], [], m2.horizon)]
        with pytest.raises(ValueError, match="does not start at"):
            estimator(m2, target, 0.0, 0, 0, 60, paths=paths)
        estimator(m2, target, 0.0, 0, 0, 60, paths=batch)

    @pytest.mark.parametrize("estimator", [dual_gain_importance, girsanov_mean_weight])
    def test_drawn_paths_are_the_reference_pair_sample(self, m2, estimator):
        nu = jc.constant_control(m2, 2.0)
        drawn = estimator(m2, nu, 0.0, 0, 1, 300, 17)
        given = estimator(m2, nu, 0.0, 0, 1, 300, paths=jc.simulate_pair_sample(m2, None, 0.0, 0, 1, 300, 17))
        assert repr(drawn) == repr(given)


class TestDualGain:
    def test_importance_matches_direct(self, m2):
        nu = jc.constant_control(m2, 1.5, n_max=2.0)
        imp, se_i = dual_gain_importance(m2, nu, 0.0, 0, 1, 20_000, master_seed=41)
        direct, se_d = dual_gain_direct(m2, nu, 0.0, 0, 1, 20_000, master_seed=42)
        assert abs(imp - direct) <= 3.0 * math.hypot(se_i, se_d)

    def test_unit_control_matches_pair_kolmogorov(self, threestate):
        nu = jc.constant_control(threestate, 1.0)
        grid = jc.solve_kolmogorov_pair(
            threestate, f_pair=lambda ts: cost_layer(threestate, ts), n_steps=1000
        )
        est, se = dual_gain_direct(threestate, nu, 0.0, 0, 0, 20_000, master_seed=43)
        assert abs(est - grid.values[0, 0, 0]) <= 3.0 * se


class TestGreedyControl:
    def test_bang_bang_values(self, m2):
        vn = jc.solve_penalized(m2, 16, n_steps=500)
        nu = greedy_control_from_vn(m2, vn, n_layers=8)
        vals = np.unique(nu.field)
        assert set(vals.tolist()) <= {NU_MIN, 16.0}
        assert nu.field.shape == (8, 2, 2, 2)

    def test_pushes_toward_higher_value(self, m2):
        # on M2 the penalized value at state 0 is higher under action "2"
        # (index 1), so the greedy tilt from (0, action 0) targets b = 1
        vn = jc.solve_penalized(m2, 16, n_steps=500)
        nu = greedy_control_from_vn(m2, vn, n_layers=8)
        assert nu.field[0, 0, 0, 1] == 16.0
        assert nu.field[0, 0, 1, 0] == NU_MIN

    @pytest.mark.parametrize("n_layers", [1, 5, 64, 100])
    def test_field_matches_per_layer_loop(self, threestate, n_layers):
        p = threestate
        vn = jc.solve_penalized(p, 64, n_steps=400)
        edges = np.linspace(0.0, p.horizon, n_layers + 1)
        expect = np.full((n_layers, p.n_states, p.n_actions, p.n_actions), NU_MIN)
        for j in range(n_layers):
            layer = vn.values.layer_at(0.5 * (edges[j] + edges[j + 1]))  # (x, a)
            expect[j][layer[:, None, :] > layer[:, :, None]] = 64.0
        assert greedy_control_from_vn(p, vn, n_layers).field.tobytes() == expect.tobytes()


class TestDualValueCheck:
    def test_m2_report(self, m2):
        primal = jc.solve_hjb_picard(m2, n_steps=1000)
        vn = jc.solve_penalized(m2, 64, n_steps=1000)
        report = dual_value_check(
            m2, 0.0, 0, primal.values.values[0, 0], vn, n_paths=4000, master_seed=5
        )
        assert report.all_below_primal
        assert report.greedy_reaches_target
        ids = {r.control_id for r in report.rows}
        assert ids == {"nu=1", "greedy"}
        buf = io.StringIO()
        report.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == (
            "control_id,start_a,estimator,mean,std_error,n_paths"
        )
        # the whole file, also at one path, whose standard errors are NaN
        one = dual_value_check(m2, 0.0, 0, primal.values.values[0, 0], vn, n_paths=1, master_seed=5)
        assert all(math.isnan(r.std_error) for r in one.rows)
        for rep in (report, one):
            ours, ref = io.StringIO(), io.StringIO()
            rep.to_csv(ours)
            w = csv.writer(ref)
            w.writerow(["control_id", "start_a", "estimator", "mean", "std_error", "n_paths"])
            for r in rep.rows:
                w.writerow([r.control_id, r.start_a, r.estimator, repr(r.mean), repr(r.std_error), r.n_paths])
            assert ours.getvalue() == ref.getvalue()
