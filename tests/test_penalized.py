import csv
import io

import numpy as np
import pytest

import einsum_penalized
import jumpcontrol as jc
from einsum_penalized import penalty_layer, penalty_term
from jumpcontrol import linear, penalized
from jumpcontrol.linear import _rk4_march
from jumpcontrol.model import cost_layer, tilted_pair_generator
from jumpcontrol.penalized import _march_levels, _substep
from test_hjb import random_problem

ALL_LEVELS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class TestPenaltyTerm:
    def test_hand_computed(self):
        # v = [[0, 1]], lambda0 = (0.5, 0.5), n = 4, at (x=0, a=0):
        # psi_b0 = 0, psi_b1 = 1 -> (4*1 - 1)*0.5 = 1.5
        v = np.array([[0.0, 1.0]])
        lam0 = np.array([0.5, 0.5])
        assert penalty_term(v, 0, 0, lam0, 4) == pytest.approx(1.5)
        # at (x=0, a=1): psi_b0 = -1, psi_b1 = 0 -> (0 - (-1))*0.5 = 0.5
        assert penalty_term(v, 0, 1, lam0, 4) == pytest.approx(0.5)

    def test_layer_matches_scalar(self, threestate):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(3, 2))
        layer = penalty_layer(v, threestate.lambda0, 7)
        for x in range(3):
            for a in range(2):
                assert layer[x, a] == pytest.approx(
                    penalty_term(v, x, a, threestate.lambda0, 7)
                )

    def test_vanishes_on_flat_layers(self):
        v = np.full((4, 3), 0.8)
        assert np.allclose(penalty_layer(v, np.array([0.2, 0.3, 0.5]), 100), 0.0)

    def test_nonnegative_coupling_at_level_one(self):
        # with n = 1 the summand is [psi]^+ - psi = [-psi]^+ >= 0
        rng = np.random.default_rng(1)
        v = rng.normal(size=(5, 4))
        lam0 = rng.uniform(0.1, 1.0, size=4)
        assert np.all(penalty_layer(v, lam0, 1) >= -1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_coupling_cancels_lambda0_part_of_pair_generator(self, threestate, seed):
        # L_pair v + penalty_layer(v) == L_X v + n sum_b [psi]^+ lambda0[b]:
        # the cancelled form the penalized march uses.
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(3, 2))
        lam0 = threestate.lambda0
        n = int(rng.integers(0, 300))
        x_part = (threestate.x_generator @ v.reshape(-1)).reshape(v.shape)
        pair = x_part + (v @ lam0)[:, None] - lam0.sum() * v
        psi = v[:, None, :] - v[:, :, None]
        cancelled = x_part + n * (np.maximum(psi, 0.0) @ lam0)
        assert np.abs(pair + penalty_layer(v, lam0, n) - cancelled).max() <= 1e-13


class TestSolvePenalized:
    def test_rejects_negative_level(self, m2):
        with pytest.raises(ValueError):
            jc.solve_penalized(m2, -1)

    @pytest.mark.parametrize("level", [2.5, float("nan")])
    def test_rejects_fractional_level(self, threestate, level):
        # 2.5 would march at 2.5 lambda0 and be read back as level 2 by K and the residual
        with pytest.raises(ValueError, match="nonnegative integers"):
            jc.solve_penalized(threestate, level)

    def test_level_zero_is_linear_pair_equation(self, threestate):
        # n = 0 keeps only the -psi coupling, which cancels against nothing:
        # deriv reduces to pair generator + f because
        # sum_b (-(v(b) - v(a))) lam0[b] = lam0_tot v(a) - (v @ lam0),
        # i.e. it exactly cancels the lambda0 part of the pair generator.
        sol = jc.solve_penalized(threestate, 0, n_steps=500)
        frozen = {
            a: jc.evaluate_policy(
                threestate, jc.constant_policy(threestate, a), n_steps=500
            )
            for a in range(2)
        }
        for a in range(2):
            assert np.abs(sol.values.values[:, :, a] - frozen[a].values).max() <= 1e-9

    def test_terminal_condition_flat_in_a(self, m2):
        sol = jc.solve_penalized(m2, 8, n_steps=100)
        term = sol.values.values[-1]
        assert np.array_equal(term[:, 0], m2.terminal_cost)
        assert np.array_equal(term[:, 1], m2.terminal_cost)

    def test_substeps_grow_with_level(self, m2):
        lo = jc.solve_penalized(m2, 1, n_steps=100)
        hi = jc.solve_penalized(m2, 256, n_steps=100)
        assert hi.n_substeps > lo.n_substeps

    def test_m2_level_convergence(self, m2):
        # v^256 at (0, state 0) should be close to the primal value from
        # below
        primal = jc.solve_hjb_picard(m2, n_steps=1000)
        sol = jc.solve_penalized(m2, 256, n_steps=1000)
        v0 = primal.values.values[0, 0]
        vn0 = sol.values.values[0, 0, :]
        assert np.all(vn0 <= v0 + 1e-9)
        assert v0 - vn0.min() <= 0.05


class TestMatchesEinsumReference:
    """The flat march against the einsum march of tests/einsum_penalized.py."""

    def assert_agrees(self, p, levels, n_steps):
        sols = _march_levels(p, levels, n_steps)
        ref, n_sub = einsum_penalized.march_levels(p, levels, n_steps)
        x_gen = einsum_penalized.pair_x_generator(p)
        for i, sol in enumerate(sols):
            assert sol.n_substeps == n_sub
            # values at most 3.6e-15 off (the rate up to 1.3e-14); a map built through I + P is further off
            assert np.abs(sol.values.values - ref[:, i]).max() <= 1e-14
            assert np.abs(sol.compensator_rate.values - x_gen(ref[:, i])).max() <= 1e-13
        return n_sub

    @pytest.mark.parametrize("name", ["m2", "threestate"])
    def test_all_levels(self, name, request):
        self.assert_agrees(request.getfixturevalue(name), ALL_LEVELS, 2000)

    def test_level_zero(self, threestate):
        self.assert_agrees(threestate, [0], 500)

    def test_substeps(self, threestate):
        assert self.assert_agrees(threestate, [256], 100) > 1

    def test_time_dependent_running_cost(self):
        p = random_problem(7, 4, 3, 5.0, 6)
        assert p.running_cost.ndim == 3
        self.assert_agrees(p, [0, 3, 50], 300)


class TestAffineSubsteps:
    """The march takes sub-steps by one affine map per sign pattern of psi
    where it is small enough, and nonlinear ones where psi changes sign."""

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat"])
    def test_family_takes_the_maps(self, name, request):
        # aflat: psi is 0 throughout, and its rounding must not send every step to the nonlinear stages
        sols = _march_levels(request.getfixturevalue(name), ALL_LEVELS, 2000)
        assert sols[0].n_substeps == 1
        assert all(s.nonlinear_steps <= 12 for s in sols)
        assert all(s.maps_built >= len(ALL_LEVELS) for s in sols)

    @pytest.mark.parametrize("shape", [(8, 4, 8.0, 5), (16, 2, 10.0, 9)])
    def test_churn_heavy_shapes_with_the_maps_forced(self, shape, monkeypatch):
        monkeypatch.setattr(linear, "_MAP_MAX_ENTRIES", 1 << 30)
        p = random_problem(5, *shape)
        n_sub = TestMatchesEinsumReference().assert_agrees(p, (1, 8, 64), 500)
        sol = _march_levels(p, (1, 8, 64), 500)[0]
        assert 0 < sol.nonlinear_steps < 500 * n_sub
        assert sol.maps_built > 3 * 10  # many sign changes, each rebuilding its level

    @pytest.mark.parametrize("shape", [(8, 4, 8.0, 5), (16, 2, 10.0, 9)])
    def test_above_the_size_rule_every_substep_is_nonlinear(self, shape):
        p = random_problem(5, *shape)
        rows, cols = penalized._level_map(p)[0]
        assert rows * cols > linear._MAP_MAX_ENTRIES
        n_sub = TestMatchesEinsumReference().assert_agrees(p, (1, 8, 64), 500)
        sol = _march_levels(p, (1, 8, 64), 500)[0]
        assert (sol.nonlinear_steps, sol.maps_built) == (500 * n_sub, 0)

    def test_level_zero_never_falls_back(self, threestate):
        sol = _march_levels(threestate, [0], 500)[0]
        assert (sol.nonlinear_steps, sol.maps_built) == (0, 1)

    @pytest.mark.parametrize("f_nodes", [0, 6])
    def test_map_is_the_linear_step_and_its_stage_checks(self, f_nodes, monkeypatch):
        # against RK4 written out for the penalty frozen at a random pattern:
        # the increment, and psi (2 sigma - 1) at w1 = v, w2, w3 and w4; with
        # f constant, for every sub-step of a block, from the block's start
        monkeypatch.setattr(penalized, "_BLOCK_MAX_ENTRIES", 1 << 30)
        p = random_problem(7, 4, 3, 5.0, 6)
        if not f_nodes:
            p = jc.Problem(p.states, p.actions, p.rates, p.lambda0, p.running_cost[0], p.terminal_cost, p.horizon)
        rng = np.random.default_rng(f_nodes)
        levels, h, m = [0, 8], 1e-3, p.n_states * p.n_actions
        step = _substep(p, levels)
        assert step.block == (1 if f_nodes else penalized._BLOCK_MAX_STEPS)
        sigma = rng.random(step.weights.shape) < 0.5
        step.build(np.arange(2), sigma, h)
        v = rng.normal(size=(2, m))
        c = rng.normal(size=(3, m)) if f_nodes else np.broadcast_to(p.running_cost.reshape(-1), (3, m))
        sign = np.where(step.weights > 0.0, 2.0 * sigma - 1.0, 0.0)

        def deriv(w):
            pen = np.zeros_like(w)
            np.add.at(pen, (slice(None), step.lo), step.weights * sigma * (w[:, step.hi] - w[:, step.lo]))
            return -(w @ p.x_generator.T + pen)

        def rk4(w1):
            k1 = deriv(w1) - c[0]
            w2 = w1 - 0.5 * h * k1
            k2 = deriv(w2) - c[1]
            w3 = w1 - 0.5 * h * k2
            k3 = deriv(w3) - c[1]
            w4 = w1 - h * k3
            k4 = deriv(w4) - c[2]
            return w1 - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), (w1, w2, w3, w4)

        got = (v[:, None, :] @ step.v_map)[:, 0]
        got += (c.reshape(1, -1) @ step.tail)[:, 0] if f_nodes else step.tail[:, 0]
        got = got.reshape(2, step.block, -1)  # got[:, j]: sub-step j + 1 of the block
        w = v
        for j in range(step.block):
            w_next, stages = rk4(w)
            expect = np.concatenate([w_next - v] + [(s[:, step.hi] - s[:, step.lo]) * sign for s in stages], axis=1)
            assert np.abs(got[:, j] - expect).max() <= 1e-13
            w = w_next

    def test_tilted_generator_is_the_frozen_penalty(self):
        # at w = n sigma, the derivative that test_map_is_the_linear_step_and_its_stage_checks writes out
        p = random_problem(7, 4, 3, 5.0, 6)
        nS, nA, m = p.n_states, p.n_actions, p.n_states * p.n_actions
        rng = np.random.default_rng(2)
        step = _substep(p, [0, 8])
        sigma = rng.random(step.weights.shape) < 0.5
        w = np.zeros((2, nS, nA, nA))
        w.reshape(2, -1)[:, step.lo * nA + step.hi % nA] = np.array([[0.0], [8.0]]) * sigma
        gens = tilted_pair_generator(p, w)
        v = rng.normal(size=(2, m))
        pen = np.zeros_like(v)
        np.add.at(pen, (slice(None), step.lo), step.weights * sigma * (v[:, step.hi] - v[:, step.lo]))
        expect = v @ p.x_generator.T + pen
        assert np.abs(np.einsum("lij,lj->li", gens, v) - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("name", ["threestate", "random"])
    def test_sign_change_inside_a_substep_falls_back(self, name, request):
        p = random_problem(7, 4, 3, 5.0, 6) if name == "random" else request.getfixturevalue(name)
        levels, h = [8], 1.0 / 2000
        lam0, x_gen = p.lambda0, einsum_penalized.pair_x_generator(p)

        def deriv(s, v):
            psi = v[..., None, :] - v[..., :, None]
            return -(x_gen(v) + cost_layer(p, s) + 8.0 * (np.maximum(psi, 0.0) @ lam0))

        def psi_max(v):
            return (v[..., None, :] - v[..., :, None]).max()

        v = np.broadcast_to(p.terminal_cost[:, None], (1, p.n_states, p.n_actions))
        assert psi_max(v) <= 0.0 < psi_max(v - 0.5 * h * deriv(h, v))  # psi turns positive at w2
        step = _substep(p, levels)
        costs = cost_layer(p, np.array([h, 0.5 * h, 0.0])).reshape(3, -1)
        for _ in range(2):  # the first step falls back; the second takes the rebuilt map
            ref = einsum_penalized.rk4_march(v, 1, h, deriv, 1)[0]  # one RK4 step from h down to 0
            flat = v.reshape(1, -1).copy()
            step(flat, h, [[h, 0.5 * h, 0.0]], [costs], 0)
            assert step.nonlinear_steps == 1
            assert np.abs(flat.reshape(v.shape) - ref).max() <= 1e-13
            v = ref


class TestBlockSubsteps:
    """With f constant in time, one product takes a block of sub-steps by the
    stacked powers of the step map; a block of one is the map itself."""

    @staticmethod
    def constant_f(p):
        return jc.Problem(p.states, p.actions, p.rates, p.lambda0, p.running_cost[0], p.terminal_cost, p.horizon)

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate"])
    @pytest.mark.parametrize("n_steps", [100, 2000])
    def test_block_march_matches_one_substep_per_product(self, name, n_steps, request, monkeypatch):
        p = request.getfixturevalue(name)
        blocks = _march_levels(p, ALL_LEVELS, n_steps)
        monkeypatch.setattr(penalized, "_BLOCK_MAX_STEPS", 1)
        singles = _march_levels(p, ALL_LEVELS, n_steps)
        assert n_steps == 2000 or singles[0].n_substeps > 1
        for b, s in zip(blocks, singles):
            assert (b.nonlinear_steps, b.maps_built) == (s.nonlinear_steps, s.maps_built)
            assert np.abs(b.values.values - s.values.values).max() <= 1e-14
        assert singles[0].block_products == n_steps * singles[0].n_substeps
        assert blocks[0].block_products <= singles[0].block_products / 8

    @pytest.mark.parametrize("name", ["threestate", "random"])
    def test_sign_change_inside_a_block_falls_back_at_the_same_substep(self, name, request, monkeypatch):
        p = self.constant_f(random_problem(5, 2, 2, 3.0, 1)) if name == "random" else request.getfixturevalue(name)
        g = np.repeat(p.terminal_cost, p.n_actions)[None]

        def fallbacks():
            step, seen = _substep(p, [8]), []

            def recording(v, h, rows, costs, i):
                before = step.nonlinear_steps
                states = step(v, h, rows, costs, i)
                if step.nonlinear_steps > before:  # (first sub-step of the call, the nonlinear one)
                    seen.append((i, i if states is None else i + len(states) - 1))
                return states

            _rk4_march(g, 2000, p.horizon, 1, recording, lambda ts: cost_layer(p, ts).reshape(*ts.shape, -1))
            return step.block, seen

        block, in_blocks = fallbacks()
        monkeypatch.setattr(penalized, "_BLOCK_MAX_STEPS", 1)
        one, singly = fallbacks()
        assert (block, one) == (16, 1)
        assert [j for _, j in in_blocks] == [j for _, j in singly]
        assert any(j > i for i, j in in_blocks)  # past the first sub-step of its block

    def test_block_length_rule(self, request):
        for name in ("m2", "threestate", "aflat", "zero_rate"):
            step = _substep(request.getfixturevalue(name), ALL_LEVELS)
            assert step.block == 16
            assert step.maps[0].size <= penalized._BLOCK_MAX_ENTRIES
        # pair spaces of 9, 12 and 38 states: 810, 1404 and 7410 entries per map
        for shape, block in (((3, 3), 5), ((4, 3), 2), ((19, 2), 1)):
            p = self.constant_f(random_problem(5, *shape, 5.0, 1))
            step = _substep(p, (1, 8))
            assert step.block == block
            assert step.block == 1 or step.maps[0].size <= penalized._BLOCK_MAX_ENTRIES
        assert 0.9 * linear._MAP_MAX_ENTRIES < np.prod(penalized._level_map(p)[0]) <= linear._MAP_MAX_ENTRIES
        # f depending on time: the stage costs change from sub-step to sub-step
        assert _substep(random_problem(7, 4, 3, 5.0, 6), (1, 8)).block == 1


class TestConvergenceReport:
    def test_rejects_nonincreasing_levels(self, m2):
        with pytest.raises(ValueError):
            jc.convergence_report(m2, [1, 4, 4])

    @pytest.mark.parametrize("levels", [[], [1, 2.5], [0.5]])
    def test_rejects_empty_and_fractional_levels(self, m2, levels):
        with pytest.raises(ValueError, match="penalization level"):
            jc.convergence_report(m2, levels, n_steps=100)

    def test_accepts_a_generator_of_levels(self, m2):
        report = jc.convergence_report(m2, (2**k for k in range(3)), n_steps=100)
        assert [r.level for r in report.rows] == [1, 2, 4]

    def test_m2_report_structure(self, m2):
        report = jc.convergence_report(m2, [1, 2, 4, 8], n_steps=500)
        assert [r.level for r in report.rows] == [1, 2, 4, 8]
        assert report.rows[0].monotonicity_violations == 0  # no predecessor
        sigmas = [r.sigma for r in report.rows]
        assert sigmas == sorted(sigmas, reverse=True)
        for r in report.rows:
            assert r.cap_violations == 0
            assert r.monotonicity_violations == 0

    def test_csv_layout(self, m2):
        report = jc.convergence_report(m2, [1, 2], n_steps=200)
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,sigma_n,delta_n,monotonicity_violations,cap_violations"
        assert len(lines) == 3
        ref = io.StringIO()
        w = csv.writer(ref)
        w.writerow(["n", "sigma_n", "delta_n", "monotonicity_violations", "cap_violations"])
        for r in report.rows:
            w.writerow([r.level, repr(r.sigma), repr(r.delta), r.monotonicity_violations, r.cap_violations])
        assert buf.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("name", ["m2", "threestate"])
    def test_family_matches_single_level_solves(self, name, request):
        p = request.getfixturevalue(name)
        report = jc.convergence_report(p, ALL_LEVELS, n_steps=2000)
        for n in ALL_LEVELS:
            single = jc.solve_penalized(p, n, n_steps=2000)
            assert single.n_substeps == report.solutions[n].n_substeps
            assert np.abs(report.solutions[n].values.values - single.values.values).max() <= 1e-12

    def test_family_shares_largest_level_substeps(self, m2):
        # at N = 100 the single-level substep counts differ across levels,
        # so the family marches every level at the count of level 256
        singles = {n: jc.solve_penalized(m2, n, n_steps=100) for n in ALL_LEVELS}
        assert singles[1].n_substeps < singles[256].n_substeps
        report = jc.convergence_report(m2, ALL_LEVELS, n_steps=100)
        # monotone in n within ORDER_TOL, the report's default tolerance
        assert all(r.monotonicity_violations == 0 for r in report.rows)
        for n in ALL_LEVELS:
            sol = report.solutions[n]
            assert sol.n_substeps == singles[256].n_substeps
            assert np.abs(sol.values.values - singles[n].values.values).max() <= 1e-6

    def test_reuses_supplied_primal(self, m2):
        primal = jc.solve_hjb_picard(m2, n_steps=300)
        report = jc.convergence_report(m2, [1, 2], n_steps=300, primal=primal)
        assert report.primal is primal
