import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_bsde
import jumpcontrol as jc
from jumpcontrol.bsde import (
    bsde_residual,
    build_sample,
    constraint_violation,
    minimal_y_report,
    terminal_k,
)
from jumpcontrol.penalized import _march_levels, _positive_part_integral
from jumpcontrol.simulate import _located, _segments


class TestPositivePartIntegral:
    def test_all_positive_is_trapezoid(self):
        assert _positive_part_integral(1.0, 3.0, 0.5) == pytest.approx(1.0)

    def test_all_negative_is_zero(self):
        assert _positive_part_integral(-1.0, -3.0, 2.0) == 0.0

    def test_sign_change_triangle(self):
        # 2 -> -2 over h = 1: positive on [0, 1/2], area 1/2 * 2 * 1/2 = 1/2
        assert _positive_part_integral(2.0, -2.0, 1.0) == pytest.approx(0.5)
        assert _positive_part_integral(-2.0, 2.0, 1.0) == pytest.approx(0.5)

    def test_touching_zero(self):
        assert _positive_part_integral(0.0, 4.0, 1.0) == pytest.approx(2.0)
        assert _positive_part_integral(0.0, 0.0, 1.0) == 0.0

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 3.0)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_quadrature(self, p0, p1, h):
        ts = np.linspace(0.0, 1.0, 20_001)
        vals = np.maximum(p0 + (p1 - p0) * ts, 0.0)
        ref = np.trapezoid(vals, dx=h / 20_000)
        assert _positive_part_integral(p0, p1, h) == pytest.approx(ref, abs=1e-3)

    @staticmethod
    def exact(p0, p1, h):
        """The integral in rational arithmetic, by cases at the exact root."""
        p0, p1, h = Fraction(p0), Fraction(p1), Fraction(h)
        if min(p0, p1) >= 0:
            return (p0 + p1) * h / 2
        if max(p0, p1) <= 0:
            return Fraction(0)
        tau = p0 / (p0 - p1) * h
        return p0 * tau / 2 if p0 > 0 else p1 * (h - tau) / 2

    def test_matches_exact_rational_integral(self):
        # rising, falling and non-crossing segments; the crossings have their
        # root within 1e-12 of an end, where h - tau lost up to every digit
        rng = np.random.default_rng(2028)
        big, other, h = rng.uniform(0.1, 5.0, 200), rng.uniform(0.1, 5.0, 200), rng.uniform(0.01, 3.0, 200)
        small = big * rng.uniform(0.0, 1e-12, 200)  # the root lies within 1e-12 * h of an end
        segments = [
            (-big, small), (-small, big), (-big, other),  # rising
            (big, -small), (small, -big), (big, -other),  # falling
            (big, small), (big, other), (-big, -small), (-big, -other), (0.0 * big, other),  # no crossing
        ]
        for p0, p1 in segments:
            got = _positive_part_integral(p0, p1, h)
            for g, args in zip(got.tolist(), zip(p0.tolist(), p1.tolist(), h.tolist())):
                want = self.exact(*args)
                assert abs(Fraction(g) - want) <= Fraction(1, 10**15) * abs(want), args


EQUIV_LEVELS = (0, 1, 16, 256)


@pytest.fixture(scope="module")
def equiv_cases(request):
    """(problem, N) -> (solutions by level, test paths), built once per module."""
    cache = {}

    def get(name, n_steps):
        if (name, n_steps) not in cache:
            p = request.getfixturevalue(name)
            sols = dict(zip(EQUIV_LEVELS, _march_levels(p, EQUIV_LEVELS, n_steps)))
            T = p.horizon
            node = T * 37 / 100  # a grid node for both N = 100 and N = 2000
            node = sols[0].values.times[round(node / T * n_steps)]
            paths = [
                jc.simulate_pair_path(p, 0.0, i % p.n_states, i % p.n_actions, None,
                                      rng=jc.child_rng(60, i))
                for i in range(24)
            ]
            paths += [
                jc.Path(0.0, 0, 1, [], [], [], T),  # no jumps
                jc.simulate_pair_path(p, 0.3, 1, 0, 61),
                jc.Path(0.0, 0, 0, [node, 0.8 * T], [1, 1], [1, 0], T),  # jump on a node
                jc.Path(0.1, 1, 1, [0.4 * T, T], [0, 1], [0, 0], T),  # last jump at T
            ]
            cache[name, n_steps] = sols, paths
        return cache[name, n_steps]

    return get


@pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate"])
@pytest.mark.parametrize("n_steps", [100, 2000])
class TestDenseEquivalence:
    """The O(jumps) functionals match the grid-dense reference."""

    def test_y_k_z_and_residual(self, equiv_cases, name, n_steps):
        sols, paths = equiv_cases(name, n_steps)
        p = sols[0].problem
        for n, vn in sols.items():
            for path in paths:
                s = build_sample(p, vn, path)
                d = dense_bsde.build_sample(p, vn, path)
                shared = np.searchsorted(d.breakpoints, s.breakpoints)
                assert np.array_equal(d.breakpoints[shared], s.breakpoints)
                assert s.breakpoints.size == np.unique(np.r_[path.t0, path.times, p.horizon]).size
                np.testing.assert_allclose(s.y_values, d.y_values[shared], rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.k_values, d.k_values[shared], rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.jump_z, d.jump_z, rtol=0, atol=1e-12)
                assert abs(bsde_residual(p, s) - dense_bsde.bsde_residual(p, d)) <= 1e-12

    def test_batched_k_terminal_equals_build_sample(self, equiv_cases, name, n_steps):
        sols, paths = equiv_cases(name, n_steps)
        p = sols[0].problem
        for vn in sols.values():
            expect = [build_sample(p, vn, path).k_values[-1] for path in paths]
            assert terminal_k(vn, paths).tolist() == expect


class TestPathCache:
    """A Path keeps its segments and their location on each grid it meets;
    its arrays are read-only, so the cache cannot go stale."""

    BSDE_FIELDS = ("breakpoints", "seg_x", "seg_a", "y_values", "k_values", "jump_z")

    @staticmethod
    def fresh(path):
        return jc.Path(path.t0, path.x0, path.a0, path.times.copy(), path.x_marks.copy(),
                       path.a_marks.copy(), path.horizon)

    def test_reused_path_matches_a_fresh_copy(self, threestate):
        p = threestate
        f = np.random.default_rng(93).uniform(0.0, 1.0, (6, p.n_states, p.n_actions))
        timef = jc.Problem(p.states, p.actions, p.rates, p.lambda0, f, p.terminal_cost, p.horizon)
        runs = [(q, vn) for q in (p, timef) for n_steps in (100, 2000)
                for vn in _march_levels(q, (1, 16), n_steps)]
        T = p.horizon
        paths = [jc.simulate_pair_path(p, 0.0, i % 3, i % 2, None, rng=jc.child_rng(94, i)) for i in range(6)]
        paths += [jc.Path(0.1, 1, 1, [0.4 * T, T], [0, 1], [0, 0], T), jc.Path(0.0, 2, 0, [], [], [], T)]
        for path in paths:
            for q, vn in runs + runs[::-1]:  # each grid and cost grid in turn, then back
                got, want = build_sample(q, vn, path), build_sample(q, vn, self.fresh(path))
                for name in self.BSDE_FIELDS:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                assert np.float64(bsde_residual(q, got)).tobytes() == np.float64(bsde_residual(q, want)).tobytes()

    def test_arrays_are_read_only(self, m2):
        path = jc.Path(0.0, 0, 1, [0.2, 0.5], [1, 1], [1, 0], m2.horizon)
        s = build_sample(m2, jc.solve_penalized(m2, 2, n_steps=100), path)  # its states are the cached segments'
        for array in (path.times, path.x_marks, path.a_marks, s.seg_x, s.seg_a):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_batch_view_builds_and_integrates(self, m2):
        vn = jc.solve_penalized(m2, 8, n_steps=200)
        batch = jc.simulate_pair_sample(m2, None, 0.0, 0, 1, 40, 95)
        views = [batch.path(i) for i in range(len(batch))]
        samples = [build_sample(m2, vn, q) for q in views]
        assert terminal_k(vn, batch).tolist() == [s.k_values[-1] for s in samples]
        for q, s in zip(views, samples):
            want = build_sample(m2, vn, self.fresh(q))
            assert s.y_values.tobytes() == want.y_values.tobytes()
            assert bsde_residual(m2, s) == bsde_residual(m2, want)
        assert batch.times.flags.writeable and batch.x_marks.flags.writeable  # only the views are read-only


class TestLocated:
    """A path's cached segments, taken from its own arrays, are those of the
    batch of that one path, and the same paths are refused."""

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate"])
    def test_segments_equal_the_batch_segments(self, equiv_cases, threestate, name):
        _, paths = equiv_cases(name, 100)
        T = paths[0].horizon
        paths = paths + [jc.Path(T, 1, 0, [], [], [], T)]  # starts at T
        if name == "threestate":
            paths += [jc.simulate_pair_path(threestate, 0.0, i % 3, i % 2, None, rng=jc.child_rng(94, i))
                      for i in range(6)]
            paths += [jc.Path(0.1, 1, 1, [0.4 * T, T], [0, 1], [0, 0], T), jc.Path(0.0, 2, 0, [], [], [], T)]
        for path in paths:
            got, _ = _located(TestPathCache.fresh(path), T, 100)
            want = _segments(jc.PathBatch.from_paths([path], T))[:4]
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_refusals(self, m2):
        T = m2.horizon
        refused = {
            "need pair paths on a horizon of": jc.Path(0.0, 0, None, [0.5], [1], None, T),
            r"on a horizon of 1\.0": jc.Path(0.0, 0, 0, [0.5], [1], [0], T + 1e-9),
            r"outside \[0,": jc.Path(-0.5, 0, 0, [0.5], [1], [0], T),
            r"time nan outside \[0,": jc.Path(math.nan, 0, 0, [], [], [], T),
        }
        for message, path in refused.items():
            with pytest.raises(ValueError, match=message):
                _located(path, T, 100)
            assert T not in path.__dict__.get("_located", {})
        with pytest.raises(ValueError, match=r"outside \[0,"):
            _located(jc.Path(T + 0.5, 0, 0, [], [], [], T), T, 100)


class TestBuildSample:
    def test_terminal_identification(self, m2):
        # Y_T = g(X_T) exactly, since the terminal layer of v^n is g
        vn = jc.solve_penalized(m2, 8, n_steps=200)
        for i in range(100):
            path = jc.simulate_pair_path(m2, 0.0, 0, 1, None, rng=jc.child_rng(51, i))
            s = build_sample(m2, vn, path)
            assert s.y_values[-1] == float(m2.terminal_cost[path.state_at(1.0)])

    def test_initial_identification(self, m2):
        vn = jc.solve_penalized(m2, 8, n_steps=200)
        path = jc.simulate_pair_path(m2, 0.3, 0, 1, 9)
        s = build_sample(m2, vn, path)
        assert s.y_values[0] == pytest.approx(vn.values.value_at(0.3, 0, 1), abs=1e-12)

    def test_k_nondecreasing_and_zero_at_start(self, threestate):
        vn = jc.solve_penalized(threestate, 32, n_steps=300)
        for i in range(50):
            path = jc.simulate_pair_path(threestate, 0.0, 0, 0, None, rng=jc.child_rng(52, i))
            s = build_sample(threestate, vn, path)
            assert s.k_values[0] == 0.0
            assert np.all(np.diff(s.k_values) >= -1e-15)

    def test_rejects_controlled_path(self, m2):
        vn = jc.solve_penalized(m2, 2, n_steps=100)
        path = jc.simulate_controlled_paths(m2, jc.constant_policy(m2, 0), 0.0, 0, 1, jc.child_rng(1, 0)).path(0)
        with pytest.raises(ValueError):
            build_sample(m2, vn, path)

    def test_jump_z_matches_definition(self, m2):
        vn = jc.solve_penalized(m2, 8, n_steps=400)
        path = jc.simulate_pair_path(m2, 0.0, 0, 1, 13)
        if path.n_jumps == 0:
            pytest.skip("seeded path has no jumps")
        s = build_sample(m2, vn, path)
        grid = vn.values
        x_pre, a_pre = path.x0, path.a0
        for j in range(path.n_jumps):
            tj = path.times[j]
            y, b = int(path.x_marks[j]), int(path.a_marks[j])
            expect = grid.value_at(tj, y, b) - grid.value_at(tj, x_pre, a_pre)
            assert s.jump_z[j] == pytest.approx(expect, abs=1e-12)
            x_pre, a_pre = y, b


class TestResidual:
    def test_small_on_fine_grid(self, m2):
        vn = jc.solve_penalized(m2, 8, n_steps=2000)
        for i in range(200):
            path = jc.simulate_pair_path(m2, 0.0, 0, 1, None, rng=jc.child_rng(53, i))
            s = build_sample(m2, vn, path)
            assert abs(bsde_residual(m2, s)) <= 1e-5

    def test_shrinks_with_grid_refinement(self, threestate):
        paths = [
            jc.simulate_pair_path(threestate, 0.0, 1, 0, None, rng=jc.child_rng(54, i))
            for i in range(100)
        ]
        maxr = []
        for n_steps in (100, 400, 1600):
            vn = jc.solve_penalized(threestate, 16, n_steps=n_steps)
            maxr.append(max(abs(bsde_residual(threestate, build_sample(threestate, vn, pp)))
                            for pp in paths))
        assert maxr[2] < maxr[1] < maxr[0]


class TestConstraintViolation:
    def test_decays_in_level(self, m2):
        lo, _ = constraint_violation(m2, jc.solve_penalized(m2, 4, n_steps=500), 0.0, 0, 1, 2000, 8)
        hi, _ = constraint_violation(m2, jc.solve_penalized(m2, 64, n_steps=500), 0.0, 0, 1, 2000, 8)
        assert hi < lo
        # decay between roughly constant and roughly 1/n over a 16x level bump
        assert lo / 64.0 <= hi <= lo / 4.0

    def test_reused_paths_give_the_same_estimate(self, threestate):
        vn = jc.solve_penalized(threestate, 8, n_steps=300)
        # 150 paths are one batch on child stream 0 of the master seed
        batch = jc.simulate_pair_paths(threestate, jc.constant_control(threestate, 1.0), 0.0, 0, 1, 150,
                                       jc.child_rng(12, 0))
        fresh = constraint_violation(threestate, vn, 0.0, 0, 1, 150, 12)
        reused = constraint_violation(threestate, vn, 0.0, 0, 1, 150, paths=[batch.path(i) for i in range(150)])
        assert reused == fresh
        assert constraint_violation(threestate, vn, 0.0, 0, 1, 150, paths=batch) == fresh

    def test_rejects_a_batch_of_the_wrong_size(self, m2):
        vn = jc.solve_penalized(m2, 2, n_steps=100)
        paths = [jc.simulate_pair_path(m2, 0.0, 0, 1, i) for i in range(3)]
        with pytest.raises(ValueError):
            constraint_violation(m2, vn, 0.0, 0, 1, 4, paths=paths)

    def test_zero_on_action_independent_model(self, aflat):
        # v^n is flat in a, so [Z(X, b)]^+ vanishes identically
        vn = jc.solve_penalized(aflat, 16, n_steps=300)
        mean, _ = constraint_violation(aflat, vn, 0.0, 0, 0, 200, 9)
        assert mean <= 1e-10


class TestMinimalYReport:
    def test_m2_levels(self, m2):
        primal = jc.solve_hjb_picard(m2, n_steps=500)
        sols = {n: jc.solve_penalized(m2, n, n_steps=500) for n in (1, 4, 16, 64)}
        report = minimal_y_report(m2, sols, 0.0, 0, primal.values.values[0, 0])
        ys = {(r.level, r.start_a): r.y_t for r in report.rows}
        # nondecreasing in the level for each start action
        for a in (0, 1):
            seq = [ys[(n, a)] for n in (1, 4, 16, 64)]
            assert all(u <= v + 1e-9 for u, v in zip(seq, seq[1:]))
        assert report.max_gap_to_primal >= -1e-9
        assert report.max_gap_to_primal <= 0.1
        ours, ref = io.StringIO(), io.StringIO()
        report.to_csv(ours)
        w = csv.writer(ref)
        w.writerow(["n", "start_a", "Y_t"])
        for r in report.rows:
            w.writerow([r.level, r.start_a, repr(r.y_t)])
        assert ours.getvalue() == ref.getvalue()
