import math

import numpy as np
import pytest
from scipy import stats

import jumpcontrol as jc
import path_loops
from jumpcontrol.simulate import ExplosionError, NU_MIN, _segments


def binom_se(p_hat, n):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)


def paths_of(batch):
    return [batch.path(i) for i in range(len(batch))]


class TestPathChecks:
    def test_jump_times_strictly_increasing_in_t0_to_T(self):
        T = 1.0

        def path(times):
            marks = np.zeros(len(times), dtype=np.int64)
            return jc.Path(0.2, 0, 0, np.array(times), marks, marks, T)

        for bad in ([0.3, 0.3], [0.2, 0.5], [0.5, T + 1e-9], [0.6, 0.4]):
            with pytest.raises(ValueError, match="strictly increasing"):
                path(bad)
        assert path([0.5, T]).n_jumps == 2
        assert path([]).n_jumps == 0

    def test_marks_match_jump_times(self):
        # one mark of each component per jump time; a pair path with too few
        # X-marks and too many I-marks would misalign a PathBatch
        for xm, am in (([1], [0, 1, 1]), ([1, 0], [0]), ([1], None)):
            with pytest.raises(ValueError, match="one mark of each component"):
                jc.Path(0.0, 0, None if am is None else 0, [0.5, 0.7], xm, am, 1.0)
        assert jc.Path(0.0, 0, None, [0.5, 0.7], [1, 0], None, 1.0).n_jumps == 2


class TestLayerIndex:
    @pytest.mark.parametrize("T", [1.0, 0.7, 2.5])
    @pytest.mark.parametrize("n", [8, 64, 2000])
    def test_layer_edge_maps_to_its_layer(self, T, n):
        # t = k T / n may round just below the edge; the nudged floor still
        # gives layer k, for a scalar and for an array of times
        k = np.arange(n)
        t = k * T / n
        policy = jc.FeedbackPolicy(np.zeros((n + 1, 1)), T)
        nu = jc.IntensityControl(np.ones((n, 1, 1, 1)), T, 1.0)
        for layer_index in (policy.layer_index, nu.layer_index):
            assert np.array_equal(layer_index(t), k)
            assert [layer_index(s) for s in t.tolist()] == k.tolist()


class TestControlledPath:
    def test_zero_rates_no_jumps(self, zero_rate):
        alpha = jc.constant_policy(zero_rate, 0)
        path = jc.simulate_controlled_paths(zero_rate, alpha, 0.0, 1, 1, jc.child_rng(3, 0)).path(0)
        assert path.n_jumps == 0
        assert path.state_at(zero_rate.horizon) == 1

    def test_m2_absorption_probability(self, m2):
        # alpha = action "2": absorption rate 2, P(X_T = 1) = 1 - exp(-2)
        alpha = jc.constant_policy(m2, 1)
        n = 30_000
        hits = jc.simulate_controlled_paths(m2, alpha, 0.0, 0, n, jc.child_rng(17, 0)).states_at(1.0).sum()
        target = 1.0 - math.exp(-2.0)
        assert abs(hits / n - target) <= 3.0 * binom_se(target, n)

    def test_batch_law_matches_kolmogorov(self, threestate):
        # law of X_T under an 8-layer policy: P(X_T = y) solves the backward
        # equation with g = e_y; the layer edges are grid nodes of the solve
        p, n = threestate, 20_000
        alpha = jc.FeedbackPolicy(np.random.default_rng(18).integers(2, size=(9, 3)), p.horizon)
        ends = jc.simulate_controlled_paths(p, alpha, 0.0, 0, n, jc.child_rng(19, 0)).states_at(p.horizon)
        freq = np.bincount(ends, minlength=3) / n
        for y in range(3):
            exact = jc.solve_kolmogorov(p, alpha, g_vec=np.eye(3)[y], n_steps=2000).values[0, 0]
            assert abs(freq[y] - exact) <= 4.0 * binom_se(exact, n)

    def test_horizon_mismatch_raises(self, m2):
        alpha = jc.FeedbackPolicy(np.ones((5, 2)), 3.0)
        with pytest.raises(ValueError, match="horizons differ"):
            jc.simulate_controlled_paths(m2, alpha, 0.0, 0, 10, jc.child_rng(20, 0))

    def test_seed_determinism(self, m2):
        alpha = jc.constant_policy(m2, 1)
        p1 = jc.simulate_controlled_paths(m2, alpha, 0.0, 0, 1, jc.child_rng(5, 0)).path(0)
        p2 = jc.simulate_controlled_paths(m2, alpha, 0.0, 0, 1, jc.child_rng(5, 0)).path(0)
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.x_marks, p2.x_marks)

    def test_path_invariants(self, threestate):
        alpha = jc.constant_policy(threestate, 1)
        for i in range(200):
            path = jc.simulate_controlled_paths(threestate, alpha, 0.2, 2, 1, jc.child_rng(1, i)).path(0)
            assert np.all(np.diff(path.times) > 0)
            if path.n_jumps:
                assert path.times[0] > 0.2
                assert path.times[-1] <= 1.0
                assert path.x_marks.min() >= 0
                assert path.x_marks.max() < threestate.n_states


class TestSeedRequired:
    """A None seed would draw from OS entropy, so every stream needs a seed."""

    def test_child_rng_rejects_none(self):
        with pytest.raises(ValueError, match="seed"):
            jc.child_rng(None, 0)

    def test_samplers_reject_none(self, m2):
        with pytest.raises(ValueError, match="seed"):
            jc.simulate_pair_path(m2, 0.0, 0, 1, None)
        with pytest.raises(ValueError, match="seed"):
            jc.simulate_pair_sample(m2, None, 0.0, 0, 1, 10, None)


def seed_sequence_rng(seed, index):
    """The stream identity child_rng keeps."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class TestChildStreams:
    """child_rng(s, i) draws and spawns as default_rng(SeedSequence(entropy=s,
    spawn_key=(i,))): over multiword seeds, indices past 2**32 and the edges
    of the 256-index blocks."""

    SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11)
    INDICES = (0, 1, 255, 256, 4095, 4096, 2**32 - 1, 2**32, 2**32 + 5, 2**40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_seed_sequence(self, seed):
        for index in self.INDICES:
            want = seed_sequence_rng(seed, index)
            assert np.array_equal(jc.child_rng(seed, index).random(8), want.random(8)), index
            assert jc.child_rng(seed, index).bit_generator.state == seed_sequence_rng(seed, index).bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_integers_match(self, seed):
        # a seed past 2**64 has no numpy integer type
        seeds = [seed] + [kind(seed) for kind in (np.int64, np.uint64) if seed < np.iinfo(kind).max]
        for s in seeds:
            for index in self.INDICES:
                for i in (np.int64(index), np.uint64(index)):
                    got = jc.child_rng(s, i).random(4)
                    assert np.array_equal(got, seed_sequence_rng(seed, index).random(4)), (s, i)

    @pytest.mark.parametrize("seed", (0, 7, 2**64 + 3))
    def test_spawn_matches(self, seed):
        for index in (0, 300, 2**32 + 5):
            got, want = jc.child_rng(seed, index), seed_sequence_rng(seed, index)
            for _ in range(2):  # a second spawn gives the next children, as a SeedSequence does
                assert [g.random(3).tolist() for g in got.spawn(2)] == [g.random(3).tolist() for g in want.spawn(2)]
            assert np.array_equal(got.random(3), want.random(3))

    def test_other_state_requests_match(self):
        seq = jc.child_rng(7, 300).bit_generator.seed_seq
        want = np.random.SeedSequence(entropy=7, spawn_key=(300,))
        for n_words, dtype in ((4, np.uint64), (4, np.uint32), (3, np.uint64), (8, np.uint32), (4, "u8")):
            assert np.array_equal(seq.generate_state(n_words, dtype), want.generate_state(n_words, dtype))
            assert seq.generate_state(n_words, dtype).dtype == want.generate_state(n_words, dtype).dtype

    def test_pickled_stream_continues(self):
        import pickle

        rng = jc.child_rng(7, 300)
        rng.random(5)
        copy = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(copy.random(4), rng.random(4))

    def test_sequence_seed_is_kept(self):
        for seed in ([1, 2], (3, 2**40), np.array([5, 6], dtype=np.uint32)):
            assert np.array_equal(jc.child_rng(seed, 9).random(4), seed_sequence_rng(seed, 9).random(4))

    def test_refusals_keep_their_types(self):
        with pytest.raises(ValueError):
            jc.child_rng(None, 0)
        for seed, index in ((-1, 0), (0, -1), (np.int64(-3), 0), (0, np.int64(-2))):
            with pytest.raises(ValueError):
                jc.child_rng(seed, index)
        for seed, index in ((1.5, 0), (0, 1.5)):
            with pytest.raises(TypeError):
                jc.child_rng(seed, index)


class TestPairStart:
    """Every sampler refuses a start outside [0, T] x E x A: the pair
    samplers themselves, the controlled one through its constant policy's
    action."""

    @staticmethod
    def samplers(p):
        nu = jc.IntensityControl(np.full((3, p.n_states, p.n_actions, p.n_actions), 2.0), p.horizon, 2.0)
        return (
            lambda t, x, a: jc.simulate_pair_path(p, t, x, a, None, rng=jc.child_rng(3, 0)),
            lambda t, x, a: jc.simulate_pair_paths(p, nu, t, x, a, 3, jc.child_rng(3, 0)),
            lambda t, x, a: jc.simulate_pair_sample(p, None, t, x, a, 3, 3),
            lambda t, x, a: jc.simulate_controlled_paths(p, jc.constant_policy(p, a), t, x, 3, jc.child_rng(3, 0)),
        )

    @pytest.mark.parametrize("t", (-0.5, -1e-9, 1.0 + 1e-9, 2.0, math.nan))
    def test_time_outside_horizon(self, m2, t):
        for sample in self.samplers(m2):
            with pytest.raises(ValueError, match="outside"):
                sample(t, 0, 0)

    @pytest.mark.parametrize("x, a", ((2, 0), (5, 0), (-1, 0), (0, 2), (0, -1), (np.int64(2), 0)))
    def test_state_or_action_out_of_range(self, m2, x, a):
        for sample in self.samplers(m2):
            with pytest.raises(ValueError, match="outside"):
                sample(0.0, x, a)

    def test_edges_accepted(self, m2):
        for sample in self.samplers(m2):
            for t, x, a in ((0.0, 0, 0), (m2.horizon, 1, 1), (np.float64(0.5), np.int64(1), np.int64(0))):
                assert np.all(sample(t, x, a).t0 == t)


class TestPairPath:
    def test_pure_i_component_is_poisson(self, zero_rate):
        # lambda = 0: only I-jumps, count ~ Poisson(lambda0(A) * T) with mass 2
        n = 20_000
        counts = np.array(
            [jc.simulate_pair_path(zero_rate, 0.0, 0, 0, None, rng=jc.child_rng(2, i)).n_jumps
             for i in range(n)]
        )
        mean_target = 2.0
        assert abs(counts.mean() - mean_target) <= 3.0 * counts.std(ddof=1) / math.sqrt(n)

    def test_competing_symmetry(self):
        # zero-diagonal rates with lambda(x,a,E) = lambda0(A) = 1: an X-jump
        # always flips the state, an I-jump never does, and each kind should
        # account for half of all jumps.
        rates = np.zeros((2, 2, 2))
        rates[0, :, 1] = 1.0
        rates[1, :, 0] = 1.0
        p = jc.Problem(
            ("0", "1"), ("a", "b"),
            rates, np.array([0.5, 0.5]),
            np.zeros((2, 2)), np.zeros(2), 1.0,
        )
        x_jumps = total = 0
        for i in range(10_000):
            path = jc.simulate_pair_path(p, 0.0, 0, 0, None, rng=jc.child_rng(3, i))
            prev_x = 0
            for j in range(path.n_jumps):
                total += 1
                x_jumps += int(path.x_marks[j] != prev_x)
                prev_x = int(path.x_marks[j])
        assert abs(x_jumps / total - 0.5) <= 3.0 * binom_se(0.5, total)

    def test_terminal_matches_pair_kolmogorov(self, m2):
        grid = jc.solve_kolmogorov_pair(m2, n_steps=1000)
        n = 20_000
        vals = np.array(
            [m2.terminal_cost[jc.simulate_pair_path(m2, 0.0, 0, 1, None, rng=jc.child_rng(4, i)).state_at(1.0)]
             for i in range(n)]
        )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - grid.values[0, 0, 1]) <= 3.0 * se


def random_model(seed, n_states, n_actions, horizon=1.3):
    """About half of the transitions present, self-jumps included."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 2.0, (n_states, n_actions, n_states))
    rates *= rng.random(rates.shape) < 0.5
    return jc.Problem(
        tuple(map(str, range(n_states))), tuple(map(str, range(n_actions))), rates,
        rng.uniform(0.5, 1.5, n_actions), rng.random((n_states, n_actions)),
        rng.random(n_states), horizon,
    )


class TestControlledMatchesLoop:
    """A batch of one makes the draws of the one-path thinning loop."""

    RANDOM = {"random 4x3": (76, 4, 3), "random 16x2": (77, 16, 2)}

    @staticmethod
    def stiff():
        L = 200.0
        return jc.Problem(
            ("0", "1"), ("0", "1"),
            np.array([[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]]),
            np.array([1.0, 1.0]), np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([0.0, 1.0]), 1.0,
        )

    @staticmethod
    def absorbing():
        # action 0 has no jumps from any state, so r = 0 and no acceptance draw
        p = random_model(78, 3, 2)
        rates = p.rates.copy()
        rates[:, 0] = 0.0
        return jc.Problem(p.states, p.actions, rates, p.lambda0, p.running_cost, p.terminal_cost, p.horizon)

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate", "stiff", "absorbing", *RANDOM])
    @pytest.mark.parametrize("start", [0.0, 0.3])
    def test_draw_for_draw(self, request, name, start):
        if name in self.RANDOM:
            p = random_model(*self.RANDOM[name])
        elif name in ("stiff", "absorbing"):
            p = getattr(self, name)()
        else:
            p = request.getfixturevalue(name)
        # 40 layers of random actions
        table = np.random.default_rng(79).integers(p.n_actions, size=(41, p.n_states))
        alpha = jc.FeedbackPolicy(table, p.horizon)
        t0 = start * p.horizon
        for i in range(40 if name == "stiff" else 200):
            x = i % p.n_states
            got = jc.simulate_controlled_paths(p, alpha, t0, x, 1, jc.child_rng(80, i)).path(0)
            ref = path_loops.controlled_path(p, alpha, t0, x, jc.child_rng(80, i))
            assert got.times.tobytes() == ref.times.tobytes()
            assert got.x_marks.tobytes() == ref.x_marks.tobytes()


class TestPathBatch:
    def test_round_trip(self, threestate):
        paths = [
            jc.simulate_pair_path(threestate, 0.1 * (i % 3), i % 3, i % 2, None, rng=jc.child_rng(81, i))
            for i in range(50)
        ]
        batch = jc.PathBatch.from_paths(paths, threestate.horizon)
        assert len(batch) == 50
        for i, q in enumerate(paths):
            got = batch.path(i)
            assert (got.t0, got.x0, got.a0, got.horizon) == (q.t0, q.x0, q.a0, q.horizon)
            for field in ("times", "x_marks", "a_marks"):
                assert getattr(got, field).tobytes() == getattr(q, field).tobytes()
        # and back: the flat arrays of a sampled batch survive the views
        alpha = jc.constant_policy(threestate, 1)
        batch = jc.simulate_controlled_paths(threestate, alpha, 0.2, 2, 50, jc.child_rng(82, 0))
        again = jc.PathBatch.from_paths([batch.path(i) for i in range(50)], threestate.horizon)
        assert again.a_marks is None and batch.a_marks is None
        for field in ("t0", "x0", "times", "x_marks", "offsets"):
            assert getattr(again, field).tobytes() == getattr(batch, field).tobytes()
        for s in (0.2, 0.5, threestate.horizon):
            assert batch.states_at(s).tolist() == [batch.path(i).state_at(s) for i in range(50)]

    def test_segments_match_each_path_written_out(self, threestate):
        # per path: its start, then its jumps before T, each segment ending
        # where the next begins and the last at T; compared bit for bit
        T = threestate.horizon

        def written_out(paths):
            columns = [[], [], [], [], []]
            for i, q in enumerate(paths):
                inner = q.times < T
                starts = np.concatenate(([q.t0], q.times[inner]))
                for column, values in zip(columns, (
                    starts, np.append(starts[1:], T), np.concatenate(([q.x0], q.x_marks[inner])),
                    np.concatenate(([q.a0], q.a_marks[inner])), np.full(starts.size, i),
                )):
                    column.append(values)
            return [np.concatenate(c) for c in columns]

        edges = [
            jc.Path(0.0, 0, 1, [], [], [], T),  # no jumps
            jc.Path(0.1, 1, 1, [0.4 * T, T], [0, 1], [0, 0], T),  # last jump at T
            jc.Path(T, 2, 0, [], [], [], T),  # start at T
            jc.Path(0.0, 1, 0, [T], [2], [1], T),  # only a jump at T
        ]
        sampled = [
            jc.simulate_pair_path(threestate, 0.1 * (i % 3), i % 3, i % 2, None, rng=jc.child_rng(83, i))
            for i in range(20)
        ]
        for paths in (edges, sampled[:3] + edges + sampled[3:], edges[2:3]):
            for got, ref in zip(_segments(jc.PathBatch.from_paths(paths, T)), written_out(paths)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert [v.size for v in _segments(jc.PathBatch.from_paths([], T))] == [0] * 5


class TestPairMatchesLoop:
    RANDOM = {"random 4x3": (70, 4, 3), "random 5x12": (75, 5, 12)}

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate", *RANDOM])
    @pytest.mark.parametrize("start", [0.0, 0.3])
    def test_draw_for_draw(self, request, name, start):
        if name in self.RANDOM:
            p = random_model(*self.RANDOM[name])
        else:
            p = request.getfixturevalue(name)
        if p.n_actions >= 8:
            # numpy's pairwise lambda0.sum() differs in the last bit from the
            # last cumulative entry here; both samplers take the I-jump
            # total from lambda0.sum(), so the draws still match.
            assert p.lambda0.sum() != p.lambda0.cumsum()[-1]
        t0 = start * p.horizon
        for i in range(300):
            x, a = i % p.n_states, i % p.n_actions
            got = jc.simulate_pair_path(p, t0, x, a, None, rng=jc.child_rng(71, i))
            ref = path_loops.pair_path(p, t0, x, a, jc.child_rng(71, i))
            for field in ("times", "x_marks", "a_marks"):
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()


class TestPairBatchMatchesLoop:
    """A batch of one makes the draws of the one-path pair loop, for the
    reference pair, and of the layered loop reference for a 5- and a
    64-layer tilt."""

    RANDOM = {"random 5x12": (75, 5, 12)}

    @pytest.mark.parametrize("name", ["m2", "threestate", "aflat", "zero_rate", *RANDOM])
    @pytest.mark.parametrize("tilt", ["unit", "5 layers", "64 layers"])
    # 0.33 T lies inside layer 1 of 5; 0.4 T lies on edge 2 of 5
    @pytest.mark.parametrize("start", [0.0, 0.33, 0.4])
    def test_draw_for_draw(self, request, name, tilt, start):
        p = random_model(*self.RANDOM[name]) if name in self.RANDOM else request.getfixturevalue(name)
        nS, nA, T = p.n_states, p.n_actions, p.horizon
        t0 = start * T
        if tilt == "unit":
            nu = jc.constant_control(p, 1.0)
            loop = lambda x, a, rng: jc.simulate_pair_path(p, t0, x, a, None, rng=rng)
        else:
            n = int(tilt.split()[0])
            field = np.random.default_rng(87).choice([NU_MIN, 0.25, 1.0, 3.0, 6.0], size=(n, nS, nA, nA))
            nu = jc.IntensityControl(field, T, 6.0)
            loop = lambda x, a, rng: path_loops.tilted_path(p, nu, t0, x, a, rng)
        for i in range(100):
            x, a = i % nS, i % nA
            got = jc.simulate_pair_paths(p, nu, t0, x, a, 1, jc.child_rng(88, i)).path(0)
            ref = loop(x, a, jc.child_rng(88, i))
            for field in ("times", "x_marks", "a_marks"):
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()


class TestTiltedLaw:
    """(X_T, I_T) under a 5- and a 64-layer nu against the exact layered
    chain: the product over layers of expm of the pair generator on E x A."""

    @staticmethod
    def exact_law(p, nu, t0, x, a):
        from scipy.linalg import expm

        nS, nA, T, n = p.n_states, p.n_actions, p.horizon, nu.n_layers
        eye_s, eye_a = np.eye(nS, dtype=bool), np.eye(nA, dtype=bool)
        law = np.zeros(nS * nA)
        law[x * nA + a] = 1.0
        for j in range(n):
            lo, hi = max(t0, j * T / n), (j + 1) * T / n
            if hi <= lo:
                continue
            q = np.zeros((nS, nA, nS, nA))
            # X-jumps keep a, I-jumps keep x; self-jumps do not move the pair.
            q += np.where(eye_s[:, None, :], 0.0, p.rates)[..., None] * eye_a[None, :, None, :]
            q += np.where(eye_a, 0.0, nu.field[j] * p.lambda0)[:, :, None, :] * eye_s[:, None, :, None]
            q = q.reshape(nS * nA, nS * nA)
            law = law @ expm((q - np.diag(q.sum(axis=1))) * (hi - lo))
        return law

    SAMPLERS = {
        "thinning": lambda p, nu, t0, n: [
            path_loops.tilted_path_thinning(p, nu, t0, 0, 1, jc.child_rng(73, i)) for i in range(n)
        ],
        "batch": lambda p, nu, t0, n: paths_of(jc.simulate_pair_paths(p, nu, t0, 0, 1, n, jc.child_rng(73, 0))),
    }

    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    @pytest.mark.parametrize("start", [0.0, 0.33])  # 0.33 T lies inside layer 1
    def test_terminal_law_matches_layered_chain(self, threestate, sampler, start):
        self.check_law(threestate, sampler, start, 5)

    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    @pytest.mark.parametrize("start", [0.0, 0.33])
    def test_terminal_law_64_layers(self, threestate, sampler, start):
        self.check_law(threestate, sampler, start, 64)

    def check_law(self, p, sampler, start, n_layers):
        nS, nA, T = p.n_states, p.n_actions, p.horizon
        rng = np.random.default_rng(72)
        field = rng.choice([NU_MIN, 0.25, 1.0, 3.0, 6.0], size=(n_layers, nS, nA, nA))
        nu = jc.IntensityControl(field, T, 6.0)
        t0, n = start * T, 20_000
        draw = self.SAMPLERS[sampler]
        ends = [(q.state_at(T), q.action_at(T)) for q in draw(p, nu, t0, n)]
        freq = np.bincount([x * nA + a for x, a in ends], minlength=nS * nA) / n
        exact = self.exact_law(p, nu, t0, 0, 1)
        for f, e in zip(freq, exact):
            assert abs(f - e) <= 4.0 * binom_se(e, n)


class TestTiltedPath:
    def test_horizon_mismatch_raises(self, m2):
        nu = jc.IntensityControl(np.full((4, 2, 2, 2), 2.0), 3.0, 2.0)
        with pytest.raises(ValueError, match="control and path horizons differ"):
            jc.simulate_pair_paths(m2, nu, 0.0, 0, 0, 10, jc.child_rng(20, 0))

    def test_unit_tilt_first_jump_distribution(self, m2):
        # nu = 1 reproduces the pair dynamics: first-jump time from (0, a=1)
        # is Exp(lambda(0,1,E) + lambda0(A)) = Exp(2 + 1); KS at the 1% level.
        nu = jc.constant_control(m2, 1.0)
        batch = jc.simulate_pair_paths(m2, nu, 0.0, 0, 1, 10_000, jc.child_rng(5, 0))
        first = [path.times[0] for path in paths_of(batch) if path.n_jumps]
        # condition on at least one jump before T: truncated exponential CDF
        rate = 3.0
        z = 1.0 - math.exp(-rate * 1.0)
        cdf = lambda t: (1.0 - np.exp(-rate * t)) / z
        assert stats.kstest(first, cdf).pvalue > 0.01

    def test_constant_tilt_scales_poisson(self, zero_rate):
        c = 1.7
        nu = jc.constant_control(zero_rate, c, n_max=2.0)
        n = 20_000
        counts = np.diff(jc.simulate_pair_paths(zero_rate, nu, 0.0, 0, 0, n, jc.child_rng(6, 0)).offsets)
        target = c * 2.0  # c * lambda0(A) * T
        assert abs(counts.mean() - target) <= 3.0 * counts.std(ddof=1) / math.sqrt(n)

    def test_nmax_tilt_scales_mean_count(self, zero_rate):
        n = 10_000
        n_max = 3.0
        count = lambda nu, seed: np.diff(
            jc.simulate_pair_paths(zero_rate, nu, 0.0, 0, 0, n, jc.child_rng(seed, 0)).offsets
        )
        base = count(jc.constant_control(zero_rate, 1.0, n_max=n_max), 7)
        tilted = count(jc.constant_control(zero_rate, n_max, n_max=n_max), 8)
        se = math.hypot(
            n_max * base.std(ddof=1) / math.sqrt(n), tilted.std(ddof=1) / math.sqrt(n)
        )
        assert abs(tilted.mean() - n_max * base.mean()) <= 3.0 * se


class TestControlTypes:
    def test_policy_layer_lookup(self, m2):
        table = np.zeros((5, 2), dtype=int)
        table[2:] = 1
        alpha = jc.FeedbackPolicy(table, 1.0)
        # four layers of width 0.25; layer 2 starts at t = 0.5
        assert alpha.table[alpha.layer_index(0.49), 0] == 0
        assert alpha.table[alpha.layer_index(0.5), 0] == 1

    def test_control_bounds_enforced(self, m2):
        with pytest.raises(ValueError):
            jc.IntensityControl(np.zeros((1, 2, 2, 2)), 1.0, 1.0)
        with pytest.raises(ValueError):
            jc.IntensityControl(np.full((1, 2, 2, 2), 2.0), 1.0, 1.0)
        for n_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="with a finite n_max"):
                jc.IntensityControl(np.full((1, 2, 2, 2), 1.0), 1.0, n_max)
        ok = jc.IntensityControl(np.full((1, 2, 2, 2), NU_MIN), 1.0, 1.0)
        assert ok.field[ok.layer_index(0.3), 0, 0, 1] == NU_MIN

    def test_empty_layer_axis_named(self):
        with pytest.raises(ValueError, match="empty layer axis"):
            jc.IntensityControl(np.zeros((0, 2, 2, 2)), 1.0, 1.0)
        with pytest.raises(ValueError, match="empty mark axis"):
            jc.IntensityControl(np.zeros((1, 2, 2, 0)), 1.0, 1.0)

    def test_explosion_guard(self):
        # the jump cap scales with the rate bound, so force it with an rng
        # whose waiting times are essentially zero
        class Stuck:
            def exponential(self, size=None):
                return 1e-12 if size is None else np.full(size, 1e-12)

            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        p = jc.Problem(
            ("0", "1"), ("a",), np.full((2, 1, 2), 1.0), np.array([1.0]),
            np.zeros((2, 1)), np.zeros(2), 1.0,
        )
        nu = jc.IntensityControl(np.full((4, 2, 1, 1), 2.0), 1.0, 3.0)
        for sample in (
            lambda: jc.simulate_controlled_paths(p, jc.constant_policy(p, 0), 0.0, 0, 1, Stuck()),
            lambda: jc.simulate_pair_path(p, 0.0, 0, 0, None, rng=Stuck()),
            lambda: jc.simulate_pair_paths(p, jc.constant_control(p, 1.0), 0.0, 0, 0, 3, Stuck()),
            lambda: jc.simulate_pair_paths(p, nu, 0.0, 0, 0, 3, Stuck()),
        ):
            with pytest.raises(ExplosionError):
                sample()


class TestPathCSV:
    def test_csv_layout(self, m2, tmp_path):
        import io

        alpha = jc.constant_policy(m2, 1)
        batch = jc.simulate_controlled_paths(m2, alpha, 0.0, 0, 3, jc.child_rng(9, 0))
        buf = io.StringIO()
        from jumpcontrol.simulate import paths_to_csv

        paths_to_csv(batch, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "path_id,jump_index,time,X_mark,I_mark"
        assert len(lines) == 1 + batch.times.size

    def test_bytes_match_csv_writer(self, threestate):
        # controlled and pair paths, more rows than one write chunk
        import csv
        import io

        from jumpcontrol.simulate import paths_to_csv

        alpha = jc.constant_policy(threestate, 1)
        controlled = jc.simulate_controlled_paths(threestate, alpha, 0.0, 0, 2000, jc.child_rng(10, 0))
        for paths in (
            [controlled.path(i) for i in range(2000)],
            [jc.simulate_pair_path(threestate, 0.2, 1, 0, None, rng=jc.child_rng(11, i)) for i in range(2000)],
        ):
            ref = io.StringIO()
            w = csv.writer(ref)
            w.writerow(["path_id", "jump_index", "time", "X_mark", "I_mark"])
            for pid, path in enumerate(paths):
                for j in range(path.n_jumps):
                    imark = "" if path.a_marks is None else int(path.a_marks[j])
                    w.writerow([pid, j, repr(float(path.times[j])), int(path.x_marks[j]), imark])
            buf = io.StringIO()
            paths_to_csv(jc.PathBatch.from_paths(paths, threestate.horizon), buf)
            assert sum(p.n_jumps for p in paths) > 4096
            assert buf.getvalue() == ref.getvalue()
