"""Exact simulation of the controlled jump process and of the pair (X, I),
and the one integrator for functionals along pair paths.

Two batch samplers. The feedback-controlled chain X thins proposals at the
uniform rate bound (Lewis & Shedler 1979). The pair (X, I) under an
intensity tilt nu, whose I-intensity is nu(t, x, a, b) * lambda0[b], draws
competing exponentials: its total rate is constant on each layer of nu, so
each jump spends one Exp(1) of cumulative hazard; only a jump that crosses
a layer edge searches, by bisection of a hazard table. Both advance every
live path of a batch by one event per round, on the one stream they are
given, and return a PathBatch; every path is a pure function of (problem,
inputs, seed). Every sampler refuses a start outside [0, T] x E (x A for
the pair). Child stream i of master_seed, child_rng(master_seed, i), is
default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,))) draw for draw
and spawns as it does; for integer seed and index >= 0 its PCG64 state is
numpy's SeedSequence hash, run for blocks of 256 consecutive indices at once
(_state_block), and any other seed takes numpy's path. A pair sample of n
paths from master_seed (simulate_pair_sample, behind every pair-path
estimator) cuts them into chunks of 4096 paths: chunk c is one batch on
child stream c, so its statistics do not depend on how the work is scheduled.

Tilted paths come only from the batch sampler. The reference pair is the
one-layer tilt nu = 1, which never searches. One scalar loop,
simulate_pair_path, draws one reference path per stream, several times
faster than a batch of one; a batch of one at nu = 1 makes its draws.

Every time integral along pair paths (the running cost here, the Girsanov
drift in randomized, K and the compensator in bsde) is a rate (cum, cell)
on uniform time nodes t_k: cum[k, x, a] integrates it from 0 to t_k, and
cell(k, s0, s1, x, a) integrates it exactly over [s0, s1] inside cell k
from the node values k and k + 1 alone. _locate finds the cells of both
ends of each constant-state segment (_segments) on a grid once; _integrate
integrates any rate on that grid over them, as two end cells plus one
difference of cum, and model._interp_cells reads the same location for
values at the ends. _per_path does both per pass of 1024 segments, and
a Path keeps its segments and their location on each grid (_located).
_trapezoid is the rate of every integrand that is linear on its cells.
Every pair-path Monte Carlo estimate (randomized, bsde) is one call of
_estimate, which refuses n_paths < 1 and samples parts of 256 paths.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Problem, _readonly, check_times, grid_cell, rate_bound

NU_MIN = 1e-6

# Safety margin over the expected jump count before declaring explosion.
_CAP_BASE = 1000
_CAP_FACTOR = 50


class ExplosionError(RuntimeError):
    pass


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent child stream `index` of master_seed (see the module
    docstring): path `index` of a pair batch, or the stream of a whole
    controlled batch. A None seed raises ValueError: it would draw from OS
    entropy, so no run could be repeated."""
    if master_seed is None:
        raise ValueError("a master seed is required; None would seed from OS entropy")
    if isinstance(master_seed, (int, np.integer)) and isinstance(index, (int, np.integer)) and master_seed >= 0 <= index:
        seed, index = int(master_seed), int(index)
        state = _state_block(seed, index // _BLOCK)[index % _BLOCK]
        return np.random.Generator(np.random.PCG64(_ChildSeed(seed, index, state)))
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_BLOCK = 256  # consecutive child indices whose PCG64 states are hashed together


def _hashmix(x, h, mult, skip, n):
    """numpy's SeedSequence hashmix (numpy/random/bit_generator.pyx) of x with
    steps skip to skip + n - 1 of the hash constant h, h * mult, ...: n uint32 columns."""
    c = np.array([h * pow(mult, i, 1 << 32) & _MASK for i in range(skip, skip + n + 1)], np.uint32)
    v = (x ^ c[:-1]) * c[1:]
    return v ^ v >> 16


@functools.lru_cache(maxsize=16)
def _state_block(master_seed: int, block: int) -> np.ndarray:
    """SeedSequence(entropy=master_seed, spawn_key=(i,)).generate_state(4,
    np.uint64) in row i mod 256, for the 256 indices i of block: numpy's hash
    of the master seed's pool with the words of i, low word first, mixed in."""
    np.random.bit_generator.ISpawnableSeedSequence.register(_ChildSeed)  # on first use: numpy.random stays lazy
    start = block * _BLOCK
    words = [start >> 32 * k & _MASK for k in range(max(1, -(-start.bit_length() // 32)))]
    words[0] += np.arange(_BLOCK, dtype=np.uint32)[:, None]  # only the low word varies within a block
    skip = 16 + 4 * max(-(-master_seed.bit_length() // 32) - 4, 0)  # the pool's steps: 4 per seed word past the fourth
    mixer = np.tile(np.random.SeedSequence(master_seed).pool, (_BLOCK, 1))
    for n, w in enumerate(words):
        m = mixer * _MIX_L - _hashmix(w, _INIT_A, _MULT_A, skip + 4 * n, 4) * _MIX_R
        mixer = m ^ m >> 16
    state = _hashmix(np.tile(mixer, 2), _INIT_B, _MULT_B, 0, 8)
    return _readonly(state.astype("<u4").view("<u8"), np.uint64)


class _ChildSeed:
    """SeedSequence(entropy=master_seed, spawn_key=(index,)) that serves
    PCG64's request from its precomputed state; other requests, spawn and
    pickling go to that SeedSequence, made on first need."""

    def __init__(self, master_seed, index, state):
        self.master_seed, self.index, self.state = master_seed, index, state

    @functools.cached_property
    def seed_seq(self):
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.index,))

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state if n_words == 4 and dtype is np.uint64 else self.seed_seq.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_seq.spawn(n_children)

    def __reduce__(self):
        return self.seed_seq.__reduce__()


@dataclass(frozen=True)
class Path:
    """A realized marked point process trajectory on [t0, T].

    times are the strictly increasing jump epochs; x_marks[i] is the state
    entered at times[i]. For pair paths a_marks carries the I-component
    (a_marks is None for X-only paths). Trajectories are cadlag: X_s equals
    the last mark at or before s. The arrays are read-only, as a pair path
    keeps its segments and their location on each grid (_located).
    """

    t0: float
    x0: int
    a0: int | None
    times: np.ndarray
    x_marks: np.ndarray
    a_marks: np.ndarray | None
    horizon: float

    def __post_init__(self):
        t = _readonly(self.times)
        rises = np.count_nonzero(t[1:] > t[:-1])  # half the time of .all() on a sampled path's few jumps
        if t.size and not (rises == t.size - 1 and t[0] > self.t0 and t[-1] <= self.horizon):
            raise ValueError("jump times must be strictly increasing in (t0, T]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "x_marks", _readonly(self.x_marks, np.int64))
        if self.a_marks is not None:
            object.__setattr__(self, "a_marks", _readonly(self.a_marks, np.int64))
        if self.x_marks.shape != t.shape or (self.a_marks is not None and self.a_marks.shape != t.shape):
            raise ValueError("every jump time needs one mark of each component")

    @property
    def n_jumps(self):
        return int(self.times.size)

    def state_at(self, s: float) -> int:
        i = int(np.searchsorted(self.times, s, side="right")) - 1
        return self.x0 if i < 0 else int(self.x_marks[i])

    def action_at(self, s: float) -> int:
        if self.a_marks is None:
            raise ValueError("X-only path has no action component")
        i = int(np.searchsorted(self.times, s, side="right")) - 1
        return self.a0 if i < 0 else int(self.a_marks[i])


def _cat(arrays, dtype):
    """Concatenate the arrays, or an empty array of dtype if there are none."""
    return np.concatenate([np.empty(0, dtype), *arrays])


@dataclass(frozen=True)
class PathBatch:
    """Paths as flat arrays. Path i starts at (t0[i], x0[i], a0[i]), and its
    jumps are entries offsets[i]:offsets[i + 1] of times, x_marks and
    a_marks, in time order; a0 and a_marks are None for X-only paths."""

    t0: np.ndarray
    x0: np.ndarray
    a0: np.ndarray | None
    times: np.ndarray
    x_marks: np.ndarray
    a_marks: np.ndarray | None
    offsets: np.ndarray
    horizon: float

    @classmethod
    def from_paths(cls, paths, horizon: float) -> PathBatch:
        """Flatten Path objects; the batch is X-only unless every path is a
        pair path. A PathBatch is returned as it is."""
        flat = isinstance(paths, PathBatch)
        if any(abs(q.horizon - horizon) > 1e-12 for q in ([paths] if flat else paths)):
            raise ValueError("path horizon differs from the problem's")
        if flat:
            return paths
        pair = all(q.a_marks is not None for q in paths)
        return cls(
            np.array([q.t0 for q in paths], dtype=float),
            np.array([q.x0 for q in paths], dtype=np.int64),
            np.array([q.a0 for q in paths], dtype=np.int64) if pair else None,
            _cat((q.times for q in paths), float),
            _cat((q.x_marks for q in paths), np.int64),
            _cat((q.a_marks for q in paths), np.int64) if pair else None,
            np.cumsum([0] + [q.n_jumps for q in paths]),
            horizon,
        )

    @classmethod
    def concat(cls, batches, horizon: float) -> PathBatch:
        """The pair paths of every batch, in order."""
        columns = {"t0": float, "x0": np.int64, "a0": np.int64, "times": float, "x_marks": np.int64, "a_marks": np.int64}
        jumps = _cat((np.diff(b.offsets) for b in batches), np.int64)
        return cls(
            *(_cat((getattr(b, name) for b in batches), dtype) for name, dtype in columns.items()),
            np.concatenate(([0], np.cumsum(jumps))), horizon,
        )

    def __len__(self):
        return self.offsets.size - 1

    def part(self, i: int, j: int) -> PathBatch:
        """Paths i to j - 1, as views of the flat arrays."""
        j = min(j, len(self))
        lo, hi = self.offsets[i], self.offsets[j]
        pair = self.a0 is not None
        return PathBatch(
            self.t0[i:j], self.x0[i:j], self.a0[i:j] if pair else None, self.times[lo:hi],
            self.x_marks[lo:hi], self.a_marks[lo:hi] if pair else None, self.offsets[i : j + 1] - lo,
            self.horizon,
        )

    @property
    def owner(self) -> np.ndarray:
        """The path index of every jump."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def path(self, i: int) -> Path:
        j, k = self.offsets[i], self.offsets[i + 1]
        pair = self.a0 is not None
        return Path(
            float(self.t0[i]), int(self.x0[i]), int(self.a0[i]) if pair else None,
            self.times[j:k], self.x_marks[j:k], self.a_marks[j:k] if pair else None, self.horizon,
        )

    def states_at(self, s: float) -> np.ndarray:
        """X_s of every path."""
        seen = np.bincount(self.owner[self.times <= s], minlength=len(self))
        out = self.x0.copy()
        moved = seen > 0
        out[moved] = self.x_marks[self.offsets[:-1][moved] + seen[moved] - 1]
        return out


def _layer(t, horizon: float, n: int):
    """Index k of the layer [k T / n, (k + 1) T / n) that holds t (scalar or
    array), clamped to 0..n-1. The 1e-12 nudge puts t = k T / n in layer k
    even when rounding lands it just below the edge, unlike model.grid_cell."""
    u = t / horizon * n + 1e-12
    if isinstance(u, float):  # numpy float64 scalars too
        return min(max(int(u), 0), n - 1)
    return np.minimum(np.maximum(u.astype(np.int64), 0), n - 1)


@dataclass(frozen=True)
class FeedbackPolicy:
    """Action table alpha[k][x], piecewise-constant on [t_k, t_{k+1})."""

    table: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=np.int64))
        if self.table.ndim != 2:
            raise ValueError("policy table must be 2-D (time layer, state)")

    @property
    def n_layers(self):
        return self.table.shape[0] - 1

    def layer_index(self, t):
        return _layer(t, self.horizon, max(self.n_layers, 1))


def constant_policy(p: Problem, action: int) -> FeedbackPolicy:
    return FeedbackPolicy(np.full((2, p.n_states), action), p.horizon)


@dataclass(frozen=True)
class IntensityControl:
    """Bounded positive tilt nu[j][x][a][b] of the I-component intensity.

    Piecewise-constant on the uniform layers [t_j, t_{j+1}); entries must
    lie in [NU_MIN, n_max] (strict positivity keeps the tilted measure
    equivalent to the reference one).
    """

    field: np.ndarray
    horizon: float
    n_max: float

    def __post_init__(self):
        f = np.asarray(self.field, dtype=float)
        if f.ndim != 4:
            raise ValueError("control field must be 4-D (layer, state, action, mark)")
        if 0 in f.shape:
            raise ValueError(f"control field has an empty {('layer', 'state', 'action', 'mark')[f.shape.index(0)]} axis")
        if not np.all(np.isfinite(f)):
            raise ValueError("control field must be finite")
        if not math.isfinite(self.n_max) or f.min() < NU_MIN or f.max() > self.n_max:
            raise ValueError(
                f"control field must lie in [{NU_MIN}, n_max={self.n_max}] with a finite n_max; "
                f"got range [{f.min()}, {f.max()}]"
            )
        object.__setattr__(self, "field", f)

    @property
    def n_layers(self):
        return self.field.shape[0]

    def layer_index(self, t):
        return _layer(t, self.horizon, self.n_layers)


def constant_control(p: Problem, values, n_max: float | None = None) -> IntensityControl:
    """Time- and state-homogeneous control; `values` broadcasts to the mark axis."""
    field = np.broadcast_to(
        np.asarray(values, dtype=float), (1, p.n_states, p.n_actions, p.n_actions)
    ).copy()
    if n_max is None:
        n_max = float(field.max())
    return IntensityControl(field, p.horizon, n_max)


def _sim_tables(p: Problem) -> dict:
    """Per-problem lookup tables (cached lazily).

    "cum" is the cumulative rate table cum[x, a, y] of the batch samplers.
    "rows", "cums" and "lam0_cum" are the row sums, "cum" and the cumulative
    lambda0 as plain nested lists: scalar indexing in the one-path loop is
    several times faster on lists than on numpy arrays. "unit" is the tilt
    nu = 1 of the reference pair. "cost" is the trapezoid rate of f on its
    nodes; a constant f has the nodes 0 and T.
    """
    tables = p.__dict__.get("_sim_tables")
    if tables is None:
        f = p.running_cost
        nodes = f if f.ndim == 3 else np.stack((f, f))
        cum = p.rates.cumsum(axis=2)
        tables = {
            "cum": cum,
            "rows": p.row_sums.tolist(),
            "cums": cum.tolist(),
            "lam0_tot": float(p.lambda0.sum()),
            "lam0_cum": p.lambda0.cumsum().tolist(),
            "lam": rate_bound(p),
            "unit": constant_control(p, 1.0),
            "cost": _trapezoid(nodes, p.horizon / (nodes.shape[0] - 1)),
        }
        object.__setattr__(p, "_sim_tables", tables)
    return tables


def _cap(mean_rate, span):
    return _CAP_BASE + int(_CAP_FACTOR * mean_rate * max(span, 0.0))


def _check_horizon(control, p: Problem):
    if abs(control.horizon - p.horizon) > 1e-12:
        raise ValueError("control and path horizons differ")


def _check_start(p: Problem, t, x, a=None):
    if not (0.0 <= t <= p.horizon and 0 <= x < p.n_states and (a is None or 0 <= a < p.n_actions)):
        raise ValueError(f"start (t={t}, x={x}, a={a}) outside [0, {p.horizon}] x {p.n_states} states x {p.n_actions} actions")


def _check_policy(alpha: FeedbackPolicy, p: Problem):
    _check_horizon(alpha, p)
    table = alpha.table  # reduced by min and max: an elementwise test paged in 0.1-0.2 MB more
    if table.shape[1] != p.n_states or table.min(initial=0) < 0 or table.max(initial=0) >= p.n_actions:
        raise ValueError(f"policy table has other than {p.n_states} states or an action outside 0..{p.n_actions - 1}")


def simulate_controlled_paths(
    p: Problem, alpha: FeedbackPolicy, t: float, x: int, count: int, rng
) -> PathBatch:
    """Sample `count` paths of X on [t, T] from x under the feedback law
    alpha, all from the one stream rng.

    Thinning: every live path proposes its next epoch at the constant bound
    Lambda_E, accepts it at s with probability lambda(X, alpha(s, X), E) /
    Lambda_E, then draws the mark from the normalized row; accepted
    self-jumps are recorded as genuine points. A round draws, in path
    order, the waiting times of the live paths, acceptance uniforms for
    those with a positive rate, then the marks of the accepted ones, so a
    batch of one makes the draws of the one-path loop.
    """
    _check_policy(alpha, p)
    _check_start(p, t, x)
    T = p.horizon
    tab = _sim_tables(p)
    lam = tab["lam"]
    live = np.arange(count if lam > 0.0 else 0)
    s = np.full(live.size, float(t))
    cur = np.full(live.size, int(x))
    jumps = np.zeros(count, dtype=np.int64)
    rows, cums = p.row_sums, tab["cum"]
    cap = _cap(lam, T - t)
    events = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]  # (path, time, mark) per round
    while live.size:
        s += rng.exponential(size=live.size) * (1.0 / lam)
        keep = s < T
        live, s, cur = live[keep], s[keep], cur[keep]
        a = alpha.table[alpha.layer_index(s), cur]
        r = rows[cur, a]
        hit = np.flatnonzero(r > 0.0)
        hit = hit[rng.random(size=hit.size) * lam < r[hit]]
        # The mark is the first state whose cumulative rate exceeds u r.
        v = rng.random(size=hit.size) * r[hit]
        cur[hit] = np.minimum((cums[cur[hit], a[hit]] <= v[:, None]).sum(axis=1), p.n_states - 1)
        ids = live[hit]
        events.append((ids, s[hit], cur[hit]))
        jumps[ids] += 1
        if jumps.max(initial=0) > cap:
            raise ExplosionError(f"path exceeded {cap} jumps on [{t}, {T}] (bound {lam})")
    who, when, where = (np.concatenate(column) for column in zip(*events))
    order = np.argsort(who, kind="stable")  # rounds run forward in time, so each path's jumps stay in order
    return PathBatch(
        np.full(count, float(t)), np.full(count, int(x)), None, when[order], where[order], None,
        np.concatenate(([0], np.cumsum(jumps))), T,
    )


def simulate_pair_path(p: Problem, t: float, x: int, a: int, seed, rng=None) -> Path:
    """Sample the reference pair (X, I) on [t, T] from (x, a), on rng or
    else on child_rng(seed, 0).

    Competing exponentials at the total rate lambda(X, I, E) + lambda0(A):
    an X-jump keeps I and draws the new state from the normalized row; an
    I-jump keeps X and draws the new action from lambda0: the first index
    whose cumulative weight exceeds u times the total.
    """
    _check_start(p, t, x, a)
    rng = child_rng(seed, 0) if rng is None else rng
    T = p.horizon
    tab = _sim_tables(p)
    rows, cums, ri, icum = tab["rows"], tab["cums"], tab["lam0_tot"], tab["lam0_cum"]
    cap = _cap(tab["lam"] + ri, T - t)
    last_x, last_a = p.n_states - 1, p.n_actions - 1
    s, cx, ca = t, int(x), int(a)
    times, xm, am = [], [], []
    expo, unif = rng.exponential, rng.random
    while True:
        rx = rows[cx][ca]
        r = rx + ri
        if r <= 0.0:
            break
        s += expo() / r
        if s >= T:
            break
        if unif() * r < rx:
            cx = min(bisect.bisect_right(cums[cx][ca], unif() * rx), last_x)
        else:
            ca = min(bisect.bisect_right(icum, unif() * ri), last_a)
        times.append(s)
        xm.append(cx)
        am.append(ca)
        if len(times) > cap:
            raise ExplosionError(f"pair path exceeded {cap} jumps on [{t}, {T}]")
    return Path(t, int(x), int(a), times, xm, am, T)


def _tilt_tables(p: Problem, nu: IntensityControl):
    """Per-control lookup tables, cached on the control for one problem.

    irate[j, x, a] is the I-rate sum_b nu_j(x, a, b) lambda0[b] on layer j,
    icum[j, x, a] its cumulative over b, edges[j] the right edge of layer j
    (inf for the last), and hazard[x, a, j] the cumsum of width times total
    rate lambda(x, a, E) + irate up to the left edge of layer j, padded with
    inf to a power of two layers. Returns (irate, icum, edges, hazard)."""
    cached = nu.__dict__.get("_tilt_tables")
    if cached is None or cached[0] is not p.lambda0 or cached[1] is not p.rates:
        rates = nu.field * p.lambda0
        edges = np.append(np.arange(1, nu.n_layers) * nu.horizon / nu.n_layers, math.inf)
        irate = rates.sum(axis=-1)
        cells = np.diff(edges[:-1], prepend=0.0)[:, None, None] * (p.row_sums + irate[:-1])
        hazard = np.full((*irate.shape[1:], 1 << (nu.n_layers - 1).bit_length()), math.inf)
        hazard[..., : nu.n_layers] = np.moveaxis(_prefix(cells), 0, -1)
        cached = (p.lambda0, p.rates, irate, rates.cumsum(axis=-1), edges, hazard)
        object.__setattr__(nu, "_tilt_tables", cached)
    return cached[2:]


def simulate_pair_paths(
    p: Problem, nu: IntensityControl, t: float, x: int, a: int, count: int, rng
) -> PathBatch:
    """Sample `count` paths of the pair (X, I) on [t, T] from (x, a), with
    I-intensity nu(s, X, I, b) * lambda0[b], all from the one stream rng.

    Competing exponentials, one jump of every live path per round: on each
    layer j of nu the total rate lambda(X, I, E) + sum_b nu_j(X, I, b)
    lambda0[b] is constant, so each jump spends one Exp(1) draw e of
    cumulative hazard. A draw that outlasts its layer adds its rest to the
    hazard at the next left edge (_tilt_tables) and lands in the layer that
    one bisection of that table finds: a one-layer tilt never searches.
    Paths whose total rate is zero retire; paths that reach T stop; the rest
    draw their channel uniforms, then their mark uniforms, in path order, so
    every path that survives a round jumps in it. At nu = 1 a batch of one
    makes the draws of simulate_pair_path. No proposal is rejected.
    """
    _check_horizon(nu, p)
    _check_start(p, t, x, a)
    T = p.horizon
    tab = _sim_tables(p)
    rows, cums = p.row_sums, tab["cum"]
    irate, icum, edges, hazard = _tilt_tables(p, nu)
    flat, width = hazard.ravel(), hazard.shape[-1]
    cap = _cap(tab["lam"] + nu.n_max * tab["lam0_tot"], T - t)
    live = np.arange(count)
    s = np.full(count, float(t))
    j = np.full(count, nu.layer_index(t))
    cx, ca = np.full(count, int(x)), np.full(count, int(a))
    empty = np.empty(0, np.int64)
    events = [(empty, np.empty(0), empty, empty)]  # (path, time, X mark, I mark) per round
    rounds = 0
    while live.size:
        rx = rows[cx, ca]
        ri = irate[j, cx, ca]
        r = rx + ri
        keep = r > 0.0
        # Fancy indexing copies, so no later round writes to an array in events.
        live, s, j, cx, ca, rx, ri, r = (v[keep] for v in (live, s, j, cx, ca, rx, ri, r))
        e = rng.exponential(size=live.size)
        left = (edges[j] - s) * r  # the hazard left in each path's layer
        over = np.flatnonzero(e >= left)
        s += e / r
        if over.size:
            k = (cx[over] * p.n_actions + ca[over]) * width  # layer 0 of each path's row of the flat table
            target = flat[k + j[over] + 1] + (e[over] - left[over])
            for step in (width >> i for i in range(1, width.bit_length())):
                k += step * (flat[k + step] <= target)  # ends at the last layer whose hazard is <= target
            land = k % width
            j[over], ri[over] = land, irate[land, cx[over], ca[over]]
            r[over] = rx[over] + ri[over]
            s[over] = edges[land - 1] + (target - flat[k]) / r[over]
        keep = s < T
        live, s, j, cx, ca, rx, ri, r = (v[keep] for v in (live, s, j, cx, ca, rx, ri, r))
        on_x = rng.random(size=live.size) * r < rx
        u = rng.random(size=live.size)
        hx, hi = np.flatnonzero(on_x), np.flatnonzero(~on_x)
        cx[hx] = np.minimum((cums[cx[hx], ca[hx]] <= (u[hx] * rx[hx])[:, None]).sum(axis=1), p.n_states - 1)
        ca[hi] = np.minimum((icum[j[hi], cx[hi], ca[hi]] <= (u[hi] * ri[hi])[:, None]).sum(axis=1), p.n_actions - 1)
        events.append((live, s, cx, ca))
        rounds += 1
        if live.size and rounds > cap:
            raise ExplosionError(f"pair path exceeded {cap} jumps on [{t}, {T}]")
    who, when, xm, am = (np.concatenate(column) for column in zip(*events))
    order = np.argsort(who, kind="stable")  # rounds run forward in time, so each path's jumps stay in order
    return PathBatch(
        np.full(count, float(t)), np.full(count, int(x)), np.full(count, int(a)),
        when[order], xm[order], am[order], np.concatenate(([0], np.cumsum(np.bincount(who, minlength=count)))), T,
    )


_STREAM_PATHS = 4096  # paths per child stream of a pair sample: part of the seeding contract


def simulate_pair_sample(
    p: Problem, nu: IntensityControl | None, t: float, x: int, a: int, n_paths: int, master_seed: int
) -> PathBatch:
    """n_paths pair paths from (t, x, a) under the tilt nu, or the reference
    pair for None. Chunk c, paths c * 4096 to (c + 1) * 4096 - 1, is one
    simulate_pair_paths batch on child_rng(master_seed, c)."""
    nu = _sim_tables(p)["unit"] if nu is None else nu
    chunks = [
        simulate_pair_paths(p, nu, t, x, a, min(_STREAM_PATHS, n_paths - i), child_rng(master_seed, c))
        for c, i in enumerate(range(0, n_paths, _STREAM_PATHS))
    ]
    return PathBatch.concat(chunks, p.horizon)


def _prefix(cells):
    """Cumulative sums of per-cell integrals, from 0 at the first node."""
    out = np.zeros((cells.shape[0] + 1, *cells.shape[1:]))
    np.cumsum(cells, axis=0, out=out[1:])
    return out


def _segments(batch: PathBatch):
    """Constant-state segments of a batch of pair paths, flattened in path order.

    Returns (lo, hi, x, a, owner): segment i spans [lo[i], hi[i]] in the
    pair state (x[i], a[i]) of path owner[i]. A path with j jumps before
    the horizon has j + 1 segments; a jump at the horizon opens none.
    """
    if batch.a_marks is None:
        raise ValueError("pair path functionals need pair paths")
    n, horizon = len(batch), batch.horizon
    check_times(batch.t0, horizon)  # the rates' cells do not extrapolate
    inner = batch.times < horizon
    owner = np.concatenate((np.arange(n), batch.owner[inner]))
    order = np.argsort(owner, kind="stable")  # each path's start, then its inner jumps in time order
    owner = owner[order]
    lo, x, a = (np.concatenate(parts)[order] for parts in (
        (batch.t0, batch.times[inner]), (batch.x0, batch.x_marks[inner]), (batch.a0, batch.a_marks[inner])
    ))
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[np.diff(owner, append=n) != 0] = horizon  # a path's last segment ends at the horizon
    return lo, hi, x, a, owner


def _trapezoid(nodes, dt):
    """The rate (cum, cell) of an integrand linear on each cell of spacing
    dt, with values nodes[k, x, a] at the nodes. The cell is written so
    that a constant integrand f gives exactly f * (s1 - s0)."""

    def cell(k, s0, s1, x, a):
        c = nodes[k, x, a]
        return (s1 - s0) * (c + (0.5 * (s0 + s1) / dt - k) * (nodes[k + 1, x, a] - c))

    return _prefix(0.5 * dt * (nodes[:-1] + nodes[1:])), cell


def _locate(T, n, lo, hi, x, a):
    """Locate the m segments [lo, hi] in pair state (x, a) on n cells over
    [0, T], as (k, w, x, a, split, s0, s1, n). The arrays but split stack the
    lo ends, then the hi ends: each end's grid_cell (k, w), state and end cell
    [s0, s1], [lo, t_{k_lo + 1}] and [t_{k_hi}, hi], or [lo, hi] and [hi, hi]
    where split (m flags) is false."""
    m = lo.size
    k, w = grid_cell(np.concatenate((lo, hi)), T, n)
    k_lo, k_hi = k[:m], k[m:]
    split = k_hi > k_lo
    dt = T / n
    s0 = np.concatenate((lo, np.where(split, k_hi * dt, hi)))
    s1 = np.concatenate((np.where(split, (k_lo + 1) * dt, hi), hi))
    return k, w, np.concatenate((x, x)), np.concatenate((a, a)), split, s0, s1, n


def _integrate(rate, located) -> np.ndarray:
    """Integral over each located segment of a rate (cum, cell) on its grid."""
    (cum, cell), (k, _, x, a, split, s0, s1, n) = rate, located
    if cum.shape[0] - 1 != n:
        raise ValueError(f"a rate on {cum.shape[0] - 1} cells, segments located on {n}")
    m = split.size
    ends = cell(k, s0, s1, x, a)
    x, a = x[:m], a[:m]
    inner = np.where(split, cum[k[m:], x, a] - cum[k[:m] + 1, x, a], 0.0)
    return ends[:m] + inner + ends[m:]


def _located(path: Path, T: float, n: int):
    """A pair path's segments (lo, hi, x, a) up to T, the _segments of it
    alone taken from its own arrays, and their location on n cells over
    [0, T], built on first use and kept on the path."""
    cache = path.__dict__.setdefault("_located", {})
    if T not in cache:
        if path.a_marks is None or abs(path.horizon - T) > 1e-12:
            raise ValueError(f"pair path functionals need pair paths on a horizon of {T}")
        check_times(path.t0, T)
        m = int(np.searchsorted(path.times, T))  # the jumps before T
        lo, x, a = (np.concatenate(([v0], v[:m])) for v0, v in (
            (path.t0, path.times), (path.x0, path.x_marks), (path.a0, path.a_marks)))
        cache[T] = tuple(_readonly(v, v.dtype) for v in (lo, np.concatenate((lo[1:], [T])), x, a))
    if (T, n) not in cache:
        cache[T, n] = _locate(T, n, *cache[T])
    return cache[T], cache[T, n]


# Two bounds on different temporaries, the integrator's per segment end and an
# estimator's per path. One segment bound for both fails: 1024 made the importance
# estimate twice as slow on a stiff model, 8192 raised diagnose's peak memory 2 MB.
_CHUNK = 1024  # segments per vectorised pass of _per_path
_BATCH = 256  # paths per part of _estimate


def _per_path(batch: PathBatch, rate) -> np.ndarray:
    """Per path, the integral of the rate (cum, cell) over its segments."""
    lo, hi, x, a, owner = _segments(batch)
    incr = [
        _integrate(rate, _locate(batch.horizon, rate[0].shape[0] - 1, *(v[i : i + _CHUNK] for v in (lo, hi, x, a))))
        for i in range(0, lo.size, _CHUNK)
    ]
    return np.bincount(owner, weights=np.concatenate([np.empty(0), *incr]), minlength=len(batch))


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error of one sample is NaN."""
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
    return float(samples.mean()), se


def _estimate(p: Problem, nu, t, x, a, n_paths, master_seed, paths, sample) -> tuple[float, float]:
    """Mean and SE of sample(part) over parts of _BATCH of n_paths >= 1 pair
    paths from (t, x, a): the given list or PathBatch of n_paths, or else
    simulate_pair_sample's under nu (None: the reference pair). They are
    flattened once: pass a reused list as PathBatch.from_paths(list)."""
    if paths is None:
        paths = simulate_pair_sample(p, nu, t, x, a, n_paths, master_seed)  # none for n_paths < 1
    if n_paths < 1 or len(paths) != n_paths:
        raise ValueError(f"n_paths must be at least 1 and the count of paths: n_paths = {n_paths}, {len(paths)} paths")
    batch = PathBatch.from_paths(paths, p.horizon)
    return _mean_se(np.concatenate([sample(batch.part(i, i + _BATCH)) for i in range(0, n_paths, _BATCH)]))


def _running_costs(p: Problem, paths) -> np.ndarray:
    """Exact integral of f(s, X_s, I_s) ds over [t0, T] along each pair path
    of a list or a PathBatch."""
    return _per_path(PathBatch.from_paths(paths, p.horizon), _sim_tables(p)["cost"])


def paths_to_csv(batch: PathBatch, fileobj):
    """Dump a batch as rows (path_id, jump_index, time, X_mark, I_mark), byte
    for byte what csv.writer writes."""
    from .linear import _CSV_CHUNK_ROWS, write_csv_rows  # linear imports this module

    owner = batch.owner
    index = np.arange(owner.size) - batch.offsets[owner]
    marks = np.full(owner.size, "") if batch.a_marks is None else batch.a_marks

    def rows():
        # Python objects for one chunk of rows at a time, not for the whole batch
        for c in range(0, owner.size, _CSV_CHUNK_ROWS):
            cut = slice(c, c + _CSV_CHUNK_ROWS)
            columns = (v[cut].tolist() for v in (owner, index, batch.times, batch.x_marks, marks))
            yield from (f"{i},{j},{t!r},{x},{a}\r\n" for i, j, t, x, a in zip(*columns))

    write_csv_rows(fileobj, "path_id,jump_index,time,X_mark,I_mark\r\n", rows())
