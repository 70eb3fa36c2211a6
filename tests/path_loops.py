"""Per-path loop references for the samplers and the pair-path functionals.

Each function walks one path jump by jump in plain Python:
- controlled_path samples X under a feedback law by thinning proposals at
  the rate bound Lambda_E (Lewis & Shedler 1979);
- pair_path samples the reference pair (X, I) by competing exponentials at
  the total rate lambda(X, I, E) + lambda0(A);
- tilted_path samples the nu-tilted pair by competing exponentials: a jump
  whose Exp(1) draw outlasts its layer of nu walks the cumulative hazard
  at the layers' left edges to the layer it lands in;
- tilted_path_thinning samples the nu-tilted pair by thinning I-proposals
  at the bound n_max lambda0(A) (Lewis & Shedler 1979);
- running_cost_along_path integrates f over the pieces cut by the jumps and
  the cost nodes;
- girsanov_log_weight integrates the drift over the pieces cut by the jumps
  and the control's layer edges.
jumpcontrol.simulate thins all controlled paths of a batch at once, samples
the tilted pair in batches with one layered competing-exponentials sampler
that finds a crossing jump's landing layer by bisection of the same hazard
table (the reference pair also with one scalar loop), and computes the
integrals for a whole batch from cumulative tables; the tests compare the
two.
"""
from __future__ import annotations

import math

import numpy as np

from jumpcontrol.model import cost_at, pair_rate_bound, rate_bound
from jumpcontrol.simulate import ExplosionError, Path, _cap


def _draw(cum, total, u):
    """Inverse-CDF draw from an unnormalized cumulative table."""
    v = u * total
    for i in range(len(cum) - 1):
        if v < cum[i]:
            return i
    return len(cum) - 1


def controlled_path(p, alpha, t, x, rng) -> Path:
    """X on [t, T] under alpha: a proposal at s is accepted with probability
    lambda(X, alpha(s, X), E) / Lambda_E, and its mark is drawn from the
    normalized row; accepted self-jumps are genuine points."""
    T = p.horizon
    lam = rate_bound(p)
    times, marks = [], []
    if lam > 0.0:
        rows, cums = p.row_sums.tolist(), p.rates.cumsum(axis=2).tolist()
        inv_lam = 1.0 / lam
        cap = _cap(lam, T - t)
        s, cur = t, int(x)
        n_layers = max(alpha.n_layers, 1)
        scale = n_layers / alpha.horizon
        while True:
            s += rng.exponential() * inv_lam
            if s >= T:
                break
            a = int(alpha.table[min(int(s * scale + 1e-12), n_layers - 1), cur])
            r = rows[cur][a]
            if r > 0.0 and rng.random() * lam < r:
                cur = _draw(cums[cur][a], r, rng.random())
                times.append(s)
                marks.append(cur)
                if len(times) > cap:
                    raise ExplosionError(f"path exceeded {cap} jumps on [{t}, {T}] (bound {lam})")
    return Path(t, int(x), None, np.array(times), np.array(marks), None, T)


def pair_path(p, t, x, a, rng) -> Path:
    """The reference pair on [t, T]: an X-jump keeps I and draws the new
    state from the normalized row, an I-jump keeps X and draws the new
    action from lambda0 / lambda0(A)."""
    T = p.horizon
    rows, cums = p.row_sums.tolist(), p.rates.cumsum(axis=2).tolist()
    lam0_tot, lam0_cum = float(p.lambda0.sum()), p.lambda0.cumsum().tolist()
    cap = _cap(pair_rate_bound(p), T - t)
    s, cx, ca = t, int(x), int(a)
    times, xm, am = [], [], []
    while True:
        rx = rows[cx][ca]
        r = rx + lam0_tot
        if r <= 0.0:
            break
        s += rng.exponential() / r
        if s >= T:
            break
        if rng.random() * r < rx:
            cx = _draw(cums[cx][ca], rx, rng.random())
        else:
            ca = _draw(lam0_cum, lam0_tot, rng.random())
        times.append(s)
        xm.append(cx)
        am.append(ca)
        if len(times) > cap:
            raise ExplosionError(f"pair path exceeded {cap} jumps on [{t}, {T}]")
    return Path(t, int(x), int(a), np.array(times), np.array(xm), np.array(am), T)


def tilted_path(p, nu, t, x, a, rng) -> Path:
    """The nu-tilted pair on [t, T]: on layer j of nu the total rate
    lambda(X, I, E) + sum_b nu_j(X, I, b) lambda0[b] is constant, so each
    jump spends one Exp(1) of cumulative hazard; a draw that outlasts its
    layer lands where the hazard from 0, summed over the layers' left edges,
    reaches the hazard at the edge plus the rest of the draw. An X-jump is
    drawn as in pair_path; an I-jump keeps X and draws the new action from
    nu_j(X, I, .) lambda0."""
    T = p.horizon
    rows, cums = p.row_sums.tolist(), p.rates.cumsum(axis=2).tolist()
    rates = nu.field * p.lambda0
    irate, icum = rates.sum(axis=-1).tolist(), rates.cumsum(axis=-1).tolist()
    n = nu.n_layers
    edges = (np.arange(1, n) * nu.horizon / n).tolist() + [math.inf]
    # hazard[j][x][a]: the total rate's hazard from 0 to the left edge of
    # layer j, summed layer by layer in the order of np.cumsum.
    hazard = [[[0.0] * p.n_actions for _ in range(p.n_states)]]
    for i in range(n - 1):
        width = edges[i] - (edges[i - 1] if i else 0.0)
        hazard.append([
            [h + width * (row + ir) for h, row, ir in zip(hs, rs, irs)]
            for hs, rs, irs in zip(hazard[i], rows, irate[i])
        ])
    cap = _cap(rate_bound(p) + nu.n_max * float(p.lambda0.sum()), T - t)
    j = nu.layer_index(t)
    s, cx, ca = t, int(x), int(a)
    times, xm, am = [], [], []
    while True:
        rx = rows[cx][ca]
        ri = irate[j][cx][ca]
        r = rx + ri
        if r <= 0.0:
            break
        e = rng.exponential()
        left = (edges[j] - s) * r
        if e >= left:
            # The rest of e lands in the last layer whose left-edge hazard
            # is at most the target; walk the layers to it.
            target = hazard[j + 1][cx][ca] + (e - left)
            j += 1
            while j + 1 < n and hazard[j + 1][cx][ca] <= target:
                j += 1
            ri = irate[j][cx][ca]
            r = rx + ri
            s = edges[j - 1] + (target - hazard[j][cx][ca]) / r
        else:
            s += e / r
        if s >= T:
            break
        if rng.random() * r < rx:
            cx = _draw(cums[cx][ca], rx, rng.random())
        else:
            ca = _draw(icum[j][cx][ca], ri, rng.random())
        times.append(s)
        xm.append(cx)
        am.append(ca)
        if len(times) > cap:
            raise ExplosionError(f"pair path exceeded {cap} jumps on [{t}, {T}]")
    return Path(t, int(x), int(a), np.array(times), np.array(xm), np.array(am), T)


def tilted_path_thinning(p, nu, t, x, a, rng) -> Path:
    """The nu-tilted pair on [t, T]: the X-component as in pair_path; I-jump
    proposals arrive at the bound n_max lambda0(A) with marks from lambda0
    and are accepted with probability nu(s, X, I, b) / n_max."""
    T = p.horizon
    rows, cums = p.row_sums.tolist(), p.rates.cumsum(axis=2).tolist()
    lam0_tot, lam0_cum = float(p.lambda0.sum()), p.lambda0.cumsum().tolist()
    bound_i = nu.n_max * lam0_tot
    cap = _cap(rate_bound(p) + bound_i, T - t)
    n_proposals = 0
    s, cx, ca = t, int(x), int(a)
    times, xm, am = [], [], []
    while True:
        rx = rows[cx][ca]
        r = rx + bound_i
        if r <= 0.0:
            break
        s += rng.exponential() / r
        if s >= T:
            break
        n_proposals += 1
        if n_proposals > cap:
            raise ExplosionError(f"tilted path exceeded {cap} proposals on [{t}, {T}]")
        if rng.random() * r < rx:
            cx = _draw(cums[cx][ca], rx, rng.random())
        else:
            b = _draw(lam0_cum, lam0_tot, rng.random())
            if rng.random() * nu.n_max >= nu.field[nu.layer_index(s), cx, ca, b]:
                continue
            ca = b
        times.append(s)
        xm.append(cx)
        am.append(ca)
    return Path(t, int(x), int(a), np.array(times), np.array(xm), np.array(am), T)


def running_cost_along_path(p, path) -> float:
    """Exact integral of f(s, X_s, I_s) ds over [t0, T] along a pair path.

    Breakpoints are the jump times plus (for time-dependent f) the cost
    grid nodes; on each piece the state is constant and f is linear, so the
    trapezoid rule is exact.
    """
    f = p.running_cost
    T = p.horizon
    total = 0.0
    if f.ndim == 2:
        ftab = f.tolist()
        lo, x, a = path.t0, path.x0, path.a0
        for j in range(path.n_jumps):
            hi = path.times[j]
            total += ftab[x][a] * (hi - lo)
            lo, x, a = hi, int(path.x_marks[j]), int(path.a_marks[j])
        return total + ftab[x][a] * (T - lo)
    nodes = np.linspace(0.0, T, f.shape[0])
    cuts = np.union1d(
        np.asarray([path.t0, *path.times.tolist(), T]),
        nodes[(nodes > path.t0) & (nodes < T)],
    )
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        x, a = path.state_at(mid), path.action_at(mid)
        total += 0.5 * (cost_at(p, lo, x, a) + cost_at(p, hi, x, a)) * (hi - lo)
    return total


def girsanov_log_weight(p, nu, path) -> float:
    """log L_T of the nu-tilted law along a reference pair path.

    The drift sum_b (1 - nu_j(x, a, b)) lambda0[b] is integrated layer by
    layer over each constant-state piece; every jump adds
    log(nu(T_j, X-, I-, b) d1 + d2).
    """
    if path.a_marks is None:
        raise ValueError("girsanov_log_weight needs a pair path")
    T = path.horizon
    lam0 = p.lambda0.tolist()
    drift = (float(p.lambda0.sum()) - nu.field @ p.lambda0).tolist()
    field = nu.field.tolist()
    n_layers = nu.n_layers
    layer_len = T / n_layers
    last_layer = n_layers - 1
    scale = n_layers / T

    log_w = 0.0
    times = path.times.tolist()
    xm = path.x_marks.tolist()
    am = path.a_marks.tolist()
    lo, x_pre, a_pre = path.t0, path.x0, path.a0
    for j in range(path.n_jumps + 1):
        hi = times[j] if j < path.n_jumps else T
        if hi > lo:
            j0 = min(int(lo * scale + 1e-12), last_layer)
            j1 = min(int(hi * scale - 1e-12), last_layer)
            row = drift[j0][x_pre][a_pre]
            if j1 == j0:
                log_w += row * (hi - lo)
            else:
                log_w += row * ((j0 + 1) * layer_len - lo)
                for jj in range(j0 + 1, j1):
                    log_w += drift[jj][x_pre][a_pre] * layer_len
                log_w += drift[j1][x_pre][a_pre] * (hi - j1 * layer_len)
        if j < path.n_jumps:
            y, b = xm[j], am[j]
            m1 = lam0[b] if y == x_pre else 0.0
            m2 = float(p.rates[x_pre, a_pre, y]) if b == a_pre else 0.0
            jl = min(int(hi * scale + 1e-12), last_layer)
            log_w += math.log((field[jl][x_pre][a_pre][b] * m1 + m2) / (m1 + m2))
            lo, x_pre, a_pre = hi, y, b
    return log_w
