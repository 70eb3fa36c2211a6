"""Model documents for the benchmark, in the program's JSON model schema.

The two fixtures are copied here so that the benchmark does not depend on
where the test suite keeps them. The random models are drawn from the
workload seed; their shapes and rate bounds are fixed, so the amount of
work in a pass does not depend on the seed.
"""
from __future__ import annotations

import numpy as np

M2 = {
    "states": ["0", "1"],
    "actions": ["1", "2"],
    "rates": [[[0.0, 1.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "lambda0": [0.7, 0.3],
    "f": 0.0,
    "g": [0.0, 1.0],
    "T": 1.0,
}

THREESTATE = {
    "states": ["s0", "s1", "s2"],
    "actions": ["a0", "a1"],
    "rates": [
        [[1.55, 0.88, 1.72], [1.39, 0.19, 1.95]],
        [[1.52, 1.57, 0.26], [0.9, 0.74, 1.85]],
        [[1.29, 1.65, 0.89], [0.45, 1.11, 0.13]],
    ],
    "lambda0": [0.5, 0.5],
    "f": [[0.8276, 0.6317], [0.7581, 0.3545], [0.9707, 0.8931]],
    "g": [0.7784, 0.1946, 0.4667],
    "T": 1.0,
}

FIXTURES = {"m2": M2, "threestate": THREESTATE}

# Stiff two-state model (rate bound L = 200). Picard's trapezoid error grows
# like L^3 T dt^2, so at N = 2000 it reports v(0, 0) = 1.1698 against a true
# value of 1.0105, with a fixed-point residual below 1e-10.
STIFF_L = 200.0
STIFF = {
    "states": ["0", "1"],
    "actions": ["0", "1"],
    "rates": [
        [[0.0, STIFF_L], [0.0, STIFF_L / 2]],
        [[STIFF_L / 3, 0.0], [STIFF_L, 0.0]],
    ],
    "lambda0": [1.0, 1.0],
    "f": [[0.1, 0.3], [0.0, 0.2]],
    "g": [0.0, 1.0],
    "T": 1.0,
}

# (n_states, n_actions, rate bound, time nodes of f; 0 means f constant in time).
# N = 2000 is a multiple of every (nodes - 1), so f is linear on each grid cell.
RANDOM_SHAPES = (
    (2, 2, 4.0, 5),
    (4, 3, 6.0, 0),
    (8, 4, 8.0, 5),
    (16, 2, 10.0, 9),
    (64, 4, 6.0, 5),
)


def random_model(rng: np.random.Generator, n_states, n_actions, bound, f_nodes) -> dict:
    """A random admissible model whose largest total jump rate equals `bound`.

    About half of the transitions are present, self-jumps included; each
    (x, a) row gets a total rate in [0.3, 1] * bound, and row (0, 0) gets
    exactly `bound`.
    """
    rates = rng.random((n_states, n_actions, n_states))
    rates *= rng.random(rates.shape) < 0.5
    rates[:, :, 0] += 1e-3  # no empty rows
    totals = bound * rng.uniform(0.3, 1.0, (n_states, n_actions))
    totals[0, 0] = bound
    rates *= (totals / rates.sum(axis=2))[:, :, None]
    f_shape = (f_nodes, n_states, n_actions) if f_nodes else (n_states, n_actions)
    return {
        "states": [f"x{i}" for i in range(n_states)],
        "actions": [f"a{i}" for i in range(n_actions)],
        "rates": rates.tolist(),
        "lambda0": rng.uniform(0.5, 1.5, n_actions).tolist(),
        "f": rng.random(f_shape).tolist(),
        "g": rng.random(n_states).tolist(),
        "T": 1.0,
    }


def solve_models(seed: int) -> dict:
    """Every model of the solve workload, by name, in a fixed order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    models = dict(FIXTURES)
    models["stiff"] = STIFF
    for shape in RANDOM_SHAPES:
        models["random%dx%d" % shape[:2]] = random_model(rng, *shape)
    return models


def arrays(doc: dict):
    """(rates, lambda0, f, g, T) as float arrays; f keeps its 2-D or 3-D shape."""
    rates = np.asarray(doc["rates"], dtype=float)
    n_states, n_actions = rates.shape[:2]
    f = np.asarray(doc["f"], dtype=float)
    if f.ndim == 0:
        f = np.full((n_states, n_actions), float(f))
    return rates, np.asarray(doc["lambda0"], dtype=float), f, np.asarray(doc["g"], dtype=float), float(doc["T"])
