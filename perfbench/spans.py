"""Span recorder for the traced run; standard library only.

`install` replaces each listed public function of `jumpcontrol` with a
wrapper that records a span (name, start, end, parent, value) and puts the
wrapper under every module name that refers to the original, so calls made
through any import see it. `value` is a count read from the return value,
for instance the sweeps of an HJB solution. A listed name that the package
no longer has is skipped, so it reads as zero calls.
"""
from __future__ import annotations

import functools
import sys
import time

# (module, attribute, reader of the count carried by the return value)
WRAPPED = (
    ("cli", "cmd_solve", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_diagnose", None),
    ("model", "load_problem", None),
    ("model", "validate_problem", None),
    ("hjb", "solve_hjb_picard", lambda sol: sol.iterations),
    ("linear", "ValueGrid.to_csv", None),
    ("penalized", "solve_penalized", lambda sol: sol.n_substeps * (sol.values.values.shape[0] - 1)),
    ("penalized", "convergence_report", None),
    ("simulate", "child_rng", None),
    ("simulate", "simulate_pair_path", lambda path: path.n_jumps),
    ("simulate", "simulate_tilted_path", lambda path: path.n_jumps),
    ("simulate", "simulate_controlled_path", lambda path: path.n_jumps),
    ("simulate", "running_cost_along_path", None),
    ("randomized", "girsanov_weight", None),
    ("randomized", "dual_value_check", None),
    ("randomized", "dual_gain_importance", None),
    ("randomized", "girsanov_mean_weight", None),
    ("randomized", "greedy_control_from_vn", None),
    ("bsde", "build_sample", lambda sample: sample.breakpoints.size),
    ("bsde", "bsde_residual", None),
    ("bsde", "constraint_violation", None),
    ("bsde", "minimal_y_report", None),
)


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, value]
        self._stack = []

    def wrap(self, name, fn, read_value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if read_value is not None:
                try:
                    span[4] = read_value(out)
                except (AttributeError, TypeError, IndexError):
                    pass
            return out

        return traced

    def install(self, package):
        prefix = package.__name__
        modules = [m for key, m in sys.modules.items() if key == prefix or key.startswith(prefix + ".")]
        for mod_name, attr, read_value in WRAPPED:
            module = sys.modules.get(f"{prefix}.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, read_value)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
