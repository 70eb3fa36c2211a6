"""The package API that the benchmark's API operations call still works.

perfbench/child.py is loaded by path, as it stands, and its `importance`
and `residual` operations run at tiny sizes; the traced `importance`
operation also runs as the benchmark runs it, in its own process.
"""
import importlib.util
import json
import math
import os
import subprocess
import sys

import jumpcontrol as jc

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", os.path.join(ROOT, "perfbench", "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_importance_and_residual_operations_give_finite_rows():
    child = load_child()
    rows = child.importance(
        jc, os.path.join(FIXTURES, "m2.json"), n_steps=100, level=8, x0=0, paths=20, seed=3
    )
    assert len(rows) == 2 * 5  # per start action: three importance rows, two weight rows
    assert all(math.isfinite(r["mean"]) and math.isfinite(r["std_error"]) for r in rows)

    out = child.residual(
        jc, os.path.join(FIXTURES, "threestate.json"), n_steps=100, levels=[1, 8], x0=0, paths=10, seed=4
    )
    assert len(out["x_T"]) == 10
    assert [row["level"] for row in out["levels"]] == [1, 8]
    for row in out["levels"]:
        values = [*row["residual"], *row["k_T"], *row["y_T"], *(v for layer in row["v0"] for v in layer)]
        assert len(row["residual"]) == 10 and all(math.isfinite(v) for v in values)


def test_traced_importance_operation_records_its_spans(tmp_path):
    # The per-layer metrics read spans by function name; a renamed or
    # deleted function would silently read as zero calls.
    result = tmp_path / "result.json"
    args = {"model": os.path.join(FIXTURES, "m2.json"), "n_steps": 100, "level": 8, "x0": 0, "paths": 20, "seed": 3}
    spec = {"api": "importance", "args": args, "trace": True, "result": str(result)}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), json.dumps(spec)], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(result.read_text())
    assert out["exit"] == 0
    spans = {}
    for name, _, _, _, value in out["spans"]:
        spans.setdefault(name, []).append(value)
    assert len(spans["simulate.simulate_pair_path"]) == 2 * 20  # per start action
    assert all(isinstance(jumps, int) for jumps in spans["simulate.simulate_pair_path"])
    assert "randomized.dual_gain_importance" in spans
    assert len(spans["randomized.dual_gain_importance"]) == 2 * 3  # per start action: nu = 1, nu = 2, greedy
    assert len(spans["randomized.girsanov_mean_weight"]) == 2 * 2  # per start action: nu = 2, greedy
