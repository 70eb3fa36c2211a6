"""Benchmark of jumpcontrol, end to end and layer by layer.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workloads are defined in
workloads.py and described in README.md. A run prepares the inputs and the
reference values, then repeats passes over the workload's operations until
--seconds have elapsed; every operation is its own program process (see
child.py), run one at a time. With --trace 0 the last line of stdout
reports the end-to-end metrics; with --trace 1 untraced and traced passes
alternate and it reports the per-layer metrics from the traced ones. Exits
2 without a result when the program's source is missing, 1 when an output
check fails that no known fault explains.
"""
import os

# One thread per process: every array is tiny, and the machine has two CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 60.0  # the longest operation takes about 5 s

# name, unit, kind, span names. Kinds: "call" median seconds per call (summed
# over the names), "calls" calls per pass, "sum" and "mean" of the count each
# call returns, per pass, "self" self seconds per pass, "output" CLI output
# per pass, "overhead" traced over untraced pass time.
LAYER_METRICS = (
    ("cli.solve_s", "s", "call", ("cli.cmd_solve",)),
    ("cli.simulate_s", "s", "call", ("cli.cmd_simulate",)),
    ("cli.diagnose_s", "s", "call", ("cli.cmd_diagnose",)),
    ("cli.output_mb", "MB", "output", ()),
    ("model.load_s", "s", "call", ("model.load_problem", "model.validate_problem")),
    ("hjb.picard_s", "s", "call", ("hjb.solve_hjb_picard",)),
    ("hjb.picard_calls", "count", "calls", ("hjb.solve_hjb_picard",)),
    ("hjb.picard_sweeps", "count", "sum", ("hjb.solve_hjb_picard",)),
    ("linear.to_csv_s", "s", "call", ("linear.to_csv",)),
    ("penalized.level_s", "s", "call", ("penalized.solve_penalized",)),
    ("penalized.levels", "count", "calls", ("penalized.solve_penalized",)),
    ("penalized.rk4_steps", "count", "sum", ("penalized.solve_penalized",)),
    ("penalized.report_self_s", "s", "self", ("penalized.convergence_report",)),
    ("simulate.pair_path_us", "us", "call", ("simulate.simulate_pair_path",)),
    ("simulate.pair_paths", "count", "calls", ("simulate.simulate_pair_path",)),
    ("simulate.tilted_path_us", "us", "call", ("simulate.simulate_tilted_path",)),
    ("simulate.tilted_paths", "count", "calls", ("simulate.simulate_tilted_path",)),
    ("simulate.child_rng_us", "us", "call", ("simulate.child_rng",)),
    ("simulate.child_rngs", "count", "calls", ("simulate.child_rng",)),
    ("simulate.pair_jumps_per_path", "count", "mean", ("simulate.simulate_pair_path",)),
    ("simulate.tilted_jumps_per_path", "count", "mean", ("simulate.simulate_tilted_path",)),
    ("simulate.running_cost_us", "us", "call", ("simulate.running_cost_along_path",)),
    ("simulate.controlled_path_us", "us", "call", ("simulate.simulate_controlled_path",)),
    ("simulate.controlled_paths", "count", "calls", ("simulate.simulate_controlled_path",)),
    ("randomized.girsanov_weight_us", "us", "call", ("randomized.girsanov_weight",)),
    ("randomized.girsanov_weights", "count", "calls", ("randomized.girsanov_weight",)),
    ("randomized.dual_check_self_s", "s", "self", ("randomized.dual_value_check",)),
    ("randomized.importance_self_s", "s", "self", ("randomized.dual_gain_importance", "randomized.girsanov_mean_weight")),
    ("randomized.greedy_s", "s", "call", ("randomized.greedy_control_from_vn",)),
    ("bsde.build_sample_us", "us", "call", ("bsde.build_sample",)),
    ("bsde.build_samples", "count", "calls", ("bsde.build_sample",)),
    ("bsde.breakpoints_per_sample", "count", "mean", ("bsde.build_sample",)),
    ("bsde.residual_us", "us", "call", ("bsde.bsde_residual",)),
    ("bsde.constraint_self_s", "s", "self", ("bsde.constraint_violation",)),
    ("bsde.minimal_y_s", "s", "call", ("bsde.minimal_y_report",)),
    ("trace.overhead", "ratio", "overhead", ()),
)
SCALE = {"s": 1.0, "us": 1e6}


def launch(spec, trace, result_path, env):
    """Run one program process; returns its result, with set-up time added, or None."""
    spec = dict(spec, trace=trace, result=result_path)
    if os.path.exists(result_path):
        os.unlink(result_path)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"process killed after {CHILD_TIMEOUT:.0f} s"
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"process exited {proc.returncode}: {' | '.join(tail)}"
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup"] = result["t_call"] - launched
    return result, ""


def run_pass(ops, trace, work, env):
    records = []
    for op in ops:
        if op.out_dir:
            shutil.rmtree(op.out_dir, ignore_errors=True)
            os.makedirs(op.out_dir)
        result, note = launch(op.spec, trace, os.path.join(work, "result.json"), env)
        if result is None:
            problems = [note]
        else:
            try:
                problems = op.check(result)
            except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        output = sum(e.stat().st_size for e in os.scandir(op.out_dir) if e.is_file()) if op.out_dir else 0
        records.append({"op": op, "result": result, "problems": problems, "output_bytes": output})
    return records


def pass_seconds(records):
    return sum(r["result"]["seconds"] for r in records if r["result"] is not None)


def end_to_end(plain):
    results = [r["result"] for records in plain for r in records if r["result"] is not None]
    return {
        "setup_s": (statistics.median(r["setup"] for r in results), "s"),
        "wall_s": (statistics.median(pass_seconds(records) for records in plain), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) * 1024 / 1e6, "MB"),
    }


def _pass_spans(records):
    """Per span name: durations, self times and returned counts over one pass."""
    out = {}
    for r in records:
        spans = (r["result"] or {}).get("spans") or []
        self_time = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for (name, start, end, _, value), own in zip(spans, self_time):
            entry = out.setdefault(name, {"dur": [], "self": 0.0, "values": []})
            entry["dur"].append(end - start)
            entry["self"] += own
            if value is not None:
                entry["values"].append(value)
    return out


def per_layer(plain, traced):
    passes = [_pass_spans(records) for records in traced]
    empty = {"dur": [], "self": 0.0, "values": []}
    metrics = {}
    for name, unit, kind, spans in LAYER_METRICS:
        if kind == "call":
            durations = ([d for p in passes for d in p.get(s, empty)["dur"]] for s in spans)
            value = SCALE[unit] * sum(statistics.median(d) if d else 0.0 for d in durations)
        elif kind == "output":
            value = statistics.median(sum(r["output_bytes"] for r in records) for records in traced) / 1e6
        elif kind == "overhead":
            value = statistics.median(map(pass_seconds, traced)) / statistics.median(map(pass_seconds, plain))
        else:
            per_pass = []
            for p in passes:
                entries = [p.get(s, empty) for s in spans]
                values = [v for e in entries for v in e["values"]]
                per_pass.append({
                    "calls": sum(len(e["dur"]) for e in entries),
                    "sum": sum(values),
                    "mean": sum(values) / len(values) if values else 0.0,
                    "self": sum(e["self"] for e in entries),
                }[kind])
            value = statistics.median(per_pass)
        metrics[name] = (value, unit)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "jumpcontrol", "__init__.py")):
        print(f"error: no jumpcontrol source under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "jumpcontrol"), quiet=1)
    env = dict(os.environ, PYTHONPATH=SRC)
    work = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        warm, note = launch({"api": "noop"}, False, os.path.join(work, "result.json"), env)
        if warm is None:
            print(f"error: the program does not start: {note}", file=sys.stderr)
            return 2
        os.makedirs(os.path.join(work, "models"))
        ops = workloads.WORKLOADS[args.workload](args.seed, work)

        # Whole passes only, and none that would end past --seconds.
        passes = []
        start = last = time.monotonic()
        while len(passes) < 1 + args.trace or 2 * time.monotonic() - last - start <= args.seconds:
            last = time.monotonic()
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append((traced, run_pass(ops, traced, work, env)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for _, rs in passes for r in rs]
    unexpected = set()
    for r in records:
        if r["problems"] and not r["op"].known_fault:
            unexpected.add(r["op"].name)
    for name, problems in {r["op"].name: r["problems"] for r in records if r["problems"]}.items():
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    plain = [rs for traced, rs in passes if not traced]
    metrics = per_layer(plain, [rs for traced, rs in passes if traced]) if args.trace else end_to_end(plain)
    print(f"{len(passes)} passes in {time.monotonic() - start:.1f} s; pass seconds "
          + " ".join(f"{pass_seconds(rs):.3f}{'t' if t else ''}" for t, rs in passes), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
