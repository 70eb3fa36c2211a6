"""One program process: a single CLI command or API operation.

    python3 child.py '<spec json>'

The spec holds either "cli" (the argv of `jumpcontrol.cli.main`) or "api"
with "args" (one of the operations below), "trace" (record spans) and
"result" (the file to write). Apart from the standard library this process
imports only `jumpcontrol`, and the span recorder when tracing. The result
file holds the monotonic time of the first call (set-up ends there), the
time spent inside the call, the exit code, the peak resident set and the
operation's output.
"""
import json
import resource
import sys
import time


def load(jc, model):
    p = jc.load_problem(model)
    report = jc.validate_problem(p)
    if not report.ok:
        raise ValueError(str(report))
    return p


def importance(jc, model, n_steps, level, x0, paths, seed):
    """Importance-sampling dual gains for nu = 1, nu = 2 and the greedy
    control, and the mean Girsanov weights of nu = 2 and the greedy control,
    all on one batch of reference pair paths per start action."""
    from jumpcontrol import randomized

    p = load(jc, model)
    vn = jc.solve_penalized(p, level, n_steps=n_steps)
    controls = {
        "nu=1": jc.constant_control(p, 1.0),
        "nu=2": jc.constant_control(p, 2.0),
        "greedy": jc.greedy_control_from_vn(p, vn),
    }
    rows = []
    for a in range(p.n_actions):
        batch = [jc.simulate_pair_path(p, 0.0, x0, a, None, rng=jc.child_rng(seed, i)) for i in range(paths)]
        for cid, nu in controls.items():
            mean, se = jc.dual_gain_importance(p, nu, 0.0, x0, a, paths, paths=batch)
            rows.append({"control_id": cid, "start_a": a, "estimator": "importance", "mean": mean, "std_error": se})
        for cid in ("nu=2", "greedy"):
            mean, se = randomized.girsanov_mean_weight(p, controls[cid], 0.0, x0, a, paths, paths=batch)
            rows.append({"control_id": cid, "start_a": a, "estimator": "weight", "mean": mean, "std_error": se})
    return rows


def residual(jc, model, n_steps, levels, x0, paths, seed):
    """BSDE samples along pair paths from (0, x0, i mod |A|), for each level:
    the pathwise residual, K_T, Y_T, and v^n(0, ., .)."""
    p = load(jc, model)
    batch = [
        jc.simulate_pair_path(p, 0.0, x0, i % p.n_actions, None, rng=jc.child_rng(seed, i))
        for i in range(paths)
    ]
    out = {"x_T": [path.state_at(p.horizon) for path in batch], "levels": []}
    for n in levels:
        vn = jc.solve_penalized(p, n, n_steps=n_steps)
        row = {"level": n, "v0": vn.values.values[0].tolist(), "residual": [], "k_T": [], "y_T": []}
        for path in batch:
            sample = jc.build_sample(p, vn, path)
            row["residual"].append(jc.bsde_residual(p, sample))
            row["k_T"].append(float(sample.k_values[-1]))
            row["y_T"].append(float(sample.y_values[-1]))
        out["levels"].append(row)
    return out


def noop(jc):
    return None


API = {"importance": importance, "residual": residual, "noop": noop}


def peak_rss_kb():
    """Peak resident set of this process image. ru_maxrss is not used: on
    Linux it keeps the parent's peak from before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(cli, argv):
    try:
        return cli.main(argv) or 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main():
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.Recorder()
    import jumpcontrol
    from jumpcontrol import cli

    if recorder is not None:
        recorder.install(jumpcontrol)
    t_call = time.monotonic()
    start = time.perf_counter()
    if "cli" in spec:
        code, value = run_cli(cli, spec["cli"]), None
    else:
        code, value = 0, API[spec["api"]](jumpcontrol, **spec.get("args", {}))
    seconds = time.perf_counter() - start
    result = {
        "t_call": t_call,
        "seconds": seconds,
        "exit": code,
        "rss_kb": peak_rss_kb(),
        "value": value,
        "spans": recorder.spans if recorder is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
