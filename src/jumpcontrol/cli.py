"""Command-line front end: solve, diagnose, simulate.

Exit codes: 0 success, 2 model parse error, 3 validation failure (of the
model or of an argument: a state index, penalization levels, a march past
linear.MAX_RK4_STEPS), 4 solver nonconvergence, 5 diagnostic suite failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import bsde, hjb, model, penalized, randomized, simulate

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_SUITE = 5


def _atomic_write(path, emit):
    """Stream emit(fh) into a temporary file beside path, then rename it
    over path, so that a failed write leaves the old file intact."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            emit(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, doc):
    # An undefined (NaN) number must be written as null before it gets here.
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def _load(args):
    try:
        p = model.load_problem(args.model)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, OSError) as exc:
        print(f"error: cannot parse model {args.model}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    report = model.validate_problem(p)
    if not report.ok:
        print(f"error: model fails validation: {report}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return p


def _solve_primal(p, args):
    """The Picard solve of every command; nonconvergence exits 4."""
    try:
        return hjb.solve_hjb_picard(p, n_steps=args.n_steps, tol=args.tol)
    except hjb.NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NONCONVERGENCE)


def _invalid(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _out_dir(args):
    """Create the output directory; one that cannot be created exits 3."""
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        _invalid(f"cannot create output directory {args.out_dir}: {exc}")


def _config(args):
    """The numerical arguments of every command, checked by SolverConfig,
    and the seed; a bad value exits 3."""
    if args.seed < 0:
        _invalid(f"seed {args.seed} is negative")
    diagnose = {"mc_paths": args.paths, "penalization_levels": args.levels} if args.command == "diagnose" else {}
    try:
        return model.SolverConfig(n_steps=args.n_steps, picard_tol=args.tol, **diagnose)
    except (TypeError, ValueError) as exc:
        _invalid(exc)


def cmd_solve(args):
    _config(args)
    p = _load(args)
    sol = _solve_primal(p, args)
    _out_dir(args)
    _atomic_write(
        os.path.join(args.out_dir, "values.csv"),
        lambda fh: sol.values.to_csv(fh, p.states),
    )

    def emit_policy(fh):
        labels = [model.csv_field(a) for a in p.actions]
        table = [f"{model.csv_field(s)},{label}\r\n" for s in p.states for label in labels]
        index = (sol.argmax + p.n_actions * np.arange(p.n_states)).tolist()
        tails = ([table[i] for i in layer] for layer in index)
        model.write_grid_csv(fh, "k,t,state,action_label\r\n", sol.values.times, tails, p.n_states)

    _atomic_write(os.path.join(args.out_dir, "policy.csv"), emit_policy)
    summary = {
        "v0": {p.states[x]: float(sol.values.values[0, x]) for x in range(p.n_states)},
        "iterations": sol.iterations,
        "residual": sol.residual,
        "n_steps": args.n_steps,
    }
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    return 0


def cmd_diagnose(args):
    levels = _config(args).penalization_levels
    p = _load(args)
    primal = _solve_primal(p, args)
    try:
        report = penalized.convergence_report(p, levels, n_steps=args.n_steps, primal=primal)
    except ValueError as exc:  # a march past linear.MAX_RK4_STEPS
        _invalid(exc)
    _out_dir(args)
    _atomic_write(os.path.join(args.out_dir, "penalized.csv"), report.to_csv)

    x0 = 0
    v0 = float(primal.values.values[0, x0])
    greedy_level = levels[-1] if 64 not in levels else 64
    dual = randomized.dual_value_check(
        p, 0.0, x0, v0, report.solutions[greedy_level],
        n_paths=args.paths, master_seed=args.seed,
    )
    _atomic_write(os.path.join(args.out_dir, "dual.csv"), dual.to_csv)

    miny = bsde.minimal_y_report(p, report.solutions, 0.0, x0, v0)
    _atomic_write(os.path.join(args.out_dir, "bsde.csv"), miny.to_csv)
    n_pair = min(args.paths, 2000)
    pair_paths = simulate.simulate_pair_sample(p, None, 0.0, x0, 0, n_pair, args.seed)
    violations = {
        n: bsde.constraint_violation(p, report.solutions[n], 0.0, x0, 0, n_pair, paths=pair_paths)
        for n in levels
    }

    checks = {
        "penalized_monotone": all(r.monotonicity_violations == 0 for r in report.rows),
        "penalized_capped": all(r.cap_violations == 0 for r in report.rows),
        "dual_below_primal": dual.all_below_primal,
        "greedy_reaches_vn": dual.greedy_reaches_target,
        "constraint_decay": all(
            violations[b][0] <= violations[a][0] + 3.0 * (violations[a][1] + violations[b][1])
            for a, b in zip(levels, levels[1:])
        ),
    }
    summary = {
        "checks": checks,
        "passed": all(checks.values()),
        "v0": {p.states[x]: float(primal.values.values[0, x]) for x in range(p.n_states)},
        "sigma": {str(r.level): r.sigma for r in report.rows},
        "delta": {str(r.level): r.delta for r in report.rows},
        # An undefined (NaN) standard error is written as null.
        "constraint_violation": {
            str(n): [mean, None if math.isnan(se) else se] for n, (mean, se) in violations.items()
        },
        "paths": args.paths,
        "seed": args.seed,
    }
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    if not summary["passed"]:
        print("diagnostic suite failed:", checks, file=sys.stderr)
        return EXIT_SUITE
    return 0


def cmd_simulate(args):
    _config(args)
    if args.count < 0:
        _invalid(f"path count {args.count} is negative")
    p = _load(args)
    if not 0 <= args.start_state < p.n_states:
        _invalid(f"start state {args.start_state} outside 0..{p.n_states - 1}")
    if args.action is not None:
        if args.action not in p.actions:
            _invalid(f"unknown action label {args.action!r}")
        policy = simulate.constant_policy(p, p.actions.index(args.action))
    else:
        policy = hjb.extract_feedback(_solve_primal(p, args))
    paths = simulate.simulate_controlled_paths(
        p, policy, 0.0, args.start_state, args.count, simulate.child_rng(args.seed, 0)
    )
    _out_dir(args)
    _atomic_write(
        os.path.join(args.out_dir, "paths.csv"),
        lambda fh: simulate.paths_to_csv(paths, fh),
    )
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(prog="jumpcontrol")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = model.SolverConfig()

    def common(sp):
        sp.add_argument("--model", required=True)
        sp.add_argument("--out-dir", default="out")
        sp.add_argument("--n-steps", type=int, default=defaults.n_steps, dest="n_steps")
        sp.add_argument("--tol", type=float, default=defaults.picard_tol)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None)

    sp = sub.add_parser("solve", help="solve the HJB equation, export values and policy")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("diagnose", help="run penalized/dual/BSDE diagnostic suites")
    common(sp)
    sp.add_argument("--paths", type=int, default=defaults.mc_paths)
    sp.add_argument(
        "--levels",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=defaults.penalization_levels,
    )
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("simulate", help="dump simulated paths as CSV")
    common(sp)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--start-state", type=int, default=0)
    sp.add_argument("--action", default=None, help="constant action label; default: optimal policy")
    sp.set_defaults(func=cmd_simulate)
    return ap, sub.choices


def _read_config(path, parser, args):
    """A JSON config file, whose keys are flags of the parsed command (their
    argparse names, such as n_steps). A value is parsed as its flag parses
    the value's text, a list standing for its comma-joined items (as for
    --levels); a flag without a type takes only a string. A file that is
    not a JSON object, a key that is not a flag of the command, or a value
    that its flag rejects exits 2."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        unknown = sorted(cfg.keys() - (vars(args).keys() - {"command", "func"}))
    except (OSError, ValueError, AttributeError) as exc:
        print(f"error: cannot parse config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if unknown:
        print(f"error: config {path}: not a flag of {args.command}: {', '.join(unknown)}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    types = {action.dest: action.type for action in parser._actions}
    for key, value in cfg.items():
        try:
            if types[key] is None and not isinstance(value, str):
                raise TypeError(f"expected a string, got {value!r}")
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            cfg[key] = text if types[key] is None else types[key](text)
        except (TypeError, ValueError) as exc:
            print(f"error: config {path}: {key}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)
    return cfg


def main(argv=None):
    ap, commands = _build_parser()
    args = ap.parse_args(argv)
    if args.config:
        # Config values become the command's defaults, so explicit flags win.
        parser = commands[args.command]
        parser.set_defaults(**_read_config(args.config, parser, args))
        args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
