import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import jumpcontrol as jc
from jumpcontrol import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
M2 = os.path.join(FIXTURES, "m2.json")


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestSolve:
    def test_m2_artifacts(self, tmp_path):
        out = str(tmp_path / "out")
        code = run_cli(["solve", "--model", M2, "--out-dir", out])
        assert code == 0
        for name in ("values.csv", "policy.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert abs(summary["v0"]["0"] - 0.8647) <= 1e-3
        assert summary["v0"]["1"] == pytest.approx(1.0)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["solve", "--model", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE

    def test_negative_rate_exit_3(self, tmp_path):
        spec = json.load(open(M2))
        spec["rates"][0][0][1] = -1.0
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(spec))
        code = run_cli(["solve", "--model", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_steps": 50, "seed": 7}))
        for i, flag in enumerate((["--n-steps", "80"], ["--n-steps=80"], ["--n-st", "80"])):
            out = str(tmp_path / f"out{i}")
            code = run_cli(["solve", "--model", M2, "--out-dir", out, "--config", str(cfg), *flag])
            assert code == 0
            summary = json.load(open(os.path.join(out, "summary.json")))
            assert summary["n_steps"] == 80  # explicit flag beats the config value


    def test_config_value_applies_without_its_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_steps": 50}))
        out = str(tmp_path / "out")
        assert run_cli(["solve", "--model", M2, "--out-dir", out, "--config", str(cfg)]) == 0
        assert json.load(open(os.path.join(out, "summary.json")))["n_steps"] == 50

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nsteps": 50, "seed": 7}))
        for command in (["solve"], ["simulate", "--action", "2"]):
            code = run_cli([*command, "--model", M2, "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
            assert code == cli.EXIT_PARSE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "nsteps" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["solve"], {"n_steps": 2.5}),
            (["solve"], {"out_dir": 5}),
            (["simulate", "--action", "2"], {"seed": 1.5}),
            (["simulate", "--action", "2"], {"count": 2.5}),
            (["diagnose"], {"paths": 1.5}),
        ],
    )
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli([*command, "--model", M2, "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and next(iter(doc)) in err
        assert not (tmp_path / "o").exists()

    def test_config_takes_every_simulate_flag(self, tmp_path):
        ids = {}
        for start in (0, 1):
            out = tmp_path / f"out{start}"
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "count": 7, "start_state": start, "action": "2", "seed": 3, "n_steps": 50, "tol": 1e-9,
                "out_dir": str(out),
            }))
            assert run_cli(["simulate", "--model", M2, "--config", str(cfg)]) == 0
            rows = (out / "paths.csv").read_text().splitlines()
            assert rows[0] == "path_id,jump_index,time,X_mark,I_mark"
            ids[start] = {int(r.split(",")[0]) for r in rows[1:]}
        # from state 0 most of the seven paths jump at rate 2; state 1 is absorbing
        assert ids[0] and ids[0] <= set(range(7))
        assert ids[1] == set()

    @pytest.mark.parametrize("text", ["{not json", "[50]"])
    def test_bad_config_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run_cli(["solve", "--model", M2, "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n-steps", "0"],
        ["solve", "--n-steps", "-3"],
        ["solve", "--n-steps", "1"],
        ["simulate", "--n-steps", "0"],
        ["solve", "--tol", "-1"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
        ["solve", "--tol", "1e300"],
        ["solve", "--tol", "1"],
        ["simulate", "--tol", "inf", "--action", "2"],
        ["diagnose", "--tol", "1e300"],
        ["simulate", "--count", "-5", "--action", "2"],
        ["solve", "--seed", "-1"],
        ["simulate", "--seed", "-1", "--action", "2"],
        ["diagnose", "--seed", "-1"],
    ],
)
def test_bad_numeric_argument_exit_3(tmp_path, capsys, argv):
    code = run_cli([*argv, "--model", M2, "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.count("\n") == 1
    assert not os.path.exists(tmp_path / "o")


class TestSolveOutputBytes:
    def test_csv_files_match_csv_writer(self, tmp_path):
        # labels that csv must quote; rates that make both actions optimal somewhere
        doc = {
            "states": ["a,b", 'say "hi"', "c"],
            "actions": ["x,y", 'z "q"'],
            "rates": [[[0.0, 1.0, 0.5], [0.0, 0.2, 2.0]], [[1.0, 0.0, 0.0], [0.3, 0.0, 0.3]],
                      [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]],
            "lambda0": [1.0, 1.0],
            "f": [[0.1, 0.3], [0.2, 0.0], [0.0, 0.1]],
            "g": [0.0, 1.0, 0.5],
            "T": 1.0,
        }
        model_path = tmp_path / "quoted.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli(["solve", "--model", str(model_path), "--out-dir", str(out), "--n-steps", "2000"]) == 0

        p = jc.problem_from_dict(doc)
        sol = jc.solve_hjb_picard(p, n_steps=2000)
        assert set(sol.argmax.ravel().tolist()) == {0, 1}
        values, policy = io.StringIO(newline=""), io.StringIO(newline="")
        w = csv.writer(values)
        w.writerow(["k", "t", "state", "value"])
        w2 = csv.writer(policy)
        w2.writerow(["k", "t", "state", "action_label"])
        for k, t in enumerate(sol.values.times):
            for x, sx in enumerate(p.states):
                w.writerow([k, repr(float(t)), sx, repr(float(sol.values.values[k, x]))])
                w2.writerow([k, repr(float(t)), sx, p.actions[sol.argmax[k, x]]])
        assert (out / "values.csv").read_bytes() == values.getvalue().encode()
        assert (out / "policy.csv").read_bytes() == policy.getvalue().encode()


class TestAtomicWrite:
    def test_failed_emitter_keeps_old_file(self, tmp_path):
        target = tmp_path / "values.csv"
        target.write_text("old contents\n")

        def emit(fh):
            fh.write("partial row\r\n" * 10_000)
            fh.flush()
            raise RuntimeError("emitter failed midway")

        with pytest.raises(RuntimeError):
            cli._atomic_write(str(target), emit)
        assert target.read_text() == "old contents\n"
        assert [f.name for f in tmp_path.iterdir()] == ["values.csv"]


class TestDiagnose:
    def test_m2_small_run_passes(self, tmp_path):
        out = str(tmp_path / "out")
        code = run_cli(
            ["diagnose", "--model", M2, "--out-dir", out,
             "--n-steps", "500", "--paths", "2000", "--levels", "1,4,16,64"]
        )
        assert code == 0
        for name in ("penalized.csv", "dual.csv", "bsde.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["passed"]
        assert set(summary["checks"]) == {
            "penalized_monotone", "penalized_capped", "dual_below_primal",
            "greedy_reaches_vn", "constraint_decay",
        }

    def test_tiny_path_count_still_passes(self, tmp_path):
        # tolerances scale with the standard error, so 100 paths stays green
        out = str(tmp_path / "out")
        code = run_cli(
            ["diagnose", "--model", M2, "--out-dir", out,
             "--n-steps", "300", "--paths", "100", "--levels", "1,8,64"]
        )
        assert code == 0


    def test_single_path_fails_with_null_standard_errors(self, tmp_path):
        # every standard error is NaN at one path: no check may pass on it
        out = str(tmp_path / "out")
        code = run_cli(
            ["diagnose", "--model", M2, "--out-dir", out,
             "--n-steps", "100", "--paths", "1", "--levels", "1,8"]
        )
        assert code == cli.EXIT_SUITE

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        text = open(os.path.join(out, "summary.json")).read()
        summary = json.loads(text, parse_constant=reject)
        assert not summary["checks"]["dual_below_primal"]
        assert not summary["checks"]["greedy_reaches_vn"]
        assert not summary["checks"]["constraint_decay"]
        assert all(se is None for _, se in summary["constraint_violation"].values())

    def test_config_levels_apply_without_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": [1, 8], "paths": 50}))
        out = str(tmp_path / "out")
        code = run_cli(["diagnose", "--model", M2, "--out-dir", out, "--n-steps", "100", "--config", str(cfg)])
        assert code in (0, cli.EXIT_SUITE)  # 50 paths: a statistical check may fail
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert set(summary["sigma"]) == {"1", "8"}
        assert summary["paths"] == 50

    @pytest.mark.parametrize("levels", ["--levels=8,4", "--levels=4,4", "--levels=-4,8", "--levels=0,8"])
    def test_bad_levels_exit_3(self, tmp_path, capsys, levels):
        code = run_cli(["diagnose", "--model", M2, "--out-dir", str(tmp_path / "o"), levels])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_single_level_exit_3(self, tmp_path, capsys, source):
        # the monotonicity and decay checks compare successive levels, so one
        # level would pass them without comparing anything
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": [64]}))
        levels = ["--levels", "64"] if source == "flag" else ["--config", str(cfg)]
        code = run_cli(["diagnose", "--model", M2, "--out-dir", str(tmp_path / "o"), *levels])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "two penalization levels" in err
        assert not os.path.exists(tmp_path / "o")

    def test_huge_level_exit_3_before_marching(self, tmp_path, capsys):
        # level 1e8 at N = 50 needs about 4e6 sub-steps per grid step, which
        # would march for hours; the march is refused before it starts
        start = time.perf_counter()
        code = run_cli(["diagnose", "--model", M2, "--out-dir", str(tmp_path / "o"),
                        "--n-steps", "50", "--levels", "1,100000000"])
        assert code == cli.EXIT_VALIDATION
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "level 100000000" in err
        assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "labels, argv",
    [({"states": ["0", "0"]}, ["solve"]), ({"actions": ["a", "a"]}, ["simulate", "--action", "a"])],
)
def test_repeated_label_exit_3(tmp_path, capsys, labels, argv):
    model = tmp_path / "repeated.json"
    model.write_text(json.dumps(dict(json.load(open(M2)), **labels)))
    code = run_cli([*argv, "--model", str(model), "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "repeated" in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", [["solve"], ["diagnose", "--paths", "20", "--levels", "1,2"], ["simulate"]])
def test_out_dir_that_is_a_file_exit_3(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    code = run_cli([*command, "--model", M2, "--out-dir", str(out), "--n-steps", "50"])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "output directory" in err
    assert out.read_text() == ""


class TestNonconvergence:
    @pytest.mark.parametrize("command", [["solve"], ["diagnose"], ["simulate"]])
    def test_stiff_exit_4(self, tmp_path, capsys, command):
        # L dt = 1000 at the default N = 2000: the cell weights overflow
        spec = dict(json.load(open(M2)), actions=["a"], lambda0=[1.0], rates=[[[0.0, 2e6]], [[0.0, 0.0]]])
        model = tmp_path / "stiff.json"
        model.write_text(json.dumps(spec))
        code = run_cli([*command, "--model", str(model), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.count("\n") == 1
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", [["solve"], ["diagnose"], ["simulate"]])
    def test_exit_4(self, tmp_path, capsys, command):
        # L T = 800: exp(-L t) underflows, so Picard has no finite solution
        L = 800.0
        spec = dict(json.load(open(M2)), rates=[[[0.0, L], [0.0, L / 2]], [[L / 3, 0.0], [L, 0.0]]])
        model = tmp_path / "l800.json"
        model.write_text(json.dumps(spec))
        with np.errstate(all="ignore"):
            code = run_cli([*command, "--model", str(model), "--out-dir", str(tmp_path / "o"), "--n-steps", "200"])
        assert code == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.count("\n") == 1


class TestSimulate:
    def test_count_zero_header_only(self, tmp_path):
        out = str(tmp_path / "out")
        code = run_cli(
            ["simulate", "--model", M2, "--out-dir", out, "--count", "0", "--action", "2"]
        )
        assert code == 0
        lines = open(os.path.join(out, "paths.csv")).read().strip().splitlines()
        assert lines == ["path_id,jump_index,time,X_mark,I_mark"]

    def test_same_seed_identical_files(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run_cli(
                ["simulate", "--model", M2, "--out-dir", out,
                 "--count", "200", "--seed", "5", "--action", "2"]
            ) == 0
            outs.append(open(os.path.join(out, "paths.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_absorption_frequency(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(
            ["simulate", "--model", M2, "--out-dir", out,
             "--count", "20000", "--seed", "1", "--action", "2"]
        ) == 0
        lines = open(os.path.join(out, "paths.csv")).read().strip().splitlines()[1:]
        absorbed = {row.split(",")[0] for row in lines if row.split(",")[3] == "1"}
        freq = len(absorbed) / 20000
        target = 1.0 - math.exp(-2.0)
        se = math.sqrt(target * (1.0 - target) / 20000)
        assert abs(freq - target) <= 3.0 * se

    @pytest.mark.parametrize("state", ["7", "-1"])
    def test_bad_start_state_exit_3(self, tmp_path, capsys, state):
        code = run_cli(
            ["simulate", "--model", M2, "--out-dir", str(tmp_path / "o"), "--action", "2",
             f"--start-state={state}"]
        )
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.count("\n") == 1

    def test_unknown_action_label(self, tmp_path):
        code = run_cli(
            ["simulate", "--model", M2, "--out-dir", str(tmp_path / "o"), "--action", "zz"]
        )
        assert code == cli.EXIT_VALIDATION


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("jumpcontrol")
        if exe is None:
            pytest.skip("console script not installed")
        out = str(tmp_path / "out")
        proc = subprocess.run(
            [exe, "solve", "--model", M2, "--out-dir", out, "--n-steps", "200"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert os.path.exists(os.path.join(out, "summary.json"))


def test_runtime_imports_only_numpy():
    # numpy is the one runtime dependency, and the package must not reach
    # into the test tools or the benchmark
    code = (
        "import sys, jumpcontrol, jumpcontrol.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest', 'perfbench'}))"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_numpy_random_unloaded():
    # child_rng imports numpy.random on its first call, so a process that
    # draws no path does not pay for it in start-up time or memory
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; "
        "import jumpcontrol, jumpcontrol.cli; print(before, 'numpy.random' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before
