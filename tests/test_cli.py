import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from presic_lab.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(*argv):
    """Run in-process, capturing stdout; returns (exit_code, text)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def strip_timestamp(text):
    payload = json.loads(text)
    payload.pop("timestamp", None)
    return json.dumps(payload, sort_keys=True)


class TestVerifyCommand:
    def test_passing_condition_exits_zero(self):
        code, out = run_cli("verify", str(PROBLEMS / "averaging_k1.json"),
                            "--seed", "3", "--samples", "500")
        assert code == 0
        assert json.loads(out)["verdict"] == "passed_on_samples"

    def test_falsified_condition_exits_one(self, tmp_path):
        cfg = json.loads((PROBLEMS / "averaging_k1.json").read_text())
        cfg["condition"]["kappa"] = 0.2
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli("verify", str(path), "--seed", "3", "--samples", "500")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "falsified"
        assert payload["witness"] is not None

    def test_missing_condition_is_usage_error(self):
        code, _ = run_cli("verify", str(PROBLEMS / "divergent_double.json"))
        assert code == 2

    def test_malformed_file_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli("verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, float("inf"))])
    def test_non_finite_box_is_usage_error(self, tmp_path, lo, hi):
        # json writes and reads inf as Infinity; a width of 2e308 overflows
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "space": {"kind": "euclidean", "dim": 1, "box": {"lo": [lo], "hi": [hi]}},
            "operator": {"kind": "constant", "k": 1, "value": [0.0]},
            "condition": {"kind": "ciric_max", "kappa": 0.5}}))
        code, out = run_cli("verify", str(path))
        assert code == 2 and out == ""

    def test_diagonal_condition_dispatch(self, tmp_path):
        cfg = json.loads((PROBLEMS / "averaging_k1.json").read_text())
        cfg["condition"] = {"kind": "banach", "eta": 0.25}
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli("verify", str(path), "--seed", "1")
        assert code == 0
        assert json.loads(out)["condition"]["kind"] == "banach"


BOX = {"lo": [0.0], "hi": [1.0]}


def _problem(tmp_path, **blocks):
    cfg = {"space": {"kind": "euclidean", "dim": 1, "box": BOX},
           "operator": {"kind": "averaging", "k": 1},
           "condition": {"kind": "ciric_max", "kappa": 0.5}}
    cfg.update(blocks)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestMalformedProblemFile:
    """A malformed block exits 2 with nothing on stdout and names what is wrong."""

    @pytest.mark.parametrize("blocks, named", [
        ({"space": {"kind": "euclidean"}}, "'box'"),
        ({"space": {"kind": "power", "box": BOX}}, "'p'"),
        ({"space": {"kind": "custom_dsl", "b": 1.0, "box": BOX}}, "'expr'"),
        ({"space": {"kind": "custom_dsl", "expr": "abs(u1 - v1)", "box": BOX}}, "'b'"),
        ({"operator": {"kind": "affine"}}, "'weights'"),
        ({"operator": {"kind": "constant"}}, "'value'"),
        ({"operator": {"kind": "dsl", "k": 1}}, "'exprs'"),
        ({"condition": {"kind": "presic_sum"}}, "'r'"),
        ({"condition": {"kind": "ciric_max"}}, "'kappa'"),
        ({"condition": {"kind": "lambda_max"}}, "'lambda'"),
        ({"condition": {"kind": "weak_phi"}}, "'phi'"),
        ({"condition": {"kind": "kannan"}}, "'a'"),
        ({"condition": {"kind": "banach"}}, "'eta'"),
        ({"condition": {"kind": "diagonal_phi"}}, "'phi'"),
        ({"condition": {"kind": "weak_phi", "phi": {"c": 0.5}}}, "'kind'"),
        ({"condition": {"kind": "weak_phi", "phi": {"kind": "linear"}}}, "'c'"),
        ({"condition": {"kind": "diagonal_phi", "phi": {"kind": "dsl"}}}, "'expr'"),
        ({"condition": {"kind": "ciric_max", "kappa": "abc"}}, "'abc'"),
        ({"space": {"kind": "power", "p": "two", "box": BOX}}, "'two'"),
        ({"condition": [{"kind": "ciric_max", "kappa": 0.5}]}, "condition block"),
        ({"operator": "averaging"}, "operator block"),
        ({"operator": {"kind": "affine", "k": 3, "weights": [0.1, 0.2]}}, "'k'"),
        ({"operator": {"kind": "averaging", "k": 2.7}}, "'k'"),
        ({"operator": {"kind": "constant", "value": [0.1, 0.2]}}, "'value'"),
        ({"solve": {"start": "random", "seed": 1.5}}, "field 'seed' must be an integer"),
        ({"solve": {"start": "random", "seed": "3"}}, "field 'seed' must be an integer"),
    ], ids=[
        "space-box", "power-p", "custom-expr", "custom-b", "affine-weights", "constant-value",
        "dsl-exprs", "presic_sum-r", "ciric_max-kappa", "lambda_max-lambda", "weak_phi-phi",
        "kannan-a", "banach-eta", "diagonal_phi-phi", "phi-kind", "linear-c", "dsl-expr",
        "kappa-not-a-number", "p-not-a-number", "condition-list", "operator-string",
        "k-not-the-weights-count", "k-not-an-integer", "value-not-the-space-dimension",
        "seed-not-an-integer", "seed-a-string"])
    def test_exits_two_naming_the_fault(self, tmp_path, capsys, blocks, named):
        code, out = run_cli("verify", _problem(tmp_path, **blocks))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


def _assert_one_error_line(capsys, named):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err


class TestEveryInputFaultExitsTwo:
    """A path that cannot be read or written, a file that is not UTF-8 and a
    constant that is not finite exit 2, with nothing on stdout and one
    `error:` line."""

    def test_problem_path_is_a_directory(self, tmp_path, capsys):
        assert run_cli("verify", str(tmp_path)) == (2, "")
        _assert_one_error_line(capsys, "Is a directory")

    def test_problem_file_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + Path(_problem(tmp_path)).read_bytes())
        assert run_cli("verify", str(path)) == (2, "")
        _assert_one_error_line(capsys, "malformed problem file: 'utf-8' codec can't decode")

    def test_out_path_is_a_directory(self, tmp_path, capsys):
        assert run_cli("estimate-b", _problem(tmp_path), "--out", str(tmp_path)) == (2, "")
        _assert_one_error_line(capsys, "Is a directory")

    @pytest.mark.parametrize("command, blocks, named", [
        ("estimate-b", {"space": {"kind": "euclidean", "box": BOX, "b": math.inf}},
         "relaxation constant b must be a finite number >= 1"),
        ("verify", {"space": {"kind": "euclidean", "box": BOX, "b": math.nan}},
         "relaxation constant b must be a finite number >= 1"),
        ("verify", {"space": {"kind": "custom_dsl", "expr": "abs(u1 - v1)", "b": math.nan,
                              "box": BOX}}, "relaxation constant b must be a finite number >= 1"),
        ("verify", {"space": {"kind": "power", "p": math.inf, "box": BOX}},
         "power construction requires a finite p > 1"),
        ("verify", {"space": {"kind": "power", "p": math.nan, "box": BOX}},
         "power construction requires a finite p > 1"),
        ("verify", {"condition": {"kind": "kannan", "a": math.inf}}, "kannan needs"),
        ("verify", {"condition": {"kind": "kannan", "a": math.nan}}, "kannan needs"),
        ("verify", {"condition": {"kind": "weak_phi", "phi": {"kind": "dsl", "expr": "1/t"}}},
         "gauge must satisfy phi(0) = 0, but phi(0) is undefined: division by zero"),
    ], ids=["b-infinity", "b-nan", "custom-b-nan", "power-p-infinity", "power-p-nan",
            "kannan-a-infinity", "kannan-a-nan", "gauge-undefined-at-zero"])
    def test_constant_that_is_not_finite(self, tmp_path, capsys, command, blocks, named):
        assert run_cli(command, _problem(tmp_path, **blocks)) == (2, "")
        _assert_one_error_line(capsys, named)


@pytest.mark.parametrize("command", ["verify", "estimate-b"])
@pytest.mark.parametrize("points", ["-1", "0"])
def test_grid_points_below_one_is_usage_error(capsys, command, points):
    code, out = run_cli(command, str(PROBLEMS / "averaging_k1.json"), "--grid",
                        "--grid-points", points)
    assert code == 2
    assert out == ""
    assert "grid_points must be >= 1" in capsys.readouterr().err
    # without --grid too: --grid-points implies it, and was ignored before
    assert run_cli(command, str(PROBLEMS / "averaging_k1.json"), "--grid-points", points) == (2, "")


@pytest.mark.parametrize("command", ["verify", "estimate-b"])
def test_grid_points_implies_grid(command):
    path = str(PROBLEMS / "averaging_k1.json")
    _, implied = run_cli(command, path, "--grid-points", "7", "--seed", "3")
    _, explicit = run_cli(command, path, "--grid", "--grid-points", "7", "--seed", "3")
    _, default = run_cli(command, path, "--grid", "--grid-points", "25", "--seed", "3")
    _, bare = run_cli(command, path, "--grid", "--seed", "3")
    _, random = run_cli(command, path, "--seed", "3")
    assert strip_timestamp(implied) == strip_timestamp(explicit)
    assert strip_timestamp(bare) == strip_timestamp(default)
    assert strip_timestamp(implied) != strip_timestamp(random)


@pytest.mark.parametrize("command, blocks, options", [
    ("verify", {"condition": {"kind": "banach", "eta": 0.5}}, []),
    ("estimate-b", {}, ["--grid", "--grid-points", "200"]),  # 200^3 triples exceed the budget
], ids=["verify-banach", "estimate-b-grid"])
def test_zero_samples_is_usage_error(tmp_path, capsys, command, blocks, options):
    code, out = run_cli(command, _problem(tmp_path, **blocks), "--samples", "0", *options)
    assert code == 2
    assert out == ""
    assert "samples must be >= 1" in capsys.readouterr().err


class TestEachSubcommandTakesOnlyItsOptions:
    """An option a subcommand would ignore is argparse's usage error, exit 2."""

    def test_verify_rejects_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", str(PROBLEMS / "averaging_k1.json"), "--format", "csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_demo_rejects_out_and_writes_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "demo.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli("demo", "paper-phi-anomaly", "--out", str(out_path))
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out_path.exists()


class TestSolveCommand:
    def test_averaging_k3_random_starts(self):
        code, out = run_cli("solve", str(PROBLEMS / "averaging_k3.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["stop_reason"] == "converged"
        assert abs(payload["limit"][0]) < 1e-8

    def test_divergent_problem(self):
        code, out = run_cli("solve", str(PROBLEMS / "divergent_double.json"))
        assert code == 1
        assert json.loads(out)["stop_reason"] == "diverged"

    def test_start_at_fixed_point(self, tmp_path):
        cfg = json.loads((PROBLEMS / "averaging_k1.json").read_text())
        cfg["solve"]["start"] = [[0.0]]
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli("solve", str(path))
        assert code == 0
        assert json.loads(out)["limit"] == [0.0]

    def test_csv_format(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _ = run_cli("solve", str(PROBLEMS / "averaging_k1.json"),
                          "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,x,alpha_n")
        assert len(lines) > 3

    def test_picard_flag(self):
        code, out = run_cli("solve", str(PROBLEMS / "averaging_k3.json"), "--picard")
        assert code == 0
        assert abs(json.loads(out)["limit"][0]) < 1e-8


    def test_stop_block_may_carry_cauchy_window(self, tmp_path):
        # the key is no longer read; files that still carry it load unchanged
        cfg = json.loads((PROBLEMS / "averaging_k1.json").read_text())
        cfg["solve"]["stop"]["cauchy_window"] = 16
        path = tmp_path / "window.json"
        path.write_text(json.dumps(cfg))
        _, with_key = run_cli("solve", str(path))
        _, without = run_cli("solve", str(PROBLEMS / "averaging_k1.json"))
        assert strip_timestamp(with_key) == strip_timestamp(without)


    @pytest.mark.parametrize("stop, named", [
        ({"residual_tol": float("nan")}, "residual_tol"),
        ({"step_tol": float("nan")}, "step_tol"),
        ({"step_tol": True}, "step_tol"),
        ({"max_iterations": float("inf")}, "max_iterations"),
        ({"max_iterations": float("nan")}, "max_iterations"),
        ({"max_iterations": 100.5}, "max_iterations")])
    def test_bad_stop_rule_is_usage_error(self, tmp_path, capsys, stop, named):
        # json writes and reads NaN and Infinity as such
        path = _problem(tmp_path, solve={"start": [[1.0]], "stop": stop})
        code, out = run_cli("solve", path)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_integral_float_cap_is_accepted(self, tmp_path):
        path = _problem(tmp_path, solve={"start": [[1.0]], "stop": {"max_iterations": 1e3}})
        code, out = run_cli("solve", path)
        assert code == 0 and json.loads(out)["stop_reason"] == "converged"


class TestBoundsCommand:
    def test_eta_bounds(self):
        code, out = run_cli("bounds", str(PROBLEMS / "averaging_k1.json"),
                            "--eta", "0.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_steps_within"]
        assert payload["theta"] == 0.25

    def test_eta_out_of_range(self):
        code, _ = run_cli("bounds", str(PROBLEMS / "averaging_k1.json"),
                          "--eta", "1.5")
        assert code == 2

    def test_kannan_bounds(self):
        code, out = run_cli("bounds", str(PROBLEMS / "quarter_kannan.json"),
                            "--a", "0.6666666666666666", "--picard")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_steps_within"]

    @pytest.mark.parametrize("a, named", [("2.0", "a*k*b^(k+1) < 1"), ("-0.5", "a >= 0")])
    def test_kannan_hypothesis_violated(self, capsys, a, named):
        # a = -0.5 printed "tail bounds" of alternating sign and exited 0
        code, out = run_cli("bounds", str(PROBLEMS / "quarter_kannan.json"), "--a", a, "--picard")
        assert code == 2 and out == ""
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("name, option, named", [
        ("averaging_k1.json", ("--eta", "1.5"), "--eta 1.5: ciric_max needs 0 < kappa < 1"),
        ("quarter_kannan.json", ("--a", "-0.5", "--picard"), "--a -0.5: kannan needs a >= 0")])
    def test_out_of_range_constant_names_its_option(self, capsys, name, option, named):
        code, out = run_cli("bounds", str(PROBLEMS / name), *option)
        assert code == 2 and out == ""
        assert named in capsys.readouterr().err

    def test_kannan_implies_picard(self, tmp_path):
        # the Kannan tail bound holds along the Picard scheme, so --a runs it;
        # on this k=2 problem the k-step trace breaks the bound
        path = tmp_path / "kannan_k2.json"
        path.write_text(json.dumps({
            "space": {"kind": "euclidean", "dim": 1, "box": {"lo": [-2.0], "hi": [2.0]}},
            "operator": {"kind": "affine", "k": 2, "weights": [0.05, 0.05], "offset": [0.0]},
            "condition": {"kind": "kannan", "a": 0.2},
            "solve": {"start": [[1.0], [1.0]], "seed": 0}}))
        code, out = run_cli("bounds", str(path), "--a", "0.2")
        assert code == 0
        assert json.loads(out)["all_steps_within"]
        code, with_flag = run_cli("bounds", str(path), "--a", "0.2", "--picard")
        assert code == 0
        assert strip_timestamp(out) == strip_timestamp(with_flag)

    @pytest.mark.parametrize("option", [("--eta", "0.5"), ("--a", "0.1")])
    def test_broken_bound_exits_one_with_its_payload(self, option):
        # the payload said all_steps_within: false and the exit code was 0
        code, out = run_cli("bounds", str(PROBLEMS / "divergent_double.json"), *option)
        assert code == 1
        assert json.loads(out)["all_steps_within"] is False

    def test_requires_a_constant(self):
        code, _ = run_cli("bounds", str(PROBLEMS / "averaging_k1.json"))
        assert code == 2

    def test_eta_and_a_together_is_usage_error(self, capsys):
        # --a was dropped silently, and the --eta bounds printed
        code, out = run_cli("bounds", str(PROBLEMS / "averaging_k1.json"),
                            "--eta", "0.5", "--a", "0.1")
        assert code == 2 and out == ""
        assert "bounds requires one of --eta and --a" in capsys.readouterr().err


class TestEstimateBCommand:
    def test_squared_euclidean(self):
        code, out = run_cli("estimate-b", str(PROBLEMS / "averaging_k1.json"),
                            "--grid", "--grid-points", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["declared_b"] == 2.0
        assert payload["b_hat"] == pytest.approx(2.0, abs=1e-6)


class TestDemoCommand:
    def test_unknown_name(self):
        code, _ = run_cli("demo", "no-such-demo")
        assert code == 2

    def test_phi_anomaly(self, capsys):
        code, out = run_cli("demo", "paper-phi-anomaly", "--samples", "2000")
        assert code == 0
        assert "falsified" in out

    def test_iteration_example_output_is_pinned(self, monkeypatch):
        # the 80 runs of this demo go through iterate_many; its output is
        # the one their 80 single iterate calls printed
        monkeypatch.delenv("PRESIC_LAB_SEED", raising=False)
        pinned = {None: ("9.981e-11", "1.716e-10", "1.959e-10", "1.927e-10"),
                  "7": ("9.560e-11", "1.655e-10", "1.991e-10", "1.947e-10")}
        for seed, worst in pinned.items():
            code, out = run_cli("demo", "paper-example-2-1-2", *(("--seed", seed) if seed else ()))
            assert code == 0
            assert out == "".join(["demo: paper-example-2-1-2\n"]
                                  + [f"  k={k}  pass        max |limit| = {w}\n"
                                     for k, w in zip((1, 2, 3, 5), worst)]
                                  + ["overall: pass\n"])

    def test_bmetric_examples(self):
        code, out = run_cli("demo", "paper-bmetric-examples")
        assert code == 0
        assert "overall: pass" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("verify", "averaging_k1.json", "--seed", "11", "--samples", "400"),
        ("solve", "averaging_k3.json", "--seed", "11"),
    ])
    def test_byte_identical_modulo_timestamp(self, argv):
        argv = [argv[0], str(PROBLEMS / argv[1]), *argv[2:]]
        _, out1 = run_cli(*argv)
        _, out2 = run_cli(*argv)
        assert strip_timestamp(out1) == strip_timestamp(out2)


class TestSeedFallback:
    @pytest.mark.parametrize("file_seed, option, expected", [
        (None, (), 17), (3, (), 3), (None, ("--seed", "5"), 5), (3, ("--seed", "5"), 5)])
    def test_seed_order(self, tmp_path, monkeypatch, file_seed, option, expected):
        # --seed, then the solve block's seed, then PRESIC_LAB_SEED; a seedless
        # block read as seed 0 before, whatever the variable said
        monkeypatch.setenv("PRESIC_LAB_SEED", "17")
        solve = {"start": "random", **({} if file_seed is None else {"seed": file_seed})}
        path = _problem(tmp_path, solve=solve)
        _, out = run_cli("solve", path, *option)
        assert json.loads(out)["seed"] == expected
        _, got = run_cli("bounds", path, "--eta", "0.5", *option)
        _, pinned = run_cli("bounds", path, "--eta", "0.5", "--seed", str(expected))
        assert strip_timestamp(got) == strip_timestamp(pinned)

    def test_env_var_seed(self, tmp_path):
        env = dict(os.environ, PRESIC_LAB_SEED="17", PYTHONPATH="src")
        cmd = [sys.executable, "-m", "presic_lab.cli", "verify",
               str(PROBLEMS / "averaging_k1.json"), "--samples", "300"]
        r1 = subprocess.run(cmd, capture_output=True, text=True, env=env,
                            cwd=Path(__file__).resolve().parent.parent)
        assert r1.returncode == 0
        assert json.loads(r1.stdout)["seed"] == 17


class TestLibraryErrorExitCodes:
    """A library error exits 1 and a bad PRESIC_LAB_SEED exits 2, with nothing
    on stdout and one `error: ...` line on stderr."""

    @pytest.mark.parametrize("blocks, argv, message", [
        ({"space": {"kind": "euclidean", "box": {"lo": [-2.0], "hi": [2.0]}},
          "operator": {"kind": "affine", "weights": [0.5], "offset": [1.1]},
          "solve": {"start": [[-2.0]]}},
         ("solve", "--strict-domain"), "iterate left the domain in strict mode"),
        ({"condition": {"kind": "banach", "eta": 0.5}},
         ("verify", "--grid", "--grid-points", "1"), "no sampled pair has x != y"),
    ], ids=["strict-domain-solve", "grid-of-one-point"])
    def test_library_error_exits_one(self, tmp_path, capsys, blocks, argv, message):
        command, *options = argv
        assert run_cli(command, _problem(tmp_path, **blocks), *options) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_integer_seed_variable_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("PRESIC_LAB_SEED", "abc")
        assert run_cli("verify", str(PROBLEMS / "averaging_k1.json")) == (2, "")
        assert capsys.readouterr().err == "error: PRESIC_LAB_SEED must be an integer\n"


class TestNegativeSeed:
    """A seed below 0 exits 2 with one `error:` line naming where it came
    from, for every command that reads a seed; numpy's generators take none."""

    COMMANDS = [("verify", "problem"), ("solve", "problem"), ("estimate-b", "problem"),
                ("bounds", "problem", "--eta", "0.5"), ("demo", "paper-example-2-1-2")]

    @staticmethod
    def _argv(tmp_path, command, *rest):
        path = _problem(tmp_path, solve={"start": "random"})
        return [command, *(path if a == "problem" else a for a in rest)]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_option(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.delenv("PRESIC_LAB_SEED", raising=False)
        assert run_cli(*self._argv(tmp_path, *argv), "--seed", "-1") == (2, "")
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_environment_variable(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("PRESIC_LAB_SEED", "-1")
        assert run_cli(*self._argv(tmp_path, *argv)) == (2, "")
        assert capsys.readouterr().err == ("error: PRESIC_LAB_SEED must be an integer >= 0, "
                                           "got -1\n")

    @pytest.mark.parametrize("argv", [("solve",), ("bounds", "--eta", "0.5")],
                             ids=["solve", "bounds"])
    def test_problem_file(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.delenv("PRESIC_LAB_SEED", raising=False)
        path = _problem(tmp_path, solve={"start": "random", "seed": -1})
        assert run_cli(argv[0], path, *argv[1:]) == (2, "")
        assert capsys.readouterr().err == "error: solve.seed must be an integer >= 0, got -1\n"

    def test_an_integral_float_file_seed_is_that_integer(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PRESIC_LAB_SEED", raising=False)
        _, out = run_cli("solve", _problem(tmp_path, solve={"start": "random", "seed": 4.0}))
        _, pinned = run_cli("solve", _problem(tmp_path, solve={"start": "random"}), "--seed", "4")
        assert json.loads(out)["seed"] == 4
        assert strip_timestamp(out) == strip_timestamp(pinned)
