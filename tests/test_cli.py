import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levicivita
from levicivita import default_horizon, set_default_horizon
from levicivita.cli import main


@pytest.fixture(autouse=True)
def _restore_horizon():
    yield
    set_default_horizon(32)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "x^2", "--var", "x", "--at", "3", "--order", "1")
    assert code == 0
    assert out.strip() == "6"


def test_eval_reciprocal(capsys):
    code, out, _ = run(capsys, "eval", "1/x", "--at", "x=d")
    assert code == 0
    assert out.strip() == "d^-1"


def test_eval_multiple_bindings(capsys):
    code, out, _ = run(capsys, "eval", "x*y", "--at", "x=d", "--at", "y=2")
    assert code == 0
    assert out.strip() == "2d"


def test_limit(capsys):
    code, out, _ = run(capsys, "limit", "sin(x)", "x", "--var", "x", "--at", "0")
    assert code == 0
    assert out.strip() == "1"


def test_taylor(capsys):
    code, out, _ = run(
        capsys, "taylor", "sin(x)", "--var", "x", "--at", "0", "--order", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0: 0"
    assert lines[1] == "1: 1"
    assert lines[3].startswith("3: -0.16666666666666666")


def test_taylor_json_is_byte_stable(capsys):
    args = (
        "--format", "json", "taylor", "exp(x)", "--var", "x", "--at", "0",
        "--order", "4",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["coeffs"][0] == "1"


def test_wlud_check_fail_exit_code(capsys):
    code, out, _ = run(
        capsys, "wlud-check", "abs(x)", "--var", "x", "--at", "0",
        "--k", "1", "--eps", "1", "--delta", "d",
    )
    assert code == 1
    assert "result: fail" in out


def test_wlud_check_pass_exit_code(capsys):
    code, out, _ = run(
        capsys, "wlud-check", "x^2", "--var", "x", "--at", "0",
        "--k", "2", "--eps", "1", "--delta", "d",
    )
    assert code == 0
    assert "result: pass" in out


def test_wlud_check_with_no_decided_pair_exit_2(capsys):
    # every pair's remainder and bound agree on all visible terms
    code, out, _ = run(
        capsys, "--format", "json", "--horizon", "30", "wlud-check", "abs(x)",
        "--var", "x", "--at", "1+d^29", "--k", "1", "--eps", "1", "--delta", "d^29",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["result"] == "inconclusive"
    assert payload["samples"] == 0


def test_wlud_check_nd_with_no_pairs_exit_2(capsys):
    # every offset lies beyond the horizon, so all points coincide
    code, out, _ = run(
        capsys, "--format", "json", "--horizon", "30", "wlud-check", "abs(x)+y",
        "--var", "x", "--var", "y", "--at", "1+d^29", "--at", "2+d^29",
        "--k", "1", "--eps", "1", "--delta", "d^29",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["result"] == "inconclusive"
    assert payload["samples"] == 0


def test_wlud_check_json_deterministic(capsys):
    args = (
        "--format", "json", "wlud-check", "x^2", "--var", "x", "--at", "0",
        "--k", "2", "--eps", "1", "--delta", "d", "--seed", "7",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_analyticity_certified(capsys):
    code, out, _ = run(
        capsys, "analyticity", "exp(x)", "--var", "x", "--at", "0",
        "--jmax", "16", "--kmax", "2",
    )
    assert code == 0
    assert "verdict: certified_at_scale" in out


def test_analyticity_inconclusive_exit_2(capsys):
    # jet too short for the default horizon: inconclusive, exit code 2
    code, out, _ = run(
        capsys, "analyticity", "exp(x)", "--var", "x", "--at", "0",
        "--jmax", "8", "--kmax", "2",
    )
    assert code == 2
    assert "verdict: inconclusive" in out


def test_analyticity_nd(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "analyticity", "x + y + x*y",
        "--var", "x", "--var", "y", "--at", "0", "--at", "0",
        "--jmax", "4", "--kmax", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "certified_at_scale"
    assert payload["x0"] == ["0", "0"]


@pytest.mark.parametrize(
    "problem",
    [
        ["exp(x)", "--var", "x", "--at", "0"],
        ["exp(x+y)", "--var", "x", "--var", "y", "--at", "0", "--at", "0"],
    ],
    ids=["1d", "2d"],
)
def test_analyticity_window_outside_1_to_jmax_exit_3(capsys, problem):
    code, out, err = run(
        capsys, "analyticity", *problem,
        "--jmax", "8", "--kmax", "2", "--window", "0",
    )
    assert code == 3
    assert out == ""
    assert err == "levicivita: error: ValueError: window must be in 1..8, got 0\n"


def test_usage_error_exit_3(capsys):
    code, _, err = run(capsys, "derive", "x^2", "--var", "x")
    assert code == 3
    assert "error" in err


def test_unknown_command_exit_3(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 3


def test_eval_error_exit_3(capsys):
    code, _, err = run(capsys, "eval", "1/x", "--at", "x=0")
    assert code == 3
    assert "error" in err


def test_bad_binding_exit_3(capsys):
    code, _, err = run(capsys, "eval", "x", "--at", "x")
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "x", "--at", "x=1", "--at", " x=2"], "variable 'x' is bound twice"),
        (
            ["analyticity", "x^2", "--var", "x", "--var", "x", "--at", "1", "--at", "2"],
            "variable 'x' is given twice",
        ),
        (
            ["wlud-check", "x*y", "--var", "x", "--var", "y", "--var", "x",
             "--at", "1", "--at", "2", "--at", "3", "--k", "1", "--eps", "1",
             "--delta", "d"],
            "variable 'x' is given twice",
        ),
    ],
    ids=["eval", "analyticity", "wlud-check"],
)
def test_repeated_variable_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"levicivita: error: ValueError: {message}\n"


def test_negative_samples_exit_3(capsys):
    for argv in [
        ("wlud-check", "x^2", "--var", "x", "--at", "0", "--k", "1", "--eps", "1",
         "--delta", "d"),
        ("analyticity", "x^2", "--var", "x", "--at", "0"),
    ]:
        code, out, err = run(capsys, *argv, "--samples", "-1")
        assert code == 3, argv
        assert out == ""
        assert err == "levicivita: error: ValueError: --samples must be >= 0, got -1\n"


def test_negative_k_exit_3(capsys):
    for at in (("--at", "0"), ("--var", "y", "--at", "0", "--at", "1")):
        code, out, err = run(
            capsys, "wlud-check", "x^2", "--var", "x", *at, "--k", "-1",
            "--eps", "1", "--delta", "d",
        )
        assert code == 3, at
        assert out == ""
        assert err == "levicivita: error: ValueError: k must be >= 0, got -1\n"


def test_syntax_error_exit_3(capsys):
    code, _, err = run(capsys, "eval", "d^^2", "--at", "x=0")
    assert code == 3
    assert "offset" in err


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(
        capsys, "taylor", "exp(x)", "--var", "x", "--at", "0",
        "--order", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["coeffs"][0] == "1"


def test_analyticity_full_order_at_parsed_center(capsys):
    # a parsed real center must support the full jet order
    code, out, _ = run(
        capsys, "analyticity", "exp(x)", "--var", "x", "--at", "0",
        "--jmax", "16", "--kmax", "2",
    )
    assert code == 0
    assert "certified_at_scale" in out


def test_horizon_flag(capsys):
    code, out, _ = run(capsys, "--horizon", "4", "eval", "1/(1-x)", "--at", "x=d")
    assert code == 0
    assert out.strip() == "1 + d + d^2 + d^3"


def test_horizon_env(capsys, monkeypatch):
    monkeypatch.setenv("LC_HORIZON", "3")
    code, out, _ = run(capsys, "eval", "1/(1-x)", "--at", "x=d")
    assert code == 0
    assert out.strip() == "1 + d + d^2"


def test_infinite_limit_exit_3(capsys):
    code, _, err = run(capsys, "limit", "x", "x^2", "--var", "x", "--at", "0")
    assert code == 3
    assert "InfiniteLimit" in err


def test_eval_overflow_exit_3(capsys):
    code, _, err = run(capsys, "eval", "exp(1000)")
    assert code == 3
    assert err.startswith("levicivita: error: OverflowError")
    assert len(err.strip().splitlines()) == 1


def test_literal_terms_summing_past_binary64_exit_3(capsys):
    code, _, err = run(capsys, "eval", "x", "--at", "x=1e308 + 1e308")
    assert code == 3
    assert err.startswith("levicivita: error: LCSyntaxError: coefficient out of binary64")
    assert len(err.strip().splitlines()) == 1


def test_eval_product_overflow_exit_3(capsys):
    code, out, err = run(capsys, "eval", "x*x", "--at", "x=1e200")
    assert code == 3
    assert out == ""
    assert err == "levicivita: error: ValueError: non-finite coefficient inf at exponent 0\n"


def test_eval_difference_of_overflowed_products_exit_3(capsys):
    code, out, err = run(capsys, "eval", "x*x - x*x", "--at", "x=1e200")
    assert code == 3
    assert out == ""
    assert err == "levicivita: error: ValueError: non-finite coefficient nan at exponent 0\n"


@pytest.mark.parametrize("argv", [
    ["taylor", "x*x", "--var", "x", "--at", "1e200", "--order", "2"],
    ["derive", "x^3", "--var", "x", "--at", "1e200", "--order", "1"],
    ["wlud-check", "x^2", "--var", "x", "--at", "0", "--k", "4", "--eps", "1e308", "--delta", "1"],
])
def test_non_finite_results_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("levicivita: error: ValueError: non-finite coefficient inf at exponent ")
    assert len(err.splitlines()) == 1


def test_eval_reciprocal_of_an_overflowed_square_exit_3(capsys):
    code, _, err = run(capsys, "eval", "(x*x)^-1", "--at", "x=1e200")
    assert code == 3
    assert err == "levicivita: error: ValueError: non-finite coefficient inf at exponent 0\n"


def test_deep_parentheses_exit_0(capsys):
    text = "(" * 600 + "x" + ")" * 600
    code, out, err = run(capsys, "eval", text, "--at", "x=1")
    assert code == 0
    assert out.strip() == "1"
    assert err == ""


def test_unclosed_parentheses_exit_3(capsys):
    code, _, err = run(capsys, "eval", "(" * 600 + "x", "--at", "x=1")
    assert code == 3
    assert err.startswith("levicivita: error: LCSyntaxError")
    assert len(err.strip().splitlines()) == 1


def test_constant_power_tower_exit_3(capsys):
    # 9^(9^9) would be a 1.2-gigabit constant
    code, _, err = run(capsys, "eval", "9^9^9")
    assert code == 3
    assert err.startswith("levicivita: error: LCSyntaxError: constant power too large")
    assert len(err.strip().splitlines()) == 1


def test_long_flat_sum_exit_0(capsys):
    # 3000 operators deep: far past the interpreter's recursion limit
    code, out, err = run(capsys, "eval", "x" + "+x" * 3000, "--at", "x=1")
    assert code == 0
    assert out.strip() == "3001"
    assert err == ""


def test_bad_horizon_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("LC_HORIZON", "abc")
    code, _, err = run(capsys, "eval", "1+x", "--at", "x=d")
    assert code == 3
    assert "LC_HORIZON='abc'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--horizon", "5", "eval", "1/(1-x)", "--at", "x=d"),
    ("--horizon", "5", "eval", "1/x", "--at", "x=0"),
])
def test_horizon_flag_does_not_leak(capsys, argv):
    before = default_horizon()
    assert before != 5
    run(capsys, *argv)
    assert default_horizon() == before


def test_python_m_runs_the_cli():
    src = str(Path(levicivita.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "levicivita", "eval", "1/3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "0.3333333333333333\n"
    assert done.stderr == ""


_WLUD = ("wlud-check", "abs(x)", "--var", "x")


@pytest.mark.parametrize("argv, spelled", [
    (_WLUD + ("--at", "-1/2", "--k", "1", "--eps", "1", "--delta", "d"),
     _WLUD + ("--at=-1/2", "--k", "1", "--eps", "1", "--delta", "d")),
    (("derive", "x^3", "--var", "x", "--at", "-d", "--order", "1"),
     ("derive", "x^3", "--var", "x", "--at=-d", "--order", "1")),
    (("eval", "-x+1", "--at", "x=1"),
     ("eval", "--at", "x=1", "--", "-x+1")),
], ids=["wlud-check --at -1/2", "derive --at -d", "eval -x+1"])
def test_value_beginning_with_minus_is_not_an_option(capsys, argv, spelled):
    code, out, _ = run(capsys, *spelled)
    assert code == 0 and out
    assert run(capsys, *argv)[:2] == (code, out)


def test_option_names_still_parse_as_options(capsys):
    code, _, err = run(capsys, "derive", "x", "--var", "x", "--at", "--order", "1")
    assert code == 3
    assert "argument --at: expected one argument" in err
    code, out, _ = run(capsys, "eval", "-h")
    assert code == 0
    assert out.startswith("usage: levicivita eval")
