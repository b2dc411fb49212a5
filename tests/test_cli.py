import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

import deltacalc
from deltacalc.cli import (
    ExpressionError,
    evaluate_expression,
    expression_degree,
    lower,
    parse,
    run,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- expressions


def _random_source(rng, dimension, depth):
    """Build a well-formed expression string and a matching plain evaluator.

    The evaluator only sees nonnegative coordinates, so math.comb stands in
    for the binomial atoms.
    """
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            value = rng.randint(0, 9)
            return str(value), lambda x, v=value: v
        index = rng.randrange(dimension)
        if kind == 1:
            return f"x{index + 1}", lambda x, i=index: x[i]
        k = rng.randint(0, 3)
        return (
            f"C(x{index + 1},{k})",
            lambda x, i=index, k=k: math.comb(x[i], k) if x[i] >= k else 0,
        )
    op = rng.choice(("+", "-", "*", "^", "neg", "paren"))
    left_src, left_fn = _random_source(rng, dimension, depth - 1)
    if op == "paren":
        return f"({left_src})", left_fn
    if op == "neg":
        return f"-({left_src})", lambda x, f=left_fn: -f(x)
    if op == "^":
        k = rng.randint(0, 2)
        return f"({left_src})^{k}", lambda x, f=left_fn, k=k: f(x) ** k
    right_src, right_fn = _random_source(rng, dimension, depth - 1)
    text = f"({left_src}) {op} ({right_src})"
    if op == "+":
        return text, lambda x, f=left_fn, g=right_fn: f(x) + g(x)
    if op == "-":
        return text, lambda x, f=left_fn, g=right_fn: f(x) - g(x)
    return text, lambda x, f=left_fn, g=right_fn: f(x) * g(x)


def test_parser_agrees_with_a_plain_evaluator():
    rng = random.Random(404)
    for _ in range(150):
        dimension = rng.randint(1, 2)
        source, reference = _random_source(rng, dimension, rng.randint(0, 2))
        node = parse(source, dimension)
        for _ in range(4):
            x = tuple(rng.randint(3, 8) for _ in range(dimension))
            assert evaluate_expression(node, x) == reference(x)


def test_lowering_agrees_with_direct_evaluation():
    rng = random.Random(406)
    for _ in range(40):
        dimension = rng.randint(1, 2)
        source, _ = _random_source(rng, dimension, rng.randint(0, 2))
        node = parse(source, dimension)
        poly = lower(node, dimension)
        assert poly.count() <= expression_degree(node)
        for _ in range(4):
            x = tuple(rng.randint(-5, 9) for _ in range(dimension))
            assert poly.eval(x) == evaluate_expression(node, x)


def test_precedence_is_power_then_product_then_sum():
    node = parse("1 + 2 * x1^2", 1)
    assert evaluate_expression(node, (3,)) == 19
    assert evaluate_expression(parse("-x1^2", 1), (2,)) == -4
    assert evaluate_expression(parse("2 - 3 - 4", 1), (0,)) == -5


def test_syntax_errors_carry_one_based_columns():
    with pytest.raises(ExpressionError) as info:
        parse("x1 + )", 1)
    assert info.value.column == 6
    with pytest.raises(ExpressionError) as info:
        parse("x3 + 1", 2)
    assert info.value.column == 1
    with pytest.raises(ExpressionError) as info:
        parse("x1^-2", 1)
    assert info.value.column == 4
    with pytest.raises(ExpressionError):
        parse("C(2,1)", 1)
    with pytest.raises(ExpressionError):
        parse("", 1)


# ------------------------------------------------------------------- expand


def test_expand_single_mode_lists_per_direction_coefficients():
    code, out, err = run_cli(["expand", "--dim", "2", "--word", "(2,1)", "--mode", "single"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "mode: single",
        "word: (2,1)",
        "direction 1: 1*[0,0] + 1*[1,0]",
        "direction 2: 1*[2,0]",
    ]


def test_expand_grouped_json_document():
    code, out, err = run_cli(["expand", "--dim", "2", "--word", "(2,1)", "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["mode"] == "grouped"
    assert payload["word"] == [[2, 1]]
    assert payload["terms"] == [
        {"q": [0, 1], "coeff": [{"coords": [2, 0], "coeff": 1}]},
        {"q": [1, 0], "coeff": [{"coords": [0, 0], "coeff": 1}, {"coords": [1, 0], "coeff": 1}]},
    ]


def test_expand_sequence_mode_omits_zero_coefficients():
    code, out, _ = run_cli(["expand", "--dim", "2", "--word", "(2,1);(0,1)", "--mode", "sequence"])
    assert code == 0
    assert out.splitlines()[2:] == [
        "k=(1,2): 1*[0,0] + 1*[1,0]",
        "k=(2,2): 1*[2,0]",
    ]


def test_expand_cyclic_mode_prints_the_factor():
    code, out, _ = run_cli(
        ["expand", "--dim", "1", "--mode", "cyclic", "--multipliers", "2,3", "--step", "(1)"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "factor: 1*[0] + 2*[1] + 2*[2] + 1*[3]" in lines
    assert lines[-1] == "identity: word == factor * delta(1)^2"


def test_expand_flag_combinations_are_checked():
    code, _, err = run_cli(["expand", "--dim", "2", "--word", "(2,1)", "--mode", "cyclic"])
    assert code == 2
    assert "cyclic mode needs --multipliers and --step" in err
    code, _, err = run_cli(["expand", "--dim", "2", "--mode", "grouped"])
    assert code == 2
    code, _, err = run_cli(["expand", "--dim", "2", "--word", "(2,1,1)"])
    assert code == 2


# --------------------------------------------------------------------- fdeg


def test_fdeg_human_output():
    code, out, _ = run_cli(["fdeg", "--dim", "1", "x1^2"])
    assert code == 0
    assert out.splitlines() == [
        "fdeg: 2",
        "witness: (-2);(-2)",
        "refuted: 20 all words of length 3",
    ]


def test_fdeg_json_report():
    code, out, _ = run_cli(["fdeg", "--dim", "2", "x1*x2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["fdeg"] == 2
    assert payload["report"]["witness"] == [[-2, -2], [-2, -2]]
    assert payload["report"]["refuted_length"] == 3
    assert payload["polyfract"] == [{"n": [1, 1], "b": 1}]


def test_fdeg_of_zero_expression():
    code, out, _ = run_cli(["fdeg", "--dim", "1", "x1 - x1", "--json"])
    assert code == 0
    assert json.loads(out)["report"]["fdeg"] == "-inf"


def test_expression_errors_exit_with_usage_code():
    code, out, err = run_cli(["fdeg", "--dim", "1", "x1 + )"])
    assert (code, out) == (2, "")
    assert err == "error: syntax error at column 6: expected a value\n"
    code, _, err = run_cli(["fdeg", "--dim", "1", "x2"])
    assert code == 2
    assert err == "error: unknown variable 'x2' at column 1 (dimension 1)\n"


# -------------------------------------------------------- reconstruct, apply


def test_reconstruct_prints_basis_coefficients():
    code, out, _ = run_cli(["reconstruct", "--dim", "1", "x1^2"])
    assert code == 0
    assert out.splitlines() == ["polyfract: 1*C(x1,1) + 2*C(x1,2)", "count: 2"]


def test_reconstruct_json_document():
    code, out, _ = run_cli(["reconstruct", "--dim", "1", "x1^2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["polyfract"] == [{"n": [1], "b": 1}, {"n": [2], "b": 2}]
    assert payload["count"] == 2


def test_apply_at_a_point():
    code, out, _ = run_cli(["apply", "--dim", "1", "--word", "(1);(1)", "--at", "(1)", "C(x1,3)"])
    assert code == 0
    assert out == "value at (1): 1\n"


def test_apply_over_a_window():
    code, out, _ = run_cli(["apply", "--dim", "1", "--word", "(1)", "--window", "0:3", "x1^2"])
    assert code == 0
    assert out.splitlines() == ["(0): 1", "(1): 3", "(2): 5", "(3): 7"]


def test_apply_window_json_document():
    code, out, _ = run_cli(["apply", "--dim", "1", "--word", "(1)", "--window", "0:2", "x1^2", "--json"])
    assert code == 0
    assert json.loads(out)["values"] == [
        {"x": [0], "value": 1},
        {"x": [1], "value": 3},
        {"x": [2], "value": 5},
    ]


def test_apply_needs_exactly_one_location_flag():
    code, _, err = run_cli(["apply", "--dim", "1", "--word", "(1)", "x1"])
    assert code == 2
    assert "exactly one of --at or --window" in err
    code, _, _ = run_cli(
        ["apply", "--dim", "1", "--word", "(1)", "--at", "(0)", "--window", "0:1", "x1"]
    )
    assert code == 2


# ------------------------------------------------------ verify and listings


def test_verify_exit_codes():
    code, out, _ = run_cli(["verify", "thm_3_2", "--trials", "20", "--seed", "1"])
    assert code == 0
    assert "verdict: pass" in out
    code, out, _ = run_cli(["verify", "thm_5_1_printed", "--trials", "1", "--seed", "0"])
    assert code == 1
    assert "verdict: fail" in out
    code, _, err = run_cli(["verify", "thm_0_0"])
    assert code == 2
    assert err.startswith("error: unknown identity 'thm_0_0'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "thm_3_2", "--trials", "0"], "trials must be at least 1, got 0"),
        (["fdeg", "--dim", "1", "--box", "0", "x1"], "the direction box must be at least 1, got 0"),
        (["fdeg", "--dim", "1", "--budget", "0", "x1"], "the refutation budget must be at least 1, got 0"),
        (
            ["expand", "--dim", "1", "--mode", "cyclic", "--multipliers", "2,-1", "--step", "(1)"],
            "multipliers must be positive, got -1",
        ),
    ],
    ids=["verify-trials", "fdeg-box", "fdeg-budget", "expand-multipliers"],
)
def test_out_of_range_numbers_exit_with_usage_code(argv, message):
    # Exit 1 would read as a failed verification.
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_verify_json_is_byte_stable_across_runs():
    argv = ["verify", "thm_4_1", "--trials", "25", "--seed", "9", "--json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert json.loads(first[1])["verdict"] == "pass"


def test_list_identities_table_and_json_agree():
    code, out, _ = run_cli(["list-identities"])
    assert code == 0
    table_ids = [line.split()[0] for line in out.splitlines()]
    code, out, _ = run_cli(["list-identities", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [entry["id"] for entry in payload] == table_ids
    assert table_ids == sorted(table_ids)
    assert "thm_7_3_uncorrected" in table_ids


def test_missing_subcommand_is_a_usage_error():
    assert run_cli([])[0] == 2
    assert run_cli(["expand", "--word", "(1)"])[0] == 2  # --dim is required


def test_expressions_may_start_with_a_minus():
    cases = [
        ["fdeg", "--dim", "1", "-5*x1^3"],
        ["fdeg", "--dim", "2", "--json", "-x1*x2 + 3", "--box", "1"],
        ["reconstruct", "-C(x1,2)", "--dim", "1"],
        ["reconstruct", "--dim", "2", "--js", "-(x1 - x2)^2"],
        ["apply", "--dim", "1", "--word", "(1);(-1)", "--at", "(2)", "-x1^3"],
        ["apply", "-x1*x2", "--dim", "2", "--word", "(1,0)", "--window", "-1:1", "--json"],
    ]
    for argv in cases:
        expression = next(a for a in argv if a.startswith("-") and "x" in a)
        rest = [a for a in argv if a != expression]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(rest + ["--", expression])


def test_option_values_may_start_with_a_minus():
    code, out, _ = run_cli(["apply", "--dim", "1", "--word", "(1)", "--window", "-2:0", "-x1^2"])
    assert code == 0
    assert out.splitlines() == ["(-2): 3", "(-1): 1", "(0): -1"]
    assert run_cli(["apply", "--window", "-2:0", "--dim", "1", "--word", "(1)", "--", "-x1^2"])[1] == out
    code, _, err = run_cli(["fdeg", "--dim", "-1", "-x1"])
    assert code == 2
    assert err == "error: --dim must be at least 1, got -1\n"


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(deltacalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["fdeg", "--dim", "1", "-5*x1^3"]
    proc = subprocess.run(
        [sys.executable, "-m", "deltacalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)
    assert proc.stdout.startswith("fdeg: 3\n")
