"""Tests for the expression language and the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtsym
from qtsym import exprs
from qtsym.algebra import SymmetricFunctions
from qtsym.cli import main
from qtsym.coeffs import ONE, Q, T, Coeff
from qtsym.errors import ExpressionError, PartitionError, UserInputError
from qtsym.exprs import (
    _Evaluator,
    _parsed,
    coefficient_from_text,
    element_from_json,
    evaluate,
    parse,
    parse_partition_text,
)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_builds_expected_tree():
    node = parse("s[2,1] + QP[2,1] + p[2,1]")
    # Left-associative sum: (s + QP) + p.
    assert node.kind == "add"
    left, right = node.children
    assert right.kind == "elem" and right.value == ("p", (2, 1))
    assert left.kind == "add"
    assert [c.value for c in left.children] == [("s", (2, 1)), ("QP", (2, 1))]


def test_parse_precedence_and_associativity(S):
    assert evaluate(S, "1 + 2 * 3 ^ 2") == S.one().scaled(Coeff.from_value(19))
    assert evaluate(S, "2 ^ 3 * 2") == S.one().scaled(Coeff.from_value(16))
    assert evaluate(S, "(1 + 2) * 3") == S.one().scaled(Coeff.from_value(9))
    # Unary minus binds looser than ^.
    assert evaluate(S, "-t^2") == S.one().scaled(-(T * T))
    assert evaluate(S, "2 - 3 - 4") == S.one().scaled(Coeff.from_value(-5))
    assert evaluate(S, "12 / 3 / 2") == S.one().scaled(Coeff.from_value(2))


def test_parse_position_errors():
    with pytest.raises(ExpressionError) as err:
        parse("s[2,1] +")
    assert "position 8" in str(err.value)
    with pytest.raises(ExpressionError):
        parse("(1 + t")
    with pytest.raises(ExpressionError):
        parse("s[2 1]")
    with pytest.raises(ExpressionError) as err:
        parse("1 $ 2")
    assert "$" in str(err.value)
    with pytest.raises(ExpressionError):
        parse("")


def test_evaluate_elements_and_scalars(S):
    assert evaluate(S, "m[]") == S["m"]()
    assert evaluate(S, "p[2,1]") == S["p"]([2, 1])
    assert evaluate(S, "scalar(p[2,1], p[2,1])") == Coeff.from_value(2)
    two = Coeff.from_value(2)
    assert evaluate(S, "scalar_t(p[2], p[2])") == two / (ONE - T * T)
    qt = (ONE - Q * Q) / (ONE - T * T)
    assert evaluate(S, "scalar_qt(p[2], p[2])") == two * qt
    assert evaluate(S, "omega(h[3])") == S.convert(S["e"]([3]), "h")
    assert evaluate(S, "to_s(h[2,1])") == S.convert(S["h"]([2, 1]), "s")
    # Coefficient-valued argument to to_<basis> lifts to a degree-0 element.
    lifted = evaluate(S, "to_s(1 + t)")
    assert lifted.basis == "s" and lifted == S["s"]().scaled(ONE + T)


def test_evaluate_mixed_coefficient_and_element(S):
    el = evaluate(S, "(1 - t) * P[2] + q * m[1,1]")
    direct = S.add(S["P"]([2]).scaled(ONE - T), S["m"]([1, 1]).scaled(Q))
    assert el == direct
    assert evaluate(S, "p[2] / 2") == S["p"]([2]).scaled(ONE / Coeff.from_value(2))


def test_evaluate_user_errors(S):
    with pytest.raises(ExpressionError) as err:
        evaluate(S, "x + 1")
    assert "x[" in str(err.value)
    with pytest.raises(ExpressionError):
        evaluate(S, "frobenius(p[1])")
    with pytest.raises(ExpressionError):
        evaluate(S, "scalar(p[1])")
    with pytest.raises(ExpressionError):
        evaluate(S, "scalar(p[1], 1)")
    with pytest.raises(ExpressionError):
        evaluate(S, "to_zzz(p[1])")
    with pytest.raises(ExpressionError) as err:
        evaluate(S, "s[1,2]")
    assert "s[1,2]" in str(err.value)
    with pytest.raises(ExpressionError) as err:
        evaluate(S, "1 / 0")
    assert "division" in str(err.value)
    with pytest.raises(ExpressionError):
        evaluate(S, "zz[2]")


def test_evaluate_element_power(S):
    assert evaluate(S, "p[2] ^ 2") == S.multiply(S["p"]([2]), S["p"]([2]))
    assert evaluate(S, "(s[1] + s[2]) ^ 0") == S["s"]()


def assert_error_twice(call, message):
    """The same message on the first call and on the repeat, which takes
    its tree from the parse cache."""
    for _ in range(2):
        with pytest.raises(ExpressionError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        ("1 2", "unexpected '2' at position 2"),
        ("p[1] / p[1]", "cannot apply 'div' to these operands (in 'p[1] / p[1]')"),
        (
            "to_s(p[1], p[2])",
            "to_s() takes exactly one argument (in 'to_s(p[1], p[2])')",
        ),
        (
            "omega(p[1], p[2])",
            "omega() takes exactly one argument (in 'omega(p[1], p[2])')",
        ),
    ],
)
def test_evaluate_error_messages(S, src, message):
    assert_error_twice(lambda: evaluate(S, src), message)


def _island_registry() -> SymmetricFunctions:
    S2 = SymmetricFunctions()
    S2.register_basis("island")  # no edges: every conversion of it fails
    return S2


@pytest.mark.parametrize(
    "src, node",
    [
        ("m[1] + island[1]^2", "island[1]^2"),
        ("m[1] + -island[1]^2", "island[1]^2"),
        ("m[1] * island[1]", "m[1] * island[1]"),
    ],
)
def test_an_error_quotes_the_node_that_raised_it(src, node):
    S2 = _island_registry()
    message = f"no conversion route from 'island' to 'h' (in '{node}')"
    assert_error_twice(lambda: evaluate(S2, src), message)


def test_an_unknown_basis_in_a_conversion_of_a_coefficient(S):
    assert_error_twice(
        lambda: evaluate(S, "m[1] + to_zzz(2)"), "unknown basis 'zzz' (in 'to_zzz(2)')"
    )


@pytest.mark.parametrize(
    "src, node",
    [
        ("t^600000", "t^600000"),
        ("1 + t^600000", "t^600000"),
        ("-t^600000", "t^600000"),
        ("q^524288 / t", "q^524288"),
    ],
)
def test_the_exponent_limit_is_quoted_at_its_power(S, src, node):
    message = f"exponents of q and t must stay below 524288 (in '{node}')"
    assert_error_twice(lambda: evaluate(S, src), message)
    assert_error_twice(lambda: coefficient_from_text(src), message)


def test_cli_eval_exponent_limit_is_a_user_error(capsys):
    code, out, err = run_cli(capsys, "eval", "t^600000")
    assert (code, out) == (1, "")
    assert err == "error: exponents of q and t must stay below 524288 (in 't^600000')\n"
    code, out, err = run_cli(capsys, "eval", "t^524287")
    assert (code, out, err) == (0, "t^524287\n", "")


@pytest.mark.parametrize("src", ["2^20000", "(1/3)^20000", "to_s(2^20000*s[1])"])
def test_cli_eval_of_a_number_too_long_to_print_is_a_user_error(capsys, src):
    # 2^20000 has 6,021 digits, past the 4,300 that Python converts to text
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "eval", "--format", fmt, src)
        assert (code, out) == (1, "")
        assert err == "error: a coefficient has more than 4300 digits, too many to print\n"


_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGITS, reason="this Python converts ints of any length")
@pytest.mark.parametrize(
    "template, at_the_limit",
    [
        ("N", None),
        ("s[N]", "maximum degree 12"),
        ("s[N,N]", "degree more than 10^18 exceeds the maximum degree 12"),
        ("q^N", "exponents of q and t must stay below 524288"),
    ],
)
def test_cli_eval_number_literals_up_to_the_digit_limit(capsys, template, at_the_limit):
    # a literal as long as Python converts to an int parses, and fails, if
    # at all, for what it denotes; one digit more fails at its position
    longest = "9" * _DIGITS
    code, out, err = run_cli(capsys, "eval", template.replace("N", longest))
    if at_the_limit is None:
        assert (code, out, err) == (0, longest + "\n", "")
    else:
        assert (code, out) == (1, "") and at_the_limit in err and "digits" not in err
    code, out, err = run_cli(capsys, "eval", template.replace("N", longest + "9"))
    assert (code, out) == (1, "")
    position = template.index("N")
    assert err == f"error: number at position {position} has more than {_DIGITS} digits\n"


@pytest.mark.parametrize(
    "src, head",
    [
        ("(1+q)^999", b"q^999 + 999*q^998 + 498501*q^997 + "),
        ("(1+q+t)^30", b"t^30 + 30*q*t^29 + 435*q^2*t^28 + "),
        ("(1/(1-t))^999", b"-1/(t^999 - 999*t^998 + 498501*t^997 - "),
    ],
)
def test_cli_eval_coefficient_powers_within_the_term_bound(src, head):
    run = _cli_subprocess("eval", src, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout.startswith(head) and run.stdout.endswith(b"\n")


@pytest.mark.parametrize(
    "src, node, size",
    [
        ("(1+q)^1000", "(1+q)^1000", "1001"),
        ("(1+q+t)^31", "(1+q+t)^31", "1024"),
        ("2 * (1/(1-t))^1000", "(1/(1-t))^1000", "1001"),
        ("((1+q)/(1-q))^500", "((1+q)/(1-q))^500", "1002"),
        ("(1+q)^20000", "(1+q)^20000", "20001"),
        ("to_s((1+q+t)^200*s[1])", "(1+q+t)^200", "40401"),
    ],
)
def test_cli_eval_coefficient_powers_past_the_term_bound(src, node, size):
    # each would expand for seconds to minutes; the bound fails first
    run = _cli_subprocess("eval", src, timeout=10)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == (
        "error: a power of a coefficient is bounded at 1000 terms, and this "
        f"one may have {size} (in '{node}')\n"
    ).encode()


@pytest.mark.parametrize(
    "src, node",
    [
        ("2^100000000", "2^100000000"),
        ("2^524287", "2^524287"),
        ("1 + (1/3)^400000", "(1/3)^400000"),
        ("(10^4000)^200", "(10^4000)^200"),
        ("(2*s[])^600000", "(2*s[])^600000"),
        ("(3*q)^400000", "(3*q)^400000"),
    ],
)
def test_cli_eval_powers_past_the_bit_bound(src, node):
    # each power would have 2^19 bits or more before printing could refuse
    # it; the bound fails before any power is built
    run = _cli_subprocess("eval", src, timeout=10)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == (
        f"error: the coefficients of a power are bounded at 524288 bits (in '{node}')\n"
    ).encode()


@pytest.mark.parametrize(
    "src, out",
    [
        ("s[]^200000", b"s[]\n"),
        ("(-s[])^200001", b"-s[]\n"),
        ("2^524286 - 2^524286", b"0\n"),
        ("((1+q)*s[])^2", b"(q^2 + 2*q + 1)*s[]\n"),
    ],
)
def test_cli_eval_powers_of_degree_zero_elements(src, out):
    run = _cli_subprocess("eval", src, timeout=10)
    assert (run.returncode, run.stdout, run.stderr) == (0, out, b"")


def test_cli_eval_power_of_a_degree_zero_element_meets_the_term_bound():
    run = _cli_subprocess("eval", "((1+q)*s[])^1000", timeout=10)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == (
        b"error: a power of a coefficient is bounded at 1000 terms, and this "
        b"one may have 1001 (in '((1+q)*s[])^1000')\n"
    )


def test_a_power_past_the_term_bound_fails_before_expanding(S, monkeypatch):
    powers = []
    monkeypatch.setattr(Coeff, "__pow__", lambda base, n: powers.append(n))
    with pytest.raises(ExpressionError, match="bounded at 1000 terms"):
        evaluate(S, "(1+q)^1000")
    assert powers == []


def test_evaluate_operator_on_a_coefficient(S):
    # the coefficient is lifted to a degree-0 element first
    for _ in range(2):
        assert evaluate(S, "omega(2)") == S.one().scaled(Coeff.from_value(2))


@pytest.mark.parametrize(
    "src, message",
    [
        ("p[2]", "only q, t and rationals are allowed here (in 'p[2]')"),
        ("to_s(1)", "only q, t and rationals are allowed here (in 'to_s(1)')"),
        (
            "scalar(1, 2)",
            "scalar() needs two symmetric function arguments (in 'scalar(1, 2)')",
        ),
    ],
)
def test_coefficient_from_text_rejects_non_coefficients(src, message):
    assert_error_twice(lambda: coefficient_from_text(src), message)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"basis": "m"}, "element JSON needs 'basis' and 'terms' fields"),
        (
            {"basis": "m", "terms": [{"partition": [1]}]},
            "each term needs 'partition' and 'coeff' fields",
        ),
    ],
)
def test_element_from_json_malformed(S, data, message):
    assert_error_twice(lambda: element_from_json(S, data), message)


def test_render_then_parse_round_trip(S):
    sources = [
        "p[2,1]",
        "s[2,1] + QP[2,1] + p[2,1]",
        "(1 - t) * P[2,1] + q * m[1,1,1]",
        "to_m(QP[2,1])",
        "McdP[2,1]",
        "omega(s[3,1]) - s[2,1,1]",
        "h[2] * e[2] - 3 * m[4]",
        "(1/2) * p[2] + (2/3) * p[1,1]",
        "P[2] / (1 - t)",
        "m[] - m[1]",
    ]
    for src in sources:
        el = evaluate(S, src)
        rendered = str(el)
        again = evaluate(S, rendered)
        assert again == el, src
        assert str(again) == rendered


def test_coefficient_from_text():
    assert coefficient_from_text("(1 - t) * (1 + t)") == ONE - T * T
    assert coefficient_from_text("1 / (1 - q*t)") == ONE / (ONE - Q * T)
    with pytest.raises(ExpressionError):
        coefficient_from_text("p[2]")


def test_element_json_round_trip(S):
    for src in ("to_m(QP[2,1])", "p[2,1] / (1 - t)", "m[] + q * m[2]"):
        el = evaluate(S, src)
        data = el.to_json()
        assert json.dumps(data)  # JSON-serializable
        assert element_from_json(S, data) == el
    mac = S.convert(S["McdP"]([2, 1]), "m")
    assert element_from_json(S, mac.to_json()) == mac


def test_element_from_json_merges_duplicate_partitions(S):
    data = {
        "basis": "m",
        "terms": [
            {"partition": [2], "coeff": "t"},
            {"partition": [2], "coeff": "1"},
        ],
    }
    assert element_from_json(S, data) == S["m"]([2]).scaled(T + ONE)


def test_parse_partition_text():
    assert parse_partition_text("4,3,2").parts == (4, 3, 2)
    assert parse_partition_text("[4,3,2]").parts == (4, 3, 2)
    assert parse_partition_text("").parts == ()
    assert parse_partition_text("[]").parts == ()
    with pytest.raises(ExpressionError):
        parse_partition_text("2,a")
    with pytest.raises(PartitionError):
        parse_partition_text("1,2")


# ---------------------------------------------------------------------------
# Command line: eval


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_eval_hall_littlewood_expansion(capsys):
    code, out, err = run_cli(capsys, "eval", "to_m(QP[2,1])")
    assert code == 0 and err == ""
    assert out.strip() == "(t + 2)*m[1,1,1] + (t + 1)*m[2,1] + t*m[3]"


def test_cli_eval_mixed_basis_sum(capsys):
    code, out, _ = run_cli(capsys, "eval", "s[2,1] + QP[2,1] + p[2,1]")
    assert code == 0
    assert out.strip() == "(t + 4)*m[1,1,1] + (t + 3)*m[2,1] + (t + 1)*m[3]"


def test_cli_eval_scalar_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "scalar(p[2,1], p[2,1])")
    assert code == 0 and out.strip() == "2"


def test_cli_eval_basis_flag(capsys):
    code, out, _ = run_cli(capsys, "eval", "QP[2,1]", "--basis", "s")
    assert code == 0 and out.strip() == "s[2,1] + t*s[3]"


def test_cli_eval_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "s[2,1] + QP[2,1] + p[2,1]", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "m"
    terms = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert terms == {(1, 1, 1): "t + 4", (2, 1): "t + 3", (3,): "t + 1"}


def test_cli_eval_scalar_json(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "scalar_t(p[2], p[2])", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"coeff": "-2/(t^2 - 1)"}


def test_cli_eval_var_names_display_only(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "(1 - t) * P[1]", "--basis", "m", "--var-names", "a,b"
    )
    assert code == 0 and out.strip() == "-(b - 1)*m[1]"
    code, out, _ = run_cli(
        capsys, "eval", "q * t * m[1]", "--var-names", "x,y"
    )
    assert code == 0 and out.strip() == "x*y*m[1]"


def test_cli_eval_var_names_bad_value(capsys):
    code, _, err = run_cli(capsys, "eval", "t", "--var-names", "onlyone")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "names, reason",
    [
        ("1,2", "not an identifier"),
        ("x+y,z", "not an identifier"),
        ("s,t", "basis name"),
        ("q,McdP", "basis name"),
        ("a,a", "must differ"),
    ],
)
def test_cli_eval_var_names_rejects_non_names(capsys, names, reason):
    # printed as is, such names would make output that reads as another
    # expression: 1*s[1], x+y*s[1], s*s[1]
    code, out, err = run_cli(capsys, "eval", "q*s[1]", "--var-names", names)
    assert code == 1 and out == ""
    assert err.startswith("error:") and reason in err


def test_cli_eval_user_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "s[1,2]")
    assert code == 1
    assert err.startswith("error:") and "weakly decrease" in err
    code, _, err = run_cli(capsys, "eval", "s[2,1] +")
    assert code == 1 and "position 8" in err
    code, _, err = run_cli(capsys, "eval", "1/0")
    assert code == 1 and "division by zero" in err


def test_cli_eval_non_decimal_digits_are_user_errors(capsys):
    # superscript digits are str.isdigit but not int(); they are rejected
    # as characters, while other decimal digits still parse as numbers
    for src in ("s[\u00b2]", "\u00b2", "q^\u00b2"):
        code, out, err = run_cli(capsys, "eval", src)
        assert code == 1 and out == "", src
        assert err.startswith("error:") and "unexpected character" in err, src
    code, out, err = run_cli(capsys, "eval", "s[\u0661]")
    assert code == 0 and err == "" and out.strip() == "s[1]"


def test_cli_eval_deep_nesting_is_user_error(capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    code, _, err = run_cli(capsys, "eval", deep)
    assert code == 1 and err.startswith("error:") and "nests" in err
    code, _, err = run_cli(capsys, "eval", "--", "-" * 3000 + "1")
    assert code == 1 and "nests" in err
    code, _, err = run_cli(capsys, "eval", "to_s(" * 3000 + "1" + ")" * 3000)
    assert code == 1 and "nests" in err


def test_cli_eval_degree_above_bound_is_user_error(capsys):
    # each would start a long run; the guard fires before any conversion
    for src in ("to_m(McdP[13])", "s[7]*s[7]", "p[7]^2", "m[1] * (m[6] + m[12])"):
        code, out, err = run_cli(capsys, "eval", src)
        assert code == 1 and out == "", src
        assert err.startswith("error:") and "maximum degree 12" in err, src


def test_cli_eval_degree_at_bound_is_accepted(capsys):
    from qtsym.exprs import MAX_DEGREE

    assert MAX_DEGREE == 12
    for src, want in (
        ("p[12]", "p[12]"),
        ("p[6]*p[6]", "p[6,6]"),
        ("p[4]^3", "p[4,4,4]"),
        ("2 * p[12] / 2", "p[12]"),
    ):
        code, out, err = run_cli(capsys, "eval", src)
        assert code == 0 and err == "" and out.strip() == want, src


@pytest.mark.parametrize(
    "expr, stdout",
    [
        (
            "to_s(McdP[2,1,1])",
            b"((t^3 - q*t^2 + t^2 - q*t + t - q)/(q*t^3 - 1))*s[1,1,1,1]"
            b" + s[2,1,1]\n",
        ),
        (
            "to_m(QP[3,2,1])",
            b"(t^4 + 5*t^3 + 14*t^2 + 24*t + 16)*m[1,1,1,1,1,1]"
            b" + (t^4 + 4*t^3 + 10*t^2 + 15*t + 8)*m[2,1,1,1,1]"
            b" + (t^4 + 3*t^3 + 7*t^2 + 9*t + 4)*m[2,2,1,1]"
            b" + (t^4 + 2*t^3 + 5*t^2 + 5*t + 2)*m[2,2,2]"
            b" + (t^4 + 3*t^3 + 6*t^2 + 7*t + 2)*m[3,1,1,1]"
            b" + (t^4 + 2*t^3 + 4*t^2 + 4*t + 1)*m[3,2,1]"
            b" + (t^4 + t^3 + 2*t^2 + 2*t)*m[3,3]"
            b" + (t^4 + 2*t^3 + 3*t^2 + 2*t)*m[4,1,1]"
            b" + (t^4 + t^3 + 2*t^2 + t)*m[4,2]"
            b" + (t^4 + t^3 + t^2)*m[5,1]"
            b" + t^4*m[6]\n",
        ),
    ],
)
def test_cli_eval_exact_stdout_bytes(expr, stdout):
    # the benchmark's cold `qtsym eval` runs, in a fresh interpreter
    src = str(Path(qtsym.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "qtsym.cli", "eval", expr],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, stdout, b"")


def test_eval_nesting_bound_and_long_chains(S):
    from qtsym.exprs import MAX_NESTING

    depth = MAX_NESTING
    assert evaluate(S, "(" * depth + "t" + ")" * depth) == S.one().scaled(T)
    assert evaluate(S, "-(" * (depth // 2) + "1" + ")" * (depth // 2)) == 1
    nested_calls = "to_s(" * depth + "m[1]" + ")" * depth
    assert evaluate(S, nested_calls) == S["s"]([1])
    with pytest.raises(ExpressionError):
        parse("(" * (depth + 1) + "1" + ")" * (depth + 1))
    # chains of binary operators are not nesting and may be any length
    assert evaluate(S, " + ".join(["1"] * 3000)) == 3000
    assert evaluate(S, " * ".join(["m[1]"] * 3)) == S["m"]([1]) ** 3
    assert evaluate(S, "2" + " / 1" * 3000) == 2


# ---------------------------------------------------------------------------
# Command line: combinatorics subcommands


def test_cli_partitions(capsys):
    code, out, _ = run_cli(capsys, "partitions", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "[4]" and lines[-1] == "[1,1,1,1]"
    code, out, _ = run_cli(capsys, "partitions", "0")
    assert code == 0 and out.strip() == "[]"
    code, _, err = run_cli(capsys, "partitions", "-1")
    assert code == 1 and "error:" in err


def _cli_subprocess(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    src = str(Path(qtsym.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qtsym.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def test_cli_partitions_bound():
    from qtsym.cli import MAX_PARTITIONS_N

    # p(46) = 105,558 partitions; the bound lists them all
    run = _cli_subprocess("partitions", str(MAX_PARTITIONS_N), timeout=60)
    assert run.returncode == 0 and run.stderr == b""
    lines = run.stdout.splitlines()
    assert len(lines) == 105558
    assert lines[0] == b"[46]" and lines[-1] == b"[" + b",".join([b"1"] * 46) + b"]"
    # above it, the error comes before any listing
    for n in (MAX_PARTITIONS_N + 1, 10**20):
        run = _cli_subprocess("partitions", str(n), timeout=10)
        assert run.returncode == 1 and run.stdout == b"", n
        assert run.stderr == (
            f"error: partitions lists n <= 46; n = {n} has too many\n".encode()
        )


def test_cli_closed_output_pipe_is_not_an_internal_fault():
    # `qtsym partitions 40 | head -1`: the reader takes one line and leaves
    src = str(Path(qtsym.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtsym.cli", "partitions", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert proc.stdout.readline() == b"[40]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    # no "internal error", and no traceback from the flush at exit
    assert err == b""


def test_cli_partitions_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[3], [2, 1], [1, 1, 1]]


def test_cli_tableaux(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "2,1", "1,1,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    assert sorted(t["charge"] for t in data) == [1, 2]
    assert all(t["shape"] == [2, 1] for t in data)
    code, out, _ = run_cli(capsys, "tableaux", "2,1", "1,1,1")
    assert code == 0 and out.count("charge:") == 2


# (rows, charge) of each tableau, in the order the command prints them
GOLDEN_TABLEAUX_321_2211 = [
    ([[1, 1, 4], [2, 2], [3]], 1),
    ([[1, 1, 3], [2, 2], [4]], 2),
    ([[1, 1, 2], [2, 4], [3]], 2),
    ([[1, 1, 2], [2, 3], [4]], 3),
]


def test_cli_tableaux_json_in_enumeration_order(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "3,2,1", "2,2,1,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"shape": [3, 2, 1], "rows": rows, "charge": c}
        for rows, c in GOLDEN_TABLEAUX_321_2211
    ]


def test_cli_ribbons(capsys):
    code, out, _ = run_cli(capsys, "ribbons", "4,3,2", "1,1,1", "3")
    assert code == 0 and out.count("spin:") == 3
    code, out, _ = run_cli(
        capsys, "ribbons", "4,3,2", "1,1,1", "3", "--format", "json"
    )
    data = json.loads(out)
    assert len(data) == 3
    assert sorted(t["spin"] for t in data) == [3, 3, 5]
    assert all(t["k"] == 3 and t["shape"] == [4, 3, 2] for t in data)


def test_cli_rc(capsys):
    code, out, _ = run_cli(capsys, "rc", "2,1", "1,1,1")
    assert code == 0
    assert "cocharge: 1" in out and "cocharge: 2" in out
    code, out, _ = run_cli(capsys, "rc", "2,1", "1,1,1", "--format", "json")
    data = json.loads(out)
    assert sorted(c["cocharge"] for c in data) == [1, 2]
    code, _, err = run_cli(capsys, "rc", "2,1", "1,1")
    assert code == 1 and "error:" in err


def test_cli_kostka(capsys):
    code, out, _ = run_cli(capsys, "kostka", "2,1", "1,1,1")
    assert code == 0 and out.strip() == "t^2 + t"
    code, out, _ = run_cli(
        capsys, "kostka", "2,1", "1,1,1", "--format", "json"
    )
    assert json.loads(out) == {"polynomial": "t^2 + t"}


def test_cli_genkostka(capsys):
    code, out, _ = run_cli(capsys, "genkostka", "2,2", "1,1", "2")
    assert code == 0 and out.strip() == "t^2"
    code, out, _ = run_cli(capsys, "genkostka", "2,1", "2,1", "1")
    assert code == 0 and out.strip() == "1"


def test_cli_llt(capsys):
    code, out, _ = run_cli(capsys, "llt", "2,2", "2", "--basis", "s")
    assert code == 0 and out.strip() == "t^2*s[1,1] + s[2]"
    code, out, _ = run_cli(capsys, "llt", "2,2", "2")
    assert code == 0 and out.strip() == "(t^2 + 1)*m[1,1] + m[2]"


def test_cli_bases_listing(capsys):
    code, out, _ = run_cli(capsys, "bases")
    assert code == 0
    for name in ("m", "e", "h", "p", "s", "P", "Q", "QP", "McdP"):
        assert f"{name} " in out or f"{name}\t" in out or f"  {name}" in out
    assert "hall_qt" in out and "omega" in out


# ---------------------------------------------------------------------------
# Command line: exit codes and argparse behavior


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["eval", "--help"]) == 0
    capsys.readouterr()


def test_cli_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["eval", "t", "--format", "yaml"]) == 1
    capsys.readouterr()


def test_cli_internal_errors_exit_two(capsys, monkeypatch):
    import qtsym.cli as cli_mod

    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli_mod._COMMANDS, "bases", boom)
    code = main(["bases"])
    captured = capsys.readouterr()
    assert code == 2 and "internal error" in captured.err


def test_cli_registered_basis_usable_in_expressions():
    # The expression evaluator works against any registry, including one
    # holding a basis registered after construction.
    S = SymmetricFunctions()
    S.register_basis("f", "forgotten copy of e")
    S.declare_conversion(
        "f", "m", lambda lam: S.convert(S.element("e", lam), "m")
    )
    el = evaluate(S, "f[2,1] + m[3]")
    assert el == S.add(S["f"]([2, 1]), S["m"]([3]))
    back = evaluate(S, "to_f(to_m(f[2,1]))")
    assert back == S["f"]([2, 1])
    # The tree of "f[2,1] + m[3]" is cached now.  A second registry first
    # rejects it, then evaluates the same tree once it registers f too.
    S2 = SymmetricFunctions()
    assert_error_twice(
        lambda: evaluate(S2, "f[2,1] + m[3]"), "unknown basis 'f' (in 'f[2,1]')"
    )
    S2.register_basis("f", "forgotten copy of e")
    S2.declare_conversion(
        "f", "m", lambda lam: S2.convert(S2.element("e", lam), "m")
    )
    hits = _parsed.cache_info().hits
    assert evaluate(S2, "f[2,1] + m[3]") == S2.add(S2["f"]([2, 1]), S2["m"]([3]))
    assert _parsed.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# The parse-tree cache behind evaluate and coefficient_from_text

_NAMES = ("m", "e", "h", "p", "s", "zz")


def _binary(op, left, right):
    """Source text and an upper bound on its degree."""
    degree = left[1] + right[1] if op == "*" else max(left[1], right[1])
    return f"{left[0]} {op} {right[0]}", degree


def _call(name, args):
    return f"{name}({', '.join(a[0] for a in args)})", max(a[1] for a in args)


_ATOMS = st.one_of(
    st.integers(0, 3).map(lambda n: (str(n), 0)),
    st.sampled_from(["q", "t", "x"]).map(lambda v: (v, 0)),
    st.builds(
        lambda name, parts: (f"{name}[{','.join(map(str, parts))}]", sum(parts)),
        st.sampled_from(_NAMES),
        st.lists(st.integers(1, 2), max_size=2),
    ),
)


def _compound(inner):
    return st.one_of(
        st.builds(_binary, st.sampled_from("+-*/"), inner, inner),
        inner.map(lambda a: (f"-{a[0]}", a[1])),
        inner.map(lambda a: (f"({a[0]})", a[1])),
        st.builds(lambda a, n: (f"({a[0]})^{n}", a[1] * n), inner, st.integers(0, 2)),
        st.builds(
            _call,
            st.sampled_from(["to_m", "to_s", "to_zz", "omega", "scalar", "zz"]),
            st.lists(inner, min_size=1, max_size=2),
        ),
    )


# grammatical texts up to degree 6, so no draw starts a long conversion
_GRAMMATICAL = st.recursive(_ATOMS, _compound, max_leaves=4).filter(
    lambda parts: parts[1] <= 6
)


@st.composite
def _sources(draw):
    """A grammatical text, or one with a character deleted or inserted."""
    text, _ = draw(_GRAMMATICAL)
    edit = draw(st.sampled_from(["none", "delete", "insert"]))
    at = draw(st.integers(0, len(text)))
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    if edit == "insert":
        return text[:at] + draw(st.sampled_from("+-*/^()[],0 x$")) + text[at:]
    return text


def _outcome(call):
    try:
        return "value", call()
    except ExpressionError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None)
@given(src=_sources())
def test_cached_trees_evaluate_like_fresh_parses(S, src):
    first = _outcome(lambda: evaluate(S, src))
    hits = _parsed.cache_info().hits
    cached = _outcome(lambda: evaluate(S, src))
    fresh = _outcome(lambda: _Evaluator(S, src, False).eval(parse(src)))
    assert cached == fresh == first
    parses = _outcome(lambda: parse(src))[0] == "value"
    assert _parsed.cache_info().hits == hits + parses
    scalar = _outcome(lambda: coefficient_from_text(src))
    fresh_scalar = _outcome(lambda: _Evaluator(None, src, True).eval(parse(src)))
    assert scalar == fresh_scalar


def test_parse_cache_keeps_the_last_512_texts(monkeypatch):
    _parsed.cache_clear()
    for n in range(513):
        assert coefficient_from_text(str(n)) == Coeff.from_value(n)
    info = _parsed.cache_info()
    assert (info.currsize, info.misses, info.hits) == (512, 513, 0)
    coefficient_from_text("512")
    coefficient_from_text("0")  # the oldest text was dropped
    info = _parsed.cache_info()
    assert (info.currsize, info.misses, info.hits) == (512, 514, 1)
    # parse itself still builds a new tree each time
    assert parse("q + t") is not parse("q + t")
    assert _parsed("q + t") is _parsed("q + t")
    # a miss goes through the module-level parse, which a tracer may replace
    seen = []
    monkeypatch.setattr(exprs, "parse", lambda src: seen.append(src) or parse(src))
    coefficient_from_text("513")
    coefficient_from_text("513")
    assert seen == ["513"]
