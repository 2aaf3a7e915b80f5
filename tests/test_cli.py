"""Tests for the expression language and the command line interface."""

import json

import pytest

from qtsym.algebra import SymmetricFunctions
from qtsym.cli import main
from qtsym.coeffs import ONE, Q, T, Coeff
from qtsym.errors import ExpressionError, PartitionError, UserInputError
from qtsym.exprs import (
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


def test_cli_eval_user_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "s[1,2]")
    assert code == 1
    assert err.startswith("error:") and "weakly decrease" in err
    code, _, err = run_cli(capsys, "eval", "s[2,1] +")
    assert code == 1 and "position 8" in err
    code, _, err = run_cli(capsys, "eval", "1/0")
    assert code == 1 and "division by zero" in err


def test_cli_eval_deep_nesting_is_user_error(capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    code, _, err = run_cli(capsys, "eval", deep)
    assert code == 1 and err.startswith("error:") and "nests" in err
    code, _, err = run_cli(capsys, "eval", "--", "-" * 3000 + "1")
    assert code == 1 and "nests" in err
    code, _, err = run_cli(capsys, "eval", "to_s(" * 3000 + "1" + ")" * 3000)
    assert code == 1 and "nests" in err


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
