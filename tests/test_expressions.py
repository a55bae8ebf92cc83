import math

import numpy as np
import numpy.testing as npt
import pytest

from curvlab.expressions import (
    FUNCTIONS,
    ZERO,
    DerivativeError,
    DomainError,
    ParseError,
    UndeclaredNameError,
    differentiate,
    evaluate,
    free_names,
    parse_expr,
    to_string,
)

CHART = ("t", "r", "theta", "phi")
PARAMS = ("M", "a")


def fd_derivative(expr, var, bindings, step=1e-5):
    """Independent check: symmetric finite difference of the evaluator."""
    up = dict(bindings)
    dn = dict(bindings)
    up[var] += step
    dn[var] -= step
    return (evaluate(expr, up) - evaluate(expr, dn)) / (2 * step)


SAMPLE_EXPRESSIONS = [
    "r^2 + t^2",
    "sin(theta)*cos(phi)",
    "1 - 2*M/r",
    "exp(-r^2/4)*sinh(t)",
    "log(r + 3) / (1 + a^2)",
    "sqrt(r^2 + a^2*cos(theta)^2)",
    "tan(theta/4) + tanh(t)",
    "r^t",
    "-r^2*sin(theta)",
    "(t - r)*(t + r)/(1 + r^2)",
]


class TestDerivatives:
    """Exact derivatives against a finite-difference oracle."""

    @pytest.mark.parametrize("text", SAMPLE_EXPRESSIONS)
    @pytest.mark.parametrize("var", ["t", "r", "theta"])
    def test_matches_finite_difference(self, text, var):
        rng = np.random.default_rng(421)
        e = parse_expr(text, CHART, PARAMS)
        d = differentiate(e, var)
        for _ in range(5):
            bindings = {
                "t": rng.uniform(0.5, 1.5),
                "r": rng.uniform(2.5, 4.0),
                "theta": rng.uniform(0.4, 2.0),
                "phi": rng.uniform(0.0, 6.0),
                "M": 1.0,
                "a": 0.7,
            }
            exact = evaluate(d, bindings)
            approx = fd_derivative(e, var, bindings)
            npt.assert_allclose(
                exact, approx, rtol=1e-6, atol=1e-8,
                err_msg=f"d({text})/d{var} disagrees with finite difference",
            )

    @pytest.mark.parametrize("text", SAMPLE_EXPRESSIONS)
    def test_mixed_partials_commute(self, text):
        rng = np.random.default_rng(99)
        e = parse_expr(text, CHART, PARAMS)
        d_tr = differentiate(differentiate(e, "t"), "r")
        d_rt = differentiate(differentiate(e, "r"), "t")
        for _ in range(3):
            bindings = {
                "t": rng.uniform(0.5, 1.5),
                "r": rng.uniform(2.5, 4.0),
                "theta": rng.uniform(0.4, 2.0),
                "phi": rng.uniform(0.0, 6.0),
                "M": 1.0,
                "a": 0.7,
            }
            npt.assert_allclose(
                evaluate(d_tr, bindings), evaluate(d_rt, bindings),
                rtol=0, atol=1e-10,
                err_msg=f"mixed partials of {text} do not commute",
            )

    def test_parameter_derivative_is_zero(self):
        e = parse_expr("M*r + a", CHART, PARAMS)
        d = differentiate(e, "t")
        assert evaluate(d, {"M": 3.0, "r": 2.0, "a": 1.0, "t": 0.0}) == 0.0

    def test_abs_derivative_rejected(self):
        e = parse_expr("abs(t)", CHART, PARAMS)
        with pytest.raises(DerivativeError):
            differentiate(e, "t")

    @pytest.mark.parametrize("var", CHART)
    def test_abs_derivative_rejected_for_every_variable(self, var):
        # folding a zero inner derivative must not hide the missing rule
        e = parse_expr("abs(r)", CHART, PARAMS)
        with pytest.raises(DerivativeError):
            differentiate(e, var)

    def test_zero_quotient_numerator_folds(self):
        e = parse_expr("1/r", CHART, PARAMS)
        assert differentiate(e, "t") is ZERO

    @pytest.mark.parametrize("fname", sorted(set(FUNCTIONS) - {"abs"}))
    def test_zero_inner_derivative_folds(self, fname):
        e = parse_expr(f"{fname}(r)", CHART, PARAMS)
        assert differentiate(e, "t") is ZERO


class TestRoundTrip:
    @pytest.mark.parametrize("text", SAMPLE_EXPRESSIONS + [
        "-(t + r)",
        "2^3^2",           # right-assoc: 512, not 64
        "-t^2",            # -(t^2)
        "(r - t)^(1 - t)",
        "t - (r - theta)",
        "t/(r*theta)",
    ])
    def test_print_then_parse_evaluates_equal(self, text):
        rng = np.random.default_rng(7)
        e = parse_expr(text, CHART, PARAMS)
        rendered = to_string(e)
        e2 = parse_expr(rendered, CHART, PARAMS)
        for _ in range(5):
            bindings = {
                "t": rng.uniform(0.1, 0.9),
                "r": rng.uniform(2.5, 4.0),
                "theta": rng.uniform(0.4, 2.0),
                "phi": rng.uniform(0.0, 6.0),
                "M": 1.0,
                "a": 0.7,
            }
            npt.assert_allclose(
                evaluate(e2, bindings), evaluate(e, bindings),
                rtol=1e-15, atol=0,
                err_msg=f"round-trip through {rendered!r} changed the value",
            )

    def test_power_is_right_associative(self):
        e = parse_expr("2^3^2", CHART)
        assert evaluate(e, {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        e = parse_expr("-2^2", CHART)
        assert evaluate(e, {}) == -4.0


class TestParseErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2*/x", ("x",))
        assert exc.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("sin(x", ("x",))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + 1 )", ("x",))
        assert exc.value.offset == 6

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("   ", ("x",))

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + $", ("x",))
        assert exc.value.offset == 4

    def test_undeclared_identifier_named(self):
        with pytest.raises(UndeclaredNameError) as exc:
            parse_expr("x + qq*2", ("x",))
        assert exc.value.name == "qq"
        assert exc.value.offset == 4

    def test_unknown_function_named(self):
        with pytest.raises(UndeclaredNameError) as exc:
            parse_expr("foo(x)", ("x",))
        assert exc.value.name == "foo"


class TestEvaluation:
    def test_log_domain(self):
        e = parse_expr("log(t)", CHART)
        with pytest.raises(DomainError):
            evaluate(e, {"t": -1.0})

    def test_sqrt_domain(self):
        e = parse_expr("sqrt(t)", CHART)
        with pytest.raises(DomainError):
            evaluate(e, {"t": -4.0})

    def test_division_by_zero(self):
        e = parse_expr("1/t", CHART)
        with pytest.raises(DomainError):
            evaluate(e, {"t": 0.0})

    def test_zero_over_zero_not_folded(self):
        # 0/x must not simplify away: at x = 0 it is still an error.
        e = parse_expr("0/t", CHART)
        with pytest.raises(DomainError):
            evaluate(e, {"t": 0.0})

    def test_known_values(self):
        e = parse_expr("sin(theta)^2 + cos(theta)^2", CHART)
        npt.assert_allclose(evaluate(e, {"theta": 1.234}), 1.0, rtol=1e-15)
        e2 = parse_expr("exp(log(r))", CHART)
        npt.assert_allclose(evaluate(e2, {"r": 5.5}), 5.5, rtol=1e-15)

    def test_shared_memo_consistent(self):
        e = parse_expr("sin(r)*cos(r) + sin(r)^2", CHART)
        bindings = {"r": 0.8}
        memo = {}
        v1 = evaluate(e, bindings, memo)
        v2 = evaluate(e, bindings, memo)
        assert v1 == v2
        npt.assert_allclose(
            v1, math.sin(0.8) * math.cos(0.8) + math.sin(0.8) ** 2, rtol=1e-15)


class TestStructure:
    def test_interning_gives_identity(self):
        a = parse_expr("sin(r)^2 + 1", CHART)
        b = parse_expr("sin(r)^2 + 1", CHART)
        assert a is b

    def test_simplification_identities(self):
        x = parse_expr("r", CHART)
        assert parse_expr("r + 0", CHART) is x
        assert parse_expr("0 + r", CHART) is x
        assert parse_expr("r*1", CHART) is x
        assert parse_expr("1*r", CHART) is x
        assert parse_expr("r/1", CHART) is x
        assert parse_expr("r^1", CHART) is x
        assert parse_expr("r*0", CHART).payload == 0.0
        assert parse_expr("-(-r)", CHART) is x

    def test_double_minus_is_syntax_error(self):
        # the grammar allows at most one leading minus per factor
        with pytest.raises(ParseError):
            parse_expr("--r", CHART)

    def test_constant_folding(self):
        e = parse_expr("2*3 + 4^2 - 1", CHART)
        assert e.kind == "const"
        assert e.payload == 21.0

    def test_free_names(self):
        e = parse_expr("sin(theta)*M + r", CHART, PARAMS)
        assert free_names(e) == {"theta", "M", "r"}
