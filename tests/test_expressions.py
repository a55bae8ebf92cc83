import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import (
    FUNCTIONS,
    ZERO,
    add,
    call,
    const,
    coord,
    div,
    mul,
    neg,
    param,
    pow_,
    DerivativeError,
    DomainError,
    ExprError,
    ParseError,
    Tape,
    UndeclaredNameError,
    _DIFF_MEMO,
    differentiate,
    evaluate,
    free_names,
    parse_expr,
    sub,
    to_string,
)
from curvlab.geometry import SymbolicTensor

from conftest import metric_from_strings, reference_evaluate

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

    def test_constant_exponent_is_not_differentiated(self):
        # the memo holds the (node, variable) pairs whose derivatives a
        # derivative reads: a constant exponent's is never read
        e = parse_expr("r^3.0625", CHART, PARAMS)
        differentiate(e, "r")
        assert (id(e.args[0]), "r") in _DIFF_MEMO
        assert (id(e.args[1]), "r") not in _DIFF_MEMO

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

    def test_roots_sharing_nodes_read_one_value_list(self):
        # sin(r) and its products are shared: one slot each, and both
        # roots read the one value list
        e = parse_expr("sin(r)*cos(r) + sin(r)^2", CHART)
        f = parse_expr("sin(r)^2", CHART)
        bindings = {"r": 0.8}
        tape = Tape()
        roots = tape.add([e, f])
        values = []
        v1, v2 = tape.run(values, bindings, roots, len(tape.nodes))
        assert len(values) == len(tape.nodes)
        assert [values[s] for s in roots] == [v1, v2]
        assert v1 == evaluate(e, bindings) == reference_evaluate(e, bindings)
        assert v2 == evaluate(f, bindings)
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

    def test_free_names_visits_a_shared_node_once(self):
        # 60 squarings make a DAG of 61 nodes and 2^60 root-to-leaf
        # paths; the child process turns a walk over paths into a timeout
        # rather than a hung suite
        script = (
            "from curvlab.expressions import coord, free_names, mul\n"
            "e = coord('t')\n"
            "for _ in range(60):\n"
            "    e = mul(e, e)\n"
            "print(sorted(free_names(e)))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['t']"

    def test_interning_tells_apart_ops_order_and_kinds(self):
        a, b = coord("r"), param("M")
        binaries = [f(a, b) for f in (add, sub, mul, div, pow_)]
        assert len({id(e) for e in binaries}) == 5
        assert [e.kind for e in binaries] == ["+", "-", "*", "/", "^"]
        assert add(a, b) is not add(b, a)
        assert coord("M") is not param("M")
        x = coord("t")
        unary = [neg(x)] + [call(f, x) for f in FUNCTIONS]
        assert len({id(e) for e in unary}) == 1 + len(FUNCTIONS)
        assert call("sin", x) is not call("cos", x)
        # the same operands and op give the same node, whatever builds it
        assert add(a, b) is parse_expr("r + M", CHART, PARAMS)
        assert call("sin", x) is parse_expr("sin(t)", CHART)

    def test_negative_zero_is_zero(self):
        assert const(-0.0) is const(0.0) is ZERO
        assert const(2) is const(2.0)

    def test_nodes_are_immutable(self):
        e = parse_expr("r + t", CHART)
        with pytest.raises(AttributeError):
            e.kind = "-"
        assert e.kind == "+"

    def test_subtracting_zero_is_identity(self):
        # what lets the covariant derivative skip a ZERO correction
        for text in ("sin(r)*M", "2.5", "-0.0", "0"):
            e = parse_expr(text, CHART, PARAMS)
            assert sub(e, ZERO) is e

    def test_corpus_run_leaves_the_pinned_table_sizes(self):
        # machine-independent build-size guard: the intern table and the
        # derivative memo after analysing every corpus point in a fresh
        # process.  A change that moves these counts re-pins them.
        script = (
            "from curvlab import expressions\n"
            "from curvlab.analysis import run_analysis\n"
            "from curvlab.corpus import CORPUS_NAMES, load_corpus_metric\n"
            "for name in CORPUS_NAMES:\n"
            "    run_analysis(load_corpus_metric(name))\n"
            "print(len(expressions._INTERN), len(expressions._DIFF_MEMO))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        interned, memo = map(int, done.stdout.split())
        assert (interned, memo) == (20_118, 15_060)


# ---------------------------------------------------------------------------
# the tape: the reference interpreter's doubles and errors
# ---------------------------------------------------------------------------

def signed(values):
    """Values paired with their sign, so that -0.0 and 0.0 differ."""
    return [(v, math.copysign(1.0, v)) for v in values]


def cached_fields(m):
    """Every curvature field the analysis evaluates at a point, the
    scalar curvature as a rank-0 field, and the partial derivatives of
    the declared null legs that scale the null-field probes."""
    k_dn = m.lowered_vector_field(m.tetrad.k)
    l_dn = m.lowered_vector_field(m.tetrad.l)
    return {
        "g": m._g_field, "christoffel": m.christoffel_symbolic(),
        "riemann": m.riemann_field(), "riemann_up": m.riemann_up_symbolic(),
        "ricci": m.ricci_field(), "scalar": m.scalar_field(),
        "weyl": m.weyl_field(),
        "nabla_riemann": m.nabla_field("riemann", 1),
        "nabla2_riemann": m.nabla_field("riemann", 2),
        "nabla2_weyl": m.nabla_field("weyl", 2),
        "nabla2_ricci": m.nabla_field("ricci", 2),
        "partial_k": m.partial_gradient_field(k_dn),
        "partial_l": m.partial_gradient_field(l_dn),
    }


class TestTapeMatchesInterpreter:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_bit_identical_on_the_corpus(self, name):
        # the metric's one tape, from its first point on, against the
        # reference interpreter with one memo per point
        m = load_corpus_metric(name)
        fields = cached_fields(m)
        for pname, point in sorted(m.points.items()):
            b = m.bindings(point)
            memo = {}
            for key, t in fields.items():
                comps = t.components.ravel()
                want = [reference_evaluate(e, b, memo) for e in comps]
                got = m.evaluate_field(t, point).array.ravel()
                assert not got.imag.any(), (pname, key)
                assert signed(got.real) == signed(want), (pname, key)

    def test_signed_zero_survives(self):
        e = parse_expr("-(t*0.5)", CHART)
        got = evaluate(e, {"t": 0.0})
        want = reference_evaluate(e, {"t": 0.0})
        assert signed([got]) == signed([want]) == [(0.0, -1.0)]


# (component, first point's t, second point's t): fine at the first
# point, out of domain at the second
DOMAIN_CASES = {
    "division by zero": ("1/(t - 1)", 2.0, 1.0),
    "log of a non-positive value": ("log(t)", 2.0, -1.0),
    "sqrt of a negative value": ("sqrt(t)", 2.0, -4.0),
    "complex power": ("t^0.5", 2.0, -4.0),
    "overflow that vanishes": ("1/(t*1e200*1e200)", 1e-300, 1.0),
}


def fresh_minkowski():
    """A Minkowski metric of its own, so that its tape holds only g."""
    return metric_from_strings("minkowski", ("t", "x", "y", "z"),
                               ["1", "-1", "-1", "-1"])


def vector(m, texts):
    comps = [parse_expr(text, m.chart) for text in texts]
    return SymbolicTensor(np.array(comps, dtype=object), ("u",))


def reference_error(e, bindings):
    with pytest.raises(ExprError) as raised:
        reference_evaluate(e, bindings)
    return raised.value


class TestTapeFallback:
    def field(self, text, m):
        return vector(m, [text, "t + 1", "0", "0"])

    def assert_raises_like_the_reference(self, m, field, point):
        want = reference_error(field.components[0], m.bindings(point))
        with pytest.raises(DomainError) as taped:
            m.evaluate_field(field, point)
        assert type(taped.value) is type(want)
        assert str(taped.value) == str(want)
        assert taped.value.expression is want.expression

    @pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
    def test_first_point_raises_the_interpreters_error(self, case):
        text, t_ok, t_bad = DOMAIN_CASES[case]
        m = fresh_minkowski()
        field = self.field(text, m)
        bad = (t_bad, 0.0, 0.0, 0.0)
        self.assert_raises_like_the_reference(m, field, bad)
        assert field.slots[0] is m.tape
        # the same point again, then a good one
        self.assert_raises_like_the_reference(m, field, bad)
        got = m.evaluate_field(field, (t_ok, 0.0, 0.0, 0.0)).array
        assert got[1] == t_ok + 1
        with pytest.raises(DomainError):
            evaluate(field.components[0], m.bindings(bad))

    @pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
    def test_second_point_raises_the_interpreters_error(self, case):
        text, t_ok, t_bad = DOMAIN_CASES[case]
        m = fresh_minkowski()
        field = self.field(text, m)
        m.evaluate_field(field, (t_ok, 0.0, 0.0, 0.0))
        size = len(m.tape.nodes)
        self.assert_raises_like_the_reference(m, field, (t_bad, 0.0, 0.0, 0.0))
        assert len(m.tape.nodes) == size

    def test_bad_node_of_an_earlier_field_spares_a_later_one(self):
        # the later field's block runs over the earlier field's slots;
        # it reads none of them, so it is served, and the bad field
        # still raises the reference's error
        m = fresh_minkowski()
        early = self.field("1/(t - 1)", m)
        late = vector(m, ["t*x + 2", "sqrt(x)", "0", "1"])
        for t in (early, late):
            m.evaluate_field(t, (2.0, 4.0, 0.0, 0.0))
        assert max(early.slots[1]) < min(late.slots[1][:2])
        bad = (1.0, 4.0, 0.0, 0.0)
        got = m.evaluate_field(late, bad).array
        assert list(got) == [6.0, 2.0, 0.0, 1.0]
        assert m.at(bad).values == []
        self.assert_raises_like_the_reference(m, early, bad)
        assert m.evaluate_field(late, bad).array is got

    def test_overflowing_sum_falls_back_to_finite_values(self, monkeypatch):
        # each value is finite, their sum is not: the checked steps
        # return the values
        m = fresh_minkowski()
        field = self.field("t*1.7e308", m)
        m.evaluate_field(field, (0.5, 0.0, 0.0, 0.0))
        checked = []
        original = Tape.checked

        def counting(self, *args):
            checked.append(args)
            return original(self, *args)

        monkeypatch.setattr(Tape, "checked", counting)
        got = m.evaluate_field(field, (1.0, 0.0, 0.0, 0.0)).array
        assert got[0] == 1.7e308 and got[1] == 2.0
        assert len(checked) == 1
        assert evaluate(field.components[0], {"t": 1.0}) == 1.7e308

    def test_missing_binding_is_the_interpreters_error(self):
        e = parse_expr("t*r", CHART)
        want = reference_error(e, {"t": 1.0})
        with pytest.raises(ExprError, match="missing binding for 'r'") as got:
            evaluate(e, {"t": 1.0})
        assert str(got.value) == str(want)


class TestTapeBuild:
    def test_deep_expression_builds_without_recursion(self):
        # 3000 chained terms exceed the recursion depth of the reference
        # interpreter; the tape is built and run by loops
        assert sys.getrecursionlimit() < 3000
        coeffs = [1e-4 * (i + 1) for i in range(3000)]
        e = parse_expr(" + ".join(f"{c!r}*t" for c in coeffs), CHART)
        with pytest.raises(RecursionError):
            reference_evaluate(e, {"t": 0.3})
        want = coeffs[0] * 0.3
        for c in coeffs[1:]:
            want = want + c * 0.3
        assert evaluate(e, {"t": 0.3}) == want
        tape = Tape()
        assert list(tape.add([e])) == [len(tape.nodes) - 1]

    def test_deep_expression_differentiates_and_prints_without_recursion(self):
        coeffs = [1e-4 * (i + 1) for i in range(3000)]
        e = parse_expr(" + ".join(f"{c!r}*t^2" for c in coeffs), CHART)
        d = differentiate(e, "t")
        want = 2 * coeffs[0] * 0.3
        for c in coeffs[1:]:
            want = want + 2.0 * c * 0.3
        assert evaluate(d, {"t": 0.3}) == want
        text = to_string(e)
        assert text.startswith("0.0001*t^2.0 + 0.0002*t^2.0 + ")
        assert text.count("+") == 2999 and "(" not in text

    def test_shared_nodes_appear_once(self):
        e = parse_expr("sin(t)*sin(t) + sin(t)", CHART)
        tape = Tape()
        slots = tape.add([e, e])
        # t, then sin(t), the product and the sum; no constants
        assert tape.nodes[0] is parse_expr("t", CHART) and len(tape.nodes) == 4
        assert list(slots) == [3, 3]
        assert list(tape.add([parse_expr("sin(t)", CHART), e])) == [1, 3]
        assert len(tape.nodes) == 4
        values = []
        assert tape.run(values, {"t": 0.7}, [3], 4) == [evaluate(e, {"t": 0.7})]
        assert len(values) == 4
