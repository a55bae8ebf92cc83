import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from curvlab.analysis import analyze_point
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
    Arena,
    UndeclaredNameError,
    differentiate,
    evaluate,
    parse_expr,
    sub,
    to_string,
)
from curvlab.geometry import MetricField, SymbolicTensor
from curvlab.metricfile import parse_metric_text

from conftest import metric_from_strings, reference_evaluate, reference_values

ROOT = Path(__file__).resolve().parents[1]
CHART = ("t", "r", "theta", "phi")
PARAMS = ("M", "a")


def fd_derivative(expr, var, bindings, step=1e-5):
    """Independent check: symmetric finite difference of the evaluator."""
    up = dict(bindings)
    dn = dict(bindings)
    up[var] += step
    dn[var] -= step
    return (evaluate(expr, up) - evaluate(expr, dn)) / (2 * step)


def run_script(script):
    """The standard output of ``script``, run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
        with Arena() as arena:
            e = parse_expr("r^3.0625", CHART, PARAMS)
            differentiate(e, "r")
        assert e.args[0].slot in arena.derivs["r"]
        assert e.args[1].slot not in arena.derivs["r"]

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
        with Arena() as arena:
            e = parse_expr("sin(r)*cos(r) + sin(r)^2", CHART)
            f = parse_expr("sin(r)^2", CHART)
        bindings = {"r": 0.8}
        roots = [e.slot, f.slot]
        values, clean = arena.run(bindings)
        assert clean == len(values) == len(arena.nodes)
        v1, v2 = values[roots].tolist()
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

    def test_nodes_are_made_in_the_order_of_recursive_descent(self):
        # creation order is slot order: the parser makes each operand's
        # nodes before the node that combines them, left operand first
        with Arena() as arena:
            parse_expr("sin(t)*r + -(r - t)^2^t/M - (t)", CHART, PARAMS)
        assert [to_string(n) for n in arena.nodes[2:]] == [
            "t", "sin(t)", "r", "sin(t)*r", "r - t", "2.0", "2.0^t",
            "(r - t)^2.0^t", "-(r - t)^2.0^t", "M", "-(r - t)^2.0^t/M",
            "sin(t)*r + -(r - t)^2.0^t/M",
            "sin(t)*r + -(r - t)^2.0^t/M - t"]

    def test_double_minus_is_syntax_error(self):
        # the grammar allows at most one leading minus per factor
        with pytest.raises(ParseError):
            parse_expr("--r", CHART)

    def test_constant_folding(self):
        e = parse_expr("2*3 + 4^2 - 1", CHART)
        assert e.kind == "const"
        assert e.payload == 21.0

    @pytest.mark.parametrize("text, message", (
        ("(-2)^0.5", "power produced a complex value in '(-2.0)^0.5'"),
        ("1e308*10", "overflow in '1e+308*10.0'"),
        ("1e308 + 1e308", "overflow in '1e+308 + 1e+308'"),
        ("-1e308 - 1e308", "overflow in '-1e+308 - 1e+308'"),
        ("1e308/0.5", "overflow in '1e+308/0.5'"),
        ("exp(1e400)", "overflow in 'inf'"),
        ("1e400", "overflow in 'inf'"),
    ))
    def test_folding_makes_only_finite_real_constants(self, text, message):
        # a fold that leaves the finite reals builds its node, so that
        # evaluation names it; a literal out of range stays a constant
        e = parse_expr(text, CHART)
        assert (e.kind == "const") == (text == "1e400")
        with pytest.raises(DomainError) as err:
            evaluate(e, {})
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ("0*(-2)^0.5", "0*sqrt(-1)",
                                      "0*(1e308*10)", "1e400*0"))
    def test_zero_times_an_unfolded_constant_is_zero(self, text):
        assert parse_expr(text, CHART) is ZERO

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
        # machine-independent build-size guard: the nodes and the
        # derivative-memo entries of every arena after analysing every
        # corpus point in a fresh process, each metric kept alive.  A
        # change that moves these counts re-pins them.
        script = (
            "from curvlab import expressions\n"
            "from curvlab.analysis import run_analysis\n"
            "from curvlab.corpus import CORPUS_NAMES, load_corpus_metric\n"
            "kept = []\n"
            "for name in CORPUS_NAMES:\n"
            "    kept.append(load_corpus_metric(name))\n"
            "    run_analysis(kept[-1])\n"
            "print(*expressions.table_sizes())\n")
        interned, memo = map(int, run_script(script).split())
        assert (interned, memo) == (20_269, 15_376)


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
                got = m.evaluate_field(t, point).ravel()
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
    "power overflow": ("t^400", 2.0, 10.0),
    "exp overflow": ("exp(t)", 2.0, 1000.0),
    "zero to a negative power": ("t^(-1)", 2.0, 0.0),
}


def fresh_minkowski():
    """A Minkowski metric of its own, so that its tape holds only g."""
    return metric_from_strings("minkowski", ("t", "x", "y", "z"),
                               ["1", "-1", "-1", "-1"])


def vector(m, texts):
    with m.arena:
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
        assert field.slots[0] is m.arena
        # the same point again, then a good one
        self.assert_raises_like_the_reference(m, field, bad)
        got = m.evaluate_field(field, (t_ok, 0.0, 0.0, 0.0))
        assert got[1] == t_ok + 1
        with pytest.raises(DomainError):
            evaluate(field.components[0], m.bindings(bad))

    @pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
    def test_second_point_raises_the_interpreters_error(self, case):
        text, t_ok, t_bad = DOMAIN_CASES[case]
        m = fresh_minkowski()
        field = self.field(text, m)
        m.evaluate_field(field, (t_ok, 0.0, 0.0, 0.0))
        size = len(m.arena.nodes)
        self.assert_raises_like_the_reference(m, field, (t_bad, 0.0, 0.0, 0.0))
        assert len(m.arena.nodes) == size

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
        got = m.evaluate_field(late, bad)
        assert list(got) == [6.0, 2.0, 0.0, 1.0]
        assert m.at(bad).clean == early.components[0].slot
        self.assert_raises_like_the_reference(m, early, bad)
        assert m.evaluate_field(late, bad) is got

    def test_overflowing_sum_falls_back_to_finite_values(self, monkeypatch):
        # each value is finite, their sum is not: the run is clean, and
        # no checked step is needed to return the values
        m = fresh_minkowski()
        field = self.field("t*1.7e308", m)
        m.evaluate_field(field, (0.5, 0.0, 0.0, 0.0))
        checked = []
        original = Arena.checked

        def counting(self, *args):
            checked.append(args)
            return original(self, *args)

        monkeypatch.setattr(Arena, "checked", counting)
        got = m.evaluate_field(field, (1.0, 0.0, 0.0, 0.0))
        assert got[0] == 1.7e308 and got[1] == 2.0
        assert len(checked) == 0
        assert evaluate(field.components[0], {"t": 1.0}) == 1.7e308

    def test_missing_binding_is_the_interpreters_error(self):
        e = parse_expr("t*r", CHART)
        want = reference_error(e, {"t": 1.0})
        with pytest.raises(ExprError, match="missing binding for 'r'") as got:
            evaluate(e, {"t": 1.0})
        assert str(got.value) == str(want)


def gathered_field(m):
    """A rank-2 field of 16 components over 5 distinct slots: repeated
    nodes, ZERO components and negated nodes."""
    with m.arena:
        a = parse_expr("t*x - y", m.chart)
        b = parse_expr("x*y*0.5", m.chart)
        rows = [[a, neg(a), ZERO, b],
                [neg(b), a, a, ZERO],
                [ZERO, ZERO, neg(a), b],
                [b, neg(b), a, ZERO]]
    return SymbolicTensor(np.array(rows, dtype=object), ("d", "d"))


def reference_field(t, bindings):
    memo = {}
    return np.array([complex(reference_evaluate(e, bindings, memo))
                     for e in t.components.ravel()],
                    dtype=np.complex128).reshape(t.components.shape)


class TestDistinctSlotGather:
    """A field whose components repeat, negate and leave out slots is
    one gather of its component slots' values."""

    def test_gather_equals_the_reference_bytes_at_first_and_later_points(
            self):
        # a = t*x - y is +0.0 at the first point, so -a is -0.0; at the
        # later one b = x*y*0.5 is -0.0 and -b is +0.0
        m = fresh_minkowski()
        field = gathered_field(m)
        for point in ((1.0, 2.0, 2.0, 3.0), (0.5, -1.0, 0.0, 0.0)):
            got = m.evaluate_field(field, point)
            want = reference_field(field, m.bindings(point))
            assert got.dtype == np.complex128 and got.shape == (4, 4)
            assert got.tobytes() == want.tobytes(), point
            assert m.evaluate_field(field, list(point)) is got
        assert signed(got.real.ravel()[[3, 4]]) == [(-0.0, -1.0), (0.0, 1.0)]
        arena, slots, end = m.place(field)
        assert slots.dtype == np.intp and slots.shape == (4, 4)
        assert slots.tolist() == [[e.slot for e in row]
                                  for row in field.components]

    def test_a_rank_0_field_is_a_0_d_array(self):
        m = fresh_minkowski()
        with m.arena:
            e = parse_expr("t*x - y", m.chart)
        field = SymbolicTensor(np.array(e, dtype=object), ())
        for point in ((1.0, 2.0, 3.0, 0.0), (2.0, 2.0, 1.0, 0.0)):
            got = m.evaluate_field(field, point)
            assert type(got) is np.ndarray and got.shape == ()
            assert got.dtype == np.complex128
            assert got == reference_evaluate(e, m.bindings(point))

    def test_values_are_one_float_array_after_every_run(self, monkeypatch):
        # clean runs at a first and a later point, and a point whose whole
        # run meets a value out of domain
        runs = []
        original = Arena.run

        def recording(self, bindings):
            v, clean = original(self, bindings)
            runs.append((type(v), v.dtype, len(v) == len(self.nodes),
                         clean == len(v)))
            return v, clean

        monkeypatch.setattr(Arena, "run", recording)
        m = load_corpus_metric("schwarzschild")
        for pname in ("p0", "p1"):
            analyze_point(m, pname)
            ctx = m.at(m.points[pname])
            assert type(ctx.values) is np.ndarray, pname
            assert ctx.values.dtype == np.float64, pname
            assert ctx.clean == len(ctx.values), pname
        assert m.arena.program[0] == len(m.arena.nodes)
        assert set(runs) == {(np.ndarray, np.dtype(float), True, True)}
        runs.clear()
        with m.arena:
            dead = parse_expr("log(t - 5)", m.chart)
        live = vector(m, ["t + 1", "r*2", "0", "1"])
        ctx = m.at((0.0, 3.0, 1.0, 0.5))
        assert list(m.evaluate_field(live, ctx.point)) == [1, 6, 0, 1]
        assert runs == [(np.ndarray, np.dtype(float), True, False)]
        assert type(ctx.values) is np.ndarray
        assert len(ctx.values) == len(m.arena.nodes)
        assert ctx.clean == dead.slot < live.components[0].slot


class TestCheckedFields:
    def test_a_dead_node_sends_only_later_fields_to_checked_steps(
            self, monkeypatch):
        # log(t - 5) lies between the two fields' slots and is out of
        # domain at t = 0.  The run over the whole arena meets it there,
        # the field above it is recomputed checked, and the one below it
        # is gathered from the run
        m = fresh_minkowski()
        early = vector(m, ["t + 1", "x*2", "0", "1"])
        with m.arena:
            dead = parse_expr("log(t - 5)", m.chart)
        late = vector(m, ["t*x", "x - 3", "0", "y"])
        checked = []
        original = Arena.checked

        def counting(self, *args):
            checked.append(args)
            return original(self, *args)

        monkeypatch.setattr(Arena, "checked", counting)
        point = (0.0, 1.5, 0.0, 0.0)
        assert list(m.evaluate_field(late, point)) == [0.0, -1.5, 0.0, 0.0]
        ctx = m.at(point)
        assert ctx.clean == dead.slot and len(checked) == 1
        assert len(ctx.values) == len(m.arena.nodes)
        assert list(m.evaluate_field(early, point)) == [1.0, 3.0, 0.0, 1.0]
        assert m.place(early)[2] <= dead.slot
        bindings = m.bindings(point)
        assert ctx.values[:dead.slot].tolist() == [
            reference_evaluate(e, bindings) for e in m.arena.nodes[:dead.slot]]
        assert len(checked) == 1
        with pytest.raises(DomainError, match="log of a non-positive"):
            evaluate(dead, bindings)


def float_bytes(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


# (components of a field, its first good t, its second good t, the bad
# t): a / group with a zero divisor, log of a negative value, a power
# that turns complex and an overflowing product
BATCHED_FAILURES = {
    "division by zero": (["1/(t - 1)", "x/(t - 1)", "t + 1", "0"],
                         2.0, 3.0, 1.0),
    "log of a negative value": (["log(t)", "t*x", "t + 1", "0"],
                                2.0, 3.0, -1.0),
    "complex power": (["t^0.5", "t*x", "t + 1", "0"], 2.0, 3.0, -4.0),
    "overflowing product": (["t*x*1e300", "t*x", "t + 1", "0"],
                            2.0, 3.0, 1e10),
}


@pytest.fixture
def runs(monkeypatch):
    """The arena length of every ``Arena.run``."""
    calls = []
    original = Arena.run

    def counting(self, bindings):
        calls.append(len(self.nodes))
        return original(self, bindings)

    monkeypatch.setattr(Arena, "run", counting)
    return calls


class TestBatchedRun:
    """Each run of a whole arena, as numpy batches, gives every slot the
    reference interpreter's float64 bytes, and fails where it fails, with
    the same error, and checked steps only for the fields that read a
    value out of domain."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_every_slot_is_the_interpreters_on_the_corpus(self, name):
        m = load_corpus_metric(name)
        analyze_point(m, min(m.points), cross_validate=True)
        for pname, point in sorted(m.points.items()):
            bindings = m.bindings(point)
            batched, clean = m.arena.run(bindings)
            assert clean == len(batched) == len(m.arena.nodes), pname
            assert float_bytes(batched) == float_bytes(
                reference_values(m.arena, bindings)), pname
        assert m.arena.program[0] == len(m.arena.nodes)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_later_points_of_the_corpus_run_batched(self, runs, name):
        # each later point runs the whole arena once, as numpy batches
        # (ppwave_linear's 231 slots as well as Schwarzschild's 22,074)
        m = load_corpus_metric(name)
        names = sorted(m.points)
        analyze_point(m, names[0], cross_validate=True)
        for pname in names[1:]:
            runs.clear()
            analyze_point(m, pname, cross_validate=True)
            assert runs == [len(m.arena.nodes)], pname

    def test_the_grid_scan_arena_runs_batched_and_bit_for_bit(
            self, monkeypatch, runs):
        # the benchmark's grid_scan input: product2x2 at many points of
        # one build, whose ufunc groups average about 22 slots
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        req = workloads.make_request("grid_scan", 1, ROOT / "src")
        (name, text), = req["texts"]
        m = parse_metric_text(text, name)
        names = sorted(m.points)[:10]
        for pname in names:
            runs.clear()
            analyze_point(m, pname)
            assert runs == [len(m.arena.nodes)], pname
        for pname in names:
            bindings = m.bindings(m.points[pname])
            batched, _ = m.arena.run(bindings)
            assert float_bytes(batched) == float_bytes(
                reference_values(m.arena, bindings)), pname

    @pytest.mark.parametrize("case", sorted(BATCHED_FAILURES))
    def test_failures_are_the_interpreters(self, monkeypatch, case):
        texts, first, second, bad = BATCHED_FAILURES[case]
        checked = []
        original = Arena.checked

        def counting(self, *args):
            checked.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(Arena, "checked", counting)
        m = fresh_minkowski()
        field = vector(m, texts)
        late = vector(m, ["t*x - 2", "x + 2", "0", "1"])
        for t in (first, second):
            for f in (field, late):
                m.evaluate_field(f, (t, 1.5, 0.0, 0.0))
        assert checked == []
        point = (bad, 1.5, 0.0, 0.0)
        with pytest.raises(DomainError) as raised:
            m.evaluate_field(field, point)
        want = reference_error(field.components[0], m.bindings(point))
        assert str(raised.value) == str(want)
        got = m.evaluate_field(late, point)     # checked: it lies above
        assert got.tobytes() == reference_field(late, m.bindings(point)).tobytes()
        ctx = m.at(point)
        assert ctx.clean == field.components[0].slot
        assert len(ctx.values) == len(m.arena.nodes)
        assert checked == [ctx.clean] * 2


class TestTapeBuild:
    def test_deep_expression_builds_without_recursion(self):
        # 3000 chained terms exceed the recursion depth of the reference
        # interpreter; the tape is built and run by loops
        assert sys.getrecursionlimit() < 3000
        coeffs = [1e-4 * (i + 1) for i in range(3000)]
        with Arena() as arena:
            e = parse_expr(" + ".join(f"{c!r}*t" for c in coeffs), CHART)
        with pytest.raises(RecursionError):
            reference_evaluate(e, {"t": 0.3})
        want = coeffs[0] * 0.3
        for c in coeffs[1:]:
            want = want + c * 0.3
        assert evaluate(e, {"t": 0.3}) == want
        assert e.slot == len(arena.nodes) - 1

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
        with Arena() as arena:
            e = parse_expr("sin(t)*sin(t) + sin(t)", CHART)
            # ZERO and ONE, then t, sin(t), the product and the sum
            assert arena.nodes[:2] == [ZERO, const(1.0)]
            assert arena.nodes[2] is parse_expr("t", CHART)
            assert len(arena.nodes) == 6 and e.slot == 5
            assert parse_expr("sin(t)", CHART).slot == 3
            assert parse_expr("sin(t)*sin(t) + sin(t)", CHART) is e
        assert len(arena.nodes) == 6
        values, clean = arena.run({"t": 0.7})
        assert clean == 6 and values[5] == evaluate(e, {"t": 0.7})
        assert len(values) == 6


# ---------------------------------------------------------------------------
# arenas: one per metric, freed with it, never mixed
# ---------------------------------------------------------------------------

# analyses pp-waves with random profiles, one at a time, each dropped
# before the next: the live tables must only ever be the default arena's
# and the one live metric's, and return to the default arena's at the end
PPWAVES_SCRIPT = '''
import random
from curvlab import expressions
from curvlab.analysis import analyze_point
from curvlab.metricfile import parse_metric_text

TEXT = """
[chart]
coords = u, v, x, y
[metric]
g00 = {h}
g01 = 1
g02 = 0
g03 = 0
g11 = 0
g12 = 0
g13 = 0
g22 = -1
g23 = 0
g33 = -1
[tetrad]
k    = 0, 1, 0, 0
l    = 1, -({h})/2, 0, 0
m_re = 0, 0, 1/sqrt(2), 0
m_im = 0, 0, 0, 1/sqrt(2)
[points]
p0 = 0.3, 0.0, 0.7, -0.4
"""

rng = random.Random(0)


def profile():
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = rng.choice([0.5, 1.0, 1.5, 2.0, -1.0])
        i, j, k = (rng.randint(0, 2) for _ in range(3))
        f = rng.choice(["", "*sin(x)", "*cos(y)", "*exp(u/4)"])
        terms.append(f"{c}*u^{i}*x^{j}*y^{k}{f}")
    return " + ".join(terms)


base = expressions.table_sizes()
largest = (0, 0)
for n in range(100):
    m = parse_metric_text(TEXT.format(h=profile()), f"wave{n}")
    analyze_point(m, "p0")
    own = (len(m.arena.nodes), sum(map(len, m.arena.derivs.values())))
    assert expressions.table_sizes() == (base[0] + own[0], base[1] + own[1])
    largest = max(largest, own)
    del m
print(*base, *largest, *expressions.table_sizes())
'''


class TestArenas:
    def test_a_dropped_metric_frees_its_arena(self):
        m = load_corpus_metric("ppwave_linear")
        m.evaluate_field(m.nabla_field("riemann", 2), m.points["p0"])
        arena = weakref.ref(m.arena)
        del m
        gc.collect()
        assert arena() is None

    def test_many_metrics_leave_the_tables_of_none(self):
        base_nodes, base_memo, nodes, memo, end_nodes, end_memo = map(
            int, run_script(PPWAVES_SCRIPT).split())
        assert nodes > 100 and memo > 100
        assert (end_nodes, end_memo) == (base_nodes, base_memo)

    def test_a_node_of_another_metric_is_refused(self):
        a, b = fresh_minkowski(), fresh_minkowski()
        field = vector(a, ["t*x", "y + 3", "0", "1"])
        # b holds a node at each of the field's slots, so a field read
        # there would get b's values
        vector(b, ["sin(t)*z", "x - y", "z/2", "y^2"])
        assert max(e.slot for e in field.components) < len(b.arena.nodes)
        point = (2.0, 3.0, 5.0, 7.0)
        with pytest.raises(ExprError) as raised:
            b.evaluate_field(field, point)
        assert "\n" not in str(raised.value)
        assert "another arena" in str(raised.value)
        assert list(a.evaluate_field(field, point)) == [6, 8, 0, 1]
        with pytest.raises(ExprError, match="another arena"):
            b.evaluate_field(field, point)
        with pytest.raises(ExprError, match="another arena"):
            b.lowered_vector_field(field)
        with b.arena:
            with pytest.raises(ExprError, match="another arena"):
                mul(field.components[0], coord("t"))
            with pytest.raises(ExprError, match="another arena"):
                differentiate(field.components[0], "t")
        with pytest.raises(ExprError, match="another arena"):
            MetricField("mixed", a.chart, a.g, arena=b.arena)

    def test_a_dead_node_out_of_domain_raises_nothing(self):
        # log(t - 5) sits below the live field's slots, and is out of
        # domain at t = 0: the unchecked run meets it, and the checked
        # steps recompute only what the live field reads
        m = fresh_minkowski()
        with m.arena:
            dead = parse_expr("log(t - 5)", m.chart)
        live = vector(m, ["t + 1", "x*2", "0", "1"])
        assert dead.slot < live.components[0].slot
        point = (0.0, 1.5, 0.0, 0.0)
        assert list(m.evaluate_field(live, point)) == [1, 3, 0, 1]
        assert m.at(point).clean == dead.slot
        assert m.metric_value(point)[0, 0] == 1.0
        with pytest.raises(DomainError, match="log of a non-positive"):
            evaluate(dead, m.bindings(point))
