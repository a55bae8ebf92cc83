"""sympy as an independent oracle for the symbolic derivatives.

sympy (a development dependency, skipped where it is missing)
differentiates each metric component of the corpus on its own.  At every
corpus point, ``differentiate`` must give the first and second partials
sympy gives, and the Christoffel symbols the package builds must equal
those assembled from sympy's first partials and a numeric inverse metric.
The Riemann and Weyl tensors ``curvature`` gives must equal those
assembled from sympy's first and second partials, the numeric inverse
metric and ``RIEMANN_SIGN``.
"""

import numpy as np
import pytest

from curvlab.conventions import RIEMANN_SIGN
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import differentiate, evaluate
from curvlab.geometry import curvature

sympy = pytest.importorskip("sympy")

REL_TOL = 1e-12

_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y,
        "^": lambda x, y: x ** y}
_CALLS = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan,
          "sinh": sympy.sinh, "cosh": sympy.cosh, "tanh": sympy.tanh,
          "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt,
          "abs": sympy.Abs}


def to_sympy(e, memo):
    """``e`` as a sympy expression, converting each distinct node once;
    a constant becomes the exact rational of its double."""
    if id(e) not in memo:
        args = [to_sympy(a, memo) for a in e.args]
        if e.kind == "const":
            out = sympy.Rational(e.payload)
        elif e.kind in ("coord", "param"):
            out = sympy.Symbol(e.payload, real=True)
        elif e.kind == "neg":
            out = -args[0]
        elif e.kind == "call":
            out = _CALLS[e.payload](args[0])
        else:
            out = _OPS[e.kind](*args)
        memo[id(e)] = out
    return memo[id(e)]


def relative_errors(ours, reference):
    """|ours - reference| / |reference|, or |ours| where the reference is 0."""
    ours, reference = np.asarray(ours), np.asarray(reference)
    diff = np.abs(ours - reference)
    scale = np.abs(reference)
    return np.where(diff == 0.0, 0.0, diff / np.where(scale == 0.0, 1.0, scale))


@pytest.fixture(scope="module", params=CORPUS_NAMES)
def oracle(request):
    """A corpus metric with its symbols and, per upper-triangle component
    (b, c), sympy's first partials ∂_a g_bc and second partials ∂_d ∂_a
    g_bc as one function of the symbols."""
    m = load_corpus_metric(request.param)
    memo = {}
    g = {(b, c): to_sympy(m.g[b, c], memo)
         for b in range(4) for c in range(b, 4)}
    symbols = [sympy.Symbol(name, real=True)
               for name in (*m.chart, *m.params)]
    x = symbols[:4]
    first = {bc: [sympy.diff(e, xa) for xa in x] for bc, e in g.items()}
    second = {bc: [[sympy.diff(da, xd) for xd in x] for da in row]
              for bc, row in first.items()}
    flat = [e for bc in g for e in (*first[bc], *sum(second[bc], []))]
    return m, g, sympy.lambdify(symbols, flat, "math")


def partials(g, values):
    """sympy's ∂_a g_bc and ∂_a ∂_d g_bc at one point, as arrays indexed
    [a, b, c] and [a, d, b, c], from the oracle's flat list of values."""
    dg = np.empty((4, 4, 4))
    ddg = np.empty((4, 4, 4, 4))
    for k, (b, c) in enumerate(g):
        row = values[20 * k:20 * k + 20]
        dg[:, b, c] = dg[:, c, b] = row[:4]
        ddg[:, :, b, c] = ddg[:, :, c, b] = np.reshape(row[4:], (4, 4))
    return dg, ddg


def reference_curvature(gv, dg, ddg):
    """R_abcd, C_abcd and the size of the terms they sum, from the metric
    and its first and second partials, with the conventions' sign:
    R^a_bcd = RIEMANN_SIGN (∂_c Γ^a_db - ∂_d Γ^a_cb + Γ^a_ce Γ^e_db
    - Γ^a_de Γ^e_cb), R_ab = R^c_acb, R = g^ab R_ab, and the Weyl tensor
    as R_abcd less its Ricci and scalar parts."""
    ginv = np.linalg.inv(gv)
    # Γ_dbc = ∂_b g_dc + ∂_c g_db - ∂_d g_bc and its partials ∂_e Γ_dbc
    low = np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg
    dlow = (np.einsum("ebdc->edbc", ddg) + np.einsum("ecdb->edbc", ddg)
            - ddg)
    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, low)
    dginv = -np.einsum("ap,epq,qd->ead", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("ead,dbc->eabc", dginv, low)
                    + np.einsum("ad,edbc->eabc", ginv, dlow))
    quad = np.einsum("ace,edb->abcd", gamma, gamma)
    rup = RIEMANN_SIGN * (np.einsum("cadb->abcd", dgamma)
                          - np.einsum("dacb->abcd", dgamma)
                          + quad - np.einsum("abdc->abcd", quad))
    riemann = np.einsum("ae,ebcd->abcd", gv, rup)
    ric = np.einsum("cacb->ab", rup)
    scalar = np.einsum("ab,ab->", ginv, ric)
    ricci_part = (np.einsum("ac,db->abcd", gv, ric)
                  - np.einsum("ad,cb->abcd", gv, ric)
                  - np.einsum("bc,da->abcd", gv, ric)
                  + np.einsum("bd,ca->abcd", gv, ric))
    scalar_part = (np.einsum("ac,db->abcd", gv, gv)
                   - np.einsum("ad,cb->abcd", gv, gv))
    weyl = riemann - 0.5 * ricci_part + scalar / 6.0 * scalar_part
    scale = np.max(np.abs(gv)) * max(np.max(np.abs(dgamma)),
                                     np.max(np.abs(quad)))
    return riemann, weyl, scale


class TestDifferentiateAgainstSympy:
    def test_first_and_second_partials_of_every_component(self, oracle):
        m, g, reference = oracle
        ours = []       # in sympy's order
        with m.arena:
            for b, c in g:
                firsts = [differentiate(m.g[b, c], xa) for xa in m.chart]
                ours += firsts
                ours += [differentiate(da, xd)
                         for da in firsts for xd in m.chart]
        for pname, point in sorted(m.points.items()):
            bindings = m.bindings(point)
            values = [evaluate(e, bindings) for e in ours]
            expected = reference(*bindings.values())
            errors = relative_errors(values, expected)
            assert len(errors) == 200
            assert errors.max() <= REL_TOL, (m.name, pname, errors.argmax())

    def test_christoffel_symbols(self, oracle):
        # Γ^a_bc = ½ g^ad (∂_b g_dc + ∂_c g_db - ∂_d g_bc), from sympy's
        # partials and numpy's inverse; compared against the largest
        # component at the point, since a numeric inverse carries an
        # absolute error of that order into every component
        m, g, reference = oracle
        for pname, point in sorted(m.points.items()):
            bindings = m.bindings(point)
            values = reference(*bindings.values())
            dg = np.empty((4, 4, 4))        # dg[a, b, c] = ∂_a g_bc
            for k, (b, c) in enumerate(g):
                dg[:, b, c] = dg[:, c, b] = values[20 * k:20 * k + 4]
            ginv = np.linalg.inv(m.metric_value(point))
            inner = (np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg)
                     - dg)
            expected = 0.5 * np.einsum("ad,dbc->abc", ginv, inner)
            ours = m.evaluate_field(m.christoffel_symbolic(), point)
            assert np.all(ours.imag == 0.0)
            diff = np.max(np.abs(ours.real - expected))
            scale = np.max(np.abs(expected))
            worst = diff / scale if scale else diff
            assert worst <= REL_TOL, (m.name, pname, worst)

    def test_riemann_and_weyl_tensors(self, oracle):
        # compared against the size of the terms each component sums,
        # since on a flat or nearly flat chart the tensor itself is the
        # rounding left by their cancellation
        m, g, reference = oracle
        for pname, point in sorted(m.points.items()):
            bindings = m.bindings(point)
            gv = m.metric_value(point)
            dg, ddg = partials(g, reference(*bindings.values()))
            riemann, weyl, scale = reference_curvature(gv, dg, ddg)
            curv = curvature(m, point)
            for name, ours, expected in (("riemann", curv.riemann, riemann),
                                         ("weyl", curv.weyl, weyl)):
                assert np.all(ours.imag == 0.0), (m.name, pname, name)
                diff = np.max(np.abs(ours.real - expected))
                worst = diff / scale if scale else diff
                assert worst <= REL_TOL, (m.name, pname, name, worst)
