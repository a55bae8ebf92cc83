"""Shared fixtures: small hand-built metrics used across the test suite.

These are constructed directly from expression strings (independently of
the metric-file loader, which has its own tests) so that low-level
modules can be exercised before the I/O layer exists.
"""

import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np
import pytest

from curvlab.conventions import SCALE_FLOOR
from curvlab.expressions import (FUNCTIONS, ZERO, Arena, DomainError,
                                 ExprError, ParseError, UndeclaredNameError,
                                 add, call, const, coord, div, mul, neg,
                                 param, parse_expr, pow_, sub)
from curvlab.geometry import MetricField, SymbolicTensor
from curvlab.newman_penrose import NullTetrad, _clusters, pnd_roots
from curvlab.spinors import raise_slot

PI = math.pi


# ---------------------------------------------------------------------------
# numeric helpers the analysis itself does not need
# ---------------------------------------------------------------------------

def reference_evaluate(e, bindings, memo=None):
    """An independent reference for the tape: the recursive interpreter
    the package used to evaluate with.  It walks the DAG depth first,
    arguments left to right but a quotient's denominator first, keeps
    each node's value in ``memo`` (keyed by node id: nodes are interned),
    and raises ``DomainError`` at the first node out of domain.  It
    recurses once per level of nesting."""
    if memo is None:
        memo = {}
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kind = e.kind
    if kind == "const":
        v = e.payload
    elif kind in ("coord", "param"):
        try:
            v = float(bindings[e.payload])
        except KeyError:
            raise ExprError(f"missing binding for '{e.payload}'") from None
    elif kind == "neg":
        v = -reference_evaluate(e.args[0], bindings, memo)
    elif kind == "+":
        v = (reference_evaluate(e.args[0], bindings, memo)
             + reference_evaluate(e.args[1], bindings, memo))
    elif kind == "-":
        v = (reference_evaluate(e.args[0], bindings, memo)
             - reference_evaluate(e.args[1], bindings, memo))
    elif kind == "*":
        v = (reference_evaluate(e.args[0], bindings, memo)
             * reference_evaluate(e.args[1], bindings, memo))
    elif kind == "/":
        denom = reference_evaluate(e.args[1], bindings, memo)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        v = reference_evaluate(e.args[0], bindings, memo) / denom
    elif kind == "^":
        base = reference_evaluate(e.args[0], bindings, memo)
        exponent = reference_evaluate(e.args[1], bindings, memo)
        try:
            v = base ** exponent
        except OverflowError:
            raise DomainError("overflow", e) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"invalid power: {exc}", e) from None
        if isinstance(v, complex):
            raise DomainError("power produced a complex value", e)
    elif kind == "call":
        u = reference_evaluate(e.args[0], bindings, memo)
        fname = e.payload
        if fname == "log" and u <= 0.0:
            raise DomainError("log of a non-positive value", e)
        if fname == "sqrt" and u < 0.0:
            raise DomainError("sqrt of a negative value", e)
        try:
            v = FUNCTIONS[fname](u)
        except OverflowError:
            raise DomainError("overflow", e) from None
        except ValueError as exc:
            raise DomainError(str(exc), e) from None
    else:
        raise ExprError(f"unknown node kind {kind!r}")
    if isinstance(v, float) and math.isinf(v):
        raise DomainError("overflow", e)
    memo[key] = v
    return v


_REFERENCE_OPS = {"neg": operator.neg, "+": operator.add,
                  "-": operator.sub, "*": operator.mul,
                  "/": operator.truediv, "^": operator.pow,
                  **FUNCTIONS}


def reference_values(arena, bindings) -> list:
    """The value of every node of ``arena`` at ``bindings``, in slot
    order, each computed from its kind and its arguments' values with
    Python's own operators and functions: the stepped loop the package
    once ran, kept as a reference for arenas whose nodes are all in
    domain (a node out of domain raises Python's error)."""
    values = []
    append = values.append
    for e in arena.nodes:
        args = e.args
        if len(args) == 2:
            append(_REFERENCE_OPS[e.kind](values[args[0].slot],
                                          values[args[1].slot]))
        elif args:
            append(_REFERENCE_OPS[e.payload or e.kind](values[args[0].slot]))
        else:
            append(e.payload if e.kind == "const"
                   else float(bindings[e.payload]))
    return values


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def reference_tokenize(text):
    """A reference for ``expressions._tokenize``: (kind, text, offset)
    triples ending in ``("end", "", len(text))``, stepping over whitespace
    one character at a time and matching one token at each other
    character, or raising ``ParseError`` at the first that starts none."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    """Plain recursive descent over the grammar of ``curvlab.expressions``,
    one method per rule, calling the same constructors as each rule
    returns and raising the same errors at the same offsets.  It recurses
    once per level of nesting."""

    _BINARY = {"+": add, "-": sub, "*": mul, "/": div}

    def __init__(self, text, chart, params):
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.chart = set(chart)
        self.params = set(params)

    def peek_op(self, ops):
        kind, value, _ = self.tokens[self.i]
        return kind == "op" and value in ops

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect_close(self):
        if not self.peek_op((")",)):
            raise ParseError("expected ')'", self.tokens[self.i][2])
        self.i += 1

    def parse(self):
        kind, _, offset = self.tokens[0]
        if kind == "end":
            raise ParseError("empty expression", offset)
        e = self.expr()
        kind, value, offset = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self):
        v = self.term()
        while self.peek_op(("+", "-")):
            op = self.advance()[1]
            v = self._BINARY[op](v, self.term())
        return v

    def term(self):
        v = self.factor()
        while self.peek_op(("*", "/")):
            op = self.advance()[1]
            v = self._BINARY[op](v, self.factor())
        return v

    def factor(self):
        if self.peek_op(("-",)):
            self.advance()
            return neg(self.power())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek_op(("^",)):
            self.advance()
            return pow_(base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            return const(float(value))
        if kind == "ident":
            if self.peek_op(("(",)):
                if value not in FUNCTIONS:
                    raise UndeclaredNameError(value, offset)
                self.advance()
                arg = self.expr()
                self.expect_close()
                return call(value, arg)
            if value in self.chart:
                return coord(value)
            if value in self.params:
                return param(value)
            raise UndeclaredNameError(value, offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_close()
            return e
        raise ParseError(f"unexpected {value!r}" if value
                         else "unexpected end of input", offset)


def reference_parse(text, chart, params=()):
    """A reference for ``parse_expr``: recursive descent into the open
    arena (``_ReferenceParser``)."""
    return _ReferenceParser(text, chart, params).parse()


def reference_symmetrized(arr, slots):
    """A reference for ``spinors._symmetrized``: the transpose loop the
    package used to symmetrize with, adding each permuted copy in
    ``itertools.permutations`` order to zeros."""
    slots = tuple(slots)
    total = np.zeros_like(arr)
    count = 0
    for perm in itertools.permutations(slots):
        axes = list(range(arr.ndim))
        for dest, src in zip(slots, perm):
            axes[dest] = src
        total += np.transpose(arr, axes)
        count += 1
    return total / count


def reference_commutator_action(riemann_up, t):
    """A reference for ``geometry.commutator_action``: the contraction
    the package used to make, when the curvature arrays were complex.
    The inputs are taken as complex, whatever their dtype."""
    riemann_up = np.asarray(riemann_up, dtype=complex)
    t = np.asarray(t, dtype=complex)
    r = t.ndim
    letters = list("cdef"[:r])
    acc = np.zeros((4, 4) + (4,) * r, dtype=complex)
    for slot in range(r):
        tin = letters.copy()
        tin[slot] = "p"
        tout = letters.copy()
        tout[slot] = "q"
        spec = "pqab," + "".join(tin) + "->ab" + "".join(tout)
        acc += np.einsum(spec, riemann_up, t)
    return acc


def christoffel(m, point):
    """Connection coefficients Γ^a_{bc} at ``point`` (variance u,d,d)."""
    m._check_det(m.metric_value(point), point)
    return m.evaluate_field(m.christoffel_symbolic(), point)


def inverse_value(m, point):
    """g^{ab} at ``point``, after the degeneracy check."""
    gv = m.metric_value(point)
    m._check_det(gv, point)
    return np.linalg.inv(gv)


def move_index(t, slot, h):
    """The array ``t`` with slot ``slot`` contracted into the matrix ``h``:
    g^{ab} raises a down slot, g_ab lowers an up one."""
    return np.moveaxis(np.tensordot(h, t, axes=([1], [slot])), 0, slot)


@dataclass(eq=False)
class Spinor:
    """A spinor's component array with its valence, for the slot
    bookkeeping of the test-only algebra below: unprimed slots first,
    then primed slots.  The package itself passes bare arrays."""

    components: np.ndarray
    unprimed: int
    primed: int

    def __post_init__(self):
        expected = (2,) * (self.unprimed + self.primed)
        if tuple(self.components.shape) != expected:
            raise ValueError(f"component array has shape "
                             f"{self.components.shape}, expected {expected}")
        self.components = np.asarray(self.components, dtype=complex)


def spinor_outer(*factors):
    """Tensor product, regrouping so unprimed slots stay in front."""
    arr = np.array(1.0, dtype=complex)
    layout = []          # (is_unprimed, running-axis) bookkeeping
    for f in factors:
        arr = np.tensordot(arr, f.components, axes=0)
        layout += [True] * f.unprimed + [False] * f.primed
    order = [i for i, up in enumerate(layout) if up] + \
        [i for i, up in enumerate(layout) if not up]
    arr = np.transpose(arr, order) if layout else arr
    p = sum(1 for up in layout if up)
    return Spinor(arr, p, len(layout) - p)


class SpinorSlotError(ValueError):
    """Contraction or symmetrization across mismatched slot kinds."""


# the basis dyad o_A and ι_A, all indices down
O_DN = np.array([1.0, 0.0], dtype=complex)
IOTA_DN = np.array([0.0, 1.0], dtype=complex)


def valence(s: Spinor) -> tuple:
    return (s.unprimed, s.primed)


def is_unprimed_slot(s: Spinor, slot: int) -> bool:
    return slot < s.unprimed


def vector_spinor(components, primed: bool = False) -> Spinor:
    arr = np.asarray(components, dtype=complex)
    return Spinor(arr, 0 if primed else 1, 1 if primed else 0)


def contract(s1: Spinor, s2: Spinor, pairs) -> Spinor:
    """s1_{...A...} s2^{...A...}: each pair (i, j) contracts lower slot i
    of s1 against slot j of s2 raised with ε."""
    pairs = list(pairs)
    if len({i for i, _ in pairs}) != len(pairs) or \
            len({j for _, j in pairs}) != len(pairs):
        raise SpinorSlotError("a slot may appear in only one pair")
    for i, j in pairs:
        if not (0 <= i < s1.unprimed + s1.primed):
            raise SpinorSlotError(f"slot {i} out of range for first factor")
        if not (0 <= j < s2.unprimed + s2.primed):
            raise SpinorSlotError(f"slot {j} out of range for second factor")
        if is_unprimed_slot(s1, i) != is_unprimed_slot(s2, j):
            raise SpinorSlotError(
                f"cannot contract slot {i} with slot {j}: "
                "primed/unprimed mismatch")
    other = s2.components
    for _, j in pairs:
        other = raise_slot(other, j)
    arr = np.tensordot(s1.components, other,
                       axes=([i for i, _ in pairs], [j for _, j in pairs]))
    # tensordot leaves [s1-remaining..., s2-remaining...]; regroup all
    # unprimed slots in front
    up1 = s1.unprimed - sum(1 for i, _ in pairs if is_unprimed_slot(s1, i))
    pr1 = s1.primed - sum(1 for i, _ in pairs if not is_unprimed_slot(s1, i))
    up2 = s2.unprimed - sum(1 for _, j in pairs if is_unprimed_slot(s2, j))
    pr2 = s2.primed - sum(1 for _, j in pairs if not is_unprimed_slot(s2, j))
    if pr1 and up2:
        arr = np.moveaxis(arr, range(up1 + pr1, up1 + pr1 + up2),
                          range(up1, up1 + up2))
    return Spinor(arr, up1 + up2, pr1 + pr2)


def symmetrize(s: Spinor, slots) -> Spinor:
    slots = tuple(slots)
    kinds = {is_unprimed_slot(s, i) for i in slots}
    if len(kinds) > 1:
        raise SpinorSlotError("cannot symmetrize unprimed with primed slots")
    return Spinor(reference_symmetrized(s.components, slots), s.unprimed,
                  s.primed)


def sym_from_general(g: Spinor) -> np.ndarray:
    """The distinct components of a totally symmetric spinor: entry
    [i, j] has i ι-valued unprimed and j ῑ-valued primed slots."""
    p, q = g.unprimed, g.primed
    comps = np.empty((p + 1, q + 1), dtype=complex)
    for i in range(p + 1):
        for j in range(q + 1):
            idx = (1,) * i + (0,) * (p - i) + (1,) * j + (0,) * (q - j)
            comps[i, j] = g.components[idx]
    return comps


def weyl_scalars(psi: np.ndarray) -> np.ndarray:
    """Ψ0..Ψ4 of a Weyl spinor array (inverse of spinors.weyl_spinor)."""
    comps = sym_from_general(Spinor(psi, 4, 0))
    return np.array([(-1.0) ** k * comps[4 - k, 0] for k in range(5)])


def phi_matrix(phi_spinor: np.ndarray) -> np.ndarray:
    """Φ_ij of a Ricci spinor array (inverse of spinors.ricci_spinor)."""
    comps = sym_from_general(Spinor(phi_spinor, 2, 2))
    phi = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            phi[i, j] = (-1.0) ** (i + j) * comps[2 - i, 2 - j]
    return phi


def cluster_roots(roots: list, inf_mult: int) -> list[int]:
    """The multiplicity pattern of the root clusters, sorted descending."""
    return sorted(map(len, _clusters(roots, inf_mult)), reverse=True)


def petrov_from_roots(psi) -> str:
    """Independent classification by root multiplicities of the
    direction quartic (the oracle for the invariant chain)."""
    psi = np.asarray(psi, dtype=complex)
    if float(np.max(np.abs(psi))) < SCALE_FLOOR:
        return "O"
    roots, inf_mult = pnd_roots(psi)
    pattern = tuple(cluster_roots(roots, inf_mult))
    return {
        (4,): "N",
        (3, 1): "III",
        (2, 2): "D",
        (2, 1, 1): "II",
        (1, 1, 1, 1): "I",
    }[pattern]


def combine(*pairs) -> SymbolicTensor:
    """A vector field Σ c·f as new expressions: each component is
    Σ mul(const(c), f_a) over the (coefficient, field) pairs."""
    comp = np.empty(4, dtype=object)
    for a in range(4):
        s = ZERO
        for coeff, field in pairs:
            if coeff != 0.0:
                s = add(s, mul(const(coeff), field.components[a]))
        comp[a] = s
    return SymbolicTensor(comp, ("u",))


def symbolic_rotation(tetrad: NullTetrad, param, kind: str) -> NullTetrad:
    """The reference: each constant rotation written out as real
    combinations of the legs, built as new symbolic fields."""
    k, l, mre, mim = tetrad.k, tetrad.l, tetrad.m_re, tetrad.m_im
    if kind == "about-k":
        c = complex(param)
        # m' = m + c k ; l' = l + 2 Re(c̄ m) + |c|² k
        return NullTetrad(
            k=combine((1.0, k)),
            l=combine((1.0, l), (2 * c.real, mre), (2 * c.imag, mim),
                      (abs(c) ** 2, k)),
            m_re=combine((1.0, mre), (c.real, k)),
            m_im=combine((1.0, mim), (c.imag, k)))
    if kind == "about-l":
        b = complex(param)
        return NullTetrad(
            k=combine((1.0, k), (2 * b.real, mre), (2 * b.imag, mim),
                      (abs(b) ** 2, l)),
            l=combine((1.0, l)),
            m_re=combine((1.0, mre), (b.real, l)),
            m_im=combine((1.0, mim), (b.imag, l)))
    if kind == "boost-spin":
        a = abs(param)
        ph = complex(param) / a
        # m' = e^{iθ} m: real part cr·m_re − ci·m_im, imag cr·m_im + ci·m_re
        return NullTetrad(
            k=combine((a, k)),
            l=combine((1.0 / a, l)),
            m_re=combine((ph.real, mre), (-ph.imag, mim)),
            m_im=combine((ph.imag, mre), (ph.real, mim)))
    assert kind == "reverse"
    return NullTetrad(k=l, l=k, m_re=mre, m_im=combine((-1.0, mim)))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def vector_field(m, strings):
    """Contravariant vector field from four component strings."""
    with m.arena:
        comp = np.array([parse_expr(s, m.chart, tuple(m.params))
                         for s in strings], dtype=object)
    return SymbolicTensor(comp, ("u",))


def metric_from_strings(name, chart, diag_or_entries, params=None,
                        points=None, **kw):
    """Build a MetricField, in an arena of its own, from {(i, j): "expr"}
    (upper triangle) or a 4-element diagonal list of strings."""
    params = params or {}
    entries = {}
    if isinstance(diag_or_entries, (list, tuple)):
        for i, text in enumerate(diag_or_entries):
            entries[(i, i)] = text
    else:
        entries = dict(diag_or_entries)
    g = [[ZERO for _ in range(4)] for _ in range(4)]
    with Arena() as arena:
        for (i, j), text in entries.items():
            g[i][j] = parse_expr(text, chart, params)
    return MetricField(name, chart, g, params=params, points=points,
                       arena=arena, **kw)


@pytest.fixture(scope="session")
def minkowski():
    return metric_from_strings(
        "minkowski", ("t", "x", "y", "z"), ["1", "-1", "-1", "-1"],
        points={"origin": (0.0, 0.0, 0.0, 0.0),
                "p1": (1.0, 2.0, -0.5, 3.0)})


@pytest.fixture(scope="session")
def schwarzschild():
    return metric_from_strings(
        "schwarzschild", ("t", "r", "theta", "phi"),
        ["1 - 2*M/r", "-1/(1 - 2*M/r)", "-r^2", "-r^2*sin(theta)^2"],
        params={"M": 1.0},
        points={"p0": (0.0, 4.0, PI / 3, 0.0),
                "p1": (0.0, 3.0, 1.0, 2.0),
                "p2": (1.0, 5.0, 2.0, 1.0),
                "p3": (0.5, 6.0, 0.8, 0.3),
                "p4": (2.0, 8.0, 1.2, 4.0)})


@pytest.fixture(scope="session")
def nariai():
    # product of 2d de Sitter (unit curvature) with the unit round sphere
    return metric_from_strings(
        "nariai", ("t", "x", "theta", "phi"),
        ["1", "-cosh(t)^2", "-1", "-sin(theta)^2"],
        points={"p0": (0.3, 0.0, 1.0, 0.0),
                "p1": (0.0, 1.0, 0.7, 0.2),
                "p2": (-0.4, 0.5, 1.9, 3.0),
                "p3": (0.8, -1.0, 2.2, 1.5),
                "p4": (0.1, 0.2, 1.3, 5.0)})


@pytest.fixture(scope="session")
def ppwave():
    # plane-fronted wave, amplitude 2 x^2 (1 + u): curvature is quadratic
    # in x and linear in u, so second derivatives are non-trivial
    return metric_from_strings(
        "ppwave", ("u", "v", "x", "y"),
        {(0, 0): "2*x^2*(1 + u)", (0, 1): "1",
         (2, 2): "-1", (3, 3): "-1"},
        points={"p0": (0.5, 0.0, 1.0, 0.5),
                "p1": (0.0, 1.0, 0.8, -0.2),
                "p2": (1.5, -0.3, 1.2, 0.0),
                "p3": (-0.5, 0.0, 2.0, 1.0),
                "p4": (0.2, 0.4, -1.0, 0.6)})


@pytest.fixture(scope="session")
def ppwave_u2():
    # vacuum wave with amplitude (x^2 - y^2) u^2: curvature grows like u^2,
    # so its second u-derivative is a nonzero constant
    return metric_from_strings(
        "ppwave_u2", ("u", "v", "x", "y"),
        {(0, 0): "(x^2 - y^2)*u^2", (0, 1): "1",
         (2, 2): "-1", (3, 3): "-1"},
        points={"p0": (1.0, 0.0, 1.0, 0.5),
                "p1": (0.5, 0.0, 0.3, -0.8),
                "p2": (2.0, 1.0, -0.6, 0.4),
                "p3": (-1.0, 0.2, 0.9, 1.1),
                "p4": (1.5, -0.5, 1.3, 0.2)})


@pytest.fixture(scope="session")
def product2x2():
    # Lorentzian 2-factor (t, x) times Riemannian 2-factor (y, z), both
    # with non-constant curvature
    return metric_from_strings(
        "product2x2", ("t", "x", "y", "z"),
        ["1 + x^2", "-1", "-1", "-(2 + sin(y))^2"],
        points={"p0": (0.0, 0.5, 0.3, 0.0),
                "p1": (1.0, -0.7, 1.2, 2.0),
                "p2": (0.2, 1.5, -0.4, 1.0),
                "p3": (-0.6, 0.9, 2.5, 0.7),
                "p4": (0.4, 0.1, 0.9, -1.3)})


@pytest.fixture(scope="session")
def curved_metrics(schwarzschild, nariai, ppwave, product2x2):
    return [schwarzschild, nariai, ppwave, product2x2]


@pytest.fixture(scope="session")
def all_metrics(minkowski, curved_metrics):
    return [minkowski] + curved_metrics


@pytest.fixture(scope="session")
def metric_map(minkowski, schwarzschild, nariai, ppwave, ppwave_u2,
               product2x2):
    return {m.name: m for m in (minkowski, schwarzschild, nariai, ppwave,
                                ppwave_u2, product2x2)}


@pytest.fixture(scope="session")
def null_pairs(minkowski, schwarzschild, nariai, ppwave, product2x2):
    """Adapted (k, l) null pairs with k·l = 1 for each fixture metric."""
    return {
        "minkowski": (
            vector_field(minkowski, ["1/sqrt(2)", "1/sqrt(2)", "0", "0"]),
            vector_field(minkowski, ["1/sqrt(2)", "-1/sqrt(2)", "0", "0"])),
        "schwarzschild": (
            vector_field(schwarzschild, ["1/(1 - 2*M/r)", "1", "0", "0"]),
            vector_field(schwarzschild, ["1/2", "-(1 - 2*M/r)/2", "0", "0"])),
        "nariai": (
            vector_field(nariai, ["1/sqrt(2)", "1/(sqrt(2)*cosh(t))", "0", "0"]),
            vector_field(nariai, ["1/sqrt(2)", "-1/(sqrt(2)*cosh(t))", "0", "0"])),
        "ppwave": (
            vector_field(ppwave, ["0", "1", "0", "0"]),
            vector_field(ppwave, ["1", "-x^2*(1 + u)", "0", "0"])),
        "product2x2": (
            vector_field(product2x2,
                         ["1/(sqrt(2)*sqrt(1 + x^2))", "1/sqrt(2)", "0", "0"]),
            vector_field(product2x2,
                         ["1/(sqrt(2)*sqrt(1 + x^2))", "-1/sqrt(2)", "0", "0"])),
    }


def tetrad_from_strings(m, k, l, m_re, m_im):
    return NullTetrad(vector_field(m, k), vector_field(m, l),
                      vector_field(m, m_re), vector_field(m, m_im))


@pytest.fixture(scope="session")
def tetrads(minkowski, schwarzschild, nariai, ppwave, ppwave_u2, product2x2):
    """Full null tetrads (k, l, m) adapted to each fixture metric."""
    return {
        "minkowski": tetrad_from_strings(
            minkowski,
            ["1/sqrt(2)", "1/sqrt(2)", "0", "0"],
            ["1/sqrt(2)", "-1/sqrt(2)", "0", "0"],
            ["0", "0", "1/sqrt(2)", "0"],
            ["0", "0", "0", "1/sqrt(2)"]),
        "schwarzschild": tetrad_from_strings(
            schwarzschild,
            ["1/(1 - 2*M/r)", "1", "0", "0"],
            ["1/2", "-(1 - 2*M/r)/2", "0", "0"],
            ["0", "0", "1/(sqrt(2)*r)", "0"],
            ["0", "0", "0", "1/(sqrt(2)*r*sin(theta))"]),
        "nariai": tetrad_from_strings(
            nariai,
            ["1/sqrt(2)", "1/(sqrt(2)*cosh(t))", "0", "0"],
            ["1/sqrt(2)", "-1/(sqrt(2)*cosh(t))", "0", "0"],
            ["0", "0", "1/sqrt(2)", "0"],
            ["0", "0", "0", "1/(sqrt(2)*sin(theta))"]),
        "ppwave": tetrad_from_strings(
            ppwave,
            ["0", "1", "0", "0"],
            ["1", "-x^2*(1 + u)", "0", "0"],
            ["0", "0", "1/sqrt(2)", "0"],
            ["0", "0", "0", "1/sqrt(2)"]),
        "ppwave_u2": tetrad_from_strings(
            ppwave_u2,
            ["0", "1", "0", "0"],
            ["1", "-(x^2 - y^2)*u^2/2", "0", "0"],
            ["0", "0", "1/sqrt(2)", "0"],
            ["0", "0", "0", "1/sqrt(2)"]),
        "product2x2": tetrad_from_strings(
            product2x2,
            ["1/(sqrt(2)*sqrt(1 + x^2))", "1/sqrt(2)", "0", "0"],
            ["1/(sqrt(2)*sqrt(1 + x^2))", "-1/sqrt(2)", "0", "0"],
            ["0", "0", "1/sqrt(2)", "0"],
            ["0", "0", "0", "1/(sqrt(2)*(2 + sin(y)))"]),
    }
