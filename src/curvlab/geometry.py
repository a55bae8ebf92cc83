"""Curvature pipeline: metric -> Christoffel -> Riemann -> Ricci -> Weyl.

All differentiation is symbolic (see :mod:`curvlab.expressions`), so
second covariant derivatives of the curvature -- fourth derivatives of
the metric -- are exact up to floating-point rounding at evaluation
time.  Numeric tensor values at a point are dense complex arrays wrapped
in :class:`TensorValue`.

Sign conventions are frozen in :mod:`curvlab.conventions`; the short
version is that the curvature tensor carries an overall minus relative
to the textbook coordinate formula, the unit 2-sphere block then
contributes negative scalar curvature, and the Ricci identity for a
covector reads ``(∇_a ∇_b - ∇_b ∇_a) w_c = + R^e_{cab} w_e``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .conventions import RIEMANN_SIGN, SCALE_FLOOR
from .expressions import (
    Expr,
    ZERO,
    add,
    const,
    differentiate,
    div,
    evaluate,
    mul,
    neg,
    sub,
)

DIM = 4
MAX_RANK = 6


class DegenerateMetricError(Exception):
    """Metric is singular, or fails the (+,-,-,-) signature, at a point."""


class RankOverflowError(Exception):
    """A covariant derivative would push a tensor past rank 6."""


@dataclass(eq=False)
class SymbolicTensor:
    """Tensor field: object array of Expr plus a variance per slot."""

    components: np.ndarray
    variance: tuple

    def __post_init__(self):
        if self.components.shape != (DIM,) * len(self.variance):
            raise ValueError("component shape does not match variance")

    @property
    def rank(self) -> int:
        return len(self.variance)


@dataclass(eq=False)
class TensorValue:
    """Dense numeric tensor at a point.  ``variance`` holds 'u'/'d' per slot."""

    array: np.ndarray
    variance: tuple
    point: tuple

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=complex)
        self.point = tuple(float(x) for x in self.point)
        if self.array.shape != (DIM,) * len(self.variance):
            raise ValueError("array shape does not match variance")

    @property
    def rank(self) -> int:
        return len(self.variance)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.array))) if self.array.size else 0.0


def raise_index(t: TensorValue, slot: int, ginv: np.ndarray) -> TensorValue:
    if t.variance[slot] != "d":
        raise ValueError(f"slot {slot} is already up")
    arr = np.tensordot(ginv, t.array, axes=([1], [slot]))
    arr = np.moveaxis(arr, 0, slot)
    variance = t.variance[:slot] + ("u",) + t.variance[slot + 1:]
    return TensorValue(arr, variance, t.point)


def lower_index(t: TensorValue, slot: int, g: np.ndarray) -> TensorValue:
    if t.variance[slot] != "u":
        raise ValueError(f"slot {slot} is already down")
    arr = np.tensordot(g, t.array, axes=([1], [slot]))
    arr = np.moveaxis(arr, 0, slot)
    variance = t.variance[:slot] + ("d",) + t.variance[slot + 1:]
    return TensorValue(arr, variance, t.point)


def _det_expr(g: np.ndarray, rows: tuple, cols: tuple) -> Expr:
    """Determinant of the submatrix g[rows][:, cols] by signed permutation sum."""
    total = ZERO
    n = len(rows)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = g[rows[0], cols[perm[0]]]
        for i in range(1, n):
            prod = mul(prod, g[rows[i], cols[perm[i]]])
        total = add(total, prod) if inversions % 2 == 0 else sub(total, prod)
    return total


class MetricField:
    """A 4d Lorentzian metric given by symbolic components.

    Only the upper triangle of ``g`` is read; the stored matrix shares
    one Expr object per symmetric pair.  All curvature quantities are
    computed lazily and cached on the instance.
    """

    def __init__(self, name, chart, g, params=None, points=None,
                 tetrad=None, static=False):
        self.name = str(name)
        self.chart = tuple(chart)
        if len(self.chart) != DIM:
            raise ValueError("chart must name exactly 4 coordinates")
        arr = np.empty((DIM, DIM), dtype=object)
        for i in range(DIM):
            for j in range(i, DIM):
                e = g[i][j]
                if not isinstance(e, Expr):
                    raise TypeError("metric components must be Expr")
                arr[i, j] = e
                arr[j, i] = e
        self.g = arr
        self.params = {str(k): float(v) for k, v in (params or {}).items()}
        self.points = {str(k): tuple(float(x) for x in v)
                       for k, v in (points or {}).items()}
        self.tetrad = tetrad
        self.static = bool(static)
        self._cache: dict = {}
        self._context: PointContext | None = None
        for pname, coords in self.points.items():
            self._validate_signature(pname, coords)

    # -- evaluation helpers -------------------------------------------------

    def bindings(self, point) -> dict:
        b = dict(zip(self.chart, (float(x) for x in point)))
        b.update(self.params)
        return b

    def at(self, point) -> PointContext:
        """The evaluation context of ``point``.  Only the most recent one
        is kept: callers visit one point at a time."""
        b = self.bindings(point)
        # hex forms tell -0.0 from 0.0; a changed parameter also misses
        key = tuple(float(v).hex() for v in b.values())
        if self._context is None or self._context.key != key:
            self._context = PointContext(
                tuple(float(x) for x in point), b, key)
        return self._context

    def metric_value(self, point) -> np.ndarray:
        g = self.evaluate_field(SymbolicTensor(self.g, ("d", "d")), point)
        return np.ascontiguousarray(g.array.real)

    def inverse_value(self, point) -> np.ndarray:
        gv = self.metric_value(point)
        self._check_det(gv, point)
        return np.linalg.inv(gv)

    def _check_det(self, gv: np.ndarray, point) -> float:
        det = float(np.linalg.det(gv))
        scale = max(float(np.max(np.abs(gv))), SCALE_FLOOR)
        if abs(det) < 1e-12 * scale ** 4:
            raise DegenerateMetricError(
                f"metric '{self.name}' is degenerate at {tuple(point)}: det = {det:.3e}")
        return det

    def _validate_signature(self, pname: str, coords: tuple) -> None:
        gv = self.metric_value(coords)
        self._check_det(gv, coords)
        eigenvalues = np.linalg.eigvalsh(gv)
        if not (np.sum(eigenvalues > 0) == 1 and np.sum(eigenvalues < 0) == 3):
            raise DegenerateMetricError(
                f"metric '{self.name}' at point '{pname}' {coords} does not have "
                f"signature (+,-,-,-): eigenvalues {eigenvalues}")

    def evaluate_field(self, t: SymbolicTensor, point) -> TensorValue:
        ctx = self.at(point)
        values = [evaluate(e, ctx.bindings, ctx.memo)
                  for e in t.components.ravel()]
        arr = np.array(values, dtype=complex).reshape(t.components.shape)
        return TensorValue(arr, t.variance, point)

    def evaluate_scalar(self, e: Expr, point) -> float:
        ctx = self.at(point)
        return evaluate(e, ctx.bindings, ctx.memo)

    # -- symbolic pipeline --------------------------------------------------

    def inverse_symbolic(self) -> np.ndarray:
        if "ginv" not in self._cache:
            g = self.g
            all_idx = tuple(range(DIM))
            det = _det_expr(g, all_idx, all_idx)
            ginv = np.empty((DIM, DIM), dtype=object)
            for i in range(DIM):
                rows = tuple(r for r in all_idx if r != i)
                for j in range(i, DIM):
                    cols = tuple(c for c in all_idx if c != j)
                    minor = _det_expr(g, rows, cols)
                    cof = minor if (i + j) % 2 == 0 else neg(minor)
                    ginv[i, j] = ginv[j, i] = (
                        ZERO if cof is ZERO else div(cof, det))
            self._cache["gdet"] = det
            self._cache["ginv"] = ginv
        return self._cache["ginv"]

    def christoffel_symbolic(self) -> np.ndarray:
        if "gamma" not in self._cache:
            g = self.g
            ginv = self.inverse_symbolic()
            dg = np.empty((DIM, DIM, DIM), dtype=object)  # dg[a,b,c] = d_a g_bc
            for a in range(DIM):
                va = self.chart[a]
                for b in range(DIM):
                    for c in range(b, DIM):
                        e = differentiate(g[b, c], va)
                        dg[a, b, c] = dg[a, c, b] = e
            gamma = np.empty((DIM, DIM, DIM), dtype=object)
            half = const(0.5)
            for a in range(DIM):
                for b in range(DIM):
                    for c in range(b, DIM):
                        s = ZERO
                        for d in range(DIM):
                            inner = sub(add(dg[b, d, c], dg[c, d, b]), dg[d, b, c])
                            s = add(s, mul(ginv[a, d], inner))
                        gamma[a, b, c] = gamma[a, c, b] = mul(half, s)
            self._cache["gamma"] = gamma
        return self._cache["gamma"]

    def riemann_up_symbolic(self) -> np.ndarray:
        if "riemann_up" not in self._cache:
            gamma = self.christoffel_symbolic()
            dgamma = np.empty((DIM, DIM, DIM, DIM), dtype=object)
            for c in range(DIM):
                vc = self.chart[c]
                for a in range(DIM):
                    for b in range(DIM):
                        for d in range(b, DIM):
                            e = differentiate(gamma[a, b, d], vc)
                            dgamma[c, a, b, d] = dgamma[c, a, d, b] = e
            rup = np.empty((DIM, DIM, DIM, DIM), dtype=object)
            for a in range(DIM):
                for b in range(DIM):
                    for c in range(DIM):
                        rup[a, b, c, c] = ZERO
                    for c in range(DIM):
                        for d in range(c + 1, DIM):
                            s = sub(dgamma[c, a, d, b], dgamma[d, a, c, b])
                            for e in range(DIM):
                                s = add(s, sub(mul(gamma[a, c, e], gamma[e, d, b]),
                                               mul(gamma[a, d, e], gamma[e, c, b])))
                            val = neg(s) if RIEMANN_SIGN < 0 else s
                            rup[a, b, c, d] = val
                            rup[a, b, d, c] = neg(val)
            self._cache["riemann_up"] = rup
        return self._cache["riemann_up"]

    def riemann_field(self) -> SymbolicTensor:
        if "riemann" not in self._cache:
            g = self.g
            rup = self.riemann_up_symbolic()
            rdown = np.empty((DIM, DIM, DIM, DIM), dtype=object)
            for a in range(DIM):
                for b in range(DIM):
                    for c in range(DIM):
                        rdown[a, b, c, c] = ZERO
                    for c in range(DIM):
                        for d in range(c + 1, DIM):
                            s = ZERO
                            for e in range(DIM):
                                s = add(s, mul(g[a, e], rup[e, b, c, d]))
                            rdown[a, b, c, d] = s
                            rdown[a, b, d, c] = neg(s)
            self._cache["riemann"] = SymbolicTensor(rdown, ("d",) * 4)
        return self._cache["riemann"]

    def ricci_field(self) -> SymbolicTensor:
        if "ricci" not in self._cache:
            rup = self.riemann_up_symbolic()
            ric = np.empty((DIM, DIM), dtype=object)
            for a in range(DIM):
                for b in range(a, DIM):
                    s = ZERO
                    for c in range(DIM):
                        s = add(s, rup[c, a, c, b])
                    ric[a, b] = ric[b, a] = s
            self._cache["ricci"] = SymbolicTensor(ric, ("d", "d"))
        return self._cache["ricci"]

    def scalar_field(self) -> Expr:
        if "scalar" not in self._cache:
            ginv = self.inverse_symbolic()
            ric = self.ricci_field().components
            s = ZERO
            for a in range(DIM):
                for b in range(DIM):
                    s = add(s, mul(ginv[a, b], ric[a, b]))
            self._cache["scalar"] = s
        return self._cache["scalar"]

    def weyl_field(self) -> SymbolicTensor:
        if "weyl" not in self._cache:
            g = self.g
            rdown = self.riemann_field().components
            ric = self.ricci_field().components
            rs = self.scalar_field()
            half = const(0.5)
            sixth = div(rs, const(6.0))
            weyl = np.empty((DIM, DIM, DIM, DIM), dtype=object)
            for a in range(DIM):
                for b in range(DIM):
                    for c in range(DIM):
                        weyl[a, b, c, c] = ZERO
                    for c in range(DIM):
                        for d in range(c + 1, DIM):
                            ricci_part = sub(
                                sub(mul(g[a, c], ric[d, b]), mul(g[a, d], ric[c, b])),
                                sub(mul(g[b, c], ric[d, a]), mul(g[b, d], ric[c, a])))
                            scal_part = sub(mul(g[a, c], g[d, b]),
                                            mul(g[a, d], g[c, b]))
                            val = add(sub(rdown[a, b, c, d], mul(half, ricci_part)),
                                      mul(sixth, scal_part))
                            weyl[a, b, c, d] = val
                            weyl[a, b, d, c] = neg(val)
            self._cache["weyl"] = SymbolicTensor(weyl, ("d",) * 4)
        return self._cache["weyl"]

    def covariant_derivative_field(self, t: SymbolicTensor,
                                   order: int = 1) -> SymbolicTensor:
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if t.rank + order > MAX_RANK:
            raise RankOverflowError(
                f"rank {t.rank} + {order} derivatives exceeds the rank-{MAX_RANK} limit")
        out = t
        for _ in range(order):
            out = self._cov1(out)
        return out

    def _cov1(self, t: SymbolicTensor) -> SymbolicTensor:
        gamma = self.christoffel_symbolic()
        # the nonzero connection coefficients per (a, i): Γ^e_{ai} for a
        # down slot, Γ^i_{ae} for an up slot.  Skipping ZERO factors (and
        # ZERO components below) builds the same interned DAG as the
        # dense sum, since mul(ZERO, x) is ZERO and add(c, ZERO) is c.
        def nonzero(v, a, i):
            pairs = ((e, gamma[e, a, i] if v == "d" else gamma[i, a, e])
                     for e in range(DIM))
            return [(e, gam) for e, gam in pairs if gam is not ZERO]

        conn = {v: [[nonzero(v, a, i) for i in range(DIM)] for a in range(DIM)]
                for v in set(t.variance)}
        r = t.rank
        comp = t.components
        out = np.empty((DIM,) * (r + 1), dtype=object)
        for a in range(DIM):
            va = self.chart[a]
            for idx in np.ndindex(*(DIM,) * r):
                term = differentiate(comp[idx], va)
                for slot, v in enumerate(t.variance):
                    corr = ZERO
                    for e, gam in conn[v][a][idx[slot]]:
                        c = comp[idx[:slot] + (e,) + idx[slot + 1:]]
                        if c is ZERO:
                            continue
                        if v == "d":
                            corr = add(corr, mul(gam, c))
                        else:
                            corr = sub(corr, mul(gam, c))
                    term = sub(term, corr)
                out[(a,) + idx] = term
        return SymbolicTensor(out, ("d",) + t.variance)

    def nabla_field(self, which: str, order: int = 1) -> SymbolicTensor:
        """Cached ∇ or ∇∇ of 'riemann', 'weyl', or 'ricci' (all-down)."""
        key = ("nabla", which, order)
        if key not in self._cache:
            base = {"riemann": self.riemann_field,
                    "weyl": self.weyl_field,
                    "ricci": self.ricci_field}[which]()
            if order == 2:
                first = self.nabla_field(which, 1)
                self._cache[key] = self._cov1(first)
            else:
                self._cache[key] = self._cov1(base)
        return self._cache[key]

    @staticmethod
    def _field_key(tag: str, t: SymbolicTensor) -> tuple:
        # expression nodes are interned for the life of the process, so
        # their ids identify the field contents; the wrapper object's own
        # id must not be used (wrappers are mortal and ids get recycled)
        return (tag, t.variance, tuple(id(c) for c in t.components.ravel()))

    def lowered_vector_field(self, v_up: SymbolicTensor) -> SymbolicTensor:
        """v_b = g_be v^e, cached per field contents."""
        key = self._field_key("lowered", v_up)
        if key not in self._cache:
            comp = np.empty(DIM, dtype=object)
            for b in range(DIM):
                s = ZERO
                for e in range(DIM):
                    s = add(s, mul(self.g[b, e], v_up.components[e]))
                comp[b] = s
            self._cache[key] = SymbolicTensor(comp, ("d",))
        return self._cache[key]

    def covector_gradient_field(self, v_dn: SymbolicTensor) -> SymbolicTensor:
        """∇_a v_b for a covector field, cached per field contents."""
        key = self._field_key("nabla_vec", v_dn)
        if key not in self._cache:
            self._cache[key] = self._cov1(v_dn)
        return self._cache[key]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def christoffel(m: MetricField, point) -> TensorValue:
    """Connection coefficients Γ^a_{bc} at ``point`` (variance u,d,d)."""
    m._check_det(m.metric_value(point), point)
    gamma = SymbolicTensor(m.christoffel_symbolic(), ("u", "d", "d"))
    return m.evaluate_field(gamma, point)


@dataclass(eq=False)
class Curvature:
    """All curvature objects at one point (down-index unless noted)."""

    riemann: TensorValue        # R_abcd
    riemann_up: TensorValue     # R^a_bcd
    ricci: TensorValue          # R_ab
    scalar: float               # R
    weyl: TensorValue           # C_abcd
    metric: np.ndarray          # g_ab numeric
    inverse: np.ndarray         # g^ab numeric


@dataclass(eq=False)
class PointContext:
    """What has been evaluated at one point of one metric.

    Expression nodes are interned for the life of the process, so one
    memo keyed by node id serves every field evaluated at the point.
    ``tetrad_data`` holds numeric results derived from a tetrad, keyed by
    the ``NullTetrad`` object itself: the live key keeps its id from
    being recycled (see ``MetricField._field_key``).  Cached results are
    handed to every caller at the point without a copy; callers must not
    modify them.
    """

    point: tuple
    bindings: dict
    key: tuple
    memo: dict = field(default_factory=dict)
    curvature: Curvature | None = None
    tetrad_data: dict = field(default_factory=dict)


def curvature(m: MetricField, point) -> Curvature:
    """The curvature at ``point``, evaluated once per point context."""
    ctx = m.at(point)
    if ctx.curvature is None:
        gv = m.metric_value(point)
        m._check_det(gv, point)
        rup = SymbolicTensor(m.riemann_up_symbolic(), ("u", "d", "d", "d"))
        ctx.curvature = Curvature(
            m.evaluate_field(m.riemann_field(), point),
            m.evaluate_field(rup, point),
            m.evaluate_field(m.ricci_field(), point),
            float(np.real(m.evaluate_scalar(m.scalar_field(), point))),
            m.evaluate_field(m.weyl_field(), point), gv, np.linalg.inv(gv))
    return ctx.curvature


def commutator_action(riemann_up: TensorValue, t: TensorValue) -> TensorValue:
    """2∇_[a∇_b]T_{c...} via the Ricci identity, as a curvature contraction.

    ``riemann_up`` is R^e_{cab}; the result gains two leading down slots
    (a, b) and equals  Σ_slots R^e_{c_i a b} T_{... e ...}.
    """
    if any(v != "d" for v in t.variance):
        raise ValueError("commutator_action expects all slots down")
    if t.rank > 4:
        raise RankOverflowError("commutator_action input must have rank <= 4")
    r = t.rank
    letters = list("cdef"[:r])
    acc = np.zeros((DIM, DIM) + (DIM,) * r, dtype=complex)
    for slot in range(r):
        tin = letters.copy()
        tin[slot] = "p"
        tout = letters.copy()
        tout[slot] = "q"
        spec = "pqab," + "".join(tin) + "->ab" + "".join(tout)
        acc += np.einsum(spec, riemann_up.array, t.array)
    return TensorValue(acc, ("d", "d") + t.variance, t.point)
