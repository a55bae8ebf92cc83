"""Curvature pipeline: metric -> Christoffel -> Riemann -> Ricci -> Weyl.

All differentiation is symbolic (see :mod:`curvlab.expressions`), so
second covariant derivatives of the curvature -- fourth derivatives of
the metric -- are exact up to floating-point rounding at evaluation
time.  Numeric tensor values at a point are plain dense ndarrays, one
axis per slot; the variance of each slot is the field's.  A field's
values are complex (``MetricField.evaluate_field``); the curvature at a
point is kept real (``Curvature``).

Sign conventions are frozen in :mod:`curvlab.conventions`; the short
version is that the curvature tensor carries an overall minus relative
to the textbook coordinate formula, the unit 2-sphere block then
contributes negative scalar curvature, and the Ricci identity for a
covector reads ``(∇_a ∇_b - ∇_b ∇_a) w_c = + R^e_{cab} w_e``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .conventions import RIEMANN_SIGN, SCALE_FLOOR
from .expressions import (
    Arena,
    Expr,
    ExprError,
    ZERO,
    add,
    const,
    current_arena,
    differentiate,
    div,
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
    """Tensor field: object array of Expr plus a variance per slot.

    ``slots``: once a ``MetricField`` has read the components' slots off
    them (``MetricField.place``), its arena, those slots and one past the
    last, so the components must not be replaced after that.
    """

    components: np.ndarray
    variance: tuple
    slots: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.components.shape != (DIM,) * len(self.variance):
            raise ValueError("component shape does not match variance")

    @property
    def rank(self) -> int:
        return len(self.variance)


def max_abs(a: np.ndarray) -> float:
    """The largest modulus among the entries of ``a``."""
    return float(np.abs(a).max())


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


def _fold(terms, start: Expr = ZERO) -> Expr:
    """start + t0 + t1 + ..., added left to right: the order of the
    ``add`` calls fixes the interned DAG."""
    return functools.reduce(add, terms, start)


def _antisymmetric(component) -> np.ndarray:
    """The rank-4 array T_abcd = -T_abdc whose entries with c < d are
    ``component(a, b, c, d)``, built in index order."""
    out = np.full((DIM,) * 4, ZERO, dtype=object)
    for a, b, c in itertools.product(range(DIM), repeat=3):
        for d in range(c + 1, DIM):
            val = out[a, b, c, d] = component(a, b, c, d)
            out[a, b, d, c] = neg(val)
    return out


def _built(build):
    """A builder whose result the metric makes once (``MetricField.once``),
    keyed by its name and, for a builder of one field from another, the
    field's variance and contents.  The components' slots name the
    contents: a slot names one node of the arena for the arena's life,
    while a wrapper's own id would not (wrappers die and ids get
    recycled)."""
    name = build.__name__
    @functools.wraps(build)
    def built(self, *field: SymbolicTensor) -> SymbolicTensor:
        key = (name, *((t.variance, self.place(t)[1].tobytes())
                       for t in field))
        return self.once(key, lambda: build(self, *field))
    return built


class MetricField:
    """A 4d Lorentzian metric given by symbolic components.

    Only the upper triangle of ``g`` is read; the stored matrix shares
    one Expr object per symmetric pair.  ``arena`` holds the components
    (by default the open arena, see ``expressions.Arena``) and every node
    built from them.  All curvature quantities are built when first asked
    for and kept on the instance (``once``); ``point_fields`` asks for all
    that a point's analysis reads.
    """

    def __init__(self, name, chart, g, params=None, points=None,
                 tetrad=None, static=False, arena: Arena | None = None):
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
        self.arena = current_arena() if arena is None else arena
        self._g_field = SymbolicTensor(arr, ("d", "d"))
        self.place(self._g_field)
        self.params = {str(k): float(v) for k, v in (params or {}).items()}
        self.points = {str(k): tuple(float(x) for x in v)
                       for k, v in (points or {}).items()}
        self.tetrad = tetrad
        self.static = bool(static)
        self._cache: dict = {}
        self._context: PointContext | None = None
        for pname, coords in self.points.items():
            self.check_point(pname, coords)

    # -- evaluation helpers -------------------------------------------------

    def bindings(self, point) -> dict:
        b = dict(zip(self.chart, (float(x) for x in point)))
        b.update(self.params)
        return b

    def at(self, point) -> PointContext:
        """The evaluation context of ``point``.  Only the most recent one
        is kept: callers visit one point at a time, and each visit runs
        the arena once (``evaluate_field``)."""
        ctx = self._context
        # a tuple cannot change in place: the same one, with each parameter
        # the same object, is the same point; else ``key``'s hex forms decide
        params = tuple(self.params.values())
        if ctx is not None and point is ctx.source \
                and len(params) == len(ctx.params) \
                and all(map(operator.is_, params, ctx.params)):
            return ctx
        b = self.bindings(point)
        key = tuple(float(v).hex() for v in b.values())
        if ctx is None or ctx.key != key:
            ctx = self._context = PointContext(
                tuple(float(x) for x in point), b, key)
        ctx.source = point if type(point) is tuple else None
        ctx.params = params
        return ctx

    def metric_value(self, point) -> np.ndarray:
        g = self.evaluate_field(self._g_field, point)
        return np.ascontiguousarray(g.real)

    def _check_det(self, gv: np.ndarray, point) -> None:
        # decided on g / max|g|: its entries are at most 1, so its
        # determinant (|det| <= 24) cannot overflow however large g is
        scale = max(max_abs(gv), SCALE_FLOOR)
        det = float(np.linalg.det(gv / scale))
        if abs(det) < 1e-12:
            raise DegenerateMetricError(
                f"metric '{self.name}' is degenerate at {tuple(point)}: "
                f"det(g/max|g|) = {det:.3e}")

    def check_point(self, pname: str, coords: tuple) -> None:
        """Raise ``DegenerateMetricError`` unless the metric is regular with
        signature (+,-,-,-) at the declared point ``pname``."""
        gv = self.metric_value(coords)
        self._check_det(gv, coords)
        eigenvalues = np.linalg.eigvalsh(gv)
        if not (np.sum(eigenvalues > 0) == 1 and np.sum(eigenvalues < 0) == 3):
            raise DegenerateMetricError(
                f"metric '{self.name}' at point '{pname}' {coords} does not have "
                f"signature (+,-,-,-): eigenvalues {eigenvalues}")

    def place(self, t: SymbolicTensor) -> tuple:
        """``t.slots``, read off the components once: the metric's arena,
        an ``np.intp`` array of the field's shape holding the components'
        slots there, and one past the last.  A component of another arena
        raises ``ExprError``: its slot names another node."""
        arena = self.arena
        if t.slots is None or t.slots[0] is not arena:
            comps = t.components.ravel().tolist()
            slots = list(map(operator.attrgetter("slot"), comps))
            end, nodes = max(slots) + 1, arena.nodes
            # ``Arena.owns`` of every component, in one pass of C loops
            if end > len(nodes) or not all(
                    map(operator.is_, map(nodes.__getitem__, slots), comps)):
                raise ExprError(f"a field of metric '{self.name}' holds an "
                                "expression of another arena")
            t.slots = (arena, np.array(slots, np.intp).reshape(
                t.components.shape), end)
        return t.slots

    def evaluate_field(self, t: SymbolicTensor, point) -> np.ndarray:
        """``t`` at ``point`` as a complex array, evaluated once per point
        context: one gather of its slots' values (``place``) from the
        context's run of the whole arena (``Arena.run``), made by the first
        field read at the point and again by a field placed since.  A field
        that reads a slot at or above the run's first value out of domain
        is recomputed checked (``Arena.checked``), and raises if a value it
        reads is out of domain."""
        ctx = self.at(point)
        value = ctx.memo.get(t)
        if value is None:
            arena, slots, end = self.place(t)
            if len(ctx.values) < end:
                ctx.values, ctx.clean = arena.run(ctx.bindings)
            values = ctx.values
            if end > ctx.clean:
                values = np.array(arena.checked(
                    values.tolist(), ctx.clean, ctx.bindings, slots))
            # a 0-d index gives a scalar: asarray keeps rank 0 an array
            value = ctx.memo[t] = np.asarray(values[slots], dtype=complex)
        return value

    def once(self, key, make):
        """The build under ``key``, made by ``make()`` in the metric's arena
        the first time it is asked for; a ``make`` that raises leaves
        nothing behind (``PointContext.once`` at one point)."""
        if key not in self._cache:
            with self.arena:
                self._cache[key] = make()
        return self._cache[key]

    def point_fields(self, nabla2: tuple = ()) -> None:
        """Build every field a point reads before the point's first run,
        so that the run covers them all and no read after it grows the
        arena: the curvature, ∇ and ∇∇ of each of ``nabla2`` ('riemann',
        'weyl', 'ricci'), and each declared leg's lowered value, ∇ and ∂.
        Built once per metric and ``nabla2``."""
        def make():
            self.weyl_field()
            for which in nabla2:
                self.nabla_field(which, 2)
            if self.tetrad is not None:
                for leg in (self.tetrad.k, self.tetrad.l, self.tetrad.m_re,
                            self.tetrad.m_im):
                    v = self.lowered_vector_field(leg)
                    self.covector_gradient_field(v)
                    self.partial_gradient_field(v)
        self.once(("point fields", nabla2), make)

    # -- symbolic pipeline --------------------------------------------------
    # each builder caches one SymbolicTensor: a field's slots and its
    # entry in the point memo belong to that object

    @_built
    def inverse_symbolic(self) -> SymbolicTensor:
        """g^{ab}."""
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
        return SymbolicTensor(ginv, ("u", "u"))

    @_built
    def christoffel_symbolic(self) -> SymbolicTensor:
        """Γ^a_{bc}."""
        g = self.g
        ginv = self.inverse_symbolic().components
        dg = np.empty((DIM, DIM, DIM), dtype=object)  # dg[a,b,c] = d_a g_bc
        for a, b in itertools.product(range(DIM), repeat=2):
            for c in range(b, DIM):
                dg[a, b, c] = dg[a, c, b] = differentiate(
                    g[b, c], self.chart[a])
        gamma = np.empty((DIM, DIM, DIM), dtype=object)
        half = const(0.5)
        for a, b in itertools.product(range(DIM), repeat=2):
            for c in range(b, DIM):
                s = _fold(mul(ginv[a, d], sub(add(dg[b, d, c], dg[c, d, b]),
                                              dg[d, b, c])) for d in range(DIM))
                gamma[a, b, c] = gamma[a, c, b] = mul(half, s)
        return SymbolicTensor(gamma, ("u", "d", "d"))

    @_built
    def riemann_up_symbolic(self) -> SymbolicTensor:
        """R^a_{bcd}."""
        gamma = self.christoffel_symbolic().components
        dgamma = np.empty((DIM, DIM, DIM, DIM), dtype=object)
        for c, a, b in itertools.product(range(DIM), repeat=3):
            for d in range(b, DIM):
                dgamma[c, a, b, d] = dgamma[c, a, d, b] = differentiate(
                    gamma[a, b, d], self.chart[c])

        def component(a, b, c, d):
            s = _fold((sub(mul(gamma[a, c, e], gamma[e, d, b]),
                           mul(gamma[a, d, e], gamma[e, c, b]))
                       for e in range(DIM)),
                      sub(dgamma[c, a, d, b], dgamma[d, a, c, b]))
            return neg(s) if RIEMANN_SIGN < 0 else s

        return SymbolicTensor(_antisymmetric(component), ("u", "d", "d", "d"))

    @_built
    def riemann_field(self) -> SymbolicTensor:
        g = self.g
        rup = self.riemann_up_symbolic().components
        return SymbolicTensor(_antisymmetric(lambda a, b, c, d: _fold(
            mul(g[a, e], rup[e, b, c, d]) for e in range(DIM))), ("d",) * 4)

    @_built
    def ricci_field(self) -> SymbolicTensor:
        rup = self.riemann_up_symbolic().components
        ric = np.empty((DIM, DIM), dtype=object)
        for a in range(DIM):
            for b in range(a, DIM):
                ric[a, b] = ric[b, a] = _fold(rup[c, a, c, b] for c in range(DIM))
        return SymbolicTensor(ric, ("d", "d"))

    @_built
    def scalar_field(self) -> SymbolicTensor:
        """R, as a rank-0 field."""
        ginv = self.inverse_symbolic().components
        ric = self.ricci_field().components
        s = _fold(mul(ginv[a, b], ric[a, b])
                  for a in range(DIM) for b in range(DIM))
        return SymbolicTensor(np.array(s, dtype=object), ())

    @_built
    def weyl_field(self) -> SymbolicTensor:
        g = self.g
        rdown = self.riemann_field().components
        ric = self.ricci_field().components
        rs = self.scalar_field().components[()]
        half = const(0.5)
        sixth = div(rs, const(6.0))

        def component(a, b, c, d):
            ricci_part = sub(
                sub(mul(g[a, c], ric[d, b]), mul(g[a, d], ric[c, b])),
                sub(mul(g[b, c], ric[d, a]), mul(g[b, d], ric[c, a])))
            scal_part = sub(mul(g[a, c], g[d, b]), mul(g[a, d], g[c, b]))
            return add(sub(rdown[a, b, c, d], mul(half, ricci_part)),
                       mul(sixth, scal_part))

        return SymbolicTensor(_antisymmetric(component), ("d",) * 4)

    def covariant_derivative_field(self, t: SymbolicTensor,
                                   order: int = 1) -> SymbolicTensor:
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if t.rank + order > MAX_RANK:
            raise RankOverflowError(
                f"rank {t.rank} + {order} derivatives exceeds the rank-{MAX_RANK} limit")
        out = t
        with self.arena:
            for _ in range(order):
                out = self._cov1(out)
        return out

    def _cov1(self, t: SymbolicTensor) -> SymbolicTensor:
        gamma = self.christoffel_symbolic().components
        # the nonzero connection coefficients per (a, i): Γ^e_{ai} for a
        # down slot, Γ^i_{ae} for an up slot.  Skipping ZERO factors (and
        # ZERO components and corrections below) builds the same interned
        # DAG as the dense sum, since mul(ZERO, x) is ZERO and add(c, ZERO)
        # and sub(c, ZERO) are c.
        def nonzero(v, a, i):
            pairs = ((e, gamma[e, a, i] if v == "d" else gamma[i, a, e])
                     for e in range(DIM))
            return [(e, gam) for e, gam in pairs if gam is not ZERO]

        conn = {v: [[nonzero(v, a, i) for i in range(DIM)] for a in range(DIM)]
                for v in set(t.variance)}
        # feeds[v][a][e]: the slot values i whose correction reads e
        feeds = {v: [[[i for i in range(DIM) if e in dict(rows[i])]
                      for e in range(DIM)] for rows in conn[v]]
                 for v in conn}
        # components by flat row-major index f: the digit of slot s is
        # f // stride % DIM, and the output (a, idx) is a * n + f, so
        # sorting the flat outputs sorts them as index tuples
        comp = t.components.ravel().tolist()
        n = len(comp)
        slots = [(DIM ** (t.rank - 1 - s), v) for s, v in enumerate(t.variance)]
        # An output (a, idx') is live when comp[idx'] is nonzero (its own
        # derivative), or when a nonzero comp[idx] differs from idx' in
        # one slot and conn[v][a][idx'[slot]] holds idx[slot].  A dead
        # output is exactly the ZERO the dense sum gives: its derivative
        # is differentiate(ZERO) = ZERO, and each of its corrections reads
        # only ZERO components, which are skipped.
        live = set()
        for f, c in enumerate(comp):
            if c is ZERO:
                continue
            for a in range(DIM):
                live.add(a * n + f)
                for stride, v in slots:
                    digit = f // stride % DIM
                    for i in feeds[v][a][digit]:
                        live.add(a * n + f + (i - digit) * stride)
        out = np.full(DIM * n, ZERO, dtype=object)
        for key in sorted(live):
            a, f = divmod(key, n)
            term = differentiate(comp[f], self.chart[a])
            for stride, v in slots:
                digit = f // stride % DIM
                fold = add if v == "d" else sub
                corr = ZERO
                for e, gam in conn[v][a][digit]:
                    c = comp[f + (e - digit) * stride]
                    if c is not ZERO:
                        corr = fold(corr, mul(gam, c))
                if corr is not ZERO:
                    term = sub(term, corr)
            out[key] = term
        return SymbolicTensor(out.reshape((DIM,) * (t.rank + 1)),
                              ("d",) + t.variance)

    def nabla_field(self, which: str, order: int = 1) -> SymbolicTensor:
        """Cached ∇ or ∇∇ of 'riemann', 'weyl', or 'ricci' (all-down)."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return self.once(("nabla", which, order), lambda: self._cov1(
            self.nabla_field(which, 1) if order == 2 else
            {"riemann": self.riemann_field, "weyl": self.weyl_field,
             "ricci": self.ricci_field}[which]()))

    @_built
    def lowered_vector_field(self, v_up: SymbolicTensor) -> SymbolicTensor:
        """v_b = g_be v^e."""
        comp = [_fold(mul(self.g[b, e], v_up.components[e]) for e in range(DIM))
                for b in range(DIM)]
        return SymbolicTensor(np.array(comp, dtype=object), ("d",))

    @_built
    def covector_gradient_field(self, v_dn: SymbolicTensor) -> SymbolicTensor:
        """∇_a v_b for a covector field."""
        return self._cov1(v_dn)

    @_built
    def partial_gradient_field(self, v_dn: SymbolicTensor) -> SymbolicTensor:
        """∂_a v_b for a covector field (not a tensor)."""
        comp = np.array([[differentiate(e, va) for e in v_dn.components]
                         for va in self.chart], dtype=object)
        return SymbolicTensor(comp, ("d", "d"))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Curvature:
    """All curvature objects at one point (down-index unless noted), as
    real C-contiguous arrays: the fields' values have no imaginary part.
    Combined with a complex leg, an array is promoted to the complex
    values ``evaluate_field`` gives."""

    riemann: np.ndarray         # R_abcd
    riemann_up: np.ndarray      # R^a_bcd
    ricci: np.ndarray           # R_ab
    scalar: float               # R
    weyl: np.ndarray            # C_abcd
    metric: np.ndarray          # g_ab, real


@dataclass(eq=False)
class PointContext:
    """What has been evaluated at one point of one metric.

    ``memo`` holds every result made at the point, each made once however
    many callers ask for it: a field's value under the ``SymbolicTensor``
    object, and any other result, read through ``once``, under a tuple of
    its name and inputs (a tetrad as the ``NullTetrad`` object itself).
    ``values`` is the latest run of the metric's whole arena at the point
    (``Arena.run``), one float64 array that each field gathers from, and
    ``clean`` the run's first slot out of domain: the slots below it are
    in domain.  ``source`` and ``params`` (the parameters' objects) let
    ``MetricField.at`` serve a repeated tuple without rebuilding ``key``.
    Results are handed out without a copy; callers must not modify them.
    """

    point: tuple
    bindings: dict
    key: tuple
    source: tuple | None = None
    params: tuple = ()
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    clean: int = 0
    memo: dict = field(default_factory=dict)

    def once(self, key, make):
        """The result under ``key``, made by ``make()`` the first time it
        is asked for; a ``make`` that raises leaves nothing behind."""
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]


def curvature(m: MetricField, point) -> Curvature:
    """The curvature at ``point``, evaluated once per point context.  Every
    stage of a point's classification reads it first, so it has the
    fields they read built before the point's first run
    (``MetricField.point_fields``)."""
    def real(t: SymbolicTensor) -> np.ndarray:
        return np.ascontiguousarray(m.evaluate_field(t, point).real)

    def make():
        m.point_fields()
        gv = m.metric_value(point)
        m._check_det(gv, point)
        return Curvature(
            real(m.riemann_field()), real(m.riemann_up_symbolic()),
            real(m.ricci_field()),
            float(m.evaluate_field(m.scalar_field(), point).real),
            real(m.weyl_field()), gv)
    return m.at(point).once(("curvature",), make)


def commutator_action(riemann_up: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2∇_[a∇_b]T_{c...} via the Ricci identity, as a curvature contraction.

    ``riemann_up`` is R^e_{cab} and ``t`` has all slots down; the result
    gains two leading down slots (a, b) and equals
    Σ_slots R^e_{c_i a b} T_{... e ...}, accumulated in the inputs' common
    dtype: real for the curvature's own arrays.  Each product then has no
    imaginary part to add, so the result equals the complex contraction's
    (up to the sign of a zero).
    """
    r = t.ndim
    if r > 4:
        raise RankOverflowError("commutator_action input must have rank <= 4")
    letters = list("cdef"[:r])
    acc = np.zeros((DIM, DIM) + (DIM,) * r,
                   dtype=np.result_type(riemann_up, t))
    for slot in range(r):
        tin = letters.copy()
        tin[slot] = "p"
        tout = letters.copy()
        tout[slot] = "q"
        spec = "pqab," + "".join(tin) + "->ab" + "".join(tout)
        acc += np.einsum(spec, riemann_up, t)
    return acc
