"""Residual probes for curvature-symmetry conditions.

Each probe evaluates the max-abs residual of one tensor equation at a
point and turns it into a verdict relative to a magnitude scale taken
from the inputs:

* ``holds``          residual <= tol * scale
* ``fails``          residual >= 10 * tol * scale
* ``indeterminate``  in between (surfaced instead of misclassified)

The three commutator conditions (full curvature, Weyl, Ricci) are
evaluated algebraically through the Ricci identity, which needs only
second metric derivatives; the direct route through two symbolic
covariant derivatives is kept behind ``method="direct"`` as a
cross-check.  The unsymmetrized second-derivative condition has no
algebraic shortcut and is always computed directly.

The null-field probes read numbers only: a ``NullLeg`` holds a vector
field's value, lowered value, ∇ and ∂ at the point, whether of a declared
field (``null_leg``) or of a leg of the adapted tetrad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import RESIDUAL_DEAD_BAND, RESIDUAL_TOL, SCALE_FLOOR
from .geometry import (
    MetricField,
    SymbolicTensor,
    commutator_action,
    curvature,
    max_abs,
)
from .newman_penrose import LEG_QUANTITIES, leg_field


class TetradMissingError(Exception):
    """A probe needed a declared null field the metric does not carry."""


@dataclass(eq=False)
class ResidualReport:
    condition: str
    residual: float
    scale: float
    verdict: str
    point: tuple

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(eq=False)
class RecurrenceResult:
    """Outcome of testing ∇_a k_b = v_a k_b for a null field k."""

    v: np.ndarray            # the candidate recurrence covector v_a
    residual: float
    scale: float
    verdict: str
    point: tuple

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def verdict_for(residual: float, scale: float, tol: float = RESIDUAL_TOL) -> str:
    if residual <= tol * scale:
        return "holds"
    if residual >= RESIDUAL_DEAD_BAND * tol * scale:
        return "fails"
    return "indeterminate"


def _report(condition: str, residual: float, scale: float, point,
            tol: float) -> ResidualReport:
    scale = max(scale, SCALE_FLOOR)
    return ResidualReport(condition, float(residual), float(scale),
                          verdict_for(residual, scale, tol), tuple(point))


# ---------------------------------------------------------------------------
# curvature-condition residuals
# ---------------------------------------------------------------------------

def _commutator_residual(m: MetricField, point, condition: str, which: str,
                         tol: float, method: str) -> ResidualReport:
    """The report, computed once per point context and key.  The direct
    route builds its ∇∇ field before the curvature's run covers it."""
    def make():
        field = m.nabla_field(which, order=2) if method == "direct" else None
        c = curvature(m, point)
        target = {"riemann": c.riemann, "weyl": c.weyl, "ricci": c.ricci}[which]
        scale = max(max_abs(c.riemann_up), max_abs(c.riemann),
                    max_abs(target))
        if method == "commutator":
            out = commutator_action(c.riemann_up, target)
        elif method == "direct":
            d2 = m.evaluate_field(field, point)
            out = d2 - np.swapaxes(d2, 0, 1)
        else:
            raise ValueError(f"unknown method {method!r}")
        return _report(condition, max_abs(out), scale, point, tol)
    return m.at(point).once(("residual", condition, method, tol), make)


def semi_symmetry_residual(m: MetricField, point, tol: float = RESIDUAL_TOL,
                           method: str = "commutator") -> ResidualReport:
    """Residual of 2∇_[a∇_b]R_cdef = 0."""
    return _commutator_residual(m, point, "semi", "riemann", tol, method)


def conformal_semi_symmetry_residual(m: MetricField, point,
                                     tol: float = RESIDUAL_TOL,
                                     method: str = "commutator") -> ResidualReport:
    """Residual of 2∇_[a∇_b]C_cdef = 0."""
    return _commutator_residual(m, point, "conformal", "weyl", tol, method)


def ricci_semi_symmetry_residual(m: MetricField, point,
                                 tol: float = RESIDUAL_TOL,
                                 method: str = "commutator") -> ResidualReport:
    """Residual of 2∇_[a∇_b]R_cd = 0."""
    return _commutator_residual(m, point, "ricci", "ricci", tol, method)


def second_order_symmetry_residual(m: MetricField, point,
                                   tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of the unsymmetrized condition ∇_a∇_b R_cdef = 0."""
    field = m.nabla_field("riemann", order=2)     # before the point's run
    c = curvature(m, point)
    d2 = m.evaluate_field(field, point)
    return _report("second_order", max_abs(d2), max_abs(c.riemann),
                   point, tol)


def locally_symmetric_residual(m: MetricField, point,
                               tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_a R_cdef = 0."""
    field = m.nabla_field("riemann", order=1)     # before the point's run
    c = curvature(m, point)
    d1 = m.evaluate_field(field, point)
    return _report("locally_symmetric", max_abs(d1),
                   max_abs(c.riemann), point, tol)


# ---------------------------------------------------------------------------
# null-field probes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class NullLeg:
    """A vector field's numbers at one point, one per ``LEG_QUANTITIES``
    entry: v^a, v_a, ∇_a v_b and ∂_a v_b."""

    value: np.ndarray
    lowered: np.ndarray
    nabla: np.ndarray
    partial: np.ndarray


def null_leg(m: MetricField, field, point, name: str = "k") -> NullLeg:
    """The numbers of the declared vector field ``field`` at ``point``."""
    if field is None:
        raise TetradMissingError(f"metric declares no tetrad field '{name}'")
    if not isinstance(field, SymbolicTensor) or field.variance != ("u",):
        raise TypeError(f"'{name}' must be a contravariant vector field")
    return NullLeg(*(m.evaluate_field(leg_field(m, field, q), point)
                     for q in LEG_QUANTITIES))


def _gradient_scale(m: MetricField, point, v: NullLeg) -> float:
    """Magnitude scale for ∇v residuals: the larger of the partial
    derivatives of the components and of |Γ|·|v| (so that points where
    both happen to be small do not inflate verdicts)."""
    dmax = max_abs(v.partial)
    gmax = max_abs(m.evaluate_field(m.christoffel_symbolic(), point))
    vmax = max_abs(v.lowered)
    return max(dmax, gmax * vmax, SCALE_FLOOR)


def recurrence_check(m: MetricField, k: NullLeg, partner: NullLeg, point,
                     tol: float = RESIDUAL_TOL) -> RecurrenceResult:
    """Test whether ∇_a k_b = v_a k_b, with v_a := ℓ^b ∇_a k_b extracted
    through the partner field ℓ normalised so k·ℓ = 1."""
    nabla_k = k.nabla
    v = np.einsum("b,ab->a", partner.value, nabla_k)
    resid = max_abs(nabla_k - np.outer(v, k.lowered))
    scale = _gradient_scale(m, point, k)
    return RecurrenceResult(v, float(resid), float(scale),
                            verdict_for(resid, scale, tol), tuple(point))


def decomposability_check(m: MetricField, k: NullLeg, partner: NullLeg,
                          point, tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_c (k_a ℓ_b) = 0: the product of the two null
    covectors is covariantly constant exactly on 2x2 product geometries."""
    kv, lv = k.lowered, partner.lowered
    grad = np.einsum("ca,b->cab", k.nabla, lv) + \
        np.einsum("a,cb->cab", kv, partner.nabla)
    scale = max(
        _gradient_scale(m, point, k) * max_abs(lv),
        _gradient_scale(m, point, partner) * max_abs(kv),
        SCALE_FLOOR)
    return _report("decomposable", max_abs(grad), scale, point, tol)


def constant_null_vector_check(m: MetricField, k: NullLeg, point,
                               tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_a k_b = 0 for a null field k (nullity is asserted)."""
    kv_dn, kv_up = k.lowered, k.value
    norm = complex(np.dot(kv_up, kv_dn))
    null_scale = max(max_abs(kv_up) * max_abs(kv_dn), SCALE_FLOOR)
    if abs(norm) > tol * null_scale:
        raise ValueError(
            f"field is not null at {tuple(point)}: k·k = {norm:.3e}")
    scale = _gradient_scale(m, point, k)
    return _report("constant_null", max_abs(k.nabla), scale, point,
                   tol)
