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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import RESIDUAL_DEAD_BAND, RESIDUAL_TOL, SCALE_FLOOR
from .geometry import (
    Field,
    MetricField,
    commutator_action,
    curvature,
    max_abs,
)


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
    """The report, computed once per point context and key."""
    def make():
        c = curvature(m, point)
        target = {"riemann": c.riemann, "weyl": c.weyl, "ricci": c.ricci}[which]
        scale = max(max_abs(c.riemann_up), max_abs(c.riemann),
                    max_abs(target))
        if method == "commutator":
            out = commutator_action(c.riemann_up, target)
        elif method == "direct":
            d2 = m.evaluate_field(m.nabla_field(which, order=2), point)
            out = d2 - np.swapaxes(d2, 0, 1)
        else:
            raise ValueError(f"unknown method {method!r}")
        return _report(condition, np.max(np.abs(out)), scale, point, tol)
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
    c = curvature(m, point)
    d2 = m.evaluate_field(m.nabla_field("riemann", order=2), point)
    return _report("second_order", np.max(np.abs(d2)), max_abs(c.riemann),
                   point, tol)


def locally_symmetric_residual(m: MetricField, point,
                               tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_a R_cdef = 0."""
    c = curvature(m, point)
    d1 = m.evaluate_field(m.nabla_field("riemann", order=1), point)
    return _report("locally_symmetric", np.max(np.abs(d1)),
                   max_abs(c.riemann), point, tol)


# ---------------------------------------------------------------------------
# null-field probes
# ---------------------------------------------------------------------------

def _require_field(field, name: str) -> Field:
    if field is None:
        raise TetradMissingError(f"metric declares no tetrad field '{name}'")
    if not isinstance(field, Field) or field.variance != ("u",):
        raise TypeError(f"'{name}' must be a contravariant vector field")
    return field


def _gradient_scale(m: MetricField, point, v_dn: Field) -> float:
    """Magnitude scale for ∇v residuals: the larger of the partial
    derivatives of the components and of |Γ|·|v| (so that points where
    both happen to be small do not inflate verdicts)."""
    dmax = max_abs(m.evaluate_field(m.partial_gradient_field(v_dn), point))
    gmax = max_abs(m.evaluate_field(m.christoffel_symbolic(), point))
    vmax = max_abs(m.evaluate_field(v_dn, point))
    return max(dmax, gmax * vmax, SCALE_FLOOR)


def recurrence_check(m: MetricField, k: Field, partner: Field, point,
                     tol: float = RESIDUAL_TOL) -> RecurrenceResult:
    """Test whether ∇_a k_b = v_a k_b, with v_a := ℓ^b ∇_a k_b extracted
    through the partner field ℓ normalised so k·ℓ = 1."""
    k = _require_field(k, "k")
    partner = _require_field(partner, "partner")
    k_dn = m.lowered_vector_field(k)
    nabla_k = m.evaluate_field(m.covector_gradient_field(k_dn), point)
    k_val = m.evaluate_field(k_dn, point)
    l_val = m.evaluate_field(partner, point)
    v = np.einsum("b,ab->a", l_val, nabla_k)
    resid = np.max(np.abs(nabla_k - np.outer(v, k_val)))
    scale = _gradient_scale(m, point, k_dn)
    return RecurrenceResult(v, float(resid), float(scale),
                            verdict_for(resid, scale, tol), tuple(point))


def decomposability_check(m: MetricField, k: Field, partner: Field, point,
                          tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_c (k_a ℓ_b) = 0: the product of the two null
    covectors is covariantly constant exactly on 2x2 product geometries."""
    k = _require_field(k, "k")
    partner = _require_field(partner, "partner")
    k_dn = m.lowered_vector_field(k)
    l_dn = m.lowered_vector_field(partner)
    nk = m.evaluate_field(m.covector_gradient_field(k_dn), point)
    nl = m.evaluate_field(m.covector_gradient_field(l_dn), point)
    kv = m.evaluate_field(k_dn, point)
    lv = m.evaluate_field(l_dn, point)
    grad = np.einsum("ca,b->cab", nk, lv) + np.einsum("a,cb->cab", kv, nl)
    scale = max(
        _gradient_scale(m, point, k_dn) * np.max(np.abs(lv)),
        _gradient_scale(m, point, l_dn) * np.max(np.abs(kv)),
        SCALE_FLOOR)
    return _report("decomposable", np.max(np.abs(grad)), scale, point, tol)


def constant_null_vector_check(m: MetricField, k: Field, point,
                               tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Residual of ∇_a k_b = 0 for a null field k (nullity is asserted)."""
    k = _require_field(k, "k")
    k_dn = m.lowered_vector_field(k)
    kv_dn = m.evaluate_field(k_dn, point)
    kv_up = m.evaluate_field(k, point)
    norm = complex(np.dot(kv_up, kv_dn))
    null_scale = max(np.max(np.abs(kv_up)) * np.max(np.abs(kv_dn)), SCALE_FLOOR)
    if abs(norm) > tol * null_scale:
        raise ValueError(
            f"field is not null at {tuple(point)}: k·k = {norm:.3e}")
    nk = m.evaluate_field(m.covector_gradient_field(k_dn), point)
    scale = _gradient_scale(m, point, k_dn)
    return _report("constant_null", np.max(np.abs(nk)), scale, point, tol)
