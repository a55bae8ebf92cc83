"""Pointwise classification of spacetimes whose curvature commutes with
itself (semi-symmetric geometries).

The decision tree runs entirely on numbers computed at one point: the
second-derivative commutator residual, the Petrov type, the null-tetrad
curvature scalars in an adapted frame, the spin coefficients, and the
algebraic shape of the Ricci tensor.  Geometries that pass the residual
gate must land in one of the admissible branches; anything else is a
consistency failure and raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import RESIDUAL_TOL, SCALE_FLOOR
from .geometry import MetricField, TensorValue, curvature
from .newman_penrose import (
    NullTetrad,
    TetradFrame,
    adapt_tetrad,
    petrov_classify,
    spin_coefficients,
    tetrad_frame,
)
from .symmetry import (
    TetradMissingError,
    constant_null_vector_check,
    decomposability_check,
    recurrence_check,
    semi_symmetry_residual,
    verdict_for,
)

BRANCHES = (
    "not-semi-symmetric",
    "O",
    "N-generic",
    "N-second-order-candidate",
    "D-generic-decomposable",
    "D-special-A0",
    "D-special-B0",
    "indeterminate",
)

DEC_SEED = 2026
DEC_SAMPLES = 100

# the eight products that must vanish in the generic two-block branch:
# a nonzero A forces the transverse coefficients to zero and a nonzero
# B forces the longitudinal ones
A_PRODUCTS = ("sigma", "lambda", "mu", "rho")
B_PRODUCTS = ("kappa", "nu", "pi", "tau")


class TheoremViolationError(Exception):
    """The commutator residual vanished at a point whose Weyl tensor is
    of type I, II, or III — impossible if the machinery is consistent,
    so this always signals a convention or numerics bug."""

    def __init__(self, point, petrov: str, semi_verdict: str):
        self.point = tuple(point)
        self.petrov = petrov
        self.semi_verdict = semi_verdict
        super().__init__(
            f"semi-symmetry {semi_verdict} at {self.point} but the Weyl "
            f"tensor has type {petrov}; only types D, N and O admit a "
            "semi-symmetric geometry")


@dataclass(eq=False)
class ClassificationReport:
    """Everything the decision tree measured at one point.

    Residual-like entries (``constraints``, ``recurrence``,
    ``decomposability``) are stored relative to their natural scale, so
    a value below the working tolerance means the constraint holds.
    """

    point: tuple
    petrov: str
    semi_verdict: str
    branch: str = "indeterminate"
    A: float | None = None
    B: float | None = None
    fit_residual: float | None = None
    constraints: dict = field(default_factory=dict)
    recurrence: float | None = None
    decomposability: float | None = None
    dec: str = "satisfied"
    purely_electric: bool | None = None
    warnings: list = field(default_factory=list)


def extract_AB(ricci: TensorValue, frame: TetradFrame,
               g: np.ndarray) -> tuple:
    """Least-squares fit of the Ricci tensor to A k_(a l_b) + B m_(a m̄_b).

    Returns (A, B, max-norm fit residual).  The two basis tensors are
    the symmetrized products of the lowered tetrad legs; both are real,
    so the fit runs over the 16 real components directly.
    """
    k_dn = np.real(g @ frame.k)
    l_dn = np.real(g @ frame.l)
    m_dn = g @ frame.m
    kl = 0.5 * (np.outer(k_dn, l_dn) + np.outer(l_dn, k_dn))
    mmbar = np.real(0.5 * (np.outer(m_dn, np.conj(m_dn))
                           + np.outer(np.conj(m_dn), m_dn)))
    design = np.stack([kl.ravel(), mmbar.ravel()], axis=1)
    target = np.real(ricci.array).ravel()
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = float(np.max(np.abs(target - design @ coef)))
    return float(coef[0]), float(coef[1]), resid


def dec_check(einstein: TensorValue, frame: TetradFrame, g: np.ndarray,
              tol: float = RESIDUAL_TOL, seed: int = DEC_SEED,
              samples: int = DEC_SAMPLES, scale: float | None = None) -> str:
    """Dominant-energy probe: for seeded future timelike unit vectors u,
    the flux -G^a_b u^b must be causal and future-pointing.

    ``scale`` is the magnitude against which the Einstein tensor is
    considered significant (pass the curvature scale so that roundoff
    left over from an exactly vacuum geometry is not sampled as matter).
    """
    ginv = np.linalg.inv(g)
    gmix = ginv @ np.real(einstein.array)
    if scale is not None and float(np.max(np.abs(gmix))) <= tol * scale:
        return "satisfied"
    e0 = np.real(frame.k + frame.l) / np.sqrt(2.0)
    e1 = np.real(frame.k - frame.l) / np.sqrt(2.0)
    e2 = np.sqrt(2.0) * np.real(frame.m)
    e3 = np.sqrt(2.0) * np.imag(frame.m)
    gmax = max(float(np.max(np.abs(gmix))), SCALE_FLOOR)
    metmax = float(np.max(np.abs(g)))
    e0max = float(np.max(np.abs(e0)))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        chi = rng.uniform(0.0, 2.0)
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        u = np.cosh(chi) * e0 + np.sinh(chi) * (n[0] * e1 + n[1] * e2
                                                + n[2] * e3)
        flux = -gmix @ u
        fs = max(gmax * float(np.max(np.abs(u))), SCALE_FLOOR)
        causal = float(flux @ g @ flux)
        future = float(flux @ g @ e0)
        if causal < -tol * metmax * fs * fs \
                or future < -tol * metmax * fs * e0max:
            return "violated"
    return "satisfied"


def coulomb_constraints(a_val: float, b_val: float, scalar: float,
                        coeff: dict, tol: float = RESIDUAL_TOL) -> tuple:
    """Evaluate the eight product constraints of the two-block Ricci
    form and decide which Coulomb sub-branch the (A, B) pair selects.

    Returns (hint, constraints): hint is "generic" (A and B both clearly
    nonzero), "A0", "B0", or "ambiguous" (inside the dead band);
    constraints maps "A*<name>"/"B*<name>" to relative residuals.  A
    living A forces the transverse products to vanish, a living B the
    longitudinal ones, so the special branches are read off the same
    table.
    """
    sc_scale = max(max(abs(v) for v in coeff.values()), SCALE_FLOOR)
    ab_scale = max(abs(a_val), abs(b_val), abs(scalar), SCALE_FLOOR)
    constraints = {}
    for name in A_PRODUCTS:
        constraints[f"A*{name}"] = _relative(abs(a_val * coeff[name]),
                                             ab_scale * sc_scale)
    for name in B_PRODUCTS:
        constraints[f"B*{name}"] = _relative(abs(b_val * coeff[name]),
                                             ab_scale * sc_scale)
    a_verdict = verdict_for(abs(a_val), ab_scale, tol)
    b_verdict = verdict_for(abs(b_val), ab_scale, tol)
    if a_verdict == "fails" and b_verdict == "fails":
        hint = "generic"
    elif a_verdict == "holds" and b_verdict == "fails":
        hint = "A0"
    elif b_verdict == "holds" and a_verdict == "fails":
        hint = "B0"
    else:
        hint = "ambiguous"
    return hint, constraints


def static_note(report: ClassificationReport,
                static: bool) -> ClassificationReport:
    """Attach a warning when a metric declared static comes out type N
    (static geometries only allow types I, D, or O)."""
    if static and report.petrov == "N":
        report.warnings.append(
            "metric is flagged static but the Weyl tensor has type N; "
            "static geometries admit only Petrov types I, D, or O")
    return report


def _relative(value: float, scale: float) -> float:
    return float(value) / max(float(scale), SCALE_FLOOR)


def classify_point(m: MetricField, p, tetrad: NullTetrad | None = None,
                   tol: float = RESIDUAL_TOL,
                   dec_seed: int = DEC_SEED) -> ClassificationReport:
    """Run the full decision tree at one point; see module docstring."""
    if tetrad is None:
        tetrad = m.tetrad
    if tetrad is None:
        raise TetradMissingError(
            f"metric '{m.name}' carries no null tetrad field")
    curv = curvature(m, p)
    frame = tetrad_frame(m, tetrad, p)
    ad = adapt_tetrad(m, tetrad, p, tol)
    semi = semi_symmetry_residual(m, p, tol)
    petrov = petrov_classify(ad.declared.psi, tol)
    einstein = TensorValue(
        np.real(curv.ricci.array) - 0.5 * curv.scalar * curv.metric,
        ("d", "d"), p)
    report = ClassificationReport(
        point=tuple(p), petrov=petrov, semi_verdict=semi.verdict,
        dec=dec_check(einstein, frame, curv.metric, tol, dec_seed,
                      scale=curv.riemann.max_abs()))
    report = static_note(report, m.static)

    if semi.verdict == "fails":
        report.branch = "not-semi-symmetric"
        return report
    if semi.verdict == "indeterminate":
        report.warnings.append(
            "semi-symmetry residual sits inside the dead band")
        return report
    if petrov == "O":
        report.branch = "O"
        return report
    if petrov in ("I", "II", "III"):
        raise TheoremViolationError(p, petrov, semi.verdict)

    tet_ad, frame_ad, adapted = ad.tetrad, ad.frame, ad.data
    spin = spin_coefficients(m, tet_ad, p, tol)
    coeff = spin.as_dict()
    sc_scale = max(max(abs(v) for v in coeff.values()), SCALE_FLOOR)
    np_scale = max(adapted.scale(), SCALE_FLOOR)

    report.constraints["kappa"] = _relative(abs(coeff["kappa"]), sc_scale)
    balance = abs(coeff["sigma"] * adapted.psi[4]
                  - coeff["rho"] * adapted.phi[2, 2])
    report.constraints["sigma*psi4-rho*phi22"] = _relative(
        balance, sc_scale * np_scale)

    if petrov == "N":
        return _classify_n(m, p, report, tet_ad, adapted, coeff,
                           sc_scale, np_scale, tol)
    return _classify_d(m, p, report, tet_ad, frame_ad, curv, adapted,
                       coeff, np_scale, tol)


def _classify_n(m, p, report, tet_ad, adapted, coeff, sc_scale, np_scale,
                tol):
    pattern = max(adapted.off_pattern(4, (2, 2)), abs(adapted.scalar))
    if verdict_for(pattern, np_scale, tol) != "holds":
        report.warnings.append(
            "radiation pattern violated: curvature scalars outside "
            f"psi4/phi22 reach {pattern:.3e} against scale {np_scale:.3e}")
        return report
    shear = max(abs(coeff["sigma"]), abs(coeff["rho"]))
    if verdict_for(shear, sc_scale, tol) == "holds":
        constant_k = constant_null_vector_check(m, tet_ad.k, p, tol)
        report.constraints["constant_null_k"] = _relative(
            constant_k.residual, constant_k.scale)
        if constant_k.verdict == "holds":
            report.branch = "N-second-order-candidate"
            return report
    report.branch = "N-generic"
    return report


def _classify_d(m, p, report, tet_ad, frame_ad, curv, adapted, coeff,
                np_scale, tol):
    psi2 = adapted.psi[2]
    pattern = adapted.off_pattern(2, (1, 1))
    lock = abs(adapted.scalar + 12.0 * psi2)
    lock_scale = max(abs(adapted.scalar), 12.0 * abs(psi2), SCALE_FLOOR)
    if verdict_for(pattern, np_scale, tol) != "holds" or \
            verdict_for(lock, lock_scale, tol) != "holds":
        report.warnings.append(
            "Coulomb pattern violated: off-pattern scalars reach "
            f"{pattern:.3e}, scalar-curvature lock misses by {lock:.3e}")
        return report
    report.purely_electric = bool(
        abs(psi2.imag) <= tol * max(abs(psi2), SCALE_FLOOR))

    a_val, b_val, fit = extract_AB(curv.ricci, frame_ad, curv.metric)
    report.A, report.B, report.fit_residual = a_val, b_val, fit
    fit_scale = max(float(np.max(np.abs(np.real(curv.ricci.array)))),
                    abs(a_val), abs(b_val), SCALE_FLOOR)
    if fit > tol * fit_scale:
        report.warnings.append(
            f"Ricci tensor is not of the two-term null-pair form "
            f"(fit residual {fit:.3e} against scale {fit_scale:.3e})")
        return report

    hint, products = coulomb_constraints(a_val, b_val, adapted.scalar,
                                         coeff, tol)
    report.constraints.update(products)

    if hint == "generic":
        rec_k = recurrence_check(m, tet_ad.k, tet_ad.l, p, tol)
        rec_l = recurrence_check(m, tet_ad.l, tet_ad.k, p, tol)
        product = decomposability_check(m, tet_ad.k, tet_ad.l, p, tol)
        report.recurrence = max(_relative(rec_k.residual, rec_k.scale),
                                _relative(rec_l.residual, rec_l.scale))
        report.decomposability = _relative(product.residual, product.scale)
        products_hold = all(products[key] <= tol for key in products)
        if products_hold and rec_k.verdict == "holds" \
                and rec_l.verdict == "holds" and product.verdict == "holds":
            report.branch = "D-generic-decomposable"
        else:
            report.warnings.append(
                "generic two-block constraints violated despite A,B both "
                "significant")
        return report
    if hint == "A0":
        report.branch = "D-special-A0"
        return report
    if hint == "B0":
        report.branch = "D-special-B0"
        return report
    report.warnings.append(
        f"A = {a_val:.3e} and B = {b_val:.3e} are not cleanly zero or "
        "nonzero at the working scale")
    return report
