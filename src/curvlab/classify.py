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

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from .conventions import FAMILIES, RESIDUAL_TOL, SCALE_FLOOR
from .geometry import MetricField, curvature, max_abs
from .newman_penrose import (
    LEG_QUANTITIES,
    NullTetrad,
    TetradFrame,
    adapt_tetrad,
    spin_coefficients,
    tetrad_frame,
)
from .symmetry import (
    NullLeg,
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


def extract_AB(ricci: np.ndarray, frame: TetradFrame,
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
    target = np.real(ricci).ravel()
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = max_abs(target - design @ coef)
    return float(coef[0]), float(coef[1]), resid


def dec_check(einstein: np.ndarray, frame: TetradFrame, g: np.ndarray,
              tol: float = RESIDUAL_TOL, seed: int = DEC_SEED,
              scale: float | None = None) -> str:
    """Dominant-energy probe: for seeded future timelike unit vectors u,
    the flux -G^a_b u^b must be causal and future-pointing.

    ``scale`` is the magnitude against which the mixed Einstein tensor
    G^a_b is considered significant (pass a curvature scale of its weight,
    such as max|R^ab_cd|, so that roundoff left over from an exactly
    vacuum geometry is not sampled as matter).
    """
    ginv = np.linalg.inv(g)
    gmix = ginv @ np.real(einstein)
    if scale is not None and max_abs(gmix) <= tol * scale:
        return "satisfied"
    e0 = np.real(frame.k + frame.l) / np.sqrt(2.0)
    e1 = np.real(frame.k - frame.l) / np.sqrt(2.0)
    e2 = np.sqrt(2.0) * np.real(frame.m)
    e3 = np.sqrt(2.0) * np.imag(frame.m)
    gmax = max(max_abs(gmix), SCALE_FLOOR)
    metmax = max_abs(g)
    e0max = max_abs(e0)
    ch, sh, n = _dec_samples(seed)
    u = ch * e0 + sh * (n[:, :1] * e1 + n[:, 1:2] * e2 + n[:, 2:] * e3)
    flux = -u @ gmix.T
    fs = np.maximum(gmax * np.max(np.abs(u), axis=1), SCALE_FLOOR)
    causal = np.sum((flux @ g) * flux, axis=1)
    future = flux @ g @ e0
    violated = (causal < -tol * metmax * fs * fs) \
        | (future < -tol * metmax * fs * e0max)
    return "violated" if violated.any() else "satisfied"


@functools.lru_cache(maxsize=None)
def _dec_samples(seed: int) -> tuple:
    """The ``DEC_SAMPLES`` boosts of ``dec_check``, drawn once per seed
    from the standard library's ``random.Random(seed)``, whose stream
    CPython keeps the same across versions: per sample a rapidity
    χ = ``uniform(0, 2)``, then a direction n from three ``gauss(0, 1)``,
    made unit.  Returned as the columns cosh χ and sinh χ and the rows of
    n, read-only since every call shares them."""
    rng = random.Random(seed)
    draws = np.array([[rng.uniform(0.0, 2.0), rng.gauss(0.0, 1.0),
                       rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
                      for _ in range(DEC_SAMPLES)])
    chi, n = draws[:, :1], draws[:, 1:]
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    samples = np.cosh(chi), np.sinh(chi), n
    for a in samples:
        a.flags.writeable = False
    return samples


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
    petrov = ad.petrov
    einstein = np.real(curv.ricci) - 0.5 * curv.scalar * curv.metric
    # the vacuum gate weighs G^a_b against curvature of the same weight
    # under g -> a²g, R^ab_cd = g^bf R^a_fcd, so it does not depend on units
    vacuum_scale = max_abs(np.einsum("bf,afcd->abcd",
                                     np.linalg.inv(curv.metric),
                                     curv.riemann_up))
    report = ClassificationReport(
        point=tuple(p), petrov=petrov, semi_verdict=semi.verdict,
        dec=dec_check(einstein, frame, curv.metric, tol, dec_seed,
                      scale=vacuum_scale))
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

    frame_ad, adapted = ad.frame, ad.data
    coeff = spin_coefficients(m, tetrad, p, tol, ad.transforms)
    sc_scale = max(max(abs(v) for v in coeff.values()), SCALE_FLOOR)
    np_scale = max(adapted.scale(), SCALE_FLOOR)

    report.constraints["kappa"] = _relative(abs(coeff["kappa"]), sc_scale)
    balance = abs(coeff["sigma"] * adapted.psi[4]
                  - coeff["rho"] * adapted.phi[2, 2])
    report.constraints["sigma*psi4-rho*phi22"] = _relative(
        balance, sc_scale * np_scale)

    def legs() -> tuple:
        """The adapted k and l as the null probes read them."""
        frames = [tetrad_frame(m, tetrad, p, q, ad.transforms)
                  for q in LEG_QUANTITIES]
        return (NullLeg(*(f.k for f in frames)),
                NullLeg(*(f.l for f in frames)))

    if petrov == "N":
        return _classify_n(m, p, report, legs, adapted, coeff,
                           sc_scale, np_scale, tol)
    return _classify_d(m, p, report, legs, frame_ad, curv, adapted,
                       coeff, np_scale, tol)


def _classify_n(m, p, report, legs, adapted, coeff, sc_scale, np_scale,
                tol):
    pattern = max(adapted.misfit("N"))
    if verdict_for(pattern, np_scale, tol) != "holds":
        report.warnings.append(
            "radiation pattern violated: curvature scalars outside "
            f"psi4/phi22 reach {pattern:.3e} against scale {np_scale:.3e}")
        return report
    shear = max(abs(coeff["sigma"]), abs(coeff["rho"]))
    if verdict_for(shear, sc_scale, tol) == "holds":
        constant_k = constant_null_vector_check(m, legs()[0], p, tol)
        report.constraints["constant_null_k"] = _relative(
            constant_k.residual, constant_k.scale)
        if constant_k.verdict == "holds":
            report.branch = "N-second-order-candidate"
            return report
    report.branch = "N-generic"
    return report


def _classify_d(m, p, report, legs, frame_ad, curv, adapted, coeff,
                np_scale, tol):
    slot, _, factor = FAMILIES["D"]
    psi2 = adapted.psi[slot]
    pattern, lock = adapted.misfit("D")
    lock_scale = max(abs(adapted.scalar), abs(factor) * abs(psi2), SCALE_FLOOR)
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
    fit_scale = max(max_abs(np.real(curv.ricci)),
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
        k, l = legs()
        rec_k = recurrence_check(m, k, l, p, tol)
        rec_l = recurrence_check(m, l, k, p, tol)
        product = decomposability_check(m, k, l, p, tol)
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
