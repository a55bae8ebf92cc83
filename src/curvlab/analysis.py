"""Per-point batch analysis and report emission.

``run_analysis`` drives everything computed elsewhere — curvature, the
five symmetry residuals, null-tetrad scalars, spin coefficients, Petrov
type, and the classification tree — and packages one report per point.
Reports render either as human-readable text or as JSON with a stable
key schema; the JSON form is byte-deterministic for a fixed file,
options, and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classify import ClassificationReport, classify_point
from .conventions import FAMILIES, RESIDUAL_DEAD_BAND, RESIDUAL_TOL, SCALE_FLOOR
from .corpus import CORPUS_NAMES, GOLDEN, load_corpus_metric
# perfbench/tracing.py wraps this module's `curvature`, so the name stays
from .geometry import MetricField, curvature  # noqa: F401
from .newman_penrose import NPData, adapt_tetrad, spin_coefficients
from .spinors import (
    check_contracted_condition,
    check_ricci_commutator,
    check_weyl_condition_1,
    check_weyl_condition_2,
    make_condition_data,
    ricci_spinor,
    weyl_spinor,
)
from .symmetry import (
    TetradMissingError,
    conformal_semi_symmetry_residual,
    locally_symmetric_residual,
    ricci_semi_symmetry_residual,
    second_order_symmetry_residual,
    semi_symmetry_residual,
)

DEFAULT_SEED = 7
RESIDUAL_ORDER = ("semi", "conformal", "ricci", "second_order",
                  "nabla_riemann")
_RESIDUAL_FUNCS = {
    "semi": semi_symmetry_residual,
    "conformal": conformal_semi_symmetry_residual,
    "ricci": ricci_semi_symmetry_residual,
    "second_order": second_order_symmetry_residual,
    "nabla_riemann": locally_symmetric_residual,
}


@dataclass(eq=False)
class PointReport:
    """Everything measured at one named point of one metric."""

    metric: str
    point_name: str
    coords: tuple
    residuals: dict
    petrov: str
    np_data: NPData
    spin: dict
    classification: ClassificationReport
    spinor_checks: dict | None = None
    cross: dict | None = None


def spinor_family_check(data: NPData, tol: float = RESIDUAL_TOL) -> dict | None:
    """Run the component-level condition checks when adapted NP data
    matches one of the two admissible families of
    ``conventions.FAMILIES`` (radiation 'N', Coulomb 'D').

    Returns None when neither pattern fits; otherwise a dict of the four
    residuals relative to the squared data scale (the checks are
    quadratic in the curvature).
    """
    scale = max(data.scale(), SCALE_FLOOR)
    family = next((name for name in FAMILIES
                   if max(data.misfit(name)) <= tol * scale), None)
    if family is None:
        return None
    psi = weyl_spinor(data.psi)
    phi = ricci_spinor(data.phi)
    scalar = float(data.scalar)
    sq = max(scale * scale, SCALE_FLOOR)
    return {
        "family": family,
        "weyl_condition_1": check_weyl_condition_1(psi, scalar) / sq,
        "contracted_condition": check_contracted_condition(psi, scalar) / sq,
        "weyl_condition_2": check_weyl_condition_2(psi, phi) / sq,
        "ricci_commutator": check_ricci_commutator(psi, phi, scalar) / sq,
    }


def cross_validate_point(m: MetricField, coords, tol: float) -> dict:
    """Compare the commutator route against explicit double covariant
    differentiation for the three commutator residuals.

    Returns name -> (commutator value, direct value, difference relative
    to the residual scale).  Every ∇∇ field the direct routes read is
    built before the first read, so the point's arena runs once.
    """
    m.point_fields(("riemann", "weyl", "ricci"))
    out = {}
    for name in ("semi", "conformal", "ricci"):
        fn = _RESIDUAL_FUNCS[name]
        a = fn(m, coords, tol, method="commutator")
        b = fn(m, coords, tol, method="direct")
        rel = abs(a.residual - b.residual) / max(a.scale, b.scale, SCALE_FLOOR)
        out[name] = (a.residual, b.residual, rel)
    return out


def analyze_point(m: MetricField, pname: str, tol: float = RESIDUAL_TOL,
                  seed: int = DEFAULT_SEED,
                  cross_validate: bool = False) -> PointReport:
    coords = m.points[pname]
    if m.tetrad is None:
        raise TetradMissingError(
            f"metric '{m.name}' declares no [tetrad]; analysis needs one")
    # ∇∇R for second_order, with ∇R; the direct routes read ∇∇C and ∇∇Ric
    m.point_fields(("riemann", "weyl", "ricci") if cross_validate
                   else ("riemann",))
    residuals = {}
    for name in RESIDUAL_ORDER:
        residuals[name] = _RESIDUAL_FUNCS[name](m, coords, tol)
    spin = spin_coefficients(m, m.tetrad, coords, tol)
    classification = classify_point(m, coords, tol=tol, dec_seed=seed)
    data = adapt_tetrad(m, m.tetrad, coords, tol).data
    checks = None
    if classification.semi_verdict == "holds":
        checks = spinor_family_check(data, tol)
    cross = cross_validate_point(m, coords, tol) if cross_validate else None
    return PointReport(
        metric=m.name, point_name=pname, coords=tuple(coords),
        residuals=residuals, petrov=classification.petrov, np_data=data,
        spin=spin, classification=classification, spinor_checks=checks,
        cross=cross)


def run_analysis(m: MetricField, tol: float = RESIDUAL_TOL,
                 seed: int = DEFAULT_SEED, point: str | None = None,
                 cross_validate: bool = False) -> list:
    """Analyze one named point or every point, sorted by point name."""
    if point is not None:
        if point not in m.points:
            raise KeyError(
                f"metric '{m.name}' has no point named {point!r}; "
                "available: " + ", ".join(sorted(m.points)))
        names = [point]
    else:
        names = sorted(m.points)
    return [analyze_point(m, pname, tol, seed, cross_validate)
            for pname in names]


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------

def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def report_json_object(rep: PointReport, tol: float, seed: int) -> dict:
    c = rep.classification
    return {
        "metric": rep.metric,
        "point": {"name": rep.point_name, "coords": list(rep.coords)},
        "residuals": {
            name: {"value": r.residual, "scale": r.scale,
                   "verdict": r.verdict}
            for name, r in rep.residuals.items()},
        "petrov": rep.petrov,
        "np": {
            "psi": [_pair(z) for z in rep.np_data.psi],
            "phi": [[_pair(rep.np_data.phi[i, j]) for j in range(3)]
                    for i in range(3)],
            "R": float(rep.np_data.scalar)},
        "spin_coefficients": {name: _pair(z) for name, z in rep.spin.items()},
        "classification": {
            "branch": c.branch,
            "A": c.A,
            "B": c.B,
            "constraints": {k: float(v) for k, v in c.constraints.items()},
            "recurrence": c.recurrence,
            "decomposability": c.decomposability,
            "dec": c.dec,
            "purely_electric": c.purely_electric},
        "tolerances": {"tol": tol, "dead_band": RESIDUAL_DEAD_BAND},
        "seed": seed,
    }


def reports_to_json(reports: list, tol: float, seed: int) -> str:
    """The bytes of ``json.dumps(objs, indent=2, sort_keys=True)`` over
    every report's object, rendered one report at a time: the encoder's
    chunk list then holds one report, not the whole scan.  A JSON string
    holds no raw newline, so indenting each line of a report's text by
    two spaces nests it in the list exactly."""
    if not reports:
        return "[]\n"
    body = ",\n  ".join(
        json.dumps(report_json_object(r, tol, seed), indent=2,
                   sort_keys=True).replace("\n", "\n  ")
        for r in reports)
    return "[\n  " + body + "\n]\n"


# ---------------------------------------------------------------------------
# text emission
# ---------------------------------------------------------------------------

def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:+.9e}{z.imag:+.9e}j"


def render_report(rep: PointReport) -> str:
    lines = [f"metric {rep.metric}  point {rep.point_name}  "
             f"coords ({', '.join(f'{x:g}' for x in rep.coords)})"]
    lines.append("  residuals:")
    for name in RESIDUAL_ORDER:
        r = rep.residuals[name]
        lines.append(f"    {name:<14} value {r.residual:.6e}  "
                     f"scale {r.scale:.6e}  {r.verdict}")
    lines.append(f"  petrov: {rep.petrov}")
    psi = "  ".join(f"psi{i}={_fmt_complex(z)}"
                    for i, z in enumerate(rep.np_data.psi))
    lines.append(f"  np: {psi}")
    for i in range(3):
        row = "  ".join(f"phi{i}{j}={_fmt_complex(rep.np_data.phi[i, j])}"
                        for j in range(3))
        lines.append(f"      {row}")
    lines.append(f"      R={rep.np_data.scalar:+.9e}")
    spin = "  ".join(f"{name}={_fmt_complex(z)}"
                     for name, z in rep.spin.items())
    lines.append(f"  spin coefficients: {spin}")
    c = rep.classification
    lines.append(f"  classification: {c.branch}")
    if c.A is not None:
        lines.append(f"    A = {c.A:+.9e}   B = {c.B:+.9e}   "
                     f"fit residual {c.fit_residual:.3e}")
    for key in sorted(c.constraints):
        lines.append(f"    constraint {key:<22} {c.constraints[key]:.6e}")
    if c.recurrence is not None:
        lines.append(f"    recurrence {c.recurrence:.6e}   "
                     f"decomposability {c.decomposability:.6e}")
    lines.append(f"    dec {c.dec}   purely_electric {c.purely_electric}")
    for w in c.warnings:
        lines.append(f"  warning: {w}")
    if rep.spinor_checks is not None:
        s = rep.spinor_checks
        lines.append(f"  spinor condition family {s['family']}:")
        for key in ("weyl_condition_1", "contracted_condition",
                    "weyl_condition_2", "ricci_commutator"):
            lines.append(f"    {key:<22} {s[key]:.6e}")
    if rep.cross is not None:
        lines.append("  route cross-validation (commutator vs direct):")
        for name, (a, b, rel) in rep.cross.items():
            lines.append(f"    {name:<14} {a:.9e} vs {b:.9e}  "
                         f"(relative difference {rel:.3e})")
    return "\n".join(lines) + "\n"


def render_reports(reports: list) -> str:
    return "\n".join(render_report(rep) for rep in reports)


# ---------------------------------------------------------------------------
# corpus regression and the standalone condition-check suite
# ---------------------------------------------------------------------------

def corpus_regression(tol: float = RESIDUAL_TOL,
                      seed: int = DEFAULT_SEED) -> tuple:
    """Re-analyze every bundled metric and compare with its golden
    record.  Returns (ok, list of report lines)."""
    lines, ok = [], True
    for name in CORPUS_NAMES:
        golden = GOLDEN[name]
        m = load_corpus_metric(name)
        for rep in run_analysis(m, tol=tol, seed=seed):
            problems = []
            if rep.classification.branch != golden.branch:
                problems.append(f"branch {rep.classification.branch} "
                                f"(expected {golden.branch})")
            if rep.petrov != golden.petrov:
                problems.append(f"petrov {rep.petrov} "
                                f"(expected {golden.petrov})")
            for cond, expect in golden.verdicts.items():
                got = rep.residuals[cond].verdict
                if got != expect:
                    problems.append(f"{cond} {got} (expected {expect})")
            status = "ok" if not problems else "MISMATCH: " + "; ".join(problems)
            lines.append(f"{name} {rep.point_name}: {status}")
            ok = ok and not problems
    return ok, lines


def lemma_suite() -> tuple:
    """Standalone verification of the two pointwise condition lemmas on
    component data.  Returns (ok, list of report lines)."""
    checks = []
    for family in FAMILIES:
        psi, phi, scalar = make_condition_data(family, 1.0)
        checks.extend([
            (f"{family}: weyl condition 1",
             check_weyl_condition_1(psi, scalar), True),
            (f"{family}: contracted condition",
             check_contracted_condition(psi, scalar), True),
            (f"{family}: weyl condition 2",
             check_weyl_condition_2(psi, phi), True),
            (f"{family}: ricci commutator",
             check_ricci_commutator(psi, phi, scalar), True),
        ])
    rejects = {
        "I": np.array([1, 0, 1, 0, 1], dtype=complex),
        "II": np.array([0, 0, 1, 0, 1], dtype=complex),
        "III": np.array([0, 0, 0, 1, 0], dtype=complex),
    }
    for name, psi_vec in rejects.items():
        checks.append((f"type {name}: contracted condition stays nonzero",
                       check_contracted_condition(weyl_spinor(psi_vec), 0.0),
                       False))
    psi_d, phi_d, _ = make_condition_data("D", 1.0)
    checks.append(("D with scalar curvature dropped: ricci commutator "
                   "stays nonzero",
                   check_ricci_commutator(psi_d, phi_d, 0.0), False))

    ok, lines = True, []
    for label, residual, want_zero in checks:
        if want_zero:
            passed = residual <= 1e-13
            expect = "= 0"
        else:
            passed = residual >= 1e-3
            expect = "> 0"
        ok = ok and passed
        lines.append(f"{'pass' if passed else 'FAIL'}  {label:<55} "
                     f"residual {residual:.3e} (expected {expect})")
    return ok, lines
