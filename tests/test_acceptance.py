"""Top-level acceptance suite: one test per advertised guarantee.

Each test pins a numbered end-to-end claim about the package at its
stated tolerance, running on the bundled metric corpus or on seeded
synthetic data.  Run with ``-v`` to get one pass/fail line per
criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from curvlab.analysis import corpus_regression, cross_validate_point
from curvlab.classify import TheoremViolationError, classify_point, dec_check
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.geometry import curvature
from curvlab.newman_penrose import (
    adapt_tetrad,
    np_scalars,
    null_rotate_weyl,
    petrov_classify,
    tetrad_frame,
)
from curvlab.spinors import (
    check_contracted_condition,
    check_ricci_commutator,
    check_weyl_condition_1,
    check_weyl_condition_2,
    make_condition_data,
    weyl_spinor,
)
from curvlab.symmetry import (
    conformal_semi_symmetry_residual,
    constant_null_vector_check,
    decomposability_check,
    null_leg,
    recurrence_check,
    second_order_symmetry_residual,
    semi_symmetry_residual,
)

from conftest import petrov_from_roots

TOL = 1e-9
ZERO_TOL = 1e-13
DECISIVE = 1e-3
CURVED = ("nariai", "ppwave_linear", "ppwave_quadratic_u", "product2x2",
          "schwarzschild")


@pytest.fixture(scope="module")
def corpus():
    return {name: load_corpus_metric(name) for name in CORPUS_NAMES}


def corpus_points(corpus):
    for name in CORPUS_NAMES:
        m = corpus[name]
        for pname in sorted(m.points):
            yield name, m, pname, m.points[pname]


def psi_from_roots(finite_roots, inf_mult=0, lead=1.0):
    """Weyl scalars whose direction quartic has the given roots; roots
    at infinity lower the polynomial degree."""
    assert len(finite_roots) + inf_mult == 4
    if finite_roots:
        coeffs = lead * np.poly(np.asarray(finite_roots, dtype=complex))
    else:
        coeffs = np.array([lead], dtype=complex)
    full = np.zeros(5, dtype=complex)
    full[5 - len(coeffs):] = coeffs
    a4, a3, a2, a1, a0 = full
    return np.array([a0, a1 / 4.0, a2 / 6.0, a3 / 4.0, a4])


def separated_roots(rng, count, min_dist=0.25):
    roots = []
    while len(roots) < count:
        z = complex(rng.normal(), rng.normal())
        if all(abs(z - w) > min_dist for w in roots):
            roots.append(z)
    return roots


def test_criterion_01_condition_families_pass_weyl_checks():
    """Radiation and Coulomb condition data leave all three Weyl-side
    checks at zero (<= 1e-13 absolute); canonical type I, II, III data
    leave the contracted check >= 1e-3 of the squared input scale."""
    for family in ("N", "D"):
        psi, phi, scalar = make_condition_data(family, 1.0)
        assert check_weyl_condition_1(psi, scalar) <= ZERO_TOL, family
        assert check_contracted_condition(psi, scalar) <= ZERO_TOL, family
        assert check_weyl_condition_2(psi, phi) <= ZERO_TOL, family
    rejects = {
        "I": np.array([1, 0, 1, 0, 1], dtype=complex),
        "II": np.array([0, 0, 1, 0, 1], dtype=complex),
        "III": np.array([0, 0, 0, 1, 0], dtype=complex),
    }
    for name, psi_vec in rejects.items():
        scale = float(np.max(np.abs(psi_vec))) ** 2
        residual = check_contracted_condition(weyl_spinor(psi_vec), 0.0)
        assert residual >= DECISIVE * scale, (name, residual)


def test_criterion_02_ricci_commutator_families():
    """The Ricci-side commutator check is zero (<= 1e-13) for both
    condition families and >= 1e-3 of scale for Coulomb data whose
    scalar-curvature lock is dropped to zero."""
    for family in ("N", "D"):
        psi, phi, scalar = make_condition_data(family, 1.0)
        assert check_ricci_commutator(psi, phi, scalar) <= ZERO_TOL, family
    psi, phi, _ = make_condition_data("D", 1.0)
    assert check_ricci_commutator(psi, phi, 0.0) >= DECISIVE


def test_criterion_03_riemann_and_weyl_verdicts_agree(corpus):
    """At every corpus point whose Weyl tensor sits above tolerance, the
    curvature-commutator and Weyl-commutator conditions return the same
    verdict (zero disagreements); the Schwarzschild family fails both
    while the other curved metrics pass both."""
    disagreements, qualifying = [], {name: 0 for name in CORPUS_NAMES}
    for name, m, pname, coords in corpus_points(corpus):
        semi = semi_symmetry_residual(m, coords, TOL)
        conf = conformal_semi_symmetry_residual(m, coords, TOL)
        data = np_scalars(curvature(m, coords),
                          tetrad_frame(m, m.tetrad, coords))
        if data.weyl_scale() <= TOL:
            continue
        qualifying[name] += 1
        if semi.verdict != conf.verdict:
            disagreements.append((name, pname, semi.verdict, conf.verdict))
        expected = "fails" if name == "schwarzschild" else "holds"
        assert semi.verdict == expected, (name, pname, semi.verdict)
        assert conf.verdict == expected, (name, pname, conf.verdict)
    assert disagreements == []
    for name in CURVED:
        assert qualifying[name] >= 5, (name, qualifying[name])


def test_criterion_04_semi_symmetric_types_are_admissible(corpus):
    """Wherever the commutator condition holds with nonzero Weyl, the
    Petrov type is D or N, and classification never trips the
    type-admissibility guard anywhere on the corpus."""
    for name, m, pname, coords in corpus_points(corpus):
        try:
            rep = classify_point(m, coords)
        except TheoremViolationError as exc:
            pytest.fail(f"admissibility guard tripped at {name} {pname}: "
                        f"{exc}")
        data = np_scalars(curvature(m, coords),
                          tetrad_frame(m, m.tetrad, coords))
        if rep.semi_verdict == "holds" and data.weyl_scale() > TOL:
            assert rep.petrov in ("D", "N"), (name, pname, rep.petrov)


def test_criterion_05_adapted_curvature_patterns(corpus):
    """In the adapted frame (1e-9 relative to the curvature-scalar
    scale): the de Sitter-sphere product shows only psi2 and phi11 with
    R = -12 psi2; the affine wave shows only psi4 and phi22 with R = 0."""
    m = corpus["nariai"]
    for coords in m.points.values():
        data = adapt_tetrad(m, m.tetrad, coords).data
        assert abs(data.scalar + 12.0 * data.psi[2]) <= 1e-9 * abs(data.scalar)
        worst = max(max(abs(data.psi[i]) for i in range(5) if i != 2),
                    max(abs(data.phi[ij]) for ij in np.ndindex(3, 3)
                        if ij != (1, 1)))
        assert worst <= 1e-9 * data.scale()
    m = corpus["ppwave_linear"]
    for coords in m.points.values():
        data = adapt_tetrad(m, m.tetrad, coords).data
        worst = max(max(abs(data.psi[i]) for i in range(4)),
                    max(abs(data.phi[ij]) for ij in np.ndindex(3, 3)
                        if ij != (2, 2)),
                    abs(data.scalar))
        assert worst <= 1e-9 * data.scale()


def test_criterion_06_generic_two_block_chain(corpus):
    """On both decomposable type-D metrics, at every point: the eight
    coefficient products vanish, both repeated null directions are
    recurrent, and the null-pair product has zero covariant derivative
    (all residuals <= 1e-9 of their scales)."""
    for name in ("nariai", "product2x2"):
        m = corpus[name]
        for pname, coords in m.points.items():
            rep = classify_point(m, coords)
            for key in ("A*sigma", "A*lambda", "A*mu", "A*rho",
                        "B*kappa", "B*nu", "B*pi", "B*tau"):
                assert rep.constraints[key] <= TOL, (name, pname, key)
            k, l = (null_leg(m, f, coords) for f in (m.tetrad.k, m.tetrad.l))
            rec_k = recurrence_check(m, k, l, coords)
            rec_l = recurrence_check(m, l, k, coords)
            assert rec_k.residual <= TOL * rec_k.scale, (name, pname)
            assert rec_l.residual <= TOL * rec_l.scale, (name, pname)
            product = decomposability_check(m, k, l, coords)
            assert product.residual <= TOL * product.scale, (name, pname)


def test_criterion_07_second_order_split(corpus):
    """The affine wave passes the unsymmetrized second-derivative
    condition (<= 1e-9 scale) and carries a covariantly constant null
    vector; the quadratic-phase wave fails it decisively (>= 1e-3
    scale) while staying semi-symmetric; both have geodesic shear-free
    rays balancing the curvature amplitudes (1e-9)."""
    linear, quadratic = corpus["ppwave_linear"], corpus["ppwave_quadratic_u"]
    for coords in linear.points.values():
        second = second_order_symmetry_residual(linear, coords, TOL)
        assert second.residual <= TOL * second.scale
        constant = constant_null_vector_check(
            linear, null_leg(linear, linear.tetrad.k, coords), coords)
        assert constant.verdict == "holds"
    for coords in quadratic.points.values():
        second = second_order_symmetry_residual(quadratic, coords, TOL)
        assert second.residual >= DECISIVE * second.scale
        assert semi_symmetry_residual(quadratic, coords, TOL).verdict == \
            "holds"
    for m in (linear, quadratic):
        for pname, coords in m.points.items():
            rep = classify_point(m, coords)
            assert rep.constraints["kappa"] <= TOL, (m.name, pname)
            assert rep.constraints["sigma*psi4-rho*phi22"] <= TOL, \
                (m.name, pname)


def test_criterion_08_commutator_and_direct_routes_agree(corpus):
    """For the curvature, Weyl, and Ricci commutator conditions, the
    algebraic route and explicit double covariant differentiation agree
    to 1e-7 relative at every corpus point."""
    for name, m, pname, coords in corpus_points(corpus):
        for cond, (a, b, rel) in cross_validate_point(m, coords,
                                                      TOL).items():
            assert rel <= 1e-7, (name, pname, cond, a, b, rel)


def test_criterion_09_petrov_oracle_and_invariance():
    """The invariant-chain Petrov classifier matches the root-multiplicity
    oracle on 1000 seeded random Weyl vectors and is invariant under 100
    seeded random tetrad transformations; zero disagreements."""
    patterns = {"N": (4,), "III": (3, 1), "D": (2, 2), "II": (2, 1, 1),
                "I": (1, 1, 1, 1)}
    names = sorted(patterns)
    rng = np.random.default_rng(1404)
    failures = []
    samples = []
    for trial in range(1000):
        expected = names[int(rng.integers(len(names)))]
        centers = separated_roots(rng, len(patterns[expected]))
        to_inf = rng.random() < 0.25
        finite, inf_mult = [], 0
        for idx, mult in enumerate(patterns[expected]):
            if to_inf and idx == 0:
                inf_mult = mult
            else:
                finite.extend([centers[idx]] * mult)
        lead = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        psi = psi_from_roots(finite, inf_mult, lead)
        if petrov_classify(psi) != expected or \
                petrov_from_roots(psi) != expected:
            failures.append((trial, expected))
        samples.append((psi, expected))
    assert failures == []

    kinds = ("about-k", "about-l", "boost-spin")
    for trial in range(100):
        psi, expected = samples[int(rng.integers(len(samples)))]
        kind = kinds[int(rng.integers(3))]
        param = complex(rng.normal(), rng.normal())
        if kind == "boost-spin" and abs(param) < 1e-3:
            param = 1.0 + 0.5j
        rotated = null_rotate_weyl(psi, param, kind)
        if petrov_classify(rotated) != expected:
            failures.append((trial, kind, param, expected))
    assert failures == []


def test_criterion_10_dominant_energy_probe(corpus):
    """A purely transverse Einstein tensor (the B = 0 Coulomb shape) is
    flagged as violating the dominant energy condition under the seeded
    100-sample probe; flat space and the radiating wave are not."""
    flat = corpus["minkowski"]
    coords = flat.points["origin"]
    frame = tetrad_frame(flat, flat.tetrad, coords)
    g = flat.metric_value(coords)
    mm = g @ frame.m
    mmbar = np.real(0.5 * (np.outer(mm, mm.conj())
                           + np.outer(mm.conj(), mm)))
    for amplitude in (1.0, -1.0, 0.3, -2.5):
        einstein = amplitude * mmbar
        assert dec_check(einstein, frame, g) == "violated", \
            amplitude
    assert classify_point(flat, coords).dec == "satisfied"
    wave = corpus["ppwave_linear"]
    for pname, coords in wave.points.items():
        assert classify_point(wave, coords).dec == "satisfied", pname


def test_criterion_11_deterministic_json_and_corpus_runtime():
    """Two fresh-process analysis runs with the same file, options, and
    seed emit byte-identical JSON; the full golden-record regression
    finishes in under 60 seconds."""
    cmd = [sys.executable, "-m", "curvlab.cli", "analyze",
           "src/curvlab/corpus_data/nariai.ini", "--json", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout == second.stdout
    assert len(json.loads(first.stdout)) == 5

    start = time.monotonic()
    ok, lines = corpus_regression()
    elapsed = time.monotonic() - start
    assert ok, [ln for ln in lines if "MISMATCH" in ln]
    assert elapsed < 60.0, f"corpus regression took {elapsed:.1f}s"
