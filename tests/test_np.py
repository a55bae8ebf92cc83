"""Tetrad validation, curvature scalars, spin coefficients, Petrov types.

The Petrov classifier is checked against an independent oracle that
clusters the roots of the principal-direction quartic, over seeded
random Weyl data constructed from known root patterns.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from curvlab import expressions
from curvlab.corpus import load_corpus_metric
from curvlab.geometry import curvature
from curvlab.newman_penrose import (
    LEG_QUANTITIES,
    InvalidTetradError,
    NPData,
    NullTetrad,
    TetradFrame,
    adapt_tetrad,
    adapt_weyl,
    null_rotate_frame,
    null_rotate_weyl,
    np_scalars,
    petrov_classify,
    pnd_roots,
    spin_coefficients,
    tetrad_frame,
    validate_tetrad,
    validate_tetrad_from_metric_value,
    weyl_invariants,
)

from conftest import cluster_roots, petrov_from_roots, symbolic_rotation

SQRT2 = math.sqrt(2.0)
ALL_NAMES = ["minkowski", "schwarzschild", "nariai", "ppwave",
             "ppwave_u2", "product2x2"]
SC_NAMES = {"kappa", "sigma", "rho", "tau", "epsilon", "beta",
            "alpha", "gamma", "pi", "lambda", "mu", "nu"}


def scalars_at(metric, tetrad, point):
    return np_scalars(curvature(metric, point),
                      tetrad_frame(metric, tetrad, point))


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


class TestTetradValidation:

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fixture_tetrads_valid_everywhere(self, name, metric_map,
                                              tetrads):
        metric = metric_map[name]
        for pname, point in metric.points.items():
            check = validate_tetrad(metric, tetrads[name], point)
            assert check.valid, (
                f"{name}/{pname}: product {check.worst} off by "
                f"{check.max_residual:.3e}")
            assert len(check.products) == 9

    def test_scaled_leg_names_failing_product(self, schwarzschild, tetrads):
        point = schwarzschild.points["p0"]
        frame = tetrad_frame(schwarzschild, tetrads["schwarzschild"], point)
        bad = TetradFrame(2.0 * frame.k, frame.l, frame.m, frame.point)
        check = validate_tetrad_from_metric_value(
            schwarzschild.metric_value(point), bad)
        assert not check.valid
        assert check.worst == "k.l"
        assert abs(check.products["k.l"][0] - 2.0) < 1e-12

    def test_timelike_leg_names_failing_product(self, schwarzschild, tetrads):
        point = schwarzschild.points["p0"]
        frame = tetrad_frame(schwarzschild, tetrads["schwarzschild"], point)
        bad = TetradFrame(frame.k + frame.l, frame.l, frame.m, frame.point)
        check = validate_tetrad_from_metric_value(
            schwarzschild.metric_value(point), bad)
        assert not check.valid
        assert abs(check.products["k.k"][0] - 2.0) < 1e-12

    def test_scalars_reject_invalid_tetrad(self, schwarzschild, tetrads):
        point = schwarzschild.points["p1"]
        curv = curvature(schwarzschild, point)
        frame = tetrad_frame(schwarzschild, tetrads["schwarzschild"], point)
        bad = TetradFrame(2.0 * frame.k, frame.l, frame.m, frame.point)
        with pytest.raises(InvalidTetradError) as err:
            np_scalars(curv, bad)
        assert err.value.check.worst == "k.l"

    def test_a_bad_frame_fails_and_spin_coefficients_raise(self, nariai,
                                                          tetrads):
        point = nariai.points["p0"]
        gv = nariai.metric_value(point)
        t = tetrads["nariai"]
        frame = tetrad_frame(nariai, t, point)
        assert validate_tetrad_from_metric_value(gv, frame).valid
        assert frame.k.shape == (4,)
        bad = TetradFrame(frame.k, frame.k, frame.m, frame.point)
        assert not validate_tetrad_from_metric_value(gv, bad).valid
        with pytest.raises(InvalidTetradError):
            spin_coefficients(nariai, NullTetrad(t.k, t.k, t.m_re, t.m_im),
                              point)


class TestCurvatureScalars:

    def test_minkowski_all_zero(self, minkowski, tetrads):
        data = scalars_at(minkowski, tetrads["minkowski"],
                          minkowski.points["p1"])
        assert np.max(np.abs(data.psi)) == 0.0
        assert np.max(np.abs(data.phi)) == 0.0
        assert data.scalar == 0.0

    def test_schwarzschild_vacuum_coulomb(self, schwarzschild, tetrads):
        M = schwarzschild.params["M"]
        for pname, point in schwarzschild.points.items():
            data = scalars_at(schwarzschild, tetrads["schwarzschild"], point)
            r = point[1]
            npt.assert_allclose(data.psi[2], -M / r ** 3, rtol=1e-9,
                                err_msg=f"psi2 at {pname}")
            npt.assert_allclose(data.psi[[0, 1, 3, 4]], 0, atol=1e-13,
                                err_msg=f"non-psi2 components at {pname}")
            assert np.max(np.abs(data.phi)) < 1e-12
            assert abs(data.scalar) < 1e-12

    def test_nariai_type_d_einstein(self, nariai, tetrads):
        for pname, point in nariai.points.items():
            data = scalars_at(nariai, tetrads["nariai"], point)
            npt.assert_allclose(data.psi[2], -1.0 / 3.0, rtol=1e-12,
                                err_msg=f"psi2 at {pname}")
            npt.assert_allclose(data.psi[[0, 1, 3, 4]], 0, atol=1e-13)
            assert np.max(np.abs(data.phi)) < 1e-13
            npt.assert_allclose(data.scalar, 4.0, rtol=1e-12)
            # scalar curvature locked to the Coulomb component
            npt.assert_allclose(data.scalar, -12.0 * data.psi[2].real,
                                rtol=1e-12)

    def test_ppwave_pure_radiation(self, ppwave, tetrads):
        for pname, point in ppwave.points.items():
            data = scalars_at(ppwave, tetrads["ppwave"], point)
            u = point[0]
            npt.assert_allclose(data.psi[4], 1.0 + u, rtol=1e-12,
                                err_msg=f"psi4 at {pname}")
            npt.assert_allclose(data.psi[:4], 0, atol=1e-13)
            npt.assert_allclose(data.phi[2, 2], 1.0 + u, rtol=1e-12,
                                err_msg=f"phi22 at {pname}")
            other = data.phi.copy()
            other[2, 2] = 0.0
            assert np.max(np.abs(other)) < 1e-13
            assert abs(data.scalar) < 1e-13

    def test_ppwave_u2_vacuum_wave(self, ppwave_u2, tetrads):
        for point in ppwave_u2.points.values():
            data = scalars_at(ppwave_u2, tetrads["ppwave_u2"], point)
            u = point[0]
            npt.assert_allclose(data.psi[4], u * u, rtol=1e-12)
            npt.assert_allclose(data.psi[:4], 0, atol=1e-13)
            assert np.max(np.abs(data.phi)) < 1e-13
            assert abs(data.scalar) < 1e-13

    def test_product2x2_block_curvatures(self, product2x2, tetrads):
        # both factor curvatures show up in fixed combinations
        for point in product2x2.points.values():
            data = scalars_at(product2x2, tetrads["product2x2"], point)
            x, y = point[1], point[2]
            k1 = -1.0 / (1.0 + x * x) ** 2
            k2 = math.sin(y) / (2.0 + math.sin(y))
            npt.assert_allclose(data.psi[2], -(k1 + k2) / 6.0, rtol=1e-10,
                                atol=1e-13)
            npt.assert_allclose(data.phi[1, 1], -(k1 - k2) / 4.0, rtol=1e-10,
                                atol=1e-13)
            npt.assert_allclose(data.scalar, 2.0 * (k1 + k2), rtol=1e-10,
                                atol=1e-13)
            npt.assert_allclose(data.psi[[0, 1, 3, 4]], 0, atol=1e-13)
            other = data.phi.copy()
            other[1, 1] = 0.0
            assert np.max(np.abs(other)) < 1e-13

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_phi_matrix_hermitian(self, name, metric_map, tetrads):
        metric = metric_map[name]
        point = next(iter(metric.points.values()))
        data = scalars_at(metric, tetrads[name], point)
        npt.assert_allclose(data.phi, np.conj(data.phi.T), atol=1e-13,
                            err_msg=f"phi not hermitian for {name}")

    def test_coulomb_components_purely_real(self, schwarzschild, nariai,
                                            product2x2, tetrads):
        for metric in (schwarzschild, nariai, product2x2):
            point = next(iter(metric.points.values()))
            data = scalars_at(metric, tetrads[metric.name], point)
            assert abs(data.psi[2].imag) < 1e-13


class TestSpinCoefficients:

    def test_minkowski_all_vanish(self, minkowski, tetrads):
        values = spin_coefficients(minkowski, tetrads["minkowski"],
                                   minkowski.points["p1"])
        assert set(values) == SC_NAMES
        assert max(abs(v) for v in values.values()) == 0.0

    def test_one_plain_dict_in_the_conventional_order(self, nariai, tetrads):
        values = spin_coefficients(nariai, tetrads["nariai"],
                                   nariai.points["p0"])
        assert type(values) is dict
        assert list(values) == ["kappa", "sigma", "rho", "tau", "epsilon",
                                "beta", "alpha", "gamma", "pi", "lambda",
                                "mu", "nu"]

    def test_ppwave_transverse_group_vanishes(self, ppwave, tetrads):
        for point in ppwave.points.values():
            sc = spin_coefficients(ppwave, tetrads["ppwave"], point)
            for name in ("kappa", "sigma", "rho", "tau", "epsilon", "pi"):
                assert abs(sc[name]) < 1e-13, (name, point)

    def test_nariai_eight_zeros(self, nariai, tetrads):
        zeros = ("kappa", "sigma", "rho", "tau", "pi", "nu", "mu", "lambda")
        for point in nariai.points.values():
            values = spin_coefficients(nariai, tetrads["nariai"],
                                       point)
            for name in zeros:
                assert abs(values[name]) < 1e-13, (name, point)
            npt.assert_allclose(values["epsilon"],
                                math.tanh(point[0]) / (2.0 * SQRT2),
                                rtol=1e-10, atol=1e-14)

    def test_product2x2_eight_zeros(self, product2x2, tetrads):
        zeros = ("kappa", "sigma", "rho", "tau", "pi", "nu", "mu", "lambda")
        for point in product2x2.points.values():
            values = spin_coefficients(product2x2, tetrads["product2x2"],
                                       point)
            for name in zeros:
                assert abs(values[name]) < 1e-13, (name, point)

    def test_schwarzschild_radial_tetrad_values(self, schwarzschild, tetrads):
        point = schwarzschild.points["p0"]        # r = 4, theta = pi/3
        r, theta = point[1], point[2]
        M = schwarzschild.params["M"]
        values = spin_coefficients(schwarzschild, tetrads["schwarzschild"],
                                   point)
        for name in ("kappa", "sigma", "lambda", "nu", "epsilon",
                     "tau", "pi"):
            assert abs(values[name]) < 1e-13, name
        npt.assert_allclose(values["rho"], -1.0 / r, rtol=1e-10)
        npt.assert_allclose(values["mu"], -(1.0 - 2.0 * M / r) / (2.0 * r),
                            rtol=1e-10)
        npt.assert_allclose(values["gamma"], M / (2.0 * r * r), rtol=1e-10)
        npt.assert_allclose(values["beta"],
                            1.0 / (math.tan(theta) * 2.0 * SQRT2 * r),
                            rtol=1e-10)
        npt.assert_allclose(values["alpha"], -values["beta"], rtol=1e-10)

    def test_invalid_tetrad_rejected(self, nariai, tetrads):
        good = tetrads["nariai"]
        bad = type(good)(good.k, good.k, good.m_re, good.m_im)
        with pytest.raises(InvalidTetradError):
            spin_coefficients(nariai, bad, nariai.points["p0"])


ROTATION_CASES = [
    ("about-k", 0.3 - 0.4j),
    ("about-k", -1.2 + 0.1j),
    ("about-l", -0.2 + 0.5j),
    ("about-l", 0.8j),
    ("boost-spin", 1.3 + 0.7j),
    ("boost-spin", 0.4),
    ("reverse", 0.0),
]


class TestNullRotations:

    @pytest.mark.parametrize("name", ["schwarzschild", "nariai", "ppwave"])
    @pytest.mark.parametrize("kind,param", ROTATION_CASES)
    def test_frame_and_component_routes_agree(self, name, kind, param,
                                              metric_map, tetrads):
        # rotating the tetrad then projecting must equal transforming
        # the already-projected components
        metric = metric_map[name]
        point = metric.points["p2"]
        curv = curvature(metric, point)
        frame = tetrad_frame(metric, tetrads[name], point)
        data = np_scalars(curv, frame)

        rotated = null_rotate_frame(frame, param, kind)
        assert validate_tetrad_from_metric_value(
            metric.metric_value(point), rotated).valid
        direct = np_scalars(curv, rotated).psi
        formula = null_rotate_weyl(data.psi, param, kind)
        scale = max(np.max(np.abs(formula)), 1e-30)
        npt.assert_allclose(direct, formula, atol=1e-12 * scale,
                            err_msg=f"{name} {kind} {param}")

    def test_composition_matches_sequence(self, schwarzschild, tetrads):
        point = schwarzschild.points["p2"]
        curv = curvature(schwarzschild, point)
        frame = tetrad_frame(schwarzschild, tetrads["schwarzschild"], point)
        psi = np_scalars(curv, frame).psi
        seq = [("about-l", 0.4 - 0.3j), ("about-k", 0.2 + 0.6j),
               ("boost-spin", 1.1 - 0.2j)]
        for kind, param in seq:
            frame = null_rotate_frame(frame, param, kind)
            psi = null_rotate_weyl(psi, param, kind)
        direct = np_scalars(curv, frame).psi
        npt.assert_allclose(direct, psi, atol=1e-12 * np.max(np.abs(psi)))

    def test_boost_spin_weights(self):
        psi = np.ones(5, dtype=complex)
        lam = 1.7 - 0.4j
        out = null_rotate_weyl(psi, lam, "boost-spin")
        expected = np.array([lam ** 2, lam, 1.0, 1.0 / lam, 1.0 / lam ** 2])
        npt.assert_allclose(out, expected, rtol=1e-14)

    def test_reverse_reverses(self):
        psi = np.array([1.0, 2.0j, 3.0, 4.0 - 1.0j, 5.0])
        npt.assert_allclose(null_rotate_weyl(psi, 0.0, "reverse"), psi[::-1])

    def test_bad_parameters_rejected(self, minkowski, tetrads):
        psi = np.ones(5, dtype=complex)
        with pytest.raises(ValueError):
            null_rotate_weyl(psi, 0.0, "boost-spin")
        with pytest.raises(ValueError):
            null_rotate_weyl(psi, 1.0, "twist")
        frame = tetrad_frame(minkowski, tetrads["minkowski"],
                             minkowski.points["origin"])
        with pytest.raises(ValueError):
            null_rotate_frame(frame, 0.0, "boost-spin")
        with pytest.raises(ValueError):
            tetrad_frame(minkowski, tetrads["minkowski"],
                         minkowski.points["p1"], "value", [("twist", 1.0)])

    @pytest.mark.parametrize("kind,param", ROTATION_CASES)
    def test_field_rotation_matches_frame_rotation(self, kind, param,
                                                   nariai, tetrads):
        # the legs written out as new symbolic fields, against the
        # declared legs' frame rotated as numbers
        point = nariai.points["p3"]
        with nariai.arena:
            field = symbolic_rotation(tetrads["nariai"], param, kind)
        via_field = tetrad_frame(nariai, field, point)
        via_frame = tetrad_frame(nariai, tetrads["nariai"], point, "value",
                                 [(kind, param)])
        npt.assert_allclose(via_field.k, via_frame.k, atol=1e-13)
        npt.assert_allclose(via_field.l, via_frame.l, atol=1e-13)
        npt.assert_allclose(via_field.m, via_frame.m, atol=1e-13)
        assert validate_tetrad_from_metric_value(
            nariai.metric_value(point), via_frame).valid

    def test_rotated_field_supports_spin_coefficients(self, nariai, tetrads):
        # the adapted-frame machinery needs derivatives of rotated legs
        sc = spin_coefficients(nariai, tetrads["nariai"], nariai.points["p0"],
                               transforms=[("about-l", 0.3 + 0.2j)])
        assert all(np.isfinite(complex(v))
                   for v in sc.values())


def leg_values(m, leg, point):
    """The value, lowered value, ∇ and ∂ of a vector leg at ``point``."""
    return [m.evaluate_field(f, point) for f in m.leg_fields(leg)]


def frame_leg(frame, name: str) -> np.ndarray:
    """One real leg's entry of a frame: k, l, or the parts of m."""
    if name in ("k", "l"):
        return getattr(frame, name)
    return frame.m.real if name == "m_re" else frame.m.imag


class TestLegRecord:
    def test_leg_fields_are_the_builders_fields(self):
        m = load_corpus_metric("nariai")
        for leg in (m.tetrad.k, m.tetrad.l, m.tetrad.m_re, m.tetrad.m_im):
            fields = m.leg_fields(leg)
            assert len(fields) == len(LEG_QUANTITIES)
            value, lowered, nabla, partial = fields
            assert value is leg
            assert lowered is m.lowered_vector_field(leg)
            assert nabla is m.covector_gradient_field(lowered)
            assert partial is m.partial_gradient_field(lowered)
            assert m.leg_fields(leg) is fields

    def test_a_value_frame_and_an_unknown_quantity_build_nothing(self):
        m = load_corpus_metric("nariai")
        size, point = len(m.arena.nodes), m.points["p1"]
        with pytest.raises(ValueError, match="unknown leg quantity 'bogus'"):
            tetrad_frame(m, m.tetrad, point, "bogus")
        assert len(m.arena.nodes) == size
        tetrad_frame(m, m.tetrad, point, "value")
        assert len(m.arena.nodes) == size


class TestLinearFieldRotation:
    """Each quantity of the rotated legs (value, lowered value, ∇, ∂),
    read from the declared legs' numeric frames rotated by
    ``tetrad_frame``, equals the symbolic reference rotation's within a
    few ulp of its scale."""

    ULPS = 8

    def assert_matches(self, m, transforms, reference, point):
        eps = np.finfo(float).eps
        frames = [tetrad_frame(m, m.tetrad, point, q, transforms)
                  for q in LEG_QUANTITIES]
        for name in ("k", "l", "m_re", "m_im"):
            for frame, want in zip(
                    frames, leg_values(m, getattr(reference, name), point)):
                got = frame_leg(frame, name)
                scale = max(float(np.max(np.abs(want))), 1e-300)
                assert np.max(np.abs(got - want)) <= \
                    self.ULPS * eps * scale, (name, point)

    @pytest.mark.parametrize("name", ["nariai", "product2x2"])
    @pytest.mark.parametrize("kind,param", ROTATION_CASES)
    def test_each_rotation_matches_the_symbolic_route(self, name, kind,
                                                      param):
        m = load_corpus_metric(name)
        with m.arena:
            reference = symbolic_rotation(m.tetrad, param, kind)
        self.assert_matches(m, [(kind, param)], reference, m.points["p3"])

    @pytest.mark.parametrize("name", ["nariai", "product2x2"])
    def test_adapted_sequences_match_the_symbolic_route(self, name):
        m = load_corpus_metric(name)
        composed = 0
        for point in m.points.values():
            ad = adapt_tetrad(m, m.tetrad, point)
            reference = m.tetrad
            for kind, param in ad.transforms:
                with m.arena:
                    reference = symbolic_rotation(reference, param, kind)
            if ad.transforms:
                composed += len(ad.transforms) > 1
                self.assert_matches(m, ad.transforms, reference, point)
        assert composed > 0

    def test_rotation_builds_no_expression(self, nariai, tetrads):
        # once the declared legs' quantities exist, rotating them by any
        # sequence of constant transformations is arithmetic on numbers
        tetrad, point = tetrads["nariai"], nariai.points["p2"]
        for q in LEG_QUANTITIES:
            tetrad_frame(nariai, tetrad, point, q)
        before = expressions.table_sizes()
        frames = [tetrad_frame(nariai, tetrad, point, q, ROTATION_CASES)
                  for q in LEG_QUANTITIES]
        assert expressions.table_sizes() == before
        assert validate_tetrad_from_metric_value(
            nariai.metric_value(point), frames[0]).valid


def test_canonical_type_ii_invariants():
    inv = weyl_invariants(np.array([0, 0, 1.0, 0, 1.0]))
    assert inv["I"] == 3.0
    assert inv["J"] == -1.0
    assert inv["K"] == 0.0
    assert inv["L"] == 1.0
    assert inv["N"] == 9.0


def test_pnd_roots_counts_degree_drop():
    psi = psi_from_roots([0.5, -0.5], inf_mult=2)
    roots, inf_mult = pnd_roots(psi)
    assert inf_mult == 2
    npt.assert_allclose(sorted(r.real for r in roots), [-0.5, 0.5],
                        atol=1e-12)
    assert pnd_roots(np.zeros(5)) == ([], 0)


def test_cluster_roots_patterns():
    assert cluster_roots([0.3, 0.3 + 1e-9, 1.0, -2.0], 0) == [2, 1, 1]
    assert cluster_roots([0.3, 1.0], 2) == [2, 1, 1]
    assert cluster_roots([], 4) == [4]
    assert cluster_roots([1.0, 1.0, 1.0 + 1e-10], 1) == [3, 1]


def family_data(psi_slot, phi_slot, scalar, amplitude=0.5):
    psi = np.zeros(5, dtype=complex)
    phi = np.zeros((3, 3), dtype=complex)
    psi[psi_slot] = phi[phi_slot] = amplitude
    return NPData(psi, phi, scalar)


@pytest.mark.parametrize("family, other, data", [
    ("N", "D", family_data(4, (2, 2), 0.0)),           # radiation, R = 0
    ("D", "N", family_data(2, (1, 1), -12.0 * 0.5)),   # Coulomb, R = -12 Ψ2
])
def test_canonical_family_data_fit_only_their_own_family(family, other,
                                                         data):
    assert data.misfit(family) == (0.0, 0.0)
    assert max(data.misfit(other)) >= 0.5


CANONICAL_CASES = [
    (np.zeros(5), "O"),
    (np.array([0, 0, 0, 0, 1.0]), "N"),
    (np.array([1.0, 0, 0, 0, 0]), "N"),
    (np.array([0, 0, 1.0, 0, 0]), "D"),
    (np.array([0, 0, 0, 1.0, 0]), "III"),
    (np.array([0, 0, 1.0, 0, 1.0]), "II"),
]


class TestPetrovClassification:

    @pytest.mark.parametrize("psi,expected", CANONICAL_CASES)
    def test_canonical_forms(self, psi, expected):
        assert petrov_classify(psi) == expected

    def test_below_floor_is_conformally_flat(self):
        assert petrov_classify(1e-16 * np.ones(5)) == "O"
        assert petrov_from_roots(np.zeros(5)) == "O"

    def test_scale_invariance(self):
        psi = psi_from_roots([0.4, 0.4, -0.9 + 0.3j, -0.9 + 0.3j])
        for factor in (1e-12, 1e12, 1j, -3.7):
            assert petrov_classify(factor * psi) == "D"

    @pytest.mark.parametrize("roots,inf_mult,expected", [
        ([0.6 - 0.4j] * 4, 0, "N"),
        ([], 4, "N"),
        ([-0.2 + 0.1j] * 3 + [0.9], 0, "III"),
        ([0.7] * 3, 1, "III"),
        ([0.5, 0.5, -0.3 + 0.7j, -0.3 + 0.7j], 0, "D"),
        ([0.5, 0.5], 2, "D"),
        ([1.1, 1.1, -0.3, 0.8j], 0, "II"),
        ([0.3, -0.5], 2, "II"),
        ([0.3, -0.7, 1.1j, -1.0 + 0.5j], 0, "I"),
        ([0.3, -0.7, 1.1j], 1, "I"),
    ])
    def test_root_patterns_both_routes(self, roots, inf_mult, expected):
        psi = psi_from_roots(roots, inf_mult, lead=0.8 - 0.3j)
        assert petrov_from_roots(psi) == expected
        assert petrov_classify(psi) == expected

    def test_numerically_split_pair_still_degenerate(self):
        psi = psi_from_roots([0.3, 0.3 + 3e-9, 1.0, -1.2j])
        assert petrov_from_roots(psi) == "II"
        assert petrov_classify(psi) == "II"

    def test_nearly_coincident_double_pair_is_still_d(self):
        # two double roots that are chordally close make I and J tiny,
        # which once pushed the invariant chain's degeneracy gate into
        # pure roundoff and returned type I for exact type D data
        r1 = 1.9826339352705544 - 0.9655107600618172j
        r2 = 2.3676778753840986 - 0.8933083679182218j
        psi = psi_from_roots([r1, r1, r2, r2],
                             lead=0.632209249530782 + 0.9910145271428366j)
        assert petrov_from_roots(psi) == "D"
        assert petrov_classify(psi) == "D"

    def test_seeded_oracle_agreement(self):
        rng = np.random.default_rng(20510)
        patterns = {
            "N": (4,), "III": (3, 1), "D": (2, 2),
            "II": (2, 1, 1), "I": (1, 1, 1, 1),
        }
        names = sorted(patterns)
        failures = []
        for trial in range(1000):
            expected = names[int(rng.integers(len(names)))]
            pattern = patterns[expected]
            centers = _separated_roots(rng, len(pattern))
            to_inf = (rng.random() < 0.25)
            finite, inf_mult = [], 0
            for idx, mult in enumerate(pattern):
                if to_inf and idx == 0:
                    inf_mult = mult
                else:
                    finite.extend([centers[idx]] * mult)
            lead = (0.5 + 1.5 * rng.random()) * np.exp(
                2j * np.pi * rng.random())
            psi = psi_from_roots(finite, inf_mult, lead)
            got_chain = petrov_classify(psi)
            got_roots = petrov_from_roots(psi)
            if got_chain != expected or got_roots != expected:
                failures.append((trial, expected, got_chain, got_roots))
        assert failures == [], failures[:10]

    def test_seeded_rotation_invariance(self):
        rng = np.random.default_rng(77)
        patterns = {
            "N": (4,), "III": (3, 1), "D": (2, 2),
            "II": (2, 1, 1), "I": (1, 1, 1, 1),
        }
        names = sorted(patterns)
        kinds = ["about-k", "about-l", "boost-spin"]
        failures = []
        for trial in range(100):
            expected = names[int(rng.integers(len(names)))]
            centers = _separated_roots(rng, len(patterns[expected]))
            finite = []
            for idx, mult in enumerate(patterns[expected]):
                finite.extend([centers[idx]] * mult)
            psi = psi_from_roots(finite, 0, 1.0)
            for _ in range(int(rng.integers(1, 4))):
                kind = kinds[int(rng.integers(3))]
                if kind == "boost-spin":
                    param = ((0.3 + 1.3 * rng.random())
                             * np.exp(2j * np.pi * rng.random()))
                else:
                    param = complex(*rng.uniform(-0.8, 0.8, 2))
                psi = null_rotate_weyl(psi, param, kind)
            got = petrov_classify(psi)
            if got != expected:
                failures.append((trial, expected, got))
        assert failures == [], failures[:10]


def _separated_roots(rng, count, min_dist=0.25):
    """Random complex roots with a guaranteed pairwise gap."""
    while True:
        pts = [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(count)]
        ok = all(abs(pts[i] - pts[j]) >= min_dist
                 for i in range(count) for j in range(i + 1, count))
        if ok:
            return pts


class TestWeylAdaptation:

    def test_canonical_coulomb_untouched(self):
        psi = np.array([0, 0, 0.7 - 0.1j, 0, 0])
        adapted, transforms = adapt_weyl(psi, petrov_classify(psi))
        npt.assert_allclose(adapted, psi)
        assert transforms == []

    def test_chained_roots_make_one_cluster_for_type_and_adaptation(self):
        # 0 and 1.8e-3 lie farther apart than the 1e-3 tolerance, but
        # 9e-4 links them: one triple root for the Petrov type and for
        # the adaptation alike, so k goes to it and no rotation about k
        # follows
        roots = [0.0, 9e-4, 1.8e-3, 5.0]
        assert cluster_roots(roots, 0) == [3, 1]
        psi = psi_from_roots(roots)
        assert petrov_from_roots(psi) == "III"
        _, transforms = adapt_weyl(psi, petrov_classify(psi))
        assert [kind for kind, _ in transforms] == ["about-l"]
        npt.assert_allclose(transforms[0][1], 9e-4, rtol=1e-3)

    def test_radiation_at_infinity_swapped_down(self):
        psi = np.array([2.0, 0, 0, 0, 0])
        adapted, transforms = adapt_weyl(psi, petrov_classify(psi))
        assert ("reverse", 0.0) in transforms
        npt.assert_allclose(adapted, [0, 0, 0, 0, 2.0])

    def test_misaligned_coulomb_recovered(self, schwarzschild, tetrads):
        point = schwarzschild.points["p2"]
        curv = curvature(schwarzschild, point)
        frame = tetrad_frame(schwarzschild, tetrads["schwarzschild"], point)
        for kind, param in [("about-l", 0.4 - 0.3j), ("about-k", 0.2 + 0.6j),
                            ("boost-spin", 1.1 - 0.2j)]:
            frame = null_rotate_frame(frame, param, kind)
        messy = np_scalars(curv, frame).psi
        assert np.min(np.abs(messy)) > 1e-3    # every component excited
        adapted, transforms = adapt_weyl(messy, petrov_classify(messy))
        top = np.max(np.abs(adapted))
        assert np.max(np.abs(adapted[[0, 1, 3, 4]])) < 1e-9 * top
        # the Coulomb component has boost weight zero, so the mess-up
        # and the adaptation both leave its value alone
        M, r = schwarzschild.params["M"], point[1]
        npt.assert_allclose(adapted[2], -M / r ** 3, rtol=1e-9)
        for kind, param in transforms:
            frame = null_rotate_frame(frame, param, kind)
        replay = np_scalars(curv, frame).psi
        npt.assert_allclose(replay, adapted, atol=1e-11 * top)

    def test_misaligned_radiation_recovered(self, ppwave, tetrads):
        point = ppwave.points["p0"]
        curv = curvature(ppwave, point)
        frame = tetrad_frame(ppwave, tetrads["ppwave"], point)
        for kind, param in [("about-l", 0.3 + 0.1j),
                            ("boost-spin", 0.8 + 0.5j)]:
            frame = null_rotate_frame(frame, param, kind)
        messy = np_scalars(curv, frame).psi
        adapted, transforms = adapt_weyl(messy, petrov_classify(messy))
        top = np.max(np.abs(adapted))
        assert np.max(np.abs(adapted[:4])) < 1e-7 * top
        for kind, param in transforms:
            frame = null_rotate_frame(frame, param, kind)
        replay = np_scalars(curv, frame).psi
        npt.assert_allclose(replay, adapted, atol=1e-11 * top)

    def test_adapted_frames_classify_identically(self):
        rng = np.random.default_rng(4097)
        for _ in range(50):
            centers = _separated_roots(rng, 2)
            psi = psi_from_roots([centers[0]] * 2 + [centers[1]] * 2)
            adapted, _ = adapt_weyl(psi, petrov_classify(psi))
            assert petrov_classify(adapted) == "D"
            top = np.max(np.abs(adapted))
            assert np.max(np.abs(adapted[[0, 1, 3, 4]])) < 1e-7 * top


# the base Ψ of each degenerate type, and the components its adapted
# frame must zero
SPREAD_BASE = {"N": ([0, 0, 0, 0, 1.0], [0, 1, 2, 3]),
               "D": ([0, 0, 1.0, 0, 0], [0, 1, 3, 4]),
               "III": ([0, 0, 0, 1.0, 0], [0, 1, 2]),
               "II": ([0, 0, 1.0, 0, 1.0], [0, 1, 3])}


def spread_pattern_holds(petrov, eps, draws=200, tol=1e-9, base=None,
                         about="about-k"):
    """Per seeded draw: the base Ψ of ``petrov`` (or ``base``) plus
    eps·(complex normal noise), null-rotated ``about`` k (or l) by a
    complex normal parameter.  Returns the types the invariant chain gives
    and, for the draws typed ``petrov``, whether the adapted Ψ zeroes its
    pattern to tol·max|Ψ|."""
    default, zero = SPREAD_BASE[petrov]
    rng = np.random.default_rng(0)
    types, held = [], []
    for _ in range(draws):
        psi = np.array(base or default, dtype=complex) + eps * (
            rng.normal(size=5) + 1j * rng.normal(size=5))
        psi = null_rotate_weyl(psi, complex(*rng.normal(size=2)), about)
        types.append(petrov_classify(psi, tol))
        if types[-1] == petrov:
            adapted, _ = adapt_weyl(psi, petrov, tol)
            held.append(bool(np.max(np.abs(adapted[zero]))
                             <= tol * np.max(np.abs(adapted))))
    return types, held


class TestRoundingSpreadRoots:
    """A k-fold root moved by a relative ε spreads by about ε^(1/k), so
    near ε = 1e-12 the four roots of a type N quartic stop clustering
    while the invariants still say N.  The adapted frame follows the
    type, not the clusters."""

    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_type_n_keeps_its_radiation_pattern(self, eps):
        types, held = spread_pattern_holds("N", eps)
        assert types == ["N"] * 200
        assert held == [True] * 200

    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_type_n_along_l_keeps_its_radiation_pattern(self, eps):
        # the repeated direction is l, the root at infinity: spread, its
        # roots are large finite numbers in no large cluster, and the
        # frame is reversed because they lie nearer l than k
        types, held = spread_pattern_holds("N", eps, base=[1.0, 0, 0, 0, 0],
                                           about="about-l")
        assert types == ["N"] * 200
        assert held == [True] * 200

    @pytest.mark.parametrize("petrov, eps, floor", [
        ("D", 1e-12, 194), ("D", 1e-11, 181),
        ("III", 1e-12, 200), ("III", 1e-11, 200),
        ("II", 1e-12, 200), ("II", 1e-11, 200),
    ])
    def test_other_degenerate_types_hold_as_before(self, petrov, eps,
                                                   floor):
        # the floors are the counts of the cluster-only adaptation; the
        # type-D misses at these ε are still open
        types, held = spread_pattern_holds(petrov, eps)
        assert types == [petrov] * 200
        assert sum(held) >= floor
