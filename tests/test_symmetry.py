import numpy as np
import numpy.testing as npt
import pytest

from curvlab.conventions import SCALE_FLOOR
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import differentiate, evaluate
from curvlab.geometry import curvature, max_abs
from curvlab.symmetry import (
    RecurrenceResult,
    TetradMissingError,
    _gradient_scale,
    conformal_semi_symmetry_residual,
    constant_null_vector_check,
    decomposability_check,
    locally_symmetric_residual,
    null_leg,
    recurrence_check,
    ricci_semi_symmetry_residual,
    second_order_symmetry_residual,
    semi_symmetry_residual,
    verdict_for,
)

ALL_CONDITIONS = [
    semi_symmetry_residual,
    conformal_semi_symmetry_residual,
    ricci_semi_symmetry_residual,
    second_order_symmetry_residual,
    locally_symmetric_residual,
]


def test_verdict_dead_band():
    assert verdict_for(0.0, 1.0) == "holds"
    assert verdict_for(9.9e-10, 1.0) == "holds"
    assert verdict_for(5e-9, 1.0) == "indeterminate"
    assert verdict_for(1.1e-8, 1.0) == "fails"


class TestConditionResiduals:
    def test_flat_space_satisfies_everything(self, minkowski):
        p = minkowski.points["p1"]
        for probe in ALL_CONDITIONS:
            rep = probe(minkowski, p)
            assert rep.verdict == "holds", rep.condition
            assert rep.residual == 0.0

    def test_schwarzschild_breaks_curvature_commutator(self, schwarzschild):
        # at r = 3M the residual is far outside the dead band
        rep = semi_symmetry_residual(schwarzschild, (0.0, 3.0, 1.0, 2.0))
        assert rep.verdict == "fails"
        assert rep.residual > 1e-3 * rep.scale

    def test_schwarzschild_breaks_weyl_commutator(self, schwarzschild):
        rep = conformal_semi_symmetry_residual(schwarzschild,
                                               (0.0, 3.0, 1.0, 2.0))
        assert rep.verdict == "fails"

    def test_schwarzschild_ricci_condition_vacuous(self, schwarzschild):
        for p in schwarzschild.points.values():
            rep = ricci_semi_symmetry_residual(schwarzschild, p)
            assert rep.verdict == "holds"

    def test_schwarzschild_has_curvature_gradient(self, schwarzschild):
        p = schwarzschild.points["p0"]
        assert locally_symmetric_residual(schwarzschild, p).verdict == "fails"
        assert second_order_symmetry_residual(schwarzschild, p).verdict == "fails"

    def test_nariai_is_locally_symmetric(self, nariai):
        for p in nariai.points.values():
            for probe in ALL_CONDITIONS:
                rep = probe(nariai, p)
                assert rep.verdict == "holds", (rep.condition, p)

    def test_product_metric_satisfies_commutator_conditions(self, product2x2):
        for p in product2x2.points.values():
            assert semi_symmetry_residual(product2x2, p).holds
            assert conformal_semi_symmetry_residual(product2x2, p).holds
            assert ricci_semi_symmetry_residual(product2x2, p).holds

    def test_product_metric_is_not_locally_symmetric(self, product2x2):
        # factor curvatures vary from point to point
        p = product2x2.points["p1"]
        assert locally_symmetric_residual(product2x2, p).verdict == "fails"

    def test_wave_satisfies_commutator_conditions(self, ppwave):
        for p in ppwave.points.values():
            assert semi_symmetry_residual(ppwave, p).holds
            assert conformal_semi_symmetry_residual(ppwave, p).holds
            assert ricci_semi_symmetry_residual(ppwave, p).holds

    def test_wave_amplitude_linear_in_u_is_second_order(self, ppwave):
        # ∂²_u of the amplitude vanishes, so ∇∇Riemann = 0 even though
        # ∇Riemann itself does not
        for p in ppwave.points.values():
            assert second_order_symmetry_residual(ppwave, p).holds
        assert locally_symmetric_residual(
            ppwave, ppwave.points["p0"]).verdict == "fails"

    def test_wave_amplitude_quadratic_in_u_is_not_second_order(self, ppwave_u2):
        for p in ppwave_u2.points.values():
            rep = second_order_symmetry_residual(ppwave_u2, p)
            assert rep.verdict == "fails", p
        # ...but the antisymmetrized condition still holds
        for p in ppwave_u2.points.values():
            assert semi_symmetry_residual(ppwave_u2, p).holds


class TestDirectRouteAgreement:
    """The algebraic commutator route must match two explicit covariant
    derivatives antisymmetrized, residual for residual."""

    @pytest.mark.parametrize("probe", [
        semi_symmetry_residual,
        conformal_semi_symmetry_residual,
        ricci_semi_symmetry_residual,
    ])
    def test_methods_agree(self, probe, all_metrics):
        for m in all_metrics:
            for p in list(m.points.values())[:3]:
                fast = probe(m, p, method="commutator")
                slow = probe(m, p, method="direct")
                assert fast.verdict == slow.verdict, (m.name, p)
                npt.assert_allclose(
                    fast.residual, slow.residual, rtol=1e-6,
                    atol=1e-7 * fast.scale,
                    err_msg=f"{m.name} at {p}: routes disagree")

    def test_unknown_method_rejected(self, minkowski):
        with pytest.raises(ValueError):
            semi_symmetry_residual(minkowski, minkowski.points["origin"],
                                   method="guess")


class TestImplicationChains:
    def test_hierarchy(self, all_metrics, ppwave_u2):
        for m in list(all_metrics) + [ppwave_u2]:
            for p in m.points.values():
                semi = semi_symmetry_residual(m, p).holds
                conf = conformal_semi_symmetry_residual(m, p).holds
                ricc = ricci_semi_symmetry_residual(m, p).holds
                second = second_order_symmetry_residual(m, p).holds
                locsym = locally_symmetric_residual(m, p).holds
                if locsym:
                    assert second, f"{m.name} {p}: ∇R=0 but ∇∇R≠0"
                if second:
                    assert semi, f"{m.name} {p}: ∇∇R=0 but commutator≠0"
                if semi:
                    assert conf and ricc, f"{m.name} {p}: downstream broken"

    def test_weyl_and_full_condition_equivalent(self, all_metrics, ppwave_u2):
        # where the Weyl tensor is non-negligible, the two commutator
        # conditions stand or fall together
        for m in list(all_metrics) + [ppwave_u2]:
            for p in m.points.values():
                c = curvature(m, p)
                if max_abs(c.weyl) <= 1e-9 * max(max_abs(c.riemann), 1e-14):
                    continue
                semi = semi_symmetry_residual(m, p)
                conf = conformal_semi_symmetry_residual(m, p)
                assert semi.verdict == conf.verdict, (m.name, p)


def legs(m, point, *fields):
    """The declared fields' numbers at ``point``, as the null probes
    read them."""
    return [null_leg(m, f, point) for f in fields]


class TestRecurrence:
    def test_wave_vector_is_constant_hence_recurrent(self, ppwave, null_pairs):
        p = ppwave.points["p0"]
        k, l = legs(ppwave, p, *null_pairs["ppwave"])
        res = recurrence_check(ppwave, k, l, p)
        assert res.holds
        assert res.residual == 0.0
        npt.assert_allclose(res.v, 0, atol=1e-15)

    def test_product_null_directions_recurrent(self, nariai, null_pairs):
        for name, p in nariai.points.items():
            k, l = legs(nariai, p, *null_pairs["nariai"])
            res = recurrence_check(nariai, k, l, p)
            assert res.holds, (name, res.residual, res.scale)
            # the recurrence covector points along the timelike factor
            expected = np.zeros(4)
            expected[1] = np.sinh(p[0])
            npt.assert_allclose(res.v.real, expected, atol=1e-12,
                                err_msg=f"recurrence covector at {name}")

    def test_product_partner_recurrent_too(self, nariai, null_pairs):
        p = nariai.points["p0"]
        k, l = legs(nariai, p, *null_pairs["nariai"])
        res = recurrence_check(nariai, l, k, p)
        assert res.holds

    def test_expanding_congruence_not_recurrent(self, schwarzschild, null_pairs):
        p = schwarzschild.points["p0"]
        k, l = legs(schwarzschild, p, *null_pairs["schwarzschild"])
        res = recurrence_check(schwarzschild, k, l, p)
        assert res.verdict == "fails"

    def test_missing_field_raises(self, nariai, null_pairs):
        k, _ = null_pairs["nariai"]
        p = nariai.points["p0"]
        with pytest.raises(TetradMissingError):
            recurrence_check(nariai, null_leg(nariai, k, p),
                             null_leg(nariai, None, p, "partner"), p)


class TestDecomposability:
    def test_product_metrics_decompose(self, nariai, product2x2, null_pairs):
        for m in (nariai, product2x2):
            for p in m.points.values():
                k, l = legs(m, p, *null_pairs[m.name])
                rep = decomposability_check(m, k, l, p)
                assert rep.holds, (m.name, p, rep.residual / rep.scale)

    def test_flat_space_decomposes(self, minkowski, null_pairs):
        p = minkowski.points["origin"]
        k, l = legs(minkowski, p, *null_pairs["minkowski"])
        rep = decomposability_check(minkowski, k, l, p)
        assert rep.holds

    def test_wave_does_not_decompose(self, ppwave, null_pairs):
        p = ppwave.points["p0"]
        k, l = legs(ppwave, p, *null_pairs["ppwave"])
        rep = decomposability_check(ppwave, k, l, p)
        assert rep.verdict == "fails"

    def test_schwarzschild_does_not_decompose(self, schwarzschild, null_pairs):
        p = schwarzschild.points["p0"]
        k, l = legs(schwarzschild, p, *null_pairs["schwarzschild"])
        rep = decomposability_check(schwarzschild, k, l, p)
        assert rep.verdict == "fails"


class TestConstantNullVector:
    def test_wave_vector_constant(self, ppwave, null_pairs):
        k, _ = null_pairs["ppwave"]
        for p in ppwave.points.values():
            rep = constant_null_vector_check(ppwave, null_leg(ppwave, k, p), p)
            assert rep.holds
            assert rep.residual == 0.0

    def test_flat_space_constant(self, minkowski, null_pairs):
        k, _ = null_pairs["minkowski"]
        p = minkowski.points["p1"]
        assert constant_null_vector_check(
            minkowski, null_leg(minkowski, k, p), p).holds

    def test_recurrent_but_not_constant(self, nariai, null_pairs):
        k, _ = null_pairs["nariai"]
        p = (0.8, -1.0, 2.2, 1.5)
        rep = constant_null_vector_check(nariai, null_leg(nariai, k, p), p)
        assert rep.verdict == "fails"

    def test_expanding_congruence_not_constant(self, schwarzschild, null_pairs):
        k, _ = null_pairs["schwarzschild"]
        p = schwarzschild.points["p0"]
        rep = constant_null_vector_check(
            schwarzschild, null_leg(schwarzschild, k, p), p)
        assert rep.verdict == "fails"

    def test_non_null_field_rejected(self, minkowski):
        from conftest import vector_field
        timelike = vector_field(minkowski, ["1", "0", "0", "0"])
        p = minkowski.points["origin"]
        with pytest.raises(ValueError):
            constant_null_vector_check(
                minkowski, null_leg(minkowski, timelike, p), p)


def loop_gradient_scale(m, point, v_dn):
    """Reference scale: each of the sixteen partial derivatives built
    and interpreted on its own."""
    bindings = m.bindings(point)
    dmax = 0.0
    for a in range(4):
        for i in range(4):
            with m.arena:
                d = differentiate(v_dn.components[i], m.chart[a])
            dmax = max(dmax, abs(evaluate(d, bindings)))
    gmax = max_abs(m.evaluate_field(m.christoffel_symbolic(), point))
    vmax = max_abs(m.evaluate_field(v_dn, point))
    return max(dmax, gmax * vmax, SCALE_FLOOR)


class TestGradientScale:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_field_equals_the_derivative_loop(self, name):
        # points in order: the first is interpreted, the rest run tapes
        m = load_corpus_metric(name)
        t = m.tetrad
        for pname, p in sorted(m.points.items()):
            for leg in (t.k, t.l, t.m_re, t.m_im):
                v_dn = m.lowered_vector_field(leg)
                assert _gradient_scale(m, p, null_leg(m, leg, p)) == \
                    loop_gradient_scale(m, p, v_dn), pname
