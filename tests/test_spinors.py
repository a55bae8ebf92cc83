import numpy as np
import numpy.testing as npt
import pytest

from curvlab.conventions import CURVATURE_SPINOR_R_FACTOR
from curvlab.geometry import curvature, max_abs
from curvlab.newman_penrose import np_scalars, null_rotate_weyl, tetrad_frame
from curvlab.spinors import (
    EPS,
    check_contracted_condition,
    check_ricci_commutator,
    check_weyl_condition_1,
    check_weyl_condition_2,
    curvature_spinor,
    make_condition_data,
    raise_slot,
    ricci_spinor,
    weyl_spinor,
)
from curvlab.symmetry import (
    conformal_semi_symmetry_residual,
    ricci_semi_symmetry_residual,
)

from conftest import (
    IOTA_DN,
    O_DN,
    Spinor,
    SpinorSlotError,
    contract,
    phi_matrix,
    spinor_outer,
    sym_from_general,
    symmetrize,
    valence,
    vector_spinor,
    weyl_scalars,
)

O = vector_spinor(O_DN)
IOTA = vector_spinor(IOTA_DN)
O_P = vector_spinor(O_DN, primed=True)
IOTA_P = vector_spinor(IOTA_DN, primed=True)
EPS_AB = Spinor(EPS, 2, 0)


def phi_spinor(entries):
    phi = np.zeros((3, 3), dtype=complex)
    for (i, j), v in entries.items():
        phi[i, j] = v
    return ricci_spinor(phi)


class TestDyadIdentities:
    def test_normalization(self):
        npt.assert_allclose(contract(O, IOTA, [(0, 0)]).components, 1.0,
                            err_msg="o_A iota^A must be 1")
        npt.assert_allclose(contract(IOTA, O, [(0, 0)]).components, -1.0)

    def test_null_directions(self):
        assert max_abs(contract(O, O, [(0, 0)]).components) == 0.0
        assert max_abs(contract(IOTA, IOTA, [(0, 0)]).components) == 0.0

    def test_epsilon_trace(self):
        npt.assert_allclose(contract(EPS_AB, EPS_AB,
                                     [(0, 0), (1, 1)]).components,
                            2.0, err_msg="eps_AB eps^AB must equal 2")

    def test_double_raise_is_minus_identity(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        npt.assert_allclose(raise_slot(raise_slot(v, 0), 0), -v)

    def test_primed_unprimed_contraction_rejected(self):
        with pytest.raises(SpinorSlotError):
            contract(O, O_P, [(0, 0)])

    def test_duplicate_slot_rejected(self):
        with pytest.raises(SpinorSlotError):
            contract(EPS_AB, EPS_AB, [(0, 0), (0, 1)])

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(SpinorSlotError):
            contract(O, IOTA, [(1, 0)])

    def test_mixed_symmetrize_rejected(self):
        phi = spinor_outer(O, O, O_P, O_P)
        with pytest.raises(SpinorSlotError):
            symmetrize(phi, (1, 2))


class TestSymmetrization:
    def test_dyad_product(self):
        sym = symmetrize(spinor_outer(O, IOTA), (0, 1))
        npt.assert_allclose(sym_from_general(sym).ravel(),
                            [0.0, 0.5, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        arr = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2,) * 4)
        once = symmetrize(Spinor(arr, 4, 0), (0, 1, 2, 3))
        twice = symmetrize(once, (0, 1, 2, 3))
        npt.assert_allclose(twice.components, once.components, atol=1e-15)

    def test_coulomb_principal_form(self):
        # 6 Psi2 o_(A o_B iota_C iota_D) carries exactly the middle scalar
        psi2 = 0.3 - 0.7j
        sym = symmetrize(spinor_outer(O, O, IOTA, IOTA), (0, 1, 2, 3))
        full = 6.0 * psi2 * sym.components
        npt.assert_allclose(weyl_scalars(full),
                            [0, 0, psi2, 0, 0], atol=1e-15)

    def test_radiation_principal_direction(self):
        psi, _, _ = make_condition_data("N", 1.0)
        hit = contract(Spinor(psi, 4, 0), O, [(3, 0)])
        assert valence(hit) == (3, 0)
        assert max_abs(hit.components) == 0.0


class TestSymSpinorRepresentation:
    """Ψ and Φ expanded from their NP scalars into symmetric arrays."""

    def test_weyl_round_trip(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        npt.assert_allclose(weyl_scalars(weyl_spinor(psi)), psi)

    def test_phi_round_trip(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_allclose(phi_matrix(ricci_spinor(phi)), phi)

    def test_general_round_trip(self):
        rng = np.random.default_rng(9)
        s = weyl_spinor(rng.normal(size=5) + 1j * rng.normal(size=5))
        npt.assert_allclose(weyl_spinor(weyl_scalars(s)), s)

    def test_expansion_is_symmetric(self):
        s = Spinor(weyl_spinor([1.0, -2.0, 3.0j, 0.5, 2.0 - 1.0j]), 4, 0)
        resym = symmetrize(s, (0, 1, 2, 3))
        npt.assert_allclose(resym.components, s.components, atol=1e-15)

    def test_hermitian_phi_reality(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        phi = a + a.conj().T
        f = ricci_spinor(phi)
        npt.assert_allclose(f, f.transpose(2, 3, 0, 1).conj(), atol=1e-15,
                            err_msg="hermitian matrix data must give a "
                                    "hermitian valence-(2,2) spinor")

    def test_component_count(self):
        psi, phi, _ = make_condition_data("D", 1.0)
        assert sym_from_general(Spinor(psi, 4, 0)).size == 5
        assert sym_from_general(Spinor(phi, 2, 2)).size == 9


ZERO_TOL = 1.0e-13


def all_check_residuals(psi, phi, scalar):
    return {
        "weyl-1": check_weyl_condition_1(psi, scalar),
        "contracted": check_contracted_condition(psi, scalar),
        "weyl-2": check_weyl_condition_2(psi, phi),
        "ricci-commutator": check_ricci_commutator(psi, phi, scalar),
    }


class TestConditionFamilies:
    @pytest.mark.parametrize("family", ["N", "D"])
    @pytest.mark.parametrize("amp", [1.0, 0.37, 2.5])
    def test_admissible_data_passes_every_check(self, family, amp):
        psi, phi, scalar = make_condition_data(family, amp)
        for name, res in all_check_residuals(psi, phi, scalar).items():
            assert res <= ZERO_TOL, f"{name} residual {res} on {family}"

    def test_zero_amplitude_is_trivial(self):
        psi, phi, scalar = make_condition_data("D", 0.0)
        assert max_abs(psi) == 0.0 and max_abs(phi) == 0.0 and scalar == 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_condition_data("II", 1.0)

    def test_coulomb_scalar_lock(self):
        _, _, scalar = make_condition_data("D", 0.25)
        assert scalar == -3.0

    @pytest.mark.parametrize("family", ["N", "D"])
    def test_phi_matrix_has_rank_one(self, family):
        _, phi, _ = make_condition_data(family, 1.3)
        svals = np.linalg.svd(phi_matrix(phi), compute_uv=False)
        assert svals[0] > 0.0
        assert svals[1] <= 1e-13 * svals[0]

    def test_scalar_term_factor_is_pinned(self):
        # Only the frozen epsilon-term factor kills the commutator
        # condition on Coulomb data; doubling it leaves a residual.
        psi, _, scalar = make_condition_data("D", 1.0)
        base = psi
        eps_part = (np.einsum("ac,bd->abcd", EPS, EPS)
                    + np.einsum("ad,bc->abcd", EPS, EPS))
        assert check_weyl_condition_1(psi, scalar) <= ZERO_TOL
        wrong = base + scalar * (2 * CURVATURE_SPINOR_R_FACTOR) * eps_part
        t = np.einsum("abcg,defg->abcdef", raise_slot(wrong, 3), base)
        sym = np.zeros_like(t)
        import itertools
        for perm in itertools.permutations((2, 3, 4, 5)):
            axes = list(range(6))
            for dest, src in zip((2, 3, 4, 5), perm):
                axes[dest] = src
            sym += t.transpose(axes)
        assert np.max(np.abs(sym / 24.0)) > 0.5

    def test_curvature_spinor_pair_symmetry(self):
        psi, _, scalar = make_condition_data("D", 0.8)
        x = curvature_spinor(psi, scalar)
        npt.assert_allclose(x, x.transpose(1, 0, 2, 3), atol=1e-15)
        npt.assert_allclose(x, x.transpose(0, 1, 3, 2), atol=1e-15)
        npt.assert_allclose(x, x.transpose(2, 3, 0, 1), atol=1e-15)


CANONICAL_REJECTS = [
    ("I-distinct-roots", [0, 1, 0, 1, 0]),
    ("I-symmetric", [1, 0, 1, 0, 1]),
    ("II", [0, 0, 1, 0, 1]),
    ("III", [0, 0, 0, 1, 0]),
]


class TestInadmissibleData:
    @pytest.mark.parametrize("name,psi5", CANONICAL_REJECTS,
                             ids=[c[0] for c in CANONICAL_REJECTS])
    def test_contracted_condition_rejects(self, name, psi5):
        psi = weyl_spinor(psi5)
        scale = max_abs(psi) ** 2
        assert check_contracted_condition(psi, 0.0) >= 1e-3 * scale

    def test_commutator_needs_scalar_lock(self):
        # Coulomb pattern with the scalar forced to zero breaks the
        # commutator action on the Ricci data.
        psi, phi, _ = make_condition_data("D", 1.0)
        res = check_ricci_commutator(psi, phi, 0.0)
        assert res >= 1e-3 * max(max_abs(psi), max_abs(phi)) ** 2

    def test_commutator_tolerates_any_coulomb_phi_amplitude(self):
        psi, _, scalar = make_condition_data("D", 1.0)
        phi = phi_spinor({(1, 1): 17.0})
        assert check_ricci_commutator(psi, phi, scalar) <= 1e-12

    def test_mixed_condition_rejects_misplaced_phi(self):
        psi, _, _ = make_condition_data("N", 1.0)
        res = check_weyl_condition_2(psi, phi_spinor({(0, 0): 1.0}))
        assert res >= 1e-3

    def test_radiation_phi_passes_mixed_condition(self):
        psi, _, _ = make_condition_data("N", 1.0)
        assert check_weyl_condition_2(psi, phi_spinor({(2, 2): 5.0})) \
            <= ZERO_TOL


ROTATION_POOL = ("about-k", "about-l", "boost-spin")


def random_rotation(rng):
    kind = ROTATION_POOL[rng.integers(0, 3)]
    if kind == "boost-spin":
        param = (0.3 + 1.3 * rng.random()) * np.exp(2j * np.pi * rng.random())
    else:
        param = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
    return kind, param


def test_seeded_exhaustiveness_of_contracted_condition():
    # the trace condition must single out exactly the radiation and
    # Coulomb families, in any frame reachable by the basic rotations
    rng = np.random.default_rng(31174)
    patterns = {
        "N": lambda a: ([0, 0, 0, 0, a], 0.0),
        "D": lambda a: ([0, 0, a, 0, 0], -12.0 * a.real),
        "III": lambda a: ([0, 0, 0, a, 0], 0.0),
        "II": lambda a: ([0, 0, a, 0, a], 0.0),
        "I": lambda a: ([a, 0, a, 0, a], 0.0),
    }
    order = ("N", "D", "III", "II", "I")
    failures = []
    for trial in range(1000):
        name = order[trial % 5]
        amp = 0.5 + 1.5 * rng.random()
        if name != "D":
            amp = amp * np.exp(2j * np.pi * rng.random())
        psi5, scalar = patterns[name](amp)
        psi5 = np.asarray(psi5, dtype=complex)
        for _ in range(rng.integers(1, 4)):
            kind, param = random_rotation(rng)
            psi5 = null_rotate_weyl(psi5, param, kind)
        res = check_contracted_condition(weyl_spinor(psi5), scalar)
        scale = max(np.max(np.abs(psi5)) ** 2,
                    abs(scalar) * np.max(np.abs(psi5)))
        admissible = name in ("N", "D")
        if admissible and res > 1e-12 * scale:
            failures.append((trial, name, res, scale))
        if not admissible and res < 1e-3 * scale:
            failures.append((trial, name, res, scale))
    assert failures == [], failures[:5]


def test_seeded_frame_independence_of_zero_residuals():
    rng = np.random.default_rng(90210)
    for family in ("N", "D"):
        for _ in range(20):
            psi, phi, scalar = make_condition_data(family,
                                                   0.5 + rng.random())
            psi5 = weyl_scalars(psi)
            kind, param = random_rotation(rng)
            rotated = weyl_spinor(null_rotate_weyl(psi5, param, kind))
            assert check_weyl_condition_1(rotated, scalar) <= 1e-11
            assert check_contracted_condition(rotated, scalar) <= 1e-11


class TestCrossRepresentation:
    """The algebraic spinor verdicts must reproduce the differential
    tensor verdicts wherever the curvature takes one of the two
    admissible shapes (and flag the same failures elsewhere)."""

    names = ["minkowski", "schwarzschild", "nariai", "ppwave", "ppwave_u2",
             "product2x2"]

    @pytest.fixture()
    def case(self, metric_map, tetrads):
        def build(name):
            m = metric_map[name]
            return m, tetrads[name]
        return build

    @pytest.mark.parametrize("name", names)
    def test_weyl_verdicts_agree(self, case, name):
        m, tet = case(name)
        for p in m.points.values():
            frame = tetrad_frame(m, tet, p)
            data = np_scalars(curvature(m, p), frame)
            psi = weyl_spinor(data.psi)
            res = check_weyl_condition_1(psi, data.scalar)
            scale = max(np.max(np.abs(data.psi)), abs(data.scalar)) ** 2
            tensor = conformal_semi_symmetry_residual(m, p)
            if tensor.verdict == "holds":
                assert res <= 1e-8 * max(scale, 1e-300), (name, p)
            else:
                assert res > 1e-8 * scale, (name, p)

    @pytest.mark.parametrize("name", names)
    def test_ricci_verdicts_agree(self, case, name):
        m, tet = case(name)
        for p in m.points.values():
            frame = tetrad_frame(m, tet, p)
            data = np_scalars(curvature(m, p), frame)
            psi = weyl_spinor(data.psi)
            phi = ricci_spinor(data.phi)
            res = check_ricci_commutator(psi, phi, data.scalar)
            scale = max(np.max(np.abs(data.psi)), np.max(np.abs(data.phi)),
                        abs(data.scalar)) ** 2
            tensor = ricci_semi_symmetry_residual(m, p)
            if tensor.verdict == "holds":
                assert res <= 1e-8 * max(scale, 1e-300), (name, p)
            else:
                assert res > 1e-8 * scale, (name, p)

    def test_schwarzschild_weyl_residual_is_decisive(self, case):
        m, tet = case("schwarzschild")
        p = m.points["p0"]
        data = np_scalars(curvature(m, p), tetrad_frame(m, tet, p))
        res = check_weyl_condition_1(weyl_spinor(data.psi), data.scalar)
        assert res > 1e-3 * np.max(np.abs(data.psi)) ** 2
