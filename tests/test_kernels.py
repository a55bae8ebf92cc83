"""The per-point numeric kernels against the code they replaced, bit for
bit: the real contraction ``geometry.commutator_action`` against the
complex einsum, and the one-gather ``spinors._symmetrized`` against the
transpose loop (both references are in ``conftest``).  The residuals read
absolute values only, so those must be equal; the sign of a zero may
differ.  Each kernel runs at every corpus point and on seeded random
data that holds signed zeros and sums that cancel exactly."""

import numpy as np

from curvlab import spinors
from curvlab.analysis import analyze_point
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.geometry import commutator_action, curvature

from conftest import reference_commutator_action, reference_symmetrized

SEED = 17
TRIALS = 300
# the (shape, slots) the spinor conditions symmetrize over, and others
SYMMETRIZED = [((2,) * 6, (2, 3, 4, 5)), ((2,) * 4, (0, 1, 2, 3)),
               ((2,) * 4, (1, 3)), ((2,) * 5, (0, 2, 4))]


def signed_data(rng, shape) -> np.ndarray:
    """Entries spread over twelve decades, with about one in six +0.0,
    one in six -0.0 and one in six a small integer, so that some sums
    cancel exactly."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    roll = rng.random(shape)
    ints = rng.integers(-3, 4, shape).astype(float)
    return np.where(roll < 1 / 6, 0.0, np.where(
        roll < 2 / 6, -0.0, np.where(roll < 3 / 6, ints, x)))


def same_abs(a, b) -> bool:
    return np.array_equal(np.abs(a), np.abs(b))


def corpus_points():
    for name in CORPUS_NAMES:
        m = load_corpus_metric(name)
        for pname in sorted(m.points):
            yield m, pname


class TestRealCurvature:
    def test_curvature_arrays_are_the_real_parts_of_the_fields(self):
        for m, pname in corpus_points():
            p = m.points[pname]
            c = curvature(m, p)
            for arr, f in ((c.riemann, m.riemann_field()),
                           (c.riemann_up, m.riemann_up_symbolic()),
                           (c.ricci, m.ricci_field()),
                           (c.weyl, m.weyl_field())):
                value = m.evaluate_field(f, p)
                assert value.dtype == np.complex128
                assert not np.any(value.imag)
                assert arr.dtype == np.float64, (m.name, pname)
                assert arr.flags.c_contiguous, (m.name, pname)
                assert arr.tobytes() == value.real.tobytes(), (m.name, pname)


class TestCommutatorAction:
    def test_matches_the_complex_contraction_at_corpus_points(self):
        for m, pname in corpus_points():
            c = curvature(m, m.points[pname])
            for name, t in (("riemann", c.riemann), ("weyl", c.weyl),
                            ("ricci", c.ricci), ("metric", c.metric)):
                got = commutator_action(c.riemann_up, t)
                assert got.dtype == np.float64
                assert same_abs(got, reference_commutator_action(
                    c.riemann_up, t)), (m.name, pname, name)

    def test_matches_on_seeded_data_with_signed_zeros(self):
        rng = np.random.default_rng(SEED)
        for trial in range(TRIALS):
            rup = signed_data(rng, (4,) * 4)
            for rank in range(5):
                t = signed_data(rng, (4,) * rank)
                assert same_abs(commutator_action(rup, t),
                                reference_commutator_action(rup, t)), (
                    trial, rank)

    def test_complex_input_is_contracted_in_complex(self):
        rng = np.random.default_rng(SEED)
        rup = signed_data(rng, (4,) * 4)
        t = signed_data(rng, (4,) * 2) + 1j * signed_data(rng, (4,) * 2)
        got = commutator_action(rup, t)
        assert got.dtype == np.complex128
        assert got.tobytes() == reference_commutator_action(rup, t).tobytes()


class TestSymmetrized:
    def test_matches_the_transpose_loop_at_corpus_points(self, monkeypatch):
        calls = []
        original = spinors._symmetrized

        def recording(arr, slots):
            out = original(arr, slots)
            calls.append((arr, slots, out))
            return out

        monkeypatch.setattr(spinors, "_symmetrized", recording)
        for m, pname in corpus_points():
            before = len(calls)
            rep = analyze_point(m, pname)
            # three symmetrizations per point that runs the spinor checks
            assert len(calls) - before == (
                0 if rep.spinor_checks is None else 3), (m.name, pname)
        assert calls
        for arr, slots, out in calls:
            assert out.shape == arr.shape and out.dtype == arr.dtype
            assert same_abs(out, reference_symmetrized(arr, slots)), slots

    def test_matches_on_seeded_data_with_signed_zeros(self):
        rng = np.random.default_rng(SEED)
        for trial in range(TRIALS):
            for shape, slots in SYMMETRIZED:
                for arr in (signed_data(rng, shape),
                            signed_data(rng, shape)
                            + 1j * signed_data(rng, shape)):
                    got = spinors._symmetrized(arr, slots)
                    assert got.dtype == arr.dtype
                    assert same_abs(got, reference_symmetrized(arr, slots)), (
                        trial, shape, slots)
