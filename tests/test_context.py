"""The per-point evaluation context: each point's curvature and tetrad
data are evaluated once, the one-slot cache never serves another point,
and tetrad checks still run on every call."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from curvlab.analysis import DEFAULT_SEED, analyze_point, reports_to_json
from curvlab.classify import classify_point
from curvlab.conventions import RESIDUAL_TOL
from curvlab.corpus import load_corpus_metric
from curvlab.expressions import const, mul
from curvlab.geometry import MetricField, SymbolicTensor, curvature
from curvlab.newman_penrose import (
    InvalidTetradError,
    NullTetrad,
    adapt_tetrad,
    np_scalars,
    require_valid_tetrad,
    spin_coefficients,
    tetrad_frame,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def evaluated(monkeypatch):
    """Counts MetricField.evaluate_field calls per field object."""
    counts = Counter()
    original = MetricField.evaluate_field

    def counting(self, t, point):
        counts[id(t)] += 1
        return original(self, t, point)

    monkeypatch.setattr(MetricField, "evaluate_field", counting)
    return counts


def report_json(m, pname):
    return reports_to_json([analyze_point(m, pname)], RESIDUAL_TOL,
                           DEFAULT_SEED)


def scaled_leg(field, factor):
    comp = np.array([mul(const(factor), c) for c in field.components],
                    dtype=object)
    return SymbolicTensor(comp, ("u",))


class TestEvaluatedOnce:
    def test_curvature_once_per_analyze_point(self, evaluated):
        # nariai reaches every stage: spin coefficients, adaptation, the
        # null probes; cross-validation re-runs the three residuals
        m = load_corpus_metric("nariai")
        for pname in sorted(m.points):
            evaluated.clear()
            analyze_point(m, pname, cross_validate=True)
            assert evaluated[id(m.riemann_field())] == 1, pname
            assert evaluated[id(m.weyl_field())] == 1, pname

    def test_tetrad_frame_once_per_point_and_tetrad(self, evaluated):
        # only tetrad_frame reads the m legs (the null probes evaluate k
        # and l themselves), so their counts are the frame evaluations
        m = load_corpus_metric("nariai")
        t = m.tetrad
        rotated_points = 0
        for pname in sorted(m.points):
            evaluated.clear()
            analyze_point(m, pname)
            rotated = adapt_tetrad(m, t, m.points[pname]).tetrad
            rotated_points += rotated is not t
            for tetrad in (t, rotated):
                assert evaluated[id(tetrad.m_re)] == 1, pname
                assert evaluated[id(tetrad.m_im)] == 1, pname
        assert rotated_points > 0

    def test_repeated_calls_share_results(self):
        m = load_corpus_metric("product2x2")
        p = m.points["p1"]
        assert curvature(m, p) is curvature(m, list(p))
        assert tetrad_frame(m, m.tetrad, p) is tetrad_frame(m, m.tetrad, p)
        ad = adapt_tetrad(m, m.tetrad, p)
        assert ad is adapt_tetrad(m, m.tetrad, p)
        assert ad.tetrad is ad.tetrad


class TestTetradKeys:
    def test_frames_of_dropped_tetrads_are_never_served(self):
        # short-lived tetrads are created and dropped at one point; the
        # frame returned for each must be its own, never that of a dead
        # predecessor whose id was recycled
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        t = m.tetrad
        k = m.evaluate_field(t.k, p).array
        legs = [scaled_leg(t.k, i + 2.0) for i in range(40)]
        for i, leg in enumerate(legs):
            scaled = NullTetrad(leg, t.l, t.m_re, t.m_im)
            assert np.array_equal(tetrad_frame(m, scaled, p).k, (i + 2.0) * k)
            del scaled


class TestOneSlot:
    def test_slot_keeps_only_the_latest_point(self):
        m = load_corpus_metric("schwarzschild")
        p0, p1 = m.points["p0"], m.points["p1"]
        ctx = m.at(p0)
        assert m.at(list(p0)) is ctx
        assert m.at(p1) is not ctx
        assert m.at(p0) is not ctx

    def test_signed_zero_is_a_different_point(self):
        m = load_corpus_metric("minkowski")
        ctx = m.at((0.0, 0.0, 0.0, 0.0))
        assert m.at((0.0, -0.0, 0.0, 0.0)) is not ctx

    def test_changed_parameter_misses_the_slot(self):
        m = load_corpus_metric("schwarzschild")
        p = m.points["p0"]
        stale = curvature(m, p).riemann.array
        m.params["M"] = 1.5
        fresh = MetricField(m.name, m.chart, m.g, params={"M": 1.5},
                            points={"p0": p})
        got = curvature(m, p).riemann.array
        assert not np.array_equal(got, stale)
        assert np.array_equal(got, curvature(fresh, p).riemann.array)

    def test_interleaved_points_match_fresh_metrics(self):
        a = load_corpus_metric("nariai")
        b = load_corpus_metric("ppwave_linear")
        for m, pname in ((a, "p0"), (b, "p0"), (a, "p1"), (a, "p0")):
            fresh = load_corpus_metric(m.name)
            assert report_json(m, pname) == report_json(fresh, pname), (
                m.name, pname)


class TestChecksStillRun:
    def test_invalid_tetrad_raises_after_a_valid_one_is_cached(self):
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        analyze_point(m, "origin")
        t = m.tetrad
        bad = NullTetrad(t.k, t.k, t.m_re, t.m_im)
        with pytest.raises(InvalidTetradError):
            require_valid_tetrad(m, bad, p)
        with pytest.raises(InvalidTetradError):
            np_scalars(curvature(m, p), tetrad_frame(m, bad, p))
        with pytest.raises(InvalidTetradError):
            adapt_tetrad(m, bad, p)
        with pytest.raises(InvalidTetradError):
            spin_coefficients(m, bad, p)
        with pytest.raises(InvalidTetradError):
            classify_point(m, p, tetrad=bad)

    def test_stricter_tol_raises_where_the_default_passed(self):
        # k·l = 1 + 1e-11: inside the default tolerance, outside 1e-14
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        t = m.tetrad
        off = NullTetrad(scaled_leg(t.k, 1 + 1e-11), t.l, t.m_re, t.m_im)
        classify_point(m, p, tetrad=off)
        spin_coefficients(m, off, p)
        with pytest.raises(InvalidTetradError):
            adapt_tetrad(m, off, p, tol=1e-14)
        with pytest.raises(InvalidTetradError):
            require_valid_tetrad(m, off, p, tol=1e-14)
        with pytest.raises(InvalidTetradError):
            spin_coefficients(m, off, p, tol=1e-14)
        with pytest.raises(InvalidTetradError):
            classify_point(m, p, tetrad=off, tol=1e-14)
        # the failed calls cached nothing that breaks the default
        assert classify_point(m, p, tetrad=off).branch == "O"


class TestTracerHooks:
    def test_traced_benchmark_installs(self):
        # perfbench/tracing.py wraps module attributes by name; a rename
        # here would only show when the traced benchmark runs
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        code = "import tracing; tracing.install(tracing.Tracer())"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
