"""The per-point evaluation context: each point's curvature, fields,
tetrad data and commutator residuals are evaluated once, a metric's
fields share one tape that holds each node once and no field builds a
tape of its own, the checked steps run only where a value is out of
domain, nothing symbolic is built after a metric's first point, the
one-slot cache never serves another point, and each frame's tetrad check
is made once, while an invalid tetrad still raises on every call."""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from curvlab import (
    analysis,
    classify,
    corpus,
    expressions,
    metricfile,
    newman_penrose,
    symmetry,
)
from curvlab.analysis import DEFAULT_SEED, analyze_point, reports_to_json
from curvlab.classify import classify_point
from curvlab.conventions import RESIDUAL_TOL
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import Arena, const, mul, parse_expr
from curvlab.geometry import MetricField, SymbolicTensor, curvature
from curvlab.newman_penrose import (
    LEG_QUANTITIES,
    InvalidTetradError,
    NullTetrad,
    adapt_tetrad,
    np_scalars,
    spin_coefficients,
    tetrad_frame,
    validate_tetrad_from_metric_value,
)
from curvlab.symmetry import semi_symmetry_residual

from conftest import reference_evaluate

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


@pytest.fixture
def evaluations(monkeypatch):
    """Counts evaluations of each field object: calls that find no value
    in the point context."""
    counts = Counter()
    original = MetricField.evaluate_field

    def counting(self, t, point):
        counts[id(t)] += t not in self.at(point).memo
        return original(self, t, point)

    monkeypatch.setattr(MetricField, "evaluate_field", counting)
    return counts


def report_json(m, pname):
    return reports_to_json([analyze_point(m, pname)], RESIDUAL_TOL,
                           DEFAULT_SEED)


def scaled_leg(m, field, factor):
    with m.arena:
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

    def test_tetrad_frame_once_per_point_and_tetrad(self, evaluations):
        # only tetrad_frame reads the legs (the null probes read its
        # frames too); a rotated frame also reads the declared legs'
        # values, so evaluations are counted, not calls
        m = load_corpus_metric("nariai")
        t = m.tetrad
        rotated_points = 0
        for pname in sorted(m.points):
            evaluations.clear()
            analyze_point(m, pname)
            p = m.points[pname]
            ad = adapt_tetrad(m, t, p)
            rotated_points += bool(ad.transforms)
            assert tetrad_frame(m, t, p, "value", ad.transforms) is ad.frame
            assert evaluations[id(t.m_re)] == 1, pname
            assert evaluations[id(t.m_im)] == 1, pname
        assert rotated_points > 0

    def test_repeated_calls_share_results(self):
        m = load_corpus_metric("product2x2")
        p = m.points["p1"]
        assert curvature(m, p) is curvature(m, list(p))
        assert tetrad_frame(m, m.tetrad, p) is tetrad_frame(m, m.tetrad, p)
        ad = adapt_tetrad(m, m.tetrad, p)
        assert ad is adapt_tetrad(m, m.tetrad, p)
        assert tetrad_frame(m, m.tetrad, p, "nabla", ad.transforms) is \
            tetrad_frame(m, m.tetrad, list(p), "nabla", list(ad.transforms))

    def test_spin_coefficients_once_per_point_and_tetrad(self, monkeypatch):
        # on points that need no adaptation analyze_point and
        # classify_point ask for the same frames' coefficients
        contractions = Counter()
        original = newman_penrose._spin_coefficients

        def counting(frame, nabla):
            contractions[(frame.point, id(frame))] += 1
            return original(frame, nabla)

        monkeypatch.setattr(newman_penrose, "_spin_coefficients", counting)
        m = load_corpus_metric("nariai")
        for pname in sorted(m.points):
            analyze_point(m, pname)
        assert contractions and set(contractions.values()) == {1}
        p = m.points["p0"]
        assert spin_coefficients(m, m.tetrad, p) is \
            spin_coefficients(m, m.tetrad, p)
        unadapted = sum(not adapt_tetrad(m, m.tetrad, q).transforms
                        for q in m.points.values())
        assert unadapted > 0

    def test_tetrad_check_once_per_frame(self, monkeypatch):
        # np_scalars and spin_coefficients both check the declared frame,
        # and the adapted one where it rotates
        made = []
        original = newman_penrose.TetradCheck

        def counting(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(newman_penrose, "TetradCheck", counting)
        m = load_corpus_metric("nariai")
        rotated_points = 0
        for pname in sorted(m.points):
            made.clear()
            analyze_point(m, pname)
            p = m.points[pname]
            ad = adapt_tetrad(m, m.tetrad, p)
            rotated = bool(ad.transforms)
            rotated_points += rotated
            assert len(made) == 1 + rotated, pname
            assert len(tetrad_frame(m, m.tetrad, p).checks) == 1, pname
            assert len(ad.frame.checks) == 1, pname
        assert rotated_points > 0

    @pytest.mark.parametrize("cross", [False, True])
    def test_commutator_action_three_times_per_point(self, monkeypatch,
                                                      cross):
        # classify_point asks for semi again, and cross-validation for
        # all three commutator residuals
        calls = Counter()
        original = symmetry.commutator_action

        def counting(riemann_up, t):
            calls["commutator_action"] += 1
            return original(riemann_up, t)

        monkeypatch.setattr(symmetry, "commutator_action", counting)
        m = load_corpus_metric("nariai")
        for pname in sorted(m.points):
            calls.clear()
            analyze_point(m, pname, cross_validate=cross)
            assert calls["commutator_action"] == 3, pname

    def test_residual_reports_are_kept_per_tolerance_and_method(self):
        m = load_corpus_metric("schwarzschild")
        p = m.points["p0"]
        report = semi_symmetry_residual(m, p)
        assert semi_symmetry_residual(m, list(p)) is report
        loose = semi_symmetry_residual(m, p, tol=1.0)
        assert (report.verdict, loose.verdict) == ("fails", "holds")
        direct = semi_symmetry_residual(m, p, method="direct")
        assert direct is not report and direct.verdict == "fails"
        with pytest.raises(ValueError):
            semi_symmetry_residual(m, p, method="neither")


@pytest.fixture
def tapes_built(monkeypatch):
    """Every tape built."""
    built = []

    class CountingArena(Arena):
        __slots__ = ()

        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(metricfile, "Arena", CountingArena)
    return built


@pytest.fixture
def checked_runs(monkeypatch):
    """Counts runs of the checked steps, which replace the unchecked
    tape run only where a value is out of domain."""
    calls = Counter()
    original = Arena.checked

    def counting(self, *args):
        calls["checked"] += 1
        return original(self, *args)

    monkeypatch.setattr(Arena, "checked", counting)
    return calls


def reachable(fields):
    """The distinct expression nodes below the fields' components."""
    seen = {}
    stack = [e for t in fields for e in t.components.ravel()]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.args)
    return seen


class TestTapes:
    def field(self, m, texts):
        with m.arena:
            comp = np.array([parse_expr(s, m.chart) for s in texts],
                            dtype=object)
        return SymbolicTensor(comp, ("u",))

    def test_field_at_one_point_builds_no_tape(self, tapes_built):
        # the field joins its metric's tape
        m = load_corpus_metric("minkowski")
        f = self.field(m, ["t*x", "y", "z + 1", "x^2"])
        p = m.points["origin"]
        first = m.evaluate_field(f, p)
        assert m.evaluate_field(f, list(p)) is first
        assert tapes_built == [m.arena]
        assert f.slots[0] is m.arena

    def test_field_at_three_points_builds_one_tape(self, tapes_built):
        m = load_corpus_metric("minkowski")
        f = self.field(m, ["t*x", "y", "z + 1", "x^2"])
        values, sizes = [], []
        for x in (1.0, 2.0, 3.0):
            p = (0.5, x, -1.0, 2.0)
            values.append(m.evaluate_field(f, p))
            m.evaluate_field(f, p)
            sizes.append(len(m.arena.nodes))
        assert tapes_built == [m.arena]
        assert sizes == [sizes[0]] * 3
        assert np.array_equal(values[2], [1.5, -1.0, 3.0, 9.0])

    def test_nabla2_riemann_once_per_point_cross_validated(self, monkeypatch):
        # second_order and the direct semi route both read ∇∇R, which
        # is evaluated once per point, from its first point on by the
        # tape, whose one run per point covers every slot
        m = load_corpus_metric("schwarzschild")
        target = m.nabla_field("riemann", 2)
        served = []
        original = MetricField.evaluate_field

        def recording(self, t, point):
            value = original(self, t, point)
            if t is target:
                served.append(value)
            return value

        ran = []
        run = Arena.run

        def counting_run(self, bindings):
            ran.append(len(self.nodes))
            return run(self, bindings)

        monkeypatch.setattr(MetricField, "evaluate_field", recording)
        monkeypatch.setattr(Arena, "run", counting_run)
        for pname in sorted(m.points):
            served.clear()
            ran.clear()
            analyze_point(m, pname, cross_validate=True)
            assert len(served) == 2 and served[0] is served[1], pname
            values = m.at(m.points[pname]).values
            assert target.slots[2] <= len(values) == len(m.arena.nodes), pname
            assert ran == [len(values)], pname


class TestOneEvaluator:
    @pytest.mark.parametrize("name, cross", [
        ("ppwave_linear", False),
        ("schwarzschild", False),
        ("schwarzschild", True),
    ])
    def test_fields_seen_before_are_not_interpreted(self, checked_runs,
                                                    name, cross):
        # every value in domain: the unchecked tape run serves every
        # number, at the first point as well, and only the first point
        # adds to the tape
        m = load_corpus_metric(name)
        analyze_point(m, "p0", cross_validate=cross)
        size = len(m.arena.nodes)
        assert size > 0 and checked_runs["checked"] == 0
        for pname in ("p1", "p2", "p3", "p4"):
            analyze_point(m, pname, cross_validate=cross)
            assert checked_runs["checked"] == 0, pname
            assert len(m.arena.nodes) == size, pname


class TestOneRunPerPoint:
    @pytest.mark.parametrize("name, cross", [
        ("product2x2", False),
        ("schwarzschild", True),
    ])
    def test_a_clean_later_point_runs_the_tape_once(self, monkeypatch,
                                                     checked_runs, name,
                                                     cross):
        # the first field read at the point runs the whole arena; every
        # later field only gathers its slots
        m = load_corpus_metric(name)
        analyze_point(m, "p0", cross_validate=cross)
        runs = []
        run = Arena.run

        def recording(self, bindings):
            runs.append(len(self.nodes))
            return run(self, bindings)

        monkeypatch.setattr(Arena, "run", recording)
        for pname in ("p1", "p2"):
            runs.clear()
            analyze_point(m, pname, cross_validate=cross)
            assert runs == [len(m.arena.nodes)], pname
            ctx = m.at(m.points[pname])
            assert ctx.clean == len(ctx.values) == len(m.arena.nodes)
        assert checked_runs["checked"] == 0


@pytest.fixture
def tape_events(monkeypatch):
    """The arena length at every batched program build ("program") and
    every ``Arena.run`` ("run", after the build the run makes), in
    order."""
    events = []
    run, program = Arena.run, Arena._program

    def recording_run(self, bindings):
        out = run(self, bindings)
        events.append(("run", len(self.nodes)))
        return out

    def recording_program(self):
        events.append(("program", len(self.nodes)))
        return program(self)

    monkeypatch.setattr(Arena, "run", recording_run)
    monkeypatch.setattr(Arena, "_program", recording_program)
    return events


class TestProgramBuilds:
    @pytest.mark.parametrize("mode", ["analyze", "cross_validate",
                                      "classify"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_one_at_the_first_point(self, tape_events, name, mode):
        # every field a point reads is built before its one run, so no
        # arena grows after a point's first run, and the program built
        # at the first point serves every later one.  Minkowski's fields
        # are all constants the parser made (its builders add nodes such
        # as 1/2 that no field reads): its one point, the last one parsing
        # checked, is served by the run parsing made there
        m = load_corpus_metric(name)
        for i, pname in enumerate(sorted(m.points)):
            tape_events.clear()
            if mode == "classify":
                classify_point(m, m.points[pname])
            else:
                analyze_point(m, pname,
                              cross_validate=mode == "cross_validate")
            size = len(m.arena.nodes)
            if i > 0:
                assert tape_events == [("run", size)], pname
            elif name == "minkowski":
                assert tape_events == []
            else:
                assert tape_events == [("program", size), ("run", size)]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_at_most_one_when_cross_validating_after_classify(
            self, tape_events, name):
        # called on its own, after classification ran the point without
        # the ∇∇ fields, cross-validation builds them all before its
        # first read: one program for the grown arena, not one per field
        m = load_corpus_metric(name)
        point = m.points[sorted(m.points)[0]]
        classify_point(m, point)
        tape_events.clear()
        analysis.cross_validate_point(m, point, RESIDUAL_TOL)
        assert sum(e[0] == "program" for e in tape_events) <= 1

    @pytest.mark.parametrize("residual, method", [
        ("second_order", None), ("nabla_riemann", None),
        ("semi", "direct"), ("conformal", "direct"), ("ricci", "direct")])
    @pytest.mark.parametrize("name", ["schwarzschild", "nariai",
                                      "product2x2"])
    def test_one_for_a_lone_residual(self, tape_events, name, residual,
                                     method):
        # a residual called on its own at a fresh metric's first point
        # asks for its ∇ or ∇∇ field before it reads the curvature, so
        # the point's one run covers both
        m = load_corpus_metric(name)
        tape_events.clear()
        kwargs = {} if method is None else {"method": method}
        analysis._RESIDUAL_FUNCS[residual](m, m.points["p0"], RESIDUAL_TOL,
                                           **kwargs)
        size = len(m.arena.nodes)
        assert tape_events == [("program", size), ("run", size)]

    def test_an_arena_that_grows_builds_again_and_stays_bit_identical(
            self, tape_events):
        # a field placed after the program was built joins the tape; the
        # next point's whole run builds a program for the longer arena
        m = load_corpus_metric("schwarzschild")
        tape_events.clear()
        for pname in ("p0", "p1"):
            analyze_point(m, pname)
        before = len(m.arena.nodes)
        assert tape_events == [("program", before), ("run", before),
                               ("run", before)]
        with m.arena:
            comps = [parse_expr(text, m.chart) for text in
                     ("t*r - theta", "sin(theta)*r^3", "r/(r - 1)", "phi")]
        field = SymbolicTensor(np.array(comps, dtype=object), ("u",))
        tape_events.clear()
        for pname in ("p2", "p3"):
            analyze_point(m, pname)
            m.evaluate_field(field, m.points[pname])
        after = len(m.arena.nodes)
        assert after > before and tape_events == [
            ("program", after), ("run", after), ("run", after)]
        point = m.points["p3"]
        bindings, memo = m.bindings(point), {}
        want = [reference_evaluate(e, bindings, memo) for e in m.arena.nodes]
        values = m.at(point).values
        assert np.array(values).tobytes() == np.array(want).tobytes()
        assert m.arena.program[0] == after


class TestParseRuns:
    def test_parsing_runs_the_arena_once_per_declared_point(
            self, monkeypatch, tape_events):
        # each point's signature and tetrad checks read one run there
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        (name, text), = workloads.make_request(
            "grid_scan", 1, ROOT / "src")["texts"]
        m = metricfile.parse_metric_text(text, name)
        size = len(m.arena.nodes)
        assert len(m.points) == 100
        assert tape_events == [("program", size)] + [("run", size)] * 100
        for name in CORPUS_NAMES:
            tape_events.clear()
            m = load_corpus_metric(name)
            assert [e for e in tape_events if e[0] == "run"] == [
                ("run", len(m.arena.nodes))] * len(m.points), name


class TestOneTape:
    def test_each_reachable_node_has_one_slot(self, monkeypatch):
        # Schwarzschild with cross-validation evaluates the most fields
        m = load_corpus_metric("schwarzschild")
        fields = {}
        original = MetricField.evaluate_field

        def recording(self, t, point):
            if isinstance(t, SymbolicTensor):
                fields[id(t)] = t
            return original(self, t, point)

        monkeypatch.setattr(MetricField, "evaluate_field", recording)
        for pname in sorted(m.points):
            analyze_point(m, pname, cross_validate=True)
        nodes = reachable(fields.values())
        assert len(m.arena.nodes) == len(nodes)
        assert {id(e) for e in m.arena.nodes} == set(nodes)
        assert all(t.slots[0] is m.arena for t in fields.values())
        # each field's own DAG, summed: what one tape per field held
        per_field = sum(len(reachable([t])) for t in fields.values())
        assert per_field > len(nodes)

    def test_each_rotated_quantity_is_computed_once_per_point(self,
                                                              monkeypatch):
        # the adaptation, the spin coefficients and the null probes read
        # the adapted legs' value, lowered value, ∇ and ∂; each is the
        # declared legs' one, rotated once per point
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        text = workloads.with_points(
            workloads.corpus_text(ROOT / "src", "product2x2"),
            workloads.grid_points(1, 8))
        m = metricfile.parse_metric_text(text, "product2x2")
        steps = {p: len(adapt_tetrad(m, m.tetrad, m.points[p]).transforms)
                 for p in sorted(m.points)}
        rotated = [p for p, n in steps.items() if n]
        assert rotated
        rotations = Counter()
        original = newman_penrose.null_rotate_frame

        def counting(frame, param, kind):
            rotations[frame.point] += 1
            return original(frame, param, kind)

        monkeypatch.setattr(newman_penrose, "null_rotate_frame", counting)
        fresh = metricfile.parse_metric_text(text, "product2x2")
        for pname in rotated[:2]:
            rotations.clear()
            rep = analyze_point(fresh, pname)
            assert rep.classification.branch == "D-generic-decomposable"
            assert rotations == {
                tuple(fresh.points[pname]): len(LEG_QUANTITIES) * steps[pname]
            }, pname


class TestNoSymbolicGrowth:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_node_or_field_after_the_first_point(self, monkeypatch,
                                                     seed):
        # grid-scan points of product2x2: most need their tetrad adapted,
        # and the adapted legs are combinations of the declared legs'
        # fields, which the first point has built
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        text = workloads.with_points(
            workloads.corpus_text(ROOT / "src", "product2x2"),
            workloads.grid_points(seed, 25))
        m = metricfile.parse_metric_text(text, "product2x2")
        sizes, rotated = [], 0
        for pname in sorted(m.points):
            analyze_point(m, pname)
            sizes.append((expressions.table_sizes(), len(m._cache),
                          len(m.arena.nodes)))
            rotated += bool(adapt_tetrad(m, m.tetrad,
                                         m.points[pname]).transforms)
        assert len(sizes) == 25 and rotated >= 10
        assert set(sizes[1:]) == {sizes[0]}


class TestTetradKeys:
    def test_frames_of_dropped_tetrads_are_never_served(self):
        # short-lived tetrads are created and dropped at one point; the
        # frame returned for each must be its own, never that of a dead
        # predecessor whose id was recycled
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        t = m.tetrad
        k = m.evaluate_field(t.k, p)
        legs = [scaled_leg(m, t.k, i + 2.0) for i in range(40)]
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

    def test_same_tuple_is_served_without_rebuilding_the_key(self):
        m = load_corpus_metric("schwarzschild")
        p = m.points["p0"]
        ctx = m.at(p)

        def rebuilt(point):
            raise AssertionError("bindings rebuilt")

        m.bindings = rebuilt
        assert m.at(p) is ctx

    def test_list_mutated_in_place_is_never_served_the_old_context(self):
        m = load_corpus_metric("schwarzschild")
        p = list(m.points["p0"])
        ctx = m.at(p)
        old = curvature(m, p).riemann
        p[1] += 1.0
        moved = m.at(p)
        assert moved is not ctx and moved.point == tuple(p)
        fresh = load_corpus_metric("schwarzschild")
        got = curvature(m, p).riemann
        assert not np.array_equal(got, old)
        assert np.array_equal(got, curvature(fresh, p).riemann)

    def test_signed_zero_parameter_misses_the_same_tuple(self):
        m = load_corpus_metric("schwarzschild")
        p = m.points["p0"]
        m.params["M"] = 0.0
        ctx = m.at(p)
        m.params["M"] = -0.0
        assert m.at(p) is not ctx

    def test_changed_parameter_misses_the_slot(self):
        m = load_corpus_metric("schwarzschild")
        p = m.points["p0"]
        stale = curvature(m, p).riemann
        m.params["M"] = 1.5
        fresh = MetricField(m.name, m.chart, m.g, params={"M": 1.5},
                            points={"p0": p}, arena=m.arena)
        got = curvature(m, p).riemann
        assert not np.array_equal(got, stale)
        assert np.array_equal(got, curvature(fresh, p).riemann)

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
        assert not validate_tetrad_from_metric_value(
            m.metric_value(p), tetrad_frame(m, bad, p)).valid
        with pytest.raises(InvalidTetradError):
            np_scalars(curvature(m, p), tetrad_frame(m, bad, p))
        with pytest.raises(InvalidTetradError):
            adapt_tetrad(m, bad, p)
        with pytest.raises(InvalidTetradError):
            spin_coefficients(m, bad, p)
        with pytest.raises(InvalidTetradError):
            classify_point(m, p, tetrad=bad)
        assert not any(key[1] is bad for key in m.at(p).memo
                       if type(key) is tuple and key[0] == "spin")

    def test_invalid_frame_raises_on_every_call(self):
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        t = m.tetrad
        bad = NullTetrad(t.k, t.k, t.m_re, t.m_im)
        frame = tetrad_frame(m, bad, p)
        for _ in range(3):
            with pytest.raises(InvalidTetradError):
                np_scalars(curvature(m, p), frame)
            with pytest.raises(InvalidTetradError):
                spin_coefficients(m, bad, p)
        assert len(frame.checks) == 1

    def test_frame_check_is_kept_per_tol_and_metric_value(self):
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        frame = tetrad_frame(m, m.tetrad, p)
        gv = m.metric_value(p)
        check = validate_tetrad_from_metric_value(gv, frame)
        assert check.valid
        assert validate_tetrad_from_metric_value(gv.copy(), frame) is check
        assert validate_tetrad_from_metric_value(gv, frame, 1e-14) \
            is not check
        assert not validate_tetrad_from_metric_value(4.0 * gv, frame).valid
        assert validate_tetrad_from_metric_value(gv, frame) is check

    def test_stricter_tol_raises_where_the_default_passed(self):
        # k·l = 1 + 1e-11: inside the default tolerance, outside 1e-14
        m = load_corpus_metric("minkowski")
        p = m.points["origin"]
        t = m.tetrad
        off = NullTetrad(scaled_leg(m, t.k, 1 + 1e-11), t.l, t.m_re, t.m_im)
        classify_point(m, p, tetrad=off)
        spin_coefficients(m, off, p)
        with pytest.raises(InvalidTetradError):
            adapt_tetrad(m, off, p, tol=1e-14)
        assert not validate_tetrad_from_metric_value(
            m.metric_value(p), tetrad_frame(m, off, p), tol=1e-14).valid
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

    def test_every_patched_name_resolves(self):
        # install skips a newman_penrose function missing from a module,
        # so a rename would drop its spans without failing; the names
        # below are those install patches
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        cls = MetricField
        wanted = [(cls, name) for name in tracing._BUILD_METHODS
                  + ("nabla_field", "evaluate_field")]
        wanted += [(module, "curvature")
                   for module in (analysis, classify, symmetry)]
        # the tracer still lists the three newman_penrose functions that
        # were deleted; install skips them, and no others may be missing
        stale = {"null_rotate", "require_valid_tetrad", "rotate_tetrad_field"}
        assert {name for name in tracing._NP_FUNCS
                if not hasattr(newman_penrose, name)} == stale
        wanted += [(newman_penrose, name) for name in tracing._NP_FUNCS
                   if name not in stale]
        wanted += [(classify, name) for name in
                   ("semi_symmetry_residual",) + tracing.NULL_PROBES]
        wanted += [(analysis, name) for name in tracing._SPINOR_FUNCS
                   + ("classify_point", "analyze_point", "reports_to_json")]
        wanted += [(metricfile, "parse_metric_text"),
                   (corpus, "parse_metric_text")]
        missing = [f"{owner.__name__}.{name}" for owner, name in wanted
                   if not hasattr(owner, name)]
        assert not missing
        assert set(tracing.RESIDUALS) <= set(analysis._RESIDUAL_FUNCS)
