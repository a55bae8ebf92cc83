"""Span recording for the traced benchmark run.

The tracer wraps curvlab's public callables at the name each caller looks
up.  Modules import functions by name (``from .geometry import
curvature``), so a function is wrapped once per importing module, and
``MetricField`` methods are wrapped on the class.  Each call records a
span ``(name, start, end, span id, parent id)``; spans stay in memory and
are written out when the worker ends.

Layer figures are derived from the spans afterwards:

* self time is a span's duration minus the time its direct children
  cover (calls are strictly nested: the worker is single-threaded);
* a span is *in a point* when an ``analysis.analyze_point`` span encloses
  it, and per-point counts use only those spans, so the tetrad checks
  made while parsing do not count as per-point work.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

ANALYZE = "analysis.analyze_point"
BUILD_PREFIX = "geometry.build."
NABLA2 = "geometry.build.nabla2"
RESIDUALS = ("semi", "conformal", "ricci", "second_order", "nabla_riemann")
NULL_PROBES = ("recurrence_check", "decomposability_check",
               "constant_null_vector_check")
COUNTED_NP = ("tetrad_frame", "np_scalars", "spin_coefficients")

# lazy symbolic-build methods of MetricField
_BUILD_METHODS = ("inverse_symbolic", "christoffel_symbolic",
                  "riemann_up_symbolic", "riemann_field", "ricci_field",
                  "scalar_field", "weyl_field", "covariant_derivative_field",
                  "lowered_vector_field", "covector_gradient_field")
# newman_penrose functions, wrapped in every module that looks them up
_NP_FUNCS = ("tetrad_frame", "np_scalars", "spin_coefficients", "adapt_weyl",
             "petrov_classify", "null_rotate", "null_rotate_frame",
             "rotate_tetrad_field", "require_valid_tetrad", "validate_tetrad")
_SPINOR_FUNCS = ("check_weyl_condition_1", "check_contracted_condition",
                 "check_weyl_condition_2", "check_ricci_commutator")


class Tracer:
    """Collects spans from the wrapped callables of one process."""

    def __init__(self):
        self.spans: list = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn):
        """Wrap ``fn``; ``name`` is the span name or a function of the
        call's (args, kwargs) returning it."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_name, start, end, span_id, parent))

        return traced

    def write(self, path, op: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent in self.spans:
                handle.write(json.dumps(
                    {"op": op, "name": name, "start": start, "end": end,
                     "id": span_id, "parent": parent}) + "\n")


def _residual_name(condition: str):
    def name(args, kwargs):
        method = kwargs.get("method", args[3] if len(args) > 3 else None)
        route = "direct." if method == "direct" else ""
        return f"symmetry.{route}{condition}"
    return name


def _nabla_name(args, kwargs):
    order = kwargs.get("order", args[2] if len(args) > 2 else 1)
    return f"{BUILD_PREFIX}nabla{order}"


def install(tracer: Tracer) -> None:
    """Wrap curvlab's public callables at every name a caller looks up."""
    from curvlab import (analysis, classify, corpus, geometry, metricfile,
                         newman_penrose, symmetry)

    def patch(module, attr, name):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    cls = geometry.MetricField
    for meth in _BUILD_METHODS:
        patch(cls, meth, BUILD_PREFIX + meth)
    patch(cls, "nabla_field", _nabla_name)
    patch(cls, "evaluate_field", "geometry.evaluate_field")
    for module in (analysis, classify, symmetry):
        patch(module, "curvature", "geometry.curvature")

    for module in (analysis, classify, newman_penrose, metricfile):
        for fn in _NP_FUNCS:
            if hasattr(module, fn):
                patch(module, fn, f"newman_penrose.{fn}")

    # analysis reaches the residual probes through its dispatch table
    table = analysis._RESIDUAL_FUNCS
    for condition in RESIDUALS:
        table[condition] = tracer.wrap(_residual_name(condition),
                                       table[condition])
    patch(classify, "semi_symmetry_residual", _residual_name("semi"))
    for fn in NULL_PROBES:
        patch(classify, fn, f"symmetry.{fn}")

    for fn in _SPINOR_FUNCS:
        patch(analysis, fn, f"spinors.{fn}")
    patch(analysis, "classify_point", "classify.classify_point")
    patch(analysis, "analyze_point", ANALYZE)
    patch(analysis, "reports_to_json", "analysis.reports_to_json")
    patch(metricfile, "parse_metric_text", "metricfile.parse_metric_text")
    patch(corpus, "parse_metric_text", "metricfile.parse_metric_text")


def span_table(spans: list) -> list:
    """Per span: (name, duration, self time, build time beneath it,
    in-point flag).  ``spans`` is in end order, so children precede
    their parents."""
    child_time: dict = defaultdict(float)
    build_below: dict = defaultdict(float)
    for name, start, end, span_id, parent in spans:
        dur = end - start
        child_time[parent] += dur
        build_below[parent] += dur if name.startswith(BUILD_PREFIX) \
            else build_below[span_id]
    in_point: dict = {0: False}
    for name, _, _, span_id, parent in reversed(spans):
        in_point[span_id] = name == ANALYZE or in_point[parent]
    return [(name, end - start, end - start - child_time[span_id],
             build_below[span_id], in_point[span_id])
            for name, start, end, span_id, parent in spans]


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one operation from its spans."""
    incl: dict = defaultdict(float)       # inclusive duration
    own: dict = defaultdict(float)        # self time
    point_own: dict = defaultdict(float)  # self time inside points
    point_eval: dict = defaultdict(float)  # inclusive minus builds, in points
    calls: dict = defaultdict(int)        # calls inside points
    covered = 0.0
    for name, dur, self_s, build_s, in_point in span_table(spans):
        incl[name] += dur
        own[name] += self_s
        covered += self_s
        if in_point:
            point_own[name] += self_s
            point_eval[name] += dur - build_s
            calls[name] += 1
    points = calls[ANALYZE]
    if points == 0:
        raise ValueError("trace holds no analyze_point span")

    def per_point_ms(table, names):
        return 1e3 * sum(table[n] for n in names) / points

    def layer_sum(table, prefix):
        return sum(v for n, v in table.items() if n.startswith(prefix))

    out = {
        "metricfile.parse_ms": 1e3 * incl["metricfile.parse_metric_text"],
        "geometry.build_s": layer_sum(own, BUILD_PREFIX),
        "geometry.build_nabla2_s": own[NABLA2],
        "geometry.eval_ms_per_point": per_point_ms(
            point_own, ("geometry.curvature", "geometry.evaluate_field")),
        "geometry.curvature_calls_per_point":
            calls["geometry.curvature"] / points,
    }
    for condition in RESIDUALS:
        out[f"symmetry.{condition}_ms_per_point"] = per_point_ms(
            point_eval, (f"symmetry.{condition}",))
    out["symmetry.null_probe_ms_per_point"] = per_point_ms(
        point_eval, tuple(f"symmetry.{n}" for n in NULL_PROBES))
    out["symmetry.direct_route_s"] = layer_sum(incl, "symmetry.direct.")
    out["newman_penrose.ms_per_point"] = \
        1e3 * layer_sum(point_own, "newman_penrose.") / points
    for fn in COUNTED_NP:
        out[f"newman_penrose.{fn}_calls_per_point"] = \
            calls[f"newman_penrose.{fn}"] / points
    out["spinors.ms_per_point"] = 1e3 * layer_sum(point_own, "spinors.") / points
    out["classify.self_ms_per_point"] = per_point_ms(
        point_own, ("classify.classify_point",))
    out["analysis.self_ms_per_point"] = per_point_ms(point_own, (ANALYZE,))
    out["analysis.render_ms"] = 1e3 * incl["analysis.reports_to_json"]
    out["covered_s"] = covered
    out["points"] = points
    return out


def dag_nodes(roots) -> int:
    """Distinct expression nodes reachable from ``roots`` (iterative, so
    deep DAGs do not hit the recursion limit)."""
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.args)
    return len(seen)
