"""Tests of the benchmark itself: inputs, oracle, span arithmetic and the
exact counts the traced run reports.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curvlab.corpus import GOLDEN  # noqa: E402
from curvlab.metricfile import parse_metric_text  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_request(workload, 11, SRC) == \
            workloads.make_request(workload, 11, SRC)
    for workload in ("grid_scan", "cross_validate"):
        assert workloads.make_request(workload, 11, SRC)["texts"] != \
            workloads.make_request(workload, 12, SRC)["texts"]
    # the corpus inputs are fixed: the seed is unused
    assert workloads.make_request("corpus", 11, SRC) == \
        workloads.make_request("corpus", 12, SRC)


def test_generated_metrics_parse_with_points_in_their_boxes():
    grid = workloads.make_request("grid_scan", 5, SRC)
    (name, text), = grid["texts"]
    m = parse_metric_text(text, name)
    assert grid["expected_points"] == {"product2x2": workloads.GRID_POINTS}
    assert len(m.points) == workloads.GRID_POINTS
    for coords in m.points.values():
        for x, (lo, hi) in zip(coords, workloads.GRID_BOX):
            assert lo <= x <= hi

    cross = workloads.make_request("cross_validate", 5, SRC)
    (name, text), = cross["texts"]
    m = parse_metric_text(text, name)
    assert cross["cross_validate"] and len(m.points) == workloads.CROSS_POINTS
    for _, r, theta, _ in m.points.values():
        assert 2.5 <= r / m.params["M"] <= 12.0
        assert 0.3 <= theta <= 3.1415926535897931 - 0.3


def _summary(metric, golden, cross=None):
    s = {"metric": metric, "point": "p0", "branch": golden.branch,
         "petrov": golden.petrov, "verdicts": dict(golden.verdicts)}
    if cross is not None:
        s["cross"] = cross
    return s


def test_oracle_rejects_a_perturbed_golden_record():
    golden = GOLDEN["product2x2"]
    summary = _summary("product2x2", golden)
    assert oracle.point_problems(summary, golden) == []
    for perturbed in (
            dataclasses.replace(golden, branch="D-special-A0"),
            dataclasses.replace(golden, petrov="N"),
            dataclasses.replace(golden, verdicts=dict(
                golden.verdicts, second_order="holds"))):
        assert oracle.point_problems(summary, perturbed)


def test_oracle_checks_route_agreement_and_point_count():
    golden = {"schwarzschild": GOLDEN["schwarzschild"]}
    agree = {c: 1e-12 for c in oracle.CROSS_CONDITIONS}
    ok = {"points": [_summary("schwarzschild", golden["schwarzschild"],
                              agree)]}
    assert oracle.operation_problems(ok, {"schwarzschild": 1}, golden,
                                     True) == []
    far = {"points": [_summary("schwarzschild", golden["schwarzschild"],
                               dict(agree, ricci=1e-6))]}
    assert oracle.operation_problems(far, {"schwarzschild": 1}, golden, True)
    assert oracle.operation_problems(ok, {"schwarzschild": 2}, golden, True)


def test_self_time_subtracts_child_spans():
    # analyze_point [0, 10] > curvature [1, 4] > build [2, 3], in end order
    spans = [("geometry.build.riemann_field", 2.0, 3.0, 3, 2),
             ("geometry.curvature", 1.0, 4.0, 2, 1),
             (tracing.ANALYZE, 0.0, 10.0, 1, 0),
             ("analysis.reports_to_json", 10.0, 11.0, 4, 0)]
    rows = {row[0]: row[1:] for row in tracing.span_table(spans)}
    assert rows["geometry.curvature"] == (3.0, 2.0, 1.0, True)
    assert rows[tracing.ANALYZE] == (10.0, 7.0, 1.0, True)
    assert rows["analysis.reports_to_json"] == (1.0, 1.0, 0.0, False)
    layers = tracing.layer_metrics(spans)
    assert layers["geometry.build_s"] == 1.0
    assert layers["geometry.eval_ms_per_point"] == 2000.0
    assert layers["covered_s"] == 11.0


def test_traced_corpus_reproduces_the_baseline_counts(tmp_path):
    req = dict(workloads.make_request("corpus", 0, SRC), trace=True,
               first_only=False, op=0,
               spans_path=str(tmp_path / "spans.jsonl"))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(req), capture_output=True,
                          text=True, cwd=ROOT, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["nabla2_nodes"]["schwarzschild"] == 191_224
    assert result["interned_nodes"] == 318_693
    assert result["diff_memo_entries"] == 139_570
    assert result["layers"]["points"] == 31
    assert result["layers"]["geometry.curvature_calls_per_point"] == 8.0
    assert oracle.operation_problems(result, req["expected_points"], GOLDEN,
                                     False) == []
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
