"""One benchmark operation, run in a fresh interpreter.

The intern table, the derivative memo and each ``MetricField._cache`` live
for the whole process and are never freed, so every operation gets its own
worker: a second pass in one process would reuse every derivative and
measure a different program from the one a command-line user runs.

Usage: ``python3 perfbench/worker.py < request.json``.  The request (see
``workloads.make_request``) arrives on stdin; the result is one JSON
object on the last line of stdout.  Timestamps are ``time.perf_counter``
readings (CLOCK_MONOTONIC on Linux), comparable with the parent's.

The worker parses the metrics, then analyses each point in sorted order
with ``analyze_point`` and renders each metric's reports with
``reports_to_json``, as ``curvlab analyze --json`` (and, with
``cross_validate``, ``analyze --cross-validate --json``) does.  With
``first_only`` it stops after each metric's first report (a first-point
probe).  Errors are not caught: a traceback and a nonzero exit mark the
operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from curvlab import analysis, corpus, expressions, metricfile  # noqa: E402
from curvlab.conventions import RESIDUAL_TOL  # noqa: E402


def point_summary(rep) -> dict:
    """What the oracle checks of one report."""
    out = {"metric": rep.metric, "point": rep.point_name,
           "branch": rep.classification.branch, "petrov": rep.petrov,
           "verdicts": {k: r.verdict for k, r in rep.residuals.items()}}
    if rep.cross is not None:
        out["cross"] = {k: rel for k, (_, _, rel) in rep.cross.items()}
    return out


def run(req: dict) -> dict:
    tracer = None
    if req["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    metrics = [corpus.load_corpus_metric(name) for name in req["corpus"]]
    metrics += [metricfile.parse_metric_text(text, name)
                for name, text in req["texts"]]
    t_setup = time.perf_counter()

    seed, cv = analysis.DEFAULT_SEED, req["cross_validate"]
    digest = hashlib.sha256()
    first_point_s, latencies, summaries = 0.0, [], []
    growth_nodes = growth_points = 0
    for m in metrics:
        reports, later = [], []
        t_prev = time.perf_counter()
        names = sorted(m.points)
        for i, pname in enumerate(names[:1] if req["first_only"] else names):
            rep = analysis.analyze_point(m, pname, RESIDUAL_TOL, seed, cv)
            t_now = time.perf_counter()
            if i == 0:
                first_point_s += t_now - t_prev
                interned_first = len(expressions._INTERN)
            else:
                later.append(t_now - t_prev)
            t_prev = t_now
            reports.append(rep)
        latencies.append(later)
        growth_nodes += len(expressions._INTERN) - interned_first
        growth_points += len(reports) - 1
        digest.update(analysis.reports_to_json(
            reports, RESIDUAL_TOL, seed).encode("utf-8"))
        summaries += [point_summary(rep) for rep in reports]
    t_done = time.perf_counter()

    # the table sizes have no public accessor, so the module's own tables
    # are read
    result = {
        "t_setup": t_setup, "t_done": t_done,
        "first_point_s": first_point_s, "latencies": latencies,
        "points": summaries, "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "interned_nodes": len(expressions._INTERN),
        "diff_memo_entries": len(expressions._DIFF_MEMO),
        "interned_growth_per_point": growth_nodes / max(growth_points, 1),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(req["spans_path"], req["op"])
        result["nabla2_nodes"] = {
            m.name: tracing.dag_nodes(
                m.nabla_field("riemann", 2).components.ravel())
            for m in metrics}
    return result


def main() -> int:
    req = json.loads(sys.stdin.read())
    print(json.dumps(run(req)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
