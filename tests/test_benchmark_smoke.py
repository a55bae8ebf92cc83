"""The benchmark harness, run small: one cross-validation worker on three
points, so that a field's tape is built at the second point and runs at
the third, checked by the benchmark's own oracle."""

import json
import subprocess
import sys
from pathlib import Path

from curvlab.corpus import GOLDEN
from curvlab.metricfile import parse_metric_text

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
POINTS = 3


def test_cross_validate_worker_passes_the_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle
    import workloads

    req = workloads.make_request("cross_validate", 1, ROOT / "src")
    (name, text), = req["texts"]
    m = parse_metric_text(text, name)
    kept = [m.points[p] for p in sorted(m.points)[:POINTS]]
    req["texts"] = [[name, workloads.with_points(text, kept)]]
    req["expected_points"] = {name: POINTS}
    req.update(trace=False, first_only=False)

    done = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          cwd=ROOT, input=json.dumps(req),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert len(result["points"]) == POINTS
    assert oracle.operation_problems(result, req["expected_points"], GOLDEN,
                                     req["cross_validate"]) == []
