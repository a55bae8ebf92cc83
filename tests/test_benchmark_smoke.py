"""The benchmark harness, run small: one cross-validation worker on three
points, so that a field's tape is built at the second point and runs at
the third, checked by the benchmark's own oracle.  And the benchmark's
own inputs, run in process, against their pinned report digests, so that
a change to the last bit of any reported float shows in this suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# the SHA-256 of the worker's rendered reports (``analyze --json`` of each
# metric, in order) per workload and seed
DIGESTS = [
    ("grid_scan", 1,
     "080cecaf32db3b12e805c9431063f3474b69b5b9cdc2d284c9c773a66122ba3e"),
    ("grid_scan", 2,
     "92a163a71b1650fca7c563bfd1104e67122d727c90e15246924fa8a4de8fbec7"),
    ("grid_scan", 3,
     "b0196954f6f5770d7ccc9c45657841d4f8dc56ca90e48a6b78161f7ede63a151"),
    ("cross_validate", 1,
     "a648074af9365e19b4db5d0649829116150876ac421cef9f2c9fb231148b24a9"),
    ("corpus", 1,
     "cc5ce43bf8f53957d8211f60b6c591912321175cec33bd2929aa7cc2242652cf"),
]


@pytest.mark.parametrize("workload, seed, digest", DIGESTS,
                         ids=[f"{w}-{s}" for w, s, _ in DIGESTS])
def test_benchmark_inputs_keep_their_report_digests(monkeypatch, workload,
                                                     seed, digest):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    req = workloads.make_request(workload, seed, ROOT / "src")
    req.update(trace=False, first_only=False)
    result = worker.run(req)
    assert sum(req["expected_points"].values()) == len(result["points"])
    assert result["digest"] == digest
