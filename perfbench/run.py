"""curvlab benchmark: one command per workload, outputs checked by an oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {corpus,grid_scan,cross_validate} \\
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one client and one worker at a time: this
script spawns a fresh worker (``worker.py``) per operation and starts the
next only after the previous one has exited.  Each operation runs the
workload's whole input once; all operations of a run share the inputs
made from ``--seed``.  Operations start while the median operation still
fits in ``--seconds`` (at least one, two when tracing).

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
traced and untraced operations alternate, and the per-layer metrics come
from the traced ones.  A table of every metric (unit and sample count)
goes to stdout, then one JSON line; a run record goes to
``.perfbench_out/``.  The exit code is nonzero when any operation raised
or failed its oracle.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

OP_TIMEOUT_S = 150
HOST_LOOP_N = 3_000_000     # fixed pure-Python loop: host-speed context only
P90_MIN_SAMPLES = 100       # p90 needs ten samples beyond it

# (name, unit); the first six are gated (BENCHMARK.json end_to_end)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("first_point_s", "s"),
              ("point_ms_p50", "ms"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("point_ms_p90", "ms"),
              ("error_rate", "ratio"))
GATED = tuple(name for name, _ in END_TO_END[:6])

PER_LAYER = (
    ("metricfile.parse_ms", "ms"),
    ("geometry.build_s", "s"),
    ("geometry.build_nabla2_s", "s"),
    ("geometry.nabla2_nodes", "count"),
    ("geometry.eval_ms_per_point", "ms"),
    ("geometry.curvature_calls_per_point", "calls/point"),
    ("symmetry.semi_ms_per_point", "ms"),
    ("symmetry.conformal_ms_per_point", "ms"),
    ("symmetry.ricci_ms_per_point", "ms"),
    ("symmetry.second_order_ms_per_point", "ms"),
    ("symmetry.nabla_riemann_ms_per_point", "ms"),
    ("symmetry.null_probe_ms_per_point", "ms"),
    ("symmetry.direct_route_s", "s"),
    ("newman_penrose.ms_per_point", "ms"),
    ("newman_penrose.tetrad_frame_calls_per_point", "calls/point"),
    ("newman_penrose.np_scalars_calls_per_point", "calls/point"),
    ("newman_penrose.spin_coefficients_calls_per_point", "calls/point"),
    ("spinors.ms_per_point", "ms"),
    ("classify.self_ms_per_point", "ms"),
    ("analysis.self_ms_per_point", "ms"),
    ("analysis.render_ms", "ms"),
    ("expressions.interned_nodes", "count"),
    ("expressions.diff_memo_entries", "count"),
    ("expressions.interned_growth_per_point", "nodes/point"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def host_loop_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(HOST_LOOP_N):
        x += i
    return time.perf_counter() - t0


def spawn(req: dict) -> dict:
    """Run one worker to completion; returns its wall time (spawn to
    exit), its result (None when it failed) and its set-up time."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(req).encode("utf-8"),
                                  timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"wall_s": time.perf_counter() - t_spawn, "result": None,
                "problems": [f"worker timed out after {OP_TIMEOUT_S} s"]}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t_spawn
    lines = out.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"wall_s": wall, "result": None,
                "problems": [f"worker exited with code {proc.returncode}"]}
    result = json.loads(lines[-1])
    return {"wall_s": wall, "result": result, "problems": [],
            "setup_s": result["t_setup"] - t_spawn,
            "work_s": result["t_done"] - t_spawn}


def end_to_end(ops: list, probes: list, attempted: int, failed: int) -> dict:
    """name -> (value or None, sample count), from the untraced operations
    and first-point probes that passed the oracle."""
    good = [op for op in ops if not op["problems"]]
    res = [op["result"] for op in good]
    starts = good + [p for p in probes if not p["problems"]]
    # latencies after each metric's first point, per metric, pooled over
    # operations (metric j of every operation is the same metric)
    by_metric = [[1e3 * x for r in res for x in r["latencies"][j]]
                 for j in range(len(res[0]["latencies"]) if res else 0)]
    lat_ms = [x for lat in by_metric for x in lat]
    # each metric counts once: on corpus the pooled median falls between
    # two metrics' latency clusters and jumps from one to the other
    metric_p50 = [statistics.median(lat) for lat in by_metric if lat]
    points = sum(len(r["points"]) for r in res)
    busy = sum(r["t_done"] - r["t_setup"] for r in res)

    def med(values):
        return (statistics.median(values) if values else None, len(values))

    return {
        "wall_s": med([op["wall_s"] for op in good]),
        "setup_s": med([run["setup_s"] for run in starts]),
        "first_point_s": med([run["result"]["first_point_s"]
                              for run in starts]),
        "point_ms_p50": (statistics.median(metric_p50) if metric_p50
                         else None, len(lat_ms)),
        "points_per_s": (points / busy if busy > 0 else None, points),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in res]),
        "point_ms_p90": (statistics.quantiles(
            lat_ms, n=10, method="inclusive")[8]
            if len(lat_ms) >= P90_MIN_SAMPLES else None, len(lat_ms)),
        "error_rate": (failed / attempted, attempted),
    }


def per_layer(ops: list) -> dict:
    """name -> (value or None, sample count), from traced operations.

    The trace figures use each worker's time from spawn to the end of its
    analysis (``work_s``), which leaves out the node counting and span
    writing a traced worker does afterwards; ``trace.overhead_ratio``
    compares that time between traced and untraced operations.
    """
    traced = [op for op in ops if op["traced"] and op["result"] is not None]
    plain = [op["work_s"] for op in ops
             if not op["traced"] and op["result"] is not None]
    per_op = []
    for op in traced:
        r = op["result"]
        row = dict(r["layers"])
        row["geometry.nabla2_nodes"] = sum(r["nabla2_nodes"].values())
        row["expressions.interned_nodes"] = r["interned_nodes"]
        row["expressions.diff_memo_entries"] = r["diff_memo_entries"]
        row["expressions.interned_growth_per_point"] = \
            r["interned_growth_per_point"]
        row["trace.unattributed_share"] = \
            1.0 - row["covered_s"] / op["work_s"]
        per_op.append(row)
    out = {name: (statistics.median(row[name] for row in per_op)
                  if per_op else None, len(per_op))
           for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
    ratio = None
    if traced and plain:
        ratio = (statistics.median(op["work_s"] for op in traced)
                 / statistics.median(plain))
    out["trace.overhead_ratio"] = (ratio, len(traced) + len(plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'curvlab'} not found; run from the root of a "
              "curvlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from curvlab.corpus import GOLDEN

    # the only build step: byte-compile once, so that no operation pays it
    compileall.compile_dir(str(SRC / "curvlab"), quiet=1)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    host = host_loop_s()
    req = workloads.make_request(args.workload, args.seed, SRC)
    base = dict(req, trace=False, first_only=False)
    first_points = {name: 1 for name in req["expected_points"]}
    probes_per_op = 0 if args.trace else req["probes_per_op"]
    min_ops = 2 if args.trace else 1

    ops, probes, problems = [], [], []
    digest = None

    def checked(run: dict, label: str, expected: dict, witness=None) -> dict:
        """Apply the oracle and, for operations, the determinism witness:
        one commit and one input must give one report digest."""
        r = run["result"]
        if r is not None:
            run["problems"] += oracle.operation_problems(
                r, expected, GOLDEN, req["cross_validate"])
            if witness is not None and r["digest"] != witness:
                run["problems"].append(f"report digest {r['digest']} differs "
                                       f"from the run's first, {witness}")
        problems.extend(f"{label}: {p}" for p in run["problems"])
        return run

    def cycle_s() -> float:
        """Expected time of the next operation and its probes."""
        est = statistics.median(op["wall_s"] for op in ops)
        if probes:
            est += probes_per_op * statistics.median(
                p["wall_s"] for p in probes)
        return est

    deadline = time.perf_counter() + args.seconds
    while len(ops) < min_ops or time.perf_counter() + cycle_s() <= deadline:
        k = len(ops)
        for _ in range(probes_per_op):
            probes.append(checked(spawn(dict(base, first_only=True)),
                                  f"probe {len(probes)}", first_points))
        traced = bool(args.trace) and k % 2 == 1
        op = spawn(dict(base, trace=traced, op=k, spans_path=str(
            OUT / "spans" / f"{tag}-op{k}.jsonl")))
        op["traced"] = traced
        if op["result"] is not None:
            digest = digest or op["result"]["digest"]
        ops.append(checked(op, f"operation {k}", req["expected_points"],
                           digest))
    attempted = len(ops) + len(probes)
    failed = sum(bool(run["problems"]) for run in ops + probes)

    if args.trace:
        table, units, gated = per_layer(ops), dict(PER_LAYER), \
            [name for name, _ in PER_LAYER]
    else:
        table, units, gated = end_to_end(ops, probes, attempted, failed), \
            dict(END_TO_END), GATED
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)} + {len(probes)} first-point probes  "
          f"host loop {host:.3f} s  report digest {digest}")
    for name, (value, n) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>12} {units[name]:<11} n={n}")
    for problem in problems:
        print(f"  FAILED {problem}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host_loop_s": host, "digest": digest,
              "probes": [{"wall_s": p["wall_s"], "setup_s": p.get("setup_s"),
                          "problems": p["problems"]} for p in probes],
              "ops": [{"wall_s": op["wall_s"], "traced": op["traced"],
                       "problems": op["problems"],
                       "result": {k: v for k, v in (op["result"] or {}).items()
                                  if k not in ("points", "latencies")}}
                      for op in ops],
              "metrics": {name: {"value": v, "unit": units[name], "n": n}
                          for name, (v, n) in table.items()}}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = {name: {"value": table[name][0], "unit": units[name]}
               for name in gated}
    if any(m["value"] is None for m in metrics.values()):
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
