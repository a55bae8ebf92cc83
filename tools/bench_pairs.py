"""Alternating parent/change benchmark pairs, written as a BENCH_<n>.json record.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent REV --workload cross_validate \\
        --seeds 11-20 --seconds 40 --out BENCH_9.json

Both sides run from fresh copies in one temporary directory: the parent
revision exported with ``git archive``, the change as this checkout's
working tree (its tracked files and its untracked files that git does not
ignore, so a new, unstaged file runs too).  Neither runs from the
checkout itself, so the two differ in their files only.  Per workload and
seed, one pair of ``perfbench/run.py --trace 0`` runs is made with that
seed and the same ``--seconds`` on both sides, the parent first in odd
pairs and the change first in even ones.  One ``--trace 1`` run per side, at the first seed,
gives the per-layer times and the DAG counts, which do not depend on the
machine.

The record holds every run's gated metrics (those ``BENCHMARK.json``
lists), its report digest, host-loop time, operations attempted and
failed, and exit code; per pair whether the two sides' digests match
and the host-loop ratio (the change's host-loop time over the parent's:
how far the host itself moved between the two runs); and per metric each
side's
median and quartiles, the pairs each side won (ties count for neither),
whether a gain would count (at least ten pairs, the change wins at least
nine tenths of them, and the medians differ, in the better direction, by
more than the parent's interquartile range), and a regression verdict
against the metric's ``BENCHMARK.json`` bound (see ``regression``).
The record also holds each side's line count of ``src/curvlab/*.py``
(``src_lines``), counted in its export.  The summary prints those counts,
each side's failed/attempted operations per workload and the pairs whose
host-loop ratio lies more than ``HOST_SPREAD`` from 1, whose metrics
compare two hosts as much as two programs; beside each metric's two
medians it prints the parent's interquartile range, which a gain must
exceed.  The tool exits 1 when any run failed an operation or exited
nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 3600
MIN_PAIRS = 10              # fewer pairs support no claim of a gain
HOST_SPREAD = 0.1           # a pair's host loop moved by more than this


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"1,4,9"`` (or a mix) as a list of seeds.  A range
    that holds no seed (``"20-11"``) is an error, so argparse exits before
    anything is exported."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range '{part}'")
        seeds += range(lo, hi + 1)
    return seeds


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric over (parent, change) pairs; ``better`` is ``"lower"``
    or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    change_wins = sum(sign * (p - c) > 0 for p, c in pairs)
    parent_wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (parent["median"] - change["median"])
    return {"better": better, "parent": parent, "change": change,
            "pairs": len(pairs), "change_wins": change_wins,
            "parent_wins": parent_wins,
            "change_over_parent": change["median"] / parent["median"],
            "gain_counts": (len(pairs) >= MIN_PAIRS
                            and change_wins >= 0.9 * len(pairs)
                            and gain > parent["q3"] - parent["q1"])}


def regression(pairs: list[tuple[float, float]], better: str,
               bound: float) -> str:
    """``"worse"`` when the change's median is worse than the parent's by
    more than ``bound`` (relative to the parent's median);
    ``"unresolved"`` when the parent's interquartile range is wider than
    ``bound`` of its median and not every change run beats every parent
    run; ``"ok"`` otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    limit = bound * abs(parent["median"])
    if sign * (change["median"] - parent["median"]) > limit:
        return "worse"
    separated = all(sign * (p - c) > 0 for p, _ in pairs for _, c in pairs)
    if parent["q3"] - parent["q1"] > limit and not separated:
        return "unresolved"
    return "ok"


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev``, extracted into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def export_worktree(dest: Path) -> Path:
    """The working tree's tracked and untracked, non-ignored files, as
    they are on disk, copied into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():           # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def export_sides(parent: str, tmp: Path) -> dict:
    """The parent revision and the working tree, each exported under
    ``tmp``."""
    return {"parent": export(parent, tmp / "parent"),
            "change": export_worktree(tmp / "change")}


def src_lines(root: Path) -> int:
    """The lines of ``src/curvlab/*.py`` under ``root``, as ``wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "curvlab").glob("*.py"))


def bench(root: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its metrics (the last
    JSON line), report digest, host-loop time, operations attempted and
    failed, and exit code."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench printed nothing in {root}: {done.stderr}")
    result = json.loads(lines[-1])
    head = re.search(r"host loop ([\d.]+) s .*report digest (\w+)", lines[0])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digest": head and head.group(2),
            "host_loop_s": head and float(head.group(1)),
            "attempted": result["attempted"], "failed": result["failed"],
            "exit": done.returncode}


def run_pairs(sides: dict, workload: str, seeds: list[int], seconds: float,
              gated: dict) -> dict:
    """Alternating pairs on one workload, one traced run per side, and the
    per-metric summary."""
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(sides[side], workload, seed, seconds, 0)
            print(f"{workload} pair {k + 1} seed {seed} {side}: "
                  + " ".join(f"{n}={v:.4g}" for n, v in
                             pair[side]["metrics"].items()), flush=True)
        pair["digests_match"] = \
            pair["parent"]["digest"] == pair["change"]["digest"]
        base, moved = (pair[side].get("host_loop_s")
                       for side in ("parent", "change"))
        pair["host_loop_ratio"] = moved / base if base and moved else None
        pairs.append(pair)
    traced = {side: bench(sides[side], workload, seeds[0], seconds, 1)
              for side in ("parent", "change")}
    summary = {}
    for name, (better, bound) in gated.items():
        runs = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs]
        summary[name] = summarize(runs, better) | {
            "bound": bound, "regression": regression(runs, better, bound)}
    return {"seconds": seconds, "seeds": seeds, "pairs": pairs,
            "summary": summary, "traced": traced}


def failures(rec: dict) -> dict:
    """Per side of one workload, over its pairs and its traced run: the
    operations failed and attempted, and the runs that exited nonzero."""
    runs = [(side, p[side]) for p in rec["pairs"]
            for side in ("parent", "change")] + list(rec["traced"].items())
    out = {side: {"failed": 0, "attempted": 0, "nonzero_exits": 0}
           for side in ("parent", "change")}
    for side, run in runs:
        out[side]["failed"] += run["failed"]
        out[side]["attempted"] += run["attempted"]
        out[side]["nonzero_exits"] += run["exit"] != 0
    return out


def report(record: dict) -> int:
    """Print the summary of a record; 1 when any run failed an operation
    or exited nonzero, else 0."""
    status = 0
    if "src_lines" in record:
        lines = record["src_lines"]
        print(f"src/curvlab lines: parent {lines['parent']} change "
              f"{lines['change']} ({lines['change'] - lines['parent']:+d})")
    for w, rec in record["workloads"].items():
        for side, f in failures(rec).items():
            print(f"{w:<15} {side:<6} failed {f['failed']}/{f['attempted']} "
                  f"operations, {f['nonzero_exits']} nonzero exits")
            if f["failed"] or f["nonzero_exits"]:
                status = 1
        matched = sum(p["digests_match"] for p in rec["pairs"])
        print(f"{w:<15} digests match in {matched}/{len(rec['pairs'])} pairs")
        moved = [f"seed {p['seed']} {p['host_loop_ratio']:.3f}x"
                 for p in rec["pairs"] if p["host_loop_ratio"] is not None
                 and abs(p["host_loop_ratio"] - 1.0) > HOST_SPREAD]
        print(f"{w:<15} host loop moved more than {HOST_SPREAD:.0%} in "
              f"{len(moved)}/{len(rec['pairs'])} pairs"
              + (": " + ", ".join(moved) if moved else ""))
        for name, s in rec["summary"].items():
            iqr = s["parent"]["q3"] - s["parent"]["q1"]
            print(f"{w:<15} {name:<14} parent {s['parent']['median']:.5g} "
                  f"(IQR {iqr:.3g}) change {s['change']['median']:.5g} "
                  f"({s['change_over_parent']:.3f}x) wins "
                  f"{s['change_wins']}/{s['pairs']} {s['regression']}"
                  + ("  gain counts" if s["gain_counts"] else ""))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one seed per pair, e.g. 11-20")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = export_sides(args.parent, Path(tmp))
        record = {
            "parent": subprocess.run(
                ["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.strip(),
            "change": "working tree",
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "cpus": os.cpu_count(),
                     "system": platform.system()},
            "src_lines": {side: src_lines(root)
                          for side, root in sides.items()},
            "workloads": {w: run_pairs(sides, w, args.seeds, args.seconds,
                                       gated) for w in args.workload}}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return report(record)


if __name__ == "__main__":
    sys.exit(main())
