"""Seeded inputs for the three benchmark workloads.

Each workload turns a seed into one *request*: the metric texts a worker
parses (or the bundled corpus names it loads) and the analysis options it
runs them with.  The program under test never sees the seed, only the
generated metric text.

Coordinate boxes are chosen from where each chart is regular, never from
the analysis outcomes at the drawn points; a point whose report misses
its golden record is a finding, not a reason to re-seed.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("corpus", "grid_scan", "cross_validate")

GRID_POINTS = 100
# product2x2 is regular for every real (t, x, y, z): g00 = 1 + x^2 > 0 and
# g33 = -(2 + sin y)^2 < 0.  The box spans the bundled points and a full
# period in y and z.
GRID_BOX = ((-1.0, 1.0), (-1.5, 1.5), (-math.pi, math.pi), (-math.pi, math.pi))

# Extra workers per operation that stop after each metric's first report.
# They sample the short set-up and first-point figures more often where
# that is cheap: on grid_scan a probe costs a tenth of an operation, on
# the other two workloads the first points are half of it.
PROBES_PER_OP = {"corpus": 0, "grid_scan": 2, "cross_validate": 0}

CROSS_POINTS = 5
# Schwarzschild exterior in units of M, away from the horizon (r = 2M)
# and from the coordinate singularities of the tetrad at theta = 0, pi.
CROSS_R_OVER_M = (2.5, 12.0)
CROSS_THETA = (0.3, math.pi - 0.3)
CROSS_T = (0.0, 2.0)
CROSS_PHI = (0.0, 2.0 * math.pi)


def corpus_text(src: Path, name: str) -> str:
    return (src / "curvlab" / "corpus_data" / f"{name}.ini").read_text(
        encoding="utf-8")


def with_points(text: str, points: list) -> str:
    """Replace the ``[points]`` section of a metric file with ``points``
    (named p000, p001, ... so that sorted order is generation order)."""
    kept, skipping = [], False
    for line in text.splitlines():
        header = line.strip()
        if header.startswith("["):
            skipping = header == "[points]"
        if not skipping:
            kept.append(line)
    body = "\n".join(kept).rstrip("\n")
    entries = "".join(
        f"p{i:03d} = {', '.join(repr(float(x)) for x in p)}\n"
        for i, p in enumerate(points))
    return f"{body}\n\n[points]\n{entries}"


def count_points(text: str) -> int:
    """Entries in the ``[points]`` section of a metric file."""
    count, inside = 0, False
    for line in text.splitlines():
        entry = line.split("#")[0].split(";")[0].strip()
        if entry.startswith("["):
            inside = entry == "[points]"
        elif inside and "=" in entry:
            count += 1
    return count


def _param(text: str, name: str) -> float:
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return float(value.split("#")[0])
    raise ValueError(f"metric text declares no parameter {name!r}")


def grid_points(seed: int, n: int = GRID_POINTS) -> list:
    rng = random.Random(seed)
    return [tuple(rng.uniform(lo, hi) for lo, hi in GRID_BOX)
            for _ in range(n)]


def cross_points(seed: int, mass: float, n: int = CROSS_POINTS) -> list:
    rng = random.Random(seed)
    return [(rng.uniform(*CROSS_T),
             mass * rng.uniform(*CROSS_R_OVER_M),
             rng.uniform(*CROSS_THETA),
             rng.uniform(*CROSS_PHI)) for _ in range(n)]


def make_request(workload: str, seed: int, src: Path) -> dict:
    """The worker request for one workload and seed.

    ``texts`` lists (metric name, metric text) pairs to parse; ``corpus``
    lists bundled metrics to load instead.  The metric name is also the
    key of the golden record each point must reproduce, and
    ``expected_points`` counts the points each metric must report.
    """
    names, texts = [], []
    if workload == "corpus":
        from curvlab.corpus import CORPUS_NAMES

        # fixed inputs: the seed is deliberately unused
        names = list(CORPUS_NAMES)
        counts = {n: count_points(corpus_text(src, n)) for n in names}
    elif workload == "grid_scan":
        texts = [["product2x2", with_points(corpus_text(src, "product2x2"),
                                           grid_points(seed))]]
    elif workload == "cross_validate":
        base = corpus_text(src, "schwarzschild")
        texts = [["schwarzschild",
                  with_points(base, cross_points(seed, _param(base, "M")))]]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         + ", ".join(WORKLOADS))
    if texts:
        counts = {name: count_points(text) for name, text in texts}
    return {"workload": workload, "corpus": names, "texts": texts,
            "cross_validate": workload == "cross_validate",
            "expected_points": counts,
            "probes_per_op": PROBES_PER_OP[workload]}
