"""Checks each operation's outputs against the golden records.

Every point must reproduce the golden branch, Petrov type and all five
residual verdicts of its metric.  On the cross-validation workload the
commutator and direct routes must also agree to ``CROSS_REL_TOL``
relative (acceptance criterion 8).  A mismatch fails the operation; it is
never hidden by re-seeding.
"""

from __future__ import annotations

CROSS_REL_TOL = 1e-7
CROSS_CONDITIONS = ("semi", "conformal", "ricci")


def point_problems(summary: dict, golden) -> list:
    """Mismatches of one point summary (see ``worker.point_summary``)
    against a ``curvlab.corpus.GoldenRecord``."""
    problems = []
    if summary["branch"] != golden.branch:
        problems.append(f"branch {summary['branch']} "
                        f"(expected {golden.branch})")
    if summary["petrov"] != golden.petrov:
        problems.append(f"petrov {summary['petrov']} "
                        f"(expected {golden.petrov})")
    for cond, expect in golden.verdicts.items():
        got = summary["verdicts"].get(cond)
        if got != expect:
            problems.append(f"{cond} {got} (expected {expect})")
    return problems


def operation_problems(result: dict, expected_points: dict, golden: dict,
                       cross_validate: bool) -> list:
    """All oracle failures of one operation, as readable lines.

    ``expected_points`` maps metric name to its number of points;
    ``golden`` maps metric name to its golden record.
    """
    problems = []
    seen: dict = {}
    for s in result["points"]:
        where = f"{s['metric']} {s['point']}"
        seen[s["metric"]] = seen.get(s["metric"], 0) + 1
        problems += [f"{where}: {p}"
                     for p in point_problems(s, golden[s["metric"]])]
        if cross_validate:
            cross = s.get("cross") or {}
            for cond in CROSS_CONDITIONS:
                rel = cross.get(cond)
                if rel is None or not rel <= CROSS_REL_TOL:
                    problems.append(f"{where}: {cond} routes differ by "
                                    f"{rel} relative (limit {CROSS_REL_TOL})")
    if seen != expected_points:
        problems.append(f"points reported {seen}, expected {expected_points}")
    return problems
