"""Command-line front end.

Subcommands: ``analyze`` (full per-point reports, text or JSON),
``classify`` (classification summary only), ``corpus`` (list the bundled
metrics or run the golden-record regression), and ``lemmas`` (the
standalone component-data verification of the two condition lemmas).

Exit codes: 0 success, 1 parse/validation failure (including golden
mismatches, expression errors such as ``abs`` under a derivative or a
division by zero, and expressions nested too deeply for the recursive
evaluator), 2 degenerate metric at a point, 3 invalid or missing tetrad,
4 classification hit a point whose Petrov type contradicts the
admissibility theorem.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    DEFAULT_SEED,
    corpus_regression,
    lemma_suite,
    render_reports,
    reports_to_json,
    run_analysis,
)
from .classify import TheoremViolationError, classify_point
from .conventions import RESIDUAL_TOL
from .corpus import CORPUS_NAMES, GOLDEN, load_corpus_metric
from .expressions import ExprError
from .geometry import DegenerateMetricError
from .metricfile import MetricFileError, load_metric_file
from .newman_penrose import InvalidTetradError
from .symmetry import TetradMissingError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_TETRAD = 3
EXIT_THEOREM = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="pointwise curvature-symmetry analysis of metric files")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="full residual/NP/classification report per point")
    analyze.add_argument("file", help="metric definition file")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--point", help="analyze only this named point")
    group.add_argument("--all-points", action="store_true",
                       help="analyze every declared point (the default)")
    analyze.add_argument("--tol", type=float, default=RESIDUAL_TOL,
                         help="residual tolerance (default %(default)g)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the JSON report instead of text")
    analyze.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="seed for the energy-condition sampling "
                              "(default %(default)s)")
    analyze.add_argument("--cross-validate", action="store_true",
                         help="also compare the commutator residuals "
                              "against explicit double differentiation")

    classify = sub.add_parser(
        "classify", help="one classification line per point")
    classify.add_argument("file", help="metric definition file")
    classify.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    classify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    corpus = sub.add_parser("corpus", help="bundled-metric operations")
    corpus.add_argument("action", choices=("list", "run"),
                        help="'list' the bundled metrics or 'run' the "
                             "golden-record regression")

    sub.add_parser("lemmas",
                   help="verify the condition lemmas on component data")
    return parser


def _cmd_analyze(args) -> int:
    m = load_metric_file(args.file)
    point = args.point if args.point else None
    reports = run_analysis(m, tol=args.tol, seed=args.seed, point=point,
                           cross_validate=args.cross_validate)
    if args.json:
        sys.stdout.write(reports_to_json(reports, args.tol, args.seed))
    else:
        sys.stdout.write(render_reports(reports))
    return EXIT_OK


def _cmd_classify(args) -> int:
    m = load_metric_file(args.file)
    for pname in sorted(m.points):
        c = classify_point(m, m.points[pname], tol=args.tol,
                           dec_seed=args.seed)
        extra = f"  [{'; '.join(c.warnings)}]" if c.warnings else ""
        print(f"{m.name} {pname}: {c.branch} "
              f"(petrov {c.petrov}, semi-symmetry {c.semi_verdict}, "
              f"dec {c.dec}){extra}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.action == "list":
        for name in CORPUS_NAMES:
            m = load_corpus_metric(name)
            golden = GOLDEN[name]
            print(f"{name}: {len(m.points)} points, expected branch "
                  f"{golden.branch} (petrov {golden.petrov})")
        return EXIT_OK
    ok, lines = corpus_regression()
    for line in lines:
        print(line)
    print("corpus regression: " + ("all golden records reproduced"
                                   if ok else "MISMATCHES FOUND"))
    return EXIT_OK if ok else EXIT_INPUT


def _cmd_lemmas() -> int:
    ok, lines = lemma_suite()
    for line in lines:
        print(line)
    print("condition lemmas: " + ("all checks passed"
                                  if ok else "FAILURES FOUND"))
    return EXIT_OK if ok else EXIT_INPUT


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (0) and usage errors; fold the latter
        # into the parse/validation code
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_lemmas()
    except (MetricFileError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: expression nested too deeply to evaluate",
              file=sys.stderr)
        return EXIT_INPUT
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidTetradError, TetradMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TETRAD
    except TheoremViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
