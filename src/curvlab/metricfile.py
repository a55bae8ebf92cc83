"""Line-oriented text format for metric definitions.

A metric file is a sequence of bracketed sections holding ``name = value``
entries, one per line; ``#`` and ``;`` start comments.  Expressions use
the shared grammar (coordinates, declared parameters, arithmetic,
``sqrt``/``sin``/``cos``/... calls)::

    [chart]
    coords = t, r, theta, phi        # exactly four names

    [params]                         # optional numeric constants
    M = 1.0

    [metric]                         # all ten upper-triangle entries
    g00 = 1 - 2*M/r
    g01 = 0
    ...
    g33 = -r^2*sin(theta)^2

    [tetrad]                         # optional null tetrad (k, l, m)
    k    = 1/(1 - 2*M/r), 1, 0, 0
    l    = 1/2, -(1 - 2*M/r)/2, 0, 0
    m_re = 0, 0, 1/(sqrt(2)*r), 0
    m_im = 0, 0, 0, 1/(sqrt(2)*r*sin(theta))

    [points]                         # at least one named point
    p0 = 0.0, 4.0, 1.0471975511965976, 0.0

    [flags]                          # optional
    static = true

Loading validates everything up front: chart arity, expression syntax,
parameter names distinct from the coordinates, finite parameter and
point values, signature at every named point, point arity, and (when a
tetrad is declared) the nine tetrad normalization products at every
named point.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from .expressions import Arena, ExprError, parse_expr
from .geometry import MetricField, SymbolicTensor
from .newman_penrose import InvalidTetradError, NullTetrad, validate_tetrad

SECTION_NAMES = ("chart", "params", "metric", "tetrad", "points", "flags")
METRIC_KEYS = tuple(f"g{i}{j}" for i in range(4) for j in range(i, 4))
TETRAD_KEYS = ("k", "l", "m_re", "m_im")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_TRUE_WORDS = ("true", "yes", "on", "1")
_FALSE_WORDS = ("false", "no", "off", "0")


class MetricFileError(Exception):
    """Base for everything the loader can reject."""


class MetricFileParseError(MetricFileError):
    """Malformed line; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class MetricFileValidationError(MetricFileError):
    """Structurally valid file with inadmissible content; the message
    names the offending section (and entry where applicable)."""


def _strip_comment(line: str) -> str:
    for mark in "#;":
        cut = line.find(mark)
        if cut >= 0:
            line = line[:cut]
    return line.strip()


def _split_top_level(text: str) -> list:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def _scan(text: str) -> dict:
    """First pass: section -> list of (line number, key, value)."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise MetricFileParseError(lineno, "unterminated section header")
            name = line[1:-1].strip()
            if name not in SECTION_NAMES:
                raise MetricFileParseError(
                    lineno, f"unknown section '[{name}]' (expected one of "
                    + ", ".join(f"[{s}]" for s in SECTION_NAMES) + ")")
            if name in sections:
                raise MetricFileParseError(lineno, f"duplicate section '[{name}]'")
            sections[name] = []
            current = name
            continue
        if "=" not in line:
            raise MetricFileParseError(lineno, f"expected 'name = value', got {line!r}")
        if current is None:
            raise MetricFileParseError(lineno, "entry appears before any section header")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise MetricFileParseError(lineno, "entry has an empty name")
        if any(k == key for _, k, _ in sections[current]):
            raise MetricFileParseError(
                lineno, f"duplicate entry '{key}' in [{current}]")
        sections[current].append((lineno, key, value))
    return sections


def _require(sections: dict, name: str) -> list:
    if name not in sections:
        raise MetricFileValidationError(f"missing required section [{name}]")
    return sections[name]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_entry_expr(text: str, chart, params, lineno: int, arena: Arena):
    try:
        with arena:
            return parse_expr(text, chart, params)
    except ExprError as exc:
        raise MetricFileParseError(lineno, str(exc)) from exc


def parse_metric_text(text: str, name: str) -> MetricField:
    """Parse and fully validate a metric definition from a string."""
    sections = _scan(text)

    chart_entries = _require(sections, "chart")
    chart = None
    for lineno, key, value in chart_entries:
        if key != "coords":
            raise MetricFileValidationError(
                f"[chart] supports only the 'coords' entry, not '{key}'")
        chart = tuple(c.strip() for c in value.split(","))
    if chart is None:
        raise MetricFileValidationError("[chart] must declare a 'coords' entry")
    if len(chart) != 4 or len(set(chart)) != 4:
        raise MetricFileValidationError(
            f"[chart] must name exactly 4 distinct coordinates, got {chart}")
    for c in chart:
        if not _NAME_RE.match(c):
            raise MetricFileValidationError(
                f"[chart] coordinate {c!r} is not a valid identifier")

    params = {}
    for lineno, key, value in sections.get("params", []):
        if not _NAME_RE.match(key):
            raise MetricFileValidationError(
                f"[params] name {key!r} is not a valid identifier")
        if key in chart:
            raise MetricFileValidationError(
                f"[params] entry '{key}' is also a [chart] coordinate")
        try:
            params[key] = _finite(value)
        except ValueError:
            raise MetricFileValidationError(
                f"[params] entry '{key}' must be a finite number, "
                f"got {value!r}") from None

    metric_entries = _require(sections, "metric")
    seen = {}
    for lineno, key, value in metric_entries:
        if key not in METRIC_KEYS:
            raise MetricFileValidationError(
                f"[metric] entry '{key}' is not one of the upper-triangle "
                "components " + ", ".join(METRIC_KEYS))
        seen[key] = (lineno, value)
    for key in METRIC_KEYS:
        if key not in seen:
            raise MetricFileValidationError(f"[metric] is missing entry '{key}'")
    # the metric's arena, which the parser writes into before the
    # metric exists
    arena = Arena()
    g = [[None] * 4 for _ in range(4)]
    for key, (lineno, value) in seen.items():
        i, j = int(key[1]), int(key[2])
        g[i][j] = _parse_entry_expr(value, chart, params, lineno, arena)

    points = {}
    for lineno, key, value in _require(sections, "points"):
        parts = _split_top_level(value)
        if len(parts) != 4:
            raise MetricFileValidationError(
                f"[points] entry '{key}' must bind all 4 coordinates, "
                f"got {len(parts)} values")
        try:
            points[key] = tuple(_finite(v) for v in parts)
        except ValueError:
            raise MetricFileValidationError(
                f"[points] entry '{key}' must hold finite numbers, "
                f"got {value!r}") from None
    if not points:
        raise MetricFileValidationError("[points] must declare at least one point")

    static = False
    for lineno, key, value in sections.get("flags", []):
        if key != "static":
            raise MetricFileValidationError(
                f"[flags] supports only the 'static' entry, not '{key}'")
        word = value.lower()
        if word in _TRUE_WORDS:
            static = True
        elif word in _FALSE_WORDS:
            static = False
        else:
            raise MetricFileValidationError(
                f"[flags] entry 'static' must be true or false, got {value!r}")

    tetrad = None
    if "tetrad" in sections:
        legs = {}
        for lineno, key, value in sections["tetrad"]:
            if key not in TETRAD_KEYS:
                raise MetricFileValidationError(
                    f"[tetrad] entry '{key}' is not one of "
                    + ", ".join(TETRAD_KEYS))
            parts = _split_top_level(value)
            if len(parts) != 4:
                raise MetricFileValidationError(
                    f"[tetrad] leg '{key}' must have 4 components, "
                    f"got {len(parts)}")
            comp = np.array(
                [_parse_entry_expr(p, chart, params, lineno, arena)
                 for p in parts],
                dtype=object)
            legs[key] = SymbolicTensor(comp, ("u",))
        for key in TETRAD_KEYS:
            if key not in legs:
                raise MetricFileValidationError(f"[tetrad] is missing leg '{key}'")
        tetrad = NullTetrad(legs["k"], legs["l"], legs["m_re"], legs["m_im"])

    m = MetricField(name, chart, g, params=params, tetrad=tetrad,
                    static=static, arena=arena)
    # a point's two checks in a row read one run of the arena there
    for pname, coords in points.items():
        m.check_point(pname, coords)
        if tetrad is not None:
            check = validate_tetrad(m, tetrad, coords)
            if not check.valid:
                raise InvalidTetradError(check, f"[tetrad] at point '{pname}'")
        m.points[pname] = coords
    return m


def load_metric_file(path: str) -> MetricField:
    """Load and validate a metric file; the metric is named after the
    file's stem."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_metric_text(text, name)
