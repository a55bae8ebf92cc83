"""Differential fuzzing of ``parse_expr`` against a recursive-descent
reference (``conftest.reference_parse``).

Seeded random texts of the grammar use every operator and function,
unary minus at the start, after '(', after '*' and after '^', the chart
coordinates, the parameters and the constants 0, 1, 1e400 and 1e-300.
Each text then takes 1-3 mutations: a stray ')', a '$', a '--', a
'foo(' inserted, or a character deleted.  Each parser reads it into a
fresh arena, and either both raise the same error class with the same
message, offset and name, or both return the same slot and build the
same nodes in the same order: equal kinds, payloads and argument slots.
"""

import random
import re
from collections import Counter

from curvlab.expressions import (FUNCTIONS, Arena, ExprError, ParseError,
                                 UndeclaredNameError, parse_expr)

from conftest import reference_parse

TEXTS = 16000
CHART = ("t", "r", "theta", "phi")
PARAMS = ("M", "a")
CONSTANTS = ("0", "1", "1e400", "1e-300", "2", "0.5", "3.", ".25", "2E1")
MUTATIONS = (")", "$", "--", "foo(", "")       # "" deletes a character


def space(rng):
    return " " if rng.random() < 0.3 else ""


def expr(rng, depth):
    """``expr := term (('+' | '-') term)*``, at most ``depth`` levels of
    parentheses deep."""
    out = term(rng, depth)
    while rng.random() < 0.2:
        out += space(rng) + rng.choice("+-") + space(rng) + term(rng, depth)
    return out


def term(rng, depth):
    out = factor(rng, depth)
    while rng.random() < 0.2:
        out += space(rng) + rng.choice("*/") + space(rng) + factor(rng, depth)
    return out


def factor(rng, depth):
    return ("-" + space(rng) if rng.random() < 0.25 else "") + power(rng, depth)


def power(rng, depth):
    out = atom(rng, depth)
    if rng.random() < 0.2:
        out += space(rng) + "^" + space(rng) + factor(rng, depth)
    return out


def atom(rng, depth):
    pick = rng.random()
    if depth > 0 and pick < 0.15:
        return "(" + expr(rng, depth - 1) + ")"
    if depth > 0 and pick < 0.3:
        return rng.choice(sorted(FUNCTIONS)) + "(" + expr(rng, depth - 1) + ")"
    if pick < 0.6:
        return rng.choice(CONSTANTS)
    return rng.choice(CHART + PARAMS)


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        insert = rng.choice(MUTATIONS)
        text = text[:at] + insert + text[at + (not insert):]
    return text


def outcome(text):
    """What ``parse_expr`` and the reference make of ``text``, each in a
    fresh arena: the error's class, message, offset and name, or the
    root's slot and every node as (kind, payload, argument slots)."""
    results = []
    for parse in (parse_expr, reference_parse):
        with Arena() as arena:
            try:
                root = parse(text, CHART, PARAMS)
            except ExprError as exc:
                results.append((type(exc), str(exc), exc.offset,
                                getattr(exc, "name", None)))
                continue
            results.append((root.slot, [
                (e.kind, e.payload, tuple(x.slot for x in e.args))
                for e in arena.nodes]))
    return results


def test_parse_expr_is_the_recursive_descent_reference():
    rng = random.Random(2022)
    valid, errors = [], Counter()
    for _ in range(TEXTS // 2):
        grammatical = expr(rng, 2)
        for text in (grammatical, mutate(rng, grammatical)):
            ours, reference = outcome(text)
            assert ours == reference, text
            if isinstance(ours[0], int):
                valid.append(text)
            else:
                errors[ours[0]] += 1
    # the texts reach both errors and, among the valid ones, every
    # operator, function, name and place of a unary minus
    assert len(valid) > 0.45 * TEXTS
    assert min(errors[ParseError], errors[UndeclaredNameError]) > 0.05 * TEXTS
    lines = "\n".join(valid)
    for op in "+*/^":
        assert op in lines, op
    for name in ("1e400", "1e-300", *FUNCTIONS, *CHART, *PARAMS):
        assert re.search(rf"\b{name}\b", lines), name
    for place in (r"^\s*-", r"\(\s*-", r"\*\s*-", r"\^\s*-", r"\w\s*-"):
        assert re.search(place, lines, re.M), place
