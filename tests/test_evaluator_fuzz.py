"""Differential fuzzing of the evaluators against the reference interpreter.

Seeded random expression sets (1-4 roots of depth 2-6, every op and
function, shared subtrees, the constants 0, 1e-300 and 1e300) are each
built in an arena of their own and evaluated at 4 bindings, signed zeros
and 1e200 among them.  At each binding:

* the unchecked whole-arena run (``Arena.run``) names its first value
  that is not finite, and every slot below it holds the reference's
  float64 bytes, the reference finding each of those nodes in domain;
* a root at or above that slot, recomputed checked from the clean slots
  (``Arena.checked``), raises where the reference raises and otherwise
  holds its bytes;
* ``evaluate`` raises where the reference raises, with the same error
  class, and otherwise gives its bytes.

Error messages are not compared: ``evaluate`` names the first node out of
domain in slot order, the reference the first one depth first.
"""

import random

import numpy as np

from curvlab.expressions import (
    FUNCTIONS,
    Arena,
    ExprError,
    add,
    call,
    const,
    coord,
    div,
    evaluate,
    mul,
    neg,
    param,
    pow_,
    sub,
)

from conftest import reference_evaluate

SETS = 3000
BINDINGS_PER_SET = 4
CONSTANTS = (0.0, 1e-300, 1e300, 0.5, 1.0, 2.0, -1.5, 3.0)
EXPONENTS = (2.0, 3.0, -1.0, 0.5, -2.0)
VALUES = (0.0, -0.0, 1e200, -1e200, 1e-300, 0.3, -0.7, 1.0, 2.5, -4.0)
NAMES = ("t", "x", "a")         # two coordinates and a parameter
BINARY = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}


def leaf(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return const(rng.choice(CONSTANTS))
    name = rng.choice(NAMES)
    return param(name) if name == "a" else coord(name)


def tree(rng, depth, pool):
    """A random expression of at most ``depth`` levels of ops; one in
    five subtrees is a node already made for this set."""
    if depth == 0:
        return leaf(rng)
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    op = rng.choice(("neg", *BINARY, *FUNCTIONS))
    if op == "neg":
        e = neg(tree(rng, depth - 1, pool))
    elif op == "^" and rng.random() < 0.5:
        e = pow_(tree(rng, depth - 1, pool), const(rng.choice(EXPONENTS)))
    elif op in BINARY:
        e = BINARY[op](tree(rng, depth - 1, pool), tree(rng, depth - 1, pool))
    else:
        e = call(op, tree(rng, depth - 1, pool))
    pool.append(e)
    return e


def expression_set(n):
    """Set ``n``: its arena, its roots and its bindings."""
    rng = random.Random(f"evaluator-fuzz-{n}")
    pool = []
    with Arena() as arena:
        roots = [tree(rng, rng.randint(2, 6), pool)
                 for _ in range(rng.randint(1, 4))]
    bindings = [{name: rng.choice(VALUES) for name in NAMES}
                for _ in range(BINDINGS_PER_SET)]
    return arena, roots, bindings


def reference(e, bindings, memo):
    """The reference's value of ``e``, or the error it raises."""
    try:
        return reference_evaluate(e, bindings, memo)
    except ExprError as exc:
        return exc


def float_bytes(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def first_not_finite(values: np.ndarray) -> int:
    finite = np.isfinite(values)
    return len(values) if finite.all() else int(finite.argmin())


def test_unchecked_and_checked_evaluation_match_the_reference():
    cases = {"in domain": 0, "out of domain": 0, "recomputed": 0}
    ops = set()
    for n in range(SETS):
        arena, roots, all_bindings = expression_set(n)
        ops.update(e.payload or e.kind for e in arena.nodes if e.args)
        for bindings in all_bindings:
            where = (n, bindings)
            batched, clean = arena.run(bindings)
            assert len(batched) == len(arena.nodes), where
            assert clean == first_not_finite(batched), where
            memo = {}
            for e in arena.nodes[:clean]:
                want = reference(e, bindings, memo)
                assert not isinstance(want, ExprError), (where, str(e))
                assert float_bytes(batched[e.slot]) == float_bytes(want), \
                    (where, str(e))
            for root in roots:
                want = reference(root, bindings, memo)
                if isinstance(want, ExprError):
                    cases["out of domain"] += 1
                else:
                    cases["in domain"] += 1
                try:
                    got = evaluate(root, bindings)
                except ExprError as exc:
                    got = exc
                if root.slot >= clean:
                    cases["recomputed"] += 1
                    try:
                        got_checked = arena.checked(
                            batched.tolist(), clean, bindings,
                            [root.slot])[root.slot]
                    except ExprError as exc:
                        got_checked = exc
                else:
                    got_checked = batched[root.slot]
                for value in (got, got_checked):
                    if isinstance(want, ExprError):
                        assert type(value) is type(want), (where, str(root))
                    else:
                        assert not isinstance(value, ExprError), \
                            (where, str(root), value)
                        assert float_bytes(value) == float_bytes(want), \
                            (where, str(root))
    # the sets reach every op and function, and both sides of the domain
    assert ops == {"neg", *BINARY, *FUNCTIONS}
    total = sum(cases[k] for k in ("in domain", "out of domain"))
    assert cases["in domain"] > total / 5 and cases["out of domain"] > total / 5
    assert cases["recomputed"] > cases["out of domain"], cases
