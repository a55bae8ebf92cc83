"""Symbolic expression trees over chart coordinates and named parameters.

This is the scalar engine underneath every metric component: a small
immutable expression language with an operator-precedence parser, exact
differentiation, light simplification (constant folding and identity
elimination only -- correctness is defined by evaluation, not by any
canonical form), and double-precision evaluation.

Grammar (whitespace ignored between tokens)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

A NUMBER is an unsigned ASCII decimal literal (``NUMBER_PATTERN``: ``2``,
``1.``, ``.5``, ``1.5e-3``); a digit of another script is an unexpected
character.

Unary minus binds tighter than '*', and '^' binds tighter still, so
``-x^2*y`` parses as ``(-(x^2))*y``.

Nodes live in arenas.  An ``Arena`` holds the nodes made while it is
open (``with arena:``), in creation order, and a node's ``slot`` is its
index there.  A constructor finds its node with one probe of the open
arena's tables -- a constant keyed by its value, a name by (kind, name),
any other node by one small int of its arguments' slots and an op code
-- and otherwise appends a new one, written through its slot setters.
Structurally identical subtrees of one arena are therefore the same
object, and the arena's derivative memo is keyed by slot, one table per
variable.  An operand from another arena raises ``ExprError``: its slot
would name a different node.  ``ZERO`` and ``ONE`` are slots 0 and 1 of
every arena, so ``e is ZERO`` holds in each.  A metric's arena lives as
long as the metric (the parser and the builders write into it); nodes
made outside every ``with`` go to the module's default arena, which
nothing in the pipeline writes to.  Nothing is locked: the package is
single-threaded, and a caller that builds expressions from several
threads must serialise the calls.

Evaluation runs straight-line code.  A node is made after its
arguments, so an arena's creation order is a topological order, and the
arena keeps each node's op code and argument slots as it appends it:
its node list is its tape.  There are two evaluators.  ``Arena.run``
computes every slot of the arena at one set of bindings, without checks,
as numpy batches: one ufunc call per (level, op) group of ``neg``, ``+``,
``-``, ``*`` and ``/``, whose results are the bits Python's operators
give, and Python's own functions for the rest.  A value out of domain is left non-finite
(or nan, where Python raises), and the run reports its first non-finite
slot.  A metric's fields share one arena, so each point makes one such
run and each field is one gather from it (``MetricField.evaluate_field``).
The checked evaluator (``Arena.checked``, ``evaluate``) computes what
some roots read, one checked step at a time in slot order, and raises
``DomainError`` naming the first sub-expression that is out of domain or
overflows.  It serves the roots that read a slot at or above a run's
first non-finite one, so a dead node out of domain raises nothing.

Parsing is one operator-precedence loop over a value stack and an
operator stack (``parse_expr``), which calls the constructors in the
order recursive descent over the grammar would.  Neither it nor
differentiation, evaluation or printing recurses over the depth of an
expression.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from typing import Callable, Iterable, Mapping

import numpy as np


class ExprError(Exception):
    """Base class for expression-engine errors."""


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UndeclaredNameError(ExprError):
    """An identifier that is neither a chart coordinate, a parameter, nor a function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"undeclared identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(ExprError):
    """Numeric evaluation hit an invalid operand (log of a non-positive
    value, division by zero, sqrt of a negative, overflow).  Carries the
    offending sub-expression."""

    def __init__(self, message: str, expression: "Expr"):
        super().__init__(f"{message} in '{to_string(expression)}'")
        self.expression = expression


class DerivativeError(ExprError):
    """Raised for expressions with no derivative in this language (abs)."""


FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

class Expr:
    """Immutable expression node.  Instances are interned in their arena,
    so equality is object identity; only the constructors below make
    them."""

    __slots__ = ("kind", "payload", "args", "slot")

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("Expr is immutable")

    def __repr__(self):
        return f"Expr({to_string(self)!r})"

    def __str__(self):
        return to_string(self)


# the slot setters write past ``Expr.__setattr__``, without an __init__ call
_set_kind, _set_payload, _set_args, _set_slot = (
    Expr.kind.__set__, Expr.payload.__set__, Expr.args.__set__,
    Expr.slot.__set__)


def _new(kind: str, payload, args: tuple, slot: int) -> Expr:
    node = object.__new__(Expr)
    _set_kind(node, kind)
    _set_payload(node, payload)
    _set_args(node, args)
    _set_slot(node, slot)
    return node


_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
        "*": operator.mul, "/": operator.truediv, "^": operator.pow}
_CODE = {op: code for code, op in enumerate((*_OPS, *FUNCTIONS), 1)}
# by op code (neg + - * /), the ops numpy rounds as Python does (each is
# correctly rounded); its power, sin, exp ... may differ in the last bit
_UFUNCS = dict(zip(range(1, 6), (np.negative, np.add, np.subtract,
                                 np.multiply, np.true_divide)))


def _instruction(e: Expr) -> Callable:
    """What computes ``e`` from its arguments' values, or, for a leaf,
    from the bindings: a constant's value, or a name's binding."""
    kind, v = e.kind, e.payload
    if not e.args:
        return (lambda b: v) if kind == "const" else (lambda b: float(b[v]))
    return FUNCTIONS[v] if kind == "call" else _OPS[kind]


ZERO = _new("const", 0.0, (), 0)
ONE = _new("const", 1.0, (), 1)

_LIVE = weakref.WeakSet()       # every arena not yet freed


class Arena:
    """The nodes one metric is made of, in creation order: its intern
    tables, its derivative memo and its tape.

    Slot ``i`` holds ``nodes[i]``, whose op code ``code[i]`` (0 for a
    leaf) applies to the values at slots ``a[i]`` and ``b[i]``, at
    ``a[i]`` alone (``b[i] == -1``), or to the bindings (a leaf,
    ``a[i] == -1``).  ``ops`` maps an op node's key to it, ``atoms`` a
    constant's value or a name's (kind, name), and ``derivs[var]`` a
    node's slot to its derivative by ``var``.  Slots 0 and 1 are ``ZERO``
    and ``ONE``.  ``a`` and ``b`` are lists that hold the argument nodes'
    own ``slot`` ints, so a run boxes no int.  ``program`` is the arena's
    length at the last build and its batched program (``_program``;
    ``None`` before the first run).  ``with arena:`` makes it the arena the
    constructors write into, until the block ends."""

    __slots__ = ("nodes", "a", "b", "code", "program", "ops",
                 "atoms", "derivs", "__weakref__")

    def __init__(self):
        self.nodes: list[Expr] = [ZERO, ONE]
        self.a: list[int] = [-1, -1]
        self.b: list[int] = [-1, -1]
        self.code = bytearray(2)
        self.program: tuple | None = None
        self.ops: dict[int, Expr] = {}
        self.atoms: dict = {0.0: ZERO, 1.0: ONE}
        self.derivs: dict[str, dict[int, Expr]] = {}
        _LIVE.add(self)

    def __enter__(self) -> Arena:
        global _arena
        _outer.append(_arena)
        _arena = self
        return self

    def __exit__(self, *exc) -> None:
        global _arena
        _arena = _outer.pop()

    def owns(self, e: Expr) -> bool:
        """Whether ``e`` is this arena's node."""
        s = e.slot
        return s < len(self.nodes) and self.nodes[s] is e

    def _append(self, kind: str, payload, args: tuple, x: int, y: int,
                code: int = 0) -> Expr:
        nodes = self.nodes
        node = _new(kind, payload, args, len(nodes))
        nodes.append(node)
        self.a.append(x)
        self.b.append(y)
        self.code.append(code)
        return node

    def run(self, bindings: Mapping[str, float]) -> tuple[np.ndarray, int]:
        """Every slot's value at ``bindings`` as one float array, unchecked,
        and the first slot whose value is not finite (the array's length
        if there is none): the slots below it are in domain.  The run goes
        through the batched program (``_program``), built again when the
        arena grew since the last one: per level the scalar steps, then
        one ufunc call per group.  A value out of domain is left
        non-finite; a scalar step that raises (a log, sqrt or power out of
        domain, a missing binding, or storing a complex power) stores nan."""
        end = len(self.nodes)
        if self.program is None or self.program[0] != end:
            self.program = self._program()
        v = np.empty(end)
        item = v.item
        with np.errstate(all="ignore"):
            for steps, groups in self.program[1]:
                for s, fn, x, y in steps:
                    try:
                        v[s] = (fn(item(x), item(y)) if y >= 0
                                else fn(item(x)) if x >= 0 else fn(bindings))
                    except (ArithmeticError, ValueError, TypeError, KeyError):
                        v[s] = math.nan
                for ufunc, out, x, y in groups:
                    v[out] = ufunc(v[x]) if y is None else ufunc(v[x], v[y])
        finite = np.isfinite(v)
        return v, end if finite.all() else int(finite.argmin())

    def _program(self) -> tuple[int, list]:
        """The arena's length and its batched program.

        A slot's level is 0 for a leaf, else one more than its arguments'
        highest.  The slots are sorted by (level, op code) with radix sorts
        of the keys' 16-bit halves (an int32 argsort adds 0.3 MB of code),
        so a level's ufunc groups (codes 1 to 5) are one span.  Per level
        the program holds the scalar steps (leaves, powers and calls), each
        with its node's instruction (``_instruction``), and its ufunc
        groups' ``intp`` output, first and second argument slots."""
        nodes, a, b = self.nodes, self.a, self.b
        end = len(nodes)
        level: list[int] = []
        append = level.append
        for x, y in zip(a, b):
            append(0 if x < 0 else 1 + (
                level[x] if y < 0 or level[x] >= level[y] else level[y]))
        keys = (np.array(level, np.int32) << 5
                | np.array(self.code, np.uint8))
        sizes = np.bincount(keys, minlength=(keys.max() | 31) + 1)
        starts = (np.cumsum(sizes) - sizes).reshape(-1, 32).tolist()
        sizes = sizes.reshape(-1, 32)
        order = np.lexsort(((keys & 0xFFFF).astype(np.uint16),
                            (keys >> 16).astype(np.uint16)))
        x = np.fromiter(a, np.intp, end)[order]
        y = np.fromiter(b, np.intp, end)[order]
        program = []
        for size, start in zip(sizes.tolist(), starts):
            first, n = start[1], sum(size[1:6])
            program.append((
                [(s, _instruction(nodes[s]), a[s], b[s])
                 for s in np.concatenate((
                     order[start[0]:first],
                     order[first + n:start[0] + sum(size)])).tolist()],
                [(f, order[i:i + k], x[i:i + k],
                  y[i:i + k] if f.nin == 2 else None) for f, i, k in zip(
                      _UFUNCS.values(), start[1:6], size[1:6]) if k]))
        return end, program

    def checked(self, values: list, clean: int,
                bindings: Mapping[str, float], roots) -> list:
        """``values``, with every slot the slots ``roots`` (an array or
        sequence of ints) read recomputed from those below ``clean``
        (``_recompute``)."""
        _recompute([self.nodes[r] for r in np.ravel(roots).tolist()],
                   values, clean, bindings)
        return values


# the open arena, and the ones to reopen as ``with`` blocks end
_arena = Arena()
_outer: list[Arena] = []


def current_arena() -> Arena:
    """The arena the constructors write into now."""
    return _arena


def table_sizes() -> tuple[int, int]:
    """The nodes and the derivative-memo entries of every live arena."""
    arenas = list(_LIVE)
    return (sum(len(arena.nodes) for arena in arenas),
            sum(len(memo) for arena in arenas
                for memo in arena.derivs.values()))


class _TableSize:
    """``len()`` reads one of ``table_sizes()``, under the names of the
    process-wide tables the arenas replaced (``perfbench/worker.py`` reads
    them)."""

    def __init__(self, index: int):
        self.index = index

    def __len__(self) -> int:
        return table_sizes()[self.index]


_INTERN, _DIFF_MEMO = _TableSize(0), _TableSize(1)


# An op node's key is one int of its arguments' slots (the second one
# plus 1, so 0 for a unary node) and its op code.  Slots name nodes only
# within one arena, so an operand must be the open arena's own node.
# Constants and names are keyed in ``atoms``: no float key meets an int.
def _node(kind: str, payload, a: Expr, b: Expr | None = None) -> Expr:
    arena = _arena
    nodes = arena.nodes
    x = a.slot
    y = -1 if b is None else b.slot
    try:
        if nodes[x] is not a or y >= 0 and nodes[y] is not b:
            raise IndexError
    except IndexError:
        raise ExprError(
            "an operand is an expression of another arena") from None
    key = (x << 32 | y + 1) << 5 | _CODE[payload or kind]
    node = arena.ops.get(key)
    if node is None:
        node = arena.ops[key] = arena._append(
            kind, payload, (a,) if b is None else (a, b), x, y, key & 31)
    return node


def _atom(kind: str, payload, key) -> Expr:
    arena = _arena
    node = arena.atoms.get(key)
    if node is None:
        node = arena.atoms[key] = arena._append(kind, payload, (), -1, -1)
    return node


# ---------------------------------------------------------------------------
# smart constructors (fold constants, eliminate x+0 / x*1 / x*0 / x^1)
# ---------------------------------------------------------------------------

def const(value: float) -> Expr:
    value = float(value)
    return _atom("const", value, value)


def coord(name: str) -> Expr:
    return _atom("coord", name, ("coord", name))


def param(name: str) -> Expr:
    return _atom("param", name, ("param", name))


def neg(e: Expr) -> Expr:
    if e.kind == "const":
        return const(-e.payload)
    if e.kind == "neg":
        return e.args[0]
    return _node("neg", None, e)


# Equal constants are one node, so a constant 0 or 1 is ZERO or ONE.
# A fold makes a constant only of a finite float.  One that overflows,
# meets a nan or leaves the reals builds its node instead, so evaluation
# names the sub-expression at fault (a literal such as 1e400 is still a
# constant, and raises when evaluated).  A payload is a float, so only a
# power can fold to another type.

def add(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const" \
            and math.isfinite(v := a.payload + b.payload):
        return const(v)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return _node("+", None, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const" \
            and math.isfinite(v := a.payload - b.payload):
        return const(v)
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    return _node("-", None, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const" \
            and math.isfinite(v := a.payload * b.payload):
        return const(v)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    return _node("*", None, a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const" and b is not ZERO \
            and math.isfinite(v := a.payload / b.payload):
        return const(v)
    if b is ONE:
        return a
    return _node("/", None, a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if b is ONE:
        return a
    if a.kind == b.kind == "const":
        try:
            v = a.payload ** b.payload
            if type(v) is float and math.isfinite(v):
                return const(v)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return _node("^", None, a, b)


def call(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if arg.kind == "const":
        try:
            if math.isfinite(v := FUNCTIONS[fname](arg.payload)):
                return const(v)
        except (ValueError, OverflowError):
            pass
    return _node("call", fname, arg)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# an unsigned ASCII decimal literal: float() alone would also read "1_0",
# "inf" and the digits of other scripts
NUMBER_PATTERN = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# any non-space character that starts no token is "bad", so each match
# begins where the last one ended, and only trailing whitespace is left
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<number>{NUMBER_PATTERN})"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples in one scan, ending in ``("end", "",
    len(text))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}",
                             m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


# binary operators: (precedence, constructor); unary minus binds between
# '*' and '^', and a '(' waiting on the operator stack has precedence 0
_BINARY = {"+": (1, add), "-": (1, sub), "*": (2, mul), "/": (2, div),
           "^": (4, pow_)}
_NEG = (3, neg)


def parse_expr(text: str, chart: Iterable[str], params: Iterable[str] = ()) -> Expr:
    """Parse ``text`` against the declared coordinate and parameter names,
    into the open arena.

    One operator-precedence loop over a value stack and an operator stack
    that expects an operand or an operator in turn.  A pending operator
    runs when an operator of lower or equal precedence (lower only for
    the right-associative '^'), a ')' or the end arrives: when recursive
    descent would return from its rule, so the constructors run in the
    same order.  A function's '(' waits on the stack as its name, and
    its ')' makes the call."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", tokens[0][2])
    chart, params = set(chart), set(params)
    values: list[Expr] = []
    ops: list[tuple] = []       # (precedence, constructor or function name)

    def run(floor: int) -> None:
        while ops and ops[-1][0] >= floor:
            fn = ops.pop()[1]
            if fn is neg:
                values[-1] = neg(values[-1])
            else:
                b = values.pop()
                values[-1] = fn(values[-1], b)

    operand, i = True, 0
    while True:
        kind, value, offset = tokens[i]
        i += 1
        if not operand:
            if kind == "op" and value in _BINARY:
                prec, fn = _BINARY[value]
                run(prec + (value == "^"))
                ops.append((prec, fn))
                operand = True
                continue
            run(1)
            if not ops:
                if kind == "end":
                    return values[0]
                raise ParseError(f"unexpected trailing input {value!r}",
                                 offset)
            if value != ")":
                raise ParseError("expected ')'", offset)
            fname = ops.pop()[1]
            if fname is not None:
                values[-1] = call(fname, values[-1])
        elif value == "-" and not (ops and ops[-1] is _NEG):
            ops.append(_NEG)        # a factor's one leading minus
        elif value == "(":
            ops.append((0, None))
        elif kind == "ident" and tokens[i][1] == "(":
            if value not in FUNCTIONS:
                raise UndeclaredNameError(value, offset)
            ops.append((0, value))
            i += 1
        else:
            if kind == "number":
                values.append(const(float(value)))
            elif kind == "ident" and value in chart:
                values.append(coord(value))
            elif kind == "ident" and value in params:
                values.append(param(value))
            elif kind == "ident":
                raise UndeclaredNameError(value, offset)
            else:
                raise ParseError(f"unexpected {value!r}" if value
                                 else "unexpected end of input", offset)
            operand = False


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to coordinate ``var``, made
    in the open arena, which must hold ``e``."""
    arena = _arena
    if not arena.owns(e):
        raise ExprError("the expression to differentiate is of another arena")
    memo = arena.derivs.get(var)
    if memo is None:
        memo = arena.derivs[var] = {}
    get = memo.get
    d = get(e.slot)
    if d is not None:
        return d
    # iterative post-order walk: a node is differentiated once the
    # derivatives it reads are in the memo, however deep the expression;
    # only missing ones are pushed, so no node is on the stack twice
    stack = [e]
    while stack:
        node = stack[-1]
        args = node.args
        da = db = None
        if args:
            a, b = args[0], args[-1]
            da = get(a.slot)
            if da is None:
                stack.append(a)
                continue
            if b is a or node.kind == "^" and b.kind == "const":
                db = da     # a constant exponent's derivative is not read
            else:
                db = get(b.slot)
                if db is None:
                    stack.append(b)
                    continue
        stack.pop()
        d = memo[node.slot] = _derivative(node, var, da, db)
    return d


def _derivative(e: Expr, var: str, da: Expr, db: Expr) -> Expr:
    """The derivative of ``e``, given ``da`` and ``db``, those of its first
    and last arguments."""
    kind = e.kind
    if not e.args:
        return ONE if kind == "coord" and e.payload == var else ZERO
    a, b = e.args[0], e.args[-1]        # b is a for a unary node
    if kind == "neg":
        return neg(da)
    if kind == "+":
        return add(da, db)
    if kind == "-":
        return sub(da, db)
    if kind == "*":
        return add(mul(da, b), mul(a, db))
    if kind == "/":
        num = sub(mul(da, b), mul(a, db))
        # a zero numerator must not leave a 0/b^2 node behind: it is dead
        # weight in every higher derivative and raises where b vanishes
        return ZERO if num is ZERO else div(num, pow_(b, const(2.0)))
    if kind == "^":
        if b.kind == "const":
            return mul(mul(b, pow_(a, const(b.payload - 1.0))), da)
        # u^w * (w' log u + w u'/u)
        return mul(e, add(mul(db, call("log", a)), mul(b, div(da, a))))
    if e.payload == "abs":
        raise DerivativeError("abs has no derivative in this language")
    return ZERO if da is ZERO else _CHAIN[e.payload](a, e, da)


# f(u)' = f'(u) u', from u, f(u) and u'
_CHAIN = {
    "sin": lambda u, f, du: mul(call("cos", u), du),
    "cos": lambda u, f, du: neg(mul(call("sin", u), du)),
    "tan": lambda u, f, du: div(du, pow_(call("cos", u), const(2.0))),
    "sinh": lambda u, f, du: mul(call("cosh", u), du),
    "cosh": lambda u, f, du: mul(call("sinh", u), du),
    "tanh": lambda u, f, du: div(du, pow_(call("cosh", u), const(2.0))),
    "exp": lambda u, f, du: mul(f, du),
    "log": lambda u, f, du: div(du, u),
    "sqrt": lambda u, f, du: div(du, mul(const(2.0), f)),
}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _step(e: Expr, args: list, bindings: Mapping[str, float]) -> float:
    """The value of node ``e`` from its arguments' values ``args``, or the
    error putting it out of domain."""
    kind, name = e.kind, e.payload
    fn = _instruction(e)
    if kind == "/" and args[1] == 0.0:
        raise DomainError("division by zero", e)
    if kind == "call" and name == "log" and args[0] <= 0.0:
        raise DomainError("log of a non-positive value", e)
    if kind == "call" and name == "sqrt" and args[0] < 0.0:
        raise DomainError("sqrt of a negative value", e)
    try:
        v = fn(*args) if args else fn(bindings)
    except KeyError:
        raise ExprError(f"missing binding for '{name}'") from None
    except OverflowError:
        raise DomainError("overflow", e) from None
    except (ValueError, ZeroDivisionError) as exc:
        message = f"invalid power: {exc}" if kind == "^" else str(exc)
        raise DomainError(message, e) from None
    if isinstance(v, complex):
        raise DomainError("power produced a complex value", e)
    if isinstance(v, float) and math.isinf(v):
        raise DomainError("overflow", e)
    return v


def _recompute(roots: list[Expr], values, clean: int,
               bindings: Mapping[str, float]) -> None:
    """Write in ``values`` (indexed by slot) the value of every node at a
    slot from ``clean`` up that ``roots`` read, in slot order, from the
    values below ``clean``, one checked step at a time; raises at the
    first node out of domain."""
    cone, stack = {}, [r for r in roots if r.slot >= clean]
    while stack:
        node = stack.pop()
        if node.slot not in cone:
            cone[node.slot] = node
            stack += (x for x in node.args if x.slot >= clean)
    for s in sorted(cone):
        node = cone[s]
        values[s] = _step(node, [values[x.slot] for x in node.args], bindings)


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate to a double, one checked step per node of ``e`` in slot
    order; raises ``DomainError`` naming the first sub-expression out of
    domain."""
    values: dict[int, float] = {}
    _recompute([e], values, 0, bindings)
    return values[e.slot]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def _pieces(e: Expr, context: int) -> list:
    """``e`` printed in a context of precedence ``context``: strings, and
    (argument, context) pairs to print in their places."""
    kind, args = e.kind, e.args
    if kind == "const":
        parts = [repr(e.payload)]
        prec = _PREC_UNARY if e.payload < 0 else _PREC_ATOM
    elif kind in ("coord", "param"):
        parts, prec = [e.payload], _PREC_ATOM
    elif kind == "call":
        parts, prec = [f"{e.payload}(", (args[0], _PREC_ADD), ")"], _PREC_ATOM
    elif kind == "neg":
        parts, prec = ["-", (args[0], _PREC_UNARY + 1)], _PREC_UNARY
    elif kind == "^":
        parts = [(args[0], _PREC_ATOM), "^", (args[1], _PREC_UNARY)]
        prec = _PREC_POW
    else:
        prec = _PREC_ADD if kind in "+-" else _PREC_MUL
        text = f" {kind} " if prec == _PREC_ADD else kind
        parts = [(args[0], prec), text, (args[1], prec + 1)]
    return parts if context <= prec else ["(", *parts, ")"]


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; ``parse_expr(to_string(e), ...)``
    evaluates equal to ``e``."""
    out: list[str] = []
    stack: list = [(e, _PREC_ADD)]     # what is left to print, last first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(*item)))
    return "".join(out)

