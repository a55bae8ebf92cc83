"""Symbolic expression trees over chart coordinates and named parameters.

This is the scalar engine underneath every metric component: a small
immutable expression language with a recursive-descent parser, exact
differentiation, light simplification (constant folding and identity
elimination only -- correctness is defined by evaluation, not by any
canonical form), and double-precision evaluation.

Grammar (whitespace ignored between tokens)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Unary minus binds tighter than '*', and '^' binds tighter still, so
``-x^2*y`` parses as ``(-(x^2))*y``.

Nodes are hash-consed: structurally identical subtrees are the same
object, which makes identity-keyed memoisation of differentiation and
evaluation effective across large tensor component arrays.  The intern
table and the derivative memo are plain module-level dicts, filled
without a lock: the package is single-threaded, and a caller that
builds expressions from several threads must serialise the calls.

Two evaluators give the same doubles.  ``evaluate`` is the interpreter:
it walks the DAG with a memo keyed by node id and raises ``DomainError``
naming the first sub-expression that is out of domain or overflows.
``Tape`` is a field's DAG flattened once into straight-line
instructions; running it costs one call per node and no memo.  The only
caller of both in the package, ``MetricField.evaluate_field``, interprets
a field at its first point and runs its tape from the second on.  A tape
run that raises or computes any non-finite or complex value returns
``None``, and the caller interprets the field instead, so errors always
come from the interpreter.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from typing import Callable, Iterable, Mapping, Sequence


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
    """Immutable expression node.  Instances are interned, so equality is
    object identity."""

    __slots__ = ("kind", "payload", "args")

    def __init__(self, kind: str, payload, args: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "args", args)

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("Expr is immutable")

    def __repr__(self):
        return f"Expr({to_string(self)!r})"

    def __str__(self):
        return to_string(self)


_INTERN: dict[tuple, Expr] = {}


def _node(kind: str, payload, args: tuple) -> Expr:
    key = (kind, payload, *map(id, args))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Expr(kind, payload, args)
    return node


# ---------------------------------------------------------------------------
# smart constructors (fold constants, eliminate x+0 / x*1 / x*0 / x^1)
# ---------------------------------------------------------------------------

def const(value: float) -> Expr:
    return _node("const", float(value), ())


ZERO = const(0.0)
ONE = const(1.0)


def coord(name: str) -> Expr:
    return _node("coord", name, ())


def param(name: str) -> Expr:
    return _node("param", name, ())


def _is_const(e: Expr, v: float | None = None) -> bool:
    if e.kind != "const":
        return False
    return True if v is None else e.payload == v


def neg(e: Expr) -> Expr:
    if _is_const(e):
        return const(-e.payload)
    if e.kind == "neg":
        return e.args[0]
    return _node("neg", None, (e,))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.payload + b.payload)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _node("+", None, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.payload - b.payload)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _node("-", None, (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.payload * b.payload)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _node("*", None, (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.payload != 0.0:
        return const(a.payload / b.payload)
    if _is_const(b, 1.0):
        return a
    return _node("/", None, (a, b))


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        try:
            return const(a.payload ** b.payload)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return _node("^", None, (a, b))


def call(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if _is_const(arg):
        try:
            return const(FUNCTIONS[fname](arg.payload))
        except (ValueError, OverflowError):
            pass
    return _node("call", fname, (arg,))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Iterable[str], params: Iterable[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.chart = set(chart)
        self.params = set(params)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", offset)
        return self.advance()

    def parse(self) -> Expr:
        kind, _, offset = self.peek()
        if kind == "end":
            raise ParseError("empty expression", offset)
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return neg(self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "number":
            return const(float(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UndeclaredNameError(value, offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return call(value, arg)
            if value in self.chart:
                return coord(value)
            if value in self.params:
                return param(value)
            raise UndeclaredNameError(value, offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         offset)


def parse_expr(text: str, chart: Iterable[str], params: Iterable[str] = ()) -> Expr:
    """Parse ``text`` against the declared coordinate and parameter names."""
    return _Parser(text, chart, params).parse()


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_DIFF_MEMO: dict[tuple[int, str], Expr] = {}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to coordinate ``var``."""
    key = (id(e), var)
    cached = _DIFF_MEMO.get(key)
    if cached is not None:
        return cached
    kind = e.kind
    if kind in ("const", "param"):
        d = ZERO
    elif kind == "coord":
        d = ONE if e.payload == var else ZERO
    elif kind == "neg":
        d = neg(differentiate(e.args[0], var))
    elif kind == "+":
        d = add(differentiate(e.args[0], var), differentiate(e.args[1], var))
    elif kind == "-":
        d = sub(differentiate(e.args[0], var), differentiate(e.args[1], var))
    elif kind == "*":
        a, b = e.args
        d = add(mul(differentiate(a, var), b), mul(a, differentiate(b, var)))
    elif kind == "/":
        a, b = e.args
        num = sub(mul(differentiate(a, var), b), mul(a, differentiate(b, var)))
        # a zero numerator must not leave a 0/b^2 node behind: it is dead
        # weight in every higher derivative and raises where b vanishes
        d = ZERO if num is ZERO else div(num, pow_(b, const(2.0)))
    elif kind == "^":
        a, b = e.args
        da = differentiate(a, var)
        if _is_const(b):
            d = mul(mul(b, pow_(a, const(b.payload - 1.0))), da)
        else:
            db = differentiate(b, var)
            # u^w * (w' log u + w u'/u)
            d = mul(e, add(mul(db, call("log", a)), mul(b, div(da, a))))
    elif kind == "call":
        fname = e.payload
        u = e.args[0]
        du = differentiate(u, var)
        if fname == "abs":
            raise DerivativeError("abs has no derivative in this language")
        if du is ZERO:
            d = ZERO
        elif fname == "sin":
            d = mul(call("cos", u), du)
        elif fname == "cos":
            d = neg(mul(call("sin", u), du))
        elif fname == "tan":
            d = div(du, pow_(call("cos", u), const(2.0)))
        elif fname == "sinh":
            d = mul(call("cosh", u), du)
        elif fname == "cosh":
            d = mul(call("sinh", u), du)
        elif fname == "tanh":
            d = div(du, pow_(call("cosh", u), const(2.0)))
        elif fname == "exp":
            d = mul(e, du)
        elif fname == "log":
            d = div(du, u)
        else:  # sqrt
            d = div(du, mul(const(2.0), e))
    else:  # pragma: no cover
        raise ExprError(f"unknown node kind {kind!r}")
    _DIFF_MEMO[key] = d
    return d


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, bindings: Mapping[str, float],
             memo: dict[int, float] | None = None) -> float:
    """Evaluate to a double.  ``memo`` (keyed by node id) may be shared
    across calls with the same bindings to exploit subtree sharing."""
    if memo is None:
        memo = {}
    return _eval(e, bindings, memo)


def _eval(e: Expr, bindings: Mapping[str, float], memo: dict[int, float]) -> float:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kind = e.kind
    if kind == "const":
        v = e.payload
    elif kind in ("coord", "param"):
        try:
            v = float(bindings[e.payload])
        except KeyError:
            raise ExprError(f"missing binding for '{e.payload}'") from None
    elif kind == "neg":
        v = -_eval(e.args[0], bindings, memo)
    elif kind == "+":
        v = _eval(e.args[0], bindings, memo) + _eval(e.args[1], bindings, memo)
    elif kind == "-":
        v = _eval(e.args[0], bindings, memo) - _eval(e.args[1], bindings, memo)
    elif kind == "*":
        v = _eval(e.args[0], bindings, memo) * _eval(e.args[1], bindings, memo)
    elif kind == "/":
        denom = _eval(e.args[1], bindings, memo)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        v = _eval(e.args[0], bindings, memo) / denom
    elif kind == "^":
        base = _eval(e.args[0], bindings, memo)
        exponent = _eval(e.args[1], bindings, memo)
        try:
            v = base ** exponent
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"invalid power: {exc}", e) from None
        if isinstance(v, complex):
            raise DomainError("power produced a complex value", e)
    elif kind == "call":
        u = _eval(e.args[0], bindings, memo)
        fname = e.payload
        if fname == "log" and u <= 0.0:
            raise DomainError("log of a non-positive value", e)
        if fname == "sqrt" and u < 0.0:
            raise DomainError("sqrt of a negative value", e)
        try:
            v = FUNCTIONS[fname](u)
        except (ValueError, OverflowError) as exc:
            raise DomainError(str(exc), e) from None
    else:  # pragma: no cover
        raise ExprError(f"unknown node kind {kind!r}")
    if isinstance(v, float) and math.isinf(v):
        raise DomainError("overflow", e)
    memo[key] = v
    return v


# ``_eval``'s operations as callables, so that a tape computes the same
# doubles
_TAPE_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
             "*": operator.mul, "/": operator.truediv, "^": operator.pow}


class Tape:
    """The DAG below ``roots`` as straight-line code.

    Values live in one list: first the leaves (a constant's value, or the
    name of a coordinate or parameter to read from the bindings), then
    one value per inner node in topological order.  Inner node ``i``
    applies ``fns[i]`` to the values at ``a[i]`` and, for a binary node,
    ``b[i]`` (``-1`` marks a unary one).  ``outputs`` indexes the roots'
    values.
    """

    __slots__ = ("leaves", "fns", "a", "b", "outputs")

    def __init__(self, roots: Sequence[Expr]):
        # the slot of every node emitted so far: ~j for the j-th leaf and
        # i for the i-th inner node, until the leaves move in front below
        slot: dict[int, int] = {}
        leaves: list = []
        fns: list = []
        a: list[int] = []
        b: list[int | None] = []
        # iterative post-order walk: a node is emitted once all of its
        # arguments have been, however deep the expression
        stack = list(reversed(roots))
        while stack:
            node = stack[-1]
            args = node.args
            for x in args:
                if id(x) not in slot:
                    stack.append(x)
                    break
            else:
                stack.pop()
                if id(node) in slot:
                    continue
                if not args:
                    slot[id(node)] = ~len(leaves)
                    leaves.append(node.payload)
                    continue
                slot[id(node)] = len(fns)
                fns.append(FUNCTIONS[node.payload] if node.kind == "call"
                           else _TAPE_OPS[node.kind])
                a.append(slot[id(args[0])])
                b.append(slot[id(args[1])] if len(args) == 2 else None)
        n = len(leaves)
        self.leaves = leaves
        self.fns = fns
        self.a = array("i", [~i if i < 0 else i + n for i in a])
        self.b = array("i", [-1 if i is None else ~i if i < 0 else i + n
                             for i in b])
        self.outputs = array("i", [~i if i < 0 else i + n
                                   for i in (slot[id(r)] for r in roots)])

    def run(self, bindings: Mapping[str, float]) -> list[float] | None:
        """The roots' values, or ``None`` when any step raises or any
        value is non-finite or complex: the interpreter then decides
        (it raises where it should, or returns finite values where only
        an intermediate sum overflowed here)."""
        try:
            vals = [float(bindings[x]) if type(x) is str else x
                    for x in self.leaves]
            append = vals.append
            for fn, x, y in zip(self.fns, self.a, self.b):
                append(fn(vals[x]) if y < 0 else fn(vals[x], vals[y]))
        except (ArithmeticError, ValueError, TypeError, KeyError):
            return None
        # one sum sees every value: an inf, a nan or a complex anywhere
        # leaves a non-finite or complex total
        total = sum(vals)
        if type(total) is not float or not math.isfinite(total):
            return None
        return [vals[i] for i in self.outputs]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def _print(e: Expr, context: int) -> str:
    kind = e.kind
    if kind == "const":
        v = e.payload
        s = repr(v)
        if v < 0:
            return s if context <= _PREC_UNARY else f"({s})"
        return s
    if kind in ("coord", "param"):
        return e.payload
    if kind == "call":
        return f"{e.payload}({_print(e.args[0], _PREC_ADD)})"
    if kind == "neg":
        s = "-" + _print(e.args[0], _PREC_UNARY + 1)
        return s if context <= _PREC_UNARY else f"({s})"
    if kind in ("+", "-"):
        s = f"{_print(e.args[0], _PREC_ADD)} {kind} {_print(e.args[1], _PREC_ADD + 1)}"
        return s if context <= _PREC_ADD else f"({s})"
    if kind in ("*", "/"):
        s = f"{_print(e.args[0], _PREC_MUL)}{kind}{_print(e.args[1], _PREC_MUL + 1)}"
        return s if context <= _PREC_MUL else f"({s})"
    if kind == "^":
        s = f"{_print(e.args[0], _PREC_ATOM)}^{_print(e.args[1], _PREC_UNARY)}"
        return s if context <= _PREC_POW else f"({s})"
    raise ExprError(f"unknown node kind {kind!r}")  # pragma: no cover


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; ``parse_expr(to_string(e), ...)``
    evaluates equal to ``e``."""
    return _print(e, _PREC_ADD)


def free_names(e: Expr) -> set[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind in ("coord", "param"):
            out.add(node.payload)
        stack.extend(node.args)
    return out
