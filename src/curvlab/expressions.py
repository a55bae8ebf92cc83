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
object, which makes identity-keyed memoisation of differentiation, and
one tape slot per distinct node, effective across large tensor
component arrays.  A constructor finds a node with one probe of the
intern table: a constant is keyed by its value, a name by (kind, name),
any other node by one int of its arguments' ids and an op code, not a
tuple; a new node is written through its slot setters, not __init__.
The intern table and the derivative memo are plain module-level dicts,
filled without a lock: the package is single-threaded, and a caller
that builds expressions from several threads must serialise the calls.

Evaluation runs straight-line code.  A ``Tape`` holds a growing DAG,
one instruction per node, and one list of values in slot order serves
every root on it at one set of bindings: a metric's fields share one
tape, and each point one value list (``MetricField.evaluate_field``).
``Tape.run`` extends the list without checks; where that may have met a
value out of domain, ``Tape.checked`` recomputes what the roots asked
for read, one checked step at a time, and raises ``DomainError`` naming
the first sub-expression that is out of domain or overflows.
``evaluate`` does the same for one expression.  Only the parser
recurses over the depth of an expression.
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
    object identity; only the constructors below make them."""

    __slots__ = ("kind", "payload", "args")

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("Expr is immutable")

    def __repr__(self):
        return f"Expr({to_string(self)!r})"

    def __str__(self):
        return to_string(self)


# the slot setters write past ``Expr.__setattr__``, without an __init__ call
_set_kind, _set_payload, _set_args = (
    Expr.kind.__set__, Expr.payload.__set__, Expr.args.__set__)


def _new(kind: str, payload, args: tuple) -> Expr:
    node = object.__new__(Expr)
    _set_kind(node, kind)
    _set_payload(node, payload)
    _set_args(node, args)
    return node


# An op node's key, with b = None for a unary one: interned nodes live as
# long as the process, so ids are never reused; and with the code in the
# low bits and an id above bit 64, the int has more significant bits than
# a float holds, so no constant's key (its value) equals it.
_INTERN: dict = {}
_CODE = {op: code for code, op in enumerate(
    ("+", "-", "*", "/", "^", "neg", *FUNCTIONS), 1)}


def _node(kind: str, payload, a: Expr, b: Expr | None = None) -> Expr:
    key = (id(a) << 64 | id(b)) << 5 | _CODE[payload or kind]
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = _new(kind, payload, (a,) if b is None else (a, b))
    return node


def _atom(kind: str, payload, key) -> Expr:
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = _new(kind, payload, ())
    return node


# ---------------------------------------------------------------------------
# smart constructors (fold constants, eliminate x+0 / x*1 / x*0 / x^1)
# ---------------------------------------------------------------------------

def const(value: float) -> Expr:
    value = float(value)
    return _atom("const", value, value)


ZERO = const(0.0)
ONE = const(1.0)


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

def add(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const":
        return const(a.payload + b.payload)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return _node("+", None, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const":
        return const(a.payload - b.payload)
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    return _node("-", None, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const":
        return const(a.payload * b.payload)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    return _node("*", None, a, b)


def div(a: Expr, b: Expr) -> Expr:
    if a.kind == b.kind == "const" and b is not ZERO:
        return const(a.payload / b.payload)
    if b is ONE:
        return a
    return _node("/", None, a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if b is ONE:
        return a
    if a.kind == b.kind == "const":
        try:
            return const(a.payload ** b.payload)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return _node("^", None, a, b)


def call(fname: str, arg: Expr) -> Expr:
    if fname not in FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    if arg.kind == "const":
        try:
            return const(FUNCTIONS[fname](arg.payload))
        except (ValueError, OverflowError):
            pass
    return _node("call", fname, arg)


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
    memo = _DIFF_MEMO
    get = memo.get
    d = get((id(e), var))
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
            da = get((id(a), var))
            if da is None:
                stack.append(a)
                continue
            if b is a or node.kind == "^" and b.kind == "const":
                db = da     # a constant exponent's derivative is not read
            else:
                db = get((id(b), var))
                if db is None:
                    stack.append(b)
                    continue
        stack.pop()
        d = memo[id(node), var] = _derivative(node, var, da, db)
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

_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
        "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _leaf(e: Expr) -> Callable:
    """A leaf's instruction: a constant's value, or a name's binding."""
    v = e.payload
    return (lambda b: v) if e.kind == "const" else (lambda b: float(b[v]))


class Tape:
    """A growing expression DAG as straight-line code, one slot per node.

    ``add`` appends the nodes below its roots not on the tape yet, in
    topological order, so a node shared by roots added together or apart
    has one slot.  Slot ``i`` applies ``fns[i]`` to the values at slots
    ``a[i]`` and ``b[i]``, at ``a[i]`` alone (``b[i] == -1``), or to the
    bindings (a leaf, ``a[i] == -1``)."""

    __slots__ = ("nodes", "slot", "fns", "a", "b")

    def __init__(self):
        self.nodes: list[Expr] = []     # keeps the ids keying ``slot`` alive
        self.slot: dict[int, int] = {}
        self.fns: list[Callable] = []
        self.a = array("i")
        self.b = array("i")

    def add(self, roots: Sequence[Expr]) -> array:
        """The roots' slots, after appending the nodes not on the tape."""
        slot, nodes, fns, xs, ys = self.slot, self.nodes, self.fns, self.a, self.b
        get = slot.get
        for root in roots:
            if id(root) in slot:
                continue
            # iterative post-order walk: a node is appended once all of
            # its arguments are on the tape, however deep the expression;
            # only nodes off it are pushed, so none is on the stack twice
            stack = [root]
            while stack:
                node = stack[-1]
                args = node.args
                x = y = -1
                if args:
                    x = get(id(args[0]))
                    if x is None:
                        stack.append(args[0])
                        continue
                    if len(args) == 2:
                        y = get(id(args[1]))
                        if y is None:
                            stack.append(args[1])
                            continue
                stack.pop()
                slot[id(node)] = len(nodes)
                nodes.append(node)
                fns.append(_leaf(node) if not args else FUNCTIONS[node.payload]
                           if node.kind == "call" else _OPS[node.kind])
                xs.append(x)
                ys.append(y)
        return array("i", [slot[id(r)] for r in roots])

    def run(self, values: list, bindings: Mapping[str, float],
            roots: Sequence[int], end: int) -> list:
        """The values at the slots ``roots``, all below ``end``, after an
        unchecked run of the slots from ``len(values)`` up to ``end``.  If
        that may have met a value out of domain, the roots are recomputed
        checked and the run is dropped: ``values`` stays all in domain."""
        start = len(values)
        append = values.append
        try:
            for fn, x, y in zip(self.fns[start:end], self.a[start:end],
                                self.b[start:end]):
                append(fn(values[x], values[y]) if y >= 0
                       else fn(values[x]) if x >= 0 else fn(bindings))
        except (ArithmeticError, ValueError, TypeError, KeyError):
            values.extend([math.nan] * (end - len(values)))
        else:
            # one sum sees every new value: an inf, a nan or a complex
            # anywhere leaves a non-finite or complex total
            total = sum(values[start:end], 0.0)
            if type(total) is float and math.isfinite(total):
                return [values[r] for r in roots]
        try:
            return self.checked(values, start, bindings, roots)
        finally:
            del values[start:]

    def checked(self, values: list, clean: int,
                bindings: Mapping[str, float], roots: Sequence[int]) -> list:
        """The values at the slots ``roots``, recomputed in ``values`` in
        slot order from those below ``clean``, one checked step at a time;
        raises at the first node out of domain that the roots read."""
        a, b = self.a, self.b
        cone, stack = set(), [r for r in roots if r >= clean]
        while stack:
            s = stack.pop()
            if s not in cone:
                cone.add(s)
                stack += (t for t in (a[s], b[s]) if t >= clean)
        for s in sorted(cone):
            args = [values[t] for t in (a[s], b[s]) if t >= 0]
            values[s] = _step(self.nodes[s], self.fns[s], args, bindings)
        return [values[r] for r in roots]


def _step(e: Expr, fn: Callable, args: list,
          bindings: Mapping[str, float]) -> float:
    """``fn``'s value for node ``e``, or the error putting it out of domain."""
    kind, name = e.kind, e.payload
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
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        message = f"invalid power: {exc}" if kind == "^" else str(exc)
        raise DomainError(message, e) from None
    if isinstance(v, complex):
        raise DomainError("power produced a complex value", e)
    if isinstance(v, float) and math.isinf(v):
        raise DomainError("overflow", e)
    return v


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate to a double, on a tape of its own; raises ``DomainError``
    naming the first sub-expression out of domain."""
    tape = Tape()
    return tape.run([], bindings, tape.add([e]), len(tape.nodes))[0]


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


def free_names(e: Expr) -> set[str]:
    """The coordinate and parameter names ``e`` reads, each node once."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.kind in ("coord", "param"):
                out.add(node.payload)
            stack.extend(node.args)
    return out
