"""Closed-form scalar expressions in (x, y, t, u) with exact u-derivatives.

Coefficients and nonlinearities are kept as small expression trees rather
than tabulated samples so that derivatives of any order can be formed
symbolically and then computed on numpy arrays.  The grammar is plain
infix arithmetic with ``^`` for powers, function-call syntax for the
supported functions, and ``pi`` as the only named constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIABLES = ("x", "y", "t", "u")
FUNCTIONS = ("sin", "cos", "exp", "ln", "tanh", "abs")


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the real domain (ln of a nonpositive value, division
    by zero).  ``offset`` locates the offending operator in the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (expression byte offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST nodes.  Every node records the byte offset it came from so evaluation
# failures can point back into the source string.


@dataclass(frozen=True)
class Node:
    offset: int

    def ev(self, env):  # pragma: no cover - abstract
        raise NotImplementedError

    def diff(self, var: str) -> "Node":  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def ev(self, env):
        return self.value

    def diff(self, var):
        return Const(self.offset, 0.0)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def ev(self, env):
        return env[self.name]

    def diff(self, var):
        return Const(self.offset, 1.0 if var == self.name else 0.0)


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def ev(self, env):
        return -self.arg.ev(env)

    def diff(self, var):
        return _neg(self.offset, self.arg.diff(var))


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def ev(self, env):
        a = self.left.ev(env)
        b = self.right.ev(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0):
                raise DomainError("division by zero", self.offset)
            return a / b
        # power: integer constant exponents stay exact, everything else goes
        # through exp/ln semantics with the usual real-domain restriction
        if isinstance(self.right, Const):
            e = self.right.value
            if float(e).is_integer():
                if e < 0 and np.any(np.asarray(a) == 0):
                    raise DomainError("zero raised to negative power", self.offset)
                return np.power(a, e) if not np.isscalar(a) else a**e
        with np.errstate(invalid="ignore"):
            out = np.power(a, b)
        if np.any(~np.isfinite(np.asarray(out, dtype=float))):
            raise DomainError("power left the real domain", self.offset)
        return out

    def diff(self, var):
        o = self.offset
        da, db = self.left.diff(var), self.right.diff(var)
        a, b = self.left, self.right
        if self.op == "+":
            return _add(o, da, db)
        if self.op == "-":
            return _sub(o, da, db)
        if self.op == "*":
            return _add(o, _mul(o, da, b), _mul(o, a, db))
        if self.op == "/":
            num = _sub(o, _mul(o, da, b), _mul(o, a, db))
            return _div(o, num, _mul(o, b, b))
        # d(a^b): constant exponent uses the power rule, otherwise
        # a^b * (db*ln a + b*da/a)
        if isinstance(b, Const):
            c = b.value
            if c == 0.0:
                return Const(o, 0.0)
            return _mul(o, _mul(o, Const(o, c), _pow(o, a, Const(o, c - 1.0))), da)
        term = _add(o, _mul(o, db, Call(o, "ln", a)), _div(o, _mul(o, b, da), a))
        return _mul(o, self, term)


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node

    def ev(self, env):
        v = self.arg.ev(env)
        if self.func == "sin":
            return np.sin(v)
        if self.func == "cos":
            return np.cos(v)
        if self.func == "exp":
            return np.exp(v)
        if self.func == "tanh":
            return np.tanh(v)
        if self.func == "abs":
            return np.abs(v)
        # ln
        if np.any(np.asarray(v) <= 0):
            raise DomainError("ln of a nonpositive value", self.offset)
        return np.log(v)

    def diff(self, var):
        o = self.offset
        da = self.arg.diff(var)
        a = self.arg
        if self.func == "sin":
            inner = Call(o, "cos", a)
        elif self.func == "cos":
            inner = _neg(o, Call(o, "sin", a))
        elif self.func == "exp":
            inner = self
        elif self.func == "ln":
            inner = _div(o, Const(o, 1.0), a)
        elif self.func == "tanh":
            inner = _sub(o, Const(o, 1.0), _mul(o, self, self))
        else:  # abs; derivative taken as sign, 0 at the kink
            inner = Sign(o, a)
        return _mul(o, inner, da)


@dataclass(frozen=True)
class Sign(Node):
    arg: Node

    def ev(self, env):
        return np.sign(self.arg.ev(env))

    def diff(self, var):
        return Const(self.offset, 0.0)


# -- constructors with constant folding; keeps repeated differentiation from
#    blowing the tree up.


def _is_const(n: Node, v=None) -> bool:
    return isinstance(n, Const) and (v is None or n.value == v)


def _add(o, a, b):
    if _is_const(a) and _is_const(b):
        return Const(o, a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp(o, "+", a, b)


def _sub(o, a, b):
    if _is_const(a) and _is_const(b):
        return Const(o, a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(o, b)
    return BinOp(o, "-", a, b)


def _neg(o, a):
    if _is_const(a):
        return Const(o, -a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(o, a)


def _mul(o, a, b):
    if _is_const(a) and _is_const(b):
        return Const(o, a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(o, 0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp(o, "*", a, b)


def _div(o, a, b):
    if _is_const(a, 0.0):
        return Const(o, 0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp(o, "/", a, b)


def _pow(o, a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(o, 1.0)
    return BinOp(o, "^", a, b)


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser.


_TOKEN_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (
                text[j].isdigit()
                or text[j] == "."
                or (text[j] in "eE" and not seen_e)
                or (text[j] in "+-" and j > i and text[j - 1] in "eE")
            ):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad numeric literal {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, off = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", off)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                node = BinOp(off, value, node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.unary()
                node = BinOp(off, value, node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, value, off = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(off, self.unary())
        if kind == "op" and value == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, off = self.peek()
        if kind == "op" and value == "^":
            self.take()
            # right-associative
            return BinOp(off, "^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, value, off = self.take()
        if kind == "num":
            return Const(off, value)
        if kind == "name":
            if value == "pi":
                return Const(off, math.pi)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(off, value, arg)
            if value in VARIABLES:
                return Var(off, value)
            raise ParseError(f"unknown name {value!r}", off)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", off)


def parse(text: str) -> Node:
    """Parse an expression string into a tree; raises ParseError with the
    byte offset of the first fault."""
    return _Parser(text).parse()


def mentions(node: Node, name: str) -> bool:
    """Whether variable ``name`` occurs anywhere in the tree."""
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Neg):
        return mentions(node.arg, name)
    if isinstance(node, BinOp):
        return mentions(node.left, name) or mentions(node.right, name)
    if isinstance(node, (Call, Sign)):
        return mentions(node.arg, name)
    return False


class Expression:
    """Parsed expression with cached u-derivatives of any order."""

    def __init__(self, source, root: Node | None = None):
        if root is None:
            self.source = source
            self.root = parse(source)
        else:
            self.source = source
            self.root = root
        self._du_cache: dict[tuple[str, int], Node] = {}

    @classmethod
    def constant(cls, value: float) -> "Expression":
        return cls(repr(float(value)), Const(0, float(value)))

    def derivative_root(self, var: str, order: int = 1) -> Node:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        node = self._du_cache.get((var, order))
        if node is None:
            node = self.root
            for k in range(1, order + 1):
                cached = self._du_cache.get((var, k))
                node = cached if cached is not None else node.diff(var)
                self._du_cache[(var, k)] = node
            self._du_cache[(var, order)] = node
        return node

    def __call__(self, x=0.0, y=0.0, t=0.0, u=0.0, var: str = "u", order: int = 0):
        """Evaluate the order-th derivative (in ``var``) at broadcastable
        numpy arguments."""
        env = {"x": x, "y": y, "t": t, "u": u}
        return self.derivative_root(var, order).ev(env) if order else self.root.ev(env)

    def uses(self, name: str) -> bool:
        return mentions(self.root, name)

    def __str__(self):
        return self.source

    def __repr__(self):
        return f"Expression({self.source!r})"
