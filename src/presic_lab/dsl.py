"""Small arithmetic expression language for user-defined operators and metrics.

Grammar (EBNF), whitespace-insensitive::

    expression = term , { ("+" | "-") , term } ;
    term       = unary , { ("*" | "/") , unary } ;
    unary      = "-" , unary | power ;
    power      = atom , [ "^" , unary ] ;            (* right-associative *)
    atom       = number | variable | call | "(" , expression , ")" ;
    call       = ("abs"|"min"|"max"|"sqrt"|"exp"|"log") , "(" , expression ,
                 { "," , expression } , ")" ;

``^`` binds tighter than unary minus, so ``-x1^2`` parses as ``-(x1^2)``.
Variables are context-dependent: ``x1..xk`` for operator bodies, ``u1..um``
and ``v1..vm`` for custom metrics, ``t`` for gauge functions.

Evaluation is IEEE double precision and vectorizes over numpy arrays bound
in the environment. Undefined operations (division by zero, log of a
non-positive value, sqrt of a negative) raise NumericEvalError instead of
propagating NaN; on a batch it names the first offending row.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericEvalError, UsageError


class DslSyntaxError(UsageError):
    """Parse failure, carrying 1-based line and column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_FUNCTIONS = {"abs": 1, "sqrt": 1, "exp": 1, "log": 1, "min": None, "max": None}

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_PUNCTUATION = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen", ",": "comma"}


# --- AST -------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""

    @functools.cached_property
    def closure(self):
        """This tree as nested Python closures, one function env -> value,
        built on the first evaluation and reused by every later one."""
        return _closure(self)

    def __reduce__(self):  # pickle the fields, not the closure, which cannot be
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


# --- tokenizer -------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    line: int
    column: int


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            i += 1
            continue
        number = _NUMBER_RE.match(source, i)
        if number:
            kind, text = "num", number.group(0)
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind, text = "ident", source[i:j]
        elif ch in _PUNCTUATION:
            kind, text = _PUNCTUATION[ch], ch
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(kind, text, line, col))
        col += len(text)
        i += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise DslSyntaxError(message, tok.line, tok.column)

    def parse_left_associative(self, ops, parse_operand):
        node = parse_operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            node = BinOp(self.advance().text, node, parse_operand())
        return node

    def parse_expression(self):
        return self.parse_left_associative("+-", self.parse_term)

    def parse_term(self):
        return self.parse_left_associative("*/", self.parse_unary)

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expression()
            if self.peek().kind != "rparen":
                self.fail("expected ')'")
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTIONS:
                if self.peek().kind != "lparen":
                    self.fail(f"function {tok.text!r} requires arguments")
                self.advance()
                args = [self.parse_expression()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.parse_expression())
                if self.peek().kind != "rparen":
                    self.fail("expected ')'")
                self.advance()
                arity = _FUNCTIONS[tok.text]
                if arity is not None and len(args) != arity:
                    self.fail(f"{tok.text} takes {arity} argument(s), got {len(args)}", tok)
                if arity is None and len(args) < 2:
                    self.fail(f"{tok.text} takes at least 2 arguments", tok)
                return Call(tok.text, tuple(args))
            if tok.text in self.variables:
                return Var(tok.text)
            self.fail(f"unknown identifier {tok.text!r}", tok)
        if tok.kind == "end":
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {tok.text!r}")


def operator_variables(arity):
    """Variable names available in an operator body of the given arity."""
    return [f"x{i}" for i in range(1, arity + 1)]


def metric_variables(dimension):
    """Variable names available in a custom metric of the given dimension."""
    return [f"u{i}" for i in range(1, dimension + 1)] + \
           [f"v{i}" for i in range(1, dimension + 1)]


def parse(source, variables):
    """Parse ``source`` into an Expr; ``variables`` lists the legal names."""
    if not source or not source.strip():
        raise UsageError("empty expression")
    tokens = _tokenize(source)
    parser = _Parser(tokens, variables)
    node = parser.parse_expression()
    if parser.peek().kind != "end":
        parser.fail(f"trailing input {parser.peek().text!r}")
    return node


# --- evaluation ------------------------------------------------------------

def _fail(message, bad):
    """Raise NumericEvalError, naming the first row of `bad` that holds a True."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        raise NumericEvalError(message)
    raise NumericEvalError(message + " (row {row})", int(np.nonzero(bad)[0][0]))


def require_finite(value, what):
    """Return `value`, raising NumericEvalError at its first non-finite row."""
    finite = np.isfinite(value)
    if not finite.all():
        _fail(f"non-finite result in {what}", ~finite)
    return value


def _guard(func, undefined, message):
    """`func`, raising NumericEvalError at the first row where `undefined` holds."""
    def guarded(arg):
        bad = undefined(np.asarray(arg))
        if np.any(bad):
            _fail(message, bad)
        return func(arg)
    return guarded


def _pow(left, right):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = np.power(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    require_finite(out, "power")
    return float(out) if out.ndim == 0 else out


def _exp(arg):
    with np.errstate(over="ignore"):
        return require_finite(np.exp(arg), "exp")


def _lookup(name, env):
    try:
        return env[name]
    except KeyError:
        raise UsageError(f"variable {name!r} missing from environment") from None


_nonzero = _guard(lambda a: a, lambda a: a == 0, "division by zero")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": _pow,
           "/": lambda left, right: left / _nonzero(right)}
_UNARY = {"abs": np.abs, "exp": _exp,
          "sqrt": _guard(np.sqrt, lambda a: a < 0, "sqrt of a negative value"),
          "log": _guard(np.log, lambda a: a <= 0, "log of a non-positive value")}


def _closure(node):
    """The function env -> value of `node`. Left operands run before right
    ones and a variable is looked up when its node runs, so values, errors
    and the rows they name are those of a walk over the tree."""
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        return functools.partial(_lookup, node.name)
    if isinstance(node, Neg):
        operand = _closure(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, BinOp):
        left, right = _closure(node.left), _closure(node.right)
        if node.op == "/" and isinstance(node.right, Num) and node.right.value != 0:
            divisor = node.right.value  # a nonzero literal needs no zero test
            return lambda env: left(env) / divisor
        binary = _BINARY[node.op]
        return lambda env: binary(left(env), right(env))
    args = [_closure(a) for a in node.args]
    if node.func in ("min", "max"):
        ufunc = np.minimum if node.func == "min" else np.maximum
        return lambda env: functools.reduce(ufunc, [a(env) for a in args])
    unary, (arg,) = _UNARY[node.func], args
    return lambda env: unary(arg(env))


def evaluate(expr, env):
    """Evaluate an Expr under ``env`` (name -> float or ndarray) through
    its closures, which the first evaluation builds."""
    return expr.closure(env)


def format_expr(expr):
    """Canonical fully-parenthesized rendering; parses back to an equivalent Expr."""
    if isinstance(expr, Num):
        v = expr.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand)
        if isinstance(expr.operand, (Num, Var)):
            return f"-{inner}"
        return f"-{inner}" if inner.startswith("(") else f"-({inner})"
    if isinstance(expr, BinOp):
        left = format_expr(expr.left)
        right = format_expr(expr.right)
        if expr.op == "^":
            return f"({left}^{right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(format_expr(a) for a in expr.args)})"
    raise AssertionError(type(expr))
