"""Small arithmetic expression language for user-defined operators and metrics.

Grammar (EBNF); whitespace (str.isspace) may stand between tokens::

    expression = term , { ("+" | "-") , term } ;
    term       = unary , { ("*" | "/") , unary } ;
    unary      = "-" , unary | power ;
    power      = atom , [ "^" , unary ] ;            (* right-associative *)
    atom       = number | variable | call | "(" , expression , ")" ;
    call       = ("abs"|"min"|"max"|"sqrt"|"exp"|"log") , "(" , expression ,
                 { "," , expression } , ")" ;
    number     = ? digits with an optional "." and exponent: 2, 2., .5, 1.5e-3 ? ;
    variable   = ? a letter or "_", then letters, digits or "_" (str.isalnum) ? ;

``^`` binds tighter than unary minus, so ``-x1^2`` parses as ``-(x1^2)``.
Variables are context-dependent: ``x1..xk`` for operator bodies, ``u1..um``
and ``v1..vm`` for custom metrics, ``t`` for gauge functions. A DslSyntaxError
gives the offending token's line and column from 1; a tab or CR is one column.

`parse` builds the expression as nested Python closures, one function
env -> value, and returns it as an Expr with its source and variables;
`evaluate` calls that function. Left operands run before right ones and a
variable is looked up when its closure runs. An Expr pickles as its source
and variables and is equal to another with the same source and variables.

Evaluation is IEEE double precision and vectorizes over numpy arrays bound
in the environment. Undefined operations (division by zero, log of a
non-positive value, sqrt of a negative) raise NumericEvalError instead of
propagating NaN; on a batch it names the first offending row.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import namedtuple

import numpy as np

from .errors import UsageError, _fail, require_finite


class DslSyntaxError(UsageError):
    """Parse failure, carrying 1-based line and column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Expr:
    """A parsed expression: its `source`, the names in `variables` it may
    bind, in order, and `fn`, the closure env -> value the parser built."""

    __slots__ = ("source", "variables", "fn")

    def __init__(self, source, variables, fn):
        self.source, self.variables, self.fn = source, variables, fn

    def __reduce__(self):  # a closure cannot be pickled; its source can
        return parse, (self.source, self.variables)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.source, self.variables) == (other.source, other.variables)

    def __hash__(self):
        return hash((self.source, self.variables))


# --- tokenizer -------------------------------------------------------------

# One named group per token kind, after any whitespace. [^\W\d] also admits
# a non-decimal digit such as "²", which _tokenize rejects as it does "bad".
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?) | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,)
  | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE | re.DOTALL)

# kind: num | ident | op | lparen | rparen | comma | end
_Token = namedtuple("_Token", "kind text offset")


def _syntax_error(message, source, offset):
    """DslSyntaxError at `offset` in `source`, with its line and column."""
    column = offset - source.rfind("\n", 0, offset)
    return DslSyntaxError(message, source.count("\n", 0, offset) + 1, column)


def _tokenize(source):
    """The tokens of `source`, the last one of kind "end"."""
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind, text = match.lastgroup, match[match.lastgroup]
        if kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise _syntax_error(f"unexpected character {text[0]!r}", source, match.start(kind))
        tokens.append(_Token(kind, text, match.start(kind)))
        if kind == "end":
            return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens; each parse_* returns a closure."""

    def __init__(self, source, variables):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, message):
        if self.peek().kind != kind:
            self.fail(message)
        return self.advance()

    def fail(self, message, tok=None):
        raise _syntax_error(message, self.source, (tok or self.peek()).offset)

    def parse_left_associative(self, ops, parse_operand):
        fn = parse_operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            fn = _binary(self.advance().text, fn, parse_operand())
        return fn

    def parse_expression(self):
        return self.parse_left_associative("+-", self.parse_term)

    def parse_term(self):
        return self.parse_left_associative("*/", self.parse_unary)

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            operand = self.parse_unary()
            return lambda env: -operand(env)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return _binary("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return _literal(float(tok.text))
        if tok.kind == "lparen":
            fn = self.parse_expression()
            self.expect("rparen", "expected ')'")
            return fn
        if tok.kind == "ident" and tok.text in _FUNCTIONS:
            self.expect("lparen", f"function {tok.text!r} requires arguments")
            args = [self.parse_expression()]
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.parse_expression())
            self.expect("rparen", "expected ')'")
            if tok.text in _UNARY and len(args) != 1:
                self.fail(f"{tok.text} takes 1 argument(s), got {len(args)}", tok)
            if tok.text in _VARIADIC and len(args) < 2:
                self.fail(f"{tok.text} takes at least 2 arguments", tok)
            return _call(tok.text, args)
        if tok.kind == "ident" and tok.text in self.variables:
            return functools.partial(_lookup, tok.text)
        self.fail({"ident": f"unknown identifier {tok.text!r}", "end": "unexpected end of input"}
                  .get(tok.kind, f"unexpected token {tok.text!r}"), tok)


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
    parser = _Parser(source, variables)
    fn = parser.parse_expression()
    parser.expect("end", f"trailing input {parser.peek().text!r}")
    return Expr(source, tuple(variables), fn)


# --- evaluation ------------------------------------------------------------

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
_VARIADIC = {"min": np.minimum, "max": np.maximum}
_FUNCTIONS = _UNARY.keys() | _VARIADIC.keys()


def _literal(value):
    """The closure of a number, which carries it as `.value`."""
    def literal(env):
        return value
    literal.value = value
    return literal


def _binary(op, left, right):
    """The closure of `left op right`; the left operand runs first."""
    divisor = getattr(right, "value", 0)
    if op == "/" and divisor != 0:  # a nonzero literal needs no zero test
        return lambda env: left(env) / divisor
    binary = _BINARY[op]
    return lambda env: binary(left(env), right(env))


def _call(name, args):
    """The closure of `name(*args)`; the arguments run left to right."""
    if name in _VARIADIC:
        ufunc = _VARIADIC[name]
        return lambda env: functools.reduce(ufunc, [a(env) for a in args])
    unary, (arg,) = _UNARY[name], args
    return lambda env: unary(arg(env))


def evaluate(expr, env):
    """Evaluate an Expr under ``env`` (name -> float or ndarray)."""
    return expr.fn(env)
