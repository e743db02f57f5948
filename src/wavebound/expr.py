"""A tiny expression language for diffusivities and reaction terms.

Models are specified as strings like ``"u*(1 - u^n)"`` or
``"1 - u2"``.  The language is deliberately small:

* variables: ``u`` (single species) or ``u1``, ``u2`` (two species);
  any other identifier is a named parameter to be bound later;
* operators ``+ - * / ^`` with the usual precedence; ``^`` is
  right-associative and binds tighter than unary minus, so ``-u^2``
  means ``-(u^2)`` and ``2^3^2`` means ``2^(3^2)``;
* parentheses;
* ``exp(...)`` is the only function.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Syntax errors carry the character offset at which they occurred.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Set, Tuple

import numpy as np

from .errors import ExprSyntaxError, ModelError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "render",
    "substitute",
    "params_of",
    "variables_of",
    "compile_fn",
]

SCALAR_VARS = ("u",)
TWO_SPECIES_VARS = ("u1", "u2")


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Param(Expr):
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
    arg: Expr


_FUNCTIONS = ("exp",)

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            got = repr(text) if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected {op!r}, found {got}", pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after expression", pos)
        return node

    def expr(self) -> Expr:
        return self.left_assoc("+-", self.term)

    def term(self) -> Expr:
        return self.left_assoc("*/", self.unary)

    def left_assoc(self, ops: str, operand: Callable[[], Expr]) -> Expr:
        """operand (op operand)* for op in ``ops``, grouped from the left."""
        node = operand()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ops:
                self.advance()
                node = BinOp(text, node, operand())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.variables:
                return Var(text)
            return Param(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected {text!r}", pos)


def parse(text: str, variables: Iterable[str] = SCALAR_VARS) -> Expr:
    """Parse ``text`` into an expression tree.

    Identifiers in ``variables`` become Var nodes; any other identifier
    becomes a Param to be bound by the model.  Raises ExprSyntaxError
    (with a character offset) on malformed input.
    """
    return _Parser(text, tuple(variables)).parse()


# ----------------------------------------------------------------------
# Inspection, substitution, rendering, evaluation
# ----------------------------------------------------------------------


def params_of(e: Expr) -> Set[str]:
    """Names of all unbound parameters appearing in the tree."""
    out: Set[str] = set()
    _walk_names(e, out, Param)
    return out


def variables_of(e: Expr) -> Set[str]:
    """Names of all variables appearing in the tree."""
    out: Set[str] = set()
    _walk_names(e, out, Var)
    return out


def _walk_names(e: Expr, out: Set[str], cls: type) -> None:
    if isinstance(e, cls):
        out.add(e.name)  # type: ignore[attr-defined]
    elif isinstance(e, Neg):
        _walk_names(e.operand, out, cls)
    elif isinstance(e, BinOp):
        _walk_names(e.left, out, cls)
        _walk_names(e.right, out, cls)
    elif isinstance(e, Call):
        _walk_names(e.arg, out, cls)


def substitute(e: Expr, params: Mapping[str, float]) -> Expr:
    """Replace parameters by constants and fold constant subtrees."""
    if isinstance(e, Param):
        if e.name in params:
            return Const(float(params[e.name]))
        return e
    if isinstance(e, Neg):
        inner = substitute(e.operand, params)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Neg(inner)
    if isinstance(e, BinOp):
        left = substitute(e.left, params)
        right = substitute(e.right, params)
        if isinstance(left, Const) and isinstance(right, Const):
            try:
                return Const(_APPLY[e.op](left.value, right.value))
            except (ArithmeticError, ValueError):
                pass
        return BinOp(e.op, left, right)
    if isinstance(e, Call):
        arg = substitute(e.arg, params)
        if isinstance(arg, Const):
            with np.errstate(over="ignore"):  # compile_fn reports the inf
                return Const(float(np.exp(arg.value)))
        return Call(e.func, arg)
    return e


_APPLY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: float(a**b),
}

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return 3
    return 5


def render(e: Expr) -> str:
    """Serialise a tree back to source text with minimal parentheses.

    ``parse(render(e))`` reproduces ``e`` node for node (for trees whose
    constants are non-negative, which is everything the parser emits).
    """
    if isinstance(e, Const):
        v = e.value
        return repr(int(v)) if v >= 0 and float(v).is_integer() else repr(v)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        inner = render(e.operand)
        if _prec(e.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({render(e.arg)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left, right = render(e.left), render(e.right)
        if e.op == "^":
            # right-associative; unary minus is allowed bare in the exponent
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < 3:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


# ----------------------------------------------------------------------
# Compilation to a numpy-vectorised callable
# ----------------------------------------------------------------------


def _pycode(e: Expr) -> str:
    if isinstance(e, Const):
        if not math.isfinite(e.value):
            raise ModelError(
                f"constant {e.value!r} is not finite: a number beyond the float "
                "range, or constant arithmetic that overflows"
            )
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Param):
        raise ModelError(f"unbound parameter {e.name!r} (substitute first)")
    if isinstance(e, Neg):
        return f"(-{_pycode(e.operand)})"
    if isinstance(e, Call):
        return f"np.exp({_pycode(e.arg)})"
    if isinstance(e, BinOp):
        if e.op == "^":
            # x**1.0 shows up constantly via parameterised exponents; skip it
            if isinstance(e.right, Const) and e.right.value == 1.0:
                return _pycode(e.left)
            return f"({_pycode(e.left)}**{_pycode(e.right)})"
        return f"({_pycode(e.left)} {e.op} {_pycode(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_fn(
    e: Expr,
    variables: Iterable[str] = SCALAR_VARS,
    params: Optional[Mapping[str, float]] = None,
) -> Callable[..., np.ndarray]:
    """Compile a tree to a fast numpy callable of the given variables.

    Parameters are folded in as literals.  The result always broadcasts
    to the shape of the first array argument, so a constant diffusivity
    still yields a full-size array.  An expression that uses the first
    variable has that shape already and is returned unwrapped.
    """
    variables = tuple(variables)
    bound = substitute(e, params or {})
    missing = params_of(bound)
    if missing:
        raise ModelError(f"unbound parameters: {', '.join(sorted(missing))}")
    stray = variables_of(bound) - set(variables)
    if stray:
        raise ModelError(
            f"expression uses {', '.join(sorted(stray))}; "
            f"allowed variables here: {', '.join(variables)}"
        )
    src = f"lambda {', '.join(variables)}: {_pycode(bound)}"
    raw = eval(src, {"np": np, "__builtins__": {}})  # noqa: S307 - own codegen
    if variables and variables[0] in variables_of(bound):
        return raw

    def fn(*args: np.ndarray) -> np.ndarray:
        out = raw(*args)
        if np.ndim(out) == 0 and args and np.ndim(args[0]) > 0:
            out = np.full(np.shape(args[0]), float(out))
        return out

    return fn
