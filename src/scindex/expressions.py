"""Parse and evaluate dimension expressions such as ``(eta*i^2*P)^(1/3)``.

The grammar is standard infix.  ``^`` binds tightest and is
right-associative, then ``*`` and ``/`` (left-associative), then ``+``:

    expr     := term ('+' term)*
    term     := factor (('*' | '/') factor)*
    factor   := primary ('^' exponent)?
    primary  := NAME | '(' expr ')'
    exponent := ratom ('^' exponent)?      # tower collapses to one rational
    ratom    := '-'? (INT ('/' INT)? | '(' exponent ')')

Leaves are ASCII names resolved against a symbol table at evaluation
time; numeric literals appear only inside exponents.  Evaluating a sum
whose addends differ in dimension raises ``HeterogeneityError`` -- the
whole point of carrying dimensions is that such sums are meaningless.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Union

from .dimension import Dimension, Record
from .errors import HeterogeneityError, ParseError, UnknownSymbolError

__all__ = [
    "Symbol",
    "Sum",
    "Product",
    "Quotient",
    "Power",
    "DimExpr",
    "parse_dim_expr",
    "format_dim_expr",
    "eval_dim_expr",
    "dimension_of",
]


class Symbol(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._fill(name)


def _pair(self: Record, left: DimExpr, right: DimExpr) -> None:
    self._fill(left, right)


class Sum(Record):
    __slots__ = ("left", "right")
    __init__ = _pair


class Product(Record):
    __slots__ = ("left", "right")
    __init__ = _pair


class Quotient(Record):
    __slots__ = ("left", "right")
    __init__ = _pair


class Power(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: DimExpr, exponent: Fraction) -> None:
        self._fill(base, exponent)


DimExpr = Union[Symbol, Sum, Product, Quotient, Power]


class _Token(Record):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self._fill(kind, text, pos)  # kind: "name", "int", "op" or "end"


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError("a symbol, number or operator", pos, text[pos])
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup or "", match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _match_op(self, *ops: str) -> _Token | None:
        token = self._current
        if token.kind == "op" and token.text in ops:
            return self._advance()
        return None

    def _expect_op(self, op: str) -> None:
        token = self._current
        if token.kind != "op" or token.text != op:
            raise ParseError(f"'{op}'", token.pos, token.text or "end of input")
        self._advance()

    def parse(self) -> DimExpr:
        expr = self._expr()
        token = self._current
        if token.kind != "end":
            raise ParseError("'+', '*', '/', '^' or end of input", token.pos, token.text)
        return expr

    def _expr(self) -> DimExpr:
        node = self._term()
        while self._match_op("+"):
            node = Sum(node, self._term())
        return node

    def _term(self) -> DimExpr:
        node = self._factor()
        while True:
            op = self._match_op("*", "/")
            if op is None:
                return node
            right = self._factor()
            node = Product(node, right) if op.text == "*" else Quotient(node, right)

    def _factor(self) -> DimExpr:
        node = self._primary()
        if self._match_op("^"):
            node = Power(node, self._exponent())
        return node

    def _primary(self) -> DimExpr:
        token = self._current
        if token.kind == "name":
            self._advance()
            return Symbol(token.text)
        if token.kind == "op" and token.text == "(":
            self._advance()
            node = self._expr()
            self._expect_op(")")
            return node
        raise ParseError("a symbol or '('", token.pos, token.text or "end of input")

    def _exponent(self) -> Fraction:
        base = self._ratom()
        if self._match_op("^"):
            tower = self._exponent()
            if tower.denominator != 1:
                raise ParseError(
                    "an integer exponent in an exponent tower",
                    self._tokens[self._index - 1].pos,
                    str(tower),
                )
            return base**tower.numerator
        return base

    def _ratom(self) -> Fraction:
        sign = -1 if self._match_op("-") else 1
        token = self._current
        if token.kind == "int":
            self._advance()
            numerator = int(token.text)
            # Only treat '/' as a fraction bar when an integer denominator
            # follows; otherwise it is division ("P^0/P" is (P^0)/P).
            if (
                self._current.kind == "op"
                and self._current.text == "/"
                and self._tokens[self._index + 1].kind == "int"
            ):
                self._advance()
                denom_token = self._advance()
                if int(denom_token.text) == 0:
                    raise ParseError("a nonzero denominator", denom_token.pos, "0")
                return Fraction(sign * numerator, int(denom_token.text))
            return Fraction(sign * numerator)
        if token.kind == "op" and token.text == "(":
            self._advance()
            value = self._exponent()
            self._expect_op(")")
            return sign * value
        raise ParseError(
            "an integer, '-' or '('", token.pos, token.text or "end of input"
        )


def parse_dim_expr(text: str) -> DimExpr:
    """Parse expression text into a tree; raises :class:`ParseError`."""
    return _Parser(_tokenize(text)).parse()


_SUM, _TERM, _POWER, _ATOM = 1, 2, 3, 4


def _precedence(node: DimExpr) -> int:
    if isinstance(node, Sum):
        return _SUM
    if isinstance(node, (Product, Quotient)):
        return _TERM
    if isinstance(node, Power):
        return _POWER
    return _ATOM


def _render(node: DimExpr, minimum: int) -> str:
    prec = _precedence(node)
    if isinstance(node, Symbol):
        text = node.name
    elif isinstance(node, Sum):
        text = f"{_render(node.left, _SUM)}+{_render(node.right, _SUM + 1)}"
    elif isinstance(node, Product):
        text = f"{_render(node.left, _TERM)}*{_render(node.right, _TERM + 1)}"
    elif isinstance(node, Quotient):
        text = f"{_render(node.left, _TERM)}/{_render(node.right, _TERM + 1)}"
    else:
        exponent = node.exponent
        if exponent.denominator == 1 and exponent >= 0:
            suffix = str(exponent.numerator)
        else:
            suffix = f"({exponent})"
        text = f"{_render(node.base, _POWER + 1)}^{suffix}"
    if prec < minimum:
        return f"({text})"
    return text


def format_dim_expr(expr: DimExpr) -> str:
    """Render a tree back to text; ``parse(format(t))`` rebuilds ``t``."""
    return _render(expr, _SUM)


def eval_dim_expr(expr: DimExpr, symbols: Mapping[str, Dimension]) -> Dimension:
    """Dimension of an expression under a name -> Dimension table.

    Sums require all addends homogeneous; products, quotients and
    rational powers follow the exponent algebra.
    """
    if isinstance(expr, Symbol):
        try:
            return symbols[expr.name]
        except KeyError:
            raise UnknownSymbolError(expr.name) from None
    if isinstance(expr, Sum):
        left = eval_dim_expr(expr.left, symbols)
        right = eval_dim_expr(expr.right, symbols)
        if left != right:
            raise HeterogeneityError(left, right, "add")
        return left
    if isinstance(expr, Product):
        return eval_dim_expr(expr.left, symbols) * eval_dim_expr(expr.right, symbols)
    if isinstance(expr, Quotient):
        return eval_dim_expr(expr.left, symbols) / eval_dim_expr(expr.right, symbols)
    return eval_dim_expr(expr.base, symbols) ** expr.exponent


def dimension_of(text: str, symbols: Mapping[str, Dimension]) -> Dimension:
    """Parse and evaluate in one step."""
    return eval_dim_expr(parse_dim_expr(text), symbols)
