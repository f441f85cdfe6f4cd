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
time; numeric literals (ASCII digits) appear only inside exponents.
Evaluating a sum whose addends differ in dimension raises
``HeterogeneityError`` -- the whole point of carrying dimensions is that
such sums are meaningless.

The parser bounds its input before computing any power: at most
1,000 characters and 50 nested parentheses, and every exponent -- a
literal, a fraction or a collapsed tower -- has a numerator and a
denominator below 10^9.  Within these bounds every expression
evaluates and prints under the interpreter's default recursion and
integer-digit limits; past them it is a ``ParseError``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Mapping, Union

from .dimension import Dimension, Quantity, Record
from .errors import ParseError, UnknownSymbolError


class Symbol(Record):
    __slots__ = ("name",)


class Sum(Record):
    __slots__ = ("left", "right")


class Product(Record):
    __slots__ = ("left", "right")


class Quotient(Record):
    __slots__ = ("left", "right")


class Power(Record):
    __slots__ = ("base", "exponent")


DimExpr = Union[Symbol, Sum, Product, Quotient, Power]

_MAX_LENGTH = 1000  # characters of expression text
_MAX_DEPTH = 50  # nested parentheses
_MAX_TERM = 10**9  # an exponent's numerator and denominator lie below it
_TERM_BOUND = "a numerator and denominator below 10^9"


# The only definition of the binary operators, read by the parser, the
# printer and the evaluator: node class -> (text, precedence, dimension rule).
# Each precedence level is left-associative.
_BINARY = {
    Sum: ("+", 1, operator.add),
    Product: ("*", 2, operator.mul),
    Quotient: ("/", 2, operator.truediv),
}
# Operator text -> node class, one mapping per precedence level, loosest first.
_LEVELS = [
    {text: node for node, (text, prec, _) in _BINARY.items() if prec == level}
    for level in sorted({prec for _, prec, _ in _BINARY.values()})
]
_POWER = max(prec for _, prec, _ in _BINARY.values()) + 1


class _Token(Record):
    __slots__ = ("kind", "text", "pos")  # kind: "name", "int", "op" or "end"


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = depth = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError("a symbol, number or operator", pos, text[pos])
        if match.lastgroup != "ws":
            token = match.group()
            depth += (token == "(") - (token == ")")
            if depth > _MAX_DEPTH:
                raise ParseError(f"at most {_MAX_DEPTH} nested parentheses", pos, token)
            tokens.append(_Token(match.lastgroup or "", token, pos))
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
        expr = self._binary(0)
        token = self._current
        if token.kind != "end":
            raise ParseError("'+', '*', '/', '^' or end of input", token.pos, token.text)
        return expr

    def _binary(self, level: int) -> DimExpr:
        """Operands of the ``_LEVELS[level]`` operators, joined left to right."""
        if level == len(_LEVELS):
            return self._factor()
        node = self._binary(level + 1)
        while (op := self._match_op(*_LEVELS[level])) is not None:
            node = _LEVELS[level][op.text](node, self._binary(level + 1))
        return node

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
        if self._match_op("("):
            node = self._binary(0)
            self._expect_op(")")
            return node
        raise ParseError("a symbol or '('", token.pos, token.text or "end of input")

    def _exponent(self) -> Fraction:
        base = self._ratom()
        caret = self._match_op("^")
        if caret is None:
            return base
        tower = self._exponent()
        if tower.denominator != 1:
            raise ParseError(
                "an integer exponent in an exponent tower",
                self._tokens[self._index - 1].pos,
                str(tower),
            )
        power, found = tower.numerator, f"{_exponent_text(base)}^{tower}"
        if base == 0 and power < 0:
            raise ParseError("a nonzero base for a negative exponent", caret.pos, found)
        # Each term of base**power is at least 2**(bits * |power|): one past
        # the bound is refused before it is computed.
        bits = max(abs(base.numerator), base.denominator).bit_length() - 1
        if bits * abs(power) >= _MAX_TERM.bit_length():
            raise ParseError(_TERM_BOUND, caret.pos, found)
        value = base**power
        if max(abs(value.numerator), value.denominator) >= _MAX_TERM:
            raise ParseError(_TERM_BOUND, caret.pos, found)
        return value

    def _literal(self) -> int:
        token = self._advance()
        value = int(token.text)
        if value >= _MAX_TERM:
            raise ParseError(_TERM_BOUND, token.pos, token.text)
        return value

    def _ratom(self) -> Fraction:
        sign = -1 if self._match_op("-") else 1
        token = self._current
        if token.kind == "int":
            numerator = self._literal()
            # Only treat '/' as a fraction bar when an integer denominator
            # follows; otherwise it is division ("P^0/P" is (P^0)/P).
            if self._current.text == "/" and self._tokens[self._index + 1].kind == "int":
                self._advance()
                denom_pos = self._current.pos
                denominator = self._literal()
                if denominator == 0:
                    raise ParseError("a nonzero denominator", denom_pos, "0")
                return Fraction(sign * numerator, denominator)
            return Fraction(sign * numerator)
        if self._match_op("("):
            value = self._exponent()
            self._expect_op(")")
            return sign * value
        raise ParseError(
            "an integer, '-' or '('", token.pos, token.text or "end of input"
        )


def parse_dim_expr(text: str) -> DimExpr:
    """Parse expression text into a tree; raises :class:`ParseError`."""
    if len(text) > _MAX_LENGTH:
        raise ParseError(f"at most {_MAX_LENGTH} characters", _MAX_LENGTH, text[_MAX_LENGTH])
    return _Parser(_tokenize(text)).parse()


def _exponent_text(exponent: Fraction) -> str:
    """``exponent`` as it follows a ``^``: bare if a natural number, else in parentheses."""
    if exponent.denominator == 1 and exponent >= 0:
        return str(exponent.numerator)
    return f"({exponent})"


def _render(node: DimExpr, minimum: int) -> str:
    """``node`` as text, in parentheses if it binds looser than ``minimum``."""
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Power):
        prec = _POWER
        text = f"{_render(node.base, _POWER + 1)}^{_exponent_text(node.exponent)}"
    else:
        op, prec, _ = _BINARY[type(node)]
        text = f"{_render(node.left, prec)}{op}{_render(node.right, prec + 1)}"
    return f"({text})" if prec < minimum else text


def format_dim_expr(expr: DimExpr) -> str:
    """Render a tree back to text; ``parse(format(t))`` rebuilds ``t``."""
    return _render(expr, 0)


def eval_dim_expr(
    expr: DimExpr, symbols: Mapping[str, Dimension | Quantity]
) -> Dimension | Quantity:
    """Value of an expression over a name -> ``Dimension`` table (such as
    ``registry_symbols()``), its dimension, or over an ``IndicatorReport``,
    its ``Quantity``.  Either way a sum of different dimensions raises the
    same ``HeterogeneityError``; the rest follows the exponent algebra.
    """
    if isinstance(expr, Symbol):
        try:
            return symbols[expr.name]
        except KeyError:
            raise UnknownSymbolError(expr.name) from None
    if isinstance(expr, Power):
        return eval_dim_expr(expr.base, symbols) ** expr.exponent
    rule = _BINARY[type(expr)][2]
    return rule(eval_dim_expr(expr.left, symbols), eval_dim_expr(expr.right, symbols))


def dimension_of(text: str, symbols: Mapping[str, Dimension]) -> Dimension:
    """Parse and evaluate in one step."""
    return eval_dim_expr(parse_dim_expr(text), symbols)
