"""Parser for the element expression syntax.

Elements print as ``c * s[e1 e2] * s*[f] + ...`` with ``p[v]`` sugar for the
empty-path projection; this module parses that syntax back over a graph.
Coefficient literals are rationals (``3``, ``1/2``), Gaussian rationals
(``i``, ``2/3i``), polar ``mag@turn`` values (``1@1/3`` meaning
exp(2*pi*i/3)) and parenthesised sums of these (``(1+1/2i)``,
``(-1+2@1/6)``).  Every literal is an exact cyclotomic value, so both styles
mix freely in one expression.

Parsing is linear in the length of the expression: each term folds its
generators into one key (``algebra.compose``) and its scalars into one
coefficient, and the whole sum accumulates in one coefficient map.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import exact
from .algebra import AlgebraElement, compose, zero
from .graph import Graph, Path


class ExprError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<gen>(?:p|s\*|s)\[[^\]]*\])
    | (?P<num>\d+(?:/\d+)?)
    | (?P<imag>i)
    | (?P<op>[@*+\-()])
    """,
    re.X,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprError(f"unexpected character at position {pos}: {text[pos]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "gen":
            raw = m.group()
            head, inner = raw.split("[", 1)
            ids = tuple(inner[:-1].split())
            tokens.append(("gen", head, ids))
        elif m.lastgroup == "num":
            num, _, den = m.group().partition("/")
            try:
                tokens.append(("num", Fraction(int(num), int(den or 1))))
            except ZeroDivisionError as err:
                raise ExprError(f"zero denominator at position {m.start()}: {m.group()!r}") from err
        elif m.lastgroup == "imag":
            tokens.append(("i",))
        else:
            tokens.append((m.group(),))
    return tokens


class _Parser:
    def __init__(self, g: Graph, tokens):
        self.g = g
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, got {tok[0]!r}")
        return tok

    def take_sign(self) -> int | None:
        tok = self.peek()
        if tok is None or tok[0] not in ("+", "-"):
            return None
        self.take()
        return -1 if tok[0] == "-" else 1

    def parse(self) -> AlgebraElement:
        """The sum of the terms, accumulated in one coefficient map.  A key
        whose coefficient sums to 0 leaves the map at once, as it leaves a sum
        of elements, so a later term at that key starts again from its own
        cyclotomic level."""
        terms: dict[tuple[Path, Path], exact.Cyclotomic] = {}
        sign = self.take_sign() or 1
        while True:
            key, coeff = self.parse_term()
            if key is not None and not coeff.is_zero:
                coeff = coeff if sign > 0 else -coeff
                total = terms[key] + coeff if key in terms else coeff
                if total.is_zero:
                    del terms[key]
                else:
                    terms[key] = total
            if self.peek() is None:
                return AlgebraElement(terms)
            sign = self.take_sign()
            if sign is None:
                raise ExprError(f"expected '+' or '-', got {self.peek()[0]!r}")

    def parse_term(self) -> tuple[tuple[Path, Path] | None, exact.Cyclotomic]:
        """(key, coefficient) of one product of factors: the generators fold
        into one key by the product rule (None when they multiply to 0) and
        the scalars into one coefficient."""
        coeff = None
        keys = []
        while True:
            piece = self.parse_factor()
            if isinstance(piece, tuple):
                keys.append(piece)
            else:
                coeff = piece if coeff is None else coeff * piece
            tok = self.peek()
            if tok is None or tok[0] != "*":
                break
            self.take()
        if not keys:
            raise ExprError(
                "scalar term without a generator; the algebra has no unit"
            )
        key = keys[0]
        for right in keys[1:]:
            if key is None:
                break
            key = compose(key, right)
        return key, exact.ONE if coeff is None else coeff

    def parse_factor(self):
        """A generator's key (alpha, beta), or a scalar."""
        tok = self.peek()
        if tok is not None and tok[0] == "gen":
            _, head, ids = self.take()
            if head == "p":
                if len(ids) != 1:
                    raise ExprError(f"p[...] takes one vertex id, got {ids}")
                empty = self.g.empty_path(ids[0])
                return empty, empty
            if not ids:
                raise ExprError("s[...] needs at least one edge id")
            path = self.g.path(list(ids))
            empty = self.g.empty_path(path.source)
            return (empty, path) if head == "s*" else (path, empty)
        if tok is not None and tok[0] == "(":
            self.take()
            total = self.parse_scalar(self.take_sign() or 1)
            sign = self.take_sign()
            while sign is not None:
                total = total + self.parse_scalar(sign)
                sign = self.take_sign()
            self.expect(")")
            return total
        return self.parse_scalar(1)

    def parse_scalar(self, sign: int):
        """``i``, ``num``, ``num i`` or ``num@turn``, times ``sign``."""
        tok = self.take()
        if tok[0] == "i":
            return exact.GaussianRational(0, sign)
        if tok[0] != "num":
            raise ExprError(f"unexpected token {tok[0]!r}")
        value = sign * tok[1]
        nxt = self.peek()
        if nxt == ("@",):
            self.take()
            return exact.PolarCoeff(value, self.expect("num")[1])
        if nxt == ("i",):
            self.take()
            return exact.GaussianRational(0, value)
        return exact.rational(value)


def parse_element(g: Graph, text: str) -> AlgebraElement:
    """Parse an element expression over the given graph."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    if len(tokens) == 1 and tokens[0] == ("num", Fraction(0)):
        return zero()
    return _Parser(g, tokens).parse()
