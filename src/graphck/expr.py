"""Parser for the element expression syntax.

Elements print as ``c * s[e1 e2] * s*[f] + ...`` with ``p[v]`` sugar for the
empty-path projection; this module parses that syntax back over a graph.
Coefficient literals are rationals (``3``, ``1/2``), Gaussian rationals
(``i``, ``2/3i``), polar ``mag@turn`` values (``1@1/3`` meaning
exp(2*pi*i/3)) and parenthesised sums of these (``(1+1/2i)``,
``(-1+2@1/6)``).  Every literal is an exact cyclotomic value, so both styles
mix freely in one expression.

Parsing is one pass over the text and one over its tokens, both linear in
its length.  The token pattern absorbs the whitespace before each token, and
a number token carries its numerator and denominator as integers, from which
each literal is built directly as a ``Cyclotomic`` value.  One loop then
reads a factor per pass: each term folds its generators into one key
(``algebra.compose``) and its scalars into one coefficient, and the whole sum
accumulates in one coefficient map.
"""

from __future__ import annotations

import re

from . import exact
from .algebra import AlgebraElement, compose, zero
from .exact import Cyclotomic
from .graph import Graph

_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<gen>(?P<head>p|s\*|s)\[(?P<ids>[^\]]*)\])
    | (?P<num>(?P<p>\d+)(?:/(?P<q>\d+))?)
    | (?P<op>[@*+\-()i])
    | (?P<bad>\S)
    )""",
    re.X,
)

_SIGNS = {"+": 1, "-": -1}


class ExprError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple]:
    """``("gen", head, ids)``, ``("num", p, q)`` for p/q, or the one-character
    token ``(op,)``, for each token of ``text`` in order."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "num":
            q = int(m["q"] or 1)
            if not q:
                raise ExprError(f"zero denominator at position {m.start(kind)}: {m[kind]!r}")
            tokens.append(("num", int(m["p"]), q))
        elif kind == "gen":
            tokens.append(("gen", m["head"], tuple(m["ids"].split())))
        elif kind == "op":
            tokens.append((m[kind],))
        else:
            pos = m.start(kind)
            raise ExprError(f"unexpected character at position {pos}: {text[pos]!r}")
    return tokens


def _scalar(tokens: list[tuple], i: int, sign: int) -> tuple[Cyclotomic, int]:
    """(``i``, ``num``, ``num i`` or ``num@turn`` starting at ``tokens[i]``,
    times ``sign``; the index after it)."""
    if i == len(tokens):
        raise ExprError("unexpected end of expression")
    tok = tokens[i]
    if tok[0] == "i":
        return Cyclotomic(4, (0, sign)), i + 1
    if tok[0] != "num":
        raise ExprError(f"unexpected token {tok[0]!r}")
    p, q = sign * tok[1], tok[2]
    nxt = tokens[i + 1][0] if i + 1 < len(tokens) else None
    if nxt == "@":
        if i + 2 == len(tokens):
            raise ExprError("unexpected end of expression")
        turn = tokens[i + 2]
        if turn[0] != "num":
            raise ExprError(f"expected 'num', got {turn[0]!r}")
        return exact.scaled_root(p, q, turn[1], turn[2]), i + 3
    if nxt == "i":  # a zero imaginary part stays a rational, as in GaussianRational
        return (Cyclotomic(4, (0, p), q) if p else Cyclotomic(1, (0,))), i + 2
    return Cyclotomic(1, (p,), q), i + 1


def parse_element(g: Graph, text: str) -> AlgebraElement:
    """Parse an element expression over the given graph.

    One pass per factor: a generator, a parenthesised sum of scalars or a
    scalar, then ``*`` (the term goes on), a sign (the next term starts) or
    the end.  A key whose coefficient sums to 0 leaves the map at once, as it
    leaves a sum of elements, so a later term at that key starts again from
    its own cyclotomic level."""
    tokens = _tokenize(text)
    end = len(tokens)
    if not end:
        raise ExprError("empty expression")
    if end == 1 and tokens[0][:2] == ("num", 0):
        return zero()
    terms: dict = {}
    sign = _SIGNS.get(tokens[0][0])
    i = 0 if sign is None else 1
    sign = sign or 1
    key = coeff = None
    keyed = False  # whether the term has a generator; its key is None when they multiply to 0
    while True:
        kind = tokens[i][0] if i < end else None
        if kind == "gen":
            _, head, ids = tokens[i]
            i += 1
            if head == "p":
                if len(ids) != 1:
                    raise ExprError(f"p[...] takes one vertex id, got {ids}")
                empty = g.empty_path(ids[0])
                right = (empty, empty)
            else:
                if not ids:
                    raise ExprError("s[...] needs at least one edge id")
                path = g.path(ids)
                empty = g.empty_path(path.source)
                right = (empty, path) if head == "s*" else (path, empty)
            key = (key and compose(key, right)) if keyed else right
            keyed = True
        else:
            if kind == "(":
                inner = _SIGNS.get(tokens[i + 1][0]) if i + 1 < end else None
                value, i = _scalar(tokens, i + 1 if inner is None else i + 2, inner or 1)
                while i < end and tokens[i][0] in _SIGNS:
                    term, i = _scalar(tokens, i + 1, _SIGNS[tokens[i][0]])
                    value = value + term
                if i == end:
                    raise ExprError("unexpected end of expression")
                if tokens[i][0] != ")":
                    raise ExprError(f"expected ')', got {tokens[i][0]!r}")
                i += 1
            else:
                value, i = _scalar(tokens, i, 1)
            coeff = value if coeff is None else coeff * value
        kind = tokens[i][0] if i < end else None
        if kind == "*":
            i += 1
            continue
        if not keyed:
            raise ExprError("scalar term without a generator; the algebra has no unit")
        if key is not None:
            c = exact.ONE if coeff is None else coeff
            if not c.is_zero:
                c = c if sign > 0 else -c
                total = terms[key] + c if key in terms else c
                if total.is_zero:
                    del terms[key]
                else:
                    terms[key] = total
        if kind is None:
            return AlgebraElement(terms)
        if kind not in _SIGNS:
            raise ExprError(f"expected '+' or '-', got {kind!r}")
        sign = _SIGNS[kind]
        i += 1
        key = coeff = None
        keyed = False
