"""Exact *-algebra of finite sums sum c * s_alpha s_beta^*.

Elements are finite coefficient maps keyed by path pairs (alpha, beta) with
source(alpha) == source(beta).  The product follows the rule forced by the
Toeplitz relations:

    (s_a s_b^*)(s_c s_d^*) = s_{a c'} s_d^*   if c = b c',
                             s_a s_{d b'}^*   if b = c b',
                             0                 otherwise.

Coefficients are exact cyclotomic values or machine complex numbers (see
``exact``).  An element is inexact exactly when one of its coefficients is
complex; sums and products with an inexact operand are inexact, and exact
ones stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from . import exact
from .cycles import entrance_free_classes
from .graph import Graph, GraphError, Path, path_key


def term_key(key: tuple[Path, Path]):
    a, b = key
    return (path_key(a), path_key(b))


def compose(left: tuple[Path, Path], right: tuple[Path, Path]) -> tuple[Path, Path] | None:
    """The key of (s_a s_b^*)(s_c s_d^*) for left = (a, b) and right = (c, d),
    or None when the product is 0 (the rule in the module docstring)."""
    a, b = left
    c, d = right
    if len(b) <= len(c):
        return (a.concat(c.strip_prefix(b)), d) if c.starts_with(b) else None
    return (a, d.concat(b.strip_prefix(c))) if b.starts_with(c) else None


class AlgebraElement:
    """A finite formal sum of monomials c * s_alpha s_beta^*."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Path, Path], object]):
        clean: dict[tuple[Path, Path], object] = {}
        for (a, b), c in terms.items():
            if a.source != b.source:
                raise GraphError(
                    f"monomial key ({a}, {b}) has mismatched sources"
                )
            if not exact.is_zero(c):
                clean[(a, b)] = c
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: term_key(kv[0]))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = exact.add(out[key], c) if key in out else c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return self.map_coefficients(lambda c: -c)

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return self.scaled(other)
        out: dict[tuple[Path, Path], object] = {}
        for left, c1 in self.terms.items():
            for right, c2 in other.terms.items():
                key = compose(left, right)
                if key is None:
                    continue
                c = exact.mul(c1, c2)
                key_c = exact.add(out[key], c) if key in out else c
                out[key] = key_c
        return AlgebraElement(out)

    def __rmul__(self, other) -> "AlgebraElement":
        return self.scaled(other)

    def scaled(self, scalar) -> "AlgebraElement":
        """``scalar`` times the element.  An element with a complex coefficient
        takes the scalar as complex; any other refuses an inexact scalar."""
        inexact = any(isinstance(c, complex) for c in self.terms.values())
        coeff = exact.as_complex(scalar) if inexact else exact.coerce(scalar)
        return self.map_coefficients(lambda c: exact.mul(coeff, c))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement({(b, a): c.conjugate() for (a, b), c in self.terms.items()})

    def map_coefficients(self, fn) -> "AlgebraElement":
        return AlgebraElement({k: fn(c) for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(
            exact.scalars_equal(c, other.terms[k]) for k, c in self.terms.items()
        )

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def render(self, polar: bool = False) -> str:
        """The element in the expression syntax; ``polar`` prints every
        coefficient in polar style (see ``exact``)."""
        return render_element(self, polar, {})

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<AlgebraElement {self.render()}>"


def render_element(a: AlgebraElement, polar: bool, texts: dict) -> str:
    """``a.render(polar)``, reading each exact coefficient's printed sign and
    magnitude from ``texts``, keyed by (level, num, den), and adding those it
    prints first: elements printed with one table print each value once."""
    if a.is_zero:
        return "0"
    parts: list[str] = []
    for (alpha, beta), c in a.terms_sorted():
        if isinstance(c, complex):
            neg, cs = False, f"({c!r})"
        else:
            value = (c.level, c.num, c.den)
            text = texts.get(value)
            if text is None:
                text = texts[value] = exact.split_sign(c.minimal(), polar)
            neg, cs = text
        body = _monomial_str(alpha, beta)
        piece = body if cs == "1" else f"{cs} * {body}"
        if not parts:
            parts.append(("-" if neg else "") + piece)
        else:
            parts.append(("- " if neg else "+ ") + piece)
    return " ".join(parts)


def _monomial_str(a: Path, b: Path) -> str:
    if a.is_empty and b.is_empty:
        return f"p[{a.range}]"
    if b.is_empty:
        return f"s[{a.render()}]"
    if a.is_empty:
        return f"s*[{b.render()}]"
    return f"s[{a.render()}] * s*[{b.render()}]"


def zero() -> AlgebraElement:
    return AlgebraElement({})


def vertex_projection(g: Graph, v: str) -> AlgebraElement:
    """p_v = s_v s_v^* keyed by the empty path at v."""
    empty = g.empty_path(v)
    return AlgebraElement({(empty, empty): exact.ONE})


def path_isometry(g: Graph, path) -> AlgebraElement:
    """s_alpha for a path (an edge id, an id sequence, or a Path)."""
    if isinstance(path, str):
        path = g.edge_path(path)
    elif not isinstance(path, Path):
        path = g.path(list(path))
    if path.is_empty:
        return vertex_projection(g, path.range)
    return AlgebraElement({(path, Path((), (path.source,))): exact.ONE})


def monomial(g: Graph, alpha: Path, beta: Path, coeff=1) -> AlgebraElement:
    if alpha.source != beta.source:
        raise GraphError(f"sources differ: {alpha} vs {beta}")
    return AlgebraElement({(alpha, beta): exact.coerce(coeff)})


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    """Vertex projections and edge isometries, possibly living over another
    graph than the one indexing them (e.g. the Toeplitz dictionary)."""

    index: Graph
    p: Mapping[str, AlgebraElement]
    s: Mapping[str, AlgebraElement]

    def s_path(self, path: Path) -> AlgebraElement:
        if path.is_empty:
            return self.p[path.range]
        acc = self.s[path.edges[0]]
        for e in path.edges[1:]:
            acc = acc * self.s[e]
        return acc


def canonical_family(g: Graph) -> GeneratorFamily:
    return GeneratorFamily(
        index=g,
        p={v: vertex_projection(g, v) for v in g.vertices},
        s={e: path_isometry(g, e) for e in g.edges},
    )


def ck_defect(fam: GeneratorFamily, v: str) -> AlgebraElement:
    """p_v minus the sum of range projections over vE1 of the index graph."""
    acc = fam.p[v]
    for e in fam.index.in_edges(v):
        acc = acc - fam.s[e] * fam.s[e].adjoint()
    return acc


@lru_cache(maxsize=None)
def efree_rotation_by_source(g: Graph) -> Mapping[str, Path]:
    """The entrance-free rotation with source v, for each v on an entrance-free cycle."""
    out: dict[str, Path] = {}
    for cls in entrance_free_classes(g):
        for rot in cls.members:
            out[rot.source] = rot
    return out


def w_normal_form(g: Graph, p: Path) -> Path:
    """Strip the maximal trailing power of an entrance-free cycle.

    Writes p = p' mu^n with p' not ending in any entrance-free cycle and
    returns p'; idempotent by construction.
    """
    return strip_rotation(p, efree_rotation_by_source(g).get(p.source))


def strip_rotation(p: Path, rot: Path | None) -> Path:
    """p without its maximal trailing power of ``rot``, the entrance-free
    rotation at s(p) (p itself when there is none).  The rotation starts and
    ends at s(p), so one scan of p's edges from the end finds the power."""
    if rot is None:
        return p
    r, k = len(rot.edges), len(p.edges)
    while k >= r and p.edges[k - r:k] == rot.edges:
        k -= r
    return p if k == len(p.edges) else Path(p.edges[:k], p.vertices[:k + 1])


def element_w_normal_form(g: Graph, a: AlgebraElement) -> AlgebraElement:
    """Rewrite every key to W-normal form, combining like terms.

    Models the normalised quotient, where s_mu = p_{r(mu)} for entrance-free
    mu; the action in the omega representation is unchanged.
    """
    out: dict[tuple[Path, Path], object] = {}
    for (alpha, beta), c in a.terms.items():
        key = (w_normal_form(g, alpha), w_normal_form(g, beta))
        out[key] = exact.add(out[key], c) if key in out else c
    return AlgebraElement(out)


def diagonal(a: AlgebraElement) -> AlgebraElement:
    """The terms of ``a`` with alpha == beta."""
    return AlgebraElement({k: c for k, c in a.terms.items() if k[0] == k[1]})


def diag_expectation(g: Graph, a: AlgebraElement) -> AlgebraElement:
    """The diagonal compression: W-normalise, then keep keys with alpha == beta."""
    return diagonal(element_w_normal_form(g, a))
