"""Canonical encodings of boundary paths and their shift/prepend dynamics.

A boundary path is either a finite path stopping at a vertex that receives no
edges, or an eventually periodic infinite path ``prefix . period^inf`` whose
period is a simple cycle.  The canonical form absorbs the prefix maximally
into the periodic tail (the prefix never ends with the period's final edge),
which pins the rotation of the period; structural equality then coincides
with equality of the represented paths.

Aperiodic infinite paths are not first-class values: every bounded prefix of
a boundary path of a finite graph is realized by a finite or eventually
periodic test vector, and all operators in scope rewrite bounded prefixes
only, so an operator identity that fails on the boundary fails on a test
vector of large enough depth.  ``vector_layers`` lists those test vectors
lazily on the one path grower ``graph.path_layers``; operator equality itself
is decided in closed form (``reps.operator_equal``), and the test sets serve
only the search for the least witness of a relation that fails.  The
omega variant keeps only entrance-free periods; ``omega_supported`` reports
whether that restricted basis still reaches every vertex.  A vertex that
misses one of the graph's bottoms (``graph.bottoms``) witnesses
non-cofinality together with the boundary path ending there: the source
itself, or the periodic point of the component's cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cycles import component_cycle, entrance_free_classes, rotate, rotations, simple_cycles
from .graph import Graph, GraphError, Path, bottoms, path_key, path_layers, reach_map, sources


class ShiftExhausted(GraphError):
    """Shift applied to a length-zero finite boundary path."""


@dataclass(frozen=True)
class BoundaryPath:
    """Finite (``period is None``) or eventually periodic boundary path.

    Instances must be canonical; build them through ``finite_boundary``,
    ``canonicalize`` or the set generators rather than directly.
    """

    prefix: Path
    period: Path | None = None

    def __post_init__(self):
        if self.period is not None:
            per = self.period
            if per.is_empty or per.range != per.source:
                raise GraphError(f"period is not a cycle: {per}")
            if len(set(per.vertices[1:])) != len(per.edges):
                raise GraphError(f"period is not a simple cycle: {per}")
            if self.prefix.source != per.range:
                raise GraphError(
                    f"prefix {self.prefix} does not compose with period {per}"
                )
            if (
                not self.prefix.is_empty
                and self.prefix.edges[-1] == per.edges[-1]
            ):
                raise GraphError(
                    f"non-canonical encoding: prefix {self.prefix} absorbs "
                    f"into period {per}"
                )

    @property
    def range(self) -> str:
        return self.prefix.range

    def edge_at(self, i: int) -> str | None:
        """The i-th edge, 0-based from the range end; None past a finite end."""
        if i < len(self.prefix.edges):
            return self.prefix.edges[i]
        if self.period is None:
            return None
        j = (i - len(self.prefix.edges)) % len(self.period.edges)
        return self.period.edges[j]

    def vertex_at(self, n: int) -> str | None:
        """The vertex x(n) after n edges; None past the end of a finite path."""
        if n <= len(self.prefix.edges):
            return self.prefix.vertices[n]
        if self.period is None:
            return None
        j = (n - len(self.prefix.edges)) % len(self.period.edges)
        return self.period.vertices[j]

    def starts_with(self, p: Path) -> bool:
        if p.is_empty:
            return self.range == p.range
        if self.period is None and len(p.edges) > len(self.prefix.edges):
            return False
        return all(self.edge_at(i) == e for i, e in enumerate(p.edges))

    def strip(self, p: Path) -> "BoundaryPath":
        """The boundary path y with self = p.y; requires the prefix p."""
        if not self.starts_with(p):
            raise GraphError(f"{self} does not start with {p}")
        k = len(p.edges)
        if self.period is None:
            return BoundaryPath(self.prefix.strip_prefix(p))
        if k <= len(self.prefix.edges):
            return BoundaryPath(self.prefix.strip_prefix(p), self.period)
        rotated = rotate(self.period, k - len(self.prefix.edges))
        return BoundaryPath(Path((), (rotated.range,)), rotated)

    def sort_key(self):
        per = path_key(self.period) if self.period is not None else ()
        return (0 if self.period is None else 1, path_key(self.prefix), per)

    def render(self) -> str:
        if self.period is None:
            return f"{self.prefix.render()}|."
        pre = "" if self.prefix.is_empty else self.prefix.render()
        return f"{pre}|({self.period.render()})"

    def __str__(self) -> str:
        return self.render()


def finite_boundary(g: Graph, p: Path) -> BoundaryPath:
    """A finite boundary path; its source vertex must receive no edges."""
    if g.in_edges(p.source):
        raise GraphError(
            f"{p} is not a boundary path: vertex {p.source} receives edges"
        )
    return BoundaryPath(p)


def canonicalize(prefix: Path, period: Path) -> BoundaryPath:
    """Canonical form of prefix . period^inf (maximal prefix absorption)."""
    if period.is_empty or period.range != period.source:
        raise GraphError(f"period is not a cycle: {period}")
    if prefix.source != period.range:
        raise GraphError(f"prefix {prefix} does not compose with period {period}")
    # k trailing prefix edges that read the period backwards absorb into it
    k, n, m = 0, len(period.edges), len(prefix.edges)
    while k < m and prefix.edges[m - 1 - k] == period.edges[-1 - k % n]:
        k += 1
    pre = Path(prefix.edges[: m - k], prefix.vertices[: m - k + 1]) if k else prefix
    return BoundaryPath(pre, rotate(period, -k))


def shift(x: BoundaryPath) -> BoundaryPath:
    """Drop the range-most edge; exhausts on an empty finite path."""
    e = x.edge_at(0)
    if e is None:
        raise ShiftExhausted(f"cannot shift the empty path at {x.range}")
    head = Path((e,), (x.range, x.vertex_at(1)))
    return x.strip(head)


def prepend(p: Path, x: BoundaryPath) -> BoundaryPath:
    """Canonical form of p.x; requires source(p) == range(x)."""
    if p.source != x.range:
        raise GraphError(f"{p} does not compose with {x}")
    if x.period is None:
        return BoundaryPath(p.concat(x.prefix))
    return canonicalize(p.concat(x.prefix), x.period)


def vector_layers(g: Graph, depth: int, omega: bool = False):
    """The boundary test set of ``depth``, one sorted layer at a time, each
    with the number of paths and vectors generated for it: finite paths from
    the sources by length, then the canonical pairs (prefix, period) by
    prefix length, with every rotation of a simple cycle as period (on omega,
    of an entrance-free one).  A non-canonical pair canonicalizes to one with
    a shorter prefix, so these are the canonical forms of all pairs with
    prefix length <= depth; the set is closed under shift."""
    for layer in path_layers(g, sources(g), depth):
        yield map(BoundaryPath, layer), len(layer)
    if omega:
        periods = [rot for cls in entrance_free_classes(g) for rot in cls.members]
    else:
        periods = [rot for c in simple_cycles(g) for rot in rotations(c)]
    at: dict[str, list[Path]] = {}
    for per in periods:
        at.setdefault(per.range, []).append(per)
    for layer in path_layers(g, at, depth):  # grown at the range end, so sources stay
        vectors = [BoundaryPath(p, per) for p in layer for per in at[p.source]
                   if p.is_empty or p.edges[-1] != per.edges[-1]]  # canonical pairs only
        yield sorted(vectors, key=BoundaryPath.sort_key), len(layer) + len(vectors)


@lru_cache(maxsize=None)
def boundary_set(g: Graph, depth: int) -> tuple[BoundaryPath, ...]:
    """The boundary test set of ``depth`` (``vector_layers``) as one tuple."""
    return tuple(x for layer, _ in vector_layers(g, depth) for x in layer)


@lru_cache(maxsize=None)
def omega_set(g: Graph, depth: int) -> tuple[BoundaryPath, ...]:
    """The omega test set of ``depth`` (``vector_layers``) as one tuple."""
    return tuple(x for layer, _ in vector_layers(g, depth, omega=True) for x in layer)


def omega_supported(g: Graph) -> bool:
    """Whether every vertex ranges a representable omega member, i.e. reaches
    a source or an entrance-free cycle.  Where this fails, the genuine omega
    space at some vertex consists purely of aperiodic paths, which have no
    finite encoding here."""
    rm = reach_map(g)
    targets = set(sources(g))
    for cls in entrance_free_classes(g):
        targets |= cls.vertex_set
    return all(rm[v] & targets for v in g.vertices)


def noncofinal_witness(g: Graph) -> tuple[str, BoundaryPath] | None:
    """A pair (v, x) with no path from any x(n) to v when the graph is not
    cofinal; None otherwise.  v is the first vertex missing a bottom, and x
    ends in the first bottom it misses."""
    rm = reach_map(g)
    ends = bottoms(g)
    for v in g.vertices:
        for b in ends:
            if b & rm[v]:
                continue
            w = min(b)
            if not g.in_edges(w):
                return v, BoundaryPath(g.empty_path(w))
            cyc = component_cycle(g, b)
            return v, BoundaryPath(g.empty_path(cyc.range), cyc)
    return None
