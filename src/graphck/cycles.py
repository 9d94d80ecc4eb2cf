"""Simple cycles, entrance-free cycle classes, cutting sets.

A cycle is a path mu with range(mu) == source(mu) whose edge sources are
pairwise distinct, so its edges are distinct too.  Its class [mu] collects
all cyclic rotations (each built by ``rotate``) and is named by its least
rotation by edge ids, the one that starts at its least edge.  The class is
entrance-free when every edge pointing at a cycle vertex is itself a cycle
edge.  A cutting set picks exactly one edge from each entrance-free class.

Every cycle lies inside one cyclic strongly connected component, so the cycle
structure is read from those components: ``component_cycle`` picks one cycle
of a component, an entrance-free cycle is a whole component in which every
vertex receives exactly one edge, and ``simple_cycles`` searches each
component on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph, GraphError, Path, cyclic_components, path_key


class CycleCountError(GraphError):
    """Raised when simple-cycle enumeration exceeds the configured guard."""


CYCLE_GUARD = 100_000


def is_cycle(p: Path) -> bool:
    if p.is_empty or p.range != p.source:
        return False
    srcs = p.vertices[1:]
    return len(srcs) == len(set(srcs))


def check_cycle(p: Path) -> Path:
    if not is_cycle(p):
        raise GraphError(f"not a simple cycle: {p}")
    return p


def rotate(cycle: Path, k: int) -> Path:
    """The rotation of a closed path that starts at its edge k (mod its length)."""
    k %= len(cycle.edges)
    if not k:
        return cycle
    return Path(cycle.edges[k:] + cycle.edges[:k], cycle.vertices[k:] + cycle.vertices[1 : k + 1])


def rotations(cycle: Path) -> list[Path]:
    """All cyclic rotations of a cycle, as paths."""
    return [rotate(cycle, k) for k in range(len(cycle.edges))]


def canonical_rotation(cycle: Path) -> Path:
    """The least rotation by edge ids, which fixes report order.  The edges of
    a simple cycle are distinct, so it is the rotation that starts at the
    least edge; a path that is not a simple cycle raises GraphError."""
    check_cycle(cycle)
    return rotate(cycle, cycle.edges.index(min(cycle.edges)))


@dataclass(frozen=True)
class CycleClass:
    """A cycle up to rotation, canonically represented."""

    representative: Path
    members: tuple[Path, ...]
    vertex_set: frozenset[str]
    edge_set: frozenset[str]


def cycle_class(cycle: Path) -> CycleClass:
    return CycleClass(
        representative=canonical_rotation(cycle),
        members=tuple(sorted(rotations(cycle), key=path_key)),
        vertex_set=frozenset(cycle.vertices[1:]),
        edge_set=frozenset(cycle.edges),
    )


@lru_cache(maxsize=None)
def simple_cycles(g: Graph) -> tuple[Path, ...]:
    """All simple cycles, one canonical rotation each, in ``path_key`` order.

    Within each cyclic component, a DFS rooted at each vertex extends only
    through strictly larger vertices of that component, so every cycle is
    discovered exactly once at its least vertex and no path leaves the
    component it started in.  Counts above ``CYCLE_GUARD`` abort with
    CycleCountError.
    """
    found: list[Path] = []
    for comp in cyclic_components(g):
        for root in sorted(comp):
            # stack entries: the path so far, as its edges and its vertices
            stack = [((), (root,))]
            while stack:
                edges, vertices = stack.pop()
                for e in g.in_edges(vertices[-1]):
                    w = g.source_of(e)
                    if w == root:
                        found.append(canonical_rotation(Path(edges + (e,), vertices + (w,))))
                        if len(found) > CYCLE_GUARD:
                            raise CycleCountError(f"more than {CYCLE_GUARD} simple cycles; aborting")
                    elif w > root and w in comp and w not in vertices:
                        stack.append((edges + (e,), vertices + (w,)))
    return tuple(sorted(found, key=path_key))


def component_cycle(g: Graph, comp: frozenset[str]) -> Path:
    """One cycle of the cyclic component ``comp``: from its least vertex,
    follow the first in-edge whose source stays in ``comp`` until a vertex
    repeats."""
    pos: dict[str, int] = {}
    edges: list[str] = []
    u = min(comp)
    while u not in pos:
        pos[u] = len(edges)
        edges.append(next(e for e in g.in_edges(u) if g.source_of(e) in comp))
        u = g.source_of(edges[-1])
    return g.path(edges[pos[u]:])


def has_entrance_in(g: Graph, cycle: Path, vertex_set) -> bool:
    """Whether some non-cycle edge points at a cycle vertex from inside
    ``vertex_set``; requires the cycle vertices to lie in ``vertex_set``."""
    check_cycle(cycle)
    members = set(vertex_set)
    cyc_vertices = set(cycle.vertices[1:])
    if not cyc_vertices <= members:
        raise GraphError("cycle vertices must lie inside the tested vertex set")
    cyc_edges = set(cycle.edges)
    for v in cyc_vertices:
        for e in g.in_edges(v):
            if e not in cyc_edges and g.source_of(e) in members:
                return True
    return False


@lru_cache(maxsize=None)
def entrance_free_classes(g: Graph) -> tuple[CycleClass, ...]:
    """The classes of cycles with no entrance anywhere in the graph.

    A cyclic component in which every vertex receives exactly one edge is
    one cycle with no entrance, and an entrance-free cycle is its own
    component (nothing outside it reaches it), so no cycle enumeration is
    needed.
    """
    classes = [
        cycle_class(component_cycle(g, comp))
        for comp in cyclic_components(g)
        if all(len(g.in_edges(v)) == 1 for v in comp)
    ]
    return tuple(
        sorted(classes, key=lambda c: (len(c.representative.edges), c.representative.edges))
    )


def canonical_cutting_set(g: Graph) -> tuple[str, ...]:
    """The lexicographically least edge from each class."""
    return tuple(sorted(min(cls.edge_set) for cls in entrance_free_classes(g)))


def is_cutting_set(g: Graph, edges) -> bool:
    """Whether ``edges`` names one edge of each entrance-free class, each edge
    once, and no other edge."""
    edges = tuple(edges)
    chosen = set(edges)
    if len(chosen) != len(edges):
        return False
    classes = entrance_free_classes(g)
    if not all(len(chosen & cls.edge_set) == 1 for cls in classes):
        return False
    covered = set().union(*(cls.edge_set for cls in classes)) if classes else set()
    return chosen <= covered


def checked_cutting_set(g: Graph, edges) -> tuple[str, ...]:
    """The edges, sorted, when they form a cutting set of ``g``; else a
    GraphError naming them as ``--cutting-set`` takes them (``l1,l2``).  A
    set names each edge once, and no edge has an empty name."""
    chosen = tuple(sorted(edges))
    if "" in chosen:
        raise GraphError("cutting set names an empty edge")
    for a, b in zip(chosen, chosen[1:]):
        if a == b:
            raise GraphError(f"cutting set names edge {a!r} twice")
    if not is_cutting_set(g, chosen):
        raise GraphError(f"{','.join(chosen) or 'the empty edge set'} is not a cutting set")
    return chosen


def class_of_edge(g: Graph, x: str) -> CycleClass:
    for cls in entrance_free_classes(g):
        if x in cls.edge_set:
            return cls
    raise GraphError(f"edge {x!r} lies on no entrance-free cycle")


def mu_lambda(g: Graph, x: str) -> tuple[Path, Path]:
    """The rotation mu(x) starting with x, and lambda(x) with mu(x) = x lambda(x)."""
    rep = class_of_edge(g, x).representative
    mu = rotate(rep, rep.edges.index(x))
    return mu, Path(mu.edges[1:], mu.vertices[1:])
