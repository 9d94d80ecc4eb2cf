"""Simple cycles, entrance-free cycle classes, cutting sets.

A cycle is a path mu with range(mu) == source(mu) whose edge sources are
pairwise distinct.  Its class [mu] collects all cyclic rotations; the class
is entrance-free when every edge pointing at a cycle vertex is itself a cycle
edge.  A cutting set picks exactly one edge from each entrance-free class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph, GraphError, Path, path_key


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


def rotations(cycle: Path) -> list[Path]:
    """All cyclic rotations of a cycle, as paths."""
    n = len(cycle.edges)
    out = []
    for k in range(n):
        edges = cycle.edges[k:] + cycle.edges[:k]
        vertices = cycle.vertices[k:] + cycle.vertices[1 : k + 1]
        out.append(Path(edges, vertices))
    return out


def canonical_rotation(cycle: Path) -> Path:
    """The lexicographically least rotation by edge ids; fixes report order."""
    return min(rotations(cycle), key=lambda p: p.edges)


@dataclass(frozen=True)
class CycleClass:
    """A cycle up to rotation, canonically represented."""

    representative: Path
    members: tuple[Path, ...]
    vertex_set: frozenset[str]
    edge_set: frozenset[str]


def cycle_class(cycle: Path) -> CycleClass:
    check_cycle(cycle)
    rots = rotations(cycle)
    rep = min(rots, key=lambda p: p.edges)
    return CycleClass(
        representative=rep,
        members=tuple(sorted(rots, key=path_key)),
        vertex_set=frozenset(cycle.vertices[1:]),
        edge_set=frozenset(cycle.edges),
    )


def simple_cycles(g: Graph, guard: int = CYCLE_GUARD) -> list[Path]:
    """All simple cycles, one canonical rotation each, deterministic order.

    DFS rooted at each vertex in id order, extending only through strictly
    larger vertices, so every cycle is discovered exactly once at its least
    vertex.  Counts above ``guard`` abort with CycleCountError.
    """
    found: list[Path] = []
    for root in g.vertices:
        # stack entries: (edges so far, current source vertex, blocked vertices)
        stack: list[tuple[tuple[str, ...], str, frozenset[str]]] = [
            ((), root, frozenset({root}))
        ]
        while stack:
            edges, cur, blocked = stack.pop()
            for e in g.in_edges(cur):
                w = g.source_of(e)
                if w == root:
                    found.append(canonical_rotation(g.path(edges + (e,))))
                    if len(found) > guard:
                        raise CycleCountError(
                            f"more than {guard} simple cycles; aborting"
                        )
                elif w > root and w not in blocked:
                    stack.append((edges + (e,), w, blocked | {w}))
    return sorted(found, key=path_key)


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

    A cycle is entrance-free iff each of its vertices receives exactly its
    one cycle edge, so the classes are found by chasing unique in-edges; no
    full cycle enumeration is needed.
    """
    classes: dict[tuple[str, ...], CycleClass] = {}
    visited: set[str] = set()
    for v in g.vertices:
        if v in visited:
            continue
        trail: list[str] = []
        pos: dict[str, int] = {}
        cur = v
        while (
            cur not in pos
            and cur not in visited
            and len(g.in_edges(cur)) == 1
        ):
            pos[cur] = len(trail)
            trail.append(g.in_edges(cur)[0])
            cur = g.source_of(trail[-1])
        visited.update(pos)
        if cur in pos:
            cyc = g.path(trail[pos[cur]:])
            cls = cycle_class(cyc)
            classes.setdefault(cls.representative.edges, cls)
    return tuple(
        classes[k] for k in sorted(classes, key=lambda edges: (len(edges), edges))
    )


def cutting_sets(g: Graph) -> list[tuple[str, ...]]:
    """Every choice of one edge per entrance-free class, sorted."""
    classes = entrance_free_classes(g)
    pools = [sorted(cls.edge_set) for cls in classes]
    out = [tuple(sorted(choice)) for choice in itertools.product(*pools)]
    return sorted(out)


def canonical_cutting_set(g: Graph) -> tuple[str, ...]:
    """The lexicographically least edge from each class."""
    return tuple(sorted(min(cls.edge_set) for cls in entrance_free_classes(g)))


def is_cutting_set(g: Graph, edges) -> bool:
    chosen = set(edges)
    classes = entrance_free_classes(g)
    if not all(len(chosen & cls.edge_set) == 1 for cls in classes):
        return False
    covered = set().union(*(cls.edge_set for cls in classes)) if classes else set()
    return chosen <= covered


def class_of_edge(g: Graph, x: str) -> CycleClass:
    for cls in entrance_free_classes(g):
        if x in cls.edge_set:
            return cls
    raise GraphError(f"edge {x!r} lies on no entrance-free cycle")


def mu_lambda(g: Graph, x: str) -> tuple[Path, Path]:
    """The rotation mu(x) starting with x, and lambda(x) with mu(x) = x lambda(x)."""
    cls = class_of_edge(g, x)
    for rot in cls.members:
        if rot.edges[0] == x:
            mu = rot
            break
    else:  # pragma: no cover - classes always contain each edge once
        raise GraphError(f"edge {x!r} missing from its class")
    lam = Path(mu.edges[1:], mu.vertices[1:])
    return mu, lam
