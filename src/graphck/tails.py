"""Maximal tails and the primitive-ideal catalog of a finite graph.

A maximal tail is a vertex set M that is (MT1) closed under taking ranges of
paths into M, (MT2) extendable inside M at every edge-receiving vertex, and
(MT3) downward directed.  A tail is circle-type when it contains a cycle with
no entrance inside M (necessarily unique up to rotation), gauge-type
otherwise; the catalog lists one symbolic primitive-ideal descriptor per
tail, with a free circle parameter z on the circle-type ones.

On a finite graph the maximal tails correspond one-to-one to the *bottoms* a
boundary path can end in (``graph.bottoms``): the sources of the graph and
the strongly connected components that carry a cycle.  The tail of a bottom
B is the set of vertices B reaches, ``{v : reach_map(g)[v] & B}``.  It is
circle-type exactly when B carries exactly |B| internal edges: B is then the
vertex set of one cycle (``cycles.component_cycle``), and no edge from inside
the tail enters it.  Any other cycle in the tail has an entrance there.  See
Bates, Hong, Raeburn and Szymanski, The ideal structure of the C*-algebras of
infinite graphs, Illinois J. Math. 46 (2002), and Hong and Szymanski, The
primitive ideal space of the C*-algebras of infinite graphs, J. Math. Soc.
Japan 56 (2004).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import CycleClass, component_cycle, cycle_class, entrance_free_classes
from .graph import Graph, GraphError, bottoms, reach_map
from .transform import ToeplitzGraph

GAMMA = "gamma"
TAU = "tau"


@dataclass(frozen=True)
class MaximalTail:
    vertices: frozenset[str]
    kind: str
    cycle_class: CycleClass | None = None

    def sort_key(self):
        return (len(self.vertices), tuple(sorted(self.vertices)))


@dataclass(frozen=True)
class PrimIdealDescriptor:
    """Either a gauge-invariant ideal (projections off the tail) or a
    circle family with symbolic parameter z pinning the tail's cycle."""

    kind: str
    tail: MaximalTail
    generators: tuple[str, ...]


def is_maximal_tail(g: Graph, vertex_set) -> bool:
    """Direct MT1-MT3 validation, independent of the bottom construction."""
    m = set(vertex_set)
    if not m or not m <= set(g.vertices):
        return False
    rm = reach_map(g)
    for w in m:
        for v in g.vertices:
            if w in rm[v] and v not in m:
                return False
    for v in m:
        incoming = g.in_edges(v)
        if incoming and not any(g.source_of(e) in m for e in incoming):
            return False
    return all(rm[u] & rm[v] & m for u in m for v in m)


def _tail_of_bottom(g: Graph, bottom: frozenset[str]) -> MaximalTail:
    rm = reach_map(g)
    members = frozenset(v for v in g.vertices if rm[v] & bottom)
    internal = [
        e for v in bottom for e in g.in_edges(v) if g.source_of(e) in bottom
    ]
    if len(internal) != len(bottom):  # a source, or a component with a branch
        return MaximalTail(members, GAMMA)
    # every vertex of the bottom receives exactly one internal edge
    return MaximalTail(members, TAU, cycle_class(component_cycle(g, bottom)))


def maximal_tails(g: Graph) -> list[MaximalTail]:
    """All maximal tails, classified, in deterministic order: one per source
    and one per cyclic strongly connected component."""
    return sorted(
        (_tail_of_bottom(g, b) for b in bottoms(g)), key=MaximalTail.sort_key
    )


def classify_tail(g: Graph, vertex_set) -> MaximalTail:
    """The maximal tail with exactly these vertices, with its kind."""
    m = frozenset(vertex_set)
    for tail in maximal_tails(g):
        if tail.vertices == m:
            return tail
    raise GraphError(f"{sorted(m)} is not a maximal tail")


def tail_of_class(tg: ToeplitzGraph, cls: CycleClass) -> MaximalTail:
    """The circle-type tail of the doubled graph attached to an entrance-free
    class of the base: the alpha copies of the vertices reaching the cycle."""
    base = tg.base
    if cls.representative.edges not in {
        c.representative.edges for c in entrance_free_classes(base)
    }:
        raise GraphError(
            f"{cls.representative.render()} is not an entrance-free class"
        )
    rm = reach_map(base)
    members = frozenset(tg.alpha_v[v] for v in base.vertices if rm[v] & cls.vertex_set)
    return MaximalTail(members, TAU, cycle_class(tg.alpha_path(cls.representative)))


def prim_ideal_catalog(g: Graph) -> list[PrimIdealDescriptor]:
    """One descriptor per tail, in the order of ``maximal_tails``:
    projections off the tail, plus the symbolic circle pin
    z * p_{r(mu)} - s_mu for circle-type tails."""
    out = []
    for tail in maximal_tails(g):
        gens = tuple(f"p[{w}]" for w in g.vertices if w not in tail.vertices)
        if tail.kind == TAU:
            mu = tail.cycle_class.representative
            gens = gens + (f"z * p[{mu.range}] - s[{mu.render()}]",)
            out.append(PrimIdealDescriptor("circle", tail, gens))
        else:
            out.append(PrimIdealDescriptor("gauge", tail, gens))
    return out
