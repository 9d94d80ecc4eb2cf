"""Graph transforms and symbolic ideal generators.

* The Toeplitz graph of E doubles every edge-receiving vertex with a source
  twin, so the universal algebra of the transform models the Toeplitz algebra
  of E; the dictionary family realizes that identification.
* The reduced graph deletes a cutting set, leaving no entrance-free cycles.
* Ideal generator sets pin each entrance-free cycle to a phase multiple of
  its range projection, on top of the Cuntz-Krieger defect projections.
* The gauge rescaling multiplies each cutting edge by the conjugate phase of
  its class.  It carries each untwisted pin onto a unit multiple of the
  twisted pin and fixes every defect; both are identities of ``twist``
  (see ``GeneratorRescaling``), so no call re-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import exact
from .algebra import (
    AlgebraElement,
    GeneratorFamily,
    canonical_family,
    ck_defect,
    path_isometry,
    vertex_projection,
)
from .cycles import (
    CycleClass,
    checked_cutting_set,
    cycle_class,
    entrance_free_classes,
)
from .exact import Cyclotomic, Phase, as_phase
from .graph import Graph, GraphError, Path


ALPHA = "alpha:"
BETA = "beta:"
ZETA = "zeta:"


@dataclass(frozen=True, eq=False)
class ToeplitzGraph:
    """The doubled graph together with its vertex/edge injections."""

    graph: Graph
    base: Graph
    alpha_v: Mapping[str, str]
    beta_v: Mapping[str, str]
    alpha_e: Mapping[str, str]
    beta_e: Mapping[str, str]

    def alpha_path(self, p: Path) -> Path:
        edges = tuple(self.alpha_e[e] for e in p.edges)
        vertices = tuple(self.alpha_v[v] for v in p.vertices)
        return Path(edges, vertices)


def toeplitz_graph(g: Graph) -> ToeplitzGraph:
    """Double each edge-receiving vertex with a fresh source twin.

    Every beta vertex is a source of the result, and the cycles of the result
    are exactly the alpha copies of the cycles of the input.
    """
    alpha_v = {v: ALPHA + v for v in g.vertices}
    beta_v = {v: BETA + v for v in g.vertices if g.in_edges(v)}
    alpha_e = {e: ALPHA + e for e in g.edges}
    beta_e = {e: BETA + e for e in g.edges if g.in_edges(g.source_of(e))}
    vertices = list(alpha_v.values()) + list(beta_v.values())
    edges = []
    for e in g.edges:
        r, s = g.range_of(e), g.source_of(e)
        edges.append((alpha_e[e], alpha_v[s], alpha_v[r]))
        if e in beta_e:
            edges.append((beta_e[e], beta_v[s], alpha_v[r]))
    return ToeplitzGraph(
        graph=Graph(vertices, edges),
        base=g,
        alpha_v=alpha_v,
        beta_v=beta_v,
        alpha_e=alpha_e,
        beta_e=beta_e,
    )


@dataclass(frozen=True, eq=False)
class ReducedGraph:
    """The graph with a cutting set removed; no entrance-free cycles remain."""

    graph: Graph
    base: Graph
    cutting_set: tuple[str, ...]
    zeta_v: Mapping[str, str]
    zeta_e: Mapping[str, str]


def reduced_graph(g: Graph, cutting_set) -> ReducedGraph:
    chosen = checked_cutting_set(g, cutting_set)
    zeta_v = {v: ZETA + v for v in g.vertices}
    zeta_e = {e: ZETA + e for e in g.edges if e not in set(chosen)}
    edges = [
        (zeta_e[e], zeta_v[g.source_of(e)], zeta_v[g.range_of(e)])
        for e in g.edges
        if e in zeta_e
    ]
    return ReducedGraph(
        graph=Graph(list(zeta_v.values()), edges),
        base=g,
        cutting_set=chosen,
        zeta_v=zeta_v,
        zeta_e=zeta_e,
    )


def rational_phase(value):
    """``as_phase(value)``, refusing an exact unit of infinite order (such as
    3/5+4/5i), which no rational turn names; complex units pass through."""
    ph = as_phase(value)
    if isinstance(ph, Cyclotomic):
        raise GraphError(f"exact phase {ph!r} is a unit of infinite order, not a rational phase")
    return ph


def class_phases(g: Graph, kappa) -> dict[CycleClass, Phase]:
    """Normalize a phase assignment onto the entrance-free classes.

    Accepts a single phase (constant function), a mapping keyed by
    CycleClass, by canonical-rotation edge tuple, or by cutting-set edge.
    A mapping names every class with exactly one key, and no other key.
    """
    classes = entrance_free_classes(g)
    if isinstance(kappa, (Phase, Cyclotomic, int, Fraction, str)):
        ph = rational_phase(kappa)
        return {cls: ph for cls in classes}
    out: dict[CycleClass, Phase] = {}
    for key, value in dict(kappa).items():
        cls = next((c for c in classes if key in (c, c.representative.edges)
                    or (isinstance(key, str) and key in c.edge_set)), None)
        if cls is None:
            raise GraphError(f"kappa key {key!r} names no entrance-free class")
        if cls in out:
            raise GraphError(f"kappa names class {cls.representative.render()!r} twice")
        out[cls] = rational_phase(value)
    for cls in classes:
        if cls not in out:
            raise GraphError(f"phase assignment misses class {cls.representative.render()}")
    return {cls: out[cls] for cls in classes}


@dataclass(frozen=True, eq=False)
class IdealGenerators:
    """Symbolic generator set for the relation ideal of a phase assignment.

    ``delta_style`` is "defect" when the delta generators are the
    Cuntz-Krieger defects p_v - sum s_e s_e^* over ``graph``, and
    "projection" when they are plain vertex projections (the doubled-graph
    picture, where the defect equals the twin-source projection).
    """

    graph: Graph
    delta_vertices: tuple[str, ...]
    pins: tuple[tuple[Phase, CycleClass], ...]
    delta_style: str

    def elements(self) -> list[AlgebraElement]:
        fam = canonical_family(self.graph)
        out: list[AlgebraElement] = []
        for v in self.delta_vertices:
            if self.delta_style == "defect":
                out.append(ck_defect(fam, v))
            else:
                out.append(vertex_projection(self.graph, v))
        for phase, cls in self.pins:  # kappa(C) p_{r(mu)} - s_mu
            for mu in cls.members:
                pin = vertex_projection(self.graph, mu.range).scaled(phase)
                out.append(pin - path_isometry(self.graph, mu))
        return out

    def describe(self) -> list[str]:
        out = []
        for v in self.delta_vertices:
            out.append(f"delta[{v}]" if self.delta_style == "defect" else f"p[{v}]")
        for phase, cls in self.pins:
            coeff = exact.from_phase(phase).render(polar=True)
            head = "" if phase.is_one else f"{coeff} * "
            for mu in cls.members:
                out.append(f"{head}p[{mu.range}] - s[{mu.render()}]")
        return out


def ikappa_generators(g: Graph, kappa) -> IdealGenerators:
    """Defect projections plus one phase pin per rotation of each class.

    Any single rotation per class generates the same ideal; emitting all of
    them makes the downstream vanishing checks stronger.
    """
    phases = class_phases(g, kappa)
    return IdealGenerators(
        graph=g,
        delta_vertices=tuple(v for v in g.vertices if g.in_edges(v)),
        pins=tuple((phases[cls], cls) for cls in entrance_free_classes(g)),
        delta_style="defect",
    )


def jkappa_generators(tg: ToeplitzGraph, kappa) -> IdealGenerators:
    """The same ideal in the doubled-graph picture: twin-source projections
    plus pins on the alpha copies of the entrance-free cycles."""
    phases = class_phases(tg.base, kappa)
    pins = []
    for cls in entrance_free_classes(tg.base):
        alpha_cls = cycle_class(tg.alpha_path(cls.representative))
        pins.append((phases[cls], alpha_cls))
    return IdealGenerators(
        graph=tg.graph,
        delta_vertices=tuple(sorted(tg.beta_v.values())),
        pins=tuple(pins),
        delta_style="projection",
    )


def toeplitz_family(tg: ToeplitzGraph) -> GeneratorFamily:
    """The dictionary family over the doubled graph, indexed by the base:
    q_v sums the twin projections and t_e the twin isometries."""
    g = tg.base
    p: dict[str, AlgebraElement] = {}
    s: dict[str, AlgebraElement] = {}
    for v in g.vertices:
        q = vertex_projection(tg.graph, tg.alpha_v[v])
        if v in tg.beta_v:
            q = q + vertex_projection(tg.graph, tg.beta_v[v])
        p[v] = q
    for e in g.edges:
        t = path_isometry(tg.graph, tg.alpha_e[e])
        if e in tg.beta_e:
            t = t + path_isometry(tg.graph, tg.beta_e[e])
        s[e] = t
    return GeneratorFamily(index=g, p=p, s=s)


def twist(c, alpha: Path, beta: Path, phases: Mapping[str, object]):
    """``c`` times the phase of each edge of alpha and the conjugate phase of
    each edge of beta, over the edges that ``phases`` covers."""
    for e in alpha.edges:
        if e in phases:
            c = exact.times_phase(c, phases[e])
    for e in beta.edges:
        if e in phases:
            c = exact.times_phase(c, phases[e].conjugate())
    return c


@dataclass(frozen=True, eq=False)
class GeneratorRescaling:
    """The gauge correspondence fixing p_v and s_e off the cutting set and
    rescaling each cutting edge by the conjugate phase.

    A cutting set has exactly one edge in each entrance-free class, so every
    rotation mu of a class C crosses it once, and the rescaling maps each
    untwisted pin onto a unit multiple of the twisted one:
    rescale(p_{r(mu)} - s_mu) = conj kappa(C) (kappa(C) p_{r(mu)} - s_mu).
    Each term s_e s_e^* of a Cuntz-Krieger defect carries e on both sides,
    so the rescaling fixes every defect.
    """

    graph: Graph
    cutting_set: tuple[str, ...]
    edge_phases: Mapping[str, Phase]

    def rescale_element(self, a: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            {(al, be): twist(c, al, be, self.edge_phases) for (al, be), c in a.terms.items()}
        )


def rescale_generators(g: Graph, cutting_set, kappa) -> GeneratorRescaling:
    """The correspondence for a phase assignment on a cutting set: a single
    phase, or a mapping defined exactly on the cutting-set edges."""
    chosen = checked_cutting_set(g, cutting_set)
    if isinstance(kappa, Mapping):
        if set(kappa) != set(chosen):
            raise GraphError("kappa must be defined exactly on the cutting set")
        table = {x: rational_phase(kappa[x]) for x in chosen}
    else:
        constant = rational_phase(kappa)
        table = {x: constant for x in chosen}
    edge_phases = {x: table[x].conjugate() for x in chosen}
    return GeneratorRescaling(graph=g, cutting_set=chosen, edge_phases=edge_phases)
