"""Representations on path and boundary bases, relation verification, and
the de-twisting map realizing co-universality on concrete families.

Each generator acts as a weighted partial shift on a basis of paths
(left-regular) or boundary paths (boundary / omega / twisted boundary):
s_alpha s_beta^* sends xi_{beta.y} to xi_{alpha.y} and kills everything
else.  The twisted kind multiplies by a unit phase per cutting-set edge
traversed in alpha and by the conjugate per edge in beta.

Operator equality is decided in closed form on every input.  On the
left-regular representation the monomials s_alpha s_beta^* are linearly
independent (the Cohn path algebra basis): equal operators are equal
elements.  The boundary, omega and twisted boundary representations satisfy
the Cuntz-Krieger relation at every receiving vertex (a twisted element is
first rescaled by kappa(alpha) * conj kappa(beta) per term): each beta is
extended through the in-edges of its source until every beta has the longest
length L or starts at a source, which makes the cylinders Z(beta) disjoint,
so the difference vanishes exactly when every column sum_alpha c_alpha
s_alpha vanishes on the paths y at w = s(beta).  When the in-edge chase from
w is forced (one in-edge at each step, ending at a source or around an
entrance-free cycle), w carries the single boundary path y_w, and alpha.y_w
= alpha'.y_w exactly when alpha and alpha' agree once stripped of trailing
powers of the entrance-free rotation at w (``w_normal_form``, which strips
nothing unless w lies on that cycle).  Otherwise some boundary path y at w
is not purely periodic at w, the outputs alpha.y are distinct, and w lies on
no entrance-free cycle.  So the operators agree exactly when the refined
elements agree after ``w_normal_form`` on every alpha.  Omega follows the
same rule: a vertex on an entrance-free cycle is forced, and elsewhere no
omega path is purely periodic while ``omega_supported`` keeps the omega
space at w nonempty.

Test sets serve ``verify_relations`` and ``extract_kappa`` (up to
``WORK_BUDGET``); ``deep_walk_equal`` decides equality on seeded random walks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from . import exact
from .algebra import (
    AlgebraElement,
    GeneratorFamily,
    canonical_family,
    ck_defect,
    w_normal_form,
)
from .boundary import (
    BoundaryPath,
    boundary_set,
    canonicalize,
    omega_set,
    omega_supported,
    prepend,
)
from .cycles import (
    class_of_edge,
    entrance_free_classes,
    is_cutting_set,
    rotations,
    simple_cycles,
)
from .exact import COMPLEX, EXACT, Phase, as_phase
from .graph import Graph, GraphError, Path, enumerate_paths, sources
from .transform import GeneratorRescaling, twist

LEFT_REGULAR = "left-regular"
BOUNDARY = "boundary"
OMEGA = "omega"
TWISTED = "twisted"

TCK = "tck"
CK = "ck"
REDUCED = "reduced"
NORMALIZED = "normalized"

LEVELS = (TCK, CK, REDUCED, NORMALIZED)

DEEP_WALK_SEED = 101
DEEP_WALK_COUNT = 200
WORK_BUDGET = 200_000


class NotReducedError(GraphError):
    """A cycle isometry failed to act as a scalar on its periodic point."""


class WorkBudgetError(GraphError):
    """A test set would cost more than ``WORK_BUDGET`` to build and scan."""


class Representation:
    """Immutable descriptor: kind, graph, and (for twisted) edge phases."""

    __slots__ = ("kind", "graph", "kappa", "cutting_set", "mode")

    def __init__(self, kind, graph, kappa=None, cutting_set=(), mode=EXACT):
        self.kind = kind
        self.graph = graph
        self.kappa = dict(kappa) if kappa else {}
        self.cutting_set = tuple(cutting_set)
        self.mode = mode

    def __repr__(self):
        extra = f", kappa={self.kappa}" if self.kappa else ""
        return f"Representation({self.kind}, {self.graph!r}{extra})"


def left_regular(g: Graph) -> Representation:
    return Representation(LEFT_REGULAR, g)


def boundary(g: Graph) -> Representation:
    return Representation(BOUNDARY, g)


def omega(g: Graph) -> Representation:
    if not omega_supported(g):
        raise GraphError(
            "omega basis cannot represent this graph faithfully: some vertex "
            "reaches neither a source nor an entrance-free cycle"
        )
    return Representation(OMEGA, g)


def twisted_boundary(g: Graph, kappa, cutting_set=None) -> Representation:
    """Boundary representation with cutting-set generators rescaled by kappa.

    ``kappa`` maps cutting-set edges to exact phases (rational turns) or, for
    the inexact mode, to complex units.
    """
    table = dict(kappa)
    chosen = tuple(sorted(table)) if cutting_set is None else tuple(sorted(cutting_set))
    if set(table) != set(chosen):
        raise GraphError("kappa must be defined exactly on the cutting set")
    if not is_cutting_set(g, chosen):
        raise GraphError(f"{chosen} is not a cutting set")
    if not any(isinstance(v, (complex, float)) for v in table.values()):
        phases = {e: as_phase(v) for e, v in table.items()}
        if not all(isinstance(ph, Phase) for ph in phases.values()):
            raise GraphError("exact kappa values must be rational phases, not units of infinite order")
        return Representation(TWISTED, g, phases, chosen)
    phases = {}
    for e, v in table.items():
        v = complex(v) if isinstance(v, (complex, float)) else as_phase(v).value
        if abs(abs(v) - 1.0) > exact.TOL:
            raise GraphError(f"kappa[{e}] is not a unit: {v}")
        phases[e] = v
    return Representation(TWISTED, g, phases, chosen, COMPLEX)


def basis_kind(rep: Representation) -> str:
    if rep.kind == LEFT_REGULAR:
        return LEFT_REGULAR
    if rep.kind == OMEGA:
        return OMEGA
    return BOUNDARY


@lru_cache(maxsize=None)
def _path_basis(g: Graph, depth: int) -> tuple[Path, ...]:
    return tuple(enumerate_paths(g, depth))


def basis_elements(rep: Representation, depth: int):
    kind = basis_kind(rep)
    if kind == LEFT_REGULAR:
        return _path_basis(rep.graph, depth)
    if kind == OMEGA:
        return omega_set(rep.graph, depth)
    return boundary_set(rep.graph, depth)


def _check_basis(rep: Representation, x) -> None:
    if rep.kind == LEFT_REGULAR:
        if not isinstance(x, Path):
            raise GraphError(f"basis mismatch: expected a path, got {x!r}")
    elif not isinstance(x, BoundaryPath):
        raise GraphError(f"basis mismatch: expected a boundary path, got {x!r}")


def apply(rep: Representation, a: AlgebraElement, x):
    """The finite weighted combination a.xi_x, as a basis-to-coefficient map."""
    _check_basis(rep, x)
    kmap = rep.kappa if rep.kind == TWISTED else None
    out: dict = {}
    for (alpha, beta), c in a.terms.items():
        if isinstance(x, BoundaryPath):
            if not x.starts_with(beta):
                continue
            z = prepend(alpha, x.strip(beta))
        else:
            if not x.starts_with(beta):
                continue
            z = alpha.concat(x.strip_prefix(beta))
        w = twist(c, alpha, beta, kmap) if kmap else c
        out[z] = exact.add(out[z], w) if z in out else w
    return {z: w for z, w in out.items() if not exact.is_zero(w)}


def combos_equal(d1, d2) -> bool:
    if set(d1) != set(d2):
        return False
    return all(exact.scalars_equal(c, d2[k]) for k, c in d1.items())


@lru_cache(maxsize=None)
def _cycle_lengths(g: Graph) -> tuple[int, ...]:
    """The length of each simple cycle of ``g``, enumerated once per graph."""
    return tuple(len(c) for c in simple_cycles(g))


def equality_depth(rep: Representation, *elems: AlgebraElement) -> int:
    longest = max((e.max_key_length() for e in elems), default=0)
    return longest + len(rep.graph.vertices) + max(_cycle_lengths(rep.graph), default=0)


def check_work(rep: Representation, depth: int) -> None:
    """Refuse a test set of ``depth`` whose work bound exceeds ``WORK_BUDGET``:
    the paths of length <= depth (counted over in-edges, not listed), times
    1 + the number of simple-cycle rotations on the boundary kinds."""
    g = rep.graph
    counts, paths = dict.fromkeys(g.vertices, 1), len(g.vertices)  # by source
    for _ in range(depth):
        step = dict.fromkeys(g.vertices, 0)
        for v, n in counts.items():
            for e in g.in_edges(v):
                step[g.source_of(e)] += n
        counts = step
        paths += sum(counts.values())
    rots = 0 if rep.kind == LEFT_REGULAR else sum(_cycle_lengths(g))
    if paths * (1 + rots) > WORK_BUDGET:
        raise WorkBudgetError(f"a depth-{depth} test set bounds the work at {paths} paths x "
                              f"(1 + {rots} rotations) = {paths * (1 + rots)}, above the "
                              f"budget of {WORK_BUDGET}; lower --depth")


def operator_equal(rep: Representation, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Equality of the induced operators, in closed form (see the module
    docstring)."""
    if rep.kind == LEFT_REGULAR:
        return a == b
    g = rep.graph
    if rep.kind == TWISTED:
        untwist = GeneratorRescaling(g, rep.cutting_set, rep.kappa, ()).rescale_element
        a, b = untwist(a), untwist(b)
    length = max((len(beta) for e in (a, b) for _, beta in e.terms), default=0)
    return _boundary_normal_form(g, a, length) == _boundary_normal_form(g, b, length)


def _boundary_normal_form(g: Graph, a: AlgebraElement, length: int) -> AlgebraElement:
    """``a`` with every beta extended through the in-edges of its source (the
    CK relation) until it has ``length`` edges or starts at a source, and
    every alpha stripped of trailing entrance-free rotations (s_mu = p)."""
    out: dict = {}
    todo = list(a.terms.items())
    while todo:
        (alpha, beta), c = todo.pop()
        ins = g.in_edges(beta.source)
        if ins and len(beta) < length:
            for e in ins:
                step = g.edge_path(e)
                todo.append(((alpha.concat(step), beta.concat(step)), c))
            continue
        key = (w_normal_form(g, alpha), beta)
        out[key] = exact.add(out[key], c) if key in out else c
    return AlgebraElement(out, a.mode)


@dataclass(frozen=True)
class RelationFailure:
    relation: str
    witness: str


@dataclass(frozen=True, eq=False)
class RelationReport:
    level: str
    depth: int
    failures: tuple[RelationFailure, ...]
    kappa: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def min_verification_depth(index: Graph, level: str) -> int:
    depth = 1
    if level in (REDUCED, NORMALIZED):
        longest = max(
            (len(cls.representative) for cls in entrance_free_classes(index)),
            default=0,
        )
        depth = max(depth, 1 + longest)
    return depth


def _scan_cycle_scalar(rep, fam, mu, basis):
    """Check s_mu acts as one scalar on every basis vector at r(mu).

    Returns (witness, scalar); witness is None on success, scalar is None on
    failure.
    """
    elem = fam.s_path(mu)
    scalar = None
    for x in basis:
        if x.range != mu.range:
            continue
        out = apply(rep, elem, x)
        if len(out) != 1 or x not in out:
            return x, None
        k = out[x]
        if scalar is None:
            scalar = k
        elif not exact.scalars_equal(k, scalar):
            return x, None
    return None, scalar


def verify_relations(rep: Representation, level: str, depth: int | None = None,
                     family: GeneratorFamily | None = None) -> RelationReport:
    """Check the family relations as operator identities on the test set.

    Levels: ``tck`` checks orthogonal projections, the source identities
    s_e^* s_e = p_{s(e)}, and the range-projection domination at every
    vertex; ``ck`` adds the full in-edge sum identity; ``reduced`` adds, per
    entrance-free rotation, that the cycle isometry is a unit scalar times
    its range projection (the scalar is discovered and reported);
    ``normalized`` requires that scalar to be 1.

    All failing instances are reported, each with its least witness.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    fam = family if family is not None else canonical_family(rep.graph, rep.mode)
    idx = fam.index
    mind = min_verification_depth(idx, level)
    if depth is None:
        depth = mind + len(rep.graph.vertices)
    if depth < mind:
        raise ValueError(f"depth {depth} is below the required minimum {mind}")
    check_work(rep, depth)
    basis = basis_elements(rep, depth)
    # scalars print in polar style when some phase is no quarter turn
    polar = any(isinstance(ph, Phase) and 4 % ph.turn.denominator for ph in rep.kappa.values())
    failures: list[RelationFailure] = []
    kappa_found: list[tuple[str, str]] = []

    def first_witness(e1, e2):
        for x in basis:
            if not combos_equal(apply(rep, e1, x), apply(rep, e2, x)):
                return x
        return None

    nothing = AlgebraElement({}, fam.p[idx.vertices[0]].mode if idx.vertices else EXACT)

    for i, u in enumerate(idx.vertices):
        for v in idx.vertices[i:]:
            product = fam.p[u] * fam.p[v]
            target = fam.p[u] if u == v else nothing
            w = first_witness(product, target)
            if w is not None:
                name = f"T1[{u}]" if u == v else f"T1[{u},{v}]"
                failures.append(RelationFailure(name, w.render()))

    for e in idx.edges:
        product = fam.s[e].adjoint() * fam.s[e]
        w = first_witness(product, fam.p[idx.source_of(e)])
        if w is not None:
            failures.append(RelationFailure(f"T2[{e}]", w.render()))

    receiving = [v for v in idx.vertices if idx.in_edges(v)]
    defects = {v: ck_defect(fam, v) for v in receiving}

    for v in receiving:
        for x in basis:
            out = apply(rep, defects[v], x)
            if not out:
                continue
            if len(out) == 1 and x in out and exact.scalars_equal(out[x], exact.ONE):
                continue
            failures.append(RelationFailure(f"T3[{v}]", x.render()))
            break

    if level in (CK, REDUCED, NORMALIZED):
        for v in receiving:
            w = first_witness(defects[v], nothing)
            if w is not None:
                failures.append(RelationFailure(f"CK[{v}]", w.render()))

    if level in (REDUCED, NORMALIZED):
        for cls in entrance_free_classes(idx):
            class_scalar = None
            for mu in cls.members:
                witness, scalar = _scan_cycle_scalar(rep, fam, mu, basis)
                if witness is not None:
                    failures.append(
                        RelationFailure(f"R[{mu.render()}]", witness.render())
                    )
                    continue
                if scalar is None:
                    failures.append(
                        RelationFailure(f"R[{mu.render()}]", "no test vector")
                    )
                    continue
                if not exact.is_unit(scalar):
                    failures.append(
                        RelationFailure(
                            f"R[{mu.render()}]", f"scalar {exact.render(scalar, polar)} is not a unit"
                        )
                    )
                    continue
                if level == NORMALIZED and not exact.scalars_equal(scalar, exact.ONE):
                    failures.append(
                        RelationFailure(
                            f"R[{mu.render()}]", f"scalar {exact.render(scalar, polar)} is not 1"
                        )
                    )
                    continue
                if mu == cls.representative:
                    class_scalar = scalar
            if class_scalar is not None:
                kappa_found.append(
                    (cls.representative.render(), exact.render(class_scalar, polar))
                )

    return RelationReport(
        level=level,
        depth=depth,
        failures=tuple(failures),
        kappa=tuple(kappa_found),
    )


def extract_kappa(rep: Representation, depth: int | None = None):
    """The phase by which each entrance-free cycle isometry acts on its
    periodic point; raises NotReducedError when the action is not scalar."""
    g = rep.graph
    fam = canonical_family(g, rep.mode)
    depths = {cls: depth if depth is not None else 1 + len(cls.representative) + len(g.vertices)
              for cls in entrance_free_classes(g)}
    if depths:  # the largest test set bounds the work of every class
        check_work(rep, max(depths.values()))
    out = {}
    for cls, d in depths.items():
        mu = cls.representative
        basis = basis_elements(rep, d)
        witness, scalar = _scan_cycle_scalar(rep, fam, mu, basis)
        if witness is not None or scalar is None:
            detail = witness.render() if witness is not None else "no test vector"
            raise NotReducedError(
                f"s[{mu.render()}] is not scalar on its periodic point ({detail})"
            )
        if not exact.is_unit(scalar):
            raise NotReducedError(f"s[{mu.render()}] acts by a non-unit {scalar}")
        out[cls] = as_phase(scalar)
    return out


def rescale_family(rep: Representation) -> Representation:
    """De-twist: rescale each cutting-set generator by the conjugate of the
    extracted phase, yielding a normalized-reduced representation."""
    if rep.kind != TWISTED:
        raise GraphError("rescale_family expects a twisted boundary representation")
    extracted = extract_kappa(rep)
    new_kappa = {}
    for x, ph in rep.kappa.items():
        kc = extracted[class_of_edge(rep.graph, x)]
        if isinstance(ph, Phase) and isinstance(kc, Phase):
            new_kappa[x] = ph * kc.conjugate()
        else:
            ph_c = ph.value if isinstance(ph, Phase) else ph
            kc_c = kc.value if isinstance(kc, Phase) else kc
            new_kappa[x] = ph_c * kc_c.conjugate()
    return twisted_boundary(rep.graph, new_kappa, rep.cutting_set)


@lru_cache(maxsize=None)
def _closers(g: Graph, efree_only: bool):
    """Simple-cycle rotations usable to close a walk, keyed by range vertex."""
    table: dict[str, list[Path]] = {}
    if efree_only:
        cycles = [cls.representative for cls in entrance_free_classes(g)]
    else:
        cycles = simple_cycles(g)
    for cyc in cycles:
        for rot in rotations(cyc):
            table.setdefault(rot.range, []).append(rot)
    return {v: tuple(rots) for v, rots in table.items()}


@lru_cache(maxsize=None)
def _exit_routes(g: Graph, efree_only: bool):
    """Shortest edge sequence from each vertex to a source or closable vertex."""
    targets = set(_closers(g, efree_only)) | set(sources(g))
    routes: dict[str, tuple[str, ...]] = {}
    for v in g.vertices:
        if v in targets:
            routes[v] = ()
            continue
        seen = {v}
        queue = deque([(v, ())])
        while queue:
            u, trail = queue.popleft()
            for e in g.in_edges(u):
                w = g.source_of(e)
                if w in seen:
                    continue
                seen.add(w)
                extended = trail + (e,)
                if w in targets:
                    routes[v] = extended
                    queue.clear()
                    break
                queue.append((w, extended))
    return routes


@lru_cache(maxsize=None)
def _deep_walk_basis(g: Graph, kind: str, depth: int, walks: int, seed: int):
    rng = random.Random(f"{seed}|{kind}|{g.fingerprint()}|{depth}|{walks}")
    out = []
    if kind == LEFT_REGULAR:
        # every prefix of a walk is kept: a difference whose shortest beta is
        # b acts nonzero on xi_b, which a walk passes through but rarely stops at
        for _ in range(walks):
            p = g.empty_path(rng.choice(g.vertices))
            out.append(p)
            target = rng.randint(0, depth)
            while len(p) < target and g.in_edges(p.source):
                p = p.concat(g.edge_path(rng.choice(g.in_edges(p.source))))
                out.append(p)
        return tuple(sorted(set(out), key=lambda p: (len(p), p.edges, p.vertices)))
    efree_only = kind == OMEGA
    closers = _closers(g, efree_only)
    routes = _exit_routes(g, efree_only)
    hard = depth + 2 * len(g.vertices) + max(_cycle_lengths(g), default=0) + 1
    for _ in range(walks):
        p = g.empty_path(rng.choice(g.vertices))
        while True:
            u = p.source
            if len(p) >= depth and u in closers:
                out.append(canonicalize(p, rng.choice(closers[u])))
                break
            if not g.in_edges(u):
                out.append(BoundaryPath(p))
                break
            if len(p) >= hard:
                for e in routes.get(u, ()):
                    p = p.concat(g.edge_path(e))
                u = p.source
                if u in closers:
                    out.append(canonicalize(p, closers[u][0]))
                else:
                    out.append(BoundaryPath(p))
                break
            p = p.concat(g.edge_path(rng.choice(g.in_edges(u))))
    return tuple(sorted(set(out), key=BoundaryPath.sort_key))


def deep_walk_equal(rep: Representation, a: AlgebraElement, b: AlgebraElement,
                    walks: int = DEEP_WALK_COUNT, seed: int = DEEP_WALK_SEED) -> bool:
    """Randomized second route for operator equality: compare the two actions
    on a seeded basis of deep random walks."""
    depth = equality_depth(rep, a, b)
    xs = _deep_walk_basis(rep.graph, basis_kind(rep), depth, walks, seed)
    return all(combos_equal(apply(rep, a, x), apply(rep, b, x)) for x in xs)
