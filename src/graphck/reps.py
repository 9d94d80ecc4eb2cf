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
extended through the in-edges of its source while it is a proper head of
some beta of the pair.  A leaf lambda is then some beta or h.e for a head h,
so a leaf that were a proper prefix of another would be a head: the
cylinders Z(lambda) are disjoint, each refined one the disjoint union of its
children's, and the difference vanishes exactly when every column sum_alpha
c_alpha s_alpha vanishes on the paths y at w = s(lambda).  When the in-edge
chase from w is forced (one in-edge at each step, ending at a source or
around an entrance-free cycle), w carries the single boundary path y_w, and
alpha.y_w = alpha'.y_w exactly when alpha and alpha' agree once stripped of
trailing powers of the entrance-free rotation at w (``w_normal_form``, which
strips nothing unless w lies on that cycle).  Otherwise some boundary path y
at w is not purely periodic at w, the outputs alpha.y are distinct, and w
lies on no entrance-free cycle.  So the operators agree exactly when the
refined elements agree after ``w_normal_form`` on every alpha.  Omega
follows the same rule: a vertex on an entrance-free cycle is forced, and
elsewhere no omega path is purely periodic while ``omega_supported`` keeps
the omega space at w nonempty.

On the canonical family ``verify_relations`` and ``extract_kappa`` read
every relation in closed form.  The Toeplitz relations T1-T3,
p_u p_v = delta_{u,v} p_u, s_e^* s_e = p_{s(e)} and the projection
identities of the CK defect, hold as formal identities of ``compose``, and
``apply`` follows the same product rule on every basis (a twisted element
is rescaled on both sides, which undoes the twist), so each formal identity
holds as an operator identity in every representation.  On the boundary,
omega and twisted kinds CK holds, since every boundary path at a receiving
vertex v starts with exactly one in-edge of v; and an entrance-free rotation
mu has the one boundary path mu^inf at r(mu), on which s_mu acts by the
twist of mu, so R holds with that scalar (``_class_scalar``).  On
left-regular the CK defect at v fixes xi_v and kills every other empty
path, and s_mu moves xi_{r(mu)} to xi_mu; the empty paths come first in the
test set, so each CK[v] and R[mu] fails with witness xi_v and xi_{r(mu)}.
A custom family decides T1-T3, CK and R with ``operator_equal``, T3 as
d^* d = d for the CK defect d, which holds exactly when d is a projection.
Test sets serve only its witness search: a relation already known to fail
lists the test set of the requested depth lazily, in its sorted order, up
to its least witness (at most ``WORK_BUDGET`` paths and vectors).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact
from .algebra import (AlgebraElement, GeneratorFamily, ck_defect, efree_rotation_by_source,
                      strip_rotation, w_normal_form)
from .boundary import BoundaryPath, omega_supported, prepend, vector_layers
from .cycles import checked_cutting_set, class_of_edge, entrance_free_classes, is_cycle
from .exact import Phase, as_phase
from .graph import Graph, GraphError, Path, path_layers
from .transform import rational_phase, twist

LEFT_REGULAR = "left-regular"
BOUNDARY = "boundary"
OMEGA = "omega"
TWISTED = "twisted"

TCK = "tck"
CK = "ck"
REDUCED = "reduced"
NORMALIZED = "normalized"

LEVELS = (TCK, CK, REDUCED, NORMALIZED)

WORK_BUDGET = 200_000


class NotReducedError(GraphError):
    """A cycle isometry failed to act as a scalar on its periodic point."""


class WorkBudgetError(GraphError):
    """A witness search generated more than ``WORK_BUDGET`` paths and vectors."""


class Representation:
    """Immutable descriptor: kind, graph, and (for twisted) edge phases."""

    __slots__ = ("kind", "graph", "kappa")

    def __init__(self, kind, graph, kappa=None):
        self.kind = kind
        self.graph = graph
        self.kappa = dict(kappa) if kappa else {}

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


def twisted_boundary(g: Graph, kappa) -> Representation:
    """Boundary representation with cutting-set generators rescaled by kappa.

    ``kappa`` maps the edges of a cutting set to exact phases (rational turns)
    or to complex units.  When any value is complex (or a float), every value
    becomes a complex unit, and the representation acts inexactly.
    """
    table = dict(kappa)
    checked_cutting_set(g, table)
    if not any(isinstance(v, (complex, float)) for v in table.values()):
        phases = {e: rational_phase(v) for e, v in table.items()}
        return Representation(TWISTED, g, phases)
    phases = {}
    for e, v in table.items():
        v = complex(v) if isinstance(v, (complex, float)) else as_phase(v).value
        if abs(abs(v) - 1.0) > exact.TOL:
            raise GraphError(f"kappa[{e}] is not a unit: {v}")
        phases[e] = v
    return Representation(TWISTED, g, phases)


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


def operator_equal(rep: Representation, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Equality of the induced operators, in closed form (see the module
    docstring)."""
    if rep.kind == LEFT_REGULAR:
        return a == b
    ta, tb = a.terms, b.terms
    if rep.kind == TWISTED:
        ta, tb = ({k: twist(c, *k, rep.kappa) for k, c in t.items()} for t in (ta, tb))
    heads = {(beta.range, beta.edges[:k])
             for t in (ta, tb) for _, beta in t for k in range(len(beta))}
    return combos_equal(_boundary_normal_form(rep.graph, ta, heads),
                        _boundary_normal_form(rep.graph, tb, heads))


def _boundary_normal_form(g: Graph, terms, heads) -> dict:
    """The coefficient map ``terms`` with each beta extended through the
    in-edges of its source (the CK relation) while ``heads`` holds its
    (range, edges), and every alpha stripped of trailing entrance-free
    rotations (s_mu = p), zero coefficients dropped.  A term follows only the
    trie of heads, to at most sum |beta| * max in-degree leaves."""
    rotations = efree_rotation_by_source(g)
    out: dict = {}
    todo = list(terms.items())
    while todo:
        (alpha, beta), c = todo.pop()
        ins = g.in_edges(beta.source)
        if ins and (beta.range, beta.edges) in heads:
            for e in ins:
                step = g.edge_path(e)
                todo.append(((alpha.concat(step), beta.concat(step)), c))
            continue
        key = (strip_rotation(alpha, rotations.get(alpha.source)), beta)
        out[key] = exact.add(out[key], c) if key in out else c
    return {k: c for k, c in out.items() if not exact.is_zero(c)}


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


def _test_vectors(rep: Representation, depth: int):
    """The test set of ``depth``, generated lazily one length layer at a time
    in its sorted order: paths by length on the left-regular basis; finite
    boundary paths by length, then periodic ones by prefix length
    (``boundary.vector_layers``) otherwise.  Raises WorkBudgetError once the
    paths and vectors generated pass ``WORK_BUDGET``."""
    g = rep.graph
    if rep.kind == LEFT_REGULAR:
        layers = ((layer, len(layer)) for layer in path_layers(g, g.vertices, depth))
    else:
        layers = vector_layers(g, depth, omega=rep.kind == OMEGA)
    work = 0
    for layer, generated in layers:
        work += generated
        if work > WORK_BUDGET:
            raise WorkBudgetError(f"a witness search in the depth-{depth} test set generated more "
                                  f"than {WORK_BUDGET} paths and vectors; lower --depth")
        yield from layer


def _least_witness(rep: Representation, depth: int, fails):
    """The first test vector of ``depth`` on which ``fails`` holds, or None."""
    return next((x for x in _test_vectors(rep, depth) if fails(x)), None)


def _class_scalar(rep: Representation, mu: Path):
    """(witness, scalar) of the canonical s_mu for an entrance-free rotation
    mu, in closed form.  On left-regular, p_{r(mu)} fixes xi_{r(mu)}, which
    s_mu moves to xi_mu.  Elsewhere mu^inf is the one boundary path at r(mu),
    and s_mu acts on it by the twist of mu, as ``apply`` multiplies it."""
    if rep.kind == LEFT_REGULAR:
        return rep.graph.empty_path(mu.range), None
    return None, twist(exact.ONE, mu, rep.graph.empty_path(mu.source), rep.kappa)


def _cycle_scalar(rep: Representation, fam: GeneratorFamily, mu: Path, depth: int):
    """Whether a custom family's s_mu acts as one scalar on the test vectors x
    that its p_{r(mu)} fixes.

    Returns (witness, scalar): (None, c) on success, (x, None) for the least
    vector x where s_mu is not the scalar it takes on the first, and
    (None, None) when p_{r(mu)} fixes no vector.  The scalar is read on the
    periodic point gamma^inf of the first term s_gamma of s_mu whose gamma is
    a period of the basis (a simple cycle; on omega an entrance-free rotation;
    none on left-regular), and s_mu = c p_{r(mu)} is decided by
    ``operator_equal``, so only a failure scans.
    """
    elem, at_range = fam.s_path(mu), fam.p[mu.range]
    g = rep.graph
    gamma = None if rep.kind == LEFT_REGULAR else next(
        (a for (a, b), _ in elem.terms_sorted() if b.is_empty and is_cycle(a)
         and (rep.kind != OMEGA or w_normal_form(g, a).is_empty)), None)
    if gamma is not None:
        x = BoundaryPath(g.empty_path(gamma.range), gamma)
        out = apply(rep, elem, x)
        # out[x] comes from the representation, not a caller: it may be inexact on an exact family
        if list(out) == [x] and operator_equal(
                rep, elem, at_range.map_coefficients(lambda c: exact.mul(out[x], c))):
            return None, out[x]  # c x = s_mu x = c p_{r(mu)} x, so p_{r(mu)} fixes x
    scalar = None
    for x in _test_vectors(rep, depth):
        if not combos_equal(apply(rep, at_range, x), {x: exact.ONE}):
            continue
        out = apply(rep, elem, x)
        if len(out) != 1 or x not in out:
            return x, None
        if scalar is None:
            scalar = out[x]
        elif not exact.scalars_equal(out[x], scalar):
            return x, None
    return None, scalar


def _is_path_of(g: Graph, p: Path) -> bool:
    return all(map(g.has_vertex, p.vertices)) and all(
        g.has_edge(e) and (g.range_of(e), g.source_of(e)) == p.vertices[i:i + 2]
        for i, e in enumerate(p.edges))


def verify_relations(rep: Representation, level: str, depth: int | None = None,
                     family: GeneratorFamily | None = None) -> RelationReport:
    """Check the family relations as operator identities.

    Levels: ``tck`` checks orthogonal projections, the source identities
    s_e^* s_e = p_{s(e)}, and the range-projection domination at every
    vertex (the CK defect is a projection); ``ck`` adds the full in-edge sum
    identity; ``reduced`` adds, per entrance-free rotation, that the cycle
    isometry is a unit scalar times its range projection (the scalar is
    discovered and reported); ``normalized`` requires that scalar to be 1.

    The canonical family (``family`` None) is read in closed form, with no
    element built and no test vector listed (see the module docstring): on
    the boundary, omega and twisted kinds only R can fail, on its scalar
    (``_class_scalar``); on left-regular each CK[v] fails at xi_v and each
    R[mu] at xi_{r(mu)}.  A custom family decides every relation with
    ``operator_equal``, and only a relation that fails is scanned for its
    least witness in the test set of ``depth``; one with no witness there
    passes at that depth.  All failing instances are reported, each with its
    least witness.  A custom family that lacks a generator of its index
    graph, or has a key that is no path of ``rep.graph``, raises GraphError.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    canonical = family is None
    idx = rep.graph if canonical else family.index
    for kind, gens, names in () if canonical else (("p", family.p, idx.vertices), ("s", family.s, idx.edges)):
        missing = next((k for k in names if k not in gens), None)
        if missing is not None:
            raise GraphError(f"family lacks the generator {kind}[{missing}] of its index graph")
        for k, x in gens.items():
            if not all(_is_path_of(rep.graph, p) for key in x.terms for p in key):
                raise GraphError(f"family generator {kind}[{k}] is not over the represented graph")
    mind = min_verification_depth(idx, level)
    if depth is None:
        depth = mind + len(rep.graph.vertices)
    if depth < mind:
        raise ValueError(f"depth {depth} is below the required minimum {mind}")
    # scalars print in polar style when some phase is no quarter turn
    polar = any(isinstance(ph, Phase) and 4 % ph.turn.denominator for ph in rep.kappa.values())
    failures: list[RelationFailure] = []
    kappa_found: list[tuple[str, str]] = []
    receiving = [v for v in idx.vertices if idx.in_edges(v)]

    if canonical:
        if level != TCK and rep.kind == LEFT_REGULAR:
            failures += [RelationFailure(f"CK[{v}]", idx.empty_path(v).render()) for v in receiving]
    else:
        def identity(name, e1, e2):
            if operator_equal(rep, e1, e2):
                return
            witness = _least_witness(rep, depth, lambda x: not combos_equal(apply(rep, e1, x), apply(rep, e2, x)))
            if witness is not None:
                failures.append(RelationFailure(name, witness.render()))

        nothing = AlgebraElement({})
        defects = {v: ck_defect(family, v) for v in receiving}
        for i, u in enumerate(idx.vertices):
            for v in idx.vertices[i:]:
                name = f"T1[{u}]" if u == v else f"T1[{u},{v}]"
                identity(name, family.p[u] * family.p[v], family.p[u] if u == v else nothing)

        for e in idx.edges:
            identity(f"T2[{e}]", family.s[e].adjoint() * family.s[e], family.p[idx.source_of(e)])

        for v in receiving:  # d^* d = d exactly when d is a projection
            identity(f"T3[{v}]", defects[v].adjoint() * defects[v], defects[v])

        if level != TCK:
            for v in receiving:
                identity(f"CK[{v}]", defects[v], nothing)

    if level in (REDUCED, NORMALIZED):
        for cls in entrance_free_classes(idx):
            class_scalar = None
            for mu in cls.members:
                witness, scalar = _class_scalar(rep, mu) if canonical else _cycle_scalar(rep, family, mu, depth)
                if witness is not None:
                    problem = witness.render()
                elif scalar is None:
                    problem = "no test vector"
                elif not exact.is_unit(scalar):
                    problem = f"scalar {exact.render(scalar, polar)} is not a unit"
                elif level == NORMALIZED and not exact.scalars_equal(scalar, exact.ONE):
                    problem = f"scalar {exact.render(scalar, polar)} is not 1"
                else:
                    problem = None
                if problem is not None:
                    failures.append(RelationFailure(f"R[{mu.render()}]", problem))
                elif mu == cls.representative:
                    class_scalar = scalar
            if class_scalar is not None:
                kappa_found.append(
                    (cls.representative.render(), exact.render(class_scalar, polar))
                )

    return RelationReport(level=level, depth=depth, failures=tuple(failures), kappa=tuple(kappa_found))


def extract_kappa(rep: Representation):
    """The phase by which each entrance-free cycle isometry acts on its
    periodic point, read in closed form as in ``verify_relations``; raises
    NotReducedError on left-regular, naming the vector xi_{r(mu)} that s_mu
    moves."""
    out = {}
    for cls in entrance_free_classes(rep.graph):
        mu = cls.representative
        witness, scalar = _class_scalar(rep, mu)
        if witness is not None:
            raise NotReducedError(
                f"s[{mu.render()}] is not scalar on its periodic point ({witness.render()})"
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
        kc = extracted[class_of_edge(rep.graph, x)]  # a Phase or a complex, like ph
        new_kappa[x] = ph * kc.conjugate()
    return twisted_boundary(rep.graph, new_kappa)
