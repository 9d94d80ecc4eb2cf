"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the raw graph accessors only
(in_edges / source_of), with its own searches, so that agreement with the
library is a genuine two-route check rather than a tautology.  The
exceptions are routes that production code no longer takes.  First come
four small helpers that no production code calls, written on the
library's own accessors: ``reachability``, ``is_w_path``,
``max_key_length`` and ``strip_suffix``.  The eager test sets come next:
``enumerate_paths_oracle``, ``boundary_set_oracle`` and
``omega_set_oracle`` build each test set whole, canonicalise it with
``canonicalize_oracle`` (one prefix edge absorbed at a time, where the
library counts the absorbed edges and rotates once) and sort it once, where
the library grows it lazily one layer at a time (``graph.path_layers``);
``basis_elements`` picks the set of a representation, and ``paths_up_to``,
``w_paths``, ``ideal_span_pairs`` and ``cutting_sets`` list the path
families that the tests read.  Then come
``test_set_equal_oracle``, the operator-equality scan over the canonical
test set that the closed-form route replaced, and three other replaced
routes: ``deep_walk_equal`` (seeded random walks),
``length_refinement_equal`` (the closed form with every beta refined to the
longest beta length, exponential in that length, where the library refines
only along the heads of longer betas) and ``verify_relations_oracle`` (the
relation check by a scan of the whole test set).  More replaced routes
close the file: ``minimal_oracle``, the least cyclotomic level by one
linear elimination per divisor; ``parse_element_oracle``, which parses an
expression by recursive descent over Fraction tokens, one element per
generator; ``polar_terms_oracle``, which tests a value against every power
of the root of unity past the basis (``powers``); and ``split_sign_oracle``,
which prints a coefficient from Fractions; ``cyclotomic_poly_oracle``
builds Phi_n by long division; ``parse_graph_oracle`` reads the graph format
line by line and builds the graph through the checked ``Graph`` constructor,
where ``parse_graph`` skips the checks that its own line checks already made.
Last come ``Phase``, a unit held as a rational turn, and ``as_phase``, which
read a kappa value into it: the second unit type that exact roots of unity
replaced, kept as the reference for ``transform.rational_phase``.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from graphck import (
    BOUNDARY,
    CK,
    LEFT_REGULAR,
    NORMALIZED,
    OMEGA,
    REDUCED,
    TWISTED,
    AlgebraElement,
    BoundaryPath,
    GeneratorRescaling,
    Graph,
    RelationFailure,
    RelationReport,
    apply,
    canonicalize,
    ck_defect,
    entrance_free_classes,
    exact,
    min_verification_depth,
    reach_map,
    rotations,
    simple_cycles,
    sources,
    w_normal_form,
)
from graphck.algebra import path_isometry, vertex_projection, zero
from graphck.exact import Cyclotomic, ExactnessError, _cyclotomic_poly
from graphck.expr import ExprError
from graphck.graph import _EDGE_RE, _ID_RE, GraphParseError, Path, path_key
from graphck.reps import LEVELS, combos_equal

from corpus import rep_family

DEEP_WALK_SEED = 101
DEEP_WALK_COUNT = 200


def reachability(g: Graph) -> frozenset[tuple[str, str]]:
    """The reflexive-transitive relation {(v, w) : vE*w is nonempty}."""
    rm = reach_map(g)
    return frozenset((v, w) for v in g.vertices for w in rm[v])


def is_w_path(g: Graph, p: Path) -> bool:
    return w_normal_form(g, p) == p


def max_key_length(a: AlgebraElement) -> int:
    return max((max(len(al), len(be)) for al, be in a.terms), default=0)


def strip_suffix(p: Path, suffix: Path) -> Path | None:
    """p with ``suffix`` removed from its source end, or None when p does
    not end with ``suffix``."""
    k = len(suffix.edges)
    if p.source != suffix.source or p.edges[len(p.edges) - k:] != suffix.edges:
        return None
    return Path(p.edges[:len(p.edges) - k], p.vertices[:len(p.vertices) - k])


@lru_cache(maxsize=None)
def enumerate_paths_oracle(g: Graph, max_len: int) -> tuple:
    """Every path of length <= max_len: grown at the source end from the
    empty path at each vertex, then sorted once by ``path_key``."""
    out = layer = [g.empty_path(v) for v in g.vertices]
    for _ in range(max_len):
        layer = [p.concat(g.edge_path(e)) for p in layer for e in g.in_edges(p.source)]
        out = out + layer
    return tuple(sorted(out, key=path_key))


def canonicalize_oracle(prefix: Path, period: Path) -> BoundaryPath:
    """The canonical form of prefix . period^inf, absorbing one prefix edge at
    a time: while the prefix ends with the period's last edge, drop that edge
    and rotate the period to start with it."""
    pre, per = prefix, period
    while not pre.is_empty and pre.edges[-1] == per.edges[-1]:
        per = Path(per.edges[-1:] + per.edges[:-1], per.vertices[-2:] + per.vertices[1:-1])
        pre = Path(pre.edges[:-1], pre.vertices[:-1])
    return BoundaryPath(pre, per)


@lru_cache(maxsize=None)
def boundary_set_oracle(g: Graph, depth: int) -> tuple:
    """Finite paths of length <= depth from a source, plus the canonical form
    of every pair (path of length <= depth, rotation of a simple cycle at its
    source), as a set sorted once by ``BoundaryPath.sort_key``."""
    paths = enumerate_paths_oracle(g, depth)
    out = {BoundaryPath(p) for p in paths if not g.in_edges(p.source)}
    for per in (rot for c in simple_cycles(g) for rot in rotations(c)):
        out.update(canonicalize_oracle(p, per) for p in paths if p.source == per.range)
    return tuple(sorted(out, key=BoundaryPath.sort_key))


@lru_cache(maxsize=None)
def omega_set_oracle(g: Graph, depth: int) -> tuple:
    """``boundary_set_oracle`` kept to finite paths and entrance-free periods."""
    efree = {rot.edges for cls in entrance_free_classes(g) for rot in cls.members}
    return tuple(x for x in boundary_set_oracle(g, depth)
                 if x.period is None or x.period.edges in efree)


def basis_elements(rep, depth: int) -> tuple:
    """The test set of ``depth`` on the basis of ``rep``, built eagerly."""
    if rep.kind == LEFT_REGULAR:
        return enumerate_paths_oracle(rep.graph, depth)
    if rep.kind == OMEGA:
        return omega_set_oracle(rep.graph, depth)
    return boundary_set_oracle(rep.graph, depth)


def paths_up_to(g: Graph, v: str, bound: int) -> list:
    """The CK expansion family of p_v at ``bound``: the paths with range v of
    length exactly ``bound``, with the shorter ones that stop at a source."""
    return [p for p in enumerate_paths_oracle(g, bound)
            if p.range == v and (len(p) == bound or not g.in_edges(p.source))]


def w_paths(g: Graph, max_len: int) -> list:
    """All W-paths (no trailing entrance-free cycle) of length <= max_len."""
    return [p for p in enumerate_paths_oracle(g, max_len) if is_w_path(g, p)]


def ideal_span_pairs(g: Graph, x: BoundaryPath, depth: int) -> list:
    """Key pairs spanning the ideal attached to a boundary path: all
    (alpha, beta) of length <= depth with common source on x's vertex set."""
    limit = len(x.prefix.edges) + (len(x.period.edges) if x.period else 0)
    verts = sorted({x.vertex_at(n) for n in range(limit + 1)})
    by_source: dict[str, list] = {}
    for p in enumerate_paths_oracle(g, depth):
        by_source.setdefault(p.source, []).append(p)
    return [(alpha, beta) for w in verts
            for alpha in by_source.get(w, []) for beta in by_source.get(w, [])]


def cutting_sets(g: Graph) -> list:
    """Every choice of one edge per entrance-free class, sorted."""
    pools = [sorted(cls.edge_set) for cls in entrance_free_classes(g)]
    return sorted(tuple(sorted(choice)) for choice in itertools.product(*pools))


def simple_cycles_oracle(g: Graph) -> list:
    """Every simple cycle as its least rotation by edge ids, in ``path_key``
    order.  DFS rooted at each vertex over every simple path through strictly
    larger vertices, with no restriction to a strongly connected component,
    so it walks all simple paths upstream of each root even on acyclic
    graphs."""
    found = []
    for root in g.vertices:
        stack = [((), root, frozenset({root}))]
        while stack:
            edges, cur, blocked = stack.pop()
            for e in g.in_edges(cur):
                w = g.source_of(e)
                if w == root:
                    cyc = edges + (e,)
                    found.append(g.path(min(cyc[k:] + cyc[:k] for k in range(len(cyc)))))
                elif w > root and w not in blocked:
                    stack.append((edges + (e,), w, blocked | {w}))
    return sorted(found, key=path_key)


def _reaches(g: Graph, v: str) -> set[str]:
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in g.in_edges(u):
            w = g.source_of(e)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _vertex_walks(g: Graph, v: str, limit: int) -> list[list[str]]:
    """All vertex itineraries x(0..k), k <= limit, of paths with range v."""
    out = [[v]]
    frontier = [[v]]
    for _ in range(limit):
        nxt = []
        for walk in frontier:
            for e in g.in_edges(walk[-1]):
                nxt.append(walk + [g.source_of(e)])
        out.extend(nxt)
        frontier = nxt
    return out


def cofinal_oracle(g: Graph) -> bool:
    """Brute-force cofinality: enumerate boundary paths as finite walks to
    sources plus eventually periodic walks (prefix bounded by the vertex
    count, period a simple cycle) and test every vertex against each."""
    n = len(g.vertices)
    reach = {v: _reaches(g, v) for v in g.vertices}

    witnesses: list[list[str]] = []
    cycles: list[list[str]] = []
    for v in g.vertices:
        for walk in _vertex_walks(g, v, n):
            if not g.in_edges(walk[-1]):
                witnesses.append(walk)
            if (
                len(walk) > 1
                and walk[-1] == walk[0]
                and len(set(walk[:-1])) == len(walk) - 1
            ):
                cycles.append(walk)
    for v in g.vertices:
        for prefix in _vertex_walks(g, v, n):
            for cyc in cycles:
                if cyc[0] == prefix[-1]:
                    witnesses.append(prefix + cyc[1:])

    for v in g.vertices:
        r = reach[v]
        for walk in witnesses:
            if not any(x in r for x in walk):
                return False
    return True


def _is_tail_oracle(g: Graph, m: set[str], reach: dict[str, set[str]]) -> bool:
    """MT1-MT3 from the definitions: closed forward, extendable backward
    inside m at every receiving vertex, and any two members have a common
    ancestor in m."""
    if any(v not in m and reach[v] & m for v in g.vertices):
        return False
    for v in m:
        ins = g.in_edges(v)
        if ins and all(g.source_of(e) not in m for e in ins):
            return False
    return all(
        any(w in reach[u] and w in reach[v] for w in m) for u in m for v in m
    )


def _free_cycles_within(g: Graph, m: set[str]) -> set[tuple[str, ...]]:
    """Cycles inside m with no entrance from m, as least edge rotations: on
    such a cycle every vertex receives exactly one edge from m, so chase the
    unique in-edges from each vertex and keep the loops found."""
    found = set()
    for v in m:
        trail: list[str] = []
        seen = {v}
        cur = v
        while True:
            ins = [e for e in g.in_edges(cur) if g.source_of(e) in m]
            if len(ins) != 1:
                break
            trail.append(ins[0])
            cur = g.source_of(ins[0])
            if cur in seen:
                if cur == v:
                    found.add(min(tuple(trail[k:] + trail[:k]) for k in range(len(trail))))
                break
            seen.add(cur)
    return found


def maximal_tails_oracle(g: Graph) -> list[tuple[frozenset[str], str, tuple[str, ...] | None]]:
    """Every vertex subset passing MT1-MT3, as (vertices, kind, least
    rotation of the tail's entrance-free cycle or None), sorted by size and
    then by sorted vertex ids.  Exponential in the vertex count."""
    reach = {v: _reaches(g, v) for v in g.vertices}
    out = []
    for r in range(1, len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, r):
            m = set(combo)
            if not _is_tail_oracle(g, m, reach):
                continue
            free = _free_cycles_within(g, m)
            assert len(free) <= 1, (sorted(m), free)
            cyc = next(iter(free), None)
            out.append((frozenset(m), "gamma" if cyc is None else "tau", cyc))
    return sorted(out, key=lambda t: (len(t[0]), tuple(sorted(t[0]))))


def tail_triples(tails) -> list[tuple[frozenset[str], str, tuple[str, ...] | None]]:
    """Library ``MaximalTail`` objects in the oracle's form."""
    return [
        (t.vertices, t.kind, t.cycle_class.representative.edges if t.cycle_class else None)
        for t in tails
    ]


def test_set_equal_oracle(rep, a, b) -> bool:
    """Operator equality by applying both elements to every vector of the
    canonical test set of depth L + |vertices| + longest cycle.  Exponential
    in that depth."""
    xs = basis_elements(rep, equality_depth(rep, a, b))
    return all(combos_equal(apply(rep, a, x), apply(rep, b, x)) for x in xs)


test_set_equal_oracle.__test__ = False  # an oracle, not a pytest test


@lru_cache(maxsize=None)
def _cycle_lengths(g: Graph) -> tuple[int, ...]:
    return tuple(len(c) for c in simple_cycles(g))


def equality_depth(rep, *elems: AlgebraElement) -> int:
    """L + |vertices| + longest simple cycle, L the longest key of ``elems``."""
    longest = max((max_key_length(e) for e in elems), default=0)
    return longest + len(rep.graph.vertices) + max(_cycle_lengths(rep.graph), default=0)


@lru_cache(maxsize=None)
def _closers(g: Graph, efree_only: bool):
    """Simple-cycle rotations usable to close a walk, keyed by range vertex."""
    table: dict[str, list] = {}
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


def deep_walk_equal(rep, a: AlgebraElement, b: AlgebraElement,
                    walks: int = DEEP_WALK_COUNT, seed: int = DEEP_WALK_SEED) -> bool:
    """Randomized second route for operator equality: compare the two actions
    on a seeded basis of deep random walks."""
    depth = equality_depth(rep, a, b)
    kind = rep.kind if rep.kind in (LEFT_REGULAR, OMEGA) else BOUNDARY
    xs = _deep_walk_basis(rep.graph, kind, depth, walks, seed)
    return all(combos_equal(apply(rep, a, x), apply(rep, b, x)) for x in xs)


def length_refinement_equal(rep, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Operator equality by the refinement that the heads rule replaced:
    every beta of the pair is extended to the longest beta length L, which
    takes a short beta at a vertex of in-degree d to d^(L - |beta|) terms."""
    if rep.kind == LEFT_REGULAR:
        return a == b
    g = rep.graph
    if rep.kind == TWISTED:
        untwist = GeneratorRescaling(g, tuple(sorted(rep.kappa)), rep.kappa).rescale_element
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
    return AlgebraElement(out)


def _scan_cycle_scalar(rep, fam, mu, basis):
    """(witness, scalar) for R, s_mu = c p_{r(mu)}, by a scan of ``basis``:
    c is read on the first basis vector x that the family's p_{r(mu)} fixes
    (x is the witness when s_mu moves it), and the witness is then the first
    basis vector on which s_mu and c p_{r(mu)} differ.  Witness None on
    success, scalar None on failure, both None when p_{r(mu)} fixes no basis
    vector."""
    elem = fam.s_path(mu)
    at_range = fam.p[mu.range]
    x = next((x for x in basis if combos_equal(apply(rep, at_range, x), {x: exact.ONE})), None)
    if x is None:
        return None, None
    out = apply(rep, elem, x)
    if list(out) != [x]:
        return x, None
    c = out[x]
    for y in basis:
        want = {z: exact.mul(c, k) for z, k in apply(rep, at_range, y).items()}
        if not combos_equal(apply(rep, elem, y), want):
            return y, None
    return None, c


def verify_relations_oracle(rep, level: str, depth: int | None = None, family=None) -> RelationReport:
    """``verify_relations`` by applying every relation to every vector of the
    test set of ``depth``, with no closed form and no work bound.
    Exponential in the depth."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    fam = family if family is not None else rep_family(rep)
    idx = fam.index
    mind = min_verification_depth(idx, level)
    if depth is None:
        depth = mind + len(rep.graph.vertices)
    if depth < mind:
        raise ValueError(f"depth {depth} is below the required minimum {mind}")
    basis = basis_elements(rep, depth)
    polar = any(isinstance(ph, Cyclotomic) and 4 % as_phase(ph).turn.denominator for ph in rep.kappa.values())
    failures: list[RelationFailure] = []
    kappa_found: list[tuple[str, str]] = []

    def first_witness(e1, e2):
        for x in basis:
            if not combos_equal(apply(rep, e1, x), apply(rep, e2, x)):
                return x
        return None

    nothing = AlgebraElement({})
    for i, u in enumerate(idx.vertices):
        for v in idx.vertices[i:]:
            w = first_witness(fam.p[u] * fam.p[v], fam.p[u] if u == v else nothing)
            if w is not None:
                name = f"T1[{u}]" if u == v else f"T1[{u},{v}]"
                failures.append(RelationFailure(name, w.render()))
    for e in idx.edges:
        w = first_witness(fam.s[e].adjoint() * fam.s[e], fam.p[idx.source_of(e)])
        if w is not None:
            failures.append(RelationFailure(f"T2[{e}]", w.render()))
    receiving = [v for v in idx.vertices if idx.in_edges(v)]
    defects = {v: ck_defect(fam, v) for v in receiving}
    for v in receiving:  # the defect is a projection exactly when d^* d = d
        w = first_witness(defects[v].adjoint() * defects[v], defects[v])
        if w is not None:
            failures.append(RelationFailure(f"T3[{v}]", w.render()))
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
                name = f"R[{mu.render()}]"
                if witness is not None:
                    failures.append(RelationFailure(name, witness.render()))
                elif scalar is None:
                    failures.append(RelationFailure(name, "no test vector"))
                elif not exact.is_unit(scalar):
                    failures.append(RelationFailure(name, f"scalar {exact.render(scalar, polar)} is not a unit"))
                elif level == NORMALIZED and not exact.scalars_equal(scalar, exact.ONE):
                    failures.append(RelationFailure(name, f"scalar {exact.render(scalar, polar)} is not 1"))
                elif mu == cls.representative:
                    class_scalar = scalar
            if class_scalar is not None:
                kappa_found.append((cls.representative.render(), exact.render(class_scalar, polar)))
    return RelationReport(level=level, depth=depth, failures=tuple(failures), kappa=tuple(kappa_found))


def report_tuple(report: RelationReport):
    """A relation report as a comparable value."""
    return report.level, report.depth, report.failures, report.kappa


def _restrict(v: Cyclotomic, m: int) -> Cyclotomic | None:
    """``v`` at the level m dividing its own, or None when it does not lie in
    Q(zeta_m): solve lift(y) == v by elimination over Fractions."""
    step, size = v.level // m, len(_cyclotomic_poly(m)) - 1
    lifts = list(itertools.islice(powers(v.level), 0, step * size, step))  # zeta_m^j for j < size
    rows = [[Fraction(p[i]) for p in lifts] + [Fraction(c, v.den)] for i, c in enumerate(v.num)]
    for j in range(size):  # the lift is injective, so every column has a pivot
        p = next(i for i in range(j, len(rows)) if rows[i][j])
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[j])]
    if any(row[-1] for row in rows[size:]):
        return None
    den = math.lcm(*(row[-1].denominator for row in rows[:size]))
    return Cyclotomic(m, tuple(int(row[-1] * den) for row in rows[:size]), den)


def minimal_oracle(v: Cyclotomic) -> Cyclotomic:
    """``v`` at the least level whose field contains it: try every divisor m
    of its level in increasing order (skipping m = 2 mod 4, as Q(zeta_2m) =
    Q(zeta_m) for odd m) and keep the first that an elimination accepts."""
    n, num = v.level, v.num
    if not any(num[1:]):
        return Cyclotomic(1, num[:1], v.den)
    for m in range(3, n):
        if n % m == 0 and m % 4 != 2:
            low = _restrict(v, m)
            if low is not None:
                return low
    return v


minimal_oracle.__test__ = False  # an oracle, not a pytest test


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
    """The tokens of an element expression, whitespace a token of its own and
    every number a Fraction."""
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


class _FactorParser:
    """The element syntax parsed by recursive descent, one element per
    factor: each generator is an element, the factors of a term are
    multiplied with ``*`` and the terms summed with ``+``.  Scalars are read
    from Fraction tokens through ``GaussianRational``, ``PolarCoeff`` and
    ``rational``."""

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
        total = zero()
        sign = self.take_sign() or 1
        while True:
            term = self.parse_term()
            total = total + (term if sign > 0 else -term)
            if self.peek() is None:
                return total
            sign = self.take_sign()
            if sign is None:
                raise ExprError(f"expected '+' or '-', got {self.peek()[0]!r}")

    def parse_term(self) -> AlgebraElement:
        coeff = exact.ONE
        elem = None
        while True:
            piece = self.parse_factor()
            if isinstance(piece, AlgebraElement):
                elem = piece if elem is None else elem * piece
            else:
                coeff = coeff * piece
            tok = self.peek()
            if tok is None or tok[0] != "*":
                break
            self.take()
        if elem is None:
            raise ExprError("scalar term without a generator; the algebra has no unit")
        return elem.scaled(coeff)

    def parse_factor(self):
        """A generator's element, or a scalar."""
        tok = self.peek()
        if tok is not None and tok[0] == "gen":
            _, head, ids = self.take()
            if head == "p":
                if len(ids) != 1:
                    raise ExprError(f"p[...] takes one vertex id, got {ids}")
                return vertex_projection(self.g, ids[0])
            if not ids:
                raise ExprError("s[...] needs at least one edge id")
            elem = path_isometry(self.g, self.g.path(list(ids)))
            return elem.adjoint() if head == "s*" else elem
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


def parse_element_oracle(g: Graph, text: str) -> AlgebraElement:
    """``graphck.parse_element`` by the factor-by-factor route, which copies
    and revalidates the running sum at every term."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    if len(tokens) == 1 and tokens[0] == ("num", Fraction(0)):
        return zero()
    return _FactorParser(g, tokens).parse()


@lru_cache(maxsize=None)
def cyclotomic_poly_oracle(n: int) -> tuple[int, ...]:
    """Phi_n, lowest degree first, by long division of x^n - 1 by Phi_d for
    each d < n dividing n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_poly_oracle(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in reversed(range(len(quot))):
                c = quot[i] = poly[i + len(div) - 1]
                for j, p in enumerate(div):
                    poly[i + j] -= c * p
            poly = quot
    return tuple(poly)


def powers(n: int, k: int = 0):
    """zeta_n^j for j = k, k + 1, ... in the power basis modulo Phi_n, one at a
    time, from 0 <= k <= phi(n)."""
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    vec = [-p for p in phi[:-1]] if k == deg else [int(j == k) for j in range(deg)]
    while True:
        yield vec
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:  # x^deg = -(Phi_n - x^deg)
            vec = [v - top * p for v, p in zip(vec, phi)]


HALF = Fraction(1, 2)


def _fold(mag: Fraction, turn: Fraction) -> tuple[Fraction, Fraction]:
    turn %= 1
    return (-mag, turn - HALF) if turn >= HALF else (mag, turn)


def polar_terms_oracle(x: Cyclotomic) -> list[tuple[Fraction, Fraction]]:
    """``x.polar_terms()`` by a walk over every power zeta_n^k past the basis,
    phi(n) <= k < n, each tested for proportionality with ``x``."""
    n, num = x.level, x.num
    hits = [k for k, c in enumerate(num) if c]
    if len(hits) > 1:
        for k, p in zip(range(len(num), n), powers(n, len(num))):
            j = next(i for i, v in enumerate(p) if v)
            if all(c * p[j] == num[j] * v for c, v in zip(num, p)):
                return [_fold(Fraction(num[j], x.den * p[j]), Fraction(k, n))]
    return sorted((_fold(Fraction(num[k], x.den), Fraction(k, n)) for k in hits), key=lambda term: term[1])


def split_sign_oracle(x: Cyclotomic, polar: bool = False, unsign: bool = True) -> tuple[bool, str]:
    """``exact.split_sign`` with every printed part a Fraction and the polar
    parts found by ``polar_terms_oracle``."""
    if not polar and x.level == 4:
        re_, im = Fraction(x.num[0], x.den), Fraction(x.num[1], x.den)
        neg = re_ < 0 or (re_ == 0 and im < 0)
        if neg and unsign:
            re_, im = -re_, -im
        imag = ("-" if im < 0 else "") + ("i" if abs(im) == 1 else f"{abs(im)}i")
        return neg, imag if re_ == 0 else f"({re_}{'-' if im < 0 else '+'}{imag.lstrip('-')})"
    terms = polar_terms_oracle(x)
    neg = bool(terms) and terms[0][0] < 0
    sign = -1 if neg and unsign else 1
    texts = [str(sign * mag) if turn == 0 else f"{sign * mag}@{turn}" for mag, turn in terms]
    if len(texts) < 2:
        return neg, texts[0] if texts else "0"
    return neg, "(" + texts[0] + "".join(t if t[0] == "-" else "+" + t for t in texts[1:]) + ")"


def parse_graph_oracle(text: str) -> Graph:
    """``parse_graph``, with every line checked here and the whole graph
    checked again by ``Graph(vertices, edges)``."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    seen_e: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2 or not _ID_RE.match(parts[1]):
                raise GraphParseError("malformed vertex declaration", line_no, raw)
            if parts[1] in vertices:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", line_no, raw)
            vertices.append(parts[1])
        elif parts[0] == "edge":
            m = _EDGE_RE.match(line)
            if not m or not all(_ID_RE.match(x) for x in m.groups()):
                raise GraphParseError("malformed edge declaration", line_no, raw)
            e, s, r = m.groups()
            if e in seen_e:
                raise GraphParseError(f"duplicate edge id {e!r}", line_no, raw)
            seen_e.add(e)
            for end in (s, r):
                if end not in vertices:
                    raise GraphParseError(f"edge endpoint {end!r} not declared", line_no, raw)
            edges.append((e, s, r))
        else:
            raise GraphParseError("unrecognized declaration", line_no, raw)
    return Graph(vertices, edges)


@dataclass(frozen=True)
class Phase:
    """The unit scalar exp(2*pi*i*turn) with rational ``turn``, reduced mod 1."""

    turn: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "turn", Fraction(self.turn) % 1)

    def cyclotomic(self) -> Cyclotomic:
        """The same unit as an exact root of unity."""
        return exact.PolarCoeff(1, self.turn)


def as_phase(value):
    """The Phase of a rational turn (or its string), of a Phase, or of an exact
    root of unity; any other unit (complex, or exact but of infinite order) is
    returned unchanged."""
    if isinstance(value, Phase):
        return value
    if isinstance(value, (int, Fraction, str)):
        return Phase(Fraction(value))
    if isinstance(value, Cyclotomic):
        terms = value.polar_terms()
        if len(terms) == 1 and abs(terms[0][0]) == 1:
            mag, turn = terms[0]
            return Phase(turn if mag > 0 else turn + HALF)
    if exact.is_unit(value):
        return value
    raise ExactnessError(f"{value} is not a unit scalar")
