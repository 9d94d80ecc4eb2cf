"""Property-based invariants over randomly generated graphs and paths."""

import cmath
import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from graphck import (
    Graph,
    GaussianRational,
    GeneratorFamily,
    boundary_set,
    canonical_rotation,
    canonicalize,
    cycle_class,
    entrance_free_classes,
    has_entrance_in,
    is_cofinal,
    maximal_tails,
    omega_set,
    parse_graph,
    prepend,
    reduced_graph,
    rotations,
    shift,
    simple_cycles,
    w_normal_form,
)
from graphck import (
    NORMALIZED,
    REDUCED,
    TCK,
    PolarCoeff,
    WorkBudgetError,
    boundary,
    canonical_cutting_set,
    canonical_family,
    ck_defect,
    is_maximal_tail,
    left_regular,
    min_verification_depth,
    monomial,
    omega,
    omega_supported,
    operator_equal,
    path_isometry,
    rescale_generators,
    tail_of_class,
    toeplitz_family,
    toeplitz_graph,
    twisted_boundary,
    verify_relations,
    vertex_projection,
)
from graphck.algebra import AlgebraElement
from graphck.cli import _layout
from graphck.graph import GraphError, enumerate_paths
from graphck.reps import LEVELS, _test_vectors
from corpus import BUDGET_GRAPH, is_inexact, kernel_elements, layered_graph, random_graphs, rep_family
from oracles import (
    basis_elements,
    boundary_set_oracle,
    canonicalize_oracle,
    cofinal_oracle,
    cutting_sets,
    enumerate_paths_oracle,
    length_refinement_equal,
    maximal_tails_oracle,
    omega_set_oracle,
    parse_graph_oracle,
    report_tuple,
    simple_cycles_oracle,
    strip_suffix,
    tail_triples,
    verify_relations_oracle,
)


@st.composite
def graphs(draw, max_vertices=5, max_edges=8):
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(0, max_edges))
    edges = []
    for k in range(m):
        s = draw(st.sampled_from(vs))
        r = draw(st.sampled_from(vs))
        edges.append((f"e{k}", s, r))
    return Graph(vs, edges)


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=10):
    """Edges drawn from a small pool of vertex pairs, so parallel edges and
    self-loops are common."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    pool = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pool), max_size=max_edges))
    return Graph(vs, [(f"e{k}", s, r) for k, (s, r) in enumerate(picks)])


@st.composite
def graph_and_walk(draw, max_steps=6):
    g = draw(graphs())
    v = draw(st.sampled_from(list(g.vertices)))
    p = g.empty_path(v)
    for _ in range(draw(st.integers(0, max_steps))):
        ins = g.in_edges(p.source)
        if not ins:
            break
        p = p.concat(g.edge_path(draw(st.sampled_from(list(ins)))))
    return g, p


@st.composite
def graph_and_periodic(draw):
    g = draw(graphs())
    cycles = simple_cycles(g)
    assume(cycles)
    cyc = draw(st.sampled_from(cycles))
    per = draw(st.sampled_from(rotations(cyc)))
    # grow a prefix leftward: each new head edge must have its source at the
    # current range
    p = g.empty_path(per.range)
    for _ in range(draw(st.integers(0, 4))):
        outs = g.out_edges(p.range)
        if not outs:
            break
        e = draw(st.sampled_from(list(outs)))
        p = g.edge_path(e).concat(p)
    return g, p, per


@settings(max_examples=60, deadline=None)
@given(graph_and_periodic())
def test_canonicalize_idempotent_and_absorption_stable(data):
    g, prefix, period = data
    x = canonicalize(prefix, period)
    assert canonicalize(x.prefix, x.period) == x
    # winding more periods into the prefix never changes the value
    wound = prefix.concat(period)
    assert canonicalize(wound, period) == x


@settings(max_examples=100, deadline=None)
@given(graph_and_periodic(), st.integers(0, 2))
def test_canonicalize_matches_the_one_edge_loop(data, windings):
    g, prefix, period = data
    for _ in range(windings):  # the absorbed edges may wrap round the period
        prefix = prefix.concat(period)
    assert canonicalize(prefix, period) == canonicalize_oracle(prefix, period)


@settings(max_examples=60, deadline=None)
@given(graph_and_periodic())
def test_shift_prepend_inverse_on_periodic(data):
    g, prefix, period = data
    x = canonicalize(prefix, period)
    head = g.edge_path(x.edge_at(0))
    assert prepend(head, shift(x)) == x
    for f in g.out_edges(x.range):
        assert shift(prepend(g.edge_path(f), x)) == x


@settings(max_examples=60, deadline=None)
@given(graph_and_walk())
def test_w_normal_form_strips_cycle_powers(data):
    g, p = data
    nf = w_normal_form(g, p)
    assert w_normal_form(g, nf) == nf
    assert p.starts_with(nf)
    rest = p.strip_prefix(nf)
    # the stripped tail is a whole power of the entrance-free rotation at
    # the path's source
    rots = [rot for cls in entrance_free_classes(g) for rot in cls.members]
    while not rest.is_empty:
        stripped = [r for r in (strip_suffix(rest, rot) for rot in rots) if r is not None]
        assert stripped
        rest = stripped[0]


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_reduced_graph_has_no_entrance_free_cycles(g):
    for cut in cutting_sets(g):
        assert entrance_free_classes(reduced_graph(g, cut).graph) == ()


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=4, max_edges=6))
def test_cofinality_matches_oracle(g):
    assert is_cofinal(g) == cofinal_oracle(g)


@settings(max_examples=100, deadline=None)
@given(multigraphs())
def test_simple_cycles_match_the_oracle_on_multigraphs(g):
    assert simple_cycles(g) == tuple(simple_cycles_oracle(g))


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=4, max_edges=6))
def test_entrance_free_equals_cycle_filter(g):
    by_filter = {
        cycle_class(c).representative.edges
        for c in simple_cycles(g)
        if not has_entrance_in(g, c, g.vertices)
    }
    assert by_filter == {
        c.representative.edges for c in entrance_free_classes(g)
    }


def _draw_element(data, g, max_len=2):
    """A random element whose keys are paths of length <= max_len."""
    by_source = {}
    for p in enumerate_paths(g, max_len):
        by_source.setdefault(p.source, []).append(p)
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        w = data.draw(st.sampled_from(sorted(by_source)))
        a = data.draw(st.sampled_from(by_source[w]))
        b = data.draw(st.sampled_from(by_source[w]))
        c = GaussianRational(
            Fraction(data.draw(st.integers(-2, 2))),
            Fraction(data.draw(st.integers(-2, 2))),
        )
        key = (a, b)
        terms[key] = terms[key] + c if key in terms else c
    return AlgebraElement(terms)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=4, max_edges=5), st.data())
def test_algebra_axioms(g, data):
    a, b, c = (_draw_element(data, g) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()
    assert a.adjoint().adjoint() == a
    assert (a + b) * c == a * c + b * c


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=4, max_edges=6))
def test_boundary_set_closed_under_shift_random(g):
    family = set(boundary_set(g, 2))
    for x in family:
        if x.edge_at(0) is not None:
            assert shift(x) in family


@settings(max_examples=40, deadline=None)
@given(graph_and_periodic())
def test_rotation_canonicalization_idempotent(data):
    g, _, period = data
    assert canonical_rotation(canonical_rotation(period)) == canonical_rotation(
        period
    )
    assert cycle_class(period) == cycle_class(canonical_rotation(period))
    for r in rotations(period):
        assert r == g.path(r.edges)  # each rotation carries its own itinerary
        assert canonical_rotation(r) == min(rotations(r), key=lambda p: p.edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=6, max_edges=9))
def test_maximal_tails_match_oracle(g):
    assert tail_triples(maximal_tails(g)) == maximal_tails_oracle(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=6, max_edges=9))
def test_class_tails_are_circle_tails_of_the_double(g):
    """``tail_of_class`` returns its closed form unchecked: each result
    passes MT1-MT3 and is the circle-type maximal tail of the doubled graph
    whose cycle is the alpha copy of the class."""
    tg = toeplitz_graph(g)
    tails = maximal_tails(tg.graph)
    for cls in entrance_free_classes(g):
        tail = tail_of_class(tg, cls)
        assert is_maximal_tail(tg.graph, tail.vertices)
        assert tail.kind == "tau" and tail in tails
        assert tail.cycle_class == cycle_class(tg.alpha_path(cls.representative))


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=4, max_edges=6), st.data())
def test_rescaling_maps_pins_and_fixes_defects(g, data):
    """``rescale_generators`` returns its correspondence unchecked: for a
    cutting set and rational phases, as a map and as a constant, it sends
    each untwisted pin p_{r(mu)} - s_mu to conj kappa(C) times the twisted pin
    kappa(C) p_{r(mu)} - s_mu, fixes every CK defect, and rescaling by kappa
    and then by conj kappa is the identity."""
    cut = data.draw(st.sampled_from(cutting_sets(g)))
    turn = st.integers(0, 11).map(lambda k: PolarCoeff(1, Fraction(k, 12)))
    constant = data.draw(turn)
    fam = canonical_family(g)
    defects = [ck_defect(fam, v) for v in g.vertices if g.in_edges(v)]
    elements = [_draw_element(data, g) for _ in range(3)]
    for kappa in ({x: data.draw(turn) for x in cut}, constant):
        table = kappa if isinstance(kappa, dict) else {x: constant for x in cut}
        rs = rescale_generators(g, cut, kappa)
        for cls in entrance_free_classes(g):
            (x,) = cls.edge_set & set(cut)
            kc = table[x]
            for mu in cls.members:
                p, s = vertex_projection(g, mu.range), path_isometry(g, mu)
                assert rs.rescale_element(p - s) == (p.scaled(kc) - s).scaled(kc.conjugate())
        for d in defects:
            assert rs.rescale_element(d) == d
        back = rescale_generators(g, cut, {x: ph.conjugate() for x, ph in table.items()})
        for a in elements:
            assert back.rescale_element(rs.rescale_element(a)) == a


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_text_round_trip(g):
    assert parse_graph(g.to_text()) == g


def _reps(g, turn):
    out = [left_regular(g), boundary(g)]
    if omega_supported(g):
        out.append(omega(g))
    out.append(twisted_boundary(g, {x: PolarCoeff(1, turn) for x in canonical_cutting_set(g)}))
    return out


@settings(max_examples=40, deadline=None)
@given(graphs(max_edges=7), st.integers(0, 11), st.integers(0, 4))
def test_lazy_test_vectors_match_the_test_set(g, k, depth):
    """Every test set grown layer by layer from ``graph.path_layers`` equals
    the eager oracle built whole and sorted once, element for element."""
    assert enumerate_paths(g, depth) == list(enumerate_paths_oracle(g, depth))
    assert boundary_set(g, depth) == boundary_set_oracle(g, depth)
    assert omega_set(g, depth) == omega_set_oracle(g, depth)
    for rep in _reps(g, Fraction(k, 12)):
        assert list(_test_vectors(rep, depth)) == list(basis_elements(rep, depth)), rep.kind


def _walk_to(draw, g, w, max_len):
    """A path with source w of up to max_len edges, grown at its range."""
    p = g.empty_path(w)
    for _ in range(draw(st.integers(0, max_len))):
        outs = g.out_edges(p.range)
        if not outs:
            break
        p = g.edge_path(draw(st.sampled_from(outs))).concat(p)
    return p


def _long_element(draw, g, inexact, max_len=5, max_terms=3):
    """A random element, complex when ``inexact``, whose keys have up to
    max_len edges."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        w = draw(st.sampled_from(g.vertices))
        re, im = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        key = (_walk_to(draw, g, w, max_len), _walk_to(draw, g, w, max_len))
        terms[key] = complex(re, im) if inexact else GaussianRational(re, im)
    return AlgebraElement(terms)


@settings(max_examples=60, deadline=None)
@given(graphs(max_edges=6), st.integers(0, 11), st.data())
def test_heads_refinement_matches_the_length_refinement(g, k, data):
    """``operator_equal`` refines each beta only along the heads of longer
    betas; it decides every pair as the refinement of every beta to the
    longest beta length does, on equal pairs a + r K s (K a kernel element)
    and on random ones."""
    cut = canonical_cutting_set(g)
    zeta = cmath.exp(2j * math.pi * k / 12)
    reps = [boundary(g), twisted_boundary(g, {x: PolarCoeff(1, Fraction(k, 12)) for x in cut}),
            twisted_boundary(g, {x: zeta for x in cut})]
    if omega_supported(g):
        reps.append(omega(g))
    for rep in reps:
        inexact = is_inexact(rep)
        a = _long_element(data.draw, g, inexact)
        kernel = kernel_elements(g, rep)
        equal = bool(kernel) and data.draw(st.booleans())
        if equal:
            r, t = (_long_element(data.draw, g, inexact, max_len=2, max_terms=1) for _ in range(2))
            b = a + r * data.draw(st.sampled_from(kernel)) * t
        else:
            b = _long_element(data.draw, g, inexact)
        verdict = operator_equal(rep, a, b)
        assert verdict == length_refinement_equal(rep, a, b), rep
        assert verdict or not equal, rep


# seeds whose ``random_graphs`` graph has an entrance-free cycle to twist
# (a Toeplitz double has none)
TWISTABLE_SEEDS = [seed for seed in range(300) if entrance_free_classes(random_graphs(seed, 1, max_vertices=6)[0])]


@st.composite
def canonical_reps(draw):
    """A representation of a seeded ``random_graphs`` graph: left-regular,
    boundary or omega (where supported), also of the graph's Toeplitz
    double, or twisted at quarter, k/12 or level-840 turns or by complex
    units."""
    kind = draw(st.sampled_from(["left-regular", "boundary", "omega", "twisted", "complex"]))
    twisted = kind in ("twisted", "complex")
    seed = draw(st.sampled_from(TWISTABLE_SEEDS) if twisted else st.integers(0, 10**6))
    g = random_graphs(seed, 1, max_vertices=6)[0]
    if not twisted and draw(st.booleans()):
        g = toeplitz_graph(g).graph
    if kind == "left-regular":
        return left_regular(g)
    if not twisted:
        return omega(g) if kind == "omega" and omega_supported(g) else boundary(g)
    n = draw(st.sampled_from([4, 12, 840]))
    turns = {x: Fraction(draw(st.integers(0, n - 1)), n) for x in canonical_cutting_set(g)}
    if kind == "complex":
        return twisted_boundary(g, {x: cmath.exp(2j * math.pi * t) for x, t in turns.items()})
    return twisted_boundary(g, {x: PolarCoeff(1, t) for x, t in turns.items()})


@settings(max_examples=150, deadline=None)
@given(canonical_reps())
def test_canonical_reports_match_the_explicit_family(rep):
    """The closed-form canonical report equals the report of the general
    route on the explicit canonical family, at every level."""
    event(f"{rep.kind} {'complex' if is_inexact(rep) else 'exact'}")
    fam = rep_family(rep)
    for level in LEVELS:
        assert report_tuple(verify_relations(rep, level)) == report_tuple(
            verify_relations(rep, level, family=fam)), level


# The scan oracle applies every relation to every vector of its test set; a
# graph with several loops at one vertex gives a default-depth set of over
# 10^5 vectors and one example of minutes, so examples stay below this size.
ORACLE_VECTORS = 20_000


def _small_test_set(rep, depth) -> bool:
    try:
        size = sum(1 for _ in itertools.islice(_test_vectors(rep, depth), ORACLE_VECTORS + 1))
    except WorkBudgetError:
        return False
    return size <= ORACLE_VECTORS


@settings(max_examples=40, deadline=None)
@given(graphs(max_edges=7), st.integers(0, 11), st.sampled_from([None, 0, 1, 2]))
def test_verify_relations_matches_the_scan(g, k, extra):
    """Closed-form decisions plus the lazy witness search report exactly what
    a scan of the whole test set reports, at the default depth and at
    shallow ones (where a failing relation may have no witness yet)."""
    reps = _reps(g, Fraction(k, 12))
    tg = toeplitz_graph(g)
    toeplitz_reps = (left_regular(tg.graph), boundary(tg.graph))
    deepest = min_verification_depth(g, REDUCED)  # the test sets grow with the depth
    assume(all(_small_test_set(rep, deepest + (len(g.vertices) if extra is None else extra))
               for rep in reps))
    assume(all(_small_test_set(rep, deepest + (extra or 0)) for rep in toeplitz_reps))
    for rep in reps:
        for level in LEVELS:
            depth = None if extra is None else min_verification_depth(g, level) + extra
            assert report_tuple(verify_relations(rep, level, depth)) == report_tuple(
                verify_relations_oracle(rep, level, depth)), (rep.kind, level)
    fam = toeplitz_family(tg)
    for rep in toeplitz_reps:
        for level in LEVELS:
            depth = min_verification_depth(g, level) + (extra or 0)
            assert report_tuple(verify_relations(rep, level, depth, fam)) == report_tuple(
                verify_relations_oracle(rep, level, depth, fam)), (rep.kind, level)


@st.composite
def perturbed_families(draw):
    """A left-regular, boundary or omega representation of a graph of at most
    4 vertices with an entrance-free cycle, and its canonical family with one
    monomial c s_alpha s_beta^* (paths of length at most 2) added to one
    generator, most often to one that a cycle relation R reads."""
    g = draw(graphs(max_vertices=4, max_edges=6))
    classes = entrance_free_classes(g)
    assume(classes)
    make = draw(st.sampled_from([left_regular, boundary, omega]))
    rep = boundary(g) if make is omega and not omega_supported(g) else make(g)
    mu = draw(st.sampled_from([m for cls in classes for m in cls.members]))
    on_mu = [("p", mu.range)] + [("s", e) for e in mu.edges]
    anywhere = [("p", v) for v in g.vertices] + [("s", e) for e in g.edges]
    kind, name = draw(st.sampled_from(on_mu if draw(st.booleans()) else anywhere))
    paths = enumerate_paths_oracle(g, 2)
    alpha = draw(st.sampled_from(paths))
    beta = draw(st.sampled_from([b for b in paths if b.source == alpha.source]))
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), GaussianRational(0, 1), GaussianRational(1, 1)]))
    fam = canonical_family(g)
    gens = {"p": dict(fam.p), "s": dict(fam.s)}
    gens[kind][name] = gens[kind][name] + monomial(g, alpha, beta, c)
    return rep, GeneratorFamily(g, gens["p"], gens["s"])


@settings(max_examples=60, deadline=None)
@given(perturbed_families())
def test_cycle_relation_on_perturbed_families_matches_the_scan(case):
    """R decided by ``operator_equal``, with a witness search only when it
    fails, reports what a scan of the whole test set reports on canonical
    families with one generator perturbed (most of which also fail T1-T3)."""
    rep, fam = case
    depth = min_verification_depth(fam.index, NORMALIZED) + len(rep.graph.vertices)
    assume(_small_test_set(rep, depth))
    for level in (REDUCED, NORMALIZED):
        report = verify_relations(rep, level, family=fam)
        event(f"{rep.kind} R {'fails' if any(f.relation.startswith('R[') for f in report.failures) else 'holds'}")
        assert report_tuple(report) == report_tuple(verify_relations_oracle(rep, level, family=fam)), level


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=9, max_edges=24))
@example(layered_graph(12))
@example(layered_graph(18))
@example(parse_graph(BUDGET_GRAPH))
def test_passing_toeplitz_reports_build_no_test_set(g):
    """The Toeplitz family is a TCK family, and ``operator_equal`` decides its
    T1-T3 with no test set: under a zero work budget any witness search would
    raise.  The drawn graphs reach far past ORACLE_VECTORS, and the explicit
    examples have default-depth test sets of 10^5 vectors and more."""
    tg = toeplitz_graph(g)
    fam = toeplitz_family(tg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("graphck.reps.WORK_BUDGET", 0)
        started = time.perf_counter()
        for rep in (left_regular(tg.graph), boundary(tg.graph)):
            assert verify_relations(rep, TCK, family=fam).passed, rep.kind
        assert time.perf_counter() - started < 2.0


JSON_STRINGS = st.text() | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "\u2028", "\U0001f600", "\ud800"])
REPORT_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_STRINGS,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_TREES)
def test_report_layout_matches_json_dumps(tree):
    """The CLI's report layout is ``json.dumps(indent=2, sort_keys=True)``
    on every tree of the kinds a report holds, empty containers included."""
    assert _layout(tree, "") == json.dumps(tree, indent=2, sort_keys=True)


@st.composite
def graph_file_texts(draw):
    """Graph texts with comments, blank lines and LF, CRLF or CR line ends;
    some declare an endpoint late, repeat an id or hold a malformed line."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    lines = [f"vertex {v}" for v in vs]
    for k in range(draw(st.integers(0, 6))):
        s, r = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        lines.append(f"edge e{k} : {s} -> {r}" + draw(st.sampled_from(["", "", "  # note"])))
    if lines and draw(st.booleans()):  # an edge moved ahead of its endpoints, or a repeat
        line = lines.pop(draw(st.integers(0, len(lines) - 1)))
        lines.insert(draw(st.integers(0, len(lines))), line)
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.sampled_from([False, False, True])):
        bad = draw(st.sampled_from(["vertex", "vertex a b", "vertex bad!id", "edge x : v0 -> q",
                                    "edge y : v0 v0", "edge z : v0 -> b@d", "bogus", "\ufeffvertex w"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "# comment"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=300, deadline=None)
@given(graph_file_texts())
def test_parse_graph_matches_the_checked_constructor(text):
    """``parse_graph`` builds without the constructor's second round of
    checks: the graph equals the one ``Graph(vertices, edges)`` builds, and a
    malformed text raises the same error with the same message."""
    try:
        want = parse_graph_oracle(text)
    except GraphError as err:
        event(type(err).__name__)
        with pytest.raises(GraphError) as got:
            parse_graph(text)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        return
    g = parse_graph(text)
    assert g == want and hash(g) == hash(want)
    assert (g.vertices, g.edges) == (want.vertices, want.edges)
    assert all((g.in_edges(v), g.out_edges(v)) == (want.in_edges(v), want.out_edges(v)) for v in want.vertices)
    assert all((g.source_of(e), g.range_of(e)) == (want.source_of(e), want.range_of(e)) for e in want.edges)
    assert g.to_text() == want.to_text() and g.fingerprint() == want.fingerprint()
