import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from graphck import (
    BOUNDARY,
    CK,
    LEFT_REGULAR,
    NORMALIZED,
    OMEGA,
    REDUCED,
    TCK,
    AlgebraElement,
    GaussianRational,
    GeneratorFamily,
    Graph,
    GraphError,
    NotReducedError,
    WorkBudgetError,
    Phase,
    apply,
    boundary,
    boundary_set,
    canonical_cutting_set,
    canonical_family,
    canonicalize,
    ck_defect,
    diag_expectation,
    entrance_free_classes,
    enumerate_paths,
    extract_kappa,
    ikappa_generators,
    left_regular,
    monomial,
    noncofinal_witness,
    omega,
    omega_set,
    operator_equal,
    parse_graph,
    path_isometry,
    prepend,
    rescale_family,
    toeplitz_family,
    toeplitz_graph,
    twisted_boundary,
    verify_relations,
    vertex_projection,
    zero,
)
from graphck import algebra, exact, is_cofinal, reps
from corpus import (BUDGET_GRAPH, CORPUS, EXTRAS, complex_family, g1_loop, g2_cyc2, g3_ent, layered_graph,
                    random_element)
from oracles import (
    basis_elements,
    deep_walk_equal,
    ideal_span_pairs,
    paths_up_to,
    report_tuple,
    verify_relations_oracle,
    w_paths,
)


def _omega_graphs(limit=None):
    names = [name for name, _ in CORPUS]
    graphs = [g for _, g in CORPUS]
    pairs = list(zip(names, graphs))
    return pairs[:limit] if limit else pairs


def test_apply_examples():
    g1 = g1_loop()
    brep = boundary(g1)
    x = canonicalize(g1.empty_path("v"), g1.path(["e"]))
    out = apply(brep, path_isometry(g1, "e"), x)
    assert out == {x: GaussianRational(Fraction(1))}
    lrep = left_regular(g1)
    out = apply(lrep, path_isometry(g1, "e"), g1.path(["e"]))
    assert list(out) == [g1.path(["e", "e"])]
    trep = twisted_boundary(g1, {"e": Phase(Fraction(1, 2))})
    out = apply(trep, path_isometry(g1, "e"), x)
    assert out == {x: GaussianRational(Fraction(-1))}


def test_apply_basis_mismatch():
    g1 = g1_loop()
    x = canonicalize(g1.empty_path("v"), g1.path(["e"]))
    with pytest.raises(GraphError, match="basis mismatch"):
        apply(left_regular(g1), vertex_projection(g1, "v"), x)
    with pytest.raises(GraphError, match="basis mismatch"):
        apply(boundary(g1), vertex_projection(g1, "v"), g1.empty_path("v"))


def test_twisted_construction_validation():
    g2 = g2_cyc2()
    with pytest.raises(GraphError, match="cutting set"):
        twisted_boundary(g2, {"e1": Phase(0), "e2": Phase(0)})
    with pytest.raises(GraphError, match="^e1 is not a cutting set$"):
        twisted_boundary(g3_ent(), {"e1": Phase(0)})
    with pytest.raises(GraphError, match="unit"):
        twisted_boundary(g2, {"e1": 0.5 + 0j})
    # an exact unit of infinite order is no rational phase
    with pytest.raises(GraphError, match="infinite order"):
        twisted_boundary(g2, {"e1": exact.GaussianRational(Fraction(3, 5), Fraction(4, 5))})
    assert twisted_boundary(g2, {"e1": exact.PolarCoeff(-1, Fraction(1, 6))}).kappa == {"e1": Phase(Fraction(2, 3))}


def test_omega_rejects_unsupported_graphs():
    for name, g in EXTRAS:
        with pytest.raises(GraphError, match="omega"):
            omega(g)
        boundary(g)  # boundary stays available


def test_verify_left_regular_tck_passes_ck_fails():
    g1 = g1_loop()
    lrep = left_regular(g1)
    assert verify_relations(lrep, TCK).passed
    report = verify_relations(lrep, CK, depth=3)
    assert not report.passed
    assert [(f.relation, f.witness) for f in report.failures] == [("CK[v]", "@v")]


def test_verify_matrix_over_corpus():
    for name, g in _omega_graphs():
        depth = 2 * len(g.vertices)
        lrep = left_regular(g)
        assert verify_relations(lrep, TCK, depth=max(depth, 1)).passed, name
        report = verify_relations(lrep, CK)
        receiving = {v for v in g.vertices if g.in_edges(v)}
        failed = {f.relation for f in report.failures}
        assert failed == {f"CK[{v}]" for v in receiving}, name
        for f in report.failures:
            assert f.witness == f"@{f.relation[3:-1]}"  # the empty path witness
        min_depth = 1 + max(
            (len(c.representative) for c in entrance_free_classes(g)), default=0
        )
        assert verify_relations(
            boundary(g), NORMALIZED, depth=max(depth, min_depth)
        ).passed, name
        assert verify_relations(
            omega(g), NORMALIZED, depth=max(depth, min_depth)
        ).passed, name


def test_verify_boundary_reduced_reports_unit_kappa():
    g2 = g2_cyc2()
    report = verify_relations(boundary(g2), REDUCED)
    assert report.passed
    assert report.kappa == (("e1 e2", "1"),)


def test_verify_depth_precondition():
    g1 = g1_loop()
    with pytest.raises(ValueError, match="minimum"):
        verify_relations(boundary(g1), REDUCED, depth=1)


def test_twisted_reduced_and_extract_kappa():
    g1 = g1_loop()
    trep = twisted_boundary(g1, {"e": Phase(Fraction(1, 2))})
    report = verify_relations(trep, REDUCED)
    assert report.passed
    assert report.kappa == (("e", "-1"),)
    (cls,) = entrance_free_classes(g1)
    assert extract_kappa(trep) == {cls: Phase(Fraction(1, 2))}
    quarter = twisted_boundary(g1, {"e": Phase(Fraction(1, 4))})
    assert extract_kappa(quarter) == {cls: Phase(Fraction(1, 4))}
    assert extract_kappa(boundary(g1)) == {cls: Phase(0)}
    assert extract_kappa(twisted_boundary(g3_ent(), {})) == {}


def test_reports_carry_the_cycle_scalars_extract_kappa_reads():
    """``report.kappa`` prints the scalars that ``extract_kappa`` reads: every
    class at ``reduced``, and at ``normalized`` the classes whose scalar is 1,
    the others failing on that scalar."""
    g = parse_graph("vertex u\nvertex v\nvertex w\nedge e1 : u -> v\nedge e2 : v -> u\n"
                    "edge f : w -> w\n")
    for f_turn in (Fraction(5, 6), Fraction(0)):
        trep = twisted_boundary(g, {"e2": Phase(Fraction(1, 3)), "f": Phase(f_turn)})
        read = {cls.representative.render(): exact.render(exact.from_phase(ph), polar=True)
                for cls, ph in extract_kappa(trep).items()}
        assert read["e1 e2"] == "1@1/3" and dict(verify_relations(trep, REDUCED).kappa) == read
        normalized = verify_relations(trep, NORMALIZED)
        assert dict(normalized.kappa) == {r: v for r, v in read.items() if v == "1"}
        assert {f.witness for f in normalized.failures} == {f"scalar {v} is not 1" for v in read.values() if v != "1"}
        assert verify_relations(trep, CK).kappa == ()


def test_complex_twist_on_an_exact_family():
    """The cycle scalar of a complex twist is inexact; an exact custom family
    multiplies its range projection by it like the complex families do."""
    g = g2_cyc2()
    phase = cmath.exp(2j * math.pi * 0.1234)
    rep = twisted_boundary(g, {"e1": phase})
    reports = [report_tuple(verify_relations(rep, REDUCED, family=fam))
               for fam in (None, canonical_family(g), complex_family(canonical_family(g)))]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0] == report_tuple(verify_relations_oracle(rep, REDUCED, family=canonical_family(g)))
    ((_, kappa),) = reports[0][3]
    assert abs(complex(kappa) - phase) < 1e-9


def test_extract_kappa_decides_graphs_above_the_old_budget():
    g = parse_graph(BUDGET_GRAPH + "vertex w\nedge lw : w -> w\n")
    started = time.perf_counter()
    assert list(extract_kappa(boundary(g)).values()) == [Phase(0)]
    trep = twisted_boundary(g, {"lw": Phase(Fraction(1, 6))})
    assert list(extract_kappa(trep).values()) == [Phase(Fraction(1, 6))]
    assert time.perf_counter() - started < 2.0


def test_witness_search_stops_at_the_least_witness(monkeypatch):
    """On the explicit canonical family, the left-regular CK witnesses are the
    empty paths, the first layer of the test set, so the search generates
    nothing past it; a search that needs more than WORK_BUDGET paths and
    vectors is refused."""
    g = layered_graph(18)
    fam = canonical_family(g)
    n, budget = len(g.vertices), reps.WORK_BUDGET
    monkeypatch.setattr(reps, "WORK_BUDGET", n)
    least = verify_relations(left_regular(g), CK, family=fam).failures
    assert [f.witness for f in least] == [f"@{v}" for v in g.vertices if g.in_edges(v)]
    monkeypatch.setattr(reps, "WORK_BUDGET", n - 1)
    with pytest.raises(WorkBudgetError, match=f"more than {n - 1} paths"):
        verify_relations(left_regular(g), CK, family=fam)
    # a custom family whose T1[a] fails first on the path gamma, behind the
    # thousands of shorter left-regular test vectors
    gamma = g.path(["e01xa"] + [f"e{k:02d}xx" for k in range(2, 9)])
    s_gamma = path_isometry(g, gamma)
    bent = GeneratorFamily(g, {**fam.p, "a": fam.p["a"] + s_gamma * s_gamma.adjoint()}, fam.s)
    monkeypatch.setattr(reps, "WORK_BUDGET", budget)
    report = verify_relations(left_regular(g), TCK, family=bent)
    assert [(f.relation, f.witness) for f in report.failures] == [("T1[a]", gamma.render())]
    assert verify_relations(left_regular(g), TCK, depth=len(gamma) - 1, family=bent).passed
    monkeypatch.setattr(reps, "WORK_BUDGET", 1000)
    with pytest.raises(WorkBudgetError, match="more than 1000 paths"):
        verify_relations(left_regular(g), TCK, family=bent)
    # the budget bounds only the witness search: passing relations build
    # nothing, and canonical reports read their witnesses without a search
    monkeypatch.setattr(reps, "WORK_BUDGET", 0)
    assert verify_relations(boundary(g), CK, family=fam).passed
    assert verify_relations(left_regular(g), TCK, family=fam).passed
    assert verify_relations(left_regular(g), CK).failures == least


def test_cycle_relation_on_the_toeplitz_family_reads_the_twin_projections():
    # under toeplitz_family, p_v = p_alpha(v) + p_beta(v); the cycle relation
    # tests the vectors that projection fixes, so s_e fails at the beta twin
    # (boundary) or moves the empty path at alpha(v) (left-regular)
    tg = toeplitz_graph(g1_loop())
    fam = toeplitz_family(tg)
    depth = reps.min_verification_depth(g1_loop(), REDUCED)
    for rep, witness in ((boundary(tg.graph), "@beta:v|."), (left_regular(tg.graph), "@alpha:v")):
        failures = verify_relations(rep, REDUCED, depth, fam).failures
        assert [(f.relation, f.witness) for f in failures if f.relation.startswith("R[")] == [
            ("R[e]", witness)], rep.kind


def test_passing_reports_build_no_test_set(refuse_test_sets):
    rng = random.Random(12)
    for name, g in CORPUS:
        assert verify_relations(boundary(g), NORMALIZED).passed, name
        assert verify_relations(omega(g), NORMALIZED).passed, name
        cut = canonical_cutting_set(g)
        kappa = {x: Phase(Fraction(rng.randrange(12), 12)) for x in cut}
        trep = twisted_boundary(g, kappa)
        assert verify_relations(trep, REDUCED).passed, name
        assert verify_relations(rescale_family(trep), NORMALIZED).passed, name
        assert len(extract_kappa(trep)) == len(cut), name


def test_witness_search_rejects_negative_depth():
    g = g2_cyc2()
    quarter = twisted_boundary(g, {"e1": Phase(Fraction(1, 4))})
    for rep in (left_regular(g), boundary(g), omega(g), quarter):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            list(reps._test_vectors(rep, -1))


def _random_multigraphs(seed, count):
    """Seeded multigraphs of 1-5 vertices whose edges pick both ends at
    random, so loops and parallel edges occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vs = [f"v{i}" for i in range(rng.randint(1, 5))]
        edges = [(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(rng.randint(0, 8))]
        out.append(Graph(vs, edges))
    return out


def test_toeplitz_relations_hold_formally_on_the_canonical_family():
    """The lemma behind skipping T1-T3 on the canonical family: each is an
    identity of formal elements, so it holds in every representation."""
    graphs = [g for _, g in CORPUS + EXTRAS]
    graphs += [toeplitz_graph(g).graph for g in graphs]
    graphs += _random_multigraphs(31, 100)
    assert any(len(g.edges) > len(set((g.source_of(e), g.range_of(e)) for e in g.edges))
               for g in graphs)  # parallel edges
    assert any(g.source_of(e) == g.range_of(e) for g in graphs for e in g.edges)  # loops
    for g in graphs:
        for fam in (canonical_family(g), complex_family(canonical_family(g))):
            nothing = zero()
            for u in g.vertices:
                for v in g.vertices:
                    assert fam.p[u] * fam.p[v] == (fam.p[u] if u == v else nothing), (g, u, v)
            for e in g.edges:
                assert fam.s[e].adjoint() * fam.s[e] == fam.p[g.source_of(e)], (g, e)
            for v in g.vertices:
                d = ck_defect(fam, v)
                assert d.adjoint() == d and d * d == d, (g, v)


def test_canonical_reports_build_no_element(monkeypatch):
    """Canonical reports at every level read CK and R in closed form: they
    build, compare and scan nothing, and equal the explicit-family route."""
    rng = random.Random(7)
    cases = []
    for name, g in CORPUS:
        kappa = {x: Phase(Fraction(rng.randrange(12), 12)) for x in canonical_cutting_set(g)}
        cases += [(name, rep) for rep in (left_regular(g), boundary(g), omega(g), twisted_boundary(g, kappa))]
    expected = {(name, rep.kind, level): report_tuple(verify_relations(
        rep, level, family=canonical_family(rep.graph))) for name, rep in cases for level in reps.LEVELS}

    def refuse(*args, **kwargs):
        raise AssertionError("a canonical report built, compared or scanned something")

    assert not hasattr(reps, "canonical_family")
    monkeypatch.setattr(AlgebraElement, "__init__", refuse)
    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    for name in ("operator_equal", "ck_defect", "_cycle_scalar", "_test_vectors"):
        monkeypatch.setattr(reps, name, refuse)
    monkeypatch.setattr(algebra, "canonical_family", refuse)
    for name, rep in cases:
        for level in reps.LEVELS:
            report = verify_relations(rep, level)
            assert report_tuple(report) == expected[name, rep.kind, level], (name, rep.kind, level)
            mind = reps.min_verification_depth(rep.graph, level)
            assert report.depth == mind + len(rep.graph.vertices), (name, rep.kind, level)
            assert verify_relations(rep, level, depth=mind + 1).depth == mind + 1
            with pytest.raises(ValueError, match="minimum"):
                verify_relations(rep, level, depth=mind - 1)
        assert verify_relations(rep, TCK).passed, (name, rep.kind)
        with pytest.raises(ValueError, match="unknown level"):
            verify_relations(rep, "tk")


def test_custom_families_still_check_the_toeplitz_relations():
    """A family with q_u = p_u + p_w and t_e = 2 s_e breaks T1, T2 and T3;
    the reports match the oracle scan, witnesses included."""
    for name, g in CORPUS + EXTRAS:
        if len(g.vertices) < 2 or not g.edges:
            continue
        fam = canonical_family(g)
        u, w = g.vertices[:2]
        e = g.edges[0]
        broken = GeneratorFamily(g, {**fam.p, u: fam.p[u] + fam.p[w]}, {**fam.s, e: fam.s[e].scaled(2)})
        for rep in (left_regular(g), boundary(g)):
            for level in (TCK, CK):
                report = verify_relations(rep, level, family=broken)
                assert report_tuple(report) == report_tuple(
                    verify_relations_oracle(rep, level, family=broken)), (name, rep.kind, level)
                failed = {f.relation.split("[")[0] for f in report.failures}
                assert {"T1", "T2", "T3"} <= failed, (name, rep.kind, level)


def _two_edge_family(scale):
    """Over F = (u, v; a, b: u -> v), the index E = (e: u -> v) with q = p
    and t_e = scale * (s_a + s_b): the CK defect at v is not diagonal in the
    path or boundary basis, and it is the projection
    1/2 (s_a - s_b)(s_a - s_b)^* when scale is 1/sqrt 2."""
    f = Graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    t = path_isometry(f, f.path(["a"])) + path_isometry(f, f.path(["b"]))
    return f, GeneratorFamily(Graph(["u", "v"], [("e", "u", "v")]), canonical_family(f).p,
                              {"e": t.scaled(scale)})


def test_toeplitz_projection_relation_asks_for_a_projection():
    """T3 holds when the defect is a projection, diagonal in the basis or not,
    and fails with the oracle's witness when it is not one."""
    root_half = exact.PolarCoeff(Fraction(1, 2), Fraction(1, 8)) + exact.PolarCoeff(Fraction(1, 2), Fraction(-1, 8))
    assert exact.mul(root_half, root_half) == exact.rational(Fraction(1, 2))
    f, fam = _two_edge_family(root_half)
    d = ck_defect(fam, "v")
    assert not d.is_zero and operator_equal(left_regular(f), d.adjoint() * d, d)
    for rep in (left_regular(f), boundary(f)):
        report = verify_relations(rep, TCK, family=fam)
        assert report.passed, rep.kind
        assert report_tuple(report) == report_tuple(verify_relations_oracle(rep, TCK, family=fam))
    f, fam = _two_edge_family(1)
    for rep, witness in ((left_regular(f), "a"), (boundary(f), "a|.")):
        report = verify_relations(rep, TCK, family=fam)
        assert ("T3[v]", witness) in [(x.relation, x.witness) for x in report.failures], rep.kind
        assert report_tuple(report) == report_tuple(verify_relations_oracle(rep, TCK, family=fam))


def test_a_family_over_another_graph_is_refused():
    """Every key of a custom family must be a path of the represented graph.
    A family over another graph once passed on the left-regular basis (no
    vector of g can witness a failure on h) and raised KeyError on the
    boundary one; now both name the first generator at fault."""
    g = Graph(["u", "v"], [("e", "u", "v")])
    h = Graph(["x"], [("l", "x", "x")])
    reversed_e = Graph(["u", "v"], [("e", "v", "u")])  # same ids, e turned round
    for rep in (left_regular(g), boundary(g)):
        with pytest.raises(GraphError, match=r"generator p\[x\]"):
            verify_relations(rep, CK, family=canonical_family(h))
        with pytest.raises(GraphError, match=r"generator s\[e\]"):
            verify_relations(rep, TCK, family=canonical_family(reversed_e))
        assert verify_relations(rep, TCK, family=canonical_family(g)).passed


def test_an_incomplete_family_is_refused():
    """A custom family must give a generator for every vertex and edge of its
    index graph; a missing one is named instead of raising KeyError."""
    g = Graph(["u", "v"], [("e", "u", "v")])
    fam = canonical_family(g)
    for rep in (left_regular(g), boundary(g)):
        for level in reps.LEVELS:
            with pytest.raises(GraphError, match=r"lacks the generator p\[v\]"):
                verify_relations(rep, level, family=GeneratorFamily(g, {"u": fam.p["u"]}, fam.s))
            with pytest.raises(GraphError, match=r"lacks the generator s\[e\]"):
                verify_relations(rep, level, family=GeneratorFamily(g, fam.p, {}))
            assert verify_relations(rep, level, family=fam).passed == (rep.kind == BOUNDARY or level == TCK)


def test_a_kappa_above_level_1000_fails_only_where_its_scalar_is_read():
    """CK holds on a twisted representation whatever its kappa, so only
    ``reduced`` and ``normalized``, which read the cycle scalar, need the
    level of kappa and raise LevelError (the CLI, which prints kappa at every
    level, exits 2 on each)."""
    rep = twisted_boundary(g2_cyc2(), {"e1": Phase(Fraction(1, 1001))})
    assert verify_relations(rep, TCK).passed and verify_relations(rep, CK).passed
    for level in (REDUCED, NORMALIZED):
        with pytest.raises(exact.LevelError, match="level 1001"):
            verify_relations(rep, level)
    with pytest.raises(exact.LevelError, match="level 1001"):
        extract_kappa(rep)


def test_extract_kappa_rejects_left_regular():
    with pytest.raises(NotReducedError):
        extract_kappa(left_regular(g1_loop()))


def test_twisted_normalized_fails_with_witness():
    g1 = g1_loop()
    trep = twisted_boundary(g1, {"e": Phase(Fraction(1, 2))})
    report = verify_relations(trep, NORMALIZED)
    assert not report.passed
    assert report.failures[0].relation == "R[e]"


def test_phase_accumulates_once_per_period():
    # the cutting edge is traversed once per winding of any rotation
    g2 = g2_cyc2()
    trep = twisted_boundary(g2, {"e1": Phase(Fraction(1, 3))})
    (cls,) = entrance_free_classes(g2)
    assert extract_kappa(trep)[cls] == Phase(Fraction(1, 3))
    double = path_isometry(g2, g2.path(["e1", "e2", "e1", "e2"]))
    x = canonicalize(g2.empty_path("v"), g2.path(["e1", "e2"]))
    out = apply(trep, double, x)
    assert out == {x: exact.PolarCoeff(Fraction(1), Fraction(2, 3))}


def test_rescale_family_roundtrip():
    g1 = g1_loop()
    for turn in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(0)):
        trep = twisted_boundary(g1, {"e": Phase(turn)})
        rescaled = rescale_family(trep)
        assert verify_relations(rescaled, NORMALIZED).passed
        for phase in extract_kappa(rescaled).values():
            assert phase == Phase(0)
    with pytest.raises(GraphError, match="twisted"):
        rescale_family(boundary(g1))


def test_twisted_zero_phase_acts_like_boundary():
    g1 = g1_loop()
    trep = twisted_boundary(g1, {"e": Phase(0)})
    brep = boundary(g1)
    elems = [
        path_isometry(g1, "e"),
        vertex_projection(g1, "v"),
        path_isometry(g1, g1.path(["e", "e"])).adjoint(),
    ]
    for el in elems:
        for x in basis_elements(brep, 3):
            assert apply(trep, el, x) == apply(brep, el, x)


def test_operator_equal_examples():
    g1, g2 = g1_loop(), g2_cyc2()
    s_e, p_v = path_isometry(g1, "e"), vertex_projection(g1, "v")
    assert operator_equal(boundary(g1), s_e, p_v)
    assert not operator_equal(left_regular(g1), s_e, p_v)
    assert operator_equal(
        omega(g2),
        path_isometry(g2, g2.path(["e1", "e2"])),
        vertex_projection(g2, "v"),
    )


def test_vertex_projections_nonzero_in_all_kinds():
    for name, g in _omega_graphs():
        reps = [left_regular(g), boundary(g), omega(g)]
        cut = canonical_cutting_set(g)
        if cut:
            reps.append(
                twisted_boundary(g, {x: Phase(Fraction(1, 5)) for x in cut})
            )
        for rep in reps:
            for v in g.vertices:
                p = vertex_projection(g, v)
                assert not operator_equal(rep, p, zero()), (name, rep.kind, v)


def test_representation_is_multiplicative_on_random_elements():
    rng = random.Random(47)
    for name, g in _omega_graphs(8):
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        for rep in (left_regular(g), boundary(g), omega(g)):
            for _ in range(6):
                a = random_element(rng, g, pools)
                b = random_element(rng, g, pools)
                for x in basis_elements(rep, 4):
                    via_b = apply(rep, b, x)
                    composed = {}
                    for y, c in via_b.items():
                        for z, d in apply(rep, a, y).items():
                            w = exact.mul(c, d)
                            composed[z] = (
                                exact.add(composed[z], w) if z in composed else w
                            )
                    composed = {
                        z: w for z, w in composed.items() if not exact.is_zero(w)
                    }
                    assert composed == apply(rep, a * b, x)


def test_ideal_generators_vanish_in_kernel_representations():
    for name, g in _omega_graphs(12):
        brep = boundary(g)
        for el in ikappa_generators(g, Phase(0)).elements():
            assert operator_equal(brep, el, zero()), name
        cut = canonical_cutting_set(g)
        if cut:
            kappa = {x: Phase(Fraction(2, 5)) for x in cut}
            trep = twisted_boundary(g, kappa)
            for el in ikappa_generators(g, Phase(Fraction(2, 5))).elements():
                assert operator_equal(trep, el, zero()), name


def test_separation_of_w_paths_on_omega():
    # distinct W-paths with common source send every omega point to
    # distinct points
    for name, g in _omega_graphs(12):
        depth = 2 * len(g.vertices)
        ws = w_paths(g, min(depth, 4))
        omega_pts = omega_set(g, min(depth, 6))
        for i, a in enumerate(ws):
            for b in ws[i + 1:]:
                if a.source != b.source:
                    continue
                for y in omega_pts:
                    if y.range != a.source:
                        continue
                    assert prepend(a, y) != prepend(b, y), (name, a, b)


def test_expectation_matches_compression_spot_check():
    rng = random.Random(53)
    for name, g in _omega_graphs(8):
        orep = omega(g)
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        pts = omega_set(g, 2 * len(g.vertices))
        for _ in range(8):
            a = random_element(rng, g, pools)
            psi = diag_expectation(g, a)
            for x in pts:
                diag = apply(orep, a, x).get(x)
                out = apply(orep, psi, x)
                if diag is None:
                    assert out == {}
                else:
                    assert out == {x: diag}


def test_expectation_faithfulness_spot_check():
    rng = random.Random(59)
    for name, g in _omega_graphs(8):
        orep = omega(g)
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        for _ in range(6):
            a = random_element(rng, g, pools)
            if diag_expectation(g, a.adjoint() * a).is_zero:
                assert operator_equal(orep, a, zero()), name


def test_simplicity_witness_ideal():
    for name, g in _omega_graphs():
        if is_cofinal(g):
            assert noncofinal_witness(g) is None
            continue
        v, x = noncofinal_witness(g)
        orep = omega(g)
        p_v = vertex_projection(g, v)
        p_top = vertex_projection(g, x.range)
        assert not operator_equal(orep, p_top, zero()), name
        for alpha, beta in ideal_span_pairs(g, x, 2):
            gen = monomial(g, alpha, beta)
            assert operator_equal(orep, p_v * gen, zero()), name
        # the CK expansion behind the annihilation argument
        bound = min(2 * len(g.vertices), 6)
        fam = canonical_family(g)
        expansion = zero()
        for lam in paths_up_to(g, v, bound):
            expansion = expansion + fam.s_path(lam) * fam.s_path(lam).adjoint()
        assert operator_equal(orep, p_v, expansion), name


def test_operator_equal_agrees_with_deep_walks_smoke():
    rng = random.Random(61)
    for name, g in _omega_graphs(6):
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        for rep in (boundary(g), omega(g), left_regular(g)):
            for _ in range(10):
                a = random_element(rng, g, pools)
                b = random_element(rng, g, pools)
                assert operator_equal(rep, a, b) == deep_walk_equal(
                    rep, a, b, walks=60
                ), name
                assert operator_equal(rep, a, a)
                assert deep_walk_equal(rep, a, a, walks=30)
