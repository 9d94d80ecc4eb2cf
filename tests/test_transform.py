from fractions import Fraction

import pytest

from graphck import (
    GaussianRational,
    Graph,
    GraphError,
    Phase,
    boundary,
    canonical_cutting_set,
    class_phases,
    entrance_free_classes,
    ikappa_generators,
    jkappa_generators,
    left_regular,
    operator_equal,
    path_isometry,
    reduced_graph,
    rescale_generators,
    simple_cycles,
    sources,
    toeplitz_family,
    toeplitz_graph,
    twisted_boundary,
    vertex_projection,
    zero,
)
from graphck import apply as rep_apply
from corpus import CORPUS, EXTRAS, g1_loop, g2_cyc2, g3_ent, g4_line, random_graphs
from oracles import basis_elements, cutting_sets


def test_toeplitz_graph_g1():
    tg = toeplitz_graph(g1_loop())
    assert set(tg.graph.vertices) == {"alpha:v", "beta:v"}
    assert set(tg.graph.edges) == {"alpha:e", "beta:e"}
    assert tg.graph.source_of("beta:e") == "beta:v"
    assert tg.graph.range_of("beta:e") == "alpha:v"
    assert tg.graph.range_of("alpha:e") == "alpha:v"


def test_toeplitz_graph_g4():
    tg = toeplitz_graph(g4_line())
    # w receives nothing, so only v gets a twin and e has no beta copy
    assert set(tg.graph.vertices) == {"alpha:v", "alpha:w", "beta:v"}
    assert set(tg.graph.edges) == {"alpha:e"}


def test_toeplitz_vertex_count_formula():
    for _, g in CORPUS + EXTRAS:
        tg = toeplitz_graph(g)
        receiving = sum(1 for v in g.vertices if g.in_edges(v))
        assert len(tg.graph.vertices) == len(g.vertices) + receiving


def test_toeplitz_betas_are_sources_and_cycles_are_alpha():
    for _, g in CORPUS + EXTRAS:
        tg = toeplitz_graph(g)
        srcs = set(sources(tg.graph))
        assert set(tg.beta_v.values()) <= srcs
        expected = {tg.alpha_path(c).edges for c in simple_cycles(g)}
        actual = {c.edges for c in simple_cycles(tg.graph)}
        assert expected == actual


def test_reduced_graph_examples():
    rg = reduced_graph(g1_loop(), ("e",))
    assert rg.graph.vertices == ("zeta:v",) and rg.graph.edges == ()
    rg2 = reduced_graph(g2_cyc2(), ("e1",))
    assert set(rg2.graph.edges) == {"zeta:e2"}
    rg3 = reduced_graph(g3_ent(), ())
    assert len(rg3.graph.edges) == 3  # isomorphic to the input under renaming
    with pytest.raises(GraphError, match="^e1,e2 is not a cutting set$"):
        reduced_graph(g2_cyc2(), ("e2", "e1"))
    with pytest.raises(GraphError, match="^the empty edge set is not a cutting set$"):
        reduced_graph(g2_cyc2(), ())


def test_reduced_graph_kills_entrance_free_cycles():
    graphs = [g for _, g in CORPUS + EXTRAS] + random_graphs(17, 30, max_vertices=6)
    for g in graphs:
        for cut in cutting_sets(g):
            assert entrance_free_classes(reduced_graph(g, cut).graph) == ()


def test_class_phases_forms():
    g2 = g2_cyc2()
    (cls,) = entrance_free_classes(g2)
    constant = class_phases(g2, Phase(Fraction(1, 2)))
    assert constant[cls] == Phase(Fraction(1, 2))
    by_edge = class_phases(g2, {"e1": Phase(Fraction(1, 3))})
    assert by_edge[cls] == Phase(Fraction(1, 3))
    by_rep = class_phases(g2, {("e1", "e2"): Phase(Fraction(1, 5))})
    assert by_rep[cls] == Phase(Fraction(1, 5))
    with pytest.raises(GraphError, match="misses"):
        class_phases(g2, {})
    assert class_phases(g2, GaussianRational(0, 1))[cls] == Phase(Fraction(1, 4))


def test_class_phases_keys_name_exactly_one_class():
    g = Graph(["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "u"), ("f", "w", "w")])
    t = Phase(Fraction(1, 3))
    for call in (class_phases, ikappa_generators):
        with pytest.raises(GraphError, match="kappa key 'zz' names no entrance-free class"):
            call(g, {"e1": t, "f": t, "zz": t})
        with pytest.raises(GraphError, match="kappa names class 'e1 e2' twice"):
            call(g, {"e1": t, "e2": t, "f": t})
        with pytest.raises(GraphError, match="kappa names class 'e1 e2' twice"):
            call(g, {("e1", "e2"): t, "e2": t, "f": t})
    with pytest.raises(GraphError, match="kappa key 'u' names no entrance-free class"):
        jkappa_generators(toeplitz_graph(g), {"e1": t, "f": t, "u": t})
    classes = entrance_free_classes(g)
    assert list(class_phases(g, {"f": t, "e2": t})) == list(classes)


def test_infinite_order_units_are_refused_at_the_call():
    g1 = g1_loop()
    unit = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    message = r"\(3/5\+4/5i\)> is a unit of infinite order"
    with pytest.raises(GraphError, match=message):
        rescale_generators(g1, ["e"], {"e": unit})
    with pytest.raises(GraphError, match=message):
        rescale_generators(g1, ["e"], unit)
    with pytest.raises(GraphError, match=message):
        class_phases(g1, {"e": unit})
    with pytest.raises(GraphError, match=message):
        class_phases(g1, unit)
    with pytest.raises(GraphError, match=message):
        twisted_boundary(g1, {"e": unit})


def test_ikappa_generators_examples():
    gens = ikappa_generators(g1_loop(), Phase(0))
    assert gens.describe() == ["delta[v]", "p[v] - s[e]"]
    gens2 = ikappa_generators(g2_cyc2(), Phase(Fraction(1, 2)))
    assert gens2.describe() == [
        "delta[u]",
        "delta[v]",
        "-1 * p[v] - s[e1 e2]",
        "-1 * p[u] - s[e2 e1]",
    ]
    gens3 = ikappa_generators(g3_ent(), Phase(0))
    assert gens3.describe() == ["delta[u]", "delta[v]"]


def test_jkappa_generators_examples():
    assert jkappa_generators(toeplitz_graph(g1_loop()), Phase(0)).describe() == [
        "p[beta:v]",
        "p[alpha:v] - s[alpha:e]",
    ]
    assert jkappa_generators(toeplitz_graph(g4_line()), Phase(0)).describe() == [
        "p[beta:v]"
    ]
    assert jkappa_generators(toeplitz_graph(g3_ent()), Phase(0)).describe() == [
        "p[beta:u]",
        "p[beta:v]",
    ]


def test_ideal_generators_vanish_in_matching_representation():
    for _, g in CORPUS[:10]:
        gens = ikappa_generators(g, Phase(0))
        rep = boundary(g)
        nil = zero()
        for el in gens.elements():
            assert operator_equal(rep, el, nil)
        if entrance_free_classes(g):
            kappa = {x: Phase(Fraction(1, 3)) for x in canonical_cutting_set(g)}
            twisted = twisted_boundary(g, kappa)
            for el in ikappa_generators(g, Phase(Fraction(1, 3))).elements():
                assert operator_equal(twisted, el, zero())


def test_toeplitz_dictionary_family():
    g1 = g1_loop()
    tg = toeplitz_graph(g1)
    fam = toeplitz_family(tg)
    q_v = fam.p["v"]
    t_e = fam.s["e"]
    assert t_e.adjoint() * t_e == q_v
    defect = q_v - t_e * t_e.adjoint()
    # in a Cuntz-Krieger family of the doubled graph the defect is the twin
    # source projection; in the left-regular one it is merely nonzero
    brep = boundary(tg.graph)
    assert operator_equal(brep, defect, vertex_projection(tg.graph, "beta:v"))
    lrep = left_regular(tg.graph)
    assert not operator_equal(lrep, defect, zero())


def test_dictionary_pins_agree_on_alpha_sector():
    for g in (g1_loop(), g2_cyc2()):
        tg = toeplitz_graph(g)
        fam = toeplitz_family(tg)
        brep = boundary(tg.graph)
        jgens = jkappa_generators(tg, Phase(0))
        for phase, cls in jgens.pins:
            mu_alpha = cls.representative
            base_mu = next(
                c.representative
                for c in entrance_free_classes(g)
                if tg.alpha_path(c.representative) == mu_alpha
            )
            phi_pin = fam.p[base_mu.range].scaled(phase) - fam.s_path(base_mu)
            j_pin = vertex_projection(tg.graph, mu_alpha.range).scaled(
                phase
            ) - path_isometry(tg.graph, mu_alpha)
            for x in basis_elements(brep, 4):
                if x.range.startswith("beta:"):
                    continue
                assert rep_apply(brep, phi_pin, x) == rep_apply(brep, j_pin, x)


def test_rescale_generators_quarter_turn_example():
    g1 = g1_loop()
    rs = rescale_generators(g1, ("e",), {"e": Phase(Fraction(1, 4))})
    # s_e picks up the conjugate phase
    assert rs.edge_phases["e"] == Phase(Fraction(3, 4))
    s_e, p_v = path_isometry(g1, "e"), vertex_projection(g1, "v")
    assert rs.rescale_element(s_e) == s_e.scaled(Phase(Fraction(3, 4)))
    # the untwisted pin goes to -i times the twisted pin i p_v - s_e
    twisted_pin = p_v.scaled(Phase(Fraction(1, 4))) - s_e
    assert rs.rescale_element(p_v - s_e) == twisted_pin.scaled(Phase(Fraction(3, 4)))


def test_rescale_identity_and_roundtrip():
    g2 = g2_cyc2()
    rs = rescale_generators(g2, ("e1",), {"e1": Phase(Fraction(1, 2))})
    back = rescale_generators(g2, ("e1",), {"e1": Phase(Fraction(1, 2)).conjugate()})
    s_e1, s_e2 = path_isometry(g2, "e1"), path_isometry(g2, "e2")
    assert rs.rescale_element(s_e1) == -s_e1
    assert rs.rescale_element(s_e2) == s_e2  # off-cutting-set edges are fixed
    trivial = rescale_generators(g2, ("e1",), Phase(0))
    for a in (s_e1, s_e2 * s_e1.adjoint(), s_e1 * s_e2 + s_e2.adjoint()):
        assert back.rescale_element(rs.rescale_element(a)) == a
        assert trivial.rescale_element(a) == a


def test_rescale_roundtrip_on_corpus_classes():
    """Each untwisted generator goes to a unit multiple of its twisted
    counterpart: 1 on the defects, conj kappa(C) on the pins of C."""
    for _, g in CORPUS:
        if not entrance_free_classes(g):
            continue
        cut = canonical_cutting_set(g)
        kappa = {x: Phase(Fraction(i + 1, 7)) for i, x in enumerate(cut)}
        rs = rescale_generators(g, cut, kappa)
        back = rescale_generators(g, cut, {x: ph.conjugate() for x, ph in kappa.items()})
        gens = ikappa_generators(g, kappa)
        units = [Phase(0)] * len(gens.delta_vertices)
        units += [phase.conjugate() for phase, cls in gens.pins for _ in cls.members]
        untwisted = ikappa_generators(g, Phase(0)).elements()
        assert len(untwisted) == len(units)
        for before, after, unit in zip(untwisted, gens.elements(), units):
            assert rs.rescale_element(before) == after.scaled(unit)
            assert back.rescale_element(rs.rescale_element(before)) == before


def test_rescale_generators_requires_kappa_on_the_cutting_set():
    g = Graph(["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "u"), ("f", "w", "w")])
    third = Phase(Fraction(1, 3))
    message = "kappa must be defined exactly on the cutting set"
    with pytest.raises(GraphError, match=message):
        rescale_generators(g, ("e1", "f"), {"e1": third})
    with pytest.raises(GraphError, match=message):
        rescale_generators(g, ("e1", "f"), {"e1": third, "f": third, "zz": third})
    assert rescale_generators(g, ("e1", "f"), {"e1": third, "f": third}).edge_phases == {
        "e1": third.conjugate(), "f": third.conjugate()}
