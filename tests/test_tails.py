import pytest

from graphck import (
    Graph,
    classify_tail,
    entrance_free_classes,
    maximal_tails,
    prim_ideal_catalog,
    tail_of_class,
    toeplitz_graph,
    is_maximal_tail,
)
from corpus import CORPUS, EXTRAS, g1_loop, g2_cyc2, g3_ent, g4_line, random_graphs
from oracles import maximal_tails_oracle, tail_triples


def test_tails_of_toeplitz_loop():
    te = toeplitz_graph(g1_loop()).graph
    tails = maximal_tails(te)
    assert len(tails) == 2
    small, big = tails
    assert small.vertices == frozenset({"alpha:v"})
    assert small.kind == "tau"
    assert small.cycle_class.representative.render() == "alpha:e"
    assert big.vertices == frozenset({"alpha:v", "beta:v"})
    assert big.kind == "gamma"


def test_tails_of_desk_graphs():
    tails1 = maximal_tails(g1_loop())
    assert [(sorted(t.vertices), t.kind) for t in tails1] == [(["v"], "tau")]
    # {v} alone is not a tail of the single-edge graph: its only in-edge
    # continues outside, so the second tail condition fails; the algebra is
    # the 2x2 matrices, which are simple (one primitive ideal, one tail)
    tails4 = maximal_tails(g4_line())
    assert [(sorted(t.vertices), t.kind) for t in tails4] == [
        (["v", "w"], "gamma"),
    ]
    tails2 = maximal_tails(g2_cyc2())
    assert [(sorted(t.vertices), t.kind) for t in tails2] == [(["u", "v"], "tau")]
    # the entrance f enters {u, v} only from outside, so the cycle tail of
    # the entranced graph is still circle-type alongside the full gamma tail
    tails3 = maximal_tails(g3_ent())
    assert [(sorted(t.vertices), t.kind) for t in tails3] == [
        (["u", "v"], "tau"),
        (["u", "v", "w"], "gamma"),
    ]
    pts2 = dict(CORPUS)["pts2"]
    assert [(sorted(t.vertices), t.kind) for t in maximal_tails(pts2)] == [
        (["u"], "gamma"),
        (["v"], "gamma"),
    ]


def test_classify_tail_examples():
    assert classify_tail(g1_loop(), {"v"}).kind == "tau"
    te = toeplitz_graph(g1_loop()).graph
    assert classify_tail(te, {"alpha:v", "beta:v"}).kind == "gamma"
    assert classify_tail(g3_ent(), {"u", "v", "w"}).kind == "gamma"
    with pytest.raises(Exception, match="not a maximal tail"):
        classify_tail(g3_ent(), {"u"})


def test_every_tail_revalidates():
    for _, g in CORPUS:
        if len(g.vertices) > 8:
            continue
        for tail in maximal_tails(g):
            assert is_maximal_tail(g, tail.vertices)


def test_beta_vertices_never_in_tau_tails():
    for _, g in CORPUS[:12]:
        tg = toeplitz_graph(g)
        betas = set(tg.beta_v.values())
        for tail in maximal_tails(tg.graph):
            if tail.kind == "tau":
                assert not (tail.vertices & betas)


def test_class_tails_are_tau_and_forced():
    # every entrance-free class yields a tau tail of the doubled graph, and
    # any tau tail whose cycle class is the alpha copy of an entrance-free
    # class is forced to be exactly that class tail
    for _, g in CORPUS[:12]:
        tg = toeplitz_graph(g)
        class_tails = {}
        for cls in entrance_free_classes(g):
            tail = tail_of_class(tg, cls)
            class_tails[tail.cycle_class.representative.edges] = tail.vertices
        tau_tails = [t for t in maximal_tails(tg.graph) if t.kind == "tau"]
        seen = set()
        for t in tau_tails:
            key = t.cycle_class.representative.edges
            if key in class_tails:
                assert t.vertices == class_tails[key]
                seen.add(key)
        assert seen == set(class_tails)


def test_tau_tails_of_doubled_graph_mirror_base_tau_tails():
    # the doubled graph adds only source twins, so its circle-type tails are
    # exactly the alpha images of the base graph's circle-type tails
    for _, g in CORPUS[:12]:
        tg = toeplitz_graph(g)
        base_tau = {
            frozenset(tg.alpha_v[v] for v in t.vertices)
            for t in maximal_tails(g)
            if t.kind == "tau"
        }
        doubled_tau = {
            t.vertices for t in maximal_tails(tg.graph) if t.kind == "tau"
        }
        assert base_tau == doubled_tau


def test_tail_of_class_examples():
    tg1 = toeplitz_graph(g1_loop())
    (cls1,) = entrance_free_classes(g1_loop())
    t = tail_of_class(tg1, cls1)
    assert t.vertices == frozenset({"alpha:v"}) and t.kind == "tau"
    tg2 = toeplitz_graph(g2_cyc2())
    (cls2,) = entrance_free_classes(g2_cyc2())
    assert tail_of_class(tg2, cls2).vertices == frozenset({"alpha:u", "alpha:v"})


def test_tail_of_class_rejects_entranced_cycle():
    from graphck import cycle_class

    g3 = g3_ent()
    tg = toeplitz_graph(g3)
    cls = cycle_class(g3.path(["e1", "e2"]))
    with pytest.raises(Exception, match="not an entrance-free class"):
        tail_of_class(tg, cls)


def test_prim_ideal_catalog_examples():
    catalog = prim_ideal_catalog(toeplitz_graph(g1_loop()).graph)
    assert [(d.kind, sorted(d.tail.vertices)) for d in catalog] == [
        ("circle", ["alpha:v"]),
        ("gauge", ["alpha:v", "beta:v"]),
    ]
    circle = catalog[0]
    assert circle.generators == (
        "p[beta:v]",
        "z * p[alpha:v] - s[alpha:e]",
    )
    gauge = catalog[1]
    assert gauge.generators == ()  # the dense point

    cat4 = prim_ideal_catalog(g4_line())
    assert [d.kind for d in cat4] == ["gauge"]
    cat2 = prim_ideal_catalog(g2_cyc2())
    assert [(d.kind, sorted(d.tail.vertices)) for d in cat2] == [
        ("circle", ["u", "v"])
    ]


def test_isolated_vertices_are_their_own_gamma_tails():
    for n in (17, 20):
        g = Graph([f"v{i}" for i in range(n)], [])
        assert [(t.vertices, t.kind) for t in maximal_tails(g)] == [
            (frozenset({v}), "gamma") for v in g.vertices
        ]


def test_maximal_tails_match_subset_oracle():
    graphs = [g for _, g in CORPUS + EXTRAS]
    graphs += [toeplitz_graph(g).graph for g in graphs]
    for seed, density in ((11, 0.1), (12, 0.2), (13, 0.3), (14, 0.5)):
        graphs += random_graphs(seed, 40, max_vertices=9, density=density)
    for g in graphs:
        assert tail_triples(maximal_tails(g)) == maximal_tails_oracle(g), g.to_text()
