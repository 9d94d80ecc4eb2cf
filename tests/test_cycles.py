import pytest

from graphck import (
    CycleCountError,
    GraphError,
    canonical_cutting_set,
    canonical_rotation,
    class_of_edge,
    cycle_class,
    entrance_free_classes,
    has_entrance_in,
    is_cofinal,
    is_cutting_set,
    mu_lambda,
    rotations,
    reduced_graph,
    rescale_generators,
    simple_cycles,
)
from graphck.cycles import checked_cutting_set
from corpus import (
    CORPUS,
    EXTRAS,
    g1_loop,
    g2_cyc2,
    g3_ent,
    g4_line,
    layered_graph,
    random_graphs,
    ring_with_chords,
)
from oracles import cutting_sets, simple_cycles_oracle


def test_simple_cycles_examples():
    assert [c.render() for c in simple_cycles(g1_loop())] == ["e"]
    assert [c.render() for c in simple_cycles(g2_cyc2())] == ["e1 e2"]
    assert simple_cycles(g4_line()) == ()


def test_simple_cycles_multigraph_and_guard(monkeypatch):
    fig8 = dict(EXTRAS)["fig8"]
    assert [c.render() for c in simple_cycles(fig8)] == ["a", "b"]
    monkeypatch.setattr("graphck.cycles.CYCLE_GUARD", 1)
    simple_cycles.cache_clear()
    with pytest.raises(CycleCountError, match="more than 1 simple cycles"):
        simple_cycles(dict(EXTRAS)["cyc2par"])


def test_simple_cycles_match_the_unrestricted_search():
    for name, g in CORPUS + EXTRAS:
        assert simple_cycles(g) == tuple(simple_cycles_oracle(g)), name


@pytest.mark.parametrize("n,chords,seed,count", [(16, 40, 55, 18_641), (14, 40, 17, 14_779)])
def test_simple_cycles_match_the_unrestricted_search_on_dense_rings(n, chords, seed, count):
    g = ring_with_chords(n, chords, seed)
    cycles = simple_cycles(g)
    assert len(cycles) == count
    assert cycles == tuple(simple_cycles_oracle(g))


def test_simple_cycles_search_stays_inside_components():
    # 81 vertices and about 2^40 simple paths into the sink, but no cycle:
    # a search that left the cyclic components would not finish here
    g = layered_graph(40)
    assert simple_cycles(g) == ()
    assert not is_cofinal(g)  # the two top-layer sources do not reach each other
    assert entrance_free_classes(g) == ()


def test_canonical_rotation_and_class():
    g = g2_cyc2()
    c = g.path(["e2", "e1"])
    assert canonical_rotation(c).render() == "e1 e2"
    cls_a = cycle_class(c)
    cls_b = cycle_class(g.path(["e1", "e2"]))
    assert cls_a == cls_b
    assert cls_a.vertex_set == {"u", "v"}
    assert len(cls_a.members) == 2
    assert {rot.render() for rot in rotations(c)} == {"e1 e2", "e2 e1"}
    g1 = g1_loop()
    with pytest.raises(GraphError, match="not a simple cycle"):
        canonical_rotation(g1.path(["e", "e"]))


def test_has_entrance_in_examples():
    g3 = g3_ent()
    cyc = g3.path(["e1", "e2"])
    assert has_entrance_in(g3, cyc, {"u", "v", "w"})
    assert not has_entrance_in(g3, cyc, {"u", "v"})
    assert not has_entrance_in(g1_loop(), g1_loop().path(["e"]), {"v"})
    with pytest.raises(GraphError, match="inside"):
        has_entrance_in(g3, cyc, {"u"})


def test_entrance_free_classes_examples():
    assert [c.representative.render() for c in entrance_free_classes(g1_loop())] == ["e"]
    assert [c.representative.render() for c in entrance_free_classes(g2_cyc2())] == ["e1 e2"]
    assert entrance_free_classes(g3_ent()) == ()


def test_entrance_free_matches_cycle_filter():
    graphs = [g for _, g in CORPUS + EXTRAS] + random_graphs(11, 40, max_vertices=6)
    for g in graphs:
        by_filter = {
            cycle_class(c).representative.edges
            for c in simple_cycles_oracle(g)
            if not has_entrance_in(g, c, g.vertices)
        }
        by_chase = {c.representative.edges for c in entrance_free_classes(g)}
        assert by_filter == by_chase


def test_entrance_free_edge_local_invariant():
    for _, g in CORPUS:
        for cls in entrance_free_classes(g):
            for v in cls.vertex_set:
                incoming = g.in_edges(v)
                assert len(set(incoming) & cls.edge_set) == 1
                assert all(e in cls.edge_set for e in incoming)


def test_entrance_free_classes_have_disjoint_vertices():
    for g in [g for _, g in CORPUS] + random_graphs(13, 40, max_vertices=6):
        classes = entrance_free_classes(g)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert not (a.vertex_set & b.vertex_set)


def test_cutting_sets_examples():
    assert cutting_sets(g1_loop()) == [("e",)]
    assert canonical_cutting_set(g1_loop()) == ("e",)
    assert cutting_sets(g2_cyc2()) == [("e1",), ("e2",)]
    assert canonical_cutting_set(g2_cyc2()) == ("e1",)
    assert cutting_sets(g3_ent()) == [()]
    assert canonical_cutting_set(g3_ent()) == ()


def test_cutting_set_validation():
    loops2 = dict(CORPUS)["loops2"]
    assert cutting_sets(loops2) == [("l1", "l2")]
    assert is_cutting_set(loops2, ("l1", "l2"))
    assert not is_cutting_set(loops2, ("l1",))
    assert not is_cutting_set(g2_cyc2(), ("e1", "e2"))


def test_a_cutting_set_names_each_edge_once():
    """A repeated or empty edge name is refused by name, where it used to
    pass as a set (``e1,e1``) or read as no cutting set (``,``)."""
    g = g2_cyc2()
    assert checked_cutting_set(g, ("e2",)) == ("e2",)
    for edges, message in (
        (("e1", "e1"), "cutting set names edge 'e1' twice"),
        (("e2", "e1", "e2"), "cutting set names edge 'e2' twice"),
        (("", ""), "cutting set names an empty edge"),
        (("e1", ""), "cutting set names an empty edge"),
    ):
        for build in (checked_cutting_set, reduced_graph, lambda g, cut: rescale_generators(g, cut, 0)):
            with pytest.raises(GraphError) as err:
                build(g, edges)
            assert str(err.value) == message, (edges, build)


def test_mu_lambda_examples():
    g1, g2 = g1_loop(), g2_cyc2()
    mu, lam = mu_lambda(g1, "e")
    assert mu.render() == "e" and lam.is_empty and lam.range == "v"
    mu, lam = mu_lambda(g2, "e1")
    assert (mu.render(), lam.render()) == ("e1 e2", "e2")
    mu, lam = mu_lambda(g2, "e2")
    assert (mu.render(), lam.render()) == ("e2 e1", "e1")
    with pytest.raises(GraphError, match="no entrance-free"):
        mu_lambda(g3_ent(), "e1")


def test_mu_lambda_recomposes():
    for _, g in CORPUS:
        for x in canonical_cutting_set(g):
            mu, lam = mu_lambda(g, x)
            assert g.edge_path(x).concat(lam) == mu
            assert lam.source == mu.range == g.range_of(x)
            assert class_of_edge(g, x).representative == canonical_rotation(mu)
