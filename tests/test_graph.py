import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import graphck
from graphck import (
    Graph,
    GraphError,
    GraphParseError,
    Path,
    enumerate_paths,
    is_cofinal,
    parse_graph,
    sources,
    strongly_connected_components,
)
from corpus import CORPUS, EXTRAS, g1_loop, g2_cyc2, g3_ent, g4_line
from oracles import cofinal_oracle, enumerate_paths_oracle, paths_up_to, reachability


G1_TEXT = """\
# the one-loop graph
vertex v
edge e : v -> v
"""

G3_TEXT = """\
vertex u
vertex v
vertex w
edge e1 : u -> v
edge e2 : v -> u
edge f : w -> u
"""


def test_parse_g1():
    g = parse_graph(G1_TEXT)
    assert g.vertices == ("v",)
    assert g.edges == ("e",)
    assert g == g1_loop()


def test_parse_g3():
    g = parse_graph(G3_TEXT)
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert g == g3_ent()


def test_parse_errors_carry_line_context():
    with pytest.raises(GraphParseError, match="line 2.*not declared"):
        parse_graph("vertex v\nedge e : v -> q\n")
    with pytest.raises(GraphParseError, match="malformed edge"):
        parse_graph("vertex v\nedge e v v\n")
    with pytest.raises(GraphParseError, match="duplicate vertex"):
        parse_graph("vertex v\nvertex v\n")
    with pytest.raises(GraphParseError, match="duplicate edge"):
        parse_graph("vertex v\nedge e : v -> v\nedge e : v -> v\n")
    with pytest.raises(GraphParseError, match="unrecognized"):
        parse_graph("arrow e : v -> v\n")


def test_graph_validation():
    with pytest.raises(GraphError, match="dangling"):
        Graph(["v"], [("e", "v", "q")])
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])


def test_graph_rejects_ids_the_text_format_cannot_express():
    for bad in ("a b", "v#", "", "v\n", "a->b"):
        with pytest.raises(GraphError, match="not expressible"):
            Graph([bad], [])
        with pytest.raises(GraphError, match="not expressible"):
            Graph(["v"], [(bad, "v", "v")])
    with pytest.raises(GraphError, match="not expressible"):
        Graph([1], [])


def test_roundtrip_text_and_fingerprint():
    g = g3_ent()
    assert parse_graph(g.to_text()) == g
    assert g.fingerprint() == parse_graph(g.to_text()).fingerprint()
    assert g.fingerprint() != g2_cyc2().fingerprint()


def test_path_construction_and_composability():
    g = g2_cyc2()
    p = g.path(["e1", "e2"])
    assert p.range == "v" and p.source == "v"
    assert p.vertices == ("v", "u", "v")
    with pytest.raises(GraphError, match="do not compose"):
        g.path(["e1", "e1"])
    empty = g.empty_path("u")
    assert empty.range == empty.source == "u"
    assert empty.concat(g.path(["e2"])).edges == ("e2",)


def test_equal_paths_built_apart_hash_alike_and_share_a_key():
    g = g2_cyc2()
    p, q = g.path(["e1", "e2"]), g.edge_path("e1").concat(g.edge_path("e2"))
    assert p is not q and p == q and hash(p) == hash(q)
    assert {p: 1}[q] == 1
    assert {(p, g.empty_path("v")): 2}[(q, Path((), ("v",)))] == 2
    assert p != g.path(["e2", "e1"]) and g.empty_path("u") != g.empty_path("v")


def test_a_path_never_equals_a_tuple():
    p = g2_cyc2().path(["e1"])
    for other in (p.edges, p.vertices, (p.edges, p.vertices), ("e1",)):
        assert p != other and other != p
        assert not p == other
    assert (p.edges, p.vertices) not in {p: 1}


def test_path_repr_is_unchanged():
    assert repr(Path(("e",), ("v", "v"))) == "Path(edges=('e',), vertices=('v', 'v'))"
    assert repr(g1_loop().empty_path("v")) == "Path(edges=(), vertices=('v',))"


def test_path_copies_and_pickles_round_trip():
    p = g2_cyc2().path(["e1", "e2"])
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and hash(twin) == hash(p) and {p: 1}[twin] == 1
        assert (twin.range, twin.source, len(twin)) == ("v", "v", 2)


def test_a_path_pickled_under_another_hash_seed_hashes_like_a_fresh_one():
    p = g2_cyc2().path(["e1", "e2"])
    code = ("import pickle, sys; from graphck import Path; "
            "sys.stdout.buffer.write(pickle.dumps((hash('e1'), Path(('e1', 'e2'), ('v', 'u', 'v')))))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(graphck.__file__).resolve().parents[1])}
    for seed in range(1, 10):  # a seed under which str hashes differ from this process's
        env["PYTHONHASHSEED"] = str(seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        their_hash, loaded = pickle.loads(out.stdout)
        if their_hash != hash("e1"):
            break
    else:
        pytest.fail("no other hash seed found")
    assert loaded == p and hash(loaded) == hash(p)
    assert {p: "found"}[loaded] == "found" and loaded in {p}


def test_a_wrong_itinerary_length_raises():
    for edges, vertices in ((("e",), ("v",)), ((), ("u", "v")), (("e", "f"), ("u", "v"))):
        with pytest.raises(GraphError, match="itinerary has the wrong length"):
            Path(edges, vertices)


def _path_error(g, ids):
    """The message Graph.path raises on ``ids``: the first unknown edge,
    else the first pair that does not compose; None for a path."""
    if not ids:
        return "empty edge list; use empty_path(v)"
    unknown = next((e for e in ids if not g.has_edge(e)), None)
    if unknown is not None:
        return f"unknown edge {unknown!r}"
    for a, b in zip(ids, ids[1:]):
        if g.source_of(a) != g.range_of(b):
            return (f"edges do not compose: source({a}) = {g.source_of(a)} "
                    f"!= range({b}) = {g.range_of(b)}")
    return None


@st.composite
def graph_and_ids(draw):
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [(f"e{k}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
             for k in range(draw(st.integers(1, 6)))]
    pool = [e for e, _, _ in edges] + ["x", "v0", "e9"]
    return Graph(vs, edges), draw(st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=300, deadline=None)
@given(graph_and_ids())
def test_graph_path_reports_unknown_edges_before_composition(case):
    g, ids = case
    expected = _path_error(g, ids)
    if expected is None:
        p = g.path(ids)
        assert p == Path(tuple(ids), (g.range_of(ids[0]),) + tuple(g.source_of(e) for e in ids))
        assert p == g.path(tuple(ids))
    else:
        with pytest.raises(GraphError) as err:
            g.path(ids)
        assert str(err.value) == expected


def test_sources_examples():
    assert sources(g1_loop()) == ()
    assert sources(g4_line()) == ("w",)
    assert sources(g3_ent()) == ("w",)


def test_reachability_examples():
    assert reachability(g1_loop()) == frozenset({("v", "v")})
    assert reachability(g4_line()) == frozenset({("v", "v"), ("w", "w"), ("v", "w")})
    r3 = reachability(g3_ent())
    assert all((x, "w") in r3 for x in ("u", "v", "w"))
    assert ("u", "v") in r3 and ("v", "u") in r3
    assert ("w", "u") not in r3


def test_reachability_reflexive_transitive():
    for _, g in CORPUS:
        rel = reachability(g)
        for v in g.vertices:
            assert (v, v) in rel
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c:
                    assert (a, d) in rel


def test_reachability_matches_path_enumeration():
    for _, g in CORPUS:
        rel = reachability(g)
        bound = len(g.vertices)
        for v in g.vertices:
            with_source = {p.source for p in enumerate_paths_oracle(g, bound) if p.range == v}
            assert with_source == {w for (x, w) in rel if x == v}


def test_paths_up_to_examples():
    g1, g2, g4 = g1_loop(), g2_cyc2(), g4_line()
    assert [p.render() for p in paths_up_to(g1, "v", 2)] == ["e e"]
    assert [p.render() for p in paths_up_to(g4, "v", 2)] == ["e"]
    assert [p.render() for p in paths_up_to(g2, "u", 0)] == ["@u"]


def test_paths_up_to_boundary_family_is_prefix_free_and_covering():
    for _, g in CORPUS:
        bound = min(len(g.vertices) + 1, 5)
        for v in g.vertices:
            fam = paths_up_to(g, v, bound)
            for i, p in enumerate(fam):
                for q in fam[i + 1:]:
                    assert not q.starts_with(p) and not p.starts_with(q)
            # every maximal path of length >= bound extends exactly one member
            for long in paths_up_to(g, v, bound + 2):
                assert sum(1 for p in fam if long.starts_with(p)) == 1


def test_enumerate_paths_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        enumerate_paths(g2_cyc2(), -1)


def test_scc_examples():
    sccs = strongly_connected_components(g3_ent())
    assert frozenset({"u", "v"}) in sccs and frozenset({"w"}) in sccs


def test_is_cofinal_examples():
    assert is_cofinal(g1_loop())
    assert is_cofinal(g2_cyc2())
    assert not is_cofinal(g3_ent())
    assert is_cofinal(g4_line())


def test_is_cofinal_against_oracle_everywhere():
    for name, g in CORPUS + EXTRAS:
        assert is_cofinal(g) == cofinal_oracle(g), name
