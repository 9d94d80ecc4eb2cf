import random

import pytest

from graphck import (
    BoundaryPath,
    GraphError,
    ShiftExhausted,
    boundary_set,
    canonicalize,
    finite_boundary,
    is_cofinal,
    noncofinal_witness,
    omega_set,
    omega_supported,
    prepend,
    reach_map,
    shift,
)
from corpus import CORPUS, EXTRAS, g1_loop, g2_cyc2, g3_ent, g4_line


def test_canonicalize_examples():
    g1, g2 = g1_loop(), g2_cyc2()
    x = canonicalize(g1.path(["e"]), g1.path(["e"]))
    assert x.prefix.is_empty and x.period.render() == "e"
    y = canonicalize(g2.path(["e1"]), g2.path(["e2", "e1"]))
    assert y.prefix.is_empty and y.period.render() == "e1 e2"
    # a prefix that genuinely cannot be absorbed
    cyc2tail = dict(CORPUS)["cyc2tail"]
    z = canonicalize(cyc2tail.path(["g"]), cyc2tail.path(["e1", "e2"]))
    assert z.prefix.render() == "g" and z.period.render() == "e1 e2"


def test_canonicalize_idempotent_and_equal_iff_same_path():
    g2 = g2_cyc2()
    a = canonicalize(g2.path(["e1", "e2", "e1"]), g2.path(["e2", "e1"]))
    b = canonicalize(g2.path(["e1"]), g2.path(["e2", "e1"]))
    c = canonicalize(g2.empty_path("v"), g2.path(["e1", "e2"]))
    assert a == b == c
    d = canonicalize(g2.empty_path("u"), g2.path(["e2", "e1"]))
    assert d != c and d.range == "u"


def test_boundary_path_validation():
    g2 = g2_cyc2()
    with pytest.raises(GraphError, match="compose"):
        canonicalize(g2.path(["e2"]), g2.path(["e2", "e1"]))
    with pytest.raises(GraphError, match="cycle"):
        canonicalize(g2.empty_path("v"), g2.path(["e1"]))
    with pytest.raises(GraphError, match="non-canonical"):
        BoundaryPath(g2.path(["e1"]), g2.path(["e2", "e1"]))
    with pytest.raises(GraphError, match="receives"):
        finite_boundary(g2, g2.path(["e1"]))


def test_shift_examples():
    g2, g3, g4 = g2_cyc2(), g3_ent(), g4_line()
    x = canonicalize(g2.empty_path("v"), g2.path(["e1", "e2"]))
    assert shift(x).render() == "|(e2 e1)"
    y = finite_boundary(g4, g4.path(["e"]))
    assert shift(y) == BoundaryPath(g4.empty_path("w"))
    with pytest.raises(ShiftExhausted):
        shift(BoundaryPath(g4.empty_path("w")))
    # consuming a genuine prefix
    cyc2tail = dict(CORPUS)["cyc2tail"]
    z = canonicalize(cyc2tail.path(["g"]), cyc2tail.path(["e1", "e2"]))
    assert shift(z).render() == "|(e1 e2)"
    fin = finite_boundary(g3, g3.path(["e1", "f"]))
    assert shift(fin).render() == "f|."


def test_prepend_examples():
    g1, g2 = g1_loop(), g2_cyc2()
    x = canonicalize(g1.empty_path("v"), g1.path(["e"]))
    assert prepend(g1.path(["e"]), x) == x
    y = canonicalize(g2.empty_path("u"), g2.path(["e2", "e1"]))
    assert prepend(g2.path(["e1"]), y).render() == "|(e1 e2)"
    g3 = g3_ent()
    fin = BoundaryPath(g3.empty_path("w"))
    assert prepend(g3.path(["e1", "f"]), fin).render() == "e1 f|."
    with pytest.raises(GraphError, match="compose"):
        prepend(g2.path(["e2"]), y)


def test_shift_prepend_inverse():
    for _, g in CORPUS:
        for x in boundary_set(g, 3):
            e = x.edge_at(0)
            if e is None:
                continue
            head = g.edge_path(e)
            assert prepend(head, shift(x)) == x
            assert shift(prepend(head, shift(x))) == shift(x)


def test_boundary_set_examples():
    assert [x.render() for x in boundary_set(g1_loop(), 0)] == ["|(e)"]
    assert {x.render() for x in boundary_set(g4_line(), 1)} == {"@w|.", "e|."}
    assert {x.render() for x in boundary_set(g2_cyc2(), 0)} == {
        "|(e1 e2)",
        "|(e2 e1)",
    }


def test_boundary_set_closed_under_shift():
    for _, g in CORPUS:
        family = set(boundary_set(g, 3))
        for x in family:
            if x.edge_at(0) is not None:
                assert shift(x) in family


def test_omega_set_examples():
    assert [x.render() for x in omega_set(g1_loop(), 2)] == ["|(e)"]
    assert {x.render() for x in omega_set(g3_ent(), 2)} == {"@w|.", "f|.", "e1 f|."}
    assert {x.render() for x in omega_set(g4_line(), 2)} == {"@w|.", "e|."}


def test_test_sets_reject_negative_depth():
    for build in (boundary_set, omega_set):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build(g2_cyc2(), -1)


def test_omega_closure_under_shift_matching():
    # if sigma^m(x) = sigma^n(y) for omega x and boundary y, then y is omega
    for _, g in CORPUS:
        omega = set(omega_set(g, 2))
        bset = boundary_set(g, 2)
        shifts_of_omega = set()
        for x in omega:
            cur, steps = x, 0
            while steps <= 4:
                shifts_of_omega.add(cur)
                if cur.edge_at(0) is None:
                    break
                cur = shift(cur)
                steps += 1
        for y in bset:
            cur, steps = y, 0
            touched = False
            while steps <= 4:
                if cur in shifts_of_omega:
                    touched = True
                    break
                if cur.edge_at(0) is None:
                    break
                cur = shift(cur)
                steps += 1
            if touched:
                assert y in omega, (g, y.render())


def test_every_vertex_ranges_a_boundary_path():
    for _, g in CORPUS + EXTRAS:
        ranges = {x.range for x in boundary_set(g, len(g.vertices))}
        assert ranges == set(g.vertices)


def test_omega_ranges_match_support():
    for _, g in CORPUS:
        ranges = {x.range for x in omega_set(g, len(g.vertices))}
        assert ranges == set(g.vertices)
    for _, g in EXTRAS:
        assert not omega_supported(g)
        ranges = {x.range for x in omega_set(g, len(g.vertices))}
        assert ranges != set(g.vertices)


def test_prefix_sufficiency_of_boundary_set():
    # any random walk prefix of length L is realized by a member of
    # boundary_set(g, L + |vertices|)
    rng = random.Random(5)
    for _, g in CORPUS:
        length = 3
        family = boundary_set(g, length + len(g.vertices))
        for _ in range(25):
            p = g.empty_path(rng.choice(g.vertices))
            while len(p) < length and g.in_edges(p.source):
                p = p.concat(g.edge_path(rng.choice(g.in_edges(p.source))))
            if len(p) < length and not g.in_edges(p.source):
                continue  # walk ended at a source; trivially realized
            assert any(x.starts_with(p) for x in family), p.render()


def test_noncofinal_witness():
    for name, g in CORPUS + EXTRAS:
        witness = noncofinal_witness(g)
        if is_cofinal(g):
            assert witness is None, name
            continue
        assert witness is not None, name
        v, x = witness
        rm = reach_map(g)
        limit = len(x.prefix.edges) + (len(x.period.edges) if x.period else 0)
        for n in range(limit + 1):
            assert x.vertex_at(n) not in rm[v]
