import random
from fractions import Fraction

import pytest

from graphck import (
    AlgebraElement,
    Cyclotomic,
    ExactnessError,
    GaussianRational,
    GraphError,
    PolarCoeff,
    canonical_family,
    ck_defect,
    diag_expectation,
    element_w_normal_form,
    enumerate_paths,
    monomial,
    path_isometry,
    vertex_projection,
    w_normal_form,
    zero,
)
from graphck import exact
from corpus import CORPUS, g1_loop, g2_cyc2, g3_ent, random_element
from oracles import is_w_path, w_paths


def _pools(g, max_len=2):
    pools = {v: [] for v in g.vertices}
    for p in enumerate_paths(g, max_len):
        pools[p.source].append(p)
    return pools


def test_generator_construction():
    g1 = g1_loop()
    p_v = vertex_projection(g1, "v")
    assert list(p_v.terms) == [(g1.empty_path("v"), g1.empty_path("v"))]
    s_ee = path_isometry(g1, g1.path(["e", "e"]))
    ((alpha, beta),) = list(s_ee.terms)
    assert alpha.render() == "e e" and beta.is_empty
    adj = path_isometry(g1, "e").adjoint()
    ((alpha, beta),) = list(adj.terms)
    assert alpha.is_empty and beta.render() == "e"
    with pytest.raises(GraphError, match="sources differ"):
        monomial(g3_ent(), g3_ent().path(["e1"]), g3_ent().path(["f"]))


def test_multiplication_examples():
    g1, g2 = g1_loop(), g2_cyc2()
    s_e = path_isometry(g1, "e")
    assert s_e.adjoint() * s_e == vertex_projection(g1, "v")
    r1 = path_isometry(g2, "e1") * path_isometry(g2, "e1").adjoint()
    r2 = path_isometry(g2, "e2") * path_isometry(g2, "e2").adjoint()
    assert (r1 * r2).is_zero
    s_ee = path_isometry(g1, g1.path(["e", "e"]))
    assert (s_e * s_e.adjoint()) * (s_ee * s_ee.adjoint()) == s_ee * s_ee.adjoint()


def _coefficient_types(a):
    return {type(c) for c in a.terms.values()}


def test_mixed_mode_rejected():
    # an inexact scalar cannot enter an exact element; an element with a
    # complex operand is complex
    g1 = g1_loop()
    a = vertex_projection(g1, "v")
    b = a.map_coefficients(exact.as_complex)
    assert _coefficient_types(a) == {Cyclotomic} and _coefficient_types(b) == {complex}
    with pytest.raises(ExactnessError, match="inexact"):
        a.scaled(0.5 + 0j)
    for mixed in (a * b, b * a, a + b, zero() + b):
        assert _coefficient_types(mixed) == {complex}
    assert (a + b) == a.scaled(2)


def test_exactness_follows_the_coefficients():
    """An element is inexact exactly when one of its coefficients is complex:
    a sum with the zero element stays exact and scales exactly, an exact
    element refuses an inexact scalar, and its complex copy takes one."""
    p = vertex_projection(g1_loop(), "v")
    third = Fraction(1, 3)
    scaled = (zero() + p).scaled(third)
    assert scaled == p.scaled(third)
    assert _coefficient_types(scaled) == {Cyclotomic}
    assert scaled.render() == "1/3 * p[v]"
    with pytest.raises(ExactnessError, match="inexact"):
        p.scaled(0.5j)
    inexact = p.map_coefficients(exact.as_complex).scaled(0.5j)
    ((key, c),) = inexact.terms.items()
    assert c == 0.5j and key == next(iter(p.terms))


def test_star_algebra_axioms_on_random_elements():
    rng = random.Random(23)
    for _, g in CORPUS[:8]:
        pools = _pools(g)
        for _ in range(12):
            a = random_element(rng, g, pools)
            b = random_element(rng, g, pools)
            c = random_element(rng, g, pools)
            assert (a * b) * c == a * (b * c)
            assert (a + b) * c == a * c + b * c
            assert a.adjoint().adjoint() == a
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()
            assert (a + b).adjoint() == a.adjoint() + b.adjoint()


def test_scalar_and_phase_action():
    g1 = g1_loop()
    s_e = path_isometry(g1, "e")
    assert (Fraction(1, 2) * s_e + Fraction(1, 2) * s_e) == s_e
    rotated = s_e.scaled(PolarCoeff(1, Fraction(1, 4)))
    ((_, _),) = list(rotated.terms)
    assert list(rotated.terms.values())[0] == GaussianRational(0, Fraction(1))


def test_ck_defect_shape():
    g2 = g2_cyc2()
    fam = canonical_family(g2)
    delta = ck_defect(fam, "v")
    keys = {(_a.render(), _b.render()) for _a, _b in delta.terms}
    assert keys == {("@v", "@v"), ("e1", "e1")}


def test_w_normal_form_examples():
    g1, g2, g3 = g1_loop(), g2_cyc2(), g3_ent()
    assert w_normal_form(g1, g1.path(["e", "e", "e"])).render() == "@v"
    assert w_normal_form(g2, g2.path(["e1", "e2", "e1"])).render() == "e1"
    for p in enumerate_paths(g3, 3):
        assert w_normal_form(g3, p) == p  # no entrance-free cycles in g3
    # idempotence
    for _, g in CORPUS:
        for p in enumerate_paths(g, 3):
            nf = w_normal_form(g, p)
            assert w_normal_form(g, nf) == nf
            assert is_w_path(g, nf)


def test_w_paths_enumeration():
    g1 = g1_loop()
    assert [p.render() for p in w_paths(g1, 4)] == ["@v"]
    g2 = g2_cyc2()
    assert {p.render() for p in w_paths(g2, 2)} == {"@u", "@v", "e1", "e2"}


def test_element_w_normal_form():
    g1 = g1_loop()
    s_ee = path_isometry(g1, g1.path(["e", "e"]))
    assert element_w_normal_form(g1, s_ee) == vertex_projection(g1, "v")
    g2 = g2_cyc2()
    full = path_isometry(g2, g2.path(["e1", "e2"]))
    assert element_w_normal_form(g2, full * full.adjoint()) == vertex_projection(
        g2, "v"
    )
    already = monomial(g2, g2.path(["e1"]), g2.empty_path("u"))
    assert element_w_normal_form(g2, already) == already


def test_diag_expectation_examples():
    g1, g2, g3 = g1_loop(), g2_cyc2(), g3_ent()
    prod = path_isometry(g3, "e1") * path_isometry(g3, "f").adjoint()
    assert diag_expectation(g3, prod).is_zero
    r = path_isometry(g3, "e1") * path_isometry(g3, "e1").adjoint()
    assert diag_expectation(g3, r) == r
    assert diag_expectation(g1, path_isometry(g1, g1.path(["e", "e"]))) == (
        vertex_projection(g1, "v")
    )
    assert diag_expectation(g2, vertex_projection(g2, "u")) == vertex_projection(
        g2, "u"
    )


def test_diag_expectation_axioms():
    rng = random.Random(31)
    for _, g in CORPUS[:8]:
        pools = _pools(g)
        for _ in range(10):
            a = random_element(rng, g, pools)
            psi_a = diag_expectation(g, a)
            assert diag_expectation(g, psi_a) == psi_a
            # bimodule property over diagonal elements d a d'
            d = vertex_projection(g, rng.choice(g.vertices))
            d2 = vertex_projection(g, rng.choice(g.vertices))
            lhs = diag_expectation(g, d * a * d2)
            rhs = d * diag_expectation(g, a) * d2
            assert lhs == rhs
