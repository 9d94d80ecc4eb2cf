"""Operator equality: the closed form against the test-set scan, one unit
test per branch of the decision, and pinned verdicts on inputs twisted by
non-quarter and complex phases."""

import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphck import (
    AlgebraElement,
    GaussianRational,
    Graph,
    Phase,
    boundary,
    canonical_cutting_set,
    canonical_family,
    ck_defect,
    enumerate_paths,
    left_regular,
    omega,
    omega_supported,
    operator_equal,
    path_isometry,
    twisted_boundary,
    vertex_projection,
    zero,
)
from corpus import CORPUS, complex_family, g2_cyc2, g3_ent, g4_line, is_inexact, kernel_elements
from oracles import deep_walk_equal, length_refinement_equal, test_set_equal_oracle


def _s(g, *edges):
    return path_isometry(g, g.path(list(edges)))


def _range_projection(g, *edges):
    s = _s(g, *edges)
    return s * s.adjoint()


# ---------------------------------------------------------------- branches


def test_forced_chase_into_entrance_free_cycle():
    # w <- u <- u (loop l): the chase from w is forced around the loop, so
    # s_l = p_u on the boundary, and s_x s_l s_x^* = s_x s_x^* = p_w
    g = Graph(["u", "w"], [("l", "u", "u"), ("x", "u", "w")])
    lhs = _s(g, "x", "l") * _s(g, "x").adjoint()
    assert operator_equal(boundary(g), _s(g, "l"), vertex_projection(g, "u"))
    assert operator_equal(boundary(g), lhs, vertex_projection(g, "w"))
    assert operator_equal(omega(g), lhs, vertex_projection(g, "w"))
    assert not operator_equal(left_regular(g), lhs, vertex_projection(g, "w"))
    assert not operator_equal(boundary(g), lhs, zero())
    g2 = g2_cyc2()
    assert operator_equal(boundary(g2), _s(g2, "e1", "e2"), vertex_projection(g2, "v"))
    assert not operator_equal(boundary(g2), _s(g2, "e1"), vertex_projection(g2, "v"))


def test_forced_chase_to_a_source():
    g = g4_line()  # e : w -> v
    p_v, ee = vertex_projection(g, "v"), _range_projection(g, "e")
    assert operator_equal(boundary(g), p_v, ee)
    assert not operator_equal(boundary(g), p_v, ee.scaled(2))
    assert not operator_equal(boundary(g), _s(g, "e"), ee)
    assert not operator_equal(left_regular(g), p_v, ee)


def test_unforced_vertex_on_a_cycle_with_an_entrance():
    g = g3_ent()  # cycle u <-> v with the entrance f : w -> u
    mu = _s(g, "e1", "e2")
    assert not operator_equal(boundary(g), mu, vertex_projection(g, "v"))
    assert not operator_equal(omega(g), mu, vertex_projection(g, "v"))
    # CK at the branching vertex u still holds
    ck = _range_projection(g, "e2") + _range_projection(g, "f")
    assert operator_equal(boundary(g), vertex_projection(g, "u"), ck)


def test_ck_refinement_across_mixed_beta_lengths():
    # p_u is refined along the heads @u, e2 and e2 e1 of the 3-edge beta;
    # s_f s_f^* stays a leaf because f is no head (and starts at the source w)
    g = g3_ent()
    t = _s(g, "e2") * _s(g, "e2", "e1", "e2").adjoint()
    a = vertex_projection(g, "u") + t
    b = _range_projection(g, "e2") + _range_projection(g, "f") + t
    assert operator_equal(boundary(g), a, b)
    assert not operator_equal(boundary(g), a, b - _range_projection(g, "f"))
    assert not operator_equal(boundary(g), a, t)
    assert not operator_equal(left_regular(g), a, b)


def _two_loops(n):
    """One vertex v with loops a and b, and gamma = a b a b ... of n edges:
    the projection s_gamma s_gamma^*, p_v, and the CK rewriting
    s_a s_a^* + s_b s_b^* of p_v."""
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    gamma = _range_projection(g, *(("a", "b") * n)[:n])
    ck = _range_projection(g, "a") + _range_projection(g, "b")
    return g, gamma, vertex_projection(g, "v"), ck


@pytest.mark.parametrize("n", [20, 200])
def test_long_beta_is_refined_along_its_heads_only(n):
    """A refinement to the longest beta length takes p_v to 2^n terms; the
    heads of gamma give about 2n."""
    g, gamma, p_v, ck = _two_loops(n)
    started = time.perf_counter()
    for rep in (boundary(g), twisted_boundary(g, {})):
        assert operator_equal(rep, p_v + gamma, ck + gamma)
        assert not operator_equal(rep, p_v + gamma.scaled(2), ck + gamma)
        assert not operator_equal(rep, p_v + gamma, ck + gamma.scaled(2))
    assert time.perf_counter() - started < 1.0


def test_long_beta_agrees_with_the_length_refinement():
    g, gamma, p_v, ck = _two_loops(12)
    for rep in (boundary(g), twisted_boundary(g, {})):
        for a, b in ((p_v + gamma, ck + gamma), (p_v + gamma.scaled(2), ck + gamma),
                     (p_v + gamma, ck + gamma.scaled(2))):
            assert operator_equal(rep, a, b) == length_refinement_equal(rep, a, b)


def test_twisted_gaussian_pin_and_defect():
    g = g2_cyc2()
    trep = twisted_boundary(g, {"e1": Phase(Fraction(1, 4))})
    assert not is_inexact(trep)
    mu = _s(g, "e1", "e2")
    i = GaussianRational(0, 1)
    assert operator_equal(trep, mu, vertex_projection(g, "v").scaled(i))
    assert not operator_equal(trep, mu, vertex_projection(g, "v"))
    fam = canonical_family(g)
    assert operator_equal(trep, ck_defect(fam, "u"), zero())


def test_gaussian_route_builds_no_test_set(refuse_test_sets):
    """No input reaches a test set: Gaussian, 1/3-turn and complex twists."""
    g, g2 = g3_ent(), g2_cyc2()
    ck = _range_projection(g, "e2") + _range_projection(g, "f")
    for rep in (boundary(g), omega(g)):
        assert operator_equal(rep, vertex_projection(g, "u"), ck)
    assert not operator_equal(left_regular(g), vertex_projection(g, "u"), ck)
    trep = twisted_boundary(g2, {"e1": Phase(Fraction(1, 2))})
    assert operator_equal(trep, _s(g2, "e1", "e2"), vertex_projection(g2, "v").scaled(-1))
    third = Phase(Fraction(1, 3))
    trep = twisted_boundary(g2, {"e1": third})
    mu, p_v = _s(g2, "e1", "e2"), vertex_projection(g2, "v")
    assert operator_equal(trep, mu, p_v.scaled(third))
    assert not operator_equal(trep, mu + p_v, p_v.scaled(2))
    zeta = cmath.exp(2j * math.pi / 3)
    crep = twisted_boundary(g2, {"e1": zeta})
    cfam = complex_family(canonical_family(g2))
    cmu = cfam.s["e1"] * cfam.s["e2"]
    assert operator_equal(crep, cmu, cfam.p["v"].scaled(zeta))
    assert not operator_equal(crep, cmu, cfam.p["v"])


# ------------------------------------------------- agreement with the scan


@st.composite
def sparse_graphs(draw, max_vertices=5, density=0.3):
    """Graphs on at most 5 vertices with at most density * n^2 edges, no
    two edges sharing both ends."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
        max_size=int(density * n * n), unique=True))
    return Graph(vs, [(f"e{k}", s, r) for k, (s, r) in enumerate(pairs)])


def _element(draw, g, pools, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        w = draw(st.sampled_from(sorted(pools)))
        alpha = draw(st.sampled_from(pools[w]))
        beta = draw(st.sampled_from(pools[w]))
        terms[(alpha, beta)] = GaussianRational(
            draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    return AlgebraElement(terms)


@settings(max_examples=100, deadline=None)
@given(sparse_graphs(), st.data())
def test_closed_form_matches_test_set_scan(g, data):
    pools = {}
    for p in enumerate_paths(g, 2):
        pools.setdefault(p.source, []).append(p)
    turns = {x: Phase(Fraction(data.draw(st.integers(0, 11)), 12))
             for x in canonical_cutting_set(g)}
    kinds = [boundary(g), left_regular(g), twisted_boundary(g, turns)]
    if omega_supported(g):
        kinds.append(omega(g))
    for rep in kinds:
        a = _element(data.draw, g, pools)
        kernel = kernel_elements(g, rep)
        if kernel and data.draw(st.booleans()):
            r = _element(data.draw, g, {w: [p for p in ps if len(p) <= 1]
                                        for w, ps in pools.items()}, max_terms=1)
            b = a + data.draw(st.sampled_from(kernel)) * r
        else:
            b = _element(data.draw, g, pools)
        assert operator_equal(rep, a, b) == test_set_equal_oracle(rep, a, b)


# ------------------------------- non-quarter and complex twists, pinned


def _scan_cases():
    """Verdicts recorded from the test-set scan before the closed form
    decided these inputs.  "polar two directions" and "polar cycle sum" add
    two directions; the scan raised ExactnessError on them while the
    coefficients could not hold such sums, and their true verdict is False."""
    g = dict(CORPUS)["selfloopmix"]  # loops la at a and lb at b, f : a -> b
    third = Phase(Fraction(1, 3))
    polar = twisted_boundary(g, {"la": third})
    fam = canonical_family(g)
    s_la, p_a = fam.s["la"], fam.p["a"]
    yield "polar pin", polar, s_la, p_a.scaled(third), True
    yield "polar untwisted pin", polar, s_la, p_a, False
    yield "polar two directions", polar, p_a + s_la, p_a, False
    yield "polar defect", polar, ck_defect(fam, "b"), zero(), True
    yield "polar loop with entrance", polar, fam.s["lb"], fam.p["b"], False
    yield "polar twisted path", polar, fam.s["f"] * s_la, fam.s["f"].scaled(third), True
    g2 = g2_cyc2()
    polar2 = twisted_boundary(g2, {"e1": third})
    fam2 = canonical_family(g2)
    mu = fam2.s["e1"] * fam2.s["e2"]
    yield "polar cycle pin", polar2, mu, fam2.p["v"].scaled(third), True
    yield "polar cycle square", polar2, mu * mu, fam2.p["v"].scaled(third * third), True
    yield "polar cycle sum", polar2, mu + fam2.p["v"], fam2.p["v"].scaled(2), False
    zeta = cmath.exp(2j * math.pi / 3)
    cplx = twisted_boundary(g, {"la": zeta})
    cfam = complex_family(canonical_family(g))
    yield "complex pin", cplx, cfam.s["la"], cfam.p["a"].scaled(zeta), True
    yield "complex untwisted pin", cplx, cfam.s["la"], cfam.p["a"], False
    yield ("complex two directions", cplx, cfam.p["a"] + cfam.s["la"],
           cfam.p["a"].scaled(1 + zeta), True)
    yield "complex defect", cplx, ck_defect(cfam, "b"), zero(), True
    yield "complex loop with entrance", cplx, cfam.s["lb"], cfam.p["b"], False


SCAN_CASES = list(_scan_cases())


@pytest.mark.parametrize("name,rep,a,b,expected", SCAN_CASES,
                         ids=[case[0] for case in SCAN_CASES])
def test_polar_and_complex_verdicts_unchanged(name, rep, a, b, expected):
    assert operator_equal(rep, a, b) is expected
    assert test_set_equal_oracle(rep, a, b) is expected
    assert deep_walk_equal(rep, a, b) is expected
