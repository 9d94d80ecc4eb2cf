from fractions import Fraction

import pytest

from graphck import (
    ExprError,
    GaussianRational,
    Phase,
    PolarCoeff,
    parse_element,
    path_isometry,
    vertex_projection,
)
from corpus import g1_loop, g2_cyc2, g3_ent


def test_parse_generators():
    g1 = g1_loop()
    assert parse_element(g1, "p[v]") == vertex_projection(g1, "v")
    assert parse_element(g1, "s[e]") == path_isometry(g1, "e")
    assert parse_element(g1, "s*[e]") == path_isometry(g1, "e").adjoint()
    assert parse_element(g1, "s[e e]") == path_isometry(g1, g1.path(["e", "e"]))


def test_parse_sums_and_signs():
    g1 = g1_loop()
    s_e, p_v = path_isometry(g1, "e"), vertex_projection(g1, "v")
    assert parse_element(g1, "p[v] - s[e]") == p_v - s_e
    assert parse_element(g1, "-p[v] + 2 * s[e]") == -p_v + Fraction(2) * s_e
    assert parse_element(g1, "1/2 * s[e] + 1/2 * s[e]") == s_e


def test_parse_products_collapse():
    g3 = g3_ent()
    assert parse_element(g3, "s[e1] * s*[f]").is_zero
    g2 = g2_cyc2()
    assert parse_element(g2, "s*[e1] * s[e1]") == vertex_projection(g2, "u")


def test_parse_gaussian_coefficients():
    g1 = g1_loop()
    p_v = vertex_projection(g1, "v")
    assert parse_element(g1, "i * p[v]") == p_v.scaled(GaussianRational(0, Fraction(1)))
    assert parse_element(g1, "2/3i * p[v]") == p_v.scaled(
        GaussianRational(0, Fraction(2, 3))
    )
    assert parse_element(g1, "(1-2/3i) * p[v]") == p_v.scaled(
        GaussianRational(Fraction(1), Fraction(-2, 3))
    )
    assert parse_element(g1, "(i) * p[v]") == parse_element(g1, "i * p[v]")


def test_parse_polar_coefficients():
    g1 = g1_loop()
    el = parse_element(g1, "1@1/3 * p[v]")
    ((_, coeff),) = list(el.terms.items())
    assert coeff == PolarCoeff(Fraction(1), Fraction(1, 3))
    mixed = parse_element(g1, "1@1/3 * p[v] + 2 * s[e]")
    assert mixed.mode == "exact"
    # two directions add exactly: exp(2 pi i/3) + exp(2 pi i/6) = sqrt(3) i
    (coeff,) = parse_element(g1, "1@1/3 * p[v] + 1@1/6 * p[v]").terms.values()
    assert coeff * coeff == GaussianRational(-3)


def test_parse_roundtrip_through_render():
    g2 = g2_cyc2()
    examples = [
        "p[u]",
        "s[e1 e2] * s*[e1 e2]",
        "1/2 * p[u] - 3 * s[e1] + i * s*[e2]",
        "(1+1/2i) * s[e1]",
        "(1+i) * p[u] + 1@1/3 * s[e1]",
        "(-1+2@1/6) * s[e1 e2] - (1@1/5+1/2@1/4) * s*[e2]",
    ]
    for text in examples:
        el = parse_element(g2, text)
        assert parse_element(g2, el.render()) == el


def test_parse_zero():
    assert parse_element(g1_loop(), "0").is_zero
    assert parse_element(g1_loop(), "p[v] - p[v]").is_zero
    assert parse_element(g1_loop(), "p[v] - p[v]").render() == "0"


def test_parse_errors():
    g1 = g1_loop()
    with pytest.raises(ExprError, match="no unit"):
        parse_element(g1, "2")
    with pytest.raises(ExprError):
        parse_element(g1, "p[v] +")
    with pytest.raises(ExprError):
        parse_element(g1, "q[v]")
    with pytest.raises(ExprError, match="one vertex"):
        parse_element(g1, "p[v v]")
    with pytest.raises(ExprError, match="edge id"):
        parse_element(g1, "s[]")
    with pytest.raises(Exception, match="unknown"):
        parse_element(g1, "s[nope]")
    with pytest.raises(ExprError, match="unexpected character"):
        parse_element(g1, "p[v] $ s[e]")
    with pytest.raises(ExprError):
        parse_element(g1, "(1+i * p[v]")
