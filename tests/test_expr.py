from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphck import (
    AlgebraElement,
    Cyclotomic,
    ExprError,
    Graph,
    GaussianRational,
    Phase,
    PolarCoeff,
    parse_element,
    path_isometry,
    vertex_projection,
)
from graphck.graph import enumerate_paths
from corpus import g1_loop, g2_cyc2, g3_ent
from oracles import parse_element_oracle


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
    assert all(isinstance(c, Cyclotomic) for c in mixed.terms.values())
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


def test_error_positions_name_the_character_not_the_whitespace_before_it():
    g1 = g1_loop()
    with pytest.raises(ExprError, match=r"^zero denominator at position 8: '1/0'$"):
        parse_element(g1, "p[v] +  1/0 * s[e]")
    with pytest.raises(ExprError, match=r"^unexpected character at position 8: '\$'$"):
        parse_element(g1, "p[v] \t\n $ s[e]")
    assert parse_element(g1, " \t p[v]\n+s[e]  ") == parse_element(g1, "p[v] + s[e]")
    with pytest.raises(ExprError, match="^empty expression$"):
        parse_element(g1, " \n ")


# ------------------------------------------- one monomial per term, checked
# against the factor-by-factor route

_G = Graph(["a", "b"], [("la", "a", "a"), ("f", "a", "b"), ("h", "b", "a")])
_PATHS = [p.render() for p in enumerate_paths(_G, 2) if p.edges]
_GENERATORS = ["p[a]", "p[b]"] + [f"s[{p}]" for p in _PATHS] + [f"s*[{p}]" for p in _PATHS]
_SCALARS = ["0", "1", "3", "1/2", "i", "2/3i", "1@1/3", "2/5@1/8", "1@7/12",
            "(1+i)", "(1-1@1/6)", "(-1/2+2@1/5)", "(i)", "(0)"]
_TOKENS = _GENERATORS[:6] + _SCALARS[:8] + [
    "*", "+", "-", "(", ")", "@", "i", "0", "s[]", "p[a b]", "s[zz]", "p[q]", "s[la f]",
    "q[a]", "1/0", "1@1/1009", "1@1/97 * 1@1/101", "$",
]


@st.composite
def expressions(draw):
    """A sum drawn from a small pool of terms, so that terms repeat and, with
    opposite signs, cancel."""
    factor = st.sampled_from(_GENERATORS + _SCALARS)
    term = st.lists(factor, min_size=1, max_size=4).filter(lambda fs: set(fs) & set(_GENERATORS))
    pool = draw(st.lists(term.map(" * ".join), min_size=1, max_size=4))
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    text = "".join(f" {draw(st.sampled_from('+-'))} {t}" for t in terms)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _outcome(parse, text):
    try:
        return parse(_G, text)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_parse_matches_the_factor_by_factor_route(text):
    got, want = _outcome(parse_element, text), _outcome(parse_element_oracle, text)
    assert isinstance(want, AlgebraElement), want
    assert isinstance(got, AlgebraElement) and got == want
    assert got.render() == want.render() and got.render(polar=True) == want.render(polar=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=8).map(" ".join))
def test_malformed_input_fails_as_the_factor_by_factor_route_does(text):
    got, want = _outcome(parse_element, text), _outcome(parse_element_oracle, text)
    if isinstance(want, AlgebraElement):
        assert isinstance(got, AlgebraElement) and got == want
    else:
        assert got == want


def test_parse_examples_match_the_factor_by_factor_route():
    for text in ["s[la] * s*[la] * s[f] - s[f]", "2 * p[a] * 0 + p[b]", "p[a] * p[b] + 1@1/3 * s*[f]",
                 "1@1/97 * p[a] - 1@1/97 * p[a] + 1@1/101 * p[a]", "s*[h] * s[h] * (1+i) * 1@1/5"]:
        assert parse_element(_G, text) == parse_element_oracle(_G, text), text
