import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from graphck import (
    Cyclotomic,
    ExactnessError,
    GaussianRational,
    Graph,
    GraphError,
    PolarCoeff,
    parse_element,
    vertex_projection,
)
from graphck import exact
from graphck.exact import TOL
from graphck.transform import rational_phase
from oracles import (Phase, as_phase, cyclotomic_poly_oracle, minimal_oracle, polar_terms_oracle, powers,
                     split_sign_oracle)

I = GaussianRational(0, 1)


def test_phase_normalization_and_product():
    """A turn is read mod 1 into the root at its least level, and roots
    multiply and conjugate as their turns add and negate."""
    assert rational_phase(Fraction(5, 4)) == I
    assert rational_phase(Fraction(1, 3)) * rational_phase("1/2") == rational_phase(Fraction(5, 6))
    assert rational_phase(Fraction(1, 3)).conjugate() == rational_phase(Fraction(2, 3))
    sixth = rational_phase(Fraction(1, 6))
    assert sixth.level == 3 and sixth * sixth * sixth * sixth * sixth * sixth == exact.ONE
    assert abs(rational_phase(Fraction(1, 4)).value - 1j) < 1e-12


def test_gaussian_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(2), Fraction(-1))
    assert isinstance(a, Cyclotomic) and a.level == 4
    assert GaussianRational(Fraction(3, 2)).level == 1
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == GaussianRational(
        Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(1, 3) * 2 - Fraction(1, 2)
    )
    assert a.conjugate() == GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert (a - a).is_zero
    assert exact.is_unit(GaussianRational(Fraction(3, 5), Fraction(4, 5)))


def test_gaussian_quarter_turns():
    one = GaussianRational(Fraction(1))
    assert exact.times_phase(one, rational_phase(Fraction(1, 4))) == I
    assert exact.times_phase(one, rational_phase(Fraction(1, 2))) == GaussianRational(-1)
    # any rational turn stays exact: a third turn lands in Q(zeta_3)
    third = exact.times_phase(one, rational_phase(Fraction(1, 3)))
    assert third == PolarCoeff(1, Fraction(1, 3)) and third.level == 3
    assert exact.times_phase(GaussianRational(0), rational_phase(Fraction(1, 3))).is_zero
    assert exact.times_phase(one, exact.ONE) is one
    with pytest.raises(TypeError, match="not a phase"):
        exact.times_phase(one, Fraction(1, 3))


def test_polar_canonical_form():
    # the turn is printed in [0, 1/2), a half turn folded into the sign
    assert PolarCoeff(Fraction(2), Fraction(3, 4)).render(polar=True) == "-2@1/4"
    assert PolarCoeff(Fraction(2), Fraction(3, 4)) == GaussianRational(0, -2)
    assert PolarCoeff(Fraction(0), Fraction(1, 3)).is_zero
    assert rational_phase(Fraction(2, 3)) == PolarCoeff(Fraction(-1), Fraction(1, 6))
    assert PolarCoeff(1, Fraction(1, 3)).polar_terms() == [(1, Fraction(1, 3))]


def test_polar_addition_rules():
    a = PolarCoeff(Fraction(1), Fraction(1, 3))
    b = PolarCoeff(Fraction(1, 2), Fraction(1, 3))
    assert a + b == PolarCoeff(Fraction(3, 2), Fraction(1, 3))
    c = PolarCoeff(Fraction(1), Fraction(5, 6))  # the opposite direction
    assert (a + c).is_zero
    # distinct directions add exactly: zeta_3 + zeta_6 = sqrt(3) i
    s = a + PolarCoeff(Fraction(1), Fraction(1, 6))
    assert s * s == GaussianRational(-3)
    assert len(s.polar_terms()) == 2
    assert a + PolarCoeff(Fraction(0)) == a


def test_polar_multiplication_and_conjugate():
    a = PolarCoeff(Fraction(2), Fraction(1, 3))
    b = PolarCoeff(Fraction(3), Fraction(1, 4))
    assert a * b == PolarCoeff(Fraction(6), Fraction(7, 12))
    assert a.conjugate() * a == PolarCoeff(Fraction(4))
    assert abs(a.value - 2 * PolarCoeff(1, Fraction(1, 3)).value) < 1e-12


def test_mode_dispatch():
    g = GaussianRational(Fraction(1))
    # one exact type: Gaussian and polar literals of one value are equal
    assert exact.scalars_equal(g, PolarCoeff(Fraction(1)))
    assert exact.scalars_equal(
        PolarCoeff(Fraction(2), Fraction(1, 4)), GaussianRational(0, Fraction(2))
    )
    assert not exact.scalars_equal(PolarCoeff(Fraction(1), Fraction(1, 3)), g)
    # a complex operand makes the result complex, compared within TOL
    assert exact.scalars_equal(complex(0, 1), GaussianRational(0, Fraction(1)))
    assert isinstance(exact.add(g, 1j), complex)
    assert abs(exact.mul(PolarCoeff(1, Fraction(1, 3)), 2j) - 2j * PolarCoeff(1, Fraction(1, 3)).value) < TOL


def test_coerce_and_units():
    assert exact.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    assert exact.coerce(rational_phase(Fraction(1, 4))) == I
    assert exact.as_complex(rational_phase(Fraction(1, 2))) == pytest.approx(-1)
    for inexact in (0.5 + 0j, 0.5):
        with pytest.raises(ExactnessError, match="inexact"):
            exact.coerce(inexact)
    assert exact.is_unit(GaussianRational(Fraction(3, 5), Fraction(4, 5)))
    assert not exact.is_unit(PolarCoeff(Fraction(2), Fraction(1, 3)))
    assert exact.is_unit(PolarCoeff(-1, Fraction(2, 7)))


def test_rational_phase_reads_every_kind_of_unit():
    """Turns and exact roots of unity give the root at its least level, a
    complex unit passes, and anything else is refused."""
    root = rational_phase(PolarCoeff(Fraction(-1), Fraction(1, 6)))
    assert root == PolarCoeff(1, Fraction(2, 3)) and root.level == 3
    assert rational_phase(GaussianRational(0, Fraction(-1))) == PolarCoeff(1, Fraction(3, 4))
    for turn in (Fraction(1, 3), "1/3", Fraction(-2, 3)):
        x = rational_phase(turn)
        assert (x.level, x.num, x.den) == (3, (0, 1), 1)
    assert rational_phase(0) == rational_phase(1) == exact.ONE
    at_8 = Cyclotomic(8, (0, 0, 1, 0))  # zeta_4 written at level 8
    assert rational_phase(at_8).level == 4
    with pytest.raises(ExactnessError, match="2 is not a unit scalar"):
        rational_phase(GaussianRational(Fraction(2)))
    with pytest.raises(ExactnessError, match="is not a unit scalar"):
        rational_phase(2j)
    assert rational_phase(complex(0, 1)) == complex(0, 1)
    unit = GaussianRational(Fraction(3, 5), Fraction(4, 5))  # no root of unity
    with pytest.raises(GraphError, match="unit of infinite order"):
        rational_phase(unit)


def test_repr_names_the_value():
    assert repr(GaussianRational(Fraction(3, 5), Fraction(4, 5))) == "<Cyclotomic (3/5+4/5i)>"
    assert repr(PolarCoeff(2, Fraction(1, 3))) == "<Cyclotomic 2@1/3>"
    assert repr(exact.rational(Fraction(-1, 2))) == "<Cyclotomic -1/2>"


# ------------------------------------------------------- the cyclotomic type


def test_equality_across_levels():
    one_at_12 = PolarCoeff(1, Fraction(1, 12)) * PolarCoeff(1, Fraction(11, 12))
    assert one_at_12.level == 12 and one_at_12 == GaussianRational(1)
    assert one_at_12.minimal().level == (I * I).minimal().level == 1
    assert rational_phase(Fraction(3, 12)) == I
    zeta12 = PolarCoeff(1, Fraction(1, 12))
    assert zeta12 * zeta12 * zeta12 == I
    assert (zeta12 * zeta12 * zeta12).level == 12
    assert zeta12 != I
    third_at_4 = GaussianRational(0, Fraction(1, 3)) * GaussianRational(0, -1)
    assert third_at_4.level == 4 and third_at_4 == GaussianRational(Fraction(1, 3))
    assert third_at_4 != GaussianRational(Fraction(1, 2))
    # Q(zeta_6) = Q(zeta_3): a sixth turn is stored at level 3
    assert PolarCoeff(1, Fraction(1, 6)).level == 3


def test_cyclotomic_polynomials_match_long_division():
    for n in [*range(1, 211), 420, 840, 997, 1000]:
        assert exact._cyclotomic_poly(n) == cyclotomic_poly_oracle(n), n


def test_levels_above_the_limit_are_refused():
    top = PolarCoeff(1, Fraction(1, 997))  # the largest prime level within the limit
    assert top * top.conjugate() == GaussianRational(1)
    with pytest.raises(exact.LevelError, match="level 99991"):
        PolarCoeff(1, Fraction(1, 99991))
    # two levels within the limit whose lcm is not
    with pytest.raises(exact.LevelError, match="level 9797"):
        PolarCoeff(1, Fraction(1, 97)) + PolarCoeff(1, Fraction(1, 101))


# (re, im) -> Gaussian style and (mag, turn) -> polar style, as the separate
# Gaussian and polar coefficient types printed them
GAUSSIAN_STRINGS = [
    (("0", "1"), "i"), (("0", "-1"), "-i"), (("1", "-2/3"), "(1-2/3i)"),
    (("-1/2", "1"), "(-1/2+i)"), (("3/2", "0"), "3/2"), (("0", "2/3"), "2/3i"),
    (("0", "-5/4"), "-5/4i"), (("-2", "7/3"), "(-2+7/3i)"), (("0", "0"), "0"),
    (("-1", "0"), "-1"),
]
POLAR_STRINGS = [
    (("1", "1/4"), "1@1/4"), (("1", "2/3"), "-1@1/6"), (("1", "1/3"), "1@1/3"),
    (("3/2", "0"), "3/2"), (("2", "3/4"), "-2@1/4"), (("-5/7", "5/12"), "-5/7@5/12"),
    (("1", "7/12"), "-1@1/12"), (("-1", "1/2"), "1"), (("2/5", "1/8"), "2/5@1/8"),
    (("0", "1/3"), "0"),
]


@pytest.mark.parametrize("parts,text", GAUSSIAN_STRINGS)
def test_gaussian_style_strings(parts, text):
    assert GaussianRational(*parts).render() == text
    assert str(GaussianRational(*parts)) == text


@pytest.mark.parametrize("parts,text", POLAR_STRINGS)
def test_polar_style_strings(parts, text):
    assert PolarCoeff(*parts).render(polar=True) == text


def test_sums_of_directions_print_as_polar_sums():
    s = PolarCoeff(1, Fraction(1, 3)) + PolarCoeff(1, Fraction(1, 6))
    assert s.render(polar=True) == "(1+2@1/3)"
    assert s.render() == "(1+2@1/3)"  # no Gaussian form: polar style
    lifted = s + I - I  # the same value stored at level 12
    assert lifted.level == 12 and lifted.render(polar=True) == "(1+2@1/3)"
    t = PolarCoeff(1, Fraction(1, 12)) * PolarCoeff(1, Fraction(1, 12)) + GaussianRational(0, 1)
    assert t.render(polar=True) == "(1@1/6+1@1/4)"
    assert (t - t + I).render(polar=True) == "1@1/4"  # the least field prints


_TURNS = st.sampled_from([Fraction(k, n) for n in (1, 2, 3, 4, 5, 8, 12) for k in range(n)])
_MAGS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclotomics(draw):
    terms = draw(st.lists(st.tuples(_MAGS, _TURNS), min_size=1, max_size=3))
    total = GaussianRational(0)
    for mag, turn in terms:
        total = total + PolarCoeff(mag, turn)
    return total


def _close(x, z):
    return abs(x.value - z) < TOL


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms_against_complex_evaluation(a, b, c):
    zero, one = GaussianRational(0), GaussianRational(1)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a
    # the independent route: machine complex evaluation
    assert _close(a + b, a.value + b.value)
    assert _close(a * b, a.value * b.value)
    assert _close(a.conjugate(), a.value.conjugate())
    assert _close(a.minimal(), a.value)
    assert (a * b).is_zero == (a.is_zero or b.is_zero)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=5) | st.integers(-3, 3),
       st.fractions(min_value=-2, max_value=2, max_denominator=30) | st.integers(-2, 2))
@example(0, Fraction(1, 6))
@example(Fraction(-3, 2), Fraction(5, 6))
@example(2, Fraction(-7, 2))
@example(0, 0)
def test_polar_coeff_matches_the_phase_product(mag, turn):
    # turns of denominator 2 mod 4 land a level below; a zero mag keeps the turn's level
    x, y = PolarCoeff(mag, turn), exact.rational(mag) * rational_phase(turn)
    assert (x.level, x.num, x.den) == (y.level, y.num, y.den)


@settings(max_examples=200, deadline=None)
@given(cyclotomics(), st.booleans())
def test_split_sign_renders_once_what_two_renders_give(c, polar):
    x = c.minimal()
    text = exact.least_text(x, polar)
    neg = text.startswith(("-", "(-"))
    assert exact.split_sign(x, polar) == (neg, exact.least_text(-x, polar) if neg else text)


def test_rationals_from_ints_strings_and_fractions_agree():
    for q in (0, 3, -2, True, "5/10", "-7", Fraction(-6, 4)):
        x, f = exact.rational(q), Fraction(q)
        assert (x.level, x.num, x.den) == (1, (f.numerator,), f.denominator)
    assert GaussianRational("1/2", -1) == GaussianRational(Fraction(1, 2), Fraction(-1))
    for bad in (0.5, 1j, None):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            PolarCoeff(1, bad)


G1 = Graph(["v"], [("e", "v", "v")])


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), st.booleans())
def test_render_parses_back(c, polar):
    e = vertex_projection(G1, "v").scaled(c)
    assert parse_element(G1, e.render(polar)) == e


def test_render_parses_back_examples():
    p_v = vertex_projection(G1, "v")
    for c in [I, GaussianRational(1, Fraction(-2, 3)), PolarCoeff(-1, Fraction(1, 6)),
              PolarCoeff(1, Fraction(1, 3)) + PolarCoeff(1, Fraction(1, 6)),
              PolarCoeff(2, Fraction(1, 5)) - PolarCoeff(1, Fraction(1, 7)),
              -(PolarCoeff(1, Fraction(1, 3)) + PolarCoeff(1, Fraction(1, 6)))]:
        e = p_v.scaled(c) + p_v.scaled(c).scaled(PolarCoeff(1, Fraction(1, 8))) * vertex_projection(G1, "v")
        for polar in (False, True):
            assert parse_element(G1, e.render(polar)) == e, e.render(polar)


# ------------------------------------------------- the least level by descent

@st.composite
def same_level_values(draw):
    """Two sums of one to three rational multiples of k/d turns, every d
    dividing one N."""
    n = draw(st.sampled_from([12, 24, 36, 60, 72, 84, 90, 120]))
    turns = st.sampled_from(sorted({Fraction(k, d) for d in range(1, n + 1) if n % d == 0 for k in range(d)}))
    values = []
    for _ in range(2):
        total = exact.rational(0)
        for _ in range(draw(st.integers(1, 3))):
            total = total + PolarCoeff(draw(_MAGS), draw(turns))
        values.append(total)
    return values


def _assert_minimal_matches_the_oracle(v):
    got, want = v.minimal(), minimal_oracle(v)
    assert (got.level, got.num, got.den) == (want.level, want.num, want.den)
    for polar in (False, True):
        assert v.render(polar) == exact.least_text(want, polar)


@settings(max_examples=100, deadline=None)
@given(same_level_values())
def test_minimal_matches_the_elimination_oracle(values):
    """The prime descent finds the level, numerators and denominator that the
    divisor-by-divisor elimination finds, and prints the same text; the sum
    and the product meet at the lcm of two levels that may share primes."""
    a, b = values
    for v in (a, a + b, a * b):
        _assert_minimal_matches_the_oracle(v)


def test_minimal_matches_the_oracle_at_large_levels():
    z840 = PolarCoeff(1, Fraction(1, 840))
    x = z840 + PolarCoeff(Fraction(2, 3), Fraction(3, 840)) + exact.ONE
    inner = PolarCoeff(1, Fraction(1, 24)) + PolarCoeff(Fraction(1, 2), Fraction(1, 7))
    z997 = PolarCoeff(1, Fraction(1, 997))
    zeta12 = PolarCoeff(1, Fraction(1, 12))
    cases = [
        (x * x * x, 840),
        (inner + z840 - z840, 168),  # stored at level 840, lies in Q(zeta_168)
        (z997 + z997.conjugate(), 997),
        (z997 * z997.conjugate(), 1),
        (zeta12 * PolarCoeff(1, Fraction(11, 12)), 1),  # rational, stored at level 12
    ]
    for v, level in cases:
        _assert_minimal_matches_the_oracle(v)
        assert v.minimal().level == level


def test_rendering_a_level_840_value_is_fast():
    x = PolarCoeff(1, Fraction(1, 840)) + PolarCoeff(Fraction(2, 3), Fraction(3, 840)) + exact.ONE
    cube = x * x * x
    started = time.perf_counter()
    text = cube.render(polar=True)
    assert time.perf_counter() - started < 0.2  # 0.6-0.9 s by one elimination per divisor
    assert text.startswith("(1+3@1/840+")


# ------------------------------------ polar terms from one guessed power, and
# coefficient text from integers

_WALK_LEVELS = (3, 5, 8, 12, 24, 840, 997)


def _power(n, k, mag):
    """mag * zeta_n^k at level n, from the power walk of the oracle."""
    vec = next(itertools.islice(powers(n), k, None))
    p, q = mag.as_integer_ratio()
    return Cyclotomic(n, tuple(p * v for v in vec), q)


@st.composite
def level_values(draw):
    """A rational multiple of one power of zeta_n, of either sign, or a sum of
    two or three of them, stored at level n."""
    n = draw(st.sampled_from(_WALK_LEVELS))
    mags = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    total = _power(n, draw(st.integers(0, n - 1)), draw(mags))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        total = total + _power(n, draw(st.integers(0, n - 1)), draw(mags))
    return total


@settings(max_examples=200, deadline=None)
@given(level_values())
@example(_power(997, 996, Fraction(-2, 3)))  # every coordinate -2/3
@example(_power(840, 839, Fraction(1)) + _power(840, 1, Fraction(1)))
@example(_power(5, 4, Fraction(-1)))  # odd level, c < 0: a half turn off every power
def test_polar_terms_match_the_power_walk(x):
    """The guessed power finds what the walk over every power past the basis
    finds, folded sign included, and ``unit_turn`` reads a unit alike."""
    terms = x.polar_terms()
    assert terms == polar_terms_oracle(x)
    if len(terms) == 1 and abs(terms[0][0]) == 1:
        mag, turn = terms[0]
        assert exact.unit_turn(x) == ((turn if mag > 0 else turn + Fraction(1, 2)), x.render(polar=True))


def test_polar_terms_of_the_level_840_cube_match_the_power_walk():
    x = PolarCoeff(1, Fraction(1, 840)) + PolarCoeff(Fraction(2, 3), Fraction(3, 840)) + exact.ONE
    for v in (x, x * x * x, -(x * x * x), PolarCoeff(Fraction(-7, 2), Fraction(601, 840))):
        assert v.polar_terms() == polar_terms_oracle(v)
        assert v.minimal().polar_terms() == polar_terms_oracle(v.minimal())


@settings(max_examples=200, deadline=None)
@given(cyclotomics() | level_values(), st.booleans(), st.booleans())
def test_split_sign_matches_the_fraction_text(c, polar, unsign):
    x = c.minimal()
    assert exact.split_sign(x, polar, unsign) == split_sign_oracle(x, polar, unsign)


# ------------------------------------- kappa values read by the one unit route

@st.composite
def kappa_pairs(draw):
    """Two kappa values: a rational turn k/n with n <= MAX_LEVEL, or the root
    of that turn, of either sign, written at a multiple of its least level up
    to MAX_LEVEL (such as zeta_4 at level 8).  The second value has the
    first's turn or a turn of the same denominator."""
    n = draw(st.integers(1, exact.MAX_LEVEL))
    k = draw(st.integers(-n, 2 * n))
    out = []
    for turn in (Fraction(k, n), Fraction(draw(st.integers(0, n) | st.just(k)), n)):
        if draw(st.booleans()):
            out.append(turn)
            continue
        negate = draw(st.booleans())
        root = exact.PolarCoeff(1, turn + Fraction(1, 2) if negate else turn)
        level = root.level * draw(st.integers(1, exact.MAX_LEVEL // root.level))
        written = Cyclotomic(level, exact._lift(root, level))
        out.append(-written if negate else written)
    return out


@settings(max_examples=300, deadline=None)
@given(kappa_pairs())
@example([Cyclotomic(8, (0, 0, 1, 0)), Fraction(1, 4)])
@example([-Cyclotomic(12, (0, 0, 1, 0)), Fraction(2, 3)])  # -zeta_6 at level 12
@example([Cyclotomic(2, (-1,)), Fraction(1, 2)])  # -1 at level 2
@example([Fraction(5, 7), "5/7"])
def test_rational_phase_reads_kappa_as_the_phase_route_did(pair):
    """The root that ``rational_phase`` returns prints the turn, the polar
    text and the polar flag of ``verify_relations`` that the old ``Phase``
    route gave, and two roots are equal exactly when the two Phases were."""
    old, new = [as_phase(v) for v in pair], [rational_phase(v) for v in pair]
    for ph, root in zip(old, new):
        turn, text = exact.unit_turn(root)
        assert isinstance(ph, Phase) and str(turn) == str(ph.turn)
        assert text == root.render(polar=True) == ph.cyclotomic().render(polar=True)
        assert bool(4 % root.level) == bool(4 % ph.turn.denominator)
    assert (new[0] == new[1]) == (old[0] == old[1])
