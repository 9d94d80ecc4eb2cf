"""Exact scalar arithmetic: rational phases and the cyclotomic fields Q(zeta_N).

A coefficient is one of two kinds, and the value itself says which:

* exact: a :class:`Cyclotomic` value, an element of Q(zeta_N) with
  zeta_N = exp(2*pi*i/N), stored as integer numerators over one common
  denominator in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1) modulo the
  cyclotomic polynomial Phi_N.  Two values of levels N and N' meet in
  Q(zeta_lcm(N, N')).  Rationals live at level 1, Gaussian rationals at level
  4 and the phase of turn k/N at level N, so sums, products, conjugates and
  rational phases all stay exact.
* inexact: a machine ``complex`` number, compared within ``TOL``.  Adding or
  multiplying an exact value and a complex one gives a complex one.

Gaussian (``(1-2/3i)``) and polar (``mag@turn``, the turn in [0, 1/2), a
half turn folded into the sign of mag) are two ways of printing an exact
value.  A value that is no rational multiple of a root of unity prints as a
parenthesised sum of polar terms over the power basis of its least field.
``coerce`` refuses an inexact value with :class:`ExactnessError` instead of
rounding it; a value that would need a level above ``MAX_LEVEL`` raises
:class:`LevelError`.

The least field is found by a descent one prime at a time
(``Cyclotomic.minimal``); the levels whose field holds a value are closed
under gcd, so the descent reaches the least of them.  At level n and a prime
p dividing n, with m = n/p (Washington, *Introduction to Cyclotomic Fields*,
ch. 2):

* p^2 | n: Phi_n(x) = Phi_m(x^p), so the value lies in Q(zeta_m) exactly when
  only exponents divisible by p occur, and its numerators there are
  ``num[::p]``;
* p || n: Q(zeta_n) = Q(zeta_m) (x) Q(zeta_p), and zeta_n^i =
  zeta_m^(a*i) zeta_p^(b*i) with a = p^-1 mod m and b = m^-1 mod p.  With
  A_j the part at zeta_p^j, reduced at level m, the value lies in Q(zeta_m)
  exactly when A_1 = ... = A_(p-1), and is A_0 - A_(p-1) there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

TOL = 1e-9

HALF = Fraction(1, 2)


class ExactnessError(ArithmeticError):
    """An inexact value was about to enter exact arithmetic."""


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {x!r}")


@dataclass(frozen=True)
class Phase:
    """The unit scalar exp(2*pi*i*turn) with rational ``turn``, reduced mod 1."""

    turn: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "turn", _fraction(self.turn) % 1)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.turn + other.turn)

    def __pow__(self, n: int) -> "Phase":
        return Phase(self.turn * n)

    def conjugate(self) -> "Phase":
        return Phase(-self.turn)

    @property
    def is_one(self) -> bool:
        return self.turn == 0

    @property
    def value(self) -> complex:
        return cmath.rect(1.0, 2.0 * math.pi * float(self.turn))

    def __str__(self) -> str:
        return str(self.turn)


MAX_LEVEL = 1000


class LevelError(ValueError):
    """A value would need a cyclotomic field of level above ``MAX_LEVEL``."""


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, lowest degree first: the product of (x^d - 1)^mu(n/d) over the
    divisors d of n, each factor multiplied in, or divided out exactly, in
    one pass over the coefficients.

    Every computation at level n starts here, so this is where a level above
    ``MAX_LEVEL`` is refused: the work per operation grows as phi(n)^2.
    """
    if n > MAX_LEVEL:
        raise LevelError(f"exact arithmetic would need the cyclotomic field of level {n}, "
                         f"above the limit of {MAX_LEVEL}; use turns with smaller denominators")
    factors = {d: _mobius(n // d) for d in range(1, n + 1) if n % d == 0}
    poly = [1]
    for d in (d for d, mu in factors.items() if mu == 1):  # poly * (x^d - 1)
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + d] += c
        poly = out
    for d in (d for d, mu in factors.items() if mu == -1):  # poly / (x^d - 1): p[i] = q[i-d] - q[i]
        out = [0] * (len(poly) - d)
        for i in range(len(out)):
            out[i] = (out[i - d] if i >= d else 0) - poly[i]
        poly = out
    return tuple(poly)


def _mobius(m: int) -> int:
    """The Moebius function: 0 when a square divides m, else (-1)^(number of primes of m)."""
    primes = _prime_factors(m)
    return 0 if any(m % (p * p) == 0 for p in primes) else (-1) ** len(primes)


@lru_cache(maxsize=None)
def _modulus(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (degree, coefficient) pairs of Phi_n below its top."""
    phi = _cyclotomic_poly(n)
    return len(phi) - 1, tuple((j, p) for j, p in enumerate(phi[:-1]) if p)


def _reduce(n: int, coeffs: list[int]) -> tuple[int, ...]:
    """sum coeffs[e] * zeta_n^e in the power basis of level n, consuming the
    list: the exponents are folded mod n, then the polynomial is divided by Phi_n."""
    deg, low = _modulus(n)
    for e in range(len(coeffs) - 1, n - 1, -1):  # zeta_n^n = 1
        coeffs[e - n] += coeffs.pop()
    coeffs += [0] * (deg - len(coeffs))
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs.pop()
        if c:
            for j, p in low:
                coeffs[i - deg + j] -= c * p
    return tuple(coeffs)


def _lift(v: "Cyclotomic", n: int) -> tuple[int, ...]:
    """The numerators of ``v`` at a multiple n of its level."""
    if v.level == n:
        return v.num
    step = n // v.level
    coeffs = [0] * ((len(v.num) - 1) * step + 1)
    coeffs[::step] = v.num
    return _reduce(n, coeffs)


class Cyclotomic:
    """The element sum(num[k] * zeta_level^k) / den of Q(zeta_level).

    ``num`` has phi(level) entries; ``den`` > 0 shares no factor with all of
    them, so two values of one level are equal exactly when num and den are.
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, num: tuple[int, ...], den: int = 1):
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        self.level, self.num, self.den = level, num, den

    def _align(self, other: "Cyclotomic"):
        """(level, self's numerators, other's numerators) at the lcm of the levels."""
        n = math.lcm(self.level, other.level)
        return n, _lift(self, n), _lift(other, n)

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        n, x, y = self._align(other)
        d, e = self.den, other.den
        return Cyclotomic(n, tuple(p * e + q * d for p, q in zip(x, y)), d * e)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.level, tuple(-c for c in self.num), self.den)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        n, x, y = self._align(other)
        raw = [0] * (2 * len(x) - 1)
        for i, p in enumerate(x):
            if p:
                for j, q in enumerate(y):
                    raw[i + j] += p * q
        return Cyclotomic(n, _reduce(n, raw), self.den * other.den)

    def conjugate(self) -> "Cyclotomic":
        n, num = self.level, self.num  # zeta^-k = zeta^(n-k)
        return Cyclotomic(n, _reduce(n, [num[0]] + [0] * (n - len(num)) + list(num[:0:-1])), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        _, x, y = self._align(other)
        return all(p * other.den == q * self.den for p, q in zip(x, y))

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def value(self) -> complex:
        turn = 2.0 * math.pi / self.level
        return complex(sum(c * cmath.rect(1.0, k * turn) for k, c in enumerate(self.num))) / self.den

    def minimal(self) -> "Cyclotomic":
        """The same value at the least level whose field contains it.

        The levels whose field holds the value are closed under gcd, so a
        descent one prime at a time reaches the least of them: step from n to
        n/p for the first prime p for which ``_descend`` succeeds, until none
        does.  The result is never of a level 2 mod 4 (Q(zeta_2m) = Q(zeta_m)
        for odd m, so that step always succeeds).
        """
        n, num = self.level, self.num
        if not any(num[1:]):  # the power basis starts with 1, so this is rational
            return Cyclotomic(1, num[:1], self.den)
        while True:
            for p in _prime_factors(n):
                low = _descend(n, num, p)
                if low is not None:
                    n, num = n // p, low
                    break
            else:
                return self if n == self.level else Cyclotomic(n, num, self.den)

    def polar_terms(self) -> list[tuple[Fraction, Fraction]]:
        """(mag, turn) pairs summing to this value: one pair when it is
        mag * zeta for a root of unity zeta (all are +-zeta_level^k), else its
        coordinates in the power basis of its level, canonical on ``minimal()``."""
        return [(Fraction(p, q), Fraction(k, n)) for p, q, k, n in _polar_parts(self)]

    def render(self, polar: bool = False) -> str:
        """Gaussian style a+bi for a Gaussian rational unless ``polar``; polar
        style mag@turn, or a parenthesised sum of polar terms, otherwise."""
        return least_text(self.minimal(), polar)

    __str__ = render

    def __repr__(self) -> str:
        return f"<Cyclotomic {self.render()}>"


def least_text(x: Cyclotomic, polar: bool = False) -> str:
    """``x.render(polar)`` for a value ``x`` already at its least level
    (``Cyclotomic.minimal``), so that it is not sought again."""
    return split_sign(x, polar, unsign=False)[1]


def split_sign(x: Cyclotomic, polar: bool = False, unsign: bool = True) -> tuple[bool, str]:
    """(negative, text) for a value ``x`` at its least level: whether
    ``least_text(x, polar)`` starts with a minus sign, bare or after the
    opening parenthesis, and then ``least_text(-x, polar)`` (with ``unsign``),
    else ``least_text(x, polar)``.  The printed parts are found once, and
    printed from their integer numerators and denominators."""
    if not polar and x.level == 4:  # in Q(i) but not in Q; a rational prints alike in both styles
        (re, im), den = x.num, x.den
        neg = re < 0 or (re == 0 and im < 0)
        if neg and unsign:
            re, im = -re, -im
        imag = ("-" if im < 0 else "") + ("i" if abs(im) == den else f"{_ratio_text(abs(im), den)}i")
        return neg, imag if re == 0 else f"({_ratio_text(re, den)}{'-' if im < 0 else '+'}{imag.lstrip('-')})"
    parts = _polar_parts(x)  # the negation of x has the parts (-p, q, k, n)
    neg = bool(parts) and parts[0][0] < 0
    sign = -1 if neg and unsign else 1
    texts = [_ratio_text(sign * p, q) if k == 0 else f"{_ratio_text(sign * p, q)}@{_ratio_text(k, n)}"
             for p, q, k, n in parts]
    if len(texts) < 2:
        return neg, texts[0] if texts else "0"
    return neg, "(" + texts[0] + "".join(t if t[0] == "-" else "+" + t for t in texts[1:]) + ")"


def _ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms as ``str(Fraction(p, q))`` prints it, for q > 0."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _polar_parts(x: Cyclotomic) -> list[tuple[int, int, int, int]]:
    """(p, q, k, n) with q, n > 0 for each pair (p/q, k/n) of ``x.polar_terms()``,
    in order.  A value with several nonzero coordinates is tested as a monomial
    c * zeta_n^k at the one k that its argument points to (``_power_guess``)."""
    n, num, den = x.level, x.num, x.den
    hits = [k for k, c in enumerate(num) if c]
    if len(hits) > 1:
        k = _power_guess(n, num)
        root = _lift(_root(n, k), n)
        j = next(i for i, v in enumerate(root) if v)
        if all(c * root[j] == num[j] * v for c, v in zip(num, root)):
            r = root[j]
            return [_fold(num[j] if r > 0 else -num[j], den * abs(r), k, n)]
    hits.sort(key=lambda h: 2 * h % n)  # the folded turn, over 2n
    return [_fold(num[k], den, k, n) for k in hits]


def _power_guess(n: int, num: tuple[int, ...]) -> int:
    """The k with sum(num[j] * zeta_n^j) = c * zeta_n^k for a rational c, if
    there is one, read from the argument of the value in floating point: the
    nearest power for c > 0, and for odd n, where -1 is no power of zeta_n,
    the nearest power after a half turn when that lies nearer.  The numerators
    are scaled to at most 1, so no integer overflows a float; a monomial's
    argument is then exact to far less than the spacing 1/n of the powers."""
    big = max(map(abs, num))
    step = 2.0 * math.pi / n
    z = sum(c / big * cmath.rect(1.0, j * step) for j, c in enumerate(num) if c)
    t = cmath.phase(z) / step
    if n % 2 and abs(t - round(t)) > 0.25:
        t -= n / 2
    return round(t) % n


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _descend(n: int, num: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """The numerators at level m = n/p of sum(num[i] * zeta_n^i), for a prime
    p dividing n, or None when that value does not lie in Q(zeta_m); the two
    cases are those of the module docstring."""
    m = n // p
    if m % p == 0:  # over Q(zeta_m) the basis is 1, zeta_n, ..., zeta_n^(p-1)
        return None if any(num[i] for i in range(len(num)) if i % p) else num[::p]
    # over Q(zeta_m) the basis is 1, zeta_p, ..., zeta_p^(p-2), and
    # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
    a, b = pow(p, -1, m), pow(m, -1, p)
    groups = [[0] * m for _ in range(p)]
    for i, c in enumerate(num):
        if c:
            groups[b * i % p][a * i % m] += c
    parts = [_reduce(m, group) for group in groups]
    last = parts[-1]
    if any(part != last for part in parts[1:-1]):
        return None
    return tuple(x - y for x, y in zip(parts[0], last))


def _fold(p: int, q: int, k: int, n: int) -> tuple[int, int, int, int]:
    """The canonical polar pair of (p/q, k/n) for 0 <= k < n: turn in [0, 1/2),
    a half turn folded into the sign."""
    return (-p, q, 2 * k - n, 2 * n) if 2 * k >= n else (p, q, k, n)


@lru_cache(maxsize=None)
def _root(n: int, k: int) -> Cyclotomic:
    """zeta_n^k, at level n/2 when n = 2 mod 4 (zeta_n^k = -zeta_{n/2}^((k + n/2)/2) for odd k)."""
    if n % 4 == 2:
        m = n // 2
        return _root(m, k // 2) if k % 2 == 0 else -_root(m, (k + m) // 2 % m)
    return Cyclotomic(n, _reduce(n, [0] * k + [1]))


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of a rational value, with no
    Fraction built for an int or a Fraction."""
    return (x if isinstance(x, (int, Fraction)) else _fraction(x)).as_integer_ratio()


def rational(q) -> Cyclotomic:
    p, d = _ratio(q)
    return Cyclotomic(1, (p,), d)


def GaussianRational(re=0, im=0) -> Cyclotomic:
    """The exact value re + im*i."""
    (p, a), (q, b) = _ratio(re), _ratio(im)
    if not q:
        return Cyclotomic(1, (p,), a)
    return Cyclotomic(4, (p * b, q * a), a * b)


def from_phase(ph: Phase) -> Cyclotomic:
    return _root(ph.turn.denominator, ph.turn.numerator)


def PolarCoeff(mag=0, turn=0) -> Cyclotomic:
    """The exact value mag * exp(2*pi*i*turn) for rationals mag and turn."""
    (m, d), (k, n) = _ratio(mag), _ratio(turn)
    return scaled_root(m, d, k, n)


def scaled_root(p: int, q: int, k: int, n: int) -> Cyclotomic:
    """The exact value p/q * exp(2*pi*i*k/n) from integers with q, n > 0: the
    root of unity of the turn, reduced mod 1, scaled by the rational."""
    g = math.gcd(k, n)
    k, n = k // g, n // g
    root = _root(n, k % n)
    return Cyclotomic(root.level, tuple(p * c for c in root.num), q * root.den)


ONE = rational(1)


def as_complex(c) -> complex:
    if isinstance(c, (Cyclotomic, Phase)):
        return c.value
    return complex(c)


def coerce(value) -> Cyclotomic:
    """``value`` as an exact coefficient; ExactnessError for an inexact one."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, Phase):
        return from_phase(value)
    if isinstance(value, (int, Fraction)):
        return rational(value)
    if isinstance(value, (complex, float)):
        raise ExactnessError(f"inexact value {value!r} cannot enter exact arithmetic")
    raise TypeError(f"cannot interpret {value!r} as a coefficient")


def add(a, b):
    if isinstance(a, complex) or isinstance(b, complex):
        return as_complex(a) + as_complex(b)
    return a + b


def mul(a, b):
    if isinstance(a, complex) or isinstance(b, complex):
        return as_complex(a) * as_complex(b)
    return a * b


def times_phase(c, ph):
    """Multiply a coefficient by a unit scalar (a Phase, or a complex unit)."""
    if isinstance(ph, Phase):
        return c if ph.turn == 0 else mul(c, from_phase(ph))
    if isinstance(ph, complex):
        return as_complex(c) * ph
    raise TypeError(f"not a phase: {ph!r}")


def is_zero(c) -> bool:
    if isinstance(c, complex):
        return abs(c) < TOL
    return c.is_zero


def scalars_equal(a, b) -> bool:
    if isinstance(a, complex) or isinstance(b, complex):
        return abs(as_complex(a) - as_complex(b)) < TOL
    return a == b


def is_unit(c) -> bool:
    """Whether |c| == 1, exactly for an exact value and within TOL for a complex one."""
    if isinstance(c, complex):
        return abs(abs(c) - 1.0) < TOL
    return c * c.conjugate() == ONE


def as_phase(value):
    """The Phase of a rational turn (or its string), of a Phase, or of an exact
    root of unity; any other unit (complex, or exact but of infinite order) is
    returned unchanged."""
    if isinstance(value, Phase):
        return value
    if isinstance(value, (int, Fraction, str)):
        return Phase(value)
    if isinstance(value, Cyclotomic):
        terms = value.polar_terms()
        if len(terms) == 1 and abs(terms[0][0]) == 1:
            mag, turn = terms[0]
            return Phase(turn if mag > 0 else turn + HALF)
    if is_unit(value):
        return value
    raise ExactnessError(f"{value} is not a unit scalar")


def render(c, polar: bool = False) -> str:
    """A coefficient as text: ``Cyclotomic.render`` or the complex number."""
    return str(c) if isinstance(c, complex) else c.render(polar)
