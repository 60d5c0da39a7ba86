"""Differential tests of `exactnum` against sympy's polynomial arithmetic.

An element of Q(zeta_N) is compared with the polynomial of its coordinates
in QQ[x]; sympy reduces modulo its own cyclotomic_poly(N), so agreement
checks the integer core (Phi_N, the reduction with its x^(N/2) = -1 fold,
reduction rows, lifts, the closed-form inverse of 1 - zeta^a and the
Galois-norm inverse) against an independent implementation.  The norm
inverse is also compared, byte for byte, with the fraction-free elimination
of `oracles.bareiss_inverse`.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crepant.exactnum import (Cyclotomic, Kronecker,  # noqa: E402
                              _reduce, cyclotomic_polynomial, euler_phi,
                              root_of_unity)
from oracles import bareiss_inverse  # noqa: E402

X = sympy.Symbol("x")
MAX_CONDUCTOR = 84
# sympy.invert takes seconds beyond this degree (43 s at phi = 82); above it
# the inverse is checked through sympy's product alone.
SYMPY_INVERT_MAX_DEGREE = 24
ORACLE = settings(max_examples=30, deadline=None, derandomize=True,
                  database=None)


def _phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")


def _poly(value: Cyclotomic):
    coeffs = [sympy.Rational(c.numerator, c.denominator)
              for c in reversed(value.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def _coords(poly, n):
    """Coordinates of a sympy polynomial already reduced mod Phi_n."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]]
    return tuple(coeffs) + (Fraction(0),) * (euler_phi(n) - len(coeffs))


def _assert_normal(value: Cyclotomic):
    assert value._den > 0
    assert math.gcd(value._den, *value._num) == 1
    assert all(isinstance(x, int) for x in value._num)
    assert all(type(c) is Fraction for c in value.coeffs)
    assert len(value.coeffs) == euler_phi(value.conductor)


coordinate = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def element(draw, conductor):
    coords = draw(st.lists(coordinate, min_size=euler_phi(conductor),
                           max_size=euler_phi(conductor)))
    return Cyclotomic(conductor, coords)


@st.composite
def pair(draw):
    n = draw(st.integers(1, MAX_CONDUCTOR))
    return n, draw(element(n)), draw(element(n))


def test_cyclotomic_polynomial_and_phi_match_sympy():
    for n in range(1, MAX_CONDUCTOR + 1):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c)
                                                 for c in expected[::-1]), n
        assert euler_phi(n) == sympy.totient(n), n


@ORACLE
@given(pair())
def test_product_and_sum_match_sympy(case):
    n, a, b = case
    product, total = a * b, a + b
    assert product.coeffs == _coords((_poly(a) * _poly(b)).rem(_phi(n)), n)
    assert total.coeffs == _coords(_poly(a) + _poly(b), n)
    _assert_normal(product)
    _assert_normal(total)


@ORACLE
@given(pair(), coordinate)
def test_rational_scaling_matches_field_product(case, r):
    n, a, _ = case
    scaled = a * r
    assert scaled == a * Cyclotomic.from_rational(r, n) == r * a
    assert scaled.coeffs == tuple(c * r for c in a.coeffs)
    _assert_normal(scaled)


@ORACLE
@given(pair())
def test_inverse_matches_sympy(case):
    n, a, _ = case
    assume(not a.is_zero())
    inv = a.inverse()
    assert a * inv == 1
    assert (_poly(a) * _poly(inv)).rem(_phi(n)) == sympy.Poly(1, X,
                                                              domain="QQ")
    if euler_phi(n) <= SYMPY_INVERT_MAX_DEGREE:
        assert inv.coeffs == _coords(sympy.invert(_poly(a), _phi(n)), n)
    _assert_normal(inv)


def test_inverse_equals_the_bareiss_inverse():
    # 1, -1/2, 1, -1/2, ...: coordinates over distinct denominators; and
    # 3 + zeta^p, p the least prime factor of N, stored at N but lying in
    # the proper subfield Q(zeta_{N/p}); 2 + zeta_12^4 = 1 - zeta_12^8 is
    # the closed form's, checked too
    for n in [*range(1, MAX_CONDUCTOR + 1), 104, 105, 260, 420]:
        p = next((p for p in range(2, n + 1) if n % p == 0), 1)
        values = [Cyclotomic(n, [Fraction((-1) ** k, k % 2 + 1)
                                 for k in range(euler_phi(n))]),
                  3 + root_of_unity(n, p)]
        if n == 12:
            values.append(2 + root_of_unity(12, 4))
        for x in values:
            inv, ref = x.inverse(), bareiss_inverse(x)
            assert (inv.conductor, inv._num, inv._den) == (
                ref.conductor, ref._num, ref._den), (n, str(x))


@ORACLE
@given(st.data())
def test_lift_matches_sympy_and_keeps_equality(data):
    n = data.draw(st.integers(1, MAX_CONDUCTOR // 2))
    big = n * data.draw(st.integers(2, MAX_CONDUCTOR // n))
    a = data.draw(element(n))
    lifted = a.lift(big)
    step = big // n
    expected = _poly(a).compose(sympy.Poly(X ** step, X)).rem(_phi(big))
    assert lifted.coeffs == _coords(expected, big)
    assert lifted == a and a == lifted
    assert lifted.conductor == big
    _assert_normal(lifted)


def test_zero_has_unit_denominator():
    z = Cyclotomic(12, [Fraction(0)] * 4) * Fraction(5, 3)
    assert z.is_zero() and z._den == 1 and z == 0


def test_reduce_matches_sympy_rem():
    # lengths 1 to 2N + 3 reach the x^(N/2) = -1 fold at every even N, with
    # wraps past N, and the division below it
    rng = random.Random(16)
    for n in range(1, 101):
        for length in (1, n // 2 + 1, n + 1, 2 * n + 3,
                       rng.randint(1, 2 * n + 3)):
            poly = [rng.randint(-9, 9) for _ in range(length)]
            expected = sympy.rem(sympy.Poly(poly[::-1], X, domain="ZZ"),
                                 sympy.Poly(sympy.cyclotomic_poly(n, X), X))
            coeffs = [int(c) for c in expected.all_coeffs()[::-1]]
            assert _reduce(list(poly), n) == coeffs + [0] * (
                euler_phi(n) - len(coeffs)), (n, poly)


@pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 20, 28, 44, 60])
def test_inverse_of_one_minus_a_root_matches_sympy(n):
    for a in range(1, n):
        x = 1 - root_of_unity(n, a)
        expected = sympy.invert(_poly(x), _phi(n))
        assert x.inverse().coeffs == _coords(expected, n), (n, a)


def test_one_minus_a_root_times_its_inverse_is_one():
    for n in range(1, 61):
        for a in range(1, n):
            x = 1 - root_of_unity(n, a)
            inv = x.inverse()
            assert inv.conductor == n and x * inv == 1, (n, a)
            _assert_normal(inv)


CONJUGATE_CONDUCTORS = [1, 2, 3, 4, 8, 12, 20, 28, 44, 60]


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_conjugate_matches_sympy(n):
    # x(zeta^-1) = sum_k c_k x^(-k mod N) mod Phi_N, as Phi_N | x^N - 1
    rng = random.Random(n)
    for _ in range(20):
        x = Cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(euler_phi(n))])
        terms = {(-k % n,): sympy.Rational(c.numerator, c.denominator)
                 for k, c in enumerate(x.coeffs)}
        expected = sympy.Poly.from_dict(terms, X, domain="QQ").rem(_phi(n))
        conj = x.conjugate()
        assert conj.conductor == n
        assert conj.coeffs == _coords(expected, n), (n, x)
        _assert_normal(conj)


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_conjugate_is_an_involutive_field_automorphism(n):
    rng = random.Random(100 + n)

    def draw():
        return Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(euler_phi(n))])

    for _ in range(10):
        a, b = draw(), draw()
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    for a in range(n):
        assert root_of_unity(n, a).conjugate() == root_of_unity(n, -a)


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_conjugate_keeps_the_conductor_of_a_rational(n):
    for value in (0, 1, Fraction(-7, 3)):
        x = Cyclotomic.from_rational(value, n)
        conj = x.conjugate()
        assert conj.conductor == n
        assert conj._num == x._num and conj._den == x._den
    assert Cyclotomic.zero(n).conjugate().is_zero()


def _units(n):
    return [a for a in range(-n, 2 * n) if math.gcd(a, n) == 1]


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_galois_matches_sympy(n):
    # x(zeta^a) = sum_k c_k x^(ak mod N) mod Phi_N, as Phi_N | x^N - 1
    rng = random.Random(200 + n)
    for a in rng.sample(_units(n), min(6, len(_units(n)))):
        x = Cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(euler_phi(n))])
        terms = {(a * k % n,): sympy.Rational(c.numerator, c.denominator)
                 for k, c in enumerate(x.coeffs)}
        expected = sympy.Poly.from_dict(terms, X, domain="QQ").rem(_phi(n))
        image = x.galois(a)
        assert image.conductor == n
        assert image.coeffs == _coords(expected, n), (n, a, x)
        _assert_normal(image)


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_galois_is_a_field_automorphism_and_composes(n):
    rng = random.Random(300 + n)

    def draw():
        return Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(euler_phi(n))])

    units = _units(n)
    for _ in range(8):
        x, y = draw(), draw()
        a, b = rng.choice(units), rng.choice(units)
        assert (x + y).galois(a) == x.galois(a) + y.galois(a)
        assert (x * y).galois(a) == x.galois(a) * y.galois(a)
        assert x.galois(a).galois(b) == x.galois(a * b)
        assert x.galois(1) == x and x.galois(-1) == x.conjugate()
    for a in units:
        for e in range(n):
            assert root_of_unity(n, e).galois(a) == root_of_unity(n, a * e)


@pytest.mark.parametrize("n", CONJUGATE_CONDUCTORS)
def test_galois_keeps_the_conductor_of_a_rational(n):
    for a in _units(n):
        for value in (0, 1, Fraction(-7, 3)):
            x = Cyclotomic.from_rational(value, n)
            image = x.galois(a)
            assert image.conductor == n
            assert image._num == x._num and image._den == x._den


@pytest.mark.parametrize("n", [4, 6, 12, 60])
def test_galois_refuses_an_exponent_that_is_not_a_unit(n):
    with pytest.raises(ValueError):
        root_of_unity(n).galois(n // 2)


# -- the zero test of Kronecker.values ---------------------------------------


def _scaled_to(poly, bound):
    """poly, each coefficient scaled toward 0 so that ||poly||_1 <= bound."""
    norm = sum(map(abs, poly))
    if norm <= bound:
        return poly
    return [(1 if c > 0 else -1) * (abs(c) * bound // norm) for c in poly]


@st.composite
def packed_sums(draw):
    """(N, a packing, P) with P an integer polynomial of degree below the
    packing's digits and ||P||_1 at most its declared bound: the packing
    holds the one value zeta^(phi - 1), of norm 1, and sums up to `bound`
    products of two of them, so its bound is `bound` and it has
    2 phi - 1 digits.  P is a random polynomial, one exactly at the bound,
    a multiple x^j Phi_N R, or such a multiple plus one monomial."""
    n = draw(st.sampled_from(CONJUGATE_CONDUCTORS))
    phi = euler_phi(n)
    digits = 2 * phi - 1
    shape = draw(st.sampled_from(["random", "at-bound", "multiple",
                                  "multiple-plus-one"]))
    if shape in ("random", "at-bound"):
        width = draw(st.integers(1, 80))       # digit widths past 64 bits
        bound = draw(st.integers(2 ** (width - 1), 2 ** width - 1))
        poly = _scaled_to(draw(st.lists(st.integers(-bound, bound),
                                        min_size=digits, max_size=digits)),
                          bound)
        if shape == "at-bound":
            k = draw(st.integers(0, digits - 1))
            rest = bound - sum(map(abs, poly))
            poly[k] += rest if poly[k] >= 0 else -rest
    else:
        phi_n = list(cyclotomic_polynomial(n))
        room = digits - len(phi_n)              # degrees left for x^j R
        poly = [0] * digits
        if room >= 0:
            j = draw(st.integers(0, room))
            r = draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                              min_size=room - j + 1, max_size=room - j + 1))
            for a, x in enumerate(r):
                for b, y in enumerate(phi_n):
                    poly[j + a + b] += x * y
        if shape == "multiple-plus-one":
            poly[draw(st.integers(0, digits - 1))] += draw(
                st.sampled_from([-1, 1]))
        bound = max(sum(map(abs, poly)), 1) + draw(st.integers(0, 3))
    assert sum(map(abs, poly)) <= bound
    kr = Kronecker.pack(n, {"x": {0: root_of_unity(n, phi - 1)}},
                        [(bound, ("x", "x"))])
    assert kr._digits == digits
    return n, kr, poly


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packed_sums())
def test_the_packed_zero_test_drops_exactly_the_multiples_of_phi_n(case):
    n, kr, poly = case
    expected = sympy.rem(sympy.Poly(poly[::-1], X, domain="ZZ"),
                         sympy.Poly(sympy.cyclotomic_poly(n, X), X))
    coeffs = [int(c) for c in expected.all_coeffs()[::-1]]
    coeffs += [0] * (euler_phi(n) - len(coeffs))
    out = kr.values({"P": kr._pack(poly)})
    if any(coeffs):
        assert out["P"]._num == tuple(coeffs) and out["P"]._den == 1
    else:
        assert out == {}
    assert all(not value.is_zero() for value in out.values())
