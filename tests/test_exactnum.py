import json
import math
import random
import time
from fractions import Fraction

import pytest

from crepant.exactnum import (Cyclotomic, InvalidRoot, branch_sqrt,
                              cyclotomic_polynomial, euler_phi,
                              imaginary_unit, root_of_unity, sqrt_rational)

from oracles import conjugate, descend, power_sqrt_rational


def test_root_of_unity_examples():
    assert root_of_unity(4, 1).coeffs == (Fraction(0), Fraction(1))
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(3, 3) == 1


def test_primitive_cube_roots_sum():
    z3 = root_of_unity(3, 1)
    assert z3 + z3 ** 2 == -1


def test_inverse_roundtrip():
    z3 = root_of_unity(3, 1)
    x = 1 - z3
    assert x * x.inverse() == 1


def test_division_by_zero_pole():
    z3 = root_of_unity(3, 1)
    with pytest.raises(ZeroDivisionError):
        (1 - z3 * z3 ** 2).inverse()  # zeta * zeta^2 = 1


def test_zeta_is_root_of_its_cyclotomic_polynomial():
    for n in range(1, 49):
        z = root_of_unity(n, 1)
        value = Cyclotomic.zero(n)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            value = value + Cyclotomic.from_rational(c, n) * z ** k
        assert value.is_zero(), n


def test_field_axioms_on_random_samples():
    rng = random.Random(20260809)
    conductors = [3, 4, 6, 8, 12]
    for _ in range(60):
        n = rng.choice(conductors)

        def rand_elt():
            return Cyclotomic(n, [Fraction(rng.randint(-4, 4),
                                           rng.randint(1, 3))
                                  for _ in range(euler_phi(n))])

        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_cross_conductor_arithmetic():
    # -1 in conductor 2 interacts exactly with i in conductor 4
    minus_one = root_of_unity(2, 1)
    i = root_of_unity(4, 1)
    assert minus_one * i == -i
    assert (i * i) == minus_one


@pytest.mark.parametrize("rational,other,conductor", [
    (Cyclotomic.from_rational(Fraction(1, 3), 3), root_of_unity(4), 12),
    (Fraction(1, 3), root_of_unity(28) / 2, 28),
    (Cyclotomic.from_rational(Fraction(-5, 7), 4), root_of_unity(28), 28),
    (Cyclotomic.from_rational(2, 12), root_of_unity(12, 5) / 3, 12),
], ids=["3+4", "fraction+28", "4+28", "12+12"])
def test_a_rational_plus_an_irrational_has_the_lcm_conductor(rational, other,
                                                             conductor):
    # a rational of a dividing conductor is added into the constant
    # coordinate; any other pair is lifted to the lcm, in either order
    total = rational + other
    assert total.conductor == conductor
    assert (other + rational).to_json() == total.to_json()
    r = Cyclotomic._coerce(rational, 1)
    assert total.coeffs == tuple(
        x + (r.as_fraction() if i == 0 else 0)
        for i, x in enumerate(other.lift(conductor).coeffs))


def test_lift_then_descend_is_identity():
    rng = random.Random(7)
    for n, m in [(3, 12), (4, 8), (6, 12), (1, 5), (12, 24)]:
        for _ in range(5):
            x = Cyclotomic(n, [Fraction(rng.randint(-3, 3))
                               for _ in range(euler_phi(n))])
            assert descend(x.lift(m), n) == x


def test_descend_rejects_non_members():
    i = root_of_unity(4, 1)
    with pytest.raises(ValueError):
        descend(i, 2)


def test_conjugation():
    z5 = root_of_unity(5, 1)
    assert conjugate(z5) == z5 ** 4
    assert conjugate(z5 + z5 ** 4) == z5 + z5 ** 4  # real element


def test_rational_detection():
    z3 = root_of_unity(3, 1)
    x = z3 + z3 ** 2  # equals -1
    assert x.is_rational() and x.as_fraction() == -1
    with pytest.raises(ValueError):
        z3.as_fraction()


def test_json_roundtrip():
    z12 = root_of_unity(12, 5)
    x = z12 / 3 + Fraction(1, 2)
    assert Cyclotomic.from_json(x.to_json()) == x


@pytest.mark.parametrize("data", [
    {"conductor": 5, "coeffs": "1234"},
    {"conductor": 1, "coeffs": [2.5]},
    {"conductor": 1, "coeffs": ["2.5"]},
    {"conductor": 1, "coeffs": ["1e9999"]},
    {"conductor": 1, "coeffs": [True]},
    {"conductor": 1, "coeffs": ["1/0"]},
    {"conductor": 4, "coeffs": ("1", "0")},
    {"conductor": 8.0, "coeffs": ["1", "0", "0", "0"]},
    {"conductor": True, "coeffs": ["1"]},
], ids=["string-coeffs", "float-coordinate", "decimal-string", "exponent",
        "bool-coordinate", "zero-denominator", "tuple-coeffs",
        "float-conductor", "bool-conductor"])
def test_from_json_refuses_inexact_or_mistyped_input(data):
    with pytest.raises(ValueError):
        Cyclotomic.from_json(data)


def test_from_json_reads_ints_and_fraction_strings():
    x = Cyclotomic.from_json({"conductor": 4, "coeffs": [-1, "+3/4"]})
    assert x == Cyclotomic(4, [-1, Fraction(3, 4)])


# -- branch-resolved square roots -------------------------------------------


def test_branch_sqrt_paper_branch_a1():
    # m = 1 fails 0 < m < (n+1)/2 = 1, so the "otherwise" sign applies
    assert branch_sqrt(1, 1, 1) == -2 * imaginary_unit(8)


def test_branch_sqrt_a2_both_roots():
    i12 = imaginary_unit(12)
    sqrt3 = sqrt_rational(3, 12)
    assert branch_sqrt(2, 1, 1) == i12 * sqrt3
    assert branch_sqrt(2, 2, 1) == -i12 * sqrt3


def test_branch_sqrt_square_identity():
    for n in range(1, 16):
        np1 = n + 1
        i_unit = imaginary_unit(4 * np1)
        for m in range(1, 2 * np1):
            if math.gcd(m, np1) != 1:
                continue
            zeta = root_of_unity(4 * np1, 4 * m)
            upper = 0 < m % np1 < np1 / 2
            for k in range(1, n + 1):
                v = branch_sqrt(n, m, k)
                # zeta^-k = zeta^(n+1-k), without a Bareiss inverse per k
                assert v * v == zeta ** k + zeta ** (np1 - k) - 2, (n, m, k)
                # the branch is +i|v| on the upper roots, -i|v| otherwise
                real = -i_unit * v
                assert conjugate(real) == real, (n, m, k)
                assert (real.to_complex().real > 0) == upper, (n, m, k)


def test_branch_sqrt_rejects_imprimitive():
    with pytest.raises(InvalidRoot):
        branch_sqrt(3, 2, 1)  # gcd(2, 4) != 1


def test_sqrt_rational():
    assert sqrt_rational(4, 1) == 2
    assert sqrt_rational(Fraction(9, 4), 1) == Fraction(3, 2)
    for value, conductor in [(4, 1), (Fraction(9, 4), 1), (2, 8), (3, 12),
                             (27, 12), (5, 20), (Fraction(3, 4), 12), (6, 24),
                             (7, 28), (11, 44), (13, 52)]:
        root = sqrt_rational(value, conductor)
        assert root * root == Fraction(value)
        assert (json.dumps(root.to_json()) == json.dumps(
            power_sqrt_rational(value, conductor).to_json())), value
    with pytest.raises(ValueError):
        sqrt_rational(3, 8)  # sqrt(3) is not in Q(zeta_8)
    with pytest.raises(ValueError):
        sqrt_rational(-1, 4)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(0.1)
    with pytest.raises(TypeError):
        Cyclotomic.from_rational(0.5, 4)
    with pytest.raises(TypeError):
        Cyclotomic(4, [0.5, 0])
    with pytest.raises(TypeError):
        Cyclotomic(1, [1.0])
    with pytest.raises(TypeError):
        root_of_unity(4, 1) * 0.5
    with pytest.raises(TypeError):
        0.5 + root_of_unity(4, 1)
    assert Cyclotomic(4, [1, Fraction(1, 2)]).coeffs == (1, Fraction(1, 2))


def test_immutable_and_validated():
    z = root_of_unity(12, 1)
    with pytest.raises(AttributeError):
        z.conductor = 3
    with pytest.raises(AttributeError):
        z.coeffs = ()
    with pytest.raises(ValueError):
        Cyclotomic(12, [1, 2, 3])
    with pytest.raises(ValueError):
        Cyclotomic(0, [])


def test_oversized_conductor_is_refused_before_factorising():
    # 2^61 - 1 is prime: trial division up to its square root takes hours
    start = time.perf_counter()
    with pytest.raises(ValueError, match="wrong length"):
        Cyclotomic(2 ** 61 - 1, [1])
    with pytest.raises(ValueError, match="wrong length"):
        Cyclotomic.from_json({"conductor": 2 ** 61 - 1, "coeffs": ["1"]})
    assert time.perf_counter() - start < 1
    # phi(N) >= sqrt(N/2) holds with equality at N = 2, still accepted
    assert Cyclotomic(2, [-1]) == root_of_unity(2, 1)
