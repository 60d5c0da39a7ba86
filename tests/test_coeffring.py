import random
from fractions import Fraction

import pytest

from crepant.coeffring import BaseScalar, accumulate
from crepant.exactnum import root_of_unity

from oracles import (degree, homogeneous_part, is_homogeneous, product,
                     substitute, swap_lm)


def test_k_expands_through_the_relation():
    # (n+1) K = L + M
    for n in (2, 3, 5):
        lhs = BaseScalar.K(n).scale(n + 1)
        assert lhs == BaseScalar.L(n) + BaseScalar.M(n)


def test_commutativity_in_even_degree():
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    assert product(L, M) + product(M, L) == product(L, M).scale(2)


def test_a_scalar_times_a_scalar_is_a_type_error():
    # the library's scalars are linear forms; their product is the oracle's
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    with pytest.raises(TypeError):
        L * M
    assert L * 3 == 3 * L == L.scale(3)


def test_symplectic_substitution_kills_k():
    for n in (2, 4):
        K = BaseScalar.K(n)
        assert substitute(K, {"M": -BaseScalar.L(n)}).is_zero()


def test_identity_substitution():
    L = BaseScalar.L(3)
    assert substitute(L, {}) == L


def test_swap_substitution():
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    x = (L.scale(2) + M.scale(3)).scale(Fraction(1, 3))
    swapped = substitute(x, {"L": M, "M": L})
    assert swapped == (M.scale(2) + L.scale(3)).scale(Fraction(1, 3))
    assert swapped == swap_lm(x)


def test_swap_is_involution_fixing_k():
    for n in (1, 2, 4):
        K = BaseScalar.K(n)
        assert swap_lm(K) == K
        if n >= 2:
            L = BaseScalar.L(n)
            assert swap_lm(swap_lm(L)) == L
            assert swap_lm(L) == BaseScalar.M(n)


def test_rank_one_generator():
    K = BaseScalar.K(1)
    assert degree(K) == 2
    assert degree(product(K, K)) == 4
    with pytest.raises(ValueError):
        BaseScalar.L(1)


def _random_scalar(rng, n):
    monos = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)] if n >= 2 \
        else [(0,), (1,), (2,)]
    terms = {}
    for mono in rng.sample(monos, k=rng.randint(1, 3)):
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return BaseScalar(n, terms)


def test_ring_axioms_on_random_samples():
    rng = random.Random(42)
    for n in (1, 2):
        for _ in range(40):
            a, b, c = (_random_scalar(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert product(product(a, b), c) == product(a, product(b, c))
            assert product(a, b + c) == product(a, b) + product(a, c)
            assert product(a, b) == product(b, a)


def test_degree_additivity_on_homogeneous_elements():
    rng = random.Random(9)
    for _ in range(30):
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        a = homogeneous_part(_random_scalar(rng, 2), 2 * d1)
        b = homogeneous_part(_random_scalar(rng, 2), 2 * d2)
        if a.is_zero() or b.is_zero():
            continue
        assert degree(product(a, b)) == degree(a) + degree(b)


def test_homogeneity_queries():
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    assert is_homogeneous(L + M)
    assert not is_homogeneous(L + BaseScalar.one(2))
    assert homogeneous_part(L + BaseScalar.one(2), 2) == L


def test_cyclotomic_coefficients():
    z3 = root_of_unity(3, 1)
    x = BaseScalar.L(2).scale(z3)
    assert x + x.scale(z3) + x.scale(z3 ** 2) == BaseScalar.zero(2)


def test_json_roundtrip():
    for n in (1, 2):
        x = BaseScalar.K(n) + BaseScalar.const(n, Fraction(7, 3))
        assert BaseScalar.from_json(x.to_json()) == x


def test_a_cancelled_coefficient_restarts_in_the_next_terms_conductor():
    x, y = root_of_unity(12, 1), root_of_unity(5, 2)
    terms = {}
    for value in (x, -x, y):
        accumulate(terms, (1, 0), value)
    assert terms[(1, 0)].conductor == 5
    L = BaseScalar.L(2)
    total = L.scale(x) + (-L.scale(x)) + L.scale(y)
    assert total.coefficient((1, 0)).conductor == 5
    # L M collects x, then -x, then y in that order inside one product
    a = BaseScalar(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    b = BaseScalar(2, {(1, 1): x, (0, 1): -x, (1, 0): y})
    assert product(a, b).coefficient((1, 1)) == y
    assert product(a, b).coefficient((1, 1)).conductor == 5


def test_scale_by_zero_stores_no_terms():
    x = BaseScalar.L(2).scale(root_of_unity(12, 1)) + BaseScalar.one(2)
    for zero in (0, Fraction(0), root_of_unity(12, 1) * 0):
        assert x.scale(zero).terms == {}
        assert (x * zero).terms == {} and (zero * x).terms == {}


def test_no_arithmetic_result_stores_a_zero_coefficient():
    rng = random.Random(5)
    z = root_of_unity(6, 1)
    for n in (1, 2):
        for _ in range(40):
            a, b = _random_scalar(rng, n), _random_scalar(rng, n)
            a = a + a.scale(z)
            results = [a + b, a - b, a - a, a + (-a), product(a, b),
                       product(a, b - b), a.scale(0),
                       a.scale(z) - a.scale(z), product(a - b, a + b),
                       product(a, a) - product(a.scale(-1), a.scale(-1)),
                       swap_lm(a), homogeneous_part(a, 2), substitute(a, {})]
            for r in results:
                assert all(not c.is_zero() for c in r.terms.values())
