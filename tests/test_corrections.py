import itertools
import random
from fractions import Fraction

import pytest

from crepant.corrections import (CorrectionFunction, DeltaIndex, PoleError,
                                 correction_eval, delta_eval)
from crepant.exactnum import Cyclotomic, root_of_unity
from crepant.ringtables import qc_table

from oracles import cartan_build, row_sum_pairing as beta_pairing


def r_function(n, i, j, m, cd):
    """Oracle: the structure function
    sum_{mu <= nu} (E_i.b)(E_j.b)(E_m.b) delta_{mu nu}, b = beta_{mu nu}.

    Fully symmetric in (i, j, m); its constant term is always zero, which is
    exactly the statement that corrections vanish in the q -> 0 limit.
    """
    terms = {}
    for mu in range(1, n + 1):
        for nu in range(mu, n + 1):
            terms[DeltaIndex(mu, nu)] = (beta_pairing(cd, i, mu, nu)
                                         * beta_pairing(cd, j, mu, nu)
                                         * beta_pairing(cd, m, mu, nu))
    return CorrectionFunction(n, 0, terms)


def _q(*values):
    return [v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)
            for v in values]


def test_delta_at_minus_one():
    assert delta_eval(DeltaIndex(1, 1), _q(-1)) == Fraction(-1, 2)


def test_delta_pole_at_product_one():
    with pytest.raises(PoleError) as err:
        delta_eval(DeltaIndex(1, 2), _q(-1, -1))
    assert err.value.index == DeltaIndex(1, 2)


def test_delta_at_cube_roots():
    z3 = root_of_unity(3, 1)
    assert delta_eval(DeltaIndex(1, 2), _q(z3, z3)) == z3 ** 2 / (1 - z3 ** 2)


def test_delta_rejects_zero_entries():
    with pytest.raises(ValueError):
        delta_eval(DeltaIndex(1, 1), _q(0))


def test_correction_eval_a1_correction_vanishes_at_minus_one():
    # the corrected coefficient 2 + 4 q/(1-q) vanishes at q = -1
    f = CorrectionFunction(1, 2, {DeltaIndex(1, 1): 4})
    assert correction_eval(f, _q(-1)).is_zero()


def test_zero_function_evaluates_to_zero():
    f = CorrectionFunction(2)
    assert correction_eval(f, _q(5, -3)).is_zero()


def test_correction_eval_by_direct_substitution():
    z3 = root_of_unity(3, 1)
    f = CorrectionFunction(2, 0, {DeltaIndex(1, 1): 1, DeltaIndex(2, 2): 1,
                                  DeltaIndex(1, 2): 1})
    expected = 2 * z3 / (1 - z3) + z3 ** 2 / (1 - z3 ** 2)
    assert correction_eval(f, _q(z3, z3)) == expected


def test_correction_eval_against_truncated_series_oracle():
    # Independent numeric oracle: the geometric series summed to a <= 50 in
    # complex doubles; valid to 1e-9 whenever every |q_mu...q_nu| <= 1/2.
    rng = random.Random(123)
    for n in (1, 2, 3):
        for _ in range(10):
            q = [Fraction(rng.choice([-1, 1]), rng.randint(2, 5))
                 for _ in range(n)]
            terms = {}
            for mu in range(1, n + 1):
                for nu in range(mu, n + 1):
                    terms[DeltaIndex(mu, nu)] = rng.randint(-3, 3)
            const = rng.randint(-2, 2)
            f = CorrectionFunction(n, const, terms)
            exact = correction_eval(f, _q(*q)).to_complex()
            approx = complex(const)
            for (mu, nu), coeff in terms.items():
                prod = 1.0
                for x in q[mu - 1:nu]:
                    prod *= float(x)
                approx += coeff * sum(prod ** a for a in range(1, 51))
            assert abs(exact - approx) < 1e-9


def test_pole_propagates_with_index():
    f = CorrectionFunction(2, 1, {DeltaIndex(1, 2): 5})
    with pytest.raises(PoleError) as err:
        correction_eval(f, _q(-1, -1))
    assert err.value.index == DeltaIndex(1, 2)


def test_correction_eval_reads_and_fills_the_delta_cache(monkeypatch):
    import crepant.corrections as corrections

    calls = []

    def counting(idx, q):
        calls.append(idx)
        return delta_eval(idx, q)

    monkeypatch.setattr(corrections, "delta_eval", counting)
    z3 = root_of_unity(3, 1)
    f = CorrectionFunction(2, 0, {DeltaIndex(1, 1): 1, DeltaIndex(1, 2): 1})
    g = CorrectionFunction(2, 0, {DeltaIndex(1, 2): 2, DeltaIndex(2, 2): 1})
    deltas = {}
    assert correction_eval(f, _q(z3, z3), deltas) == correction_eval(
        f, _q(z3, z3))
    correction_eval(g, _q(z3, z3), deltas)
    # the cached pass computes each distinct product's delta once, so
    # delta_22 (product z3) shares delta_11's value; the uncached pass
    # computes its two again
    assert calls == [DeltaIndex(1, 1), DeltaIndex(1, 2), DeltaIndex(1, 1),
                     DeltaIndex(1, 2)]
    assert sorted(k for k in deltas if isinstance(k, DeltaIndex)) == [
        DeltaIndex(1, 1), DeltaIndex(1, 2), DeltaIndex(2, 2)]
    assert deltas[DeltaIndex(2, 2)] is deltas[DeltaIndex(1, 1)]
    # the other keys are the exact products, conductor and coordinates
    assert {k for k in deltas if not isinstance(k, DeltaIndex)} == {
        (3, z3.coeffs), (3, (z3 * z3).coeffs)}


def test_r_function_rank_one():
    cd = cartan_build(1)
    assert r_function(1, 1, 1, 1, cd) == \
        CorrectionFunction(1, 0, {DeltaIndex(1, 1): -8})


def test_r_function_rank_two_diagonal():
    cd = cartan_build(2)
    assert r_function(2, 1, 1, 1, cd) == CorrectionFunction(
        2, 0, {DeltaIndex(1, 1): -8, DeltaIndex(2, 2): 1,
               DeltaIndex(1, 2): -1})


def _pairing_oracle(n, i, mu, nu):
    # case analysis, independent of the Cartan row-sum implementation
    if i == mu == nu:
        return -2
    if i in (mu, nu) and mu < nu:
        return -1
    if i in (mu - 1, nu + 1):
        return 1
    return 0


def test_r_function_against_enumeration_oracle():
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            expected = {}
            for mu in range(1, n + 1):
                for nu in range(mu, n + 1):
                    w = (_pairing_oracle(n, i, mu, nu)
                         * _pairing_oracle(n, j, mu, nu)
                         * _pairing_oracle(n, m, mu, nu))
                    if w:
                        expected[DeltaIndex(mu, nu)] = w
            assert r_function(n, i, j, m, cd) == \
                CorrectionFunction(n, 0, expected)


def test_r_function_total_symmetry():
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            base = r_function(n, i, j, m, cd)
            for perm in itertools.permutations((i, j, m)):
                assert r_function(n, *perm, cd) == base


def test_r_function_constant_term_vanishes():
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            assert r_function(n, i, j, m, cd).constant.is_zero()


def test_qc_table_corrections_are_the_cartan_contraction_of_r():
    # the closed form sum_{mu <= l <= nu} (E_i.b)(E_j.b) delta_{mu nu} used
    # by qc_table equals sum_m (c^-1)_{lm} R_{ijm}
    for n in range(1, 11):
        cd = cartan_build(n)
        table = qc_table(n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                r = [r_function(n, i, j, m, cd) for m in range(1, n + 1)]
                for l in range(n):
                    expected = {}
                    for m in range(n):
                        for idx, c in r[m].terms.items():
                            expected[idx] = (expected.get(idx, 0)
                                             + c * cd.c_inv[l][m])
                    assert table.entry(i, j).e[l].corr == \
                        CorrectionFunction(n, 0, expected)


def test_correction_equality_is_coefficientwise():
    a = CorrectionFunction(2, 1, {DeltaIndex(1, 1): 2})
    b = CorrectionFunction(2, 1, {DeltaIndex(1, 1): 2, DeltaIndex(2, 2): 0})
    c = CorrectionFunction(2, 1, {DeltaIndex(2, 2): 2})
    assert a == b
    assert a != c


def test_json_roundtrip():
    f = CorrectionFunction(2, Fraction(1, 3),
                           {DeltaIndex(1, 2): root_of_unity(3, 1)})
    assert CorrectionFunction.from_json(f.to_json(), 2) == f
