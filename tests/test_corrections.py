import itertools
import random
from fractions import Fraction

import pytest

from crepant import corrections
from crepant.corrections import (CorrectionFunction, DeltaIndex, PoleError,
                                 cache_deltas, delta_eval)
from crepant.coeffring import BaseScalar
from crepant.exactnum import Cyclotomic, root_of_unity
from crepant.tables import (KIND_QUANTUM, ExcClass, ProductTable, QCoeff,
                            qc_eval, qc_table)

from oracles import cartan_build, correction_eval
from oracles import row_sum_pairing as beta_pairing


def r_function(n, i, j, m, cd):
    """Oracle: the structure function
    sum_{mu <= nu} (E_i.b)(E_j.b)(E_m.b) delta_{mu nu}, b = beta_{mu nu}.

    Fully symmetric in (i, j, m); it has no constant term, which is exactly
    the statement that corrections vanish in the q -> 0 limit.
    """
    terms = {}
    for mu in range(1, n + 1):
        for nu in range(mu, n + 1):
            terms[DeltaIndex(mu, nu)] = (beta_pairing(cd, i, mu, nu)
                                         * beta_pairing(cd, j, mu, nu)
                                         * beta_pairing(cd, m, mu, nu))
    return CorrectionFunction(n, terms)


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
    f = CorrectionFunction(1, {DeltaIndex(1, 1): 4})
    assert (2 + correction_eval(f, _q(-1))).is_zero()


def test_zero_function_evaluates_to_zero():
    f = CorrectionFunction(2)
    assert correction_eval(f, _q(5, -3)).is_zero()


def test_correction_eval_by_direct_substitution():
    z3 = root_of_unity(3, 1)
    f = CorrectionFunction(2, {DeltaIndex(1, 1): 1, DeltaIndex(2, 2): 1,
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
            f = CorrectionFunction(n, terms)
            exact = (const + correction_eval(f, _q(*q))).to_complex()
            approx = complex(const)
            for (mu, nu), coeff in terms.items():
                prod = 1.0
                for x in q[mu - 1:nu]:
                    prod *= float(x)
                approx += coeff * sum(prod ** a for a in range(1, 51))
            assert abs(exact - approx) < 1e-9


def test_pole_propagates_with_index():
    f = CorrectionFunction(2, {DeltaIndex(1, 2): 5})
    with pytest.raises(PoleError) as err:
        correction_eval(f, _q(-1, -1))
    assert err.value.index == DeltaIndex(1, 2)


def test_correction_eval_reads_and_fills_the_delta_cache(monkeypatch):
    import crepant.corrections as corrections

    calls = []
    original = corrections._delta

    def counting(idx, prod):
        calls.append(idx)
        return original(idx, prod)

    monkeypatch.setattr(corrections, "_delta", counting)
    z3 = root_of_unity(3, 1)
    f = CorrectionFunction(2, {DeltaIndex(1, 1): 1, DeltaIndex(1, 2): 1})
    g = CorrectionFunction(2, {DeltaIndex(1, 2): 2, DeltaIndex(2, 2): 1})
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
    # the other keys are the products' normal forms (conductor, numerators,
    # denominator), and each index's product under ("product", index)
    z9 = z3 * z3
    indices = sorted(k for k in deltas if isinstance(k, DeltaIndex))
    assert {k for k in deltas if not isinstance(k, DeltaIndex)} == {
        (3, z3._num, z3._den), (3, z9._num, z9._den),
        *(("product", idx) for idx in indices)}
    assert [deltas["product", idx] for idx in indices] == [z3, z9, z3]


def _walk_failure(table, q):
    """The first error a term-by-term walk of the table raises at q,
    uncached: the pole's (index, entry), or "zero" for a zero q entry."""
    for key in table.pairs():
        for coeff in table.entry(*key).e:
            for idx in sorted(coeff.corr.terms):
                try:
                    delta_eval(idx, q)
                except PoleError as exc:
                    return tuple(exc.index), key
                except ValueError:
                    return "zero"
    return None


def _qc_eval_failure(table, q):
    try:
        qc_eval(table, q)
    except PoleError as exc:
        return tuple(exc.index), exc.entry
    except ValueError:
        return "zero"
    return None


POINT_VALUES = [0, 1, -1, Fraction(1, 2), 2, root_of_unity(4, 1),
                root_of_unity(3, 1)]


@pytest.mark.parametrize("n", range(1, 6))
def test_the_cached_walk_fails_where_an_uncached_walk_does(n):
    # the running products must raise the first pole, and the error for
    # a zero q entry, at the index where delta_eval met them one by one
    table = qc_table(n)
    points = list(itertools.product(POINT_VALUES, repeat=min(n, 3)))
    rng = random.Random(n)
    if n > 3:
        points = [tuple(rng.choice(POINT_VALUES) for _ in range(n))
                  for _ in range(150)]
    failures = set()
    for point in points:
        q = _q(*point)
        failure = _walk_failure(table, q)
        assert _qc_eval_failure(table, q) == failure, point
        failures.add(failure if failure in (None, "zero") else "pole")
    assert failures == {None, "zero", "pole"}


def test_a_pole_met_beside_cached_indices_raises_where_it_is_first_met():
    # the pole delta_12 first appears in entry (1, 2), in a coefficient
    # whose other index, delta_11, entry (1, 1) has cached already: the
    # shortcut for fully cached corrections must not skip it
    n, zero = 2, BaseScalar.zero(2)

    def coeff(*indices):
        return QCoeff(zero, CorrectionFunction(n, dict.fromkeys(indices, 1)))

    d11, d12 = DeltaIndex(1, 1), DeltaIndex(1, 2)
    table = ProductTable(n, KIND_QUANTUM, {
        (1, 1): ExcClass(n, zero, (coeff(d11), coeff())),
        (1, 2): ExcClass(n, zero, (coeff(), coeff(d11, d12))),
        (2, 2): ExcClass(n, zero, (coeff(d12), coeff()))})
    q = _q(Fraction(1, 2), 2)
    assert _walk_failure(table, q) == ((1, 2), (1, 2))
    assert _qc_eval_failure(table, q) == ((1, 2), (1, 2))
    deltas = {}
    cache_deltas(CorrectionFunction(n, {d11: 1}), q, deltas)
    cached = dict(deltas)
    cache_deltas(CorrectionFunction(n, {d11: 3}), q, deltas)
    assert deltas == cached
    with pytest.raises(PoleError) as err:
        cache_deltas(CorrectionFunction(n, {d11: 1, d12: 1}), q, deltas)
    assert err.value.index == d12


@pytest.mark.parametrize("q", [
    [root_of_unity(3, 1), root_of_unity(5, 1)],
    [root_of_unity(60, 20), root_of_unity(60, 12)],       # e:1/3,e:1/5
    [root_of_unity(3, 1), Cyclotomic.from_rational(2), root_of_unity(5, 2),
     root_of_unity(4, 1)],
], ids=["own-conductors", "lifted", "with-a-rational"])
def test_cached_deltas_keep_each_index_s_own_conductor(q):
    # a running product (q_mu...q_{nu-1}) q_nu must land at the conductor
    # of the one-by-one product, so the shared values keep theirs
    table, deltas = qc_table(len(q)), {}
    for key in table.pairs():
        for coeff in table.entry(*key).e:
            cache_deltas(coeff.corr, q, deltas)
    indices = [k for k in deltas if isinstance(k, DeltaIndex)]
    assert len(indices) == len(q) * (len(q) + 1) // 2
    for idx in indices:
        alone = delta_eval(idx, q)
        cached = deltas[idx]
        assert (cached.conductor, cached._num, cached._den) == (
            alone.conductor, alone._num, alone._den)


@pytest.mark.parametrize("n", range(1, 11))
def test_cache_deltas_forms_one_product_per_index_at_equal_q(
        n, monkeypatch):
    table, deltas = qc_table(n), {}
    q = [root_of_unity(4 * (n + 1), 4)] * n
    products, calls, inside = [], [], []
    multiply, evaluate = Cyclotomic.__mul__, corrections._delta

    def counting_mul(a, b):
        if not inside:                  # not one of _delta's own
            products.append((a, b))
        return multiply(a, b)

    def counting_delta(idx, prod):
        calls.append(idx)
        inside.append(idx)
        try:
            return evaluate(idx, prod)
        finally:
            inside.pop()

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(corrections, "_delta", counting_delta)
    for key in table.pairs():
        for coeff in table.entry(*key).e:
            cache_deltas(coeff.corr, q, deltas)
    assert len(products) <= n * (n + 1) // 2
    # one _delta per distinct product q^1, ..., q^n
    assert len(calls) == n


def test_r_function_rank_one():
    cd = cartan_build(1)
    assert r_function(1, 1, 1, 1, cd) == \
        CorrectionFunction(1, {DeltaIndex(1, 1): -8})


def test_r_function_rank_two_diagonal():
    cd = cartan_build(2)
    assert r_function(2, 1, 1, 1, cd) == CorrectionFunction(
        2, {DeltaIndex(1, 1): -8, DeltaIndex(2, 2): 1, DeltaIndex(1, 2): -1})


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
                CorrectionFunction(n, expected)


def test_r_function_total_symmetry():
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            base = r_function(n, i, j, m, cd)
            for perm in itertools.permutations((i, j, m)):
                assert r_function(n, *perm, cd) == base


def test_r_function_constant_term_vanishes():
    # a correction stores no constant; its JSON writes the constant zero
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            doc = r_function(n, i, j, m, cd).to_json()
            assert Cyclotomic.from_json(doc["constant"]).is_zero()


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
                    # the contraction's weights are integers
                    assert all(c.denominator == 1
                               for c in expected.values())
                    assert table.entry(i, j).e[l].corr == CorrectionFunction(
                        n, {idx: int(c) for idx, c in expected.items()})


def test_correction_equality_is_coefficientwise():
    a = CorrectionFunction(2, {DeltaIndex(1, 1): 2})
    b = CorrectionFunction(2, {DeltaIndex(1, 1): 2, DeltaIndex(2, 2): 0})
    c = CorrectionFunction(2, {DeltaIndex(2, 2): 2})
    assert a == b
    assert a != c


def test_json_roundtrip():
    f = CorrectionFunction(2, {DeltaIndex(1, 2): -3, DeltaIndex(1, 1): 1})
    assert CorrectionFunction.from_json(f.to_json(), 2) == f


def test_json_writes_a_zero_constant_and_conductor_one_weights():
    f = CorrectionFunction(2, {DeltaIndex(1, 2): -3})
    assert f.to_json() == {
        "constant": {"conductor": 1, "coeffs": ["0"]},
        "terms": [{"mu": 1, "nu": 2,
                   "coeff": {"conductor": 1, "coeffs": ["-3"]}}]}


@pytest.mark.parametrize("weight", [
    Fraction(1, 2), Fraction(2), Cyclotomic.from_rational(2),
    root_of_unity(3, 1), 2.0, True])
def test_a_weight_that_is_not_an_int_is_refused(weight):
    with pytest.raises(ValueError):
        CorrectionFunction(2, {DeltaIndex(1, 2): weight})
