from fractions import Fraction

import pytest

import crepant
from oracles import cartan_build, row_sum_pairing as beta_pairing


def closed_form(n, l, m):
    # -min(l, m) (n + 1 - max(l, m)) / (n + 1), indices 1-based
    return Fraction(-min(l, m) * (n + 1 - max(l, m)), n + 1)


def test_rank_one():
    cd = cartan_build(1)
    assert cd.c == ((-2,),)
    assert cd.c_inv == ((Fraction(-1, 2),),)


def test_rank_two_inverse_by_hand():
    cd = cartan_build(2)
    third = Fraction(1, 3)
    assert cd.c_inv == ((-2 * third, -third), (-third, -2 * third))


def test_closed_form_inverse():
    for n in range(1, 13):
        cd = cartan_build(n)
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                assert cd.c_inv[l - 1][m - 1] == closed_form(n, l, m)


def test_inverse_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    for n in (1, 2, 3, 5, 8, 12):
        cd = cartan_build(n)
        oracle = sympy.Matrix(cd.c).inv()
        for i in range(n):
            for j in range(n):
                assert Fraction(str(oracle[i, j])) == cd.c_inv[i][j]


def test_product_is_identity():
    for n in range(1, 13):
        cd = cartan_build(n)
        for i in range(n):
            for j in range(n):
                entry = sum(Fraction(cd.c[i][k]) * cd.c_inv[k][j]
                            for k in range(n))
                assert entry == (1 if i == j else 0)


def test_symmetry_and_negative_definiteness():
    import copy

    for n in range(1, 9):
        cd = cartan_build(n)
        assert all(cd.c[i][j] == cd.c[j][i]
                   for i in range(n) for j in range(n))
        # leading principal minors alternate sign: det c_k = (-1)^k (k+1)
        for k in range(1, n + 1):
            rows = [list(map(Fraction, row[:k])) for row in cd.c[:k]]
            det = _det(copy.deepcopy(rows))
            assert det == (-1) ** k * (k + 1)


def _det(rows):
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def test_beta_pairing_examples():
    cd = cartan_build(2)
    assert beta_pairing(cd, 1, 1, 1) == -2
    assert beta_pairing(cd, 1, 1, 2) == -1
    assert beta_pairing(cartan_build(5), 3, 2, 4) == 0


def test_beta_pairing_case_rule_by_exhaustion():
    # independent oracle: the case analysis of the pairing values
    for n in range(1, 7):
        cd = cartan_build(n)
        for i in range(1, n + 1):
            for mu in range(1, n + 1):
                for nu in range(mu, n + 1):
                    if i == mu == nu:
                        expected = -2
                    elif i in (mu, nu) and mu < nu:
                        expected = -1
                    elif i in (mu - 1, nu + 1):
                        expected = 1
                    else:
                        expected = 0
                    assert beta_pairing(cd, i, mu, nu) == expected, \
                        (n, i, mu, nu)


def test_index_validation():
    cd = cartan_build(3)
    with pytest.raises(ValueError):
        beta_pairing(cd, 0, 1, 1)
    with pytest.raises(ValueError):
        beta_pairing(cd, 1, 2, 1)


def test_closed_form_pairing_matches_case_rule_and_row_sums():
    for n in range(1, 25):
        cd = cartan_build(n)
        for i in range(1, n + 1):
            for mu in range(1, n + 1):
                for nu in range(mu, n + 1):
                    if i == mu == nu:
                        expected = -2
                    elif i in (mu, nu):
                        expected = -1
                    elif i in (mu - 1, nu + 1):
                        expected = 1
                    else:
                        expected = 0
                    closed = crepant.beta_pairing(n, i, mu, nu)
                    assert closed == expected == beta_pairing(cd, i, mu, nu), \
                        (n, i, mu, nu)


@pytest.mark.parametrize("args", [(3, 0, 1, 1), (3, 4, 1, 1), (3, 1, 2, 1),
                                  (3, 1, 0, 1), (3, 1, 1, 4), (0, 1, 1, 1)])
def test_closed_form_pairing_index_validation(args):
    with pytest.raises(ValueError, match="index out of range"):
        crepant.beta_pairing(*args)
