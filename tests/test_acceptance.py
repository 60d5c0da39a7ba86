"""Acceptance suite: one test per criterion, an exact check each.

Every assertion is literal equality in exact arithmetic.  Run with

    pytest -s tests/test_acceptance.py

to see one PASS line per criterion.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest
from clirunner import CliRunner

from crepant.cli import main
from crepant.coeffring import BaseScalar
from crepant.corrections import CorrectionFunction, DeltaIndex, PoleError
from crepant.exactnum import (Cyclotomic, branch_sqrt, imaginary_unit,
                              root_of_unity, sqrt_rational)
from crepant.isocheck import conjecture_scan, solve_a2
from crepant.maps import LinearMap, bgp_map, chtd_map
from crepant.mckay import an_mckay
from crepant.resolve import resolve_an
from crepant.tables import cr_table, cup_table, qc_eval, qc_table
from crepant.transport import transport_check

from oracles import (cartan_build, degrees, is_homogeneous, strip_corrections,
                     substitute)

D11, D22, D12 = DeltaIndex(1, 1), DeltaIndex(2, 2), DeltaIndex(1, 2)


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_01_a1_verification():
    result = CliRunner().invoke(
        main, ["verify", "--n", "1", "--map", "bgp:1", "--q", "e:1/2"])
    assert result.exit_code == 0
    lmap = LinearMap(1, ((-2 * imaginary_unit(8),),))
    source = qc_eval(qc_table(1), [Cyclotomic.from_rational(-1)])
    assert transport_check(lmap, source).passed
    _report(1, "rank-1 verification at q = -1, CLI and E -> -2i e")


def test_criterion_02_a2_reproduction():
    solutions = solve_a2()
    sqrt3 = sqrt_rational(3, 12)
    z12 = root_of_unity(12, 1)
    z3 = root_of_unity(3, 1)
    assert [(s.a, s.b, s.q1, s.q2) for s in solutions] == [
        (sqrt3 * z12 ** 7, sqrt3 * z12 ** 11, z3, z3),
        (sqrt3 * z12 ** 5, sqrt3 * z12, z3 ** 2, z3 ** 2),
    ]
    qct = qc_table(2)
    for s in solutions:
        assert transport_check(s.lmap, qc_eval(qct, [s.q1, s.q2])).passed
    _report(2, "both rank-2 solution tuples recovered and verified")


def test_criterion_03_conjecture_map_consistency():
    sqrt3 = sqrt_rational(3, 12)
    z12 = root_of_unity(12, 1)
    a, b = sqrt3 * z12 ** 7, sqrt3 * z12 ** 11
    assert bgp_map(2, 1).matrix == ((a, b), (b, a))
    assert bgp_map(2, 1).matrix == solve_a2()[0].lmap.matrix
    _report(3, "conjectured map at m=1 equals the first solution matrix")


def test_criterion_04_rank_two_table_fidelity():
    """Golden check of the symbolic rank-2 quantum table, coefficient by
    coefficient after expanding L, M and the deltas into the internal
    basis."""
    table = qc_table(2)
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    third = Fraction(1, 3)
    # per entry: s-part, then per generator the delta terms shared by the
    # L- and M-multipliers and the two cup constants (times 1/3)
    golden_entries = {
        (1, 1): (BaseScalar.const(2, -2), [
            ({D11: 4, D12: 1}, 2, {D11: 4, D12: 1}, 3),
            ({D22: 1, D12: 1}, 0, {D22: 1, D12: 1}, 2),
        ]),
        (1, 2): (BaseScalar.one(2), [
            ({D11: -2, D12: 1}, -1, {D11: -2, D12: 1}, 0),
            ({D22: -2, D12: 1}, 0, {D22: -2, D12: 1}, -1),
        ]),
        (2, 2): (BaseScalar.const(2, -2), [
            ({D11: 1, D12: 1}, 2, {D11: 1, D12: 1}, 0),
            ({D22: 4, D12: 1}, 3, {D22: 4, D12: 1}, 2),
        ]),
    }
    for key, (s_coeff, rows) in golden_entries.items():
        entry = table.entry(*key)
        assert entry.s == s_coeff
        for l, (dl, cl, dm, cm) in enumerate(rows):
            got = entry.e[l]
            # cup part: (cl L + cm M)/3; correction multiplies K = (L+M)/3
            assert got.cup == (L.scale(cl) + M.scale(cm)).scale(third)
            assert got.corr == CorrectionFunction(2, dl)
            assert got.corr == CorrectionFunction(2, dm)
            assert got.to_json()["mult"] == BaseScalar.K(2).to_json()
    _report(4, "rank-2 symbolic table matches the worked display exactly")


def test_criterion_05_pole_behavior():
    with pytest.raises(PoleError) as err:
        qc_eval(qc_table(2), [Cyclotomic.from_rational(-1)] * 2)
    assert err.value.index == D12
    evaluated = qc_eval(qc_table(1), [Cyclotomic.from_rational(-1)])
    assert evaluated.entry(1, 1).s == BaseScalar.const(1, -2)
    _report(5, "rank 2 poles at q = (-1,-1) on delta_12; rank 1 evaluates")


def test_criterion_06_degenerations():
    for n in range(1, 7):
        assert strip_corrections(qc_table(n)) == cup_table(n)
        sub = {"K": BaseScalar.zero(1)} if n == 1 \
            else {"M": -BaseScalar.L(n)}
        qs = substitute(qc_table(n), sub)
        cs = substitute(cup_table(n), sub)
        for key in qs.pairs():
            entry = qs.entry(*key)
            assert entry.s == cs.entry(*key).s
            for l in range(n):
                assert substitute(BaseScalar.K(n), sub).is_zero()
                assert entry.e[l].cup == cs.entry(*key).e[l]
    _report(6, "q -> 0 strip and symplectic substitution, n = 1..6")


def test_criterion_07_cup_table_cross_check():
    table = cup_table(2)
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    third = Fraction(1, 3)
    assert table.entry(1, 1).e[0] == (L.scale(2) + M.scale(3)).scale(third)
    assert table.entry(1, 1).e[1] == M.scale(2).scale(third)
    assert table == strip_corrections(qc_table(2))
    _report(7, "cup table equals the delta -> 0 specialization")


def test_criterion_08_cartan_closed_form():
    for n in range(1, 13):
        cd = cartan_build(n)
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                expected = Fraction(-min(l, m) * (n + 1 - max(l, m)), n + 1)
                assert cd.c_inv[l - 1][m - 1] == expected
        for i in range(n):
            for j in range(n):
                prod = sum(Fraction(cd.c[i][k]) * cd.c_inv[k][j]
                           for k in range(n))
                assert prod == (1 if i == j else 0)
    _report(8, "inverse Cartan closed form, n <= 12, against the identity")


def test_criterion_09_mckay_correspondence():
    for n in range(1, 11):
        graph = resolve_an(n)
        assert graph.adjacency() == an_mckay(n).adjacency
        assert graph.rounds == math.ceil(n / 2)
    _report(9, "resolution graph = McKay graph (n <= 10), depth = ceil(n/2)")


def test_criterion_10_chtd_map_is_not_an_isomorphism():
    z3 = root_of_unity(3, 1)
    qct = qc_table(2)
    for q in ([z3, z3], [z3 ** 2, z3 ** 2]):
        report = transport_check(chtd_map(2), qc_eval(qct, q))
        assert not report.passed
        assert report.failures()
    _report(10, "Chern/Todd map fails transport at both solution q-points")


def test_criterion_11_structural_property_suite():
    # table symmetry and degree homogeneity, n <= 6
    for n in range(1, 7):
        crt, cupt, qct = cr_table(n), cup_table(n), qc_table(n)
        for table in (crt, cupt, qct):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert table.entry(i, j) is table.entry(j, i)
        for table in (crt, cupt):
            for key in table.pairs():
                assert degrees(table.entry(*key).s) <= {0}
                for c in table.entry(*key).e:
                    assert degrees(c) <= {0, 2} and is_homogeneous(c)
    # relabeling involution, n <= 4 (semilinear: swap L/M and reflect deltas)
    from test_corrections import r_function
    from test_ringtables import _involute_entry
    for n in range(1, 5):
        for table in (cr_table(n), cup_table(n), qc_table(n)):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert _involute_entry(table.entry(i, j), n) == \
                        table.entry(n + 1 - i, n + 1 - j)
    # R_{ijm} total symmetry, n <= 5
    for n in range(1, 6):
        cd = cartan_build(n)
        for i, j, m in itertools.product(range(1, n + 1), repeat=3):
            base = r_function(n, i, j, m, cd)
            for perm in itertools.permutations((i, j, m)):
                assert r_function(n, *perm, cd) == base
    # branch square identity, n <= 8
    for n in range(1, 9):
        np1 = n + 1
        for m in range(1, np1):
            if math.gcd(m, np1) != 1:
                continue
            zeta = root_of_unity(4 * np1, 4 * m)
            for k in range(1, n + 1):
                v = branch_sqrt(n, m, k)
                assert v * v == zeta ** k + zeta ** (-k) - 2
    _report(11, "symmetry, homogeneity, involution, R-symmetry, sqrt^2")


def test_scan_probe_is_wellformed_and_unasserted():
    """Conjecture coverage beyond the proven range is property-based only:
    a verdict or pole per primitive root, no truth value asserted."""
    for n in (3, 4):
        results = conjecture_scan(n)
        expected_roots = [m for m in range(1, n + 1)
                          if math.gcd(m, n + 1) == 1]
        assert [r.m_root for r in results] == expected_roots
        for r in results:
            assert r.status in ("pass", "fail", "pole")
            doc = json.dumps(r.to_json(), sort_keys=True)
            assert json.loads(doc)["status"] == r.status
    _report("note", "scan emits a pole-or-verdict per root, n = 3, 4")
