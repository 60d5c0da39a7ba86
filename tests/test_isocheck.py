import itertools
import json
import math
import sys
from fractions import Fraction

import pytest
from clirunner import CliRunner

from crepant import isocheck
from crepant.cli import MAX_SCAN_RANK, main
from crepant.coeffring import BaseScalar
from crepant.exactnum import (Cyclotomic, imaginary_unit, root_of_unity,
                              sqrt_rational)
from crepant.isocheck import (RankMismatch, _galois_signs, conjecture_scan,
                              solve_a1, solve_a2, transport_check)
from crepant.mckay import LinearMap, bgp_map, chtd_map
from crepant.ringtables import (ExcClass, ProductTable, QCoeff, cr_table,
                                qc_eval, qc_table)

import oracles
from oracles import conjecture_scan_every_root, identity_map

MINUS_ONE = Cyclotomic.from_rational(-1)


def test_identity_transport_on_cr_tables():
    for n in range(1, 5):
        t = cr_table(n)
        assert transport_check(identity_map(n), t).passed


def test_rank_one_isomorphism_with_minus_two_i():
    lmap = LinearMap(1, ((-2 * imaginary_unit(8),),))
    source = qc_eval(qc_table(1), [MINUS_ONE])
    report = transport_check(lmap, source)
    assert report.passed


def test_rank_one_isomorphism_with_the_conjectured_map():
    source = qc_eval(qc_table(1), [MINUS_ONE])
    assert transport_check(bgp_map(1, 1), source).passed


def test_rank_two_conjectured_map_passes_at_matching_roots():
    z3 = root_of_unity(3, 1)
    qct = qc_table(2)
    assert transport_check(bgp_map(2, 1), qc_eval(qct, [z3, z3])).passed
    assert transport_check(bgp_map(2, 2),
                           qc_eval(qct, [z3 ** 2, z3 ** 2])).passed


def test_rank_two_conjectured_map_fails_at_the_swapped_root():
    z3 = root_of_unity(3, 1)
    report = transport_check(bgp_map(2, 2), qc_eval(qc_table(2), [z3, z3]))
    assert not report.passed


def test_chtd_map_is_not_a_ring_isomorphism():
    z3 = root_of_unity(3, 1)
    qct = qc_table(2)
    for q in ([z3, z3], [z3 ** 2, z3 ** 2]):
        report = transport_check(chtd_map(2), qc_eval(qct, q))
        assert not report.passed
        assert report.failures()  # at least one named nonzero difference


def test_rank_mismatch_detection():
    with pytest.raises(RankMismatch):
        transport_check(identity_map(2), qc_eval(qc_table(1), [MINUS_ONE]))


def test_symbolic_source_is_rejected():
    with pytest.raises(ValueError):
        transport_check(identity_map(2), qc_table(2))


def test_report_json_schema():
    source = qc_eval(qc_table(1), [MINUS_ONE])
    report = transport_check(bgp_map(1, 1), source)
    doc = report.to_json()
    assert doc["pass"] is True
    assert doc["entries"][0]["pass"] is True
    assert set(doc["entries"][0]) == {"i", "j", "diff_s", "diff_basis",
                                      "pass"}


# -- the rank-1 solver ---------------------------------------------------------


def test_solve_a1_returns_both_signs_at_minus_one():
    solutions = solve_a1()
    assert len(solutions) == 2
    i8 = imaginary_unit(8)
    assert {True for s in solutions if s.t == -2 * i8}
    assert any(s.t == 2 * i8 for s in solutions)
    assert all(s.q == -1 for s in solutions)


def test_solve_a1_solutions_verify():
    qct = qc_table(1)
    for s in solve_a1():
        lmap = LinearMap(1, ((s.t,),))
        assert transport_check(lmap, qc_eval(qct, [s.q])).passed


def test_no_rank_one_solution_away_from_minus_one():
    # at any q with 2 + 4 delta(q) != 0 the E-coefficient of E*E cannot be
    # matched: e e has no e-term, so no scalar map transports the product
    qct = qc_table(1)
    i8 = imaginary_unit(8)
    for q in (Fraction(1, 2), Fraction(-1, 3), Fraction(3)):
        source = qc_eval(qct, [Cyclotomic.from_rational(q)])
        for t in (2 * i8, -2 * i8, Cyclotomic.one(8)):
            assert not transport_check(LinearMap(1, ((t,),)),
                                       source).passed


# -- the rank-2 solver ---------------------------------------------------------


@pytest.fixture(scope="module")
def a2_solutions():
    return solve_a2()


def test_solve_a2_returns_exactly_the_two_known_tuples(a2_solutions):
    sqrt3 = sqrt_rational(3, 12)
    z12 = root_of_unity(12, 1)
    z3 = root_of_unity(3, 1)
    got = [(s.a, s.b, s.q1, s.q2) for s in a2_solutions]
    assert got == [
        (sqrt3 * z12 ** 7, sqrt3 * z12 ** 11, z3, z3),
        (sqrt3 * z12 ** 5, sqrt3 * z12, z3 ** 2, z3 ** 2),
    ]


def test_solve_a2_solutions_verify(a2_solutions):
    qct = qc_table(2)
    for s in a2_solutions:
        report = transport_check(s.lmap, qc_eval(qct, [s.q1, s.q2]))
        assert report.passed


def test_solve_a2_nonlinear_relations(a2_solutions):
    for s in a2_solutions:
        assert s.a * s.b == -3
        assert s.a ** 2 + s.b ** 2 == 3


def test_solve_a2_solutions_fixed_by_q_swap(a2_solutions):
    for s in a2_solutions:
        assert s.q1 == s.q2


def test_solve_a2_matches_the_conjectured_map(a2_solutions):
    assert a2_solutions[0].lmap.matrix == bgp_map(2, 1).matrix
    assert a2_solutions[1].lmap.matrix == bgp_map(2, 2).matrix


def test_relabeling_conjugation_fixes_the_a2_solutions(a2_solutions):
    # The involution acts on maps by reversing both bases AND swapping L/M
    # in coefficients (it is semilinear); on the symmetric-ansatz solutions
    # the conjugated matrix J M J equals M, so composing a passing map with
    # the involution passes again.
    qct = qc_table(2)
    for s in a2_solutions:
        m = s.lmap.matrix
        conjugated = tuple(tuple(row[::-1]) for row in m[::-1])
        assert conjugated == m
        report = transport_check(LinearMap(2, conjugated),
                                 qc_eval(qct, [s.q2, s.q1]))
        assert report.passed


def _elimination(lmap, qct):
    """The delta values by Gauss-Jordan elimination of the 12 x 3 system,
    or None when it is inconsistent."""
    rows, rhs = oracles.delta_system(lmap, qct)
    return oracles.solve_exact(rows, rhs, zero=Cyclotomic.zero(1))


def _assert_same_deltas(closed, solved):
    assert list(closed) == solved
    assert [json.dumps(x.to_json()) for x in closed] == \
        [json.dumps(x.to_json()) for x in solved]


def test_the_closed_form_deltas_are_those_elimination_solves():
    # the map of each solution of solve_a2, bgp_map(2, m), and its Galois
    # conjugates sigma_a, a a unit mod 12
    qct = qc_table(2)
    for m in (1, 2):
        for a in (1, 5, 7, 11):
            lmap = LinearMap(2, tuple(tuple(c.galois(a) for c in row)
                                      for row in bgp_map(2, m).matrix))
            solved = _elimination(lmap, qct)
            assert solved is not None
            _assert_same_deltas(isocheck._delta_values(lmap, qct), solved)


def test_the_closed_form_deltas_on_invertible_maps_of_q_zeta_12():
    # the read-off inverts Phi and reads only the L coefficients, and three
    # of the corrections they give: where the 12 equations are consistent it
    # gives their solution, and where not, its triple breaks one of them
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    qct = qc_table(2)
    entry = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
        lambda coeffs: Cyclotomic(12, coeffs))

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)))
    def check(matrix):
        (a, b), (c, d) = matrix
        assume(not (a * d - b * c).is_zero())
        lmap = LinearMap(2, matrix)
        closed = isocheck._delta_values(lmap, qct)
        solved = _elimination(lmap, qct)
        if solved is not None:
            _assert_same_deltas(closed, solved)
            return
        rows, rhs = oracles.delta_system(lmap, qct)
        assert any(row[0] * closed[0] + row[1] * closed[1]
                   + row[2] * closed[2] != value
                   for row, value in zip(rows, rhs))

    check()


# -- the scan ------------------------------------------------------------------


def test_scan_rank_one_and_two_pass():
    assert [(r.m_root, r.status) for r in conjecture_scan(1)] == \
        [(1, "pass")]
    assert [(r.m_root, r.status) for r in conjecture_scan(2)] == \
        [(1, "pass"), (2, "pass")]


def test_scan_rank_three_emits_a_verdict_per_primitive_root():
    # no truth value asserted beyond well-formedness: rank 3 and up is
    # outside the proven range, the tool just reports what it computes
    results = conjecture_scan(3)
    assert [r.m_root for r in results] == [1, 3]
    for r in results:
        assert r.status in ("pass", "fail", "pole")
        if r.status in ("pass", "fail"):
            assert r.report is not None
        doc = r.to_json()
        assert doc["m_root"] == r.m_root and doc["status"] == r.status


def test_scan_passes_at_the_outer_roots_only_for_ranks_seven_and_nine():
    # computed, not proven: the uniform-sign map passes at m_root = 1 and n
    # and fails at every interior primitive root (as for n = 4, 6, 8, 10)
    assert [(r.m_root, r.status) for r in conjecture_scan(7)] == \
        [(1, "pass"), (3, "fail"), (5, "fail"), (7, "pass")]
    assert [(r.m_root, r.status) for r in conjecture_scan(9)] == \
        [(1, "pass"), (3, "fail"), (7, "fail"), (9, "pass")]


def test_scan_never_hits_a_pole_at_equal_primitive_roots():
    # q_mu...q_nu = zeta^(nu - mu + 1) with 1 <= nu - mu + 1 <= n < n + 1
    for n in range(1, 5):
        for r in conjecture_scan(n):
            assert r.status != "pole"


@pytest.fixture
def inverses(monkeypatch):
    """Forbid `Cyclotomic.__pow__` and record every `Cyclotomic.inverse`."""
    def no_power(self, exponent):
        raise AssertionError(f"a Cyclotomic raised to the power {exponent}")

    calls, inverse = [], Cyclotomic.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "__pow__", no_power)
    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    return calls


def test_roots_of_unity_are_neither_powered_nor_inverted(inverses):
    for n in range(1, 11):
        for m in range(1, 2 * n + 2):
            if math.gcd(m, n + 1) == 1:
                bgp_map(n, m)
        assert inverses == [], n
        # one closed-form inverse per row: 1/(2 - w - 1/w) = -w/(1 - w)^2,
        # w = zeta^l
        chtd_map(n)
        assert len(inverses) == n, n
        for l, x in enumerate(inverses, 1):
            assert x == 1 - root_of_unity(n + 1, l), (n, l)
        inverses.clear()
    # the scan inverts only its deltas' 1 - q^d, d = 1..n, at m_root = 1:
    # every other root's report is a Galois image of that one
    for n in (6, 10):
        conjecture_scan(n)
        assert len(inverses) == n, n
        inverses.clear()
    solve_a1()
    solve_a2()


# -- the scan's Galois transport ----------------------------------------------


def _sign(row, image):
    """+1 or -1 when the row is that sign times its image, entry by entry
    and conductor by conductor, else None."""
    for sign in (1, -1):
        if all(c.conductor == d.conductor and c.coeffs == (d * sign).coeffs
               for c, d in zip(row, image)):
            return sign
    return None


def test_the_map_at_each_root_is_a_signed_galois_image_of_the_map_at_one():
    # bgp_map(n, m) = D_m sigma_a(bgp_map(n, 1)) for every unit a of
    # Z/4(n+1) with a = m mod n+1, D_m a diagonal of signs
    for n in range(1, 16):
        conductor = 4 * (n + 1)
        base = bgp_map(n, 1).matrix
        for m in range(1, n + 1):
            if math.gcd(m, n + 1) != 1:
                continue
            matrix = bgp_map(n, m).matrix
            signs = {}
            for a in range(m, conductor, n + 1):
                if math.gcd(a, conductor) == 1:
                    signs[a] = [_sign(row, [c.galois(a) for c in base_row])
                                for row, base_row in zip(matrix, base)]
                    assert None not in signs[a], (n, m, a)
            a, eps, _ = _galois_signs(n, m)     # a is one of those units
            assert eps == [1, *signs[a]], (n, m)
            if m == n > 1:      # a = -1 mod 2(n+1), complex conjugation
                assert set(eps) == {1}, n


def _row_signs(n, m, a):
    return "".join("+" if _sign(row, [c.galois(a) for c in base_row]) > 0
                   else "-" for row, base_row in zip(bgp_map(n, m).matrix,
                                                      bgp_map(n, 1).matrix))


@pytest.mark.parametrize("n, m, a, signs", [
    (4, 2, 7, "-++-"), (6, 3, 3, "++--++"), (3, 3, 3, "-+-"),
    (3, 3, 7, "+++"), (7, 3, 3, "++---++"), (7, 3, 11, "-++-++-")])
def test_the_row_signs_at_a_root(n, m, a, signs):
    # a and a + n + 1 differ by (-1)^k when n + 1 is even
    assert _row_signs(n, m, a) == signs
    scan_a, eps, _ = _galois_signs(n, m)
    if scan_a == a:
        assert "".join("+" if e > 0 else "-" for e in eps[1:]) == signs


def _scan_json(scan, n):
    return json.dumps([r.to_json() for r in scan(n)], sort_keys=True,
                      indent=1)


def _first_difference(text, reference):
    """None for equal texts, else the first line of each that differs, so
    that a failure prints two lines, not a diff of megabytes."""
    if text == reference:
        return None
    for number, pair in enumerate(itertools.zip_longest(
            text.splitlines(), reference.splitlines()), 1):
        if pair[0] != pair[1]:
            return number, *pair


def _perturbed(build):
    """qc_table plus fixed rationals in a few entries' cup parts, s parts
    included, so that bgp_map(n, 1) fails at every root."""
    def perturbed(n):
        table = build(n)
        entries = {key: table.entry(*key) for key in table.pairs()}
        one = BaseScalar.one(n)
        shifts = {(1, 1): (Fraction(1, 7), [(0, one.scale(Fraction(2, 3)))]),
                  (1, 2): (0, [(1, BaseScalar.L(n).scale(Fraction(-3, 5)))]),
                  (1, n): (Fraction(-2, 3), [(n - 1, one)]),
                  (2, n): (Fraction(5, 4), [])}
        for key, (s, es) in shifts.items():
            entry = entries[key]
            e = list(entry.e)
            for l, shift in es:
                e[l] = QCoeff(e[l].cup + shift, e[l].corr)
            entries[key] = ExcClass(n, entry.s + s, tuple(e))
        return ProductTable(n, table.kind, entries)
    return perturbed


@pytest.mark.parametrize("n", range(2, 11))
def test_the_transport_of_a_failing_check_is_the_check_at_every_root(
        monkeypatch, n):
    perturbed = _perturbed(qc_table)
    monkeypatch.setattr(isocheck, "qc_table", perturbed)
    monkeypatch.setattr(oracles, "qc_table", perturbed)
    scan = conjecture_scan(n)
    assert scan[0].status == "fail"
    assert scan[0].report.entries[0].diff.s.terms   # the s part is off too
    assert _first_difference(_scan_json(conjecture_scan, n),
                             _scan_json(conjecture_scan_every_root, n)) is None


def test_the_scan_passes_exactly_where_the_branch_signs_are_a_character():
    # the closed-form rule of `oracles.character_scan`, in sign arithmetic,
    # at every rank the scan command accepts
    for n in range(1, MAX_SCAN_RANK + 1):
        assert [r.status for r in conjecture_scan(n)] == \
            oracles.character_scan(n), n


@pytest.mark.parametrize("n, reductions", [(4, 12), (6, 89), (10, 941)])
def test_the_scan_reduces_each_distinct_transported_value_once(
        monkeypatch, n, reductions):
    # the transported sums of all entries and roots hold 80, 588 and 5 500
    # rotated polynomials at these ranks, of 12, 89 and 941 distinct values
    calls, from_poly = [], Cyclotomic._from_poly.__func__

    def counted(cls, conductor, poly, den=1):
        if sys._getframe(1).f_code is isocheck._transported.__code__:
            calls.append(conductor)
        return from_poly(cls, conductor, poly, den)

    monkeypatch.setattr(Cyclotomic, "_from_poly", classmethod(counted))
    conjecture_scan(n)
    assert len(calls) == reductions


@pytest.mark.parametrize("n", range(1, 13))
def test_the_scan_prints_what_the_scan_of_every_root_prints(monkeypatch, n):
    runner = CliRunner()

    def printed():
        return [runner.invoke(main, ["scan", "--n", str(n), "--format", fmt])
                for fmt in ("json", "text")]

    scanned = printed()
    monkeypatch.setattr(isocheck, "conjecture_scan",
                        conjecture_scan_every_root)
    expected = printed()
    for result, reference in zip(scanned, expected):
        assert result.exit_code == reference.exit_code == 0
        assert _first_difference(result.stdout, reference.stdout) is None
