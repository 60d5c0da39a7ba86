"""The packed transport kernel against the slot-by-slot sums.

`transport_check` runs Kronecker-packed sums when the map's nonzero entries
share one conductor N, the source's basis coefficients lie in subfields of
Q(zeta_N) and the packing is not far wider than the typical operand
(`transport._packing` decides); otherwise it sums slot by slot.  Both must
give the same report, byte for byte, conductors included; the slot-by-slot
path is the oracle for the kernel here, and `oracles.slot_by_slot_transport`,
every sum written out term by term, the oracle for both on maps of mixed
conductors.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clirunner import CliRunner  # noqa: E402

from crepant import transport  # noqa: E402
from crepant.cli import main  # noqa: E402
from crepant.coeffring import BaseScalar  # noqa: E402
from crepant.corrections import PoleError  # noqa: E402
from crepant.exactnum import (Cyclotomic, Kronecker,  # noqa: E402
                              euler_phi, imaginary_unit, root_of_unity)
from crepant.isocheck import conjecture_scan  # noqa: E402
from crepant.maps import LinearMap, bgp_map, chtd_map  # noqa: E402
from crepant.tables import (KIND_QUANTUM_AT, ExcClass,  # noqa: E402
                            ProductTable, cr_table, cup_table, qc_eval,
                            qc_table)
from crepant.transport import transport_check  # noqa: E402

from oracles import (delta_system, slot_by_slot_transport,  # noqa: E402
                     strip_corrections)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bytes(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _slot_by_slot(lmap, source):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_packing", lambda *args: None)
        return transport_check(lmap, source)


def _route(lmap, source, *deltas, packing=transport._packing):
    """Whether clauses (a) and (b) hold, seen as the operands being packed,
    and whether the check runs packed; a symbolic source comes with its
    delta values."""
    packs = []
    original = Kronecker.pack

    def spy(*args):
        packs.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Kronecker, "pack", spy)
        kr = packing(lmap, source, cr_table(source.n), *deltas)
    return bool(packs), kr is not None


def _assert_kernel_matches(lmap, source):
    assert transport._packing(lmap, source, cr_table(source.n)) is not None
    packed = transport_check(lmap, source)
    slow = _slot_by_slot(lmap, source)
    assert _bytes(packed) == _bytes(slow)
    assert packed.passed == slow.passed
    return packed


# -- differential: the kernel against the slot-by-slot path -------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_bgp_maps_at_every_primitive_root(n):
    qct = qc_table(n)
    verdicts = []
    for m in range(1, n + 1):
        if math.gcd(m, n + 1) != 1:
            continue
        source = qc_eval(qct, [root_of_unity(4 * (n + 1), 4 * m)] * n)
        verdicts.append(_assert_kernel_matches(bgp_map(n, m), source).passed)
    assert verdicts[0] and verdicts[-1]   # m_root = 1 and n pass


def test_a_non_constant_point_of_the_maps_field():
    n = 3
    q = [root_of_unity(16, 3), root_of_unity(4, 1), root_of_unity(8, 5)]
    source = qc_eval(qc_table(n), q)
    assert len({x.conductor for x in q}) == 3
    for m in (1, 3):
        _assert_kernel_matches(bgp_map(n, m), source)
    rational = qc_eval(qc_table(n), [Cyclotomic.from_rational(x)
                                     for x in (-1, Fraction(1, 2), 3)])
    _assert_kernel_matches(bgp_map(n, 1), rational)


def test_the_stripped_source_of_the_rank_two_delta_system():
    qct = qc_table(2)
    stripped = strip_corrections(qct)
    for m in (1, 2):
        _assert_kernel_matches(bgp_map(2, m), stripped)
    # the system is built from that residual (the cup table's, the same
    # table), and still solves
    assert stripped == cup_table(2)
    assert delta_system(bgp_map(2, 1), qct)[0]


def test_rank_one():
    source = qc_eval(qc_table(1), [Cyclotomic.from_rational(-1)])
    for t in (2 * imaginary_unit(8), -2 * imaginary_unit(8),
              Cyclotomic.one(8), Cyclotomic.from_rational(3)):
        _assert_kernel_matches(LinearMap(1, ((t,),)), source)
    assert _assert_kernel_matches(bgp_map(1, 1), source).passed


CONDUCTORS = [1, 3, 4, 5, 8, 12]
# a conductor dividing none of those above: a zero map entry stored there
# is foreign to the map's field, and the rule must ignore it
FOREIGN = 7


def _value(conductor, den, big=10 ** 40):
    """Coordinates up to `big` over den, 2 den or 3 den: the denominators
    of a generated case share one base, as a map's or a table's do."""
    return st.lists(st.builds(Fraction, st.integers(-big, big),
                              st.sampled_from([den, 2 * den, 3 * den])),
                    min_size=euler_phi(conductor),
                    max_size=euler_phi(conductor)).map(
        lambda v: Cyclotomic(conductor, v))


def _map(n, conductor, den):
    entry = st.one_of(_value(conductor, den),
                      st.just(Cyclotomic.zero(FOREIGN)),
                      st.just(Cyclotomic.zero(conductor)))
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: LinearMap(n, tuple(map(tuple, rows))))


def _scalar(n, conductor, den):
    """A BaseScalar of rank n, coefficients in subfields of Q(zeta_N)."""
    monos = [(1,)] if n == 1 else [(0, 0), (1, 0), (0, 1)]
    value = st.sampled_from([d for d in CONDUCTORS if conductor % d == 0]
                            ).flatmap(lambda d: _value(d, den, 10 ** 20))
    return st.dictionaries(st.sampled_from(monos), value, max_size=2).map(
        lambda terms: BaseScalar(n, terms))


def _random_source(n, conductor, den):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    entry = st.tuples(_scalar(n, conductor, den),
                      st.lists(_scalar(n, conductor, den), min_size=n,
                               max_size=n))
    return st.lists(entry, min_size=len(pairs), max_size=len(pairs)).map(
        lambda es: ProductTable(n, KIND_QUANTUM_AT, {
            key: ExcClass(n, s, tuple(e)) for key, (s, e) in zip(pairs, es)}))


def _point(n, conductor):
    """A q-point in subfields of Q(zeta_N): roots of unity and rationals."""
    root = st.sampled_from([d for d in CONDUCTORS if conductor % d == 0]
                           ).flatmap(lambda d: st.integers(0, d - 1).map(
                               lambda j: root_of_unity(d, j)))
    rational = st.sampled_from([-1, 2, Fraction(1, 3), Fraction(-5, 2)]).map(
        Cyclotomic.from_rational)
    return st.lists(st.one_of(root, rational), min_size=n, max_size=n)


CASE = st.tuples(st.integers(1, 3), st.sampled_from(CONDUCTORS),
                 st.integers(1, 10 ** 6)).flatmap(
    lambda ncd: st.tuples(
        _map(*ncd),
        st.one_of(_point(*ncd[:2]), _random_source(*ncd)),
        st.just(ncd[0])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=CASE)
def test_generated_single_conductor_maps(case):
    lmap, source, n = case
    assume(any(not c.is_zero() for row in lmap.matrix for c in row))
    if isinstance(source, list):
        try:
            source = qc_eval(qc_table(n), source)
        except PoleError:
            assume(False)
    in_field, packed = _route(lmap, source)
    assert in_field
    # coordinates of very mixed sizes can make the packing far wider than
    # the typical entry; such a case sums slot by slot, as the routing tests
    # below pin, and is no example of the kernel
    assume(packed)
    _assert_kernel_matches(lmap, source)


def test_the_width_holds_a_sum_at_its_declared_bound():
    # x = c and y = c + zeta_4 put c^2 in the low digit of x y, so the sum
    # of T = 4 such products has a digit of 4 c^2 >= 2^63: it fits only
    # because the width counts T (c^2 alone is below 2^63); an overflowing
    # digit would carry into the next one and unpack to another value
    c = 3037000499
    x = Cyclotomic.from_rational(c, 4)
    y = x + root_of_unity(4)
    kr = Kronecker.pack(4, {"x": {0: x}, "y": {0: y}}, [(4, ("x", "y"))])
    product = kr.packed["x"][0] * kr.packed["y"][0]
    total = product + product + product + product
    assert kr.values({"s": total}) == {"s": 4 * x * y}


def _constant_table(n, value):
    """A rank-n evaluated table with every s part and basis coefficient
    `value`."""
    part = BaseScalar.const(n, value)
    return ProductTable(n, KIND_QUANTUM_AT, {
        key: ExcClass(n, part, (part,) * n) for key in cr_table(n).pairs()})


C = 3037000499   # C^2 < 2^63 <= 2 C^2


@pytest.mark.parametrize("entry,source_value", [
    # the right side's s digit sums 1 * C * C over the n pairs (k, k') with
    # k + k' = n + 1, whose Chen-Ruan entry s/(n+1) has numerator 1: n C^2;
    # a zero source adds nothing to the bound
    (C, 0),
    # every left-side digit is 3 sum_l 1 * (2^61 + 1) = 3 n (2^61 + 1), the
    # Chen-Ruan denominator 3 scaling the left side
    (1, 2 ** 61 + 1),
], ids=["right-side", "left-side"])
def test_each_declared_shape_holds_sums_at_its_bound(entry, source_value):
    # the digits pass 2^63 and fit only because each kind counts all its
    # terms; a kind declared with fewer would overflow into the next digit
    n = 2
    x = Cyclotomic.from_rational(entry, 4)
    lmap = LinearMap(n, ((x, x), (x, x)))
    _assert_kernel_matches(lmap, _constant_table(n, source_value))


# -- the differences: both sides summed into one packed int ------------------


def _dropped_unread(monkeypatch):
    """Record every nonzero packed sum that `Kronecker.values` drops without
    unpacking it (an unpacked sum is kept in the packing's `_values`)."""
    dropped = []
    original = Kronecker.values

    def spy(self, totals):
        out = original(self, totals)
        dropped.extend(total for key, total in totals.items()
                       if total and key not in out
                       and total not in self._values)
        return out

    monkeypatch.setattr(Kronecker, "values", spy)
    return dropped


def test_a_passing_root_whose_sides_differ_as_packed_ints(monkeypatch):
    # the two sides' unreduced product polynomials differ, so their packed
    # difference is a nonzero int that reduces to zero mod Phi_N; the
    # packed Phi_N divides it, and it must be dropped unread, as the
    # BaseScalar subtraction of equal values drops it
    n = 4
    source = qc_eval(qc_table(n), [root_of_unity(20, 4)] * n)
    dropped = _dropped_unread(monkeypatch)
    report = _assert_kernel_matches(bgp_map(n, 1), source)
    assert report.passed
    assert dropped and all(type(t) is int for t in dropped)


def _basis_conductors(report):
    """{(i, j, k, monomial): conductor} of the basis differences."""
    return {(e.i, e.j, k, mono): c.conductor for e in report.entries
            for k, scalar in enumerate(e.diff.e)
            for mono, c in scalar.terms.items()}


def _basis_table(n, value):
    """A rank-n evaluated table: s part -2 and every basis coefficient
    `value` times the constant monomial, which no orbifold entry has."""
    s = BaseScalar(n, {(0, 0): -2})
    e = BaseScalar(n, {(0, 0): value} if value else {})
    return ProductTable(n, KIND_QUANTUM_AT, {
        key: ExcClass(n, s, (e,) * n) for key in cr_table(n).pairs()})


def test_a_monomial_only_on_the_left_keeps_its_value_at_n():
    n = 3
    lmap = bgp_map(n, 1)                          # conductor 16
    source = _basis_table(n, root_of_unity(8, 1))
    report = _assert_kernel_matches(lmap, source)
    left = {key: c for key, c in _basis_conductors(report).items()
            if key[3] == (0, 0)}
    assert left and set(left.values()) == {16}
    entry = report.entries[0]
    assert entry.diff.e[0].terms[(0, 0)] == sum(
        (lmap.matrix[0][l] * root_of_unity(8, 1) for l in range(n)),
        Cyclotomic.zero(1))


def test_a_monomial_only_on_the_right_is_its_negated_value_at_n():
    n = 3
    lmap = bgp_map(n, 1)
    source = _basis_table(n, 0)
    report = _assert_kernel_matches(lmap, source)
    right = _basis_conductors(report)
    assert right and set(right.values()) == {16}
    assert {mono for *_, mono in right} <= {(1, 0), (0, 1)}


def test_an_s_part_whose_right_side_cancels_keeps_the_source_coefficient():
    # column 1 of the map is (1, 2, -2): the s part of Phi(E_1) . Phi(E_1)
    # sums (1 (-2) + 2 2 + (-2) 1)/4 = 0 over nonzero terms, so the
    # difference is the source's own -2, still at conductor 1
    n = 3
    z4 = root_of_unity(4, 1)
    one, two = Cyclotomic.one(4), Cyclotomic.from_rational(2, 4)
    lmap = LinearMap(n, ((one, z4, one), (two, one, one), (-two, one, z4)))
    source = qc_eval(qc_table(n), [z4] * n)
    report = _assert_kernel_matches(lmap, source)
    s11 = report.entries[0].diff.s
    assert (report.entries[0].i, report.entries[0].j) == (1, 1)
    assert s11 == source.entry(1, 1).s
    assert [c.conductor for c in s11.terms.values()] == [1]
    # elsewhere the right side's s part does not cancel: its difference
    # is taken at N
    assert {c.conductor for e in report.entries[1:]
            for c in e.diff.s.terms.values()} == {4}


def test_a_difference_holds_digits_at_its_declared_bound():
    # over D = lcm(3, 2) = 6 the difference x - y, a sum of two kinds, is
    # 2 x' - 3 y' for the numerators x' = (c, 0) and y' = (-c, 2): its
    # constant digit 5 c passes 2^63, where 2 c and 3 c alone do not; a
    # width sized for either kind alone would overflow into the next digit
    c = 2 ** 61 - 1
    x = Cyclotomic.from_rational(Fraction(c, 3), 4)
    y = Cyclotomic.from_rational(Fraction(-c, 2), 4) + root_of_unity(4)
    kr = Kronecker.pack(4, {"x": {0: x}, "y": {0: y}},
                        [(1, ("x",)), (1, ("y",))])
    assert kr.scales == [2, 3]
    assert max(2 * c, 3 * c) < 2 ** 63 <= 5 * c
    diff = 2 * kr.packed["x"][0] - 3 * kr.packed["y"][0]
    assert kr.values({"d": diff}) == {"d": x - y}


def _packing_spy(monkeypatch):
    """Record, per transport check, whether clauses (a) and (b) held and
    whether it ran packed."""
    routes = []
    original = transport._packing

    def spy(lmap, source, crt, *deltas):
        routes.append(_route(lmap, source, *deltas, packing=original))
        return original(lmap, source, crt, *deltas)

    monkeypatch.setattr(transport, "_packing", spy)
    return routes


def test_every_scan_point_to_rank_twelve_packs(monkeypatch):
    # the scan checks m_root = 1 of each rank; the kernel runs packed there
    # and at every other primitive root a direct check of the map reaches
    routes = _packing_spy(monkeypatch)
    for n in range(1, 13):
        conjecture_scan(n)
    assert routes == [(True, True)] * 12
    routes.clear()
    points = 0
    for n in range(1, 13):
        qct = qc_table(n)
        for m in range(1, n + 1):
            if math.gcd(m, n + 1) == 1:
                zeta = root_of_unity(4 * (n + 1), 4 * m)
                transport_check(bgp_map(n, m), qc_eval(qct, [zeta] * n))
                points += 1
    # phi(2) + ... + phi(13) roots
    assert points == 57 and routes == [(True, True)] * points


def test_every_in_field_verify_of_the_bench_catalogue_packs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import CATALOGUE
    checks = []
    routes = _packing_spy(monkeypatch)
    for argv in CATALOGUE:
        if argv[0] == "verify":
            checks.append(CliRunner().invoke(main, argv).exit_code)
    assert set(checks) <= {0, 1, 2}
    assert sum(in_field for in_field, _ in routes) >= 10
    assert all(packed == in_field for in_field, packed in routes)


# -- routing: these inputs never reach the kernel -----------------------------


def _two_conductor_map():
    z3, z4 = root_of_unity(3, 1), root_of_unity(4, 1)
    return LinearMap(2, ((z3, Cyclotomic.one(1)), (z4, z3)))


def _routing_cases():
    z12 = [root_of_unity(12, 4)] * 2
    e3_e5 = [root_of_unity(60, 20), root_of_unity(60, 12)]
    zero = Cyclotomic.zero(1)
    return [
        ("chtd", chtd_map(2), qc_eval(qc_table(2), z12)),
        ("bgp-e:1/3,e:1/5", bgp_map(2, 1), qc_eval(qc_table(2), e3_e5)),
        ("two-conductors", _two_conductor_map(), qc_eval(qc_table(2), z12)),
        ("zero-map", LinearMap(2, ((zero, zero), (zero, zero))),
         qc_eval(qc_table(2), z12)),
    ]


def _refuse(*args):
    raise AssertionError("the packed kernel ran")


@pytest.mark.parametrize("name,lmap,source", _routing_cases(),
                         ids=[c[0] for c in _routing_cases()])
def test_routing_sends_these_inputs_slot_by_slot(name, lmap, source,
                                                 monkeypatch):
    expected = _bytes(transport_check(lmap, source))
    monkeypatch.setattr(Kronecker, "pack", _refuse)
    assert _bytes(transport_check(lmap, source)) == expected
    assert _route(lmap, source) == (False, False)


def test_a_refusing_kernel_does_fail_an_input_that_reaches_it(monkeypatch):
    # the source is built first: qc_eval packs its corrections too
    source = qc_eval(qc_table(2), [root_of_unity(12, 4)] * 2)
    monkeypatch.setattr(Kronecker, "pack", _refuse)
    with pytest.raises(AssertionError, match="packed kernel ran"):
        transport_check(bgp_map(2, 1), source)


# nine distinct primes near 10^6, one denominator per map entry: their
# common multiple, which every packed entry would carry, is 180 bits wide
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117,
          1000121, 1000133)


def _rank_three_map(entry):
    return LinearMap(3, tuple(tuple(entry(3 * k + l) for l in range(3))
                              for k in range(3)))


def _dense(seed, den=1, bits=8):
    """An element of Q(zeta_16), every coordinate near 2^bits, over den."""
    return Cyclotomic(16, [Fraction((-1) ** (seed + a) * ((1 << bits) - a
                                                          - 5 * seed), den)
                           for a in range(8)])


@pytest.mark.parametrize("name,lmap", [
    ("distinct-denominators",
     _rank_three_map(lambda e: _dense(e, PRIMES[e]))),
    ("one-wide-entry",
     _rank_three_map(lambda e: _dense(e, bits=4000 if e == 4 else 8))),
])
def test_a_packing_far_wider_than_its_typical_entry_runs_slot_by_slot(
        name, lmap, monkeypatch):
    source = qc_eval(qc_table(3), [root_of_unity(16, 4)] * 3)
    assert _route(lmap, source) == (True, False)
    expected = _bytes(_slot_by_slot(lmap, source))
    monkeypatch.setattr(Kronecker, "values", _refuse)
    assert _bytes(transport_check(lmap, source)) == expected


def test_wide_entries_alone_still_pack():
    # as wide as the one wide entry above, but all of them, over one
    # denominator: the packing is as wide as the typical entry needs
    source = qc_eval(qc_table(3), [root_of_unity(16, 4)] * 3)
    lmap = _rank_three_map(lambda e: _dense(e, PRIMES[0], bits=4000))
    _assert_kernel_matches(lmap, source)


# -- mixed conductors: both routes against the written-out sums --------------


MIXED = [1, 3, 4, 5, 12]


def _small(conductor):
    """A value at `conductor` with small coordinates over 1, 2 or 3."""
    return st.lists(st.builds(Fraction, st.integers(-3, 3),
                              st.integers(1, 3)),
                    min_size=euler_phi(conductor),
                    max_size=euler_phi(conductor)).map(
        lambda v: Cyclotomic(conductor, v))


def _mixed_map(n):
    """A rank-n map whose entries are two values at distinct conductors,
    their negatives and zero.  A row flagged to cancel starts x, -x, so
    against a source whose coefficients are all equal its sum cancels after
    two terms and restarts at the third."""
    pool = st.lists(st.sampled_from(MIXED), min_size=2, max_size=2,
                    unique=True).flatmap(
        lambda ds: st.tuples(*(_small(d) for d in ds)))

    def flagged(row_and_flag):
        row, cancel = row_and_flag
        return [row[0], -row[0], *row[2:]] if cancel else row

    def rows(values):
        entry = st.sampled_from([*values, *(-v for v in values),
                                 Cyclotomic.zero(1)])
        row = st.tuples(st.lists(entry, min_size=n, max_size=n),
                        st.booleans()).map(flagged)
        return st.lists(row, min_size=n, max_size=n)

    return pool.flatmap(rows).map(
        lambda rows: LinearMap(n, tuple(map(tuple, rows))))


def _mixed_source(n):
    """An evaluated rank-n table: the quantum table at a point of roots of
    unity of any of these conductors, or one value in every slot."""
    root = st.sampled_from([*MIXED, 8, 20]).flatmap(
        lambda d: st.integers(1, d).map(lambda j: root_of_unity(d, j)))
    point = st.lists(root, min_size=n, max_size=n)
    constant = st.sampled_from(MIXED).flatmap(_small).map(
        lambda v: _constant_table(n, v))
    return st.one_of(point, constant)


MIXED_CASE = st.integers(2, 3).flatmap(
    lambda n: st.tuples(_mixed_map(n), _mixed_source(n), st.just(n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=MIXED_CASE)
def test_generated_mixed_conductor_maps_match_the_written_out_sums(case):
    lmap, source, n = case
    conductors = {c.conductor for row in lmap.matrix for c in row
                  if not c.is_zero()}
    assume(len(conductors) >= 2)
    if isinstance(source, list):
        try:
            source = qc_eval(qc_table(n), source)
        except PoleError:
            assume(False)
    assert _route(lmap, source) == (False, False)
    assert (_bytes(transport_check(lmap, source))
            == _bytes(slot_by_slot_transport(lmap, source)))


@pytest.mark.parametrize("n", range(1, 5))
def test_chtd_maps_off_their_field_match_the_written_out_sums(n):
    # chtd_map(n) lies in Q(zeta_{n+1}); the point e:1/(4(n+1)) does not
    source = qc_eval(qc_table(n), [root_of_unity(4 * (n + 1), 1)] * n)
    lmap = chtd_map(n)
    assert _route(lmap, source) == (False, False)
    assert (_bytes(transport_check(lmap, source))
            == _bytes(slot_by_slot_transport(lmap, source)))


def test_a_prefix_that_cancels_mid_sum_restarts_at_the_next_term():
    n = 3
    x, y = root_of_unity(5, 1), root_of_unity(3, 1)
    one = Cyclotomic.one(1)
    source = _constant_table(n, 1)
    # row 1 of the map is (x, -x, y): with every source coefficient 1 at
    # the constant monomial, which no Chen-Ruan entry has, that monomial of
    # Phi(E_i * E_j) sums x - x = 0 first and then y, so it is y at y's
    # conductor 3, not at lcm(5, 3) = 15
    lmap = LinearMap(n, ((x, -x, y), (one, one, one), (one, one, one)))
    report = transport_check(lmap, source)
    assert _bytes(report) == _bytes(slot_by_slot_transport(lmap, source))
    for check in report.entries:
        left = check.diff.e[0].terms[(0, 0)]
        assert left == y and left.conductor == 3
    # columns 1 and 2 are (x, x, y) and (1, -1, 1): the s part of
    # Phi(E_1) . Phi(E_2) sums s/4 times x, then -x, then y over the
    # (k, k') with k + k' = 4, in that order, so it is y/4 at conductor 3
    lmap = LinearMap(n, ((x, one, one), (x, -one, one), (y, one, one)))
    report = transport_check(lmap, source)
    assert _bytes(report) == _bytes(slot_by_slot_transport(lmap, source))
    (check,) = [e for e in report.entries if (e.i, e.j) == (1, 2)]
    assert check.diff.s == 1 - y / 4
    assert {c.conductor for c in check.diff.s.terms.values()} == {3}


# -- the symbolic table at a point: the fused kernel against qc_eval ---------


def _outcome(check):
    """The report of a check and its bytes, or the pole it raised."""
    try:
        report = check()
    except PoleError as exc:
        return "pole", exc.index, exc.entry
    return report, _bytes(report)


def _fused_against_evaluated(lmap, n, q):
    """`transport_check` of `qc_table(n)` at q against the check of the
    table `qc_eval` evaluates there: equal records and equal bytes, or the
    same pole.  Returns the outcome and whether the fused kernel ran."""
    qct = qc_table(n)
    fused = []
    original = transport._class_sums

    def spy(*args):
        fused.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_class_sums", spy)
        outcome = _outcome(lambda: transport_check(lmap, qct, q))
    assert outcome == _outcome(lambda: transport_check(lmap, qc_eval(qct, q)))
    return outcome, bool(fused)


SYMBOLIC = [3, 4, 5, 8, 12]


def _in_field_point(n, conductor):
    """Roots of unity of the subfields of Q(zeta_N), and rationals: -1 and 1
    make poles, q_1 q_2 = 1 and q_1 = 1."""
    root = st.sampled_from([d for d in [1, *SYMBOLIC] if conductor % d == 0]
                           ).flatmap(lambda d: st.integers(0, d - 1).map(
                               lambda j: root_of_unity(d, j)))
    rational = st.sampled_from([-1, 1, 2, Fraction(1, 3)]).map(
        Cyclotomic.from_rational)
    return st.lists(st.one_of(root, rational), min_size=n, max_size=n)


def _foreign_point(n, conductor):
    """A point with one root of unity outside Q(zeta_N)."""
    foreign = st.sampled_from([d for d in (5, 7, 9, 16) if conductor % d]
                              ).flatmap(lambda d: st.integers(1, d - 1).map(
                                  lambda j: root_of_unity(d, j)))
    return st.tuples(_in_field_point(n, conductor), foreign,
                     st.integers(0, n - 1)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2] + 1:])


def _one_conductor_map(n, conductor):
    entry = st.one_of(_small(conductor), st.just(Cyclotomic.zero(1)))
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: LinearMap(n, tuple(map(tuple, rows))))


ONE_CONDUCTOR = st.tuples(st.integers(1, 4), st.sampled_from(SYMBOLIC)
                          ).flatmap(lambda nc: st.tuples(
                              _one_conductor_map(*nc),
                              st.just(nc[0]), _in_field_point(*nc)))
FOREIGN_POINT = st.tuples(st.integers(1, 4), st.sampled_from(SYMBOLIC)
                          ).flatmap(lambda nc: st.tuples(
                              _one_conductor_map(*nc),
                              st.just(nc[0]), _foreign_point(*nc)))
MIXED_POINT = st.integers(2, 3).flatmap(lambda n: st.tuples(
    _mixed_map(n).filter(lambda lmap: len(
        {c.conductor for row in lmap.matrix for c in row if c}) > 1),
    st.just(n), _in_field_point(n, 12)))
CHTD = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(chtd_map(n)), st.just(n),
    st.sampled_from([n + 1, 4 * (n + 1), 5]).flatmap(
        lambda d: st.lists(st.integers(1, d - 1).map(
            lambda j: root_of_unity(d, j)), min_size=n, max_size=n))))


@pytest.mark.parametrize("cases,packs,reached,examples", [
    # the kernel runs fused wherever the map and the point share its field
    (ONE_CONDUCTOR, True, {True, "pole"}, 40),
    (FOREIGN_POINT, False, {False, "pole"}, 25),
    (MIXED_POINT, False, {False, "pole"}, 10),
    # chtd_map(n) lies in Q(zeta_{n+1}): in the field of some points only
    (CHTD, None, {True, False}, 15),
], ids=["one-conductor", "foreign-point", "mixed-conductors", "chtd"])
def test_the_symbolic_table_at_a_point_checks_as_its_evaluation(
        cases, packs, reached, examples):
    seen = set()

    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(case=cases)
    def check(case):
        lmap, n, q = case
        outcome, fused = _fused_against_evaluated(lmap, n, q)
        pole = outcome[0] == "pole"
        seen.add("pole" if pole else fused)
        if packs is not None and not pole and any(
                not c.is_zero() for row in lmap.matrix for c in row):
            assert fused == packs

    check()
    assert reached <= seen


@pytest.mark.parametrize("n,q,index,entry", [
    (1, [1], (1, 1), (1, 1)),
    (2, [-1, -1], (1, 2), (1, 1)),
    (3, [2, Fraction(1, 2), 5], (1, 2), (1, 1)),
    (4, [3, 5, Fraction(1, 5), 7], (2, 3), (1, 1)),
])
def test_a_pole_of_the_symbolic_check_is_qc_evals(n, q, index, entry):
    # the pole is found before any sum, for any map of the rank
    q = [Cyclotomic.from_rational(x) for x in q]
    for lmap in (bgp_map(n, 1), chtd_map(n)):
        outcome, fused = _fused_against_evaluated(lmap, n, q)
        assert outcome == ("pole", index, entry) and not fused


def test_a_point_needs_a_symbolic_table():
    source = qc_eval(qc_table(2), [root_of_unity(3, 1)] * 2)
    with pytest.raises(ValueError, match="symbolic"):
        transport_check(bgp_map(2, 1), source, [root_of_unity(3, 1)] * 2)
