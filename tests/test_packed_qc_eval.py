"""`qc_eval`'s packed corrections against a term-by-term reference.

`qc_eval` lifts the point into one field Q(zeta_N), N the lcm of its
entries' conductors, so every delta value there has conductor N, and sums
each correction, an integer combination of deltas, as Kronecker-packed
integers, scaling K once per distinct sum.  The reference sums each
correction term by term as Cyclotomics at the lifted point and adds K
scaled by it (`oracles.qcoeff_eval`).  Both must give the same table, byte
for byte, conductors included, and the same pole.
"""

import json
import math
from fractions import Fraction

import pytest

from crepant import isocheck
from crepant.coeffring import BaseScalar
from crepant.corrections import PoleError
from crepant.exactnum import Cyclotomic, Kronecker, root_of_unity
from crepant.mckay import LinearMap
from crepant.ringtables import (KIND_QUANTUM_AT, ExcClass, ProductTable,
                                cr_table, qc_eval, qc_table, table_to_json)

from oracles import qcoeff_eval


def _reference(table, q, lift=True):
    """The table at q, coefficient by coefficient through `qcoeff_eval`,
    at q lifted into Q(zeta_N) unless `lift` is false."""
    if lift:
        conductor = math.lcm(*(x.conductor for x in q))
        q = [x.lift(conductor) for x in q]
    kappa, deltas, entries = BaseScalar.K(table.n), {}, {}
    for key in table.pairs():
        entry = table.entry(*key)
        try:
            coeffs = tuple(qcoeff_eval(c, q, deltas, kappa) for c in entry.e)
        except PoleError as exc:
            raise PoleError(exc.index, entry=key) from None
        entries[key] = ExcClass(table.n, entry.s, coeffs)
    return ProductTable(table.n, KIND_QUANTUM_AT, entries, q=q)


def _outcome(evaluate, table, q):
    """The evaluated table's JSON, or the pole's (index, entry)."""
    try:
        return json.dumps(table_to_json(evaluate(table, q)), sort_keys=True)
    except PoleError as exc:
        return tuple(exc.index), exc.entry


def _assert_matches_reference(table, q):
    packed = _outcome(qc_eval, table, q)
    # a boolean, so that a failure does not diff two large documents
    same = _outcome(_reference, table, q) == packed
    assert same, f"qc_eval differs at q = {list(map(str, q))}"
    return packed


def _rationals(*values):
    return [Cyclotomic.from_rational(x) for x in values]


HALF = Fraction(1, 2)
MIXED = [root_of_unity(3, 1), root_of_unity(4, 1), root_of_unity(5, 2),
         root_of_unity(20, 3)]


@pytest.mark.parametrize("n", range(1, 11))
def test_equal_roots_at_every_m(n):
    # m = 0 and every m sharing a factor with n + 1 hit a pole
    table = qc_table(n)
    for m in range(2 * n + 3):
        _assert_matches_reference(table,
                                  [root_of_unity(4 * (n + 1), 4 * m)] * n)


@pytest.mark.parametrize("n,q", [
    (4, MIXED),
    (2, [root_of_unity(60, 20), root_of_unity(60, 12)]),
    (2, [root_of_unity(3, 1)] * 2),
    (3, _rationals(2, Fraction(1, 3), Fraction(-5, 2))),
    (2, _rationals(-1, -1)),
    (3, _rationals(-1, -1, 1)),
    (3, _rationals(1, HALF, 2)),
    (4, _rationals(-1, HALF, 2, 1)),
    (4, _rationals(2, -1, 1, 1)),
    (4, _rationals(HALF, HALF, 1, 1)),
    (4, _rationals(2, 1, HALF, 2)),
    (4, _rationals(HALF, 1, 1, 2)),
    (4, _rationals(HALF, 2, HALF, 2)),
], ids=["n4-mixed-roots", "e:1/3,e:1/5", "cube-roots", "rational",
        "pole-minus-one", *(f"pole-{k}" for k in range(8))])
def test_mixed_rational_and_pole_points(n, q):
    _assert_matches_reference(qc_table(n), q)


def test_rank_one_at_minus_one_cancels():
    # the correction -2 K cancels the cup part 2 K: the coefficient is zero
    doc = json.loads(_assert_matches_reference(qc_table(1), _rationals(-1)))
    assert doc["entries"][0]["e"] == [{"rank": 1, "terms": []}]


def test_a_mixed_point_is_stored_lifted_to_its_lcm():
    # Q(zeta_3), Q(zeta_4), Q(zeta_5), Q(zeta_20): N = 60
    evaluated = qc_eval(qc_table(4), MIXED)
    assert [x.conductor for x in evaluated.q] == [60] * 4
    assert {c.conductor for key in evaluated.pairs()
            for coeff in evaluated.entry(*key).e
            for c in coeff.terms.values() if not c.is_rational()} == {60}
    # the values are those at the point as given, only stored at N
    assert evaluated == _reference(qc_table(4), MIXED, lift=False)


def test_a_point_of_one_conductor_is_stored_as_given():
    q = [root_of_unity(28, 4)] * 6
    evaluated = qc_eval(qc_table(6), q)
    assert all(x is y for x, y in zip(evaluated.q, q))
    _assert_matches_reference(qc_table(6), q)


def test_a_single_group_shape_holds_signed_weights_at_its_bound():
    # weights 3 and -1 on x and -x sum to 4 x, whose constant digit
    # 4 (2^62 + 1) passes 2^63: it fits only because the kind declares
    # T = sum |w| = 4; a narrower kind would overflow into the next digit
    x = Cyclotomic.from_rational(2 ** 62 + 1, 4) - root_of_unity(4)
    weights = {"a": 3, "b": -1}
    kr = Kronecker.pack(4, {"delta": {"a": x, "b": -x}},
                        [(sum(map(abs, weights.values())), ("delta",))])
    total = sum(w * kr.packed["delta"][k] for k, w in weights.items())
    assert kr.values({"t": total}) == {"t": 4 * x}


def _wide_among_narrow():
    """One value of 2^200 among twenty of 1 or 2, in Q(zeta_5)."""
    values = {k: root_of_unity(5, k % 4) + k % 2 for k in range(20)}
    values["wide"] = Cyclotomic.from_rational(2 ** 200, 5) - root_of_unity(5)
    return values


def _pays(kr):
    """Whether the transport check would run this packing (clause (c))."""
    return not kr.bits > max(64, 2 * kr.typical)


def test_a_single_group_far_wider_than_its_typical_value_packs():
    # the digits need 202 bits, far above twice the typical sum's width,
    # but a sum of single values multiplies nothing, so qc_eval packs it
    # all the same, and it reads back exactly
    values = _wide_among_narrow()
    weights = {k: (-1) ** i * (i + 1) for i, k in enumerate(values)}
    kr = Kronecker.pack(5, {"delta": values},
                        [(sum(map(abs, weights.values())), ("delta",))])
    assert not _pays(kr)
    total = sum(w * kr.packed["delta"][k] for k, w in weights.items())
    expected = sum((w * values[k] for k, w in weights.items()),
                   Cyclotomic.zero(5))
    assert kr.values({"t": total}) == {"t": expected}


def test_a_product_of_wide_and_narrow_groups_is_still_refused():
    # the same values multiplied by a narrow group: packing does not pay
    narrow = {0: root_of_unity(5, 2)}
    kr = Kronecker.pack(5, {"delta": _wide_among_narrow(), "y": narrow},
                        [(21, ("delta", "y"))])
    assert kr.bits > max(64, 2 * kr.typical)
    # and a map with such entries, times the narrow source at a point of
    # Q(zeta_5), runs slot by slot
    rank = 3
    entries = list(_wide_among_narrow().values())[-rank * rank:]
    lmap = LinearMap(rank, tuple(tuple(entries[rank * k:rank * (k + 1)])
                                 for k in range(rank)))
    assert {c.conductor for row in lmap.matrix for c in row} == {5}
    source = qc_eval(qc_table(rank), [root_of_unity(5, 1)] * rank)
    assert isocheck._packing(lmap, source, cr_table(rank)) is None


def test_repeated_values_share_one_int_and_count_in_the_mean_width(
        monkeypatch):
    # twenty equal copies of a 2^400-wide value and three narrow values,
    # times a narrow group: averaged over all 23 values the typical width is
    # above half the 404-bit digits, so the packing pays; averaged over the
    # four distinct values it would not
    wide = Cyclotomic.from_rational(2 ** 400, 5) - root_of_unity(5)
    values = {k: wide + 0 for k in range(20)}
    values.update({20 + k: root_of_unity(5, k) for k in range(3)})
    y = {0: root_of_unity(5, 2)}
    lifts = []
    original = Cyclotomic.lift

    def counting(self, conductor):
        lifts.append(self)
        return original(self, conductor)

    monkeypatch.setattr(Cyclotomic, "lift", counting)
    kr = Kronecker.pack(10, {"x": values, "y": y}, [(1, ("x", "y"))])
    assert len(lifts) == 5              # once per distinct value
    monkeypatch.undo()
    assert _pays(kr) and kr.bits == 404 and kr._stride == 408
    assert len({kr.packed["x"][k] for k in range(20)}) == 1
    for k, v in values.items():
        product = kr.packed["x"][k] * kr.packed["y"][0]
        assert kr.values({k: product}) == {k: v * y[0]}
    distinct = {k: values[k] for k in (0, 20, 21, 22)}
    assert not _pays(Kronecker.pack(10, {"x": distinct, "y": y},
                                    [(1, ("x", "y"))]))
