"""`qc_eval`'s packed corrections against the `QCoeff.eval` path.

When (a) every delta value at the point has one conductor N, (b) every
correction constant is zero and (c) every weight is an integer (constants
and weights stored in subfields of Q(zeta_N)), `qc_eval` sums each
correction as Kronecker-packed integers and scales K by each distinct sum
once; otherwise, and when packing does not pay, it evaluates coefficient by
coefficient through `QCoeff.eval`.
Both must give the same table, byte for byte, conductors included, and the
same pole; the `QCoeff.eval` path is the oracle here.
"""

import json
from fractions import Fraction

import pytest

from crepant import ringtables
from crepant.corrections import PoleError
from crepant.exactnum import Cyclotomic, Kronecker, root_of_unity
from crepant.isocheck import conjecture_scan
from crepant.ringtables import qc_eval, qc_table, table_to_json


def _outcome(table, q):
    """The evaluated table's JSON, or the pole's (index, entry)."""
    try:
        return json.dumps(table_to_json(qc_eval(table, q)), sort_keys=True)
    except PoleError as exc:
        return tuple(exc.index), exc.entry


def _assert_routes_agree(table, q):
    packed = _outcome(table, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringtables, "_packed_values", lambda *args: None)
        # a boolean, so that a failure does not diff two large documents
        same = _outcome(table, q) == packed
    assert same, f"the routes differ at q = {list(map(str, q))}"
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
        _assert_routes_agree(table, [root_of_unity(4 * (n + 1), 4 * m)] * n)


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
    _assert_routes_agree(qc_table(n), q)


def test_rank_one_at_minus_one_cancels():
    # the correction -2 K cancels the cup part 2 K: the coefficient is zero
    doc = json.loads(_assert_routes_agree(qc_table(1), _rationals(-1)))
    assert doc["entries"][0]["e"] == [{"rank": 1, "terms": []}]


def test_a_refused_packing_evaluates_the_same(monkeypatch):
    n = 6
    q = [root_of_unity(28, 4)] * n
    table = qc_table(n)
    expected = _outcome(table, q)
    monkeypatch.setattr(Kronecker, "pack", lambda *args: None)
    assert _assert_routes_agree(table, q) == expected


def test_scan_points_take_the_packed_route(monkeypatch):
    routes = []
    original = ringtables._packed_values

    def spy(*args):
        out = original(*args)
        routes.append(out is not None)
        return out

    monkeypatch.setattr(ringtables, "_packed_values", spy)
    conjecture_scan(4)
    assert routes == [True, True, True, True]
    routes.clear()
    qc_eval(qc_table(4), MIXED)
    assert routes == [False]


def test_a_single_group_shape_holds_signed_weights_at_its_bound():
    # weights 3 and -1 on x and -x sum to 4 x, whose constant digit
    # 4 (2^62 + 1) passes 2^63: it fits only because the shape declares
    # T = sum |w| = 4; a narrower shape would overflow into the next digit
    x = Cyclotomic.from_rational(2 ** 62 + 1, 4) - root_of_unity(4)
    weights = {"a": 3, "b": -1}
    kr = Kronecker.pack(4, {"delta": {"a": x, "b": -x}},
                        [(sum(map(abs, weights.values())), ("delta",))])
    total = sum(w * kr.packed["delta"][k] for k, w in weights.items())
    assert kr.values(0, {"t": total}) == {"t": 4 * x}
