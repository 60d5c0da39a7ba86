import json
from fractions import Fraction

import pytest

from crepant.cli import MAX_TABLE_RANK
from crepant.coeffring import BaseScalar
from crepant.corrections import CorrectionFunction, DeltaIndex, PoleError
from crepant.exactnum import Cyclotomic, root_of_unity
from crepant.ringtables import (table_from_json, table_to_json, table_to_latex,
                                table_to_text)
from crepant.tables import (KIND_CUP, ExcClass, ProductTable, cr_table,
                            cup_table, qc_eval, qc_table)

from oracles import (cartan_build, correction_eval, cr_associativity_report,
                     cup_table_by_scalars, degrees, is_homogeneous,
                     qc_table_by_filter, strip_corrections, substitute,
                     swap_lm)

D11, D22, D12 = DeltaIndex(1, 1), DeltaIndex(2, 2), DeltaIndex(1, 2)


def third(x):
    return x.scale(Fraction(1, 3))


# -- Chen-Ruan ---------------------------------------------------------------


def test_cr_rank_two_worked_example():
    t = cr_table(2)
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    assert t.entry(1, 1).s.is_zero()
    assert t.entry(1, 1).e == (BaseScalar.zero(2), third(L))
    assert t.entry(1, 2).s == BaseScalar.const(2, Fraction(1, 3))
    assert all(c.is_zero() for c in t.entry(1, 2).e)
    assert t.entry(2, 2).e == (third(M), BaseScalar.zero(2))


def test_cr_rank_one_half_s():
    t = cr_table(1)
    assert t.entry(1, 1).s == BaseScalar.const(1, Fraction(1, 2))
    assert t.entry(1, 1).e[0].is_zero()


def test_cr_rank_four_three_case_rule():
    t = cr_table(4)
    fifth = Fraction(1, 5)
    assert t.entry(2, 3).s == BaseScalar.const(4, fifth)
    assert t.entry(3, 3).e[0] == BaseScalar.M(4).scale(fifth)
    assert t.entry(1, 2).e[2] == BaseScalar.L(4).scale(fifth)


def test_cr_associativity_inside_the_span():
    for n in range(1, 7):
        ok, checked, skipped = cr_associativity_report(n)
        assert ok
        # triples that would need s * e_l data are reported, not guessed
        for a, b, c in skipped:
            assert (a + b) % (n + 1) == 0 or (b + c) % (n + 1) == 0
        if n >= 2:
            assert checked


# -- cup product of the resolution -------------------------------------------


def test_cup_rank_two_diagonal_entry():
    t = cup_table(2)
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    e11 = t.entry(1, 1)
    assert e11.s == BaseScalar.const(2, -2)
    assert e11.e[0] == third(L.scale(2) + M.scale(3))
    assert e11.e[1] == third(M.scale(2))


def test_cup_rank_two_offdiagonal_entry():
    t = cup_table(2)
    L, M = BaseScalar.L(2), BaseScalar.M(2)
    e12 = t.entry(1, 2)
    assert e12.s == BaseScalar.one(2)
    assert e12.e[0] == third(-L)
    assert e12.e[1] == third(-M)


def test_cup_rank_one():
    t = cup_table(1)
    assert t.entry(1, 1).s == BaseScalar.const(1, -2)
    assert t.entry(1, 1).e[0] == BaseScalar.K(1).scale(2)


def cup_oracle(n):
    """Oracle: the cup table from its defining linear systems.

    The s-part of E_i E_j is -2, 1, 0 for |i-j| = 0, 1, >1, and the degree-2
    part solves c_n alpha = rhs, where rhs carries jK - M / M - (j-1)K for
    adjacent components and M - (j-1)K / -4K / (j+1)K - M on the diagonal
    (positions outside 1..n are dropped); alpha = c_n^-1 rhs.
    """
    cd = cartan_build(n)
    K = BaseScalar.K(n)
    M = BaseScalar.M(n) if n >= 2 else None
    zero = BaseScalar.zero(n)
    entries = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            rhs = [zero] * (n + 2)  # slots 0..n+1
            if j - i == 1:
                s = BaseScalar.one(n)
                rhs[j - 1] = K.scale(j) - M
                rhs[j] = M - K.scale(j - 1)
            elif i == j:
                s = BaseScalar.const(n, -2)
                if j >= 2:
                    rhs[j - 1] = M - K.scale(j - 1)
                rhs[j] = K.scale(-4)
                if j <= n - 1:
                    rhs[j + 1] = K.scale(j + 1) - M
            else:
                s = zero
            alpha = tuple(sum((rhs[m + 1].scale(cd.c_inv[l][m])
                               for m in range(n)), zero)
                          for l in range(n))
            entries[(i, j)] = ExcClass(n, s, alpha)
    return ProductTable(n, KIND_CUP, entries)


def test_cup_closed_form_matches_the_cartan_solve():
    for n in range(1, MAX_TABLE_RANK + 1):
        assert cup_table(n) == cup_oracle(n)


@pytest.mark.parametrize("build, oracle", [
    (cup_table, cup_table_by_scalars),
    (qc_table, qc_table_by_filter),
], ids=["cup", "qc"])
def test_the_builders_match_their_arithmetic_oracles(build, oracle):
    """cup_table writes each h_l from its numerator over n+1 and qc_table
    walks each weighted interval once: the same tables, and the same bytes
    in every format, as BaseScalar arithmetic and per-l filtering give."""
    for n in range(1, MAX_TABLE_RANK + 1):
        got, want = build(n), oracle(n)
        assert got == want
        assert json.dumps(table_to_json(got)) == \
            json.dumps(table_to_json(want))
        assert table_to_text(got) == table_to_text(want)
        assert table_to_latex(got) == table_to_latex(want)


def test_cup_distant_components_vanish():
    t = cup_table(4)
    entry = t.entry(1, 3)
    assert entry.s.is_zero()
    assert all(c.is_zero() for c in entry.e)


# -- quantum corrected --------------------------------------------------------


def test_qc_rank_one_displayed_product():
    t = qc_table(1)
    coeff = t.entry(1, 1).e[0]
    assert t.entry(1, 1).s == BaseScalar.const(1, -2)
    assert coeff.cup == BaseScalar.K(1).scale(2)
    assert coeff.corr == CorrectionFunction(1, {D11: 4})


def test_qc_rank_two_table_matches_displayed_products():
    """Coefficient-by-coefficient fidelity of the rank-2 symbolic table."""
    t = qc_table(2)

    def corr(entry, l):
        return t.entry(*entry).e[l].corr

    assert corr((1, 1), 0) == CorrectionFunction(2, {D11: 4, D12: 1})
    assert corr((1, 1), 1) == CorrectionFunction(2, {D22: 1, D12: 1})
    assert corr((1, 2), 0) == CorrectionFunction(2, {D11: -2, D12: 1})
    assert corr((1, 2), 1) == CorrectionFunction(2, {D22: -2, D12: 1})
    assert corr((2, 2), 0) == CorrectionFunction(2, {D11: 1, D12: 1})
    assert corr((2, 2), 1) == CorrectionFunction(2, {D22: 4, D12: 1})
    # and the delta-free parts agree with the cup table
    cup = cup_table(2)
    for key in t.pairs():
        for l in range(2):
            assert t.entry(*key).e[l].cup == cup.entry(*key).e[l]


@pytest.mark.parametrize("n, count", [(1, 1), (2, 9), (10, 433), (14, 885)])
def test_qc_table_carries_only_the_nonzero_weights(n, count):
    # distinct (i <= j, beta) with (E_i.beta)(E_j.beta) != 0, about 4.5 n^2
    t = qc_table(n)
    triples = {(i, j, b) for i, j in t.pairs()
               for c in t.entry(i, j).e for b in c.corr.terms}
    assert len(triples) == count


def test_qc_eval_rank_one_at_minus_one():
    table = qc_eval(qc_table(1), [Cyclotomic.from_rational(-1)])
    entry = table.entry(1, 1)
    assert entry.s == BaseScalar.const(1, -2)
    assert entry.e[0].is_zero()


def test_qc_eval_pole_at_minus_one_rank_two():
    with pytest.raises(PoleError) as err:
        qc_eval(qc_table(2), [Cyclotomic.from_rational(-1)] * 2)
    assert err.value.index == D12
    assert err.value.entry is not None


def test_qc_eval_finite_at_cube_roots():
    z3 = root_of_unity(3, 1)
    table = qc_eval(qc_table(2), [z3, z3])
    assert table.q == (z3, z3)
    for key in table.pairs():
        assert isinstance(table.entry(*key), ExcClass)


@pytest.mark.parametrize("n,q", [
    (6, [root_of_unity(28, 4)] * 6),
    (4, [root_of_unity(3, 1), root_of_unity(4, 1), root_of_unity(5, 2),
         root_of_unity(20, 3)]),
], ids=["n6-equal-roots", "n4-mixed-roots"])
def test_qc_eval_computes_each_delta_once(monkeypatch, n, q):
    import crepant.corrections as corrections

    calls = []
    original = corrections._delta

    def counting(idx, prod):
        calls.append(tuple(idx))
        return original(idx, prod)

    monkeypatch.setattr(corrections, "_delta", counting)
    qc_eval(qc_table(n), q)
    assert len(calls) == len(set(calls)) <= n * (n + 1) // 2


def test_qc_eval_inverts_once_per_distinct_product(monkeypatch):
    # at q_1 = ... = q_n = zeta the products q_mu...q_nu are zeta^1..zeta^n:
    # n distinct values for n(n+1)/2 deltas, each one inverse of 1 - zeta^d,
    # in closed form
    n = 6
    q = [root_of_unity(28, 4)] * n
    calls = []
    original = Cyclotomic.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    evaluated = qc_eval(qc_table(n), q)
    assert len(calls) == n
    monkeypatch.undo()
    # sharing a value changes no value and no conductor: each coefficient
    # equals its own uncached evaluation, byte for byte
    for key in evaluated.pairs():
        for got, coeff in zip(evaluated.entry(*key).e,
                              qc_table(n).entry(*key).e):
            alone = coeff.cup + BaseScalar.K(n).scale(
                correction_eval(coeff.corr, q))
            assert got.to_json() == alone.to_json()


HALF = Fraction(1, 2)


# (n, q, delta index, product entry) as raised before the delta values were
# cached: the first pole met walking the entries, their coefficients and
# each coefficient's deltas in order, not the first pole in index order
@pytest.mark.parametrize("n,q,index,entry", [
    (3, [-1, -1, 1], (1, 2), (1, 1)),
    (3, [1, HALF, 2], (1, 1), (1, 1)),
    (4, [-1, HALF, 2, 1], (2, 3), (1, 1)),
    (4, [2, -1, 1, 1], (3, 3), (2, 2)),
    (4, [HALF, HALF, 1, 1], (3, 3), (2, 2)),
    (4, [2, 1, HALF, 2], (1, 3), (1, 1)),
    (4, [HALF, 1, 1, 2], (1, 4), (1, 1)),
    (4, [HALF, 2, HALF, 2], (1, 2), (1, 1)),
])
def test_qc_eval_pole_location_at_multi_pole_points(n, q, index, entry):
    with pytest.raises(PoleError) as err:
        qc_eval(qc_table(n), [Cyclotomic.from_rational(x) for x in q])
    assert tuple(err.value.index) == index
    assert err.value.entry == entry


# -- structural properties ----------------------------------------------------


def _tables(n):
    return cr_table(n), cup_table(n), qc_table(n)


def test_symmetry_of_all_tables():
    for n in range(1, 7):
        for table in _tables(n):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert table.entry(i, j) is table.entry(j, i)


def test_degree_homogeneity():
    # s-parts of generator products have degree 0; basis coefficients are
    # homogeneous of degree 0 or 2, so each term has total degree 4
    for n in range(1, 7):
        crt, cupt, qct = _tables(n)
        for table in (crt, cupt):
            for key in table.pairs():
                entry = table.entry(*key)
                assert degrees(entry.s) <= {0}
                for coeff in entry.e:
                    assert degrees(coeff) <= {0, 2}
                    assert is_homogeneous(coeff)
        # every correction multiplies K
        assert degrees(BaseScalar.K(n)) <= {2}
        for key in qct.pairs():
            entry = qct.entry(*key)
            assert degrees(entry.s) <= {0}
            for coeff in entry.e:
                assert degrees(coeff.cup) <= {0, 2}


def test_stripping_deltas_recovers_cup_table():
    for n in range(1, 7):
        assert strip_corrections(qc_table(n)) == cup_table(n)


def _involute_entry(entry, n):
    """sigma: E_l -> E_{n+1-l}, L <-> M, delta_{mu nu} -> reflected index.

    The class K that every correction multiplies is fixed by L <-> M.
    """
    e = []
    for l in range(1, n + 1):
        src = entry.e[(n + 1 - l) - 1]
        if isinstance(src, BaseScalar):
            e.append(swap_lm(src))
        else:
            corr = CorrectionFunction(
                n, {DeltaIndex(n + 1 - idx.nu, n + 1 - idx.mu): c
                    for idx, c in src.corr.terms.items()})
            e.append(type(src)(swap_lm(src.cup), corr))
    cls = type(entry)
    return cls(n, swap_lm(entry.s), tuple(e))


def test_relabeling_involution_maps_each_table_to_itself():
    for n in range(1, 5):
        for table in _tables(n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    image = _involute_entry(table.entry(i, j), n)
                    target = table.entry(n + 1 - i, n + 1 - j)
                    assert image == target, (table.kind, n, i, j)


def test_symplectic_degeneration_kills_all_corrections():
    # substituting M = -L makes K = 0, so the quantum table IS the cup table
    for n in range(1, 7):
        sub = {"K": BaseScalar.zero(1)} if n == 1 \
            else {"M": -BaseScalar.L(n)}
        qs = substitute(qc_table(n), sub)
        cs = substitute(cup_table(n), sub)
        for key in qs.pairs():
            qe, ce = qs.entry(*key), cs.entry(*key)
            assert qe.s == ce.s
            for l in range(n):
                assert substitute(BaseScalar.K(n), sub).is_zero()
                assert qe.e[l].cup == ce.e[l]


# -- emitters ------------------------------------------------------------------


def test_text_emitter_rank_two_cr():
    lines = table_to_text(cr_table(2)).splitlines()
    assert lines == ["e1 . e1 = [1/3*L]*e2",
                     "e1 . e2 = 1/3*S",
                     "e2 . e2 = [1/3*M]*e1"]


def test_text_emitter_rank_one_symbolic():
    assert table_to_text(qc_table(1)) == \
        "E1 * E1 = -2*S + [2*K + (4*d11)*K]*E1"


def test_latex_emitter_contains_deltas():
    doc = table_to_latex(qc_table(2))
    assert "\\delta_{11}" in doc and "\\ast_{\\rho}" in doc
    assert doc.startswith("\\begin{align*}")


def test_json_roundtrip_all_kinds():
    z3 = root_of_unity(3, 1)
    tables = [cr_table(3), cup_table(2),
              *(qc_table(n) for n in range(1, 10)),
              qc_eval(qc_table(2), [z3, z3])]
    for table in tables:
        doc = json.loads(json.dumps(table_to_json(table), sort_keys=True))
        assert table_from_json(doc) == table


def test_a_quantum_coefficient_whose_mult_is_not_k_is_refused():
    doc = json.loads(json.dumps(table_to_json(qc_table(2))))
    assert table_from_json(doc) == qc_table(2)
    doc["entries"][0]["e"][1]["mult"] = BaseScalar.L(2).to_json()
    with pytest.raises(ValueError):
        table_from_json(doc)


def test_a_mult_is_parsed_only_when_it_is_not_ks_json(monkeypatch):
    import crepant.ringtables as rt

    doc = json.loads(json.dumps(table_to_json(qc_table(2))))
    parsed = []
    real = BaseScalar.from_json

    def spy(data, **kwargs):
        parsed.append(data)
        return real(data, **kwargs)

    monkeypatch.setattr(rt.BaseScalar, "from_json", spy)
    assert table_from_json(doc) == qc_table(2)
    # each entry's s part and each coefficient's cup part, no "mult"
    assert len(parsed) == 3 + 3 * 2
    kappa = doc["entries"][0]["e"][1]["mult"]
    assert kappa == BaseScalar.K(2).to_json()
    # K spelled another way is still K, read by the parser
    kappa["terms"][0]["coeff"]["coeffs"] = ["2/6"]
    parsed.clear()
    assert table_from_json(doc) == qc_table(2)
    assert len(parsed) == 3 + 3 * 2 + 1
    # equal to K's JSON in Python but not as JSON: parsed, and refused as
    # the parser refuses a conductor that is not an int
    for conductor, name in ((1.0, "float"), (True, "bool")):
        kappa["terms"][0]["coeff"] = {"conductor": conductor,
                                      "coeffs": ["1/3"]}
        assert kappa == BaseScalar.K(2).to_json()
        with pytest.raises(ValueError, match=f"conductor must be an int, "
                           f"not {name}"):
            table_from_json(doc)


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("leaf", ["rank", "exponent", "conductor"])
def test_a_mult_equal_to_ks_json_only_in_python_is_parsed_and_refused(
        leaf, value):
    # at rank 1 K's JSON holds "rank" 1, one "exp_k" 1 and one "conductor"
    # 1, each equal in Python to true and 1.0
    doc = json.loads(json.dumps(table_to_json(qc_table(1))))
    kappa = doc["entries"][0]["e"][0]["mult"]
    assert kappa == BaseScalar.K(1).to_json()
    term = kappa["terms"][0]
    holder, key = {"rank": (kappa, "rank"), "exponent": (term, "exp_k"),
                   "conductor": (term["coeff"], "conductor")}[leaf]
    holder[key] = value
    assert kappa == BaseScalar.K(1).to_json()
    with pytest.raises(ValueError, match="must be an int, not "
                       f"{type(value).__name__}"):
        table_from_json(doc)


def _quantum_doc(n=2):
    return json.loads(json.dumps(table_to_json(qc_table(n))))


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


# A cup coefficient with a term on L: terms[0] has "exp_l" and "exp_m".
_CUP = ("entries", 0, "e", 0, "cup")
_CORR_TERM = ("entries", 0, "e", 0, "corr", "terms", 0)


@pytest.mark.parametrize("edit, field", [
    (_set(_CUP + ("terms", 0, "exp_l"), 1.0), '"exp_l"'),
    (_set(_CUP + ("terms", 0, "exp_m"), False), '"exp_m"'),
    (_set(_CORR_TERM + ("mu",), 1.0), '"mu"'),
    (_set(_CORR_TERM + ("nu",), True), '"nu"'),
    (_set(("entries", 0, "i"), True), '"i"'),
    (_set(("entries", 0, "j"), 1.0), '"j"'),
    (_set(_CUP + ("rank",), 3), '"rank"'),
    (_set(("entries", 0, "s", "rank"), 1), '"rank"'),
    (_set(_CUP + ("rank",), True), '"rank"'),
    (lambda doc: doc["entries"][0]["e"].pop(), '"e"'),
    (lambda doc: doc["entries"].pop(), '"entries"'),
    (lambda doc: doc["entries"].append(doc["entries"][0]), "repeated"),
    (_set(("entries", 0, "j"), 3), "out of range"),
    (_set(("kind",), "bogus"), '"kind"'),
    (_set(("n",), 2.0), '"n"'),
    (_set(("n",), True), '"n"'),
    (_set(("n",), 0), '"n"'),
], ids=["exp_l-float", "exp_m-bool", "mu-float", "nu-bool", "i-bool",
        "j-float", "coeff-rank-3", "s-rank-1", "rank-bool", "short-e",
        "missing-pair", "repeated-pair", "j-past-n", "bogus-kind",
        "n-float", "n-bool", "n-zero"])
def test_a_malformed_table_is_refused_naming_the_field(edit, field):
    doc = _quantum_doc()
    assert table_from_json(doc) == qc_table(2)
    edit(doc)
    with pytest.raises(ValueError, match=field):
        table_from_json(doc)


_ZERO_COEFF = {"conductor": 1, "coeffs": ["0"]}
_S = ("entries", 0, "s")


def _append(path, item):
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc.append(item(doc) if callable(item) else item)
    return edit


@pytest.mark.parametrize("n, edit, field", [
    (2, _append(_CORR_TERM[:-1], {"mu": 2, "nu": 2, "coeff": _ZERO_COEFF}),
     '"coeff"'),
    (2, _append(_CUP + ("terms",),
                {"coeff": _ZERO_COEFF, "exp_l": 0, "exp_m": 0}), '"coeff"'),
    (2, _append(_S + ("terms",),
                {"coeff": _ZERO_COEFF, "exp_l": 1, "exp_m": 0}), '"coeff"'),
    (2, _append(_CORR_TERM[:-1], lambda terms: {
        **terms[0], "coeff": {"conductor": 1, "coeffs": ["7"]}}),
     '"mu", "nu"'),
    (2, _append(_CUP + ("terms",), lambda terms: {
        **terms[0], "coeff": {"conductor": 1, "coeffs": ["5"]}}),
     '"exp_l", "exp_m"'),
    (2, _append(_S + ("terms",), lambda terms: terms[0]),
     '"exp_l", "exp_m"'),
    (1, _append(_CUP + ("terms",), lambda terms: terms[0]), '"exp_k"'),
], ids=["zero-weight", "zero-cup-coeff", "zero-s-coeff", "repeated-delta",
        "repeated-cup-monomial", "repeated-s-monomial",
        "repeated-rank-one-monomial"])
def test_a_zero_or_repeated_term_is_refused_naming_the_field(n, edit, field):
    # each would read back as an equal table written as other JSON, or, as
    # the later term replaced the earlier one, as another table
    doc = _quantum_doc(n)
    assert table_from_json(doc) == qc_table(n)
    edit(doc)
    with pytest.raises(ValueError, match=field):
        table_from_json(doc)


@pytest.mark.parametrize("kind", ["cr", "cup"])
def test_a_malformed_scalar_table_is_refused(kind):
    table = {"cr": cr_table, "cup": cup_table}[kind](3)
    doc = json.loads(json.dumps(table_to_json(table)))
    assert table_from_json(doc) == table
    s = next(e["s"] for e in doc["entries"] if e["s"]["terms"])
    s["terms"][0]["coeff"]["conductor"] = 1.0
    with pytest.raises(ValueError, match="conductor must be an int"):
        table_from_json(doc)
    doc = json.loads(json.dumps(table_to_json(table)))
    doc["entries"][-1]["e"].append(doc["entries"][-1]["e"][0])
    with pytest.raises(ValueError, match='"e"'):
        table_from_json(doc)


@pytest.mark.parametrize("conductor, name", [(True, "bool"), (1.0, "float")])
def test_a_shared_parse_never_admits_a_conductor_that_is_not_an_int(
        conductor, name):
    # the cup part on M reads {"conductor": 1, "coeffs": ["1"]} before the
    # weight of d12, which is then made equal to it in Python only
    doc = _quantum_doc()
    term = doc["entries"][0]["e"][0]["corr"]["terms"][-1]
    assert term["coeff"] == {"conductor": 1, "coeffs": ["1"]}
    term["coeff"] = {"conductor": conductor, "coeffs": ["1"]}
    assert term["coeff"] == {"conductor": 1, "coeffs": ["1"]}
    with pytest.raises(ValueError, match=f"conductor must be an int, "
                       f"not {name}"):
        table_from_json(doc)


def test_each_distinct_coordinate_document_is_parsed_once_per_read(
        monkeypatch):
    doc = _quantum_doc(4)
    documents = set()

    def walk(x):
        if isinstance(x, dict):
            if "conductor" in x:
                documents.add(json.dumps(x, sort_keys=True))
            else:
                for v in x.values():
                    walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)
    parsed = []
    real = Cyclotomic.from_json

    def spy(data):
        parsed.append(json.dumps(data, sort_keys=True))
        return real(data)

    monkeypatch.setattr(Cyclotomic, "from_json", spy)
    for _ in range(2):
        parsed.clear()
        assert table_from_json(doc) == qc_table(4)
        # every document but K's "mult", which is compared as JSON, once
        # per call: the second call parses them all again
        assert sorted(parsed) == sorted(set(parsed))
        assert set(parsed) | {json.dumps(t["coeff"], sort_keys=True)
                              for t in doc["entries"][0]["e"][0]["mult"]
                              ["terms"]} == documents


@pytest.mark.parametrize("field, value", [
    ("constant", Cyclotomic.from_rational(1)),
    ("coeff", Cyclotomic.from_rational(Fraction(1, 2))),
    ("coeff", root_of_unity(3, 1)),
], ids=["nonzero-constant", "half-weight", "zeta3-weight"])
def test_a_correction_that_is_not_an_integer_combination_is_refused(
        field, value):
    doc = json.loads(json.dumps(table_to_json(qc_table(2))))
    corr = doc["entries"][0]["e"][0]["corr"]
    if field == "constant":
        corr["constant"] = value.to_json()
    else:
        corr["terms"][0]["coeff"] = value.to_json()
    with pytest.raises(ValueError):
        table_from_json(doc)


def test_json_output_is_deterministic():
    a = json.dumps(table_to_json(qc_table(2)), sort_keys=True)
    b = json.dumps(table_to_json(qc_table(2)), sort_keys=True)
    assert a == b


def test_the_builders_are_bound_beside_the_emitters():
    # callers that read a table's builders and its emitters from one module
    from crepant import ringtables, tables

    for name in ("cr_table", "cup_table", "qc_table", "qc_eval"):
        assert getattr(ringtables, name) is getattr(tables, name)
