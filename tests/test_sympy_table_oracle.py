"""An independent sympy oracle for the delta values and `qc_eval`, n <= 3.

Everything on the oracle's side is computed from the formulas in the
`corrections` and `ringtables` docstrings, in sympy's QQ[x] modulo
cyclotomic_poly(N), with no `Cyclotomic`, `BaseScalar` or table of the
package:

* delta_{mu nu}(q) = P/(1 - P), P = q_mu ... q_nu, through sympy's modular
  inverse;
* the cup table in closed form: with N' = n+1, h_l = (l/N') L for l <= i
  and ((N'-l)/N') M for l > i; E_i E_i = -2s + sum_l 2 h_l E_l
  + (M - (i-1)K) E_i, E_i E_{i+1} = s - sum_l h_l E_l, E_i E_j = 0 for
  |i-j| > 1, and E E = -2s + 2K E at rank one; K = (L + M)/(n+1), or K
  itself at rank one;
* the correction: E_l in E_i E_j gains sum over b = beta_{mu nu} with
  mu <= l <= nu of (E_i.b)(E_j.b) delta_b(q) K, where
  E_i.b = [mu <= i-1 <= nu] + [mu <= i+1 <= nu] - 2[mu <= i <= nu].

The conductors follow the documented rules: `qc_eval` lifts the point into
Q(zeta_N), N the lcm of its entries' conductors, and computes every delta
there; a coefficient whose correction sums to zero keeps its cup value, of
conductor 1; one that gains a nonzero correction has conductor N; a zero
coefficient is not written.  `delta_eval` at the point as given has the lcm
of its interval's conductors.  Both sides are compared as the JSON that
`table_to_json` and `Cyclotomic.to_json` write.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from crepant.corrections import DeltaIndex, delta_eval  # noqa: E402
from crepant.exactnum import root_of_unity  # noqa: E402
from crepant.ringtables import qc_eval, qc_table, table_to_json  # noqa: E402

X = sympy.Symbol("x")


def _scan_points():
    """Every scan root zeta^m, q_k = zeta_{4(n+1)}^(4m), for n = 1..3."""
    for n in range(1, 4):
        for m in range(1, n + 1):
            if math.gcd(m, n + 1) == 1:
                yield n, ((4 * (n + 1), 4 * m),) * n


# each q_k as (conductor, exponent): zeta_conductor^exponent
POINTS = list(_scan_points()) + [(2, ((3, 1), (5, 1)))]   # e:1/3,e:1/5


class Field:
    """Q(zeta_N) as QQ[x] modulo sympy's cyclotomic_poly(N)."""

    def __init__(self, conductor):
        self.conductor = conductor
        self.phi = sympy.Poly(sympy.cyclotomic_poly(conductor, X), X,
                              domain="QQ")

    def poly(self, expr):
        return sympy.Poly(expr, X, domain="QQ").rem(self.phi)

    def root(self, conductor, exponent):
        """zeta_conductor^exponent, conductor | N."""
        step = self.conductor // conductor
        return self.poly(X ** (exponent * step % self.conductor))

    def delta(self, point, mu, nu):
        prod = self.poly(1)
        for conductor, exponent in point[mu - 1:nu]:
            prod = (prod * self.root(conductor, exponent)).rem(self.phi)
        return (prod * (self.poly(1) - prod).invert(self.phi)).rem(self.phi)

    def to_json(self, value):
        coeffs = value.all_coeffs()[::-1]
        coeffs += [0] * (self.phi.degree() - len(coeffs))
        return {"conductor": self.conductor,
                "coeffs": [str(Fraction(str(c))) for c in coeffs]}


def _rational_json(r):
    return {"conductor": 1, "coeffs": [str(Fraction(r))]}


def _scalar_json(n, terms):
    """A scalar {monomial: coefficient JSON} as `BaseScalar.to_json` writes
    it: constants first, then L powers before M powers."""
    out = []
    for mono in sorted(terms, key=lambda m: (sum(m), tuple(-e for e in m))):
        entry = {"coeff": terms[mono]}
        if n == 1:
            entry["exp_k"] = mono[0]
        else:
            entry["exp_l"], entry["exp_m"] = mono
        out.append(entry)
    return {"rank": n, "terms": out}


def _monomials(n):
    """(constant, L, M, K as {monomial: rational})."""
    if n == 1:
        return (0,), None, None, {(1,): Fraction(1)}
    k = Fraction(1, n + 1)
    return (0, 0), (1, 0), (0, 1), {(1, 0): k, (0, 1): k}


def _cup_entry(n, i, j):
    """(s, [E_l coefficients]) of E_i E_j, each {monomial: Fraction}."""
    _, L, M, K = _monomials(n)
    if n == 1:
        return -2, [{mono: 2 * c for mono, c in K.items()}]
    if j - i > 1:
        return 0, [{} for _ in range(n)]
    big = n + 1
    h = [{L: Fraction(l, big)} if l <= i else {M: Fraction(big - l, big)}
         for l in range(1, n + 1)]
    if i == j:
        e = [{mono: 2 * c for mono, c in hl.items()} for hl in h]
        extra = {M: Fraction(1)}
        for mono, c in K.items():
            extra[mono] = extra.get(mono, 0) - (i - 1) * c
        for mono, c in extra.items():
            e[i - 1][mono] = e[i - 1].get(mono, 0) + c
        return -2, e
    return 1, [{mono: -c for mono, c in hl.items()} for hl in h]


def _pairing(i, mu, nu):
    return ((mu <= i - 1 <= nu) + (mu <= i + 1 <= nu)
            - 2 * (mu <= i <= nu))


def _oracle_table(n, point):
    field = Field(math.lcm(*(c for c, _ in point)))
    const, _, _, K = _monomials(n)
    betas = [(mu, nu) for mu in range(1, n + 1) for nu in range(mu, n + 1)]
    deltas = {b: field.delta(point, *b) for b in betas}
    entries = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            s, cup = _cup_entry(n, i, j)
            e = []
            for l, coeff in enumerate(cup, start=1):
                corr = field.poly(0)
                for mu, nu in betas:
                    if mu <= l <= nu:
                        w = _pairing(i, mu, nu) * _pairing(j, mu, nu)
                        corr += w * deltas[mu, nu]
                terms = {mono: _rational_json(c)
                         for mono, c in coeff.items() if c}
                if not corr.is_zero:
                    for mono, k in K.items():
                        total = field.poly(sympy.Rational(
                            coeff.get(mono, 0))) + k * corr
                        if total.is_zero:
                            terms.pop(mono, None)
                        else:
                            terms[mono] = field.to_json(total)
                e.append(_scalar_json(n, terms))
            entries.append({"i": i, "j": j, "e": e, "s": _scalar_json(
                n, {const: _rational_json(s)} if s else {})})
    return {"n": n, "kind": "quantum_at", "entries": entries,
            "q": [field.to_json(field.root(c, x)) for c, x in point]}


def _ids(case):
    n, point = case
    return f"n{n}-" + ",".join(f"e:{x}/{c}" for c, x in point)


@pytest.mark.parametrize("case", POINTS, ids=[_ids(c) for c in POINTS])
def test_qc_eval_matches_the_sympy_oracle(case):
    n, point = case
    q = [root_of_unity(c, x) for c, x in point]
    assert table_to_json(qc_eval(qc_table(n), q)) == _oracle_table(n, point)


@pytest.mark.parametrize("case", POINTS, ids=[_ids(c) for c in POINTS])
def test_delta_matches_the_sympy_oracle(case):
    n, point = case
    q = [root_of_unity(c, x) for c, x in point]
    lifted = Field(math.lcm(*(c for c, _ in point)))
    for mu in range(1, n + 1):
        for nu in range(mu, n + 1):
            own = Field(math.lcm(*(c for c, _ in point[mu - 1:nu])))
            idx = DeltaIndex(mu, nu)
            assert (delta_eval(idx, q).to_json()
                    == own.to_json(own.delta(point, mu, nu)))
            assert (delta_eval(idx, [x.lift(lifted.conductor)
                                     for x in q]).to_json()
                    == lifted.to_json(lifted.delta(point, mu, nu)))
