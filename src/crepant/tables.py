"""The three product tables on the exceptional algebra, and the quantum
table at a point.

All three rings share the same underlying space: the formal class
s = i_*[S] in H^4(Y) plus n degree-2 generators (e_1..e_n for the orbifold
ring, E_1..E_n for the resolution).  A table records every product of two
degree-2 generators as an `ExcClass`; products against H*(Y) act by pullback
on both sides of the comparison and impose no constraints, so they are not
tabulated.

* `cr_table(n)` -- orbifold cup product: e_a e_b is s/(n+1) on antidiagonal
  pairs (a+b = 0 mod n+1), L e_{a+b}/(n+1) below the antidiagonal and
  M e_{a+b-n-1}/(n+1) above it.  For n = 1 the obstruction bundle has rank
  zero and the single entry is e e = s/2.
* `cup_table(n)` -- resolution cup product, in closed form.  With N = n+1
  let h^(i) be column i of -c_n^-1, that is l(N-i)/N for l <= i and
  i(N-l)/N for l > i, with the factor N-i replaced by L and the factor i by
  M: h_l = (l/N) L for l <= i and ((N-l)/N) M for l > i.  Then
  E_i E_{i+1} = s - sum_l h_l E_l,
  E_i E_i = -2s + sum_l 2 h_l E_l + (M - (i-1)K) E_i, and E_i E_j = 0 for
  |i-j| > 1; at rank one E E = -2s + 2K E.  Every h_l is rational over the
  one denominator N, so 2 h_l and -h_l are each written from an integer
  numerator over N (2l or -l on L, 2(N-l) or -(N-l) on M), once per table,
  and row i takes the first i of the L forms and the rest of the M forms.
  The diagonal correction (M - (i-1)K) E_i stays the `BaseScalar` sum it
  reads as: it is the one term that mixes L and M, it runs once per row,
  and it keeps scalar addition, negation and scaling on the table path,
  which the `tables` workload of `bench/` traces and expects to see.
* `qc_table(n)` -- quantum-corrected product: the cup table plus
  sum_l [sum_{mu <= l <= nu} (E_i.b)(E_j.b) delta_{mu nu}(q)] K E_l with
  b = beta_{mu nu}, kept symbolic in the delta basis; `qc_eval` specializes
  it at an exact q-point.  The pairing E_i.b (`beta_pairing`) is the row sum
  of c_n over mu..nu, in closed form
  [mu <= i-1 <= nu] + [mu <= i+1 <= nu] - 2[mu <= i <= nu].  Each weighted
  class b is written into the corrections of E_mu..E_nu by walking its
  interval once, not looked up again for every l.

`qc_eval` lifts the point into one field Q(zeta_N), N the lcm of its
entries' conductors, and computes every delta value there first, so every
value has conductor N.  That walk is `point_deltas`, which
`transport.transport_check` shares when it checks the symbolic table at a
point straight from its delta values.  `cache_deltas` returns at once for
a correction whose deltas are all cached, where its walk would do nothing,
so the walk order, and the (index, entry) of a PoleError, are unchanged.
Each correction sum_b w_b delta_b, its weights integers, is then one sum of
Kronecker-packed integers (`exactnum.Kronecker`, whose one kind of term is
a single delta value), read back at N and scaled by K's rational
coefficient once per distinct sum (`qc_eval_at`).  A sum of single values
multiplies nothing, and costs one big-integer addition per term however
wide its digits, so it always runs packed.  The cup part gains the scaled
monomials by `BaseScalar` addition, and a correction that sums to zero
leaves it as it is.  These are the values and conductors that summing each
correction term by term as Cyclotomics at the lifted point and adding K
scaled by it gives, the reference the tests hold it to.  And each distinct
pair of a cup part and a packed sum is built into its coefficient once per
call and shared by every coefficient with that pair: `cup_table` shares
its row objects among the entries, and a `BaseScalar` is immutable, so
sharing changes no value.

The emitters and the JSON reader are `ringtables`'.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeffring import BaseScalar, coerce
from .corrections import (CorrectionFunction, DeltaIndex, PoleError,
                          cache_deltas)
from .exactnum import Cyclotomic, Kronecker
from .record import Record

KIND_CR = "chen_ruan"
KIND_CUP = "cup"
KIND_QUANTUM = "quantum"
KIND_QUANTUM_AT = "quantum_at"
KINDS = (KIND_CR, KIND_CUP, KIND_QUANTUM, KIND_QUANTUM_AT)


class ExcClass(Record):
    """s_coeff * s + sum basis_coeffs[l] * (generator l+1).

    The basis coefficients are BaseScalars, or QCoeffs in a symbolic quantum
    table, whose coefficients still carry delta terms.
    """

    __slots__ = ("n", "s", "e")

    def is_zero(self) -> bool:
        return self.s.is_zero() and all(c.is_zero() for c in self.e)

    def to_json(self, coeff=lambda c: c.to_json()):
        """`coeff` writes one basis coefficient."""
        return {"s": self.s.to_json(), "e": [coeff(c) for c in self.e]}


class QCoeff(Record):
    """A symbolic basis coefficient: cup + corr(q) * K.

    Every correction multiplies the same class K = `BaseScalar.K(n)`, the
    paper's sum over b of (E_i.b)(E_j.b) delta_b(q) K, so K is not stored.
    """

    __slots__ = ("cup", "corr")

    def __str__(self):
        if self.corr.is_zero():
            return str(self.cup)
        head = f"({self.corr})*K"
        if self.cup.is_zero():
            return head
        return f"{self.cup} + {head}"

    def to_json(self, mult=None):
        """`mult` is K's JSON; a table's document shares one such dict."""
        if mult is None:
            mult = BaseScalar.K(self.cup.n).to_json()
        return {"cup": self.cup.to_json(), "corr": self.corr.to_json(),
                "mult": mult}


class ProductTable:
    """Symmetric table of all degree-2 x degree-2 products of one ring."""

    __slots__ = ("n", "kind", "q", "_entries")

    def __init__(self, n: int, kind: str, entries: dict, q=None):
        self.n = n
        self.kind = kind
        self.q = tuple(q) if q is not None else None
        self._entries = dict(entries)

    def entry(self, i: int, j: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("index out of range")
        return self._entries[(i, j) if i <= j else (j, i)]

    def pairs(self):
        return sorted(self._entries)

    def generator_name(self) -> str:
        return "e" if self.kind == KIND_CR else "E"

    def __eq__(self, other):
        if not isinstance(other, ProductTable):
            return NotImplemented
        return (self.n == other.n and self.kind == other.kind
                and self.q == other.q and self._entries == other._entries)


def cr_table(n: int) -> ProductTable:
    """The Chen-Ruan table on generators e_1..e_n.

    >>> t = cr_table(2)
    >>> print(t.entry(1, 1).e[1])
    1/3*L
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    frac = Fraction(1, n + 1)
    zero, s = BaseScalar.zero(n), BaseScalar.const(n, frac)
    if n == 1:
        return ProductTable(1, KIND_CR, {(1, 1): ExcClass(1, s, (zero,))})
    low, high = BaseScalar.L(n).scale(frac), BaseScalar.M(n).scale(frac)
    entries = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            e = [zero] * n
            if a + b < n + 1:
                e[a + b - 1] = low
            elif a + b > n + 1:
                e[a + b - n - 2] = high
            entries[(a, b)] = ExcClass(n, s if a + b == n + 1 else zero,
                                       tuple(e))
    return ProductTable(n, KIND_CR, entries)


def cup_table(n: int) -> ProductTable:
    """The cup product table of the crepant resolution on E_1..E_n.

    >>> print(cup_table(2).entry(1, 1).e[0])
    2/3*L + M
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    minus_two = BaseScalar.const(n, -2)
    if n == 1:
        return ProductTable(1, KIND_CUP, {(1, 1): ExcClass(
            1, minus_two, (BaseScalar.K(1).scale(2),))})
    M, K = BaseScalar.M(n), BaseScalar.K(n)

    def multiples(factor):
        # factor * h_l for l = 1..n, as the l <= i and the l > i forms;
        # row i's classes are low[:i] + high[i:]
        low = [BaseScalar._make(n, {(1, 0): Cyclotomic._make(
            1, (factor * l,), n + 1)}) for l in range(1, n + 1)]
        high = [BaseScalar._make(n, {(0, 1): Cyclotomic._make(
            1, (factor * (n + 1 - l),), n + 1)}) for l in range(1, n + 1)]
        return low, high

    (low2, high2), (low_neg, high_neg) = multiples(2), multiples(-1)
    one, zero = BaseScalar.one(n), BaseScalar.zero(n)
    nothing = ExcClass(n, zero, (zero,) * n)
    entries = {}
    for i in range(1, n + 1):
        diag = low2[:i] + high2[i:]
        diag[i - 1] = diag[i - 1] + M - K.scale(i - 1)
        entries[(i, i)] = ExcClass(n, minus_two, tuple(diag))
        if i < n:
            entries[(i, i + 1)] = ExcClass(
                n, one, tuple(low_neg[:i] + high_neg[i:]))
        for j in range(i + 2, n + 1):
            entries[(i, j)] = nothing
    return ProductTable(n, KIND_CUP, entries)


def beta_pairing(n: int, i: int, mu: int, nu: int) -> int:
    """E_i . beta_{mu nu}, all indices 1-based: -2 if i = mu = nu, -1 if i
    is one end of a longer interval, 1 next to either end, 0 otherwise.

    >>> [beta_pairing(4, i, 2, 3) for i in range(1, 5)]
    [1, -1, -1, 1]
    """
    if not (1 <= i <= n and 1 <= mu <= nu <= n):
        raise ValueError("index out of range")
    return ((mu <= i - 1 <= nu) + (mu <= i + 1 <= nu)
            - 2 * (mu <= i <= nu))


def qc_table(n: int) -> ProductTable:
    """The quantum-corrected table, symbolic in the delta basis.

    >>> print(qc_table(1).entry(1, 1).e[0])
    2*K + (4*d11)*K
    """
    cup = cup_table(n)
    betas = [DeltaIndex(mu, nu) for mu in range(1, n + 1)
             for nu in range(mu, n + 1)]
    # the nonzero pairings E_i.b for each i, b in (mu, nu) order; each i
    # meets only the O(n) classes beginning or ending at or next to it
    pairings = [{b: w for b in betas if (w := beta_pairing(n, i, *b))}
                for i in range(1, n + 1)]
    entries = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            base = cup.entry(i, j)
            # E_i * E_j gains (E_i.b)(E_j.b) delta_b K on E_l for every
            # class b = beta_{mu nu} with mu <= l <= nu and nonzero weight:
            # each b is written into the n correction dicts of its interval
            pj = pairings[j - 1]
            corrs = [{} for _ in range(n)]
            for b, w in pairings[i - 1].items():
                if b in pj:
                    w *= pj[b]
                    for l in range(b.mu - 1, b.nu):
                        corrs[l][b] = w
            entries[(i, j)] = ExcClass(n, base.s, tuple(
                QCoeff(c, CorrectionFunction._make(n, corr))
                for c, corr in zip(base.e, corrs)))
    return ProductTable(n, KIND_QUANTUM, entries)


def qc_eval(table: ProductTable, q) -> ProductTable:
    """Specialize a symbolic quantum table at an exact q-point.

    The point is lifted into Q(zeta_N), N the lcm of its entries'
    conductors, and the table stores it so.  The delta values are those of
    `point_deltas`, which raises a PoleError naming the product entry (i, j)
    and the delta index at which the family is undefined.  The coefficients
    are then summed as Kronecker-packed integers (see the module docstring).
    """
    if table.kind != KIND_QUANTUM:
        raise ValueError("qc_eval expects a symbolic quantum table")
    return qc_eval_at(table, *point_deltas(table, q))


def point_deltas(table: ProductTable, q) -> tuple[list, dict]:
    """The point q lifted into Q(zeta_N), N the lcm of its entries'
    conductors, and the value there of every delta the symbolic quantum
    table uses, by index, each of conductor N.

    Each delta value is computed at most once per distinct exact product
    q_mu...q_nu: at q_1 = ... = q_n that is at most n values, not
    n(n+1)/2.  They are computed walking the entries in order, each entry's
    coefficients in order and each coefficient's deltas in order
    (`corrections.cache_deltas`), so a PoleError names both the product
    entry (i, j) and the delta index at which the family is undefined: the
    first one met on that walk.
    """
    q = [coerce(x) for x in q]
    if len(q) != table.n:
        raise ValueError(f"expected {table.n} q-values")
    conductor = math.lcm(*(x.conductor for x in q))
    q = [x.lift(conductor) for x in q]
    deltas = {}
    for key in table.pairs():
        try:
            for c in table.entry(*key).e:
                cache_deltas(c.corr, q, deltas)
        except PoleError as exc:
            raise PoleError(exc.index, entry=key) from None
    return q, {k: v for k, v in deltas.items() if type(k) is DeltaIndex}


def qc_eval_at(table: ProductTable, q: list, deltas: dict) -> ProductTable:
    """`qc_eval` of the symbolic quantum table at the lifted point q whose
    delta values `point_deltas` gave as `deltas`."""
    coeffs, parts = [], []
    for key in table.pairs():
        entry = table.entry(*key)
        parts.append((key, entry.s, len(coeffs), len(coeffs) + len(entry.e)))
        coeffs.extend(entry.e)
    values = _packed_values(coeffs, deltas, BaseScalar.K(table.n),
                            q[0].conductor)
    entries = {key: ExcClass(table.n, s, tuple(values[start:stop]))
               for key, s, start, stop in parts}
    return ProductTable(table.n, KIND_QUANTUM_AT, entries, q=q)


def _packed_values(coeffs: list, deltas: dict, kappa: BaseScalar,
                   conductor: int) -> list:
    """The QCoeffs `coeffs` at the point whose delta values, all of
    conductor `conductor`, `deltas` holds: each correction summed as
    Kronecker-packed integers and times K = `kappa`."""
    kr = Kronecker.pack(
        conductor,
        {"delta": {idx: deltas[idx] for c in coeffs for idx in c.corr.terms}},
        [(max(sum(map(abs, c.corr.terms.values())) for c in coeffs),
          ("delta",))])
    packed = kr.packed["delta"]
    # K's coefficients are one rational k: 1 on K at rank one, 1/(n+1) on
    # both L and M above it
    k = next(iter(kappa.terms.values())).as_fraction()
    scaled = {}         # packed sum -> K times its value, None for zero
    # (id of a cup part, packed sum) -> the coefficient; coeffs keeps every
    # cup part alive, so no id is reused during the call
    built = {}
    out = []
    for c in coeffs:
        total = sum(w * packed[idx] for idx, w in c.corr.terms.items())
        key = id(c.cup), total
        value = built.get(key)
        if value is None:
            if total not in scaled:
                corr = kr.values({0: total}).get(0)
                scaled[total] = None if corr is None else BaseScalar._make(
                    kappa.n, dict.fromkeys(kappa.terms, corr * k))
            corr = scaled[total]
            value = built[key] = c.cup if corr is None else c.cup + corr
        out.append(value)
    return out
