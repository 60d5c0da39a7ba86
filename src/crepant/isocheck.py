"""Transport verification of candidate ring maps, and the exact solvers
that reproduce the rank-1 and rank-2 isomorphism computations.

A candidate Phi sends E_l to a combination of the e_k, fixes the class s and
acts coefficient-linearly over H*(S).  Verifying that Phi intertwines the
quantum-corrected product with the orbifold product reduces to the tabulated
degree-2 products: for every pair (i, j) the difference

    Phi(E_i * E_j)  -  Phi(E_i) . Phi(E_j)

must vanish as an ExcClass, where the right side expands bilinearly through
the Chen-Ruan table `cr_table(n)`, the one ring the conjecture compares
with.  `transport_check` reports the exact difference per entry; `solve_a1`
and `solve_a2` run the reduction in the opposite direction, extracting the
polynomial system a candidate must satisfy and solving it exactly over
Q(zeta_{4(n+1)}).

The check sums its products in one of two ways, with equal results.  It
runs as a packed kernel when

  (a) every nonzero map entry has one conductor N,
  (b) the conductor of every basis coefficient of the source divides N, and
  (c) packing pays: the packed digits need at most 64 bits, or at most
      twice the width that operands of the typical size would need
      (`Kronecker.bits` and `Kronecker.typical`).

Each map entry and source and Chen-Ruan coefficient is then packed once into
one Python int (`exactnum.Kronecker`), every product is one big-integer
multiplication and every sum one addition, both sides of each basis
coefficient sum into one int, their difference over a common denominator,
and only one whose value is nonzero, which the exact zero test of
`Kronecker.values` tells from the int alone, is unpacked and built as a
Cyclotomic: at a passing root no difference is unpacked.  Otherwise
the check sums slot by slot, one field product and one `accumulate` per
term (`_apply_map`, `_pair_through_table`), and subtracts the two sides.
`_packing` decides the route.  Clause (c) keeps the slot path for a few
operands, or a common denominator of many, far wider than the typical one:
every packed product multiplies phi digits of the full width, however
narrow its own factors, where field products of one pair at a time cost
less.

Why the two print the same bytes.  Under (a) and (b) every term the
slot-by-slot sum hands to `accumulate` is a product with a conductor-N
factor and factors whose conductors divide N, the source's by (b) and
those of `cr_table(n)` at conductor 1, so it has conductor exactly N.  A
sum of such terms, whatever their order or grouping, is its exact value at
conductor N, or dropped when it cancels to zero; the packed kernel stores
exactly that.  With mixed conductors the conductor a sum ends in depends on
which terms cancel first, so reordering them could change the printed
conductors, and (a) and (b) send those inputs down the slot-by-slot path.
The slot-by-slot path takes the difference by `BaseScalar` subtraction,
which under (a) and (b), with both sides exact values at N, stores each
monomial's difference at N, or drops it when it cancels; the kernel reads
its packed difference back at N and drops a zero, and normal forms are
unique, so the bytes agree.  The s part, which Phi fixes, is the source's
own minus the right side's by `BaseScalar` subtraction on both paths: the
source's coefficient, which may be stored at any conductor, stays as it is
where the right side has no s term.

The scan checks one root, m_root = 1, and transports its report to every
other primitive root zeta^m by a Galois automorphism.  Write z = zeta_N,
N = 4(n+1), and sigma_a for z -> z^a, a unit a of Z/N with a = m mod n+1.

  * `qc_table(n)` and `cr_table(n)` are rational, and sigma_a sends the
    point q = z^4 to z^(4a) = z^(4m).  sigma_a is a field automorphism of
    each Q(zeta_c), c | N, that keeps c and commutes with lifts, so every
    delta value, sum, product, conductor and dropped zero of `qc_eval`
    transports: the source at zeta^m is sigma_a of the source at zeta.
  * Entry (k, l) of `bgp_map(n, m)` is z^(4mlk) r_k with
    r_k = z^e - z^-e, e = `branch_exponent(n, m, k)`.  sigma_a of the entry
    at m = 1 is z^(4alk) (z^x - z^-x) with x = a e_k(1) = +-e mod 2(n+1),
    and z^(2(n+1)) = -1, so bgp_map(n, m) = D_m sigma_a(bgp_map(n, 1)),
    D_m = diag(eps_1..eps_n) a matrix of signs read off the branch
    exponents alone (`_galois_signs`).
  * Write Phi for `bgp_map(n, m)`, and eps_0 = 1 for the s part.  Each
    Chen-Ruan term t e_p of e_k e_k' is rational, so the difference of pair
    (i, j) in part p at m is
        eps_p sigma_a(the difference at 1)
          + sum (eps_p eps_k eps_k' - 1) Phi[k][i] Phi[k'][j] t,
    the sum over the terms t e_p of the products e_k e_k'.  For the s part,
    which Phi fixes, this is the source's own s part plus the right side
    negated, sigma_a of the right side negated at 1 plus the sum.
  * Phi[k][i] Phi[k'][j] = zeta^(j(k+k')) zeta^((i-j)k) r_k r_k' with
    zeta = z^(4m), so the sum of each pair is one integer polynomial in z,
    built once per (i - j, part, monomial, k + k') and rotated by
    zeta^(j(k+k')): O(n^3) index arithmetic per root.  N is even, so each
    such polynomial is folded once per root by z^(N/2) = -1 to N/2
    coordinates, and the rotation by z^r is negacyclic: for r < N/2 the top
    r coordinates move to the bottom, negated, and z^(N/2 + r) negates all
    of that once more.  The rotated lists repeat, across pairs and across
    roots (12 distinct among the 80 at n = 4, 941 among 5 500 at n = 10),
    so the scan keeps one dict from (common denominator, rotated list) to
    its reduced value, and makes one reduction per distinct value per
    scan, each starting from the folded list.  A coefficient
    eps_p eps_k eps_k' - 1 that is zero adds nothing.  At m = n every sign
    is +1: a = -1 mod 2(n+1) acts on Q(z^2), where every entry and value
    lies, as complex conjugation.

Why the bytes and conductors are those the check computes at m.  The check
stores each nonzero difference of an e_p, and each nonzero right side of
the s part, at conductor N (both routes above, as bgp_map(n, m) has the one
conductor N and the source lies in Q(zeta_N)); the transport computes the
same values exactly, lifts each to N and drops a zero, and adds the s part
to the source's own as the check does.  Normal forms are unique, so the two
print the same bytes.  A pole is Galois-invariant, q_mu...q_nu = 1 at one
primitive root exactly when at all, and never at a primitive root:
q_mu...q_nu = zeta^(m(nu-mu+1)) with 1 <= nu-mu+1 <= n is never 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .coeffring import BaseScalar, accumulate
from .corrections import DeltaIndex, PoleError
from .exactnum import (Cyclotomic, Kronecker, branch_exponent, imaginary_unit,
                       root_of_unity, sqrt_rational)
from .mckay import LinearMap, bgp_map
from .record import Record
from .ringtables import (KIND_QUANTUM, ExcClass, ProductTable, cr_table,
                         cup_table, qc_eval, qc_table)


class RankMismatch(ValueError):
    """Map and tables do not have the same rank."""

    @classmethod
    def check(cls, map_rank: int, rank: int):
        """rank is the source's, and so the Chen-Ruan target's."""
        if map_rank != rank:
            raise cls(f"ranks differ: map {map_rank}, source {rank}, "
                      f"target {rank}")


class EntryCheck(Record):
    __slots__ = ("i", "j", "diff")

    def __init__(self, i: int, j: int, diff: ExcClass):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "diff", diff)

    @property
    def ok(self) -> bool:
        return self.diff.is_zero()


class TransportReport(Record):
    __slots__ = ("n", "q", "map_matrix", "entries")

    def __init__(self, n: int, q: tuple | None, map_matrix: LinearMap,
                 entries: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "map_matrix", map_matrix)
        object.__setattr__(self, "entries", entries)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]

    def to_json(self):
        return {
            "n": self.n,
            "q": [x.to_json() for x in self.q] if self.q is not None else None,
            "map": [[c.to_json() for c in row]
                    for row in self.map_matrix.matrix],
            "entries": [{"i": e.i, "j": e.j,
                         "diff_s": e.diff.s.to_json(),
                         "diff_basis": [c.to_json() for c in e.diff.e],
                         "pass": e.ok}
                        for e in self.entries],
            "pass": self.passed,
        }

    def summary(self) -> str:
        lines = [f"transport check (n={self.n}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for e in self.entries:
            status = "ok" if e.ok else f"nonzero difference: " \
                f"s: {e.diff.s}; basis: {[str(c) for c in e.diff.e]}"
            lines.append(f"  ({e.i},{e.j}): {status}")
        return "\n".join(lines)


def _apply_map(lmap: LinearMap, cls: ExcClass) -> list:
    """The basis coefficients of Phi(cls); Phi fixes s."""
    n = cls.n
    out = []
    for k in range(n):
        acc = {}
        for l, factor in enumerate(lmap.matrix[k]):
            if not factor.is_zero():
                for mono, c in cls.e[l].terms.items():
                    accumulate(acc, mono, c * factor)
        out.append(BaseScalar._make(n, acc))
    return out


def _pair_through_table(lmap: LinearMap, i: int, j: int,
                        crt: ProductTable):
    """Phi(E_i) . Phi(E_j) expanded bilinearly through the Chen-Ruan table
    crt: its s part and its basis coefficients.

    Terms are summed slot by slot in (k, kk) order; a Chen-Ruan entry has a
    single nonzero slot, so this costs O(n^2) per product.
    """
    n = crt.n
    s_acc, e_acc = {}, [{} for _ in range(n)]
    for k in range(n):
        ci = lmap.matrix[k][i - 1]
        if ci.is_zero():
            continue
        for kk in range(n):
            cj = lmap.matrix[kk][j - 1]
            if cj.is_zero():
                continue
            weight = ci * cj
            entry = crt.entry(k + 1, kk + 1)
            for acc, part in zip((s_acc, *e_acc), (entry.s, *entry.e)):
                for mono, c in part.terms.items():
                    accumulate(acc, mono, c * weight)
    return (BaseScalar._make(n, s_acc),
            [BaseScalar._make(n, acc) for acc in e_acc])


def _parts(entry: ExcClass):
    return (entry.s, *entry.e)


def _packing(lmap: LinearMap, source: ProductTable,
             crt: ProductTable) -> Kronecker | None:
    """The operands packed for the kernel, with the Chen-Ruan table crt,
    when clauses (a)-(c) of the module docstring hold, else None."""
    conductors = {c.conductor for row in lmap.matrix for c in row
                  if not c.is_zero()}
    if len(conductors) != 1:
        return None
    (conductor,) = conductors
    if any(conductor % c.conductor
           for key in source.pairs() for coeff in source.entry(*key).e
           for c in coeff.terms.values()):
        return None
    n = source.n
    # the kinds of term summed below, as (most terms, factor groups of a
    # term): a coefficient of Phi(E_i * E_j) sums over l the products (map
    # entry (k, l)) x (source coefficient l), one of Phi(E_i) . Phi(E_j)
    # over (k, k') the products t x (map entry (k, i)) x (map entry (k', j)),
    # at most n, as e_k e_k' has one term t, at a place k + k' fixes
    kr = Kronecker.pack(conductor, {
        "map": {(k, l): c for k, row in enumerate(lmap.matrix)
                for l, c in enumerate(row) if not c.is_zero()},
        "source": {(key, l, mono): c for key in source.pairs()
                   for l, coeff in enumerate(source.entry(*key).e)
                   for mono, c in coeff.terms.items()},
        "cr": {(key, p, mono): c for key in crt.pairs()
               for p, part in enumerate(_parts(crt.entry(*key)))
               for mono, c in part.terms.items()},
    }, [(n, ("map", "source")), (n, ("cr", "map", "map"))])
    if kr.bits > max(64, 2 * kr.typical):
        return None
    return kr


def _packed_differences(source: ProductTable, kr: Kronecker):
    """The difference Phi(E_i * E_j) - Phi(E_i) . Phi(E_j) of every source
    pair (i, j), summed as the Kronecker-packed integers of `_packing`; the
    values and conductors are those of the slot-by-slot path."""
    n = source.n
    # scaled by a and -b, both sides sum straight into their difference
    a, b = kr.scales
    sources = {key: a * y for key, y in kr.packed["source"].items()}
    # the nonzero entries (k, packed) of each map column l
    columns = [[(k, x) for (k, l), x in kr.packed["map"].items() if l == col]
               for col in range(n)]
    # the (part, monomial, -b numerator) terms of each Chen-Ruan entry,
    # indexed by the ordered pair (k, k') of 0-based generators
    products = {}
    for (key, p, mono), t in kr.packed["cr"].items():
        products.setdefault(key, []).append((p, mono, -b * t))
    ordered = [[products.get((min(k, kk) + 1, max(k, kk) + 1), ())
                for kk in range(n)] for k in range(n)]
    diffs = []
    for key in source.pairs():
        i, j = key
        entry = source.entry(i, j)
        sums = [{} for _ in range(n + 1)]   # the s part, then e_1..e_n
        for l, coeff in enumerate(entry.e):
            for mono in coeff.terms:
                y = sources[key, l, mono]
                for k, x in columns[l]:
                    acc = sums[k + 1]
                    acc[mono] = acc.get(mono, 0) + x * y
        for k, x in columns[i - 1]:
            row = ordered[k]
            for kk, y in columns[j - 1]:
                weight = x * y
                for p, mono, t in row[kk]:
                    acc = sums[p]
                    acc[mono] = acc.get(mono, 0) + t * weight
        minus_rhs_s, *diff_e = (BaseScalar._make(n, kr.values(acc))
                                for acc in sums)
        # Phi fixes s, so the s part is the source's own minus the right
        # side's, whose sum above holds only the right side, negated
        diffs.append(ExcClass(n, entry.s + minus_rhs_s, tuple(diff_e)))
    return diffs


def transport_check(lmap: LinearMap, source: ProductTable) -> TransportReport:
    """Compare Phi(source product) with the Chen-Ruan product of the images,
    read from `cr_table(n)`.

    The source must be fully evaluated (no symbolic delta terms).  The sums
    run packed when the map and the source share one conductor and packing
    pays, as the module docstring states.
    """
    RankMismatch.check(lmap.n, source.n)
    if source.kind == KIND_QUANTUM:
        raise ValueError("source table still has symbolic delta terms; "
                         "evaluate it with qc_eval first")
    n = source.n
    crt = cr_table(n)
    kr = _packing(lmap, source, crt)
    if kr is not None:
        diffs = _packed_differences(source, kr)
    else:
        diffs = []
        for i, j in source.pairs():
            entry = source.entry(i, j)
            lhs = _apply_map(lmap, entry)
            rhs_s, rhs_e = _pair_through_table(lmap, i, j, crt)
            diffs.append(ExcClass(n, entry.s - rhs_s,
                                  tuple(a - b for a, b in zip(lhs, rhs_e))))
    checks = tuple(EntryCheck(i, j, diff)
                   for (i, j), diff in zip(source.pairs(), diffs))
    return TransportReport(n, source.q, lmap, checks)


# ---------------------------------------------------------------------------
# Rank 1: the quadratic t^2 = -4 plus the vanishing of the E-coefficient.


class A1Solution(NamedTuple):
    t: Cyclotomic
    q: Cyclotomic


def solve_a1() -> list[A1Solution]:
    """All (t, q) with E -> t e a ring isomorphism at the point q.

    The s-coefficients force t^2 = -4; the E-coefficient of E*E must vanish
    outright (e e has no e-term), which pins delta(q) and hence q = -1.

    >>> [str(sol.q) for sol in solve_a1()]
    ['-1', '-1']
    """
    n = 1
    qct = qc_table(n)
    tau = qct.entry(1, 1).s.constant_coefficient().as_fraction()
    sigma = cr_table(n).entry(1, 1).s.constant_coefficient().as_fraction()
    ratio = tau / sigma  # t^2
    conductor = 4 * (n + 1)
    if ratio >= 0:
        t = sqrt_rational(ratio, conductor)
    else:
        t = imaginary_unit(conductor) * sqrt_rational(-ratio, conductor)
    # E-coefficient: (c0 + c1 delta) K must vanish, t != 0.
    coeff = qct.entry(1, 1).e[0]
    c0 = coeff.cup.coefficient((1,))
    c1 = coeff.corr.terms[DeltaIndex(1, 1)]
    delta_star = -c0 / c1
    if delta_star == -1:
        raise ArithmeticError("delta = -1 has no preimage q")
    q_star = delta_star / (1 + delta_star)
    solutions = []
    for tt in sorted((t, -t), key=lambda x: x.coeffs):
        lmap = LinearMap(1, ((tt,),))
        report = transport_check(lmap, qc_eval(qct, [q_star]))
        assert report.passed
        solutions.append(A1Solution(tt, q_star))
    return solutions


# ---------------------------------------------------------------------------
# Rank 2: the symmetric ansatz E_1 -> a e_1 + b e_2, E_2 -> b e_1 + a e_2.


class A2Solution(NamedTuple):
    a: Cyclotomic
    b: Cyclotomic
    q1: Cyclotomic
    q2: Cyclotomic
    lmap: LinearMap


def _sqrt_in_field(value: Cyclotomic, conductor: int) -> list[Cyclotomic]:
    """All square roots of value of the shape (positive rational)^(1/2)
    times a root of unity of Q(zeta_N).

    Every returned element is verified exactly; for a quadratic this is a
    complete root list as soon as two distinct roots appear.
    """
    roots = []
    for j in range(conductor):
        omega = root_of_unity(conductor, j)
        candidate_sq = value * root_of_unity(conductor, -2 * j)
        if not candidate_sq.is_rational():
            continue
        rat = candidate_sq.as_fraction()
        if rat < 0:
            continue
        try:
            base = sqrt_rational(rat, conductor)
        except ValueError:
            continue
        cand = base * omega
        if cand * cand == value and all(cand != r for r in roots):
            roots.append(cand)
    return roots


def _delta_system(lmap: LinearMap, qct: ProductTable):
    """Linear equations in (delta_11, delta_22, delta_12) forcing
    Phi(E_i * E_j) = Phi(E_i) . Phi(E_j) for the concrete map entries.

    Returns (rows, rhs) over Q(zeta); each basis coefficient equation is
    split into its L- and M-monomial components.  The right-hand side is
    the transport residual of the cup table, which is the quantum table
    with every delta set to zero; the rows hold the delta coefficients of
    Phi(E_i * E_j), each times K.
    """
    n = 2
    unknowns = [DeltaIndex(1, 1), DeltaIndex(2, 2), DeltaIndex(1, 2)]
    monos = [(1, 0), (0, 1)]
    rows, rhs = [], []
    kappa = BaseScalar.K(n)
    residual = transport_check(lmap, cup_table(n))
    for check in residual.entries:
        entry = qct.entry(check.i, check.j)
        for k in range(n):
            corr_acc = {u: Cyclotomic.zero(1) for u in unknowns}
            for l in range(n):
                factor = lmap.matrix[k][l]
                if factor.is_zero():
                    continue
                for u, c in entry.e[l].corr.terms.items():
                    corr_acc[u] = corr_acc[u] + c * factor
            for mono in monos:
                rows.append([corr_acc[u] * kappa.coefficient(mono)
                             for u in unknowns])
                rhs.append(-check.diff.e[k].coefficient(mono))
    return rows, rhs


def solve_a2() -> list[A2Solution]:
    """The exact solutions of the rank-2 transport system.

    The s-coefficients give ab = -3 and a^2 + b^2 = 3; for each root pair
    the remaining equations are linear in the three delta values, and the
    point (q_1, q_2) is recovered from them, subject to the consistency
    delta_12 = q_1 q_2/(1 - q_1 q_2).  Exactly two solutions survive, both
    with q_1 = q_2 a primitive cube root of unity.
    """
    n = 2
    conductor = 4 * (n + 1)
    qct = qc_table(n)
    crt = cr_table(n)

    sigma_off = crt.entry(1, 2).s.constant_coefficient().as_fraction()
    assert crt.entry(1, 1).s.is_zero() and crt.entry(2, 2).s.is_zero()
    tau_diag = qct.entry(1, 1).s.constant_coefficient().as_fraction()
    tau_off = qct.entry(1, 2).s.constant_coefficient().as_fraction()
    prod_ab = tau_diag / (2 * sigma_off)        # ab
    sum_sq = tau_off / sigma_off                # a^2 + b^2

    # a^2 and b^2 are the roots of t^2 - sum_sq t + prod_ab^2.
    disc = Fraction(sum_sq) ** 2 - 4 * Fraction(prod_ab) ** 2
    if disc >= 0:
        w = sqrt_rational(disc, conductor)
    else:
        w = imaginary_unit(conductor) * sqrt_rational(-disc, conductor)
    half = Fraction(1, 2)
    squares = [(sum_sq + w) * half, (sum_sq - w) * half]

    solutions = []
    seen = []
    for square in squares:
        for a in _sqrt_in_field(square, conductor):
            b = prod_ab / a
            if any(a == pa and b == pb for pa, pb in seen):
                continue
            seen.append((a, b))
            lmap = LinearMap(n, ((a, b), (b, a)))
            rows, rhs = _delta_system(lmap, qct)
            try:
                delta = linalg.solve_exact(rows, rhs,
                                           zero=Cyclotomic.zero(1))
            except ValueError:
                continue
            if delta is None:
                continue
            d11, d22, d12 = delta
            if d11 == -1 or d22 == -1:
                continue
            q1 = d11 / (1 + d11)
            q2 = d22 / (1 + d22)
            if q1.is_zero() or q2.is_zero() or q1 * q2 == 1:
                continue
            if d12 != (q1 * q2) / (1 - q1 * q2):
                continue
            report = transport_check(lmap, qc_eval(qct, [q1, q2]))
            if report.passed:
                solutions.append(A2Solution(a, b, q1, q2, lmap))
    solutions.sort(key=lambda sol: sol.q1.lift(conductor).coeffs)
    return solutions


# ---------------------------------------------------------------------------
# The scan over primitive roots.


class RootScan(Record):
    __slots__ = ("m_root", "status", "report", "pole")

    def __init__(self, m_root: int, status: str,
                 report: TransportReport | None,
                 pole: PoleError | None = None):
        object.__setattr__(self, "m_root", m_root)
        object.__setattr__(self, "status", status)  # "pass" | "fail" | "pole"
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "pole", pole)

    def to_json(self):
        doc = {"m_root": self.m_root, "status": self.status}
        if self.report is not None:
            doc["report"] = self.report.to_json()
        if self.pole is not None:
            doc["pole"] = {"mu": self.pole.index.mu, "nu": self.pole.index.nu,
                           "entry": list(self.pole.entry or ())}
        return doc


def _galois_signs(n: int, m_root: int) -> tuple[int, list, list]:
    """(a, eps, e) for the primitive root zeta^{m_root}: a unit a of
    Z/4(n+1) with a = m_root mod n+1, the signs eps_0 = 1, eps_1..eps_n with
    bgp_map(n, m_root)[k][l] = eps_k sigma_a(bgp_map(n, 1)[k][l]), and the
    branch exponents e_k of `bgp_map(n, m_root)`, e_0 unused.

    a is m_root + n + 1 when that is odd, else m_root; at m_root = n > 1 it
    is -1 mod 2(n+1), and every sign is +1.  Both sides of entry (k, l) are
    z^s (z^x - z^-x), with z^(2(n+1)) = -1 and x = a e_k(1) = +-e_k
    mod 2(n+1), so eps_k is read off x and e_k.
    """
    conductor = 4 * (n + 1)
    a = m_root + n + 1 if (m_root + n + 1) % 2 else m_root
    eps, exps = [1], [0]
    for k in range(1, n + 1):
        x = a * branch_exponent(n, 1, k)
        e = branch_exponent(n, m_root, k)
        eps.append(1 if (x - e) % conductor == 0
                   or (x + e) % conductor == conductor // 2 else -1)
        exps.append(e)
    return a, eps, exps


def _chen_ruan_terms(n: int) -> list:
    """(k, k', p, monomial, t) for each term t e_p of each product e_k e_k'
    of `cr_table(n)`, k and k' in 1..n; p = 0 is the s part."""
    crt = cr_table(n)
    terms = []
    for k, kk in crt.pairs():
        for p, part in enumerate(_parts(crt.entry(k, kk))):
            for mono, c in part.terms.items():
                t = c.as_fraction()
                terms.append((k, kk, p, mono, t))
                if k != kk:
                    terms.append((kk, k, p, mono, t))
    return terms


def _transported(n: int, m_root: int, signs: tuple, checked: TransportReport,
                 own: list, terms: list, reduced: dict) -> tuple:
    """The entries `transport_check(bgp_map(n, m_root), sigma_a(source))`
    reports, from the report `checked` of bgp_map(n, 1) on source, by the
    Galois transport of the module docstring.  signs are
    `_galois_signs(n, m_root)`, and terms `_chen_ruan_terms(n)` or, when
    every sign is +1, any list.  own holds, per checked entry, the pair
    (the source's s part, diff.s minus it), the latter the right side
    negated, both at m_root = 1.  reduced maps (den, folded coordinates) to
    the value already reduced from them, and gains each value reduced
    here."""
    conductor = 4 * (n + 1)
    step = 4 * m_root                       # zeta = z^step
    a, eps, exps = signs
    weighted = [(k, kk, p, mono, t, c) for k, kk, p, mono, t in terms
                if (c := eps[p] * eps[k] * eps[kk] - 1)]
    den = math.lcm(*(t.denominator for *_, t, _ in weighted))
    # G[d][p, monomial, k + k']: the sum over the weighted terms of
    # c t zeta^(-dk) r_k r_k', r_k = z^e_k - z^-e_k, as an integer
    # polynomial in z over den
    sums = [{} for _ in range(n)]
    for k, kk, p, mono, t, c in weighted:
        w = c * t.numerator * (den // t.denominator)
        e, ee = exps[k], exps[kk]
        for d, acc in enumerate(sums):
            poly = acc.setdefault((p, mono, k + kk), [0] * conductor)
            base = -step * d * k
            poly[(base + e + ee) % conductor] += w
            poly[(base + e - ee) % conductor] -= w
            poly[(base - e + ee) % conductor] -= w
            poly[(base - e - ee) % conductor] += w
    # each G folded once by z^(N/2) = -1, N = 4(n+1) being even, and kept
    # with its negation for the negacyclic rotations below
    half = conductor // 2
    for acc in sums:
        for key, poly in acc.items():
            folded = [x - y for x, y in zip(poly, poly[half:])]
            acc[key] = tuple(folded), tuple([-x for x in folded])
    entries = []
    for check, (own_s, minus_rhs_s) in zip(checked.entries, own):
        i, j, diff = check.i, check.j, check.diff
        if check.ok and not sums[j - i]:
            entries.append(check)       # zero at 1, and no sum: zero here
            continue
        # the sums the check runs at m_root, at conductor 4(n+1): the right
        # side negated for the s part, the difference for each e_p
        parts = [{} for _ in range(n + 1)]
        # Phi[k][i] Phi[k'][j] = zeta^(j(k + k')) zeta^((i - j)k) r_k r_k';
        # z^shift moves the top r = shift mod N/2 folded coordinates to the
        # bottom, negated, and negates everything once more if shift >= N/2
        for (p, mono, total), (pos, neg) in sums[j - i].items():
            shift = step * j * total % conductor
            if shift < half:
                key = den, neg[half - shift:] + pos[:half - shift]
            else:
                shift -= half
                key = den, pos[half - shift:] + neg[:half - shift]
            value = reduced.get(key)
            if value is None:
                value = reduced[key] = Cyclotomic._from_poly(
                    conductor, list(key[1]), den)
            accumulate(parts[p], mono, value)
        for p, part in enumerate(diff.e, 1):
            for mono, c in part.terms.items():
                accumulate(parts[p], mono,
                           (c.galois(a) * eps[p]).lift(conductor))
        # the s part is the source's own plus the right side negated
        for mono, c in minus_rhs_s.terms.items():
            accumulate(parts[0], mono, c.galois(a).lift(conductor))
        own_here = BaseScalar._make(n, {mono: c.galois(a)
                                        for mono, c in own_s.terms.items()})
        entries.append(EntryCheck(i, j, ExcClass(
            n, own_here + BaseScalar._make(n, parts[0]),
            tuple(BaseScalar._make(n, acc) for acc in parts[1:]))))
    return tuple(entries)


def conjecture_scan(n: int) -> list[RootScan]:
    """Probe the conjectured map at q_1 = ... = q_n = zeta^{m_root} for
    every primitive (n+1)-th root.

    No truth value is asserted beyond what the check computes; a root where
    some q_mu...q_nu = 1 is reported as a pole, not as a failure.

    `qc_eval` and `transport_check` run once, at m_root = 1.  The report at
    every other root prints the map `bgp_map(n, m_root)` and the point
    zeta^m_root, and its differences are the Galois transport of the
    checked ones (`_transported`): sigma_a with a = m_root mod n+1 sends the
    point and the source to those at m_root, and `bgp_map(n, 1)` to
    `bgp_map(n, m_root)` up to the signs eps_k of its rows, so each
    difference is eps_p sigma_a of the checked one plus a sum over the
    Chen-Ruan terms weighted by eps_p eps_k eps_k' - 1 (the module
    docstring gives the argument).  Those sums are reduced once per distinct
    value per scan, in a dict dropped on return; each checked entry's own
    s part, and its right side negated, are read once for all roots.  A
    pole is Galois-invariant, so a pole at m_root = 1 is reported, with its
    index, at every root.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    conductor = 4 * (n + 1)
    roots = [m for m in range(1, n + 1) if math.gcd(m, n + 1) == 1]
    try:
        source = qc_eval(qc_table(n), [root_of_unity(conductor, 4)] * n)
    except PoleError as exc:
        return [RootScan(m, "pole", None, exc) for m in roots]
    checked = transport_check(bgp_map(n, 1), source)
    signs = {m: _galois_signs(n, m) for m in roots[1:]}
    # signs all +1, as at m_root = n, weight no Chen-Ruan term
    terms = (_chen_ruan_terms(n)
             if any(-1 in eps for _, eps, _ in signs.values()) else [])
    own = []
    for check in checked.entries:
        own_s = source.entry(check.i, check.j).s
        own.append((own_s, check.diff.s - own_s))
    reduced = {}    # one reduction per distinct value over all roots
    results = []
    for m_root in roots:
        report = checked if m_root == 1 else TransportReport(
            n, (root_of_unity(conductor, 4 * m_root),) * n,
            bgp_map(n, m_root),
            _transported(n, m_root, signs[m_root], checked, own, terms,
                         reduced))
        results.append(RootScan(
            m_root, "pass" if report.passed else "fail", report))
    return results
