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
and only a nonzero one is unpacked and built as a Cyclotomic.  Otherwise
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

The scan checks one root of each complex-conjugate pair.  The primitive
(n+1)-th roots zeta^m and zeta^(n+1-m) are conjugate, and the report at the
second is the entrywise conjugate of the report at the first:

  * `qc_table(n)` and `cr_table(n)` are rational, and conjugation sends the
    point q = zeta^m to q' = zeta^(n+1-m).
  * `bgp_map(n, n+1-m)` is the conjugate of `bgp_map(n, m)`, entry by
    entry.  Write z = zeta_{4(n+1)}, so entry (k, l) at m is
    z^(s+e) - z^(s-e) with s = 4mlk and e = `branch_exponent(n, m, k)`,
    +-2j for j = km mod 2(n+1).  At m' = n+1-m, s' = -s mod 4(n+1).  For
    even k, j' = 2(n+1) - j and the branch sign stays, so e' = -e.  For odd
    k, j' = n+1-j mod 2(n+1) and the branch sign flips, so
    e' = e -+ 2(n+1); with z^(2(n+1)) = -1 this again gives
    z^(s'+e') - z^(s'-e') = conj(z^(s+e) - z^(s-e)).
  * Conjugation is a field automorphism of each Q(zeta_c) that keeps c, and
    commutes with lifts.  So every delta value, sum, product, conductor and
    dropped zero of `qc_eval` and of either route above conjugates, and the
    conjugate of each stored difference is, in normal form, the one the
    check computes at q'.

Only n = 1, m = 1 is its own conjugate, and it is computed directly.  So is
a root whose conjugate ended in a pole, which a primitive root never does:
q_mu...q_nu = zeta^(m(nu-mu+1)) with 1 <= nu-mu+1 <= n is never 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .coeffring import BaseScalar, accumulate
from .corrections import DeltaIndex, PoleError
from .exactnum import (Cyclotomic, Kronecker, imaginary_unit, root_of_unity,
                       sqrt_rational)
from .mckay import LinearMap, bgp_map
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


@dataclass(frozen=True)
class EntryCheck:
    i: int
    j: int
    diff: ExcClass

    @property
    def ok(self) -> bool:
        return self.diff.is_zero()


@dataclass(frozen=True)
class TransportReport:
    n: int
    q: tuple | None
    map_matrix: LinearMap
    entries: tuple

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
    # the (part, monomial, -b numerator) terms of each Chen-Ruan entry
    products = {}
    for (key, p, mono), t in kr.packed["cr"].items():
        products.setdefault(key, []).append((p, mono, -b * t))
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
            for kk, y in columns[j - 1]:
                weight = x * y
                for p, mono, t in products.get(
                        (min(k, kk) + 1, max(k, kk) + 1), ()):
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


@dataclass(frozen=True)
class RootScan:
    m_root: int
    status: str                       # "pass" | "fail" | "pole"
    report: TransportReport | None
    pole: PoleError | None = None

    def to_json(self):
        doc = {"m_root": self.m_root, "status": self.status}
        if self.report is not None:
            doc["report"] = self.report.to_json()
        if self.pole is not None:
            doc["pole"] = {"mu": self.pole.index.mu, "nu": self.pole.index.nu,
                           "entry": list(self.pole.entry or ())}
        return doc


def _conjugate(diff: ExcClass) -> ExcClass:
    """diff with every coefficient complex-conjugated."""
    def part(x: BaseScalar) -> BaseScalar:
        return BaseScalar._make(x.n, {mono: c.conjugate()
                                      for mono, c in x.terms.items()})
    return ExcClass(diff.n, part(diff.s), tuple(map(part, diff.e)))


def conjecture_scan(n: int) -> list[RootScan]:
    """Probe the conjectured map at q_1 = ... = q_n = zeta^{m_root} for
    every primitive (n+1)-th root.

    No truth value is asserted beyond what the check computes; a root where
    some q_mu...q_nu = 1 is reported as a pole, not as a failure.

    `qc_eval` and `transport_check` run at the first root of each conjugate
    pair {m, n+1-m} only, ceil(phi(n+1)/2) roots in all.  The report at
    m > (n+1)/2 prints the map `bgp_map(n, m)` and the point zeta^m, and
    conjugates every difference of the report at n+1-m: the tables are
    rational and `bgp_map(n, n+1-m)` is the entrywise conjugate of
    `bgp_map(n, m)`, so that is the report the check would compute there
    (the module docstring gives the argument).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    qct = qc_table(n)
    conductor = 4 * (n + 1)
    reports = {}        # m_root -> its report, for the roots checked
    results = []
    for m_root in range(1, n + 1):
        if math.gcd(m_root, n + 1) != 1:
            continue
        zeta = root_of_unity(conductor, 4 * m_root)
        lmap = bgp_map(n, m_root)
        mirror = reports.get(n + 1 - m_root)
        if mirror is not None:
            report = TransportReport(n, (zeta,) * n, lmap, tuple(
                EntryCheck(e.i, e.j, _conjugate(e.diff))
                for e in mirror.entries))
        else:
            try:
                evaluated = qc_eval(qct, [zeta] * n)
            except PoleError as exc:
                results.append(RootScan(m_root, "pole", None, exc))
                continue
            report = reports[m_root] = transport_check(lmap, evaluated)
        results.append(RootScan(
            m_root, "pass" if report.passed else "fail", report))
    return results
