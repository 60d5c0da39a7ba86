"""The exact solvers that reproduce the rank-1 and rank-2 isomorphism
computations, and the scan of the conjectured map over the primitive roots.

`solve_a1` and `solve_a2` run the transport check of `transport` in the
opposite direction: they read the point a candidate map needs off the
tabulated products in closed form over Q(zeta_{4(n+1)}), and keep the
candidates whose check passes.

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
the s part, at conductor N (both routes of `transport`, as bgp_map(n, m)
has the one conductor N and the source lies in Q(zeta_N)); the transport
computes the same values exactly, lifts each to N and drops a zero, and
adds the s part to the source's own as the check does.  Normal forms are
unique, so the two print the same bytes.  No root of the scan is a pole:
q_mu...q_nu = zeta^(m(nu-mu+1)), with 1 <= nu-mu+1 <= n, is never 1 at a
primitive (n+1)-th root zeta^m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .coeffring import BaseScalar, accumulate
from .corrections import DeltaIndex
from .exactnum import (Cyclotomic, branch_exponent, imaginary_unit,
                       root_of_unity, sqrt_rational)
from .maps import LinearMap, bgp_map
from .record import Record
from .tables import ExcClass, ProductTable, cr_table, cup_table, qc_table
from .transport import EntryCheck, TransportReport, transport_check


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
    ratio = tau / sigma  # t^2 = -2/(1/2)
    assert ratio < 0
    conductor = 4 * (n + 1)
    t = imaginary_unit(conductor) * sqrt_rational(-ratio, conductor)
    # E-coefficient: (c0 + c1 delta) K must vanish, t != 0.
    coeff = qct.entry(1, 1).e[0]
    c0 = coeff.cup.coefficient((1,))
    c1 = coeff.corr.terms[DeltaIndex(1, 1)]
    delta_star = -c0 / c1  # -2/4; delta = -1 would have no preimage q
    assert delta_star != -1
    q_star = delta_star / (1 + delta_star)
    solutions = []
    for tt in sorted((t, -t), key=lambda x: x.coeffs):
        lmap = LinearMap(1, ((tt,),))
        report = transport_check(lmap, qct, [q_star])
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
        # the squares solve_a2 passes are 3 times a sixth root of unity, so
        # rat is 3, whose root lies in Q(zeta_12)
        cand = sqrt_rational(rat, conductor) * omega
        if cand * cand == value and all(cand != r for r in roots):
            roots.append(cand)
    return roots


def _delta_values(lmap: LinearMap, qct: ProductTable):
    """(delta_11, delta_22, delta_12) read off in closed form.

    Phi(E_i * E_j) = Phi(E_i) . Phi(E_j) asks Phi(corr_ij K) = -diff_ij,
    corr_ij the delta corrections of E_i * E_j on E_1 and E_2 and diff_ij
    the transport residual of the cup table.  K = (L + M)/(n+1), so the L
    coefficients give corr_ij = Phi^-1 r, r_k = -(n+1) (the L coefficient of
    diff_ij.e[k]).  By `qc_table(2)` the corrections on E_1 of E_1 E_1 and
    E_1 E_2 are 4 delta_11 + delta_12 and -2 delta_11 + delta_12, and those
    on E_2 of E_2 E_2 and E_1 E_2 likewise with delta_22.  The M
    coefficients, the s parts and the other corrections are left to the
    caller's exact checks.
    """
    n = 2
    i11, i22, i12 = DeltaIndex(1, 1), DeltaIndex(2, 2), DeltaIndex(1, 2)
    assert [qct.entry(1, 1).e[0].corr.terms, qct.entry(1, 2).e[0].corr.terms,
            qct.entry(2, 2).e[1].corr.terms, qct.entry(1, 2).e[1].corr.terms
            ] == [{i11: 4, i12: 1}, {i11: -2, i12: 1},
                  {i22: 4, i12: 1}, {i22: -2, i12: 1}]
    (a, b), (c, d) = lmap.matrix
    # a^2 - b^2 for the ansatz, nonzero: a^2 and b^2 are the two roots of
    # t^2 - 3t + 9
    inv_det = 1 / (a * d - b * c)
    corr = {}
    for check in transport_check(lmap, cup_table(n)).entries:
        r1, r2 = (-(n + 1) * x.coefficient((1, 0)) for x in check.diff.e)
        corr[check.i, check.j] = ((d * r1 - b * r2) * inv_det,
                                  (a * r2 - c * r1) * inv_det)
    delta_11 = (corr[1, 1][0] - corr[1, 2][0]) / 6
    delta_22 = (corr[2, 2][1] - corr[1, 2][1]) / 6
    return delta_11, delta_22, corr[1, 2][0] + 2 * delta_11


def solve_a2() -> list[A2Solution]:
    """The exact solutions of the rank-2 transport system.

    The s-coefficients give ab = -3 and a^2 + b^2 = 3; for each root pair
    the remaining equations are linear in the three delta values, which
    `_delta_values` reads off through the 2x2 inverse of the map, and the
    point (q_1, q_2) is recovered from them, subject to the consistency
    delta_12 = q_1 q_2/(1 - q_1 q_2) and the transport check at that point,
    which decide the equations the read-off does not use.  Exactly two
    solutions survive, both with q_1 = q_2 a primitive cube root of unity.
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

    # a^2 and b^2 are the roots of t^2 - sum_sq t + prod_ab^2, here
    # t^2 - 3t + 9, whose discriminant is -27: two distinct squares, whose
    # distinct roots a give distinct pairs (a, b)
    disc = Fraction(sum_sq) ** 2 - 4 * Fraction(prod_ab) ** 2
    assert disc < 0
    w = imaginary_unit(conductor) * sqrt_rational(-disc, conductor)
    half = Fraction(1, 2)
    squares = [(sum_sq + w) * half, (sum_sq - w) * half]

    solutions = []
    for square in squares:
        for a in _sqrt_in_field(square, conductor):
            b = prod_ab / a
            lmap = LinearMap(n, ((a, b), (b, a)))
            d11, d22, d12 = _delta_values(lmap, qct)
            # delta = -1 has no preimage q, and the q_l are nonzero with
            # q_1 q_2 not 1, where delta_12 has its pole
            assert d11 != -1 and d22 != -1
            q1 = d11 / (1 + d11)
            q2 = d22 / (1 + d22)
            assert not (q1.is_zero() or q2.is_zero() or q1 * q2 == 1)
            if d12 != (q1 * q2) / (1 - q1 * q2):
                continue
            report = transport_check(lmap, qct, [q1, q2])
            if report.passed:
                solutions.append(A2Solution(a, b, q1, q2, lmap))
    solutions.sort(key=lambda sol: sol.q1.lift(conductor).coeffs)
    return solutions


# ---------------------------------------------------------------------------
# The scan over primitive roots.


class RootScan(Record):
    __slots__ = ("m_root",
                 "status",  # "pass" | "fail"
                 "report")

    def to_json(self):
        return {"m_root": self.m_root, "status": self.status,
                "report": self.report.to_json()}


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


def _chen_ruan_terms(crt: ProductTable) -> list:
    """(k, k', p, monomial, t) for each term t e_p of each product e_k e_k'
    of the Chen-Ruan table crt, k and k' in 1..n; p = 0 is the s part."""
    terms = []
    for k, kk in crt.pairs():
        entry = crt.entry(k, kk)
        for p, part in enumerate((entry.s, *entry.e)):
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
    `_galois_signs(n, m_root)`, and terms `_chen_ruan_terms` or, when
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

    No truth value is asserted beyond what the check computes.  No root is
    a pole (the module docstring gives the argument, asserted below).

    `transport_check` runs once, on `qc_table(n)` at the point of
    m_root = 1, and reads the one `cr_table(n)` of the scan, which also
    gives the Chen-Ruan terms of the transport.  The report at
    every other root prints the map `bgp_map(n, m_root)` and the point
    zeta^m_root, and its differences are the Galois transport of the
    checked ones (`_transported`): sigma_a with a = m_root mod n+1 sends the
    point and the source to those at m_root, and `bgp_map(n, 1)` to
    `bgp_map(n, m_root)` up to the signs eps_k of its rows, so each
    difference is eps_p sigma_a of the checked one plus a sum over the
    Chen-Ruan terms weighted by eps_p eps_k eps_k' - 1 (the module
    docstring gives the argument).  Those sums are reduced once per distinct
    value per scan, in a dict dropped on return; each checked entry's own
    s part, and its right side negated, are read once for all roots.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    conductor = 4 * (n + 1)
    roots = [m for m in range(1, n + 1) if math.gcd(m, n + 1) == 1]
    # q_mu...q_nu = zeta^(m(nu-mu+1)) is not 1, as 0 < nu-mu+1 <= n and m
    # is a unit mod n+1: no root is a pole
    assert all(m * length % (n + 1) for m in roots
               for length in range(1, n + 1))
    qct, crt = qc_table(n), cr_table(n)
    checked = transport_check(bgp_map(n, 1), qct,
                              [root_of_unity(conductor, 4)] * n, crt)
    signs = {m: _galois_signs(n, m) for m in roots[1:]}
    # signs all +1, as at m_root = n, weight no Chen-Ruan term
    terms = (_chen_ruan_terms(crt)
             if any(-1 in eps for _, eps, _ in signs.values()) else [])
    own = []
    for check in checked.entries:
        # the corrections leave the s part alone: the table's is the source's
        own_s = qct.entry(check.i, check.j).s
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
