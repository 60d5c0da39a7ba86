"""The transport check of a candidate ring map.

A candidate Phi sends E_l to a combination of the e_k, fixes the class s and
acts coefficient-linearly over H*(S).  Verifying that Phi intertwines the
quantum-corrected product with the orbifold product reduces to the tabulated
degree-2 products: for every pair (i, j) the difference

    Phi(E_i * E_j)  -  Phi(E_i) . Phi(E_j)

must vanish as an ExcClass, where the right side expands bilinearly through
the Chen-Ruan table `cr_table(n)`, the one ring the conjecture compares
with.  `transport_check` reports the exact difference per entry; the
solvers and the root scan of `isocheck` run on it.

The check sums its products in one of two ways, with equal results.  It
runs as a packed kernel when

  (a) every nonzero map entry has one conductor N,
  (b) the conductor of every basis coefficient of the source divides N;
      for the symbolic `qc_table(n)` at a point, that of every cup part and
      that of the point, which every delta value has, and
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
the check sums slot by slot in `BaseScalar` arithmetic, each coefficient
scaled by a map entry or a product of two and added to a running sum
(`_apply_map`, `_pair_through_table`), and subtracts the two sides.
`_packing` decides the route.  Clause (c) keeps the slot path for a few
operands, or a common denominator of many, far wider than the typical one:
every packed product multiplies phi digits of the full width, however
narrow its own factors, where field products of one pair at a time cost
less.

The quantum corrections, summed from the delta values.  Coefficient l of
E_i * E_j in `qc_table(n)` is its cup part plus sum_b w_ijb delta_b(q) K,
the sum over the classes b = beta_{mu nu} with mu <= l <= nu, the weight
w_ijb = (E_i.b)(E_j.b) the same for each such l (`_class_weights` checks
that the table is so written).  K is kappa (L + M), or kappa K at rank one,
for one rational kappa, so on each of K's monomials Phi sends the
correction of E_i * E_j to e_k with the coefficient

    sum_l Phi[k][l] sum_{b ni l} w_ijb kappa delta_b
        = sum_b w_ijb D_b[k],    D_b[k] = kappa delta_b S_b[k],

S_b[k] = Phi[k][mu] + ... + Phi[k][nu] a difference of two prefix sums of
map row k: rank one per class.  Given the point, the kernel packs the delta
values with the cup parts, in place of the evaluated coefficients, forms
the n^2(n+1)/2 products D_b[k] once, and adds each pair's
sum_b w_ijb D_b[k] with the small integer weights, without building the
evaluated table.  The delta values are those `qc_eval` computes
(`tables.point_deltas`), each of the point's conductor, so a pole
raises the same PoleError, before any sum.  When a clause, or the
rank-one form, fails, the table is evaluated from those delta values
(`tables.qc_eval_at`) and checked as an evaluated table is.

Why the two print the same bytes.  Under (a) and (b) every term the
slot-by-slot sum adds, monomial by monomial, is a product with a conductor-N
factor and factors whose conductors divide N, the source's by (b) and
those of `cr_table(n)` at conductor 1, so it has conductor exactly N.  A
sum of such terms, whatever their order or grouping, is its exact value at
conductor N, or dropped when it cancels to zero; the packed kernel stores
exactly that.  The same holds for the symbolic table at a point: its
corrections, regrouped class by class, are sums of products of a
conductor-N map entry with delta values whose conductor divides N by (b),
so each coefficient's exact value at N is unchanged by the regrouping, and
a sum is the value of the evaluated table's.  With mixed conductors the
conductor a sum ends in depends on which terms cancel first, so
reordering them could change the printed conductors, and (a) and (b) send
those inputs down the slot-by-slot path.
The slot-by-slot path takes the difference by `BaseScalar` subtraction,
which under (a) and (b), with both sides exact values at N, stores each
monomial's difference at N, or drops it when it cancels; the kernel reads
its packed difference back at N and drops a zero, and normal forms are
unique, so the bytes agree.  The s part, which Phi fixes, is the source's
own minus the right side's by `BaseScalar` subtraction on both paths: the
source's coefficient, which may be stored at any conductor, stays as it is
where the right side has no s term; the corrections leave the s part
alone, so a symbolic table's is its evaluation's.
"""

from __future__ import annotations

from .coeffring import BaseScalar
from .exactnum import Kronecker
from .maps import LinearMap
from .record import Record
from .tables import (KIND_QUANTUM, ExcClass, ProductTable, cr_table,
                     point_deltas, qc_eval_at)


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

    @property
    def ok(self) -> bool:
        return self.diff.is_zero()


class TransportReport(Record):
    __slots__ = ("n", "q", "map_matrix", "entries")

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
    zero = BaseScalar.zero(cls.n)
    return [sum(map(BaseScalar.scale, cls.e, row), zero)
            for row in lmap.matrix]


def _pair_through_table(lmap: LinearMap, i: int, j: int,
                        crt: ProductTable):
    """Phi(E_i) . Phi(E_j) expanded bilinearly through the Chen-Ruan table
    crt: its s part and its basis coefficients.

    Terms are summed in (k, kk) order; a Chen-Ruan entry has a single
    nonzero slot, so this costs O(n^2) per product.
    """
    n = crt.n
    acc = [BaseScalar.zero(n)] * (n + 1)    # the s part, then e_1..e_n
    for k, row in enumerate(lmap.matrix):
        ci = row[i - 1]
        if ci.is_zero():
            continue
        for kk, other in enumerate(lmap.matrix):
            cj = other[j - 1]
            if cj.is_zero():
                continue
            weight = ci * cj
            for p, part in enumerate(_parts(crt.entry(k + 1, kk + 1))):
                if part:
                    acc[p] = acc[p] + part.scale(weight)
    return acc[0], acc[1:]


def _parts(entry: ExcClass):
    return (entry.s, *entry.e)


def _cups(source: ProductTable, key) -> list:
    """The basis coefficients of the pair's product, or of a symbolic
    table their cup parts."""
    e = source.entry(*key).e
    return [c.cup for c in e] if source.kind == KIND_QUANTUM else e


def _class_weights(qct: ProductTable):
    """{beta: w} for each pair of the symbolic table, in `pairs()` order,
    when each pair's correction is w delta_beta K on each of E_mu..E_nu and
    on no other generator, class by class, as `qc_table` writes it; else
    None."""
    weights = []
    for key in qct.pairs():
        e = qct.entry(*key).e
        pair = {}
        for coeff in e:
            pair.update(coeff.corr.terms)
        for l, coeff in enumerate(e, 1):
            if coeff.corr.terms != {b: w for b, w in pair.items()
                                    if b.mu <= l <= b.nu}:
                return None
        weights.append(pair)
    return weights


def _packing(lmap: LinearMap, source: ProductTable, crt: ProductTable,
             deltas: dict | None = None) -> Kronecker | None:
    """The operands packed for the kernel, with the Chen-Ruan table crt,
    when clauses (a)-(c) of the module docstring hold, else None.  A
    symbolic source comes with its delta values `deltas` at the point."""
    conductors = {c.conductor for row in lmap.matrix for c in row
                  if not c.is_zero()}
    if len(conductors) != 1:
        return None
    (conductor,) = conductors
    cups = {key: _cups(source, key) for key in source.pairs()}
    if any(conductor % c.conductor for e in cups.values() for coeff in e
           for c in coeff.terms.values()) or any(
               conductor % d.conductor for d in (deltas or {}).values()):
        return None
    n = source.n
    # the kinds of term summed below, as (most terms, factor groups of a
    # term): a coefficient of Phi(E_i * E_j) sums over l the products (map
    # entry (k, l)) x (source coefficient l), one of Phi(E_i) . Phi(E_j)
    # over (k, k') the products t x (map entry (k, i)) x (map entry (k', j)),
    # at most n, as e_k e_k' has one term t, at a place k + k' fixes
    groups = {
        "map": {(k, l): c for k, row in enumerate(lmap.matrix)
                for l, c in enumerate(row) if not c.is_zero()},
        "source": {(key, l, mono): c for key, e in cups.items()
                   for l, coeff in enumerate(e)
                   for mono, c in coeff.terms.items()},
        "cr": {(key, p, mono): c for key in crt.pairs()
               for p, part in enumerate(_parts(crt.entry(*key)))
               for mono, c in part.terms.items()},
    }
    kinds = [(n, ("map", "source")), (n, ("cr", "map", "map"))]
    if deltas is not None:
        # and the correction of Phi(E_i * E_j) sums, on each of K's
        # monomials, w kappa delta_b x (map entry (k, l)) over the classes b
        # and their l, kappa being K's one rational coefficient: sum |w|
        # terms over the pair's coefficients
        groups["kappa"] = {0: next(iter(BaseScalar.K(n).terms.values()))}
        groups["delta"] = deltas
        kinds.append((max(sum(abs(w) for coeff in source.entry(*key).e
                              for w in coeff.corr.terms.values())
                          for key in source.pairs()),
                      ("kappa", "delta", "map")))
    kr = Kronecker.pack(conductor, groups, kinds)
    if kr.bits > max(64, 2 * kr.typical):
        return None
    return kr


def _class_sums(kr: Kronecker, n: int) -> dict:
    """D_b[k] = kappa delta_b S_b[k] for each class b and map row k, S_b[k]
    the sum of map row k over E_mu..E_nu, a difference of its prefix sums:
    packed, and scaled as the correction's kind."""
    scale = kr.scales[2] * kr.packed["kappa"][0]
    prefix = []
    for k in range(n):
        row = [0]
        for l in range(n):
            row.append(row[-1] + kr.packed["map"].get((k, l), 0))
        prefix.append(row)
    return {b: [scale * d * (row[b.nu] - row[b.mu - 1]) for row in prefix]
            for b, d in kr.packed["delta"].items()}


def _packed_differences(source: ProductTable, kr: Kronecker, weights=None):
    """The difference Phi(E_i * E_j) - Phi(E_i) . Phi(E_j) of every source
    pair (i, j), summed as the Kronecker-packed integers of `_packing`; the
    values and conductors are those of the slot-by-slot path.  A symbolic
    source comes with its `_class_weights`."""
    n = source.n
    # scaled by a and -b, both sides sum straight into their difference
    a, b = kr.scales[:2]
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
    if weights is not None:
        corrections = _class_sums(kr, n)
        monos = tuple(BaseScalar.K(n).terms)
    diffs = []
    for index, key in enumerate(source.pairs()):
        i, j = key
        sums = [{} for _ in range(n + 1)]   # the s part, then e_1..e_n
        for l, coeff in enumerate(_cups(source, key)):
            for mono in coeff.terms:
                y = sources[key, l, mono]
                for k, x in columns[l]:
                    acc = sums[k + 1]
                    acc[mono] = acc.get(mono, 0) + x * y
        if weights is not None:
            # the correction: sum_b w_b D_b[k] on each of K's monomials
            total = [0] * n
            for cls, w in weights[index].items():
                total = [t + w * d for t, d in zip(total, corrections[cls])]
            for acc, t in zip(sums[1:], total):
                if t:
                    for mono in monos:
                        acc[mono] = acc.get(mono, 0) + t
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
        diffs.append(ExcClass(n, source.entry(i, j).s + minus_rhs_s,
                              tuple(diff_e)))
    return diffs


def transport_check(lmap: LinearMap, source: ProductTable, q=None,
                    crt: ProductTable | None = None) -> TransportReport:
    """Compare Phi(source product) with the Chen-Ruan product of the images,
    read from crt, `cr_table(n)`, which is built here unless the caller
    has it.

    The source is an evaluated table, or the symbolic `qc_table(n)` with
    the point q: its delta values are `tables.point_deltas`, which
    raises `qc_eval`'s PoleError before anything is summed, and the kernel
    sums them straight into the differences, without the evaluated table.
    The sums run packed when the map, the source and the point share one
    conductor and packing pays, as the module docstring states; otherwise a
    symbolic source is evaluated from its delta values, and checked as an
    evaluated table is.
    """
    RankMismatch.check(lmap.n, source.n)
    if q is None and source.kind == KIND_QUANTUM:
        raise ValueError("source table still has symbolic delta terms; "
                         "evaluate it with qc_eval first, or give the point")
    if q is not None and source.kind != KIND_QUANTUM:
        raise ValueError("a point applies only to a symbolic quantum table")
    n = source.n
    if crt is None:
        crt = cr_table(n)
    weights = None
    if q is not None:
        q, deltas = point_deltas(source, q)
        weights = _class_weights(source)
        kr = None if weights is None else _packing(lmap, source, crt, deltas)
        if kr is None:
            # not the rank-one form, or a clause fails: check the evaluation
            source, weights = qc_eval_at(source, q, deltas), None
    if weights is None:
        kr = _packing(lmap, source, crt)
    if kr is not None:
        diffs = _packed_differences(source, kr, weights)
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
    return TransportReport(n, source.q if q is None else tuple(q), lmap,
                           checks)
