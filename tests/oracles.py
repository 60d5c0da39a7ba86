"""Test oracles: plain functions over the library's public data.

None of these is needed by a command of the library; each restates an
operation or a property that the tests check the library against.  They read
only public data (`Cyclotomic.coeffs`, `BaseScalar.terms`, `LinearMap.matrix`,
`ProductTable.entry`, `QCoeff.cup`/`corr`).  pytest does not collect this
module.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from crepant.coeffring import BaseScalar, accumulate
from crepant.corrections import (CorrectionFunction, DeltaIndex, PoleError,
                                 cache_deltas)
from crepant.exactnum import (Cyclotomic, InvalidRoot, cyclotomic_polynomial,
                              euler_phi, imaginary_unit, root_of_unity)
from crepant.isocheck import (EntryCheck, RootScan, TransportReport,
                              transport_check)
from crepant.mckay import LinearMap, McKayGraph, bgp_map
from crepant.ringtables import (KIND_CUP, KIND_QUANTUM, ExcClass,
                                ProductTable, QCoeff, beta_pairing, cr_table,
                                cup_table, qc_eval, qc_table)

# -- Gauss-Jordan elimination ------------------------------------------------


def solve_exact(rows, rhs, *, zero):
    """Solve A x = b for an exactly determined or overdetermined system.

    Returns the unique solution vector, or None when the system is
    inconsistent.  Raises ValueError when the solution is not unique
    (rank < number of unknowns).
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _eliminate(aug, ncols)
    for row in aug:
        if all(not x for x in row[:ncols]) and row[ncols]:
            return None
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined")
    solution = [zero] * ncols
    for r, c in enumerate(pivots):
        solution[c] = aug[r][ncols]
    return solution


def _eliminate(aug, ncols):
    """Reduce aug to reduced row echelon form on its first ncols columns.

    Returns the list of pivot columns, in row order.
    """
    nrows = len(aug)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pivval = aug[row][col]
        aug[row] = [x / pivval for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots


# -- Cyclotomic ---------------------------------------------------------------


def descend(x: Cyclotomic, conductor: int) -> Cyclotomic:
    """x rewritten in the subfield Q(zeta_M), M | N.

    Raises ValueError when x does not lie in the subfield.
    """
    if x.conductor % conductor:
        raise ValueError("target conductor must divide the conductor")
    basis = [root_of_unity(conductor, k).lift(x.conductor).coeffs
             for k in range(euler_phi(conductor))]
    rows = [list(row) for row in zip(*basis)]
    sol = solve_exact(rows, list(x.coeffs), zero=Fraction(0))
    if sol is None:
        raise ValueError("element does not lie in the requested subfield")
    return Cyclotomic(conductor, sol)


def conjugate(x: Cyclotomic) -> Cyclotomic:
    """Complex conjugation, the Galois map zeta -> zeta^-1."""
    return sum((c * root_of_unity(x.conductor, -k)
                for k, c in enumerate(x.coeffs)), Cyclotomic.zero(x.conductor))


def bareiss_inverse(x: Cyclotomic) -> Cyclotomic:
    """1/x for a nonzero x, by solving the integer multiplication matrix.

    Column k of the matrix is x^k * num mod Phi_N, num the numerators of x
    over its common denominator den; fraction-free (Bareiss) elimination and
    back substitution give z and d = +-det with matrix * z = d e_0, so
    1/x = den * z/d.
    """
    n, coeffs = x.conductor, x.coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    cols, col = [], [int(c * den) for c in coeffs]
    for _ in range(m):
        cols.append(col)
        top = col[-1]
        col = [c - top * p for c, p in zip([0] + col[:-1], phi)]
    rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(m)]
    prev = 1
    for k in range(m):
        if not rows[k][k]:
            swap = next(i for i in range(k + 1, m) if rows[i][k])
            rows[k], rows[swap] = rows[swap], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(a * pivot - f * b) // prev
                           for a, b in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = pivot
    z = [0] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        acc = prev * row[m] - sum(a * b for a, b in zip(row[i + 1:m],
                                                        z[i + 1:]))
        z[i] = acc // row[i]
    return Cyclotomic(n, [Fraction(den * v, prev) for v in z])


# -- coordinates through Fractions --------------------------------------------
#
# The library spells and reads each coordinate from its integer numerator and
# the common denominator.  These are the formulas it used before, one
# `Fraction` per coordinate.

_COORDINATE = re.compile(r"[-+]?[0-9]+(/0*[1-9][0-9]*)?")


def fraction_to_json(x: Cyclotomic):
    """`Cyclotomic.to_json` as str(Fraction) of every coordinate."""
    return {"conductor": x.conductor, "coeffs": [str(c) for c in x.coeffs]}


def fraction_str(x: Cyclotomic) -> str:
    """`Cyclotomic.__str__` from the Fraction coordinates."""
    if x.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            sym = f"z{x.conductor}" + (f"^{k}" if k > 1 else "")
            parts.append(sym if c == 1 else
                         f"-{sym}" if c == -1 else f"{c}*{sym}")
    return " + ".join(parts).replace("+ -", "- ")


def _fraction_latex_coordinate(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    sign = "-" if fr < 0 else ""
    return f"{sign}\\frac{{{abs(fr.numerator)}}}{{{fr.denominator}}}"


def fraction_latex(c: Cyclotomic) -> str:
    """`ringtables._ltx_cyclotomic` from the Fraction coordinates."""
    if c.is_rational():
        return _fraction_latex_coordinate(c.as_fraction())
    parts = []
    for k, coeff in enumerate(c.coeffs):
        if not coeff:
            continue
        sym = "" if k == 0 else f"\\zeta_{{{c.conductor}}}" + \
            (f"^{{{k}}}" if k > 1 else "")
        if not sym:
            parts.append(_fraction_latex_coordinate(coeff))
        elif coeff == 1:
            parts.append(sym)
        elif coeff == -1:
            parts.append(f"-{sym}")
        else:
            parts.append(f"{_fraction_latex_coordinate(coeff)}{sym}")
    text = ""
    for p in parts:
        if not text:
            text = p
        elif p.startswith("-"):
            text += " - " + p[1:]
        else:
            text += " + " + p
    return text or "0"


def fraction_from_json(data) -> Cyclotomic:
    """`Cyclotomic.from_json` through one Fraction per coordinate: the same
    checks, in the same order, with the same exceptions."""
    conductor, coeffs = data["conductor"], data["coeffs"]
    if isinstance(conductor, bool) or not isinstance(conductor, int):
        raise ValueError("cyclotomic conductor must be an int, not "
                         f"{type(conductor).__name__}")
    if not isinstance(coeffs, list) or not all(
            (isinstance(c, int) and not isinstance(c, bool))
            or (isinstance(c, str) and _COORDINATE.fullmatch(c))
            for c in coeffs):
        raise ValueError("cyclotomic coeffs must be a list of ints or "
                         'strings such as "-3/4"')
    return Cyclotomic(conductor, [Fraction(c) for c in coeffs])


# -- roots of unity by powers and inverses of zeta ---------------------------
#
# The library builds every power of a root of unity in closed form with
# `root_of_unity`.  These references build the same values the generic way,
# by `Cyclotomic.__pow__` (square-and-multiply, a Galois-norm inverse for
# each negative exponent), through the sine identities the closed forms rest
# on.


def power_branch_sqrt(n: int, m: int, k: int) -> Cyclotomic:
    """`exactnum.branch_sqrt` via 2 sin(pi j/(n+1)) = -i (w^j - w^-j)."""
    np1 = n + 1
    m_red = m % np1
    if math.gcd(m_red, np1) != 1:
        raise InvalidRoot(f"zeta^{m} is not a primitive {np1}-th root of 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    conductor = 4 * np1
    i_unit = imaginary_unit(conductor)
    omega = root_of_unity(conductor, 2)  # zeta_{2(n+1)}
    # 2 sin(pi j/(n+1)) = -i (omega^j - omega^-j); the sine is positive for
    # 0 < j < n+1 and negative for n+1 < j < 2(n+1).  j = k*m is never a
    # multiple of n+1 because gcd(m, n+1) = 1 and 0 < k < n+1.
    j = (k * m_red) % (2 * np1)
    two_sin = -i_unit * (omega ** j - omega ** (-j))
    magnitude = two_sin if 0 < j < np1 else -two_sin
    upper = 2 * m_red < np1
    return i_unit * magnitude if upper else -(i_unit * magnitude)


def power_chtd_map(n: int) -> LinearMap:
    """`mckay.chtd_map` with zeta^e = zeta ** e and x / denom per entry."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    zeta = root_of_unity(n + 1, 1)
    rows = []
    for l in range(1, n + 1):
        denom = 2 - zeta ** l - zeta ** (-l)
        rows.append(tuple(zeta ** (-l * m) / denom
                          for m in range(1, n + 1)))
    return LinearMap(n, tuple(rows))


def power_bgp_map(n: int, m_root: int) -> LinearMap:
    """`mckay.bgp_map` with zeta^{lk} = zeta ** (l k) and
    `power_branch_sqrt`."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if math.gcd(m_root, n + 1) != 1:
        raise InvalidRoot(
            f"m_root={m_root} is not coprime to {n + 1}")
    conductor = 4 * (n + 1)
    zeta = root_of_unity(conductor, 4 * (m_root % (n + 1)))
    rows = []
    for k in range(1, n + 1):
        root = power_branch_sqrt(n, m_root, k)
        rows.append(tuple(zeta ** (l * k) * root
                          for l in range(1, n + 1)))
    return LinearMap(n, tuple(rows))


def _legendre(t: int, p: int) -> int:
    r = pow(t, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def power_sqrt_rational(value, conductor: int) -> Cyclotomic:
    """`exactnum.sqrt_rational` with sqrt(2) = z8 + z8 ** (-1) and each
    Gauss sum over zp ** t."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("sqrt_rational expects a nonnegative rational")
    if value == 0:
        return Cyclotomic.zero(1)
    d = value.numerator * value.denominator  # sqrt(p/q) = sqrt(p q)/q
    square, squarefree = Fraction(1, value.denominator), 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            square *= f
        if d % f == 0:
            d //= f
            squarefree *= f
        f += 1
    squarefree *= d
    if squarefree == 1:
        return Cyclotomic.from_rational(square)
    root = Cyclotomic.from_rational(square, conductor)
    rest = squarefree
    if rest % 2 == 0:
        if conductor % 8 != 0:
            raise ValueError(f"sqrt(2) is not in Q(zeta_{conductor})")
        z8 = root_of_unity(conductor, conductor // 8)
        root = root * (z8 + z8 ** (-1))
        rest //= 2
    p = 3
    while rest > 1:
        if rest % p == 0:
            rest //= p
            if conductor % p != 0:
                raise ValueError(f"sqrt({p}) is not in Q(zeta_{conductor})")
            zp = root_of_unity(conductor, conductor // p)
            gauss = sum((_legendre(t, p) * zp ** t for t in range(1, p)),
                        Cyclotomic.zero(conductor))
            if p % 4 == 1:
                root = root * gauss
            else:
                # gauss = i sqrt(p) for p = 3 mod 4
                root = root * (-imaginary_unit(conductor)) * gauss
        p += 2
    return root


# -- the polynomial ring H*(S) ----------------------------------------------
#
# The library's scalars are constants and linear forms, only added and scaled
# by numbers.  These restate the polynomial ring they live in: the product of
# two scalars, the substitution of generators, and the degenerations of the
# tables built on them.


def product(a: BaseScalar, b: BaseScalar) -> BaseScalar:
    """a * b, summed by `accumulate` over a's terms, then b's, in order."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            accumulate(out, tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
    return BaseScalar(a.n, out)


def substitute(x, assignment: dict):
    """x with generators replaced by BaseScalars of the same rank.

    x is a BaseScalar, an ExcClass, a ProductTable or a QCoeff.  Keys are
    "L", "M" (rank >= 2) or "K" (rank 1); generators absent from the
    assignment map to themselves.  A QCoeff keeps its correction and has
    its cup part substituted; the class K that the correction multiplies is
    implied by the QCoeff, so its image is `substitute(BaseScalar.K(n), ...)`.
    """
    if isinstance(x, ProductTable):
        return ProductTable(x.n, x.kind,
                            {key: substitute(x.entry(*key), assignment)
                             for key in x.pairs()}, x.q)
    if isinstance(x, ExcClass):
        return ExcClass(x.n, substitute(x.s, assignment),
                        tuple(substitute(c, assignment) for c in x.e))
    if isinstance(x, QCoeff):
        return QCoeff(substitute(x.cup, assignment), x.corr)
    gens = ("K",) if x.n == 1 else ("L", "M")
    images = []
    for idx, name in enumerate(gens):
        img = assignment.get(name)
        if img is None:
            key = tuple(1 if i == idx else 0 for i in range(len(gens)))
            img = BaseScalar(x.n, {key: 1})
        elif img.n != x.n:
            raise ValueError("substitution rank mismatch")
        images.append(img)
    out = BaseScalar.zero(x.n)
    for mono, coeff in x.terms.items():
        term = BaseScalar.const(x.n, coeff)
        for img, expo in zip(images, mono):
            for _ in range(expo):
                term = product(term, img)
        out = out + term
    return out


def strip_corrections(table: ProductTable) -> ProductTable:
    """The q -> 0 limit of a symbolic quantum table, as a cup table: each
    coefficient's cup part, every delta vanishing at q = 0."""
    entries = {}
    for key in table.pairs():
        entry = table.entry(*key)
        entries[key] = ExcClass(table.n, entry.s,
                                tuple(c.cup for c in entry.e))
    return ProductTable(table.n, KIND_CUP, entries)


# -- table builders -------------------------------------------------------------
#
# `ringtables.cup_table` writes each h_l from its integer numerator over n+1
# and `qc_table` walks each weighted class's interval once.  These build the
# same tables through BaseScalar arithmetic and by filtering every weight for
# every l.


def cup_table_by_scalars(n: int) -> ProductTable:
    """The cup table, each h_l = (l/(n+1)) L or ((n+1-l)/(n+1)) M scaled by
    a Fraction, doubled and negated as BaseScalars."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if n == 1:
        return ProductTable(1, KIND_CUP, {(1, 1): ExcClass(
            1, BaseScalar.const(1, -2), (BaseScalar.K(1).scale(2),))})
    L, M, K = BaseScalar.L(n), BaseScalar.M(n), BaseScalar.K(n)
    zero = BaseScalar.zero(n)
    entries = {}
    for i in range(1, n + 1):
        h = [L.scale(Fraction(l, n + 1)) if l <= i
             else M.scale(Fraction(n + 1 - l, n + 1))
             for l in range(1, n + 1)]
        diag = [c.scale(2) for c in h]
        diag[i - 1] = diag[i - 1] + M - K.scale(i - 1)
        entries[(i, i)] = ExcClass(n, BaseScalar.const(n, -2), tuple(diag))
        if i < n:
            entries[(i, i + 1)] = ExcClass(n, BaseScalar.one(n),
                                           tuple(-c for c in h))
        for j in range(i + 2, n + 1):
            entries[(i, j)] = ExcClass(n, zero, (zero,) * n)
    return ProductTable(n, KIND_CUP, entries)


def qc_table_by_filter(n: int) -> ProductTable:
    """The symbolic quantum table over `cup_table_by_scalars`, each
    coefficient's correction the weights filtered by mu <= l <= nu."""
    cup = cup_table_by_scalars(n)
    betas = [DeltaIndex(mu, nu) for mu in range(1, n + 1)
             for nu in range(mu, n + 1)]
    pairings = [{b: w for b in betas if (w := beta_pairing(n, i, *b))}
                for i in range(1, n + 1)]
    entries = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            base = cup.entry(i, j)
            pj = pairings[j - 1]
            weights = {b: w * pj[b] for b, w in pairings[i - 1].items()
                       if b in pj}
            coeffs = tuple(
                QCoeff(base.e[l - 1],
                       CorrectionFunction(n, {
                           b: w for b, w in weights.items()
                           if b.mu <= l <= b.nu}))
                for l in range(1, n + 1))
            entries[(i, j)] = ExcClass(n, base.s, coeffs)
    return ProductTable(n, KIND_QUANTUM, entries)


# -- corrections at a point ---------------------------------------------------
#
# `ringtables.qc_eval` sums every correction at a point as one packed integer
# per coefficient.  These evaluate term by term in the field instead.


def correction_eval(f: CorrectionFunction, q, deltas=None) -> Cyclotomic:
    """sum w * delta at a q-point, each term a field product and sum.

    `deltas` is an optional cache of delta values at this same point, shared
    by several calls and filled by `corrections.cache_deltas`.
    """
    if deltas is None:
        deltas = {}
    cache_deltas(f, q, deltas)
    value = Cyclotomic.zero(1)
    for idx in sorted(f.terms):
        value = value + f.terms[idx] * deltas[idx]
    return value


def qcoeff_eval(c: QCoeff, q, deltas, kappa: BaseScalar) -> BaseScalar:
    """A quantum coefficient at q, `deltas` caching delta values at q and
    `kappa` being K: its cup part plus K scaled by its correction."""
    return c.cup + kappa.scale(correction_eval(c.corr, q, deltas))


# -- BaseScalar grading -------------------------------------------------------


def degrees(s: BaseScalar) -> set:
    """Cohomological degrees present (each generator has degree 2)."""
    return {2 * sum(mono) for mono in s.terms}


def degree(s: BaseScalar) -> int:
    """Top cohomological degree, or -1 for the zero scalar."""
    return max(degrees(s), default=-1)


def is_homogeneous(s: BaseScalar) -> bool:
    return len(degrees(s)) <= 1


def homogeneous_part(s: BaseScalar, deg: int) -> BaseScalar:
    return BaseScalar(s.n, {mono: c for mono, c in s.terms.items()
                            if 2 * sum(mono) == deg})


def swap_lm(s: BaseScalar) -> BaseScalar:
    """The ring involution exchanging L and M (identity for n = 1)."""
    if s.n == 1:
        return s
    return BaseScalar(s.n, {(j, i): c for (i, j), c in s.terms.items()})


# -- the A_n Cartan matrix ----------------------------------------------------


@dataclass(frozen=True)
class CartanData:
    n: int
    c: tuple[tuple[int, ...], ...]
    c_inv: tuple[tuple[Fraction, ...], ...]


def cartan_build(n: int) -> CartanData:
    """Minus the A_n Cartan matrix c_n (-2 on the diagonal, 1 next to it: the
    intersection matrix of the exceptional (-2)-curves) and its inverse
    (c_n^-1)_{ij} = -min(i, j) (n + 1 - max(i, j)) / (n + 1).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    c = tuple(tuple(-2 if i == j else 1 if abs(i - j) == 1 else 0
                    for j in range(n)) for i in range(n))
    c_inv = tuple(tuple(Fraction(-min(i, j) * (n + 1 - max(i, j)), n + 1)
                        for j in range(1, n + 1)) for i in range(1, n + 1))
    return CartanData(n, c, c_inv)


def row_sum_pairing(cd: CartanData, i: int, mu: int, nu: int) -> int:
    """E_i . beta_{mu nu} as the row sum of c_n over mu..nu, 1-based: the
    reference for the closed form `ringtables.beta_pairing`."""
    if not (1 <= i <= cd.n and 1 <= mu <= nu <= cd.n):
        raise ValueError("index out of range")
    return sum(cd.c[i - 1][j - 1] for j in range(mu, nu + 1))


# -- maps and tables ----------------------------------------------------------


def identity_map(n: int) -> LinearMap:
    one, zero = Cyclotomic.one(1), Cyclotomic.zero(1)
    return LinearMap(n, tuple(tuple(one if i == j else zero
                                    for j in range(n)) for i in range(n)))


def is_invertible(matrix) -> bool:
    """Full rank: M x = 0 has the single solution x = 0."""
    zero = Cyclotomic.zero(1)
    try:
        solve_exact([list(row) for row in matrix], [zero] * len(matrix),
                    zero=zero)
    except ValueError:  # underdetermined
        return False
    return True


def cr_associativity_report(n: int):
    """Check (e_a e_b) e_c = e_a (e_b e_c) whenever both sides stay inside
    the modeled span.

    Triples needing an s * e_l product (some pairwise product hits the
    antidiagonal) are outside the tabulated algebra and are reported as
    skipped rather than guessed.  Returns (all_equal, checked, skipped).
    """
    table = cr_table(n)

    def times_generator(cls, c):
        s, e = BaseScalar.zero(n), [BaseScalar.zero(n)] * n
        for l, coeff in enumerate(cls.e, start=1):
            prod = table.entry(l, c)
            s = s + product(coeff, prod.s)
            e = [x + product(coeff, y) for x, y in zip(e, prod.e)]
        return s, e

    checked, skipped = [], []
    ok = True
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if (a + b) % (n + 1) == 0 or (b + c) % (n + 1) == 0:
                    skipped.append((a, b, c))
                    continue
                checked.append((a, b, c))
                if (times_generator(table.entry(a, b), c)
                        != times_generator(table.entry(b, c), a)):
                    ok = False
    return ok, checked, skipped


# -- transport ----------------------------------------------------------------


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
        out.append(BaseScalar(n, acc))
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
    return (BaseScalar(n, s_acc),
            [BaseScalar(n, acc) for acc in e_acc])


def slot_by_slot_transport(lmap: LinearMap,
                           source: ProductTable) -> TransportReport:
    """`isocheck.transport_check` with every sum written out: one field
    product and one `accumulate` per term, in (k, k') order, then the two
    sides subtracted, whatever the conductors of the map and the source.
    Both routes of the check must print its bytes."""
    n = source.n
    crt = cr_table(n)
    checks = []
    for i, j in source.pairs():
        entry = source.entry(i, j)
        lhs = _apply_map(lmap, entry)
        rhs_s, rhs_e = _pair_through_table(lmap, i, j, crt)
        checks.append(EntryCheck(i, j, ExcClass(
            n, entry.s - rhs_s, tuple(a - b for a, b in zip(lhs, rhs_e)))))
    return TransportReport(n, source.q, lmap, tuple(checks))


# -- the rank-2 delta system --------------------------------------------------


def delta_system(lmap: LinearMap, qct: ProductTable):
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


# -- McKay graphs -------------------------------------------------------------


def an_mckay_by_entries(n: int, reduced: bool = True) -> McKayGraph:
    """`mckay.an_mckay` with each adjacency entry its own character inner
    product (S(1+j-i) + S(j-i-1))/o, each sum S(e) = sum_g zeta^(eg) summed
    as field additions: the reference for the graph by residues."""
    order = n + 1
    powers = [root_of_unity(order, e) for e in range(order)]
    sums = [sum(powers[e * g % order] for g in range(order))
            for e in range(order)]
    labels = list(range(order)) if not reduced else list(range(1, order))
    adjacency = []
    for i in labels:
        row = []
        for j in labels:
            value = ((sums[(1 + j - i) % order] + sums[(j - i - 1) % order])
                     / order).as_fraction()
            assert value.denominator == 1 and value >= 0
            row.append(int(value))
        adjacency.append(tuple(row))
    vertices = tuple((f"lambda_{i}", 1) for i in labels)
    return McKayGraph(f"A_{n}", vertices, tuple(adjacency), reduced)


# -- the scan -----------------------------------------------------------------


def conjecture_scan_every_root(n: int) -> list[RootScan]:
    """`isocheck.conjecture_scan` evaluating and checking every primitive
    root, with no use of conjugation: the reference for the scan's
    conjugate pairs."""
    qct = qc_table(n)
    results = []
    for m_root in range(1, n + 1):
        if math.gcd(m_root, n + 1) != 1:
            continue
        zeta = root_of_unity(4 * (n + 1), 4 * m_root)
        try:
            evaluated = qc_eval(qct, [zeta] * n)
        except PoleError as exc:
            results.append(RootScan(m_root, "pole", None, exc))
            continue
        report = transport_check(bgp_map(n, m_root), evaluated)
        results.append(RootScan(
            m_root, "pass" if report.passed else "fail", report))
    return results


def branch_signs(n: int, m_root: int) -> list:
    """eps_0 = 1, eps_1..eps_n with bgp_map(n, m_root)[k][l] =
    eps_k sigma_a(bgp_map(n, 1)[k][l]), for a = m_root + t(n+1) odd, t in
    {0, 1}: a unit mod 4(n+1), with a = m_root mod n+1.

    Sign arithmetic on the definition of `exactnum.branch_exponent`: with
    w = zeta_{2(n+1)} and j = km mod 2(n+1), entry (k, l) is
    zeta^(lk) b(m, j) (w^j - w^-j), b(m, j) = +1 exactly when
    (j < n+1) == (2m < n+1).  sigma_a fixes zeta^(lk) at m and sends
    w^k - w^-k to w^(ak) - w^(-ak) = (-1)^(tk) (w^(mk) - w^(-mk)), as
    w^(n+1) = -1, so eps_k = b(m, km) b(1, k) (-1)^(tk).
    """
    def b(m, j):
        return 1 if (j % (2 * (n + 1)) < n + 1) == (2 * m < n + 1) else -1

    t = 0 if m_root % 2 else 1
    return [1] + [b(m_root, k * m_root) * b(1, k) * (-1) ** (t * k)
                  for k in range(1, n + 1)]


def character_scan(n: int) -> list:
    """The status `isocheck.conjecture_scan(n)` gives each primitive root,
    predicted in O(n^2) sign arithmetic: "pass" exactly when
    `branch_signs` is a +-1 character of Z/(n+1), eps_(k + k') =
    eps_k eps_k' for all k and k' mod n+1.

    The difference of pair (i, j) at m_root is the transport of the one at
    m_root = 1, which passes, plus Phi^T C Phi, C_kk' the Chen-Ruan term of
    e_k e_k', which lies in the one part p = k + k' mod n+1, times
    eps_p eps_k eps_k' - 1.  Phi is invertible, so the check passes exactly
    when every such weight is zero.
    """
    statuses = []
    for m in range(1, n + 1):
        if math.gcd(m, n + 1) != 1:
            continue
        eps = branch_signs(n, m)
        character = all(eps[(k + kk) % (n + 1)] == eps[k] * eps[kk]
                        for k in range(n + 1) for kk in range(n + 1))
        statuses.append("pass" if character else "fail")
    return statuses

