"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored as its coordinate vector in the power basis
1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic polynomial Phi_N, in
the layout of FLINT/Antic `nf_elem`: a tuple of integer numerators over one
positive integer denominator, normalised so that the gcd of the numerators and
the denominator is 1.  That normal form is unique, so equality is a tuple
comparison (after lifting both operands into a common conductor);
`Cyclotomic.coeffs` presents the coordinates as `fractions.Fraction`s (the
solvers sort by them); the emitters do not go through it: `to_json`,
`__str__` and the LaTeX emitter spell each coordinate from the integers
(`coordinate_strings`, one gcd each) and `from_json` reads them back with
`int`.

Phi_N is monic with integer coefficients, so every reduction stays in the
integers.  A product is reduced in one pass over the cached rows
x^k mod Phi_N, phi(N) <= k <= 2 phi(N) - 2; lifts, Galois images and
powers of zeta are reduced by monic division, after folding zeta^(N/2) = -1
when N is even.  A rational adds into the constant coordinate of a value
whose conductor its own divides, with no lift.  The inverse of 1 - zeta^a is
a closed form, 1/(1 - w) = -(1/o) sum_{j<o} j w^j for w = zeta^a of order
o; any other x is prod_{a != 1} sigma_a(x) over the norm, the positive
rational x prod_{a != 1} sigma_a(x).  There is no floating point anywhere;
`Cyclotomic.to_complex` exists only as a non-authoritative display aid.

`Kronecker` runs one kind of sum of products in one field Q(zeta_N) as
big-integer arithmetic: each distinct operand of a group is packed once as
one Python int, its coordinates over its group's common denominator
evaluated at x = 2^b, so each product is one big-integer multiplication and
each sum one addition.  A result is zero in the field exactly when the
packed Phi_N(2^b) divides it: with every conjugate of its value bounded by
the digit bound B < 2^b - 1, a nonzero value in the ideal of norm Phi_N(2^b)
that the division puts it in would need a norm of at least
Phi_N(2^b) >= (2^b - 1)^phi > B^phi.  So one big-integer remainder drops
every zero result, and only the others are unpacked with balanced digits
and reduced mod Phi_N, once each.  Its caller declares the kinds of term a
sum may hold; the pack gives each kind's scale to the sum's common
denominator, the digit width the sum needs and the width a typical operand
would need.

Besides field arithmetic the module provides the two square-root gadgets the
rest of the library needs:

* `branch_sqrt(n, m, k)` -- the branch-resolved value of
  (zeta^k + zeta^-k - 2)^(1/2) for zeta = exp(2 pi i m/(n+1)), in conductor
  4(n+1): +(w^j - w^-j) with w = zeta_{2(n+1)}, j = km mod 2(n+1) and m
  reduced mod n+1 when (j < n+1) == (2m < n+1), and -(w^j - w^-j) otherwise;
  `branch_exponent` gives that rule as the exponent of zeta_{4(n+1)}.
* `sqrt_rational(x, N)` -- the nonnegative square root of a rational x >= 0,
  built from quadratic Gauss sums when sqrt(x) is irrational.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from fractions import Fraction

_RATIONAL = (int, Fraction)
_COORDINATE = re.compile(r"[-+]?[0-9]+(/0*[1-9][0-9]*)?")


class InvalidRoot(ValueError):
    """A requested root of unity is not primitive of the required order."""


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and per-conductor reduction data, all in integers.
# Polynomials are dense coefficient lists, constant term first.


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def euler_phi(n: int) -> int:
    """phi(n) = deg Phi_n, from the prime factorisation of n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    phi = n
    for p in _prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Built as the Moebius product of (x^d - 1)^mu(n/d) over the divisors d of
    n: the factors with mu = 1 are multiplied out, then the factors with
    mu = -1 are divided off, each division exact.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    primes = _prime_factors(n)
    up, down = [], []  # n/d runs over the squarefree divisors of n
    for mask in range(1 << len(primes)):
        s = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        (down if bin(mask).count("1") % 2 else up).append(n // s)
    poly = [1]
    for d in up:  # poly * (x^d - 1)
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + d] += c
        poly = out
    for d in down:  # poly / (x^d - 1): poly[i] = q[i - d] - q[i]
        q = []
        for i in range(len(poly) - d):
            q.append((q[i - d] if i >= d else 0) - poly[i])
        poly = q
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_n for phi(n) <= k <= 2 phi(n) - 2, as sparse rows of
    (index, coefficient) pairs; row 0 is x^phi(n) = -(Phi_n - x^phi(n))."""
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    row = [-c for c in phi[:m]]
    rows = []
    for _ in range(m - 1):
        rows.append(tuple((j, v) for j, v in enumerate(row) if v))
        top = row[-1]
        row = [0] + row[:-1]
        for j, v in rows[0]:
            row[j] += top * v
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _division_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the (degree, coefficient) pairs of Phi_n's nonzero terms
    below its leading one)."""
    phi = cyclotomic_polynomial(n)
    m = len(phi) - 1
    return m, tuple((i, c) for i, c in enumerate(phi[:m]) if c)


def _reduce(poly: list[int], n: int) -> list[int]:
    """An integer polynomial of any degree mod the monic Phi_n, padded to
    phi(n) coordinates; `poly` is overwritten.

    For even n, zeta_n^(n/2) = -1 first folds every degree >= n/2 down by
    n/2, flipping its sign once per wrap; monic division by Phi_n then
    runs over the degrees from n/2 - 1 down to phi(n) only.
    """
    m, terms = _division_terms(n)
    half = n // 2
    if n % 2 == 0 and len(poly) > half:
        for top in range(len(poly) - 1, half - 1, -1):
            poly[top - half] -= poly[top]
        del poly[half:]
    for top in range(len(poly) - 1, m - 1, -1):
        c = poly[top]
        if c:
            base = top - m
            for i, p in terms:
                poly[base + i] -= c * p
    del poly[m:]
    return poly + [0] * (m - len(poly))


# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_N), reduced modulo Phi_N.

    Construct values through `root_of_unity`, `Cyclotomic.from_rational` or
    arithmetic; the raw constructor expects an already-reduced vector of
    phi(N) int or Fraction coordinates.  Values are immutable.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __new__(cls, conductor: int, coeffs):
        coeffs = tuple(coeffs)
        _check_length(conductor, len(coeffs))
        for c in coeffs:
            if not isinstance(c, _RATIONAL):
                raise TypeError(f"coordinates must be int or Fraction, "
                                f"not {type(c).__name__}")
        den = math.lcm(*(c.denominator for c in coeffs))
        return cls._make(conductor,
                         tuple(c.numerator * (den // c.denominator)
                               for c in coeffs), den)

    def __setattr__(self, *args):
        raise AttributeError("Cyclotomic values are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Cyclotomic._make, (self.conductor, self._num, self._den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis, as Fractions."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, conductor, num, den=1) -> "Cyclotomic":
        """From integer coordinates over a positive denominator, brought to
        the normal form (the gcd of the numerators and the denominator is
        1); every value is built here."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        self = object.__new__(cls)
        _set_conductor(self, conductor)
        _set_num(self, tuple(num))
        _set_den(self, den)
        return self

    @classmethod
    def _from_poly(cls, conductor, poly, den=1) -> "Cyclotomic":
        """From an integer polynomial in zeta_N of any degree."""
        return cls._make(conductor, _reduce(poly, conductor), den)

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        if not isinstance(value, _RATIONAL):
            raise TypeError(f"expected an int or Fraction, "
                            f"not {type(value).__name__}")
        m = len(cyclotomic_polynomial(conductor)) - 1
        return cls._make(conductor, (value.numerator,) + (0,) * (m - 1),
                         value.denominator)

    @classmethod
    def zero(cls, conductor: int = 1) -> "Cyclotomic":
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> "Cyclotomic":
        return cls.from_rational(1, conductor)

    # -- structure ---------------------------------------------------------

    def lift(self, conductor: int) -> "Cyclotomic":
        """Re-express the element in the larger field Q(zeta_M), N | M."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift into a multiple of the conductor")
        num = self._num
        if not any(num[1:]):
            m = len(cyclotomic_polynomial(conductor)) - 1
            return Cyclotomic._make(conductor, num[:1] + (0,) * (m - 1),
                                    self._den)
        step = conductor // self.conductor
        poly = [0] * ((len(num) - 1) * step + 1)
        poly[::step] = num
        return Cyclotomic._from_poly(conductor, poly, self._den)

    def galois(self, a: int) -> "Cyclotomic":
        """The image under the field automorphism sigma_a: zeta_N -> zeta_N^a,
        a coprime to N, at the same conductor: coordinate k moves to
        zeta^(ak) and the sum is reduced once; a rational is fixed.

        >>> root_of_unity(5).galois(2) == root_of_unity(5, 2)
        True
        """
        num, n = self._num, self.conductor
        if math.gcd(a, n) != 1:
            raise ValueError(f"zeta_{n} -> zeta_{n}^{a} is not a field "
                             "automorphism")
        if not any(num[1:]):
            return self
        poly = [0] * n
        for k, c in enumerate(num):
            poly[a * k % n] = c
        return Cyclotomic._from_poly(n, poly, self._den)

    def conjugate(self) -> "Cyclotomic":
        """The complex conjugate, `galois(-1)`.

        >>> root_of_unity(5).conjugate() == root_of_unity(5, 4)
        True
        """
        return self.galois(-1)

    @staticmethod
    def common(a: "Cyclotomic", b: "Cyclotomic"):
        n = math.lcm(a.conductor, b.conductor)
        return a.lift(n), b.lift(n)

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value, conductor):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, _RATIONAL):
            return Cyclotomic.from_rational(value, conductor)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            if b.conductor % a.conductor == 0 and not any(a._num[1:]):
                a, b = b, a
            if a.conductor % b.conductor == 0 and not any(b._num[1:]):
                # a rational of a dividing conductor adds into the constant
                # coordinate, with no lift
                ad, bd = a._den, b._den
                if ad == bd:
                    return Cyclotomic._make(
                        a.conductor, (a._num[0] + b._num[0],) + a._num[1:],
                        ad)
                num = [x * bd for x in a._num]
                num[0] += b._num[0] * ad
                return Cyclotomic._make(a.conductor, num, ad * bd)
            a, b = Cyclotomic.common(a, b)
        ad, bd = a._den, b._den
        if ad == bd:
            return Cyclotomic._make(a.conductor,
                                    [x + y for x, y in zip(a._num, b._num)],
                                    ad)
        return Cyclotomic._make(a.conductor,
                                [x * bd + y * ad
                                 for x, y in zip(a._num, b._num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.conductor, [-x for x in self._num],
                                self._den)

    def __sub__(self, other):
        other = self._coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def _scale(self, num, den) -> "Cyclotomic":
        """self * num/den for integers num and den > 0."""
        return Cyclotomic._make(self.conductor, [x * num for x in self._num],
                                self._den * den)

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic.common(self, other)
        an, bn = a._num, b._num
        if not any(bn[1:]):
            return a._scale(bn[0], b._den)
        if not any(an[1:]):
            return b._scale(an[0], a._den)
        m = len(an)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    prod[k] += x * y
        out = prod[:m]
        for c, row in zip(prod[m:], _reduction_rows(a.conductor)):
            if c:
                for j, v in row:
                    out[j] += c * v
        return Cyclotomic._make(a.conductor, out, a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/self.  A rational inverts directly, and 1 - w for a root of
        unity w = zeta_N^a != 1 of order o in closed form:
        (1 - w) sum_{j<o} j w^j = -o, so 1/(1 - w) = -(1/o) sum_{j<o} j w^j.
        Every other value is the product of its other Galois conjugates over
        its norm: 1/x = prod_{a != 1} sigma_a(x) / N(x).

        >>> x = 2 + root_of_unity(5)
        >>> x * x.inverse() == 1
        True
        >>> print(x.inverse())
        5/11 - 3/11*z5 + 1/11*z5^2 - 1/11*z5^3
        """
        num, n = self._num, self.conductor
        if not any(num):
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        if not any(num[1:]):
            c = num[0]
            return Cyclotomic._make(
                n, (self._den if c > 0 else -self._den,) + num[1:], abs(c))
        if self._den == 1:
            a = _root_exponents(n).get(
                (1 - num[0],) + tuple(-x for x in num[1:]))
            if a is not None:
                o = n // math.gcd(a, n)
                poly = [0] * n
                for j in range(1, o):
                    poly[a * j % n] -= j
                return Cyclotomic._from_poly(n, poly, o)
        # x times the product of its other conjugates is the norm N(x), a
        # rational, and positive since Q(zeta_N) is totally complex
        rest = math.prod((self.galois(a) for a in range(2, n)
                          if math.gcd(a, n) == 1), start=Cyclotomic.one(n))
        norm = self * rest
        return rest._scale(norm._den, norm._num[0])

    def __truediv__(self, other):
        other = self._coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.one(self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other, self.conductor)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic.common(self, other)
        return a._den == b._den and a._num == b._num

    __hash__ = None  # cross-conductor equality makes a sane hash expensive

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {list(self.coeffs)})"

    def __str__(self):
        """The nonzero coordinates c_k as "c_0 + c_1*zN + c_2*zN^2 ...", each
        spelled as `coordinate_strings` does, "zN^k" alone for c_k = 1 and
        "- " for a negative sign; "0" for zero.

        >>> print(root_of_unity(3) - Fraction(1, 2))
        -1/2 + z3
        """
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coordinate_strings()):
            if c == "0":
                continue
            if k == 0:
                parts.append(c)
            else:
                sym = f"z{self.conductor}" + (f"^{k}" if k > 1 else "")
                parts.append(sym if c == "1" else
                             f"-{sym}" if c == "-1" else f"{c}*{sym}")
        return " + ".join(parts).replace("+ -", "- ")

    def coordinate_strings(self) -> list[str]:
        """Each coordinate as `str(Fraction)` spells it: "p/q" in lowest
        terms with q > 0, "p" for an integer; one gcd per coordinate.

        >>> (root_of_unity(4) * Fraction(-2, 6) + 1).coordinate_strings()
        ['1', '-1/3']
        """
        den = self._den
        if den == 1:
            return [str(x) for x in self._num]
        out = []
        for x in self._num:
            g = math.gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def to_complex(self) -> complex:
        """Floating approximation, for display only; never authoritative."""
        import cmath

        zeta = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * zeta ** k for k, c in enumerate(self.coeffs))

    def to_json(self):
        """{"conductor": N, "coeffs": [...]}, each coordinate the string
        `coordinate_strings` gives ("p/q" in lowest terms, "p" for an
        integer), as `str(Fraction)` spells it."""
        return {"conductor": self.conductor,
                "coeffs": self.coordinate_strings()}

    @classmethod
    def from_json(cls, data) -> "Cyclotomic":
        """Read {"conductor": N, "coeffs": [...]}: N an int, each coordinate
        an int or a string "p" or "p/q" of ASCII digits, p optionally signed
        and q > 0, such as "-3/4", "+3", "007" or "2/04" (no float, no bool,
        no exponent, no zero denominator).  The parts are read by `int` and
        put over the lcm of the q, so the value is in normal form whatever
        the spelling.

        >>> print(Cyclotomic.from_json({"conductor": 4, "coeffs": [0, "1/2"]}))
        1/2*z4
        """
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
        parts = [(c, 1) if isinstance(c, int) else _read_coordinate(c)
                 for c in coeffs]
        _check_length(conductor, len(parts))
        den = math.lcm(*(q for _, q in parts))
        return cls._make(conductor, [p * (den // q) for p, q in parts], den)


# the slots' own setters, which `Cyclotomic.__setattr__` does not reach
_set_conductor = Cyclotomic.conductor.__set__
_set_num = Cyclotomic._num.__set__
_set_den = Cyclotomic._den.__set__


def _read_coordinate(text: str) -> tuple[int, int]:
    """(p, q) of a coordinate string "p" or "p/q" that matches
    `_COORDINATE`."""
    p, _, q = text.partition("/")
    return int(p), int(q) if q else 1


def _check_length(conductor: int, length: int) -> None:
    # phi(N) >= sqrt(N/2): a conductor above 2 len^2 cannot fit, and is
    # refused before factorising it, which could take forever
    if conductor > 2 * length ** 2 or length != euler_phi(conductor):
        raise ValueError("coefficient vector has wrong length")


class Kronecker:
    """Sums of products of elements of one field Q(zeta_N), run as
    big-integer arithmetic (Kronecker substitution).

    The operands come in named groups, dicts of Cyclotomics whose
    conductors divide N.  Each group is written over the common denominator
    D of its values, so that a value has integer coordinates
    a_0..a_{phi-1}, and each distinct value (keys whose values share a
    normal form share it) is lifted and packed once as the int
    a_0 + a_1 X + ... + a_{phi-1} X^(phi-1) at X = 2^b.  A product of packed
    values is then the packed product polynomial, unreduced, and a sum of
    products their packed sum: one big-integer operation each, as long as
    every digit of a result stays in the balanced range |d| < 2^(b-1).
    `values` drops the sums that are zero in the field by one exact test
    (below), and reads each other sum back digit by digit, reduces it mod
    Phi_N once and divides it by the sum's denominator.

    A packing serves one kind of sum, whose terms the caller declares as
    kinds (T, groups): at most T terms, each the product of one value from
    each named group.  A term of kind k is over the product D_k of its
    groups' D, so the sum is read back over D = lcm of the D_k, and the
    caller scales each term of kind k by `scales[k]` = D/D_k, applying any
    sign itself.  A digit of the product of packed x and y is
    sum_i x_i y_(k-i), at most ||x||_1 ||y||_1 in absolute value, ||.||_1
    being the sum of the absolute integer coordinates, and
    ||x y||_1 <= ||x||_1 ||y||_1; so a digit of the sum is at most
    sum_k scales[k] T_k times the product of the largest norm in each of
    kind k's groups, and `bits`, one above that bound's bit length, is the
    width a digit needs.  It is stored in b bits, the least of 8, 16, 32, 64
    (above 64, the least multiple of 8) that holds it: whole bytes, so one
    `int.to_bytes`, and for digits of up to 8 bytes one `struct` call,
    split a result.

    The zero test.  A packed sum T = P(X), X = 2^b, is zero in Q(zeta_N)
    exactly when the packed Phi_N(X) divides T, so `values` unpacks only the
    sums it does not divide.  If Phi_N divides P as a polynomial, Phi_N(X)
    divides P(X).  Conversely, Z[zeta_N]/(zeta_N - X, Phi_N(X)) is
    Z/Phi_N(X), so when Phi_N(X) divides T, alpha = P(zeta_N) lies in an
    ideal of norm Phi_N(X), and a nonzero alpha there has Phi_N(X) dividing
    its norm N(alpha).  But every conjugate of alpha is at most
    ||P||_1 <= bound in absolute value, so |N(alpha)| <= bound^phi, while
    bound < 2^(bits-1) < X - 1 and Phi_N(X) >= (X - 1)^phi: a nonzero alpha
    is impossible.  The test holds at the width `bits` already gives, and
    every sum it keeps has a nonzero value.

    `typical` is the width the same bound gives to values of each group's
    mean width (the bits of a value's coordinate norm and of its own
    denominator together, averaged over every key, repeats included): the
    widest kind's, plus the bits that adding the kinds together takes.  A
    few values far wider than the rest, or many different denominators
    whose common multiple every value must carry, put `bits` far above it.

    >>> z = root_of_unity(5)
    >>> x, y = root_of_unity(5, 3) - Fraction(2, 3), 2 * z
    >>> kr = Kronecker.pack(5, {"x": {0: x}, "y": {0: y}}, [(1, ("x", "y"))])
    >>> xy = kr.packed["x"][0] * kr.packed["y"][0]
    >>> kr.values({"xy": xy})["xy"] == x * y
    True
    >>> kr = Kronecker.pack(5, {"x": {0: x}, "y": {0: y}},
    ...                     [(1, ("x",)), (1, ("x", "y"))])
    >>> a, b = kr.scales
    >>> d = a * kr.packed["x"][0] - b * kr.packed["x"][0] * kr.packed["y"][0]
    >>> kr.values({"d": d})["d"] == x - x * y
    True
    """

    @classmethod
    def pack(cls, conductor: int, groups: dict, kinds: list) -> "Kronecker":
        """The groups packed for one sum of terms of the given kinds (see
        the class docstring)."""
        coords, dens, norms, means, degrees = {}, {}, {}, {}, {}
        for name, values in groups.items():
            # keys whose values share a normal form share one packed int
            index, position, lifted = {}, {}, []
            for k, v in values.items():
                form = (v.conductor, v._num, v._den)
                if form not in position:
                    position[form] = len(lifted)
                    lifted.append(v.lift(conductor))
                index[k] = position[form]
            den = dens[name] = math.lcm(*(v._den for v in lifted))
            rows = [[a * (den // v._den) for a in v._num] for v in lifted]
            coords[name] = (rows, index)
            norms[name] = max(map(_norm, rows), default=0)
            own = [(_norm(v._num) * v._den).bit_length() for v in lifted]
            means[name] = (sum(own[i] for i in index.values()) / len(index)
                           if index else 0)
            degrees[name] = max((i for a in rows for i, c in enumerate(a)
                                 if c), default=0)
        kind_dens = [math.prod(dens[g] for g in gs) for _, gs in kinds]
        den = math.lcm(*kind_dens)
        scales = [den // d for d in kind_dens]
        bound = sum(s * t * math.prod(norms[g] for g in gs)
                    for s, (t, gs) in zip(scales, kinds))
        typical = (len(kinds) - 1).bit_length() + max(
            1 + t.bit_length() + sum(means[g] for g in gs) for t, gs in kinds)
        digits = max(1 + sum(degrees[g] for g in gs) for _, gs in kinds)
        return cls(conductor, coords, den, scales, 1 + bound.bit_length(),
                   typical, digits)

    def __init__(self, conductor, coords, den, scales, bits, typical, digits):
        width = -(-bits // 8)                    # 2^(8 width - 1) > bound
        width = next((w for w in _SIGNED if w >= width), width)
        self.conductor, self.scales = conductor, scales
        self.bits, self.typical = bits, typical
        self._den, self._digits = den, digits
        self._width, self._stride = width, 8 * width
        self._split = (struct.Struct(f"<{digits}{_SIGNED[width]}").unpack
                       if width in _SIGNED else None)
        self._bias = sum(1 << (self._stride * (i + 1) - 1)
                         for i in range(digits))
        self._modulus = self._pack(cyclotomic_polynomial(conductor))
        self._values = {}
        self.packed = {}
        for name, (rows, index) in coords.items():
            ints = [self._pack(a) for a in rows]
            self.packed[name] = {k: ints[i] for k, i in index.items()}

    def _pack(self, coords) -> int:
        packed = 0
        for a in reversed(coords):
            packed = (packed << self._stride) + a
        return packed

    def _unpack(self, total: int) -> Cyclotomic:
        # the bias lifts every digit d to d + 2^(b-1) >= 0 and the xor flips
        # its top bit back, leaving d in two's complement
        data = ((total + self._bias) ^ self._bias).to_bytes(
            self._width * self._digits, "little")
        if self._split is not None:
            digits = list(self._split(data))
        else:
            width = self._width
            digits = [int.from_bytes(data[i:i + width], "little",
                                     signed=True)
                      for i in range(0, len(data), width)]
        return Cyclotomic._make(self.conductor,
                                _reduce(digits, self.conductor), self._den)

    def values(self, totals: dict) -> dict:
        """The nonzero values of a dict of packed sums, as Cyclotomics of
        conductor N under the same keys: a sum that the packed Phi_N divides
        is zero and is dropped unread (the zero test of the class
        docstring); equal sums are unpacked once."""
        out, modulus = {}, self._modulus
        for key, total in totals.items():
            if total % modulus:
                value = self._values.get(total)
                if value is None:
                    value = self._values[total] = self._unpack(total)
                out[key] = value
        return out


def _norm(coords) -> int:
    return sum(map(abs, coords))


_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}   # struct codes by digit bytes


@functools.lru_cache(maxsize=None)
def _root_exponents(n: int) -> dict[tuple[int, ...], int]:
    """The exponent a of each zeta_n^a, 0 <= a < n, by its numerators."""
    return {root_of_unity(n, a)._num: a for a in range(n)}


def root_of_unity(conductor: int, exponent: int = 1) -> Cyclotomic:
    """zeta_N^j as an element of Q(zeta_N).

    >>> root_of_unity(2, 1) == -1
    True
    """
    if conductor < 1:
        raise ValueError("conductor must be positive")
    e = exponent % conductor
    return Cyclotomic._from_poly(conductor, [0] * e + [1])


def imaginary_unit(conductor: int) -> Cyclotomic:
    """i = zeta_4, expressed in Q(zeta_N); requires 4 | N."""
    if conductor % 4 != 0:
        raise ValueError("need 4 | N for the imaginary unit")
    return root_of_unity(conductor, conductor // 4)


# ---------------------------------------------------------------------------
# Square roots.


def branch_sqrt(n: int, m: int, k: int) -> Cyclotomic:
    """(zeta^k + zeta^-k - 2)^(1/2) for zeta = exp(2 pi i m/(n+1)).

    The branch is i*|...| when the canonical representative of m in 1..n
    satisfies 0 < m < (n+1)/2, and -i*|...| otherwise.  With w = zeta_{2(n+1)}
    and j = km mod 2(n+1), w^j - w^-j = 2i sin(pi j/(n+1)), whose sine is
    positive iff j < n+1; so the value is +(w^j - w^-j) when
    (j < n+1) == (2m < n+1) and -(w^j - w^-j) otherwise, in conductor 4(n+1).

    >>> branch_sqrt(1, 1, 1) == -2 * imaginary_unit(8)
    True
    """
    e = branch_exponent(n, m, k)
    return root_of_unity(4 * (n + 1), e) - root_of_unity(4 * (n + 1), -e)


def branch_exponent(n: int, m: int, k: int) -> int:
    """The e with branch_sqrt(n, m, k) = zeta_{4(n+1)}^e - zeta_{4(n+1)}^-e:
    2j when (j < n+1) == (2m < n+1), else -2j."""
    np1 = n + 1
    m_red = m % np1
    if math.gcd(m_red, np1) != 1:
        raise InvalidRoot(f"zeta^{m} is not a primitive {np1}-th root of 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    # j is never a multiple of n+1, because gcd(m, n+1) = 1 and 0 < k < n+1
    j = (k * m_red) % (2 * np1)
    return 2 * j if (j < np1) == (2 * m_red < np1) else -2 * j


def _legendre(t: int, p: int) -> int:
    r = pow(t, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sqrt_rational(value, conductor: int) -> Cyclotomic:
    """The nonnegative square root of a rational value >= 0 in Q(zeta_N).

    Rational square roots come out at conductor 1; irrational ones are built
    from sqrt(2) = zeta_8 + zeta_8^-1 and odd-prime quadratic Gauss sums, and
    a ValueError is raised when Q(zeta_N) is too small to contain the root.
    """
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
        eighth = conductor // 8
        root = root * (root_of_unity(conductor, eighth)
                       + root_of_unity(conductor, -eighth))
        rest //= 2
    p = 3
    while rest > 1:
        if rest % p == 0:
            rest //= p
            if conductor % p != 0:
                raise ValueError(f"sqrt({p}) is not in Q(zeta_{conductor})")
            step = conductor // p
            gauss = sum((_legendre(t, p) * root_of_unity(conductor, t * step)
                         for t in range(1, p)), Cyclotomic.zero(conductor))
            if p % 4 == 1:
                root = root * gauss
            else:
                # gauss = i sqrt(p) for p = 3 mod 4
                root = root * (-imaginary_unit(conductor)) * gauss
        p += 2
    return root
