"""The generic coefficient ring modeling H*(S).

For rank n >= 2 this is the free commutative ring on the formal first Chern
classes L = c1(L) and M = c1(M); the third class K = c1(K) is eliminated
through the relation L + M = (n+1) K, so every scalar has a canonical
expanded form and equality is coefficient comparison.  For n = 1 the single
generator is K (there are no L, M at rank one).  Each generator sits in
cohomological degree 2.

Every scalar the library builds is a constant or a linear form in the
generators: the tables' coefficients are combinations of L and M, and the
quantum correction only scales the fixed class K.  So a scalar is added,
negated and scaled by a number, never multiplied by another scalar
(`BaseScalar * BaseScalar` raises TypeError).
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Cyclotomic

SCALARS = (int, Fraction, Cyclotomic)

_ZERO = Cyclotomic.zero(1)


def coerce(value) -> Cyclotomic:
    """An int, Fraction or Cyclotomic as a Cyclotomic."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value)


def json_int(data: dict, key: str) -> int:
    """data[key], refused with ValueError naming the key unless it is an
    int: a float or bool would compare equal and be written back as
    another JSON value."""
    value = data[key]
    if type(value) is not int:
        raise ValueError(f'"{key}" must be an int, not '
                         f"{type(value).__name__}")
    return value


def accumulate(terms: dict, key, value: Cyclotomic) -> None:
    """terms[key] += value, keeping no zero coefficient.

    This is the one summation rule for every coefficient dict (the monomials
    of a BaseScalar, the transport sums).
    A coefficient that cancels is deleted at once, so the next term for that
    key starts afresh: x + (-x) + y stores y in y's own conductor, not in
    the lcm of all three.  Conductors never shrink under arithmetic, so the
    conductor printed for a coefficient depends on this rule.
    """
    if key in terms:
        value = terms[key] + value
        if value.is_zero():
            del terms[key]
            return
    elif value.is_zero():
        return
    terms[key] = value


class BaseScalar:
    """A polynomial in the degree-2 generators with Cyclotomic coefficients.

    Monomial keys are exponent tuples: (i, j) for L^i M^j when n >= 2, and
    (k,) for K^k when n = 1.  Zero coefficients are never stored.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("rank must be >= 1")
        width = 1 if n == 1 else 2
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != width or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for rank {n}")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("BaseScalar values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, n: int, terms: dict) -> "BaseScalar":
        """From a dict the caller hands over: monomial tuples of the right
        width mapped to nonzero Cyclotomic coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, n: int) -> "BaseScalar":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "BaseScalar":
        return cls.const(n, 1)

    @classmethod
    def const(cls, n: int, value) -> "BaseScalar":
        key = (0,) if n == 1 else (0, 0)
        return cls(n, {key: value})

    @classmethod
    def L(cls, n: int) -> "BaseScalar":
        if n == 1:
            raise ValueError("rank 1 has no L class")
        return cls(n, {(1, 0): 1})

    @classmethod
    def M(cls, n: int) -> "BaseScalar":
        if n == 1:
            raise ValueError("rank 1 has no M class")
        return cls(n, {(0, 1): 1})

    @classmethod
    def K(cls, n: int) -> "BaseScalar":
        """The class K; for n >= 2 this expands to (L + M)/(n+1)."""
        if n == 1:
            return cls(1, {(1,): 1})
        frac = Fraction(1, n + 1)
        return cls(n, {(1, 0): frac, (0, 1): frac})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        if isinstance(other, SCALARS):
            other = BaseScalar.const(self.n, other)
        if not isinstance(other, BaseScalar):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            accumulate(out, mono, coeff)
        return BaseScalar._make(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return BaseScalar._make(self.n,
                                {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, SCALARS):
            other = BaseScalar.const(self.n, other)
        if not isinstance(other, BaseScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, value) -> "BaseScalar":
        value = coerce(value)
        if value.is_zero():
            return BaseScalar._make(self.n, {})
        return BaseScalar._make(self.n,
                                {m: c * value for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = BaseScalar.const(self.n, other)
        if not isinstance(other, BaseScalar):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, mono) -> Cyclotomic:
        return self.terms.get(tuple(mono), _ZERO)

    def constant_coefficient(self) -> Cyclotomic:
        return self.coefficient((0,) if self.n == 1 else (0, 0))

    # -- presentation ------------------------------------------------------

    def _sorted_terms(self):
        # constants first, then lexicographic with L powers before M powers
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]),
                                        tuple(-e for e in item[0])))

    def __repr__(self):
        return f"BaseScalar({self.n}, {self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        gens = ("K",) if self.n == 1 else ("L", "M")
        parts = []
        for mono, coeff in self._sorted_terms():
            syms = [g + (f"^{e}" if e > 1 else "")
                    for g, e in zip(gens, mono) if e]
            body = "*".join(syms)
            cs = str(coeff)
            if any(op in cs for op in (" + ", " - ")):
                cs = f"({cs})"
            parts.append(f"{cs}*{body}" if body and cs != "1" else body or cs)
        return " + ".join(parts)

    def to_json(self):
        terms = []
        for mono, coeff in self._sorted_terms():
            entry = {"coeff": coeff.to_json()}
            if self.n == 1:
                entry["exp_k"] = mono[0]
            else:
                entry["exp_l"], entry["exp_m"] = mono
            terms.append(entry)
        return {"rank": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data, read=Cyclotomic.from_json) -> "BaseScalar":
        """Refuses a "rank" or exponent that is not an int; `read` parses
        one coefficient."""
        n = json_int(data, "rank")
        keys = ("exp_k",) if n == 1 else ("exp_l", "exp_m")
        terms = {}
        for entry in data["terms"]:
            mono = tuple(json_int(entry, key) for key in keys)
            terms[mono] = read(entry["coeff"])
        return cls(n, terms)
