"""Quantum-correction functions in the finite delta basis.

Every correction that can appear is an integer combination of

    delta_{mu nu}(q) = q_mu ... q_nu / (1 - q_mu ... q_nu),

the summed geometric series attached to the contracted curve class
beta_{mu nu} = beta_mu + ... + beta_nu.  Only these classes carry nonzero
three-point invariants, so representing corrections in this basis (rather
than as general rational functions) makes equality a coefficient comparison.
Each weight is a product of intersection numbers E_i.beta, so an integer,
and there is no constant term: every correction vanishes as q -> 0.
The delta functions are linearly independent, and their values are exact;
a point where some q_mu ... q_nu = 1 is a genuine pole of the family and
raises PoleError.  `ringtables.qc_eval` sums the corrections at a point.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeffring import coerce, json_int
from .exactnum import Cyclotomic


class DeltaIndex(NamedTuple):
    """Index (mu, nu) with 1 <= mu <= nu <= n for the class beta_{mu nu}."""

    mu: int
    nu: int


class PoleError(ArithmeticError):
    """The corrected product is undefined: some q_mu ... q_nu equals 1."""

    def __init__(self, index: DeltaIndex, entry=None):
        self.index = index
        self.entry = entry  # (i, j) of the offending product, when known
        where = f" in product entry {entry}" if entry else ""
        super().__init__(
            f"pole of delta_{index.mu}{index.nu}: "
            f"q_{index.mu}...q_{index.nu} = 1{where}")

    def __reduce__(self):
        return type(self), (self.index, self.entry)


class CorrectionFunction:
    """sum of w * delta_{mu nu} with integer weights w."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        for idx, weight in (terms or {}).items():
            idx = DeltaIndex(*idx)
            if not 1 <= idx.mu <= idx.nu <= n:
                raise ValueError(f"delta index {idx} out of range for n={n}")
            if isinstance(weight, bool) or not isinstance(weight, int):
                raise ValueError(f"delta weight {weight!r} is not an int")
            if weight:
                clean[idx] = weight
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, n: int, terms: dict) -> "CorrectionFunction":
        """From a dict the caller hands over: DeltaIndex keys in range for
        n mapped to nonzero int weights."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *args):
        raise AttributeError("CorrectionFunction values are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return CorrectionFunction._make, (self.n, self.terms)

    def __eq__(self, other):
        if not isinstance(other, CorrectionFunction):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        parts = [f"d{idx.mu}{idx.nu}" if w == 1 else f"{w}*d{idx.mu}{idx.nu}"
                 for idx, w in sorted(self.terms.items())]
        return " + ".join(parts or ["0"]).replace("+ -", "- ")

    def __repr__(self):
        return f"CorrectionFunction({self.n}, {self.terms!r})"

    def to_json(self):
        """A zero "constant" and each weight as a conductor-1 Cyclotomic,
        written as `Cyclotomic.to_json` writes them."""
        return {"constant": {"conductor": 1, "coeffs": ["0"]},
                "terms": [{"mu": i.mu, "nu": i.nu,
                           "coeff": {"conductor": 1, "coeffs": [str(w)]}}
                          for i, w in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, data, n: int,
                  read=Cyclotomic.from_json) -> "CorrectionFunction":
        """Refuses a nonzero "constant", a weight that is not a nonzero
        integer, a "mu" or "nu" that is not an int and a repeated
        ("mu", "nu"); `read` parses one Cyclotomic."""
        if read(data["constant"]):
            raise ValueError("a correction's \"constant\" must be zero")
        terms = {}
        for t in data["terms"]:
            w = read(t["coeff"])
            if not w.is_rational() or w._den != 1:
                raise ValueError(f"delta weight {w} is not an integer")
            if not w:
                raise ValueError('a correction term\'s "coeff" must be '
                                 "nonzero")
            idx = DeltaIndex(json_int(t, "mu"), json_int(t, "nu"))
            if idx in terms:
                raise ValueError(f'"mu", "nu" = {tuple(idx)} is repeated in '
                                 "one correction")
            terms[idx] = w._num[0]
        return cls(n, terms)


def _interval_product(idx: DeltaIndex, q) -> Cyclotomic:
    """q_mu ... q_nu; the q entries must be nonzero."""
    prod = Cyclotomic.one(1)
    for ql in q[idx.mu - 1:idx.nu]:
        ql = coerce(ql)
        if ql.is_zero():
            raise ValueError("q entries must be nonzero")
        prod = prod * ql
    return prod


def delta_eval(idx: DeltaIndex, q) -> Cyclotomic:
    """delta_{mu nu} at a point: (q_mu...q_nu)/(1 - q_mu...q_nu), exact.

    The q entries must be nonzero; PoleError signals q_mu...q_nu = 1.
    """
    idx = DeltaIndex(*idx)
    prod = _interval_product(idx, q)
    if prod == 1:
        raise PoleError(idx)
    return prod / (1 - prod)


def cache_deltas(f: CorrectionFunction, q, deltas: dict) -> None:
    """Store in `deltas` the value at q of every delta that f uses.

    The cache is shared by all the corrections evaluated at one point.
    Under ("product", index) it holds each product q_mu...q_nu, formed as
    (q_mu...q_{nu-1}) q_nu when the shorter product is already there: one
    field product per index.  Under the index, and under the normal form
    (conductor, numerators, denominator) of its product, it holds the delta
    value, so each distinct product costs one `delta_eval` and indices with
    equal products share its value.  Products of equal field value but
    different conductors stay apart, so every value keeps the conductor its
    own `delta_eval` would give it; a running product has the lcm of its
    factors' conductors, as `_interval_product`'s has.  The deltas are
    visited in index order, so the first pole met is the one a term-by-term
    evaluation of f would raise; a zero q entry makes a zero product, which
    `delta_eval` refuses at the same index.  When every index of f is
    cached already, which at one point is most corrections after the first
    few, it returns at once: the walk would find nothing to do.
    """
    if len(q) != f.n:
        raise ValueError(f"expected {f.n} q-values, got {len(q)}")
    if f.terms.keys() <= deltas.keys():
        return
    for idx in sorted(f.terms):
        if idx not in deltas:
            shorter = deltas.get(("product", DeltaIndex(idx.mu, idx.nu - 1)))
            prod = deltas["product", idx] = (
                _interval_product(idx, q) if shorter is None
                else shorter * q[idx.nu - 1])
            key = (prod.conductor, prod._num, prod._den)
            delta = deltas.get(key)
            if delta is None:
                delta = deltas[key] = delta_eval(idx, q)
            deltas[idx] = delta
