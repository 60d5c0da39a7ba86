"""The two candidate linear maps between the degree-2 spaces: the classical
Chern-character comparison map and the conjectured root-of-unity map.

A `LinearMap` sends E_l, in the span of E_1..E_n, to sum_k matrix[k][l] e_k
in the span of e_1..e_n.

* `chtd_map(n)` -- the K-theoretic comparison E_m -> sum_l
  zeta^{-lm}/(2 - zeta^l - zeta^-l) e_l derived from Chern character and
  Todd class, in Q(zeta_{n+1}).  It matches the McKay graphs of `mckay` but
  is NOT a ring map.
* `bgp_map(n, m_root)` -- E_l -> sum_k zeta^{lk} (zeta^k + zeta^-k - 2)^{1/2}
  e_k with zeta = exp(2 pi i m_root/(n+1)), in Q(zeta_{4(n+1)}): the root
  zeta^{lk} times the closed-form, branch-resolved square root +-(w^j - w^-j)
  of `exactnum.branch_sqrt`, w = zeta_{2(n+1)} and j = k m_root, each entry
  built as one two-term polynomial in zeta_{4(n+1)}, already folded by
  zeta_{4(n+1)}^(2(n+1)) = -1 to the 2(n+1) coordinates that the reduction
  starts from.
"""

from __future__ import annotations

import math

from .exactnum import Cyclotomic, InvalidRoot, branch_exponent, root_of_unity
from .record import Record


class LinearMap(Record):
    """A linear map E_l -> sum_k matrix[k][l] e_k with exact entries."""

    __slots__ = ("n",
                 "matrix")  # rows k = e-basis index, columns l = E-basis index

    def to_json(self):
        return {"n": self.n,
                "matrix": [[c.to_json() for c in row]
                           for row in self.matrix]}

    @classmethod
    def from_json(cls, data) -> "LinearMap":
        try:
            matrix = tuple(tuple(Cyclotomic.from_json(c) for c in row)
                           for row in data["matrix"])
            n = data["n"]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                'malformed map: expected {"n": N, "matrix": [[...], ...]} '
                f"({type(exc).__name__}: {exc})") from exc
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("map rank n must be an int, not "
                             f"{type(n).__name__}")
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("map matrix must be n x n")
        return cls(n, matrix)


def chtd_map(n: int) -> LinearMap:
    """The Chern-character/Todd comparison map, zeta = zeta_{n+1} principal.

    Entry (l, m) is zeta^{-lm}/(2 - w - 1/w) = -zeta^{l(1-m)}/(1 - w)^2 with
    w = zeta^l, so each row inverts only 1 - w, in closed form; by the worked
    A_2 verification this map is not a ring isomorphism.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    order = n + 1
    rows = []
    for l in range(1, n + 1):
        t = (1 - root_of_unity(order, l)).inverse()
        t2 = -(t * t)
        rows.append(tuple(root_of_unity(order, l - l * m) * t2
                          for m in range(1, n + 1)))
    return LinearMap(n, tuple(rows))


def bgp_map(n: int, m_root: int) -> LinearMap:
    """The conjectured isomorphism at the primitive root zeta^{m_root}.

    Entry (k, l) is zeta^{lk} (zeta^k + zeta^-k - 2)^{1/2}, branch resolved.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if math.gcd(m_root, n + 1) != 1:
        raise InvalidRoot(
            f"m_root={m_root} is not coprime to {n + 1}")
    conductor = 4 * (n + 1)
    half = conductor // 2
    step = 4 * (m_root % (n + 1))
    rows = []
    for k in range(1, n + 1):
        # zeta^{lk} (w^j - w^-j) = z^(s + e) - z^(s - e), z = zeta_{4(n+1)},
        # each power folded by z^(N/2) = -1 below N/2
        e = branch_exponent(n, m_root, k)
        row = []
        for l in range(1, n + 1):
            s = step * l * k
            poly = [0] * half
            for x, c in ((s + e) % conductor, 1), ((s - e) % conductor, -1):
                poly[x % half] += c if x < half else -c
            row.append(Cyclotomic._from_poly(conductor, poly))
        rows.append(tuple(row))
    return LinearMap(n, tuple(rows))
