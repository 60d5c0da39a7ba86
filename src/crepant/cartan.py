"""Minus the A_n Cartan matrix, its exact inverse, and the intersection
pairings between exceptional components and fiber-class sums.

The matrix c_n is tridiagonal with -2 on the diagonal and 1 next to it; it is
simultaneously the intersection matrix of the exceptional components (each a
(-2)-curve meeting its neighbors once) and the coefficient matrix of the
linear systems that determine the resolution cup product (whose solutions
`ringtables.cup_table` writes down in closed form).  Pairings
E_i . beta_{mu nu} with beta_{mu nu} = beta_mu + ... + beta_nu are simply row
sums of c_n and always land in {0, 1, -1, -2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CartanData:
    n: int
    c: tuple[tuple[int, ...], ...]
    c_inv: tuple[tuple[Fraction, ...], ...]


def cartan_build(n: int) -> CartanData:
    """Build c_n and its inverse from the closed form
    (c_n^-1)_{ij} = -min(i, j) (n + 1 - max(i, j)) / (n + 1).

    >>> cartan_build(1).c_inv
    ((Fraction(-1, 2),),)
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    c = tuple(tuple(-2 if i == j else 1 if abs(i - j) == 1 else 0
                    for j in range(n)) for i in range(n))
    c_inv = tuple(tuple(Fraction(-min(i, j) * (n + 1 - max(i, j)), n + 1)
                        for j in range(1, n + 1)) for i in range(1, n + 1))
    return CartanData(n, c, c_inv)


def beta_pairing(cd: CartanData, i: int, mu: int, nu: int) -> int:
    """E_i . beta_{mu nu}, all indices 1-based."""
    if not (1 <= i <= cd.n and 1 <= mu <= nu <= cd.n):
        raise ValueError("index out of range")
    return sum(cd.c[i - 1][j - 1] for j in range(mu, nu + 1))
