"""The paper's answers, checked literally and with arithmetic of our own.

Output digests only prove that nothing changed since they were recorded;
these checks make sure a re-recording cannot bless a wrong answer.  They
use a few lines of independent arithmetic in Q(zeta_8) and Q(zeta_12), not
crepant's `Cyclotomic`.
"""

from __future__ import annotations

from fractions import Fraction

# Status of conjecture_scan(n), one entry per primitive (n+1)-th root.
SCAN_STATUS = {
    2: ["pass", "pass"],
    3: ["pass", "pass"],
    4: ["pass", "fail", "fail", "pass"],
    5: ["pass", "pass"],
    6: ["pass", "fail", "fail", "fail", "fail", "pass"],
}

# Phi_N, constant term first, for the two fields the solvers work in.
_PHI = {8: (1, 0, 0, 0, 1), 12: (1, 0, -1, 0, 1)}


def _element(doc, conductor):
    """Power-basis coordinates in Q(zeta_conductor) of a JSON value."""
    coeffs = [Fraction(c) for c in doc["coeffs"]]
    if doc["conductor"] == 1:
        coeffs += [Fraction(0)] * (len(_PHI[conductor]) - 2)
    elif doc["conductor"] != conductor:
        raise ValueError(f"expected conductor {conductor}: {doc}")
    return coeffs


def _mul(a, b, conductor):
    phi = _PHI[conductor]
    deg = len(phi) - 1
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        for i in range(deg + 1):
            out[k - deg + i] -= c * phi[i]
    return out[:deg]


def _power(a, exponent, conductor):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(exponent):
        out = _mul(out, a, conductor)
    return out


def _rational(value, conductor):
    return [Fraction(value)] + [Fraction(0)] * (len(_PHI[conductor]) - 2)


def check_scan(n, statuses):
    """The scan verdicts: pass at the outer roots, fail inside for n = 4, 6."""
    return statuses == SCAN_STATUS[n]


def check_solve_a1(doc):
    """Rank 1: exactly E -> 2i e and E -> -2i e, both at q = -1."""
    if len(doc) != 2:
        return False
    two_i = [Fraction(0), Fraction(0), Fraction(2), Fraction(0)]  # 2 zeta_8^2
    ts = sorted(_element(sol["t"], 8) for sol in doc)
    minus_two_i = [-c for c in two_i]
    return (ts == sorted([two_i, minus_two_i])
            and all(_element(sol["q"], 8) == _rational(-1, 8) for sol in doc))


def check_solve_a2(doc):
    """Rank 2: exactly two solutions, each with q1 = q2 a primitive cube
    root of unity, ab = -3, a^2 + b^2 = 3 and a, b in sqrt(3) * mu_12."""
    if len(doc) != 2:
        return False
    one = _rational(1, 12)
    q_seen = []
    for sol in doc:
        a, b = _element(sol["a"], 12), _element(sol["b"], 12)
        q1, q2 = _element(sol["q1"], 12), _element(sol["q2"], 12)
        if q1 != q2 or q1 == one or _power(q1, 3, 12) != one:
            return False
        if _mul(a, b, 12) != _rational(-3, 12):
            return False
        squares = [x + y for x, y in zip(_mul(a, a, 12), _mul(b, b, 12))]
        if squares != _rational(3, 12):
            return False
        if any(_power(x, 12, 12) != _rational(3 ** 6, 12) for x in (a, b)):
            return False
        q_seen.append(q1)
    return q_seen[0] != q_seen[1]
