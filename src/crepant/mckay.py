"""McKay graphs, the classical Chern-character comparison map, and the
conjectured root-of-unity map between the two degree-2 spaces.

The A_n McKay graph is computed honestly from the character theory of the
cyclic group Z_{n+1}: with Q the 2-dimensional representation spanned by the
characters l -> zeta^l and l -> zeta^-l, the edge multiplicity a_{ij} is the
multiplicity of lambda_i inside Q (x) lambda_j, found by an exact character
inner product in Q(zeta_{n+1}).  The D and E graphs ship as static
classification data (their product tables are never built here).

Two linear maps between the span of E_1..E_n and the span of e_1..e_n are
provided:

* `chtd_map(n)` -- the K-theoretic comparison E_m -> sum_l
  zeta^{-lm}/(2 - zeta^l - zeta^-l) e_l derived from Chern character and
  Todd class, in Q(zeta_{n+1}).  It matches the graphs but is NOT a ring map.
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


class McKayGraph(Record):
    __slots__ = ("group_label",
                 "vertices",    # (name, dim) pairs
                 "adjacency",   # a symmetric integer matrix, rows as tuples
                 "reduced")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def edges(self):
        out = []
        for i in range(self.size):
            for j in range(i + 1, self.size):
                if self.adjacency[i][j]:
                    out.append((i, j, self.adjacency[i][j]))
        return out

    def to_json(self):
        return {"group": self.group_label, "reduced": self.reduced,
                "vertices": [{"name": n, "dim": d}
                             for n, d in self.vertices],
                "adjacency": [list(r) for r in self.adjacency]}

    def to_graphviz(self) -> str:
        lines = ["graph mckay {"]
        for name, dim in self.vertices:
            lines.append(f'  "{name}" [label="{name} (dim {dim})"];')
        for i, j, mult in self.edges():
            for _ in range(mult):
                lines.append(f'  "{self.vertices[i][0]}" -- '
                             f'"{self.vertices[j][0]}";')
        lines.append("}")
        return "\n".join(lines)


def an_mckay(n: int, reduced: bool = True) -> McKayGraph:
    """McKay graph of the cyclic group Z_{n+1} acting through Q.

    With o = n+1, the multiplicity of lambda_i in Q (x) lambda_j is the
    character inner product (1/o) sum_g (zeta^g + zeta^-g) zeta^{jg}
    zeta^{-ig} = (S(1+j-i) + S(-1+j-i))/o, where S(e) = sum_g zeta^{eg}.
    It depends only on d = (j-i) mod o, so each of the o values
    (S(1+d) + S(d-1))/o is computed once, its two character sums as one
    integer polynomial in zeta reduced mod Phi_o.

    >>> an_mckay(2).adjacency
    ((0, 1), (1, 0))
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    order = n + 1
    values = []
    for d in range(order):
        poly = [0] * order
        for g in range(order):
            poly[(1 + d) * g % order] += 1
            poly[(d - 1) * g % order] += 1
        value = (Cyclotomic._from_poly(order, poly) / order).as_fraction()
        assert value.denominator == 1 and value >= 0
        values.append(int(value))
    labels = list(range(order)) if not reduced else list(range(1, order))
    adjacency = tuple(tuple(values[(j - i) % order] for j in labels)
                      for i in labels)
    vertices = tuple((f"lambda_{i}", 1) for i in labels)
    return McKayGraph(f"A_{n}", vertices, adjacency, reduced)


def _graph_from_edges(k, edges):
    adj = [[0] * k for _ in range(k)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = 1
    return tuple(tuple(r) for r in adj)


def ade_resolution_graph(label: str) -> McKayGraph:
    """Reduced McKay graph = resolution graph for any ADE label.

    A_n graphs are computed from characters; D/E graphs are classification
    data (vertex dimensions are the Dynkin marks of the irreducibles).
    """
    kind, _, num = label.partition("_")
    if not (num.isascii() and num.isdigit()):   # int() takes other digits
        raise ValueError(f"unknown ADE label {label!r}")
    if kind == "A":
        return an_mckay(int(num))
    if kind == "D":
        n = int(num)
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        # chain 0-1-...-(n-3), fork (n-2), (n-1) both attached to n-3
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
        dims = (1,) + (2,) * (n - 3) + (1, 1)
        vertices = tuple((f"v{i}", d) for i, d in enumerate(dims))
        return McKayGraph(label, vertices, _graph_from_edges(n, edges), True)
    if kind == "E":
        data = {
            6: ([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
                (1, 2, 3, 2, 1, 2)),
            7: ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)],
                (2, 3, 4, 3, 2, 1, 2)),
            8: ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
                (2, 3, 4, 5, 6, 4, 2, 3)),
        }
        num = int(num)
        if num not in data:
            raise ValueError("E label must be E_6, E_7 or E_8")
        edges, dims = data[num]
        vertices = tuple((f"v{i}", d) for i, d in enumerate(dims))
        return McKayGraph(label, vertices,
                          _graph_from_edges(len(dims), edges), True)
    raise ValueError(f"unknown ADE label {label!r}")


def aut_gamma(label: str) -> str:
    """Automorphism group of the reduced McKay graph, as classified."""
    kind, _, num = label.partition("_")
    num = int(num) if num else 0
    if kind == "A":
        return "1" if num == 1 else "Z2"
    if kind == "D":
        if num < 4:
            raise ValueError("D_n needs n >= 4")
        return "S3" if num == 4 else "Z2"
    if kind == "E":
        return {6: "Z2", 7: "1", 8: "1"}[num]
    raise ValueError(f"unknown ADE label {label!r}")


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
