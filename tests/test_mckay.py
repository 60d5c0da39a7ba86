import functools
import json
import math
from fractions import Fraction

import pytest
from clirunner import CliRunner

from crepant.cli import main
from crepant.exactnum import (Cyclotomic, InvalidRoot, branch_sqrt,
                              imaginary_unit, root_of_unity, sqrt_rational)
from crepant.mckay import (LinearMap, ade_resolution_graph, an_mckay,
                           aut_gamma, bgp_map, chtd_map)
from crepant.resolve import resolve_an

from oracles import (an_mckay_by_entries, identity_map, is_invertible,
                     power_bgp_map, power_branch_sqrt, power_chtd_map)


def test_a2_reduced_is_a_chain():
    g = an_mckay(2)
    assert g.adjacency == ((0, 1), (1, 0))
    assert all(dim == 1 for _, dim in g.vertices)


def test_a1_reduced_has_no_edge_but_full_has_doubled_edge():
    # Q (x) lambda_1 = lambda_0 + lambda_0 for Z_2, so a_11 = 0, a_01 = 2
    assert an_mckay(1).adjacency == ((0,),)
    assert an_mckay(1, reduced=False).adjacency == ((0, 2), (2, 0))


def test_full_an_graph_is_the_affine_cycle():
    for n in range(2, 7):
        g = an_mckay(n, reduced=False)
        assert [sum(row) for row in g.adjacency] == [2] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                expected = 1 if (i - j) % (n + 1) in (1, n) else 0
                assert g.adjacency[i][j] == expected


def test_rank_forty_graphs_are_the_path_and_the_cycle():
    path = an_mckay(40)
    assert path.adjacency == tuple(
        tuple(int(abs(i - j) == 1) for j in range(40)) for i in range(40))
    cycle = an_mckay(40, reduced=False)
    assert cycle.adjacency == tuple(
        tuple(int((i - j) % 41 in (1, 40)) for j in range(41))
        for i in range(41))


def test_the_graph_by_residues_prints_what_the_graph_by_entries_prints(
        monkeypatch):
    runner = CliRunner()
    args = [["--n", str(n), "--format", fmt, *full]
            for n in range(1, 41) for fmt in ("json", "text", "dot")
            for full in ([], ["--full"])]
    args += [["--group", "A_7", "--format", "json"],
             ["--n", "40", "--compare-resolution"]]

    def printed():
        return [runner.invoke(main, ["mckay", *a]) for a in args]

    by_residues = printed()
    by_entries = functools.lru_cache(an_mckay_by_entries)  # once per graph
    monkeypatch.setattr("crepant.mckay.an_mckay", by_entries)
    for a, result, reference in zip(args, by_residues, printed()):
        assert result.exit_code == reference.exit_code == 0, a
        assert result.stdout == reference.stdout, a


def test_mckay_equals_resolution_graph():
    for n in range(1, 11):
        assert an_mckay(n).adjacency == resolve_an(n).adjacency()


def test_aut_gamma_table():
    assert aut_gamma("A_1") == "1"
    assert aut_gamma("A_5") == "Z2"
    assert aut_gamma("D_4") == "S3"
    assert aut_gamma("D_7") == "Z2"
    assert aut_gamma("E_6") == "Z2"
    assert aut_gamma("E_7") == "1"
    assert aut_gamma("E_8") == "1"


def test_static_de_graphs():
    d5 = ade_resolution_graph("D_5")
    assert d5.size == 5 and len(d5.edges()) == 4
    assert sorted(sum(row) for row in d5.adjacency) == [1, 1, 1, 2, 3]
    for label, size in (("E_6", 6), ("E_7", 7), ("E_8", 8)):
        g = ade_resolution_graph(label)
        assert g.size == size and len(g.edges()) == size - 1
        # one branch vertex
        assert max(sum(row) for row in g.adjacency) == 3


@pytest.mark.parametrize("label", [f"A_{n}" for n in range(1, 13)]
                         + [f"D_{n}" for n in range(4, 13)]
                         + ["E_6", "E_7", "E_8"])
def test_the_reduced_graphs_satisfy_the_mckay_identity(label):
    # Q (x) rho_v = sum of the neighbours of v, plus the trivial
    # representation deficit(v) times: 2 dim(v) - (neighbour dims) is the
    # number of edges from v to the removed trivial vertex, and those edges
    # carry Q (x) trivial = Q, of dimension 2
    g = ade_resolution_graph(label)
    dims = [d for _, d in g.vertices]
    deficits = [2 * dims[v] - sum(a * d for a, d in zip(g.adjacency[v], dims))
                for v in range(g.size)]
    assert min(deficits) >= 0, deficits
    assert sum(x * d for x, d in zip(deficits, dims)) == 2, deficits


def test_chtd_map_rank_two():
    m = chtd_map(2)
    z3 = root_of_unity(3, 1)
    assert [row[0] for row in m.matrix] == [z3 ** 2 / 3, z3 / 3]
    assert [row[1] for row in m.matrix] == [z3 / 3, z3 ** 2 / 3]


def test_chtd_map_rank_one():
    assert chtd_map(1).matrix[0][0] == Fraction(-1, 4)


def test_bgp_map_rank_one():
    # zeta = -1 and the branch value is -2i, so E -> (-1)(-2i) e = 2i e
    assert bgp_map(1, 1).matrix[0][0] == 2 * imaginary_unit(8)


def test_bgp_map_equals_the_rank_two_solution_pairs():
    sqrt3 = sqrt_rational(3, 12)
    z12 = root_of_unity(12, 1)
    a, b = sqrt3 * z12 ** 7, sqrt3 * z12 ** 11
    assert bgp_map(2, 1).matrix == ((a, b), (b, a))
    a2, b2 = sqrt3 * z12 ** 5, sqrt3 * z12
    assert bgp_map(2, 2).matrix == ((a2, b2), (b2, a2))


def _bytes(value) -> str:
    return json.dumps(value.to_json())


def test_maps_match_the_power_based_references():
    # every m coprime to n+1 in 1..2n+1, so m > n+1 is reduced as well
    for n in range(1, 11):
        assert _bytes(chtd_map(n)) == _bytes(power_chtd_map(n)), n
        for m in range(1, 2 * n + 2):
            if math.gcd(m, n + 1) != 1:
                continue
            assert _bytes(bgp_map(n, m)) == _bytes(power_bgp_map(n, m)), (n, m)
            for k in range(1, n + 1):
                assert (_bytes(branch_sqrt(n, m, k))
                        == _bytes(power_branch_sqrt(n, m, k))), (n, m, k)


def test_bgp_map_entries_take_no_field_product(monkeypatch):
    # each entry zeta^{lk} (w^e - w^-e) is built as the two-term polynomial
    # z^(s+e) - z^(s-e), equal to the root times the branch square root
    expected = {}
    for n in range(1, 13):
        for m in range(1, n + 1):
            if math.gcd(m, n + 1) == 1:
                expected[n, m] = [
                    [_bytes(root_of_unity(4 * (n + 1), 4 * m * l * k)
                            * branch_sqrt(n, m, k)) for l in range(1, n + 1)]
                    for k in range(1, n + 1)]

    def no_product(self, other):
        raise AssertionError("bgp_map formed a field product")

    monkeypatch.setattr(Cyclotomic, "__mul__", no_product)
    monkeypatch.setattr(Cyclotomic, "__rmul__", no_product)
    for (n, m), rows in expected.items():
        assert [[_bytes(c) for c in row]
                for row in bgp_map(n, m).matrix] == rows, (n, m)


def test_bgp_map_invertible():
    for n in range(1, 9):
        for m_root in range(1, n + 1):
            if math.gcd(m_root, n + 1) != 1:
                continue
            assert is_invertible(bgp_map(n, m_root).matrix), (n, m_root)


def test_singular_maps_are_not_invertible():
    z = root_of_unity(12, 1)
    zero, one = z - z, z ** 0
    assert not is_invertible(((zero, zero), (zero, zero)))
    # columns 1 and 2 are equal
    assert not is_invertible(((one, one, z), (z, z, one),
                              (1 + z, 1 + z, z * z)))
    # rank one over Q(zeta_12): row 2 is z^5 (1 + z^2) times row 1
    row = (z + sqrt_rational(3, 12), z ** 7 - 2)
    factor = z ** 5 * (1 + z ** 2)
    assert not is_invertible((row, tuple(factor * c for c in row)))
    assert is_invertible((row, (row[1], row[0])))


def test_bgp_map_rejects_imprimitive_root():
    with pytest.raises(InvalidRoot):
        bgp_map(3, 2)


def test_chtd_vs_bgp_scalar_multiples():
    # chtd(2) is not proportional to bgp(2, 1); it happens to be exactly
    # (i sqrt(3)/9) bgp(2, 2), which still fails the ring transport since a
    # scalar rescaling breaks the quadratic structure constants.
    cm = chtd_map(2)
    b1 = bgp_map(2, 1)
    ratio1 = cm.matrix[0][0] / b1.matrix[0][0]
    assert tuple(tuple(ratio1 * x for x in row) for row in b1.matrix) \
        != cm.matrix
    b2 = bgp_map(2, 2)
    factor = imaginary_unit(12) * sqrt_rational(3, 12) / 9
    assert tuple(tuple(factor * x for x in row) for row in b2.matrix) \
        == cm.matrix


def test_linear_map_json_roundtrip():
    m = bgp_map(2, 1)
    assert LinearMap.from_json(m.to_json()) == m


def test_linear_map_rank_must_be_an_int():
    doc = identity_map(1).to_json()
    for rank in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="must be an int"):
            LinearMap.from_json({**doc, "n": rank})


def test_graph_emitters():
    g = an_mckay(3)
    doc = g.to_json()
    assert doc["adjacency"] == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    dot = g.to_graphviz()
    assert dot.startswith("graph mckay {") and dot.endswith("}")
