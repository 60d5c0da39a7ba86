import pytest

from crepant.mckay import an_mckay
from crepant.resolve import (ChartSurface, NotSingular, Poly3,
                             UnclassifiedSurface, an_equation, blowup_step,
                             classify, resolve_an)


def test_blowup_of_a1_gives_one_curve_and_smooth_charts():
    result = blowup_step(ChartSurface.an_singularity(1))
    assert result.new_curves == ("C1",)
    assert result.singular_chart is None
    assert all(c.tag == "smooth" for c in result.charts.values())


def test_blowup_of_a3_leaves_an_a1_point_in_the_z_chart():
    result = blowup_step(ChartSurface.an_singularity(3))
    assert len(result.new_curves) == 2
    assert result.singular_chart == "z"
    assert result.charts["z"].tag == ("A", 1)
    assert result.charts["z"].equation == an_equation(1)


def test_blowup_chart_equations_match_the_substitution_pattern():
    # x-chart of x y - z^(k+1): y - x^(k-1) z^(k+1)
    for k in (1, 2, 5):
        result = blowup_step(ChartSurface.an_singularity(k))
        expected = Poly3.monomial(0, 1, 0) - Poly3.monomial(k - 1, 0, k + 1)
        assert result.charts["x"].equation == expected
        assert result.charts["z"].equation == \
            Poly3.monomial(1, 1, 0) - Poly3.monomial(0, 0, k - 1)


def test_blowup_of_a2_terminates_with_two_meeting_curves():
    result = blowup_step(ChartSurface.an_singularity(2))
    assert len(result.new_curves) == 2
    assert result.singular_chart is None  # x y - z is smooth
    graph = resolve_an(2)
    assert graph.size == 2 and len(graph.edges) == 1 and graph.rounds == 1


def test_blowup_rejects_smooth_input():
    smooth = ChartSurface(an_equation(1), "smooth")
    with pytest.raises(NotSingular):
        blowup_step(smooth)


def test_classifier():
    assert classify(an_equation(4)) == ("A", 4)
    assert classify(Poly3.monomial(1, 1, 0) - Poly3.monomial(0, 0, 1)) \
        == "smooth"  # x y - z: gradient nonzero
    assert classify(Poly3.monomial(1, 1, 0) - Poly3.monomial(0, 0, 0)) \
        == "smooth"  # x y - 1: origin off the surface


def test_exceptional_curves_carry_local_equations():
    result = blowup_step(ChartSurface.an_singularity(3))
    zchart = result.charts["z"]
    assert len(zchart.curves) == 2
    ids = [cid for cid, _ in zchart.curves]
    assert ids == list(result.new_curves)


def test_resolution_chains():
    for n in range(1, 13):
        graph = resolve_an(n)
        assert graph.size == n
        assert graph.adjacency() == tuple(
            tuple(int(abs(i - j) == 1) for j in range(n)) for i in range(n))
        assert all(s == -2 for _, s in graph.nodes)


def test_blowup_round_count():
    for n in range(1, 13):
        assert resolve_an(n).rounds == (n + 1) // 2


def test_resolution_graph_matches_mckay_graph():
    for n in range(1, 11):
        assert resolve_an(n).adjacency() == an_mckay(n).adjacency


def test_rank_one_and_seven_examples():
    g1 = resolve_an(1)
    assert g1.nodes == (("C1", -2),)
    g7 = resolve_an(7)
    assert g7.size == 7 and len(g7.edges) == 6 and g7.rounds == 4


def test_graph_emitters():
    g = resolve_an(3)
    doc = g.to_json()
    assert doc["rounds"] == 2 and len(doc["nodes"]) == 3
    assert all(node["self_intersection"] == -2 for node in doc["nodes"])
    dot = g.to_graphviz()
    assert dot.startswith("graph resolution {")


@pytest.mark.parametrize("equation", [
    Poly3.monomial(1, 1, 0) - Poly3.monomial(0, 0, 3, 2),      # x y - 2z^3
    Poly3.monomial(1, 1, 0) + Poly3.monomial(0, 0, 3),         # x y + z^3
    an_equation(2) - Poly3.monomial(0, 0, 4),                  # - z^4 too
    Poly3.monomial(2, 1, 0) - Poly3.monomial(0, 0, 3),         # x^2 y - z^3
], ids=["2z3", "plus-z3", "z3-z4", "x2y"])
def test_near_misses_of_the_normal_form_are_unclassified(equation):
    with pytest.raises(UnclassifiedSurface):
        classify(equation)


def test_classify_reads_k_from_the_normal_form():
    assert [classify(an_equation(k)) for k in range(1, 51)] == [
        ("A", k) for k in range(1, 51)]
