"""Chart-level blow-up resolution of the A_k surface singularity.

The surface x y - z^(k+1) = 0 is blown up at the origin; the blow-up is
covered by three affine charts, one per coordinate direction, and the chart
equations are computed by honest polynomial substitution followed by
division by the exceptional factor:

    x-chart: (x, y, z) -> (x, x y, x z)   gives   y - x^(k-1) z^(k+1)
    y-chart: (x, y, z) -> (x y, y, y z)   gives   x - y^(k-1) z^(k+1)
    z-chart: (x, y, z) -> (x z, y z, z)   gives   x y - z^(k-1)

The z-chart is again in normal form, carrying an A_(k-2) point when
k - 2 >= 1; each round contributes one exceptional curve (k = 1) or two
curves meeting at the next center (k >= 2), so an A_n chain is resolved in
ceil(n/2) rounds.  Curves stay along the x- and y-axes of the running
normal coordinates, which makes the adjacency bookkeeping exact: a new
x-side curve meets the previous x-side curve, and the final two curves meet
each other when the recursion bottoms out.

Self-intersection -2 is assigned from crepancy/adjunction (a rational
exceptional curve of a crepant surface resolution), recorded as derived
rather than computed from chart intersection theory.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record


class NotSingular(ValueError):
    """blowup_step was fed a smooth chart."""


class UnclassifiedSurface(ValueError):
    """A chart equation failed the exact normal-form classifier."""


class Poly3:
    """Minimal exact trivariate polynomial: {(ex, ey, ez): Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, ex, ey, ez, coeff=1) -> "Poly3":
        return cls({(ex, ey, ez): Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly3(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - coeff
        return Poly3(out)

    def __eq__(self, other):
        return isinstance(other, Poly3) and self.terms == other.terms

    __hash__ = None

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0, 0), Fraction(0))

    def gradient_at_origin(self):
        return (self.terms.get((1, 0, 0), Fraction(0)),
                self.terms.get((0, 1, 0), Fraction(0)),
                self.terms.get((0, 0, 1), Fraction(0)))

    def blow_chart(self, axis: int) -> "Poly3":
        """Substitute the blow-up chart for `axis` and strip the
        exceptional factor (the largest power of that coordinate)."""
        out = {}
        for (ex, ey, ez), coeff in self.terms.items():
            total = ex + ey + ez
            mono = [ex, ey, ez]
            mono[axis] = total
            key = tuple(mono)
            out[key] = out.get(key, Fraction(0)) + coeff
        if not out:
            return Poly3({})
        low = min(mono[axis] for mono in out)
        shifted = {}
        for mono, coeff in out.items():
            mono = list(mono)
            mono[axis] -= low
            shifted[tuple(mono)] = coeff
        return Poly3(shifted)

    def __str__(self):
        if not self.terms:
            return "0"
        names = ("x", "y", "z")
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            body = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(names, mono) if e)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def an_equation(k: int) -> Poly3:
    """The A_k normal form x y - z^(k+1)."""
    return Poly3.monomial(1, 1, 0) - Poly3.monomial(0, 0, k + 1)


def classify(equation: Poly3):
    """Exact classification of a chart at its origin.

    Returns "smooth" or ("A", k); raises UnclassifiedSurface for anything
    that is neither smooth at the origin nor a literal A_k normal form.
    """
    if not equation.terms:
        raise UnclassifiedSurface("zero equation")
    if equation.constant_term():
        return "smooth"  # origin not on the surface
    if any(equation.gradient_at_origin()):
        return "smooth"
    # only x y - z^(k+1) is A_k, k + 1 being its highest power of z
    k = max(ez for _, _, ez in equation.terms) - 1
    if k >= 1 and equation == an_equation(k):
        return ("A", k)
    raise UnclassifiedSurface(f"cannot classify {equation}")


class ChartSurface(Record):
    __slots__ = ("equation",
                 "tag",     # "smooth" or ("A", k)
                 "curves")  # (curve id, local equation) pairs in this chart

    def __init__(self, equation: Poly3, tag, curves: tuple = ()):
        Record.__init__(self, equation, tag, curves)

    @classmethod
    def an_singularity(cls, k: int) -> "ChartSurface":
        return cls(an_equation(k), ("A", k))


class BlowupResult(Record):
    __slots__ = ("charts",          # name -> ChartSurface
                 "new_curves",      # new exceptional curve ids, x-side first
                 "singular_chart")


def blowup_step(surface: ChartSurface, round_no: int = 1) -> BlowupResult:
    """Blow up the origin of an A_k chart.

    Produces the three chart surfaces, one new curve for k = 1 (all charts
    smooth) and two new curves meeting at the origin of the z-chart for
    k >= 2 (which carries the A_(k-2) point when k >= 3).
    """
    if surface.tag == "smooth":
        raise NotSingular("chart is already smooth")
    kind, k = surface.tag
    assert kind == "A" and k >= 1
    eq = surface.equation
    chart_eqs = {name: eq.blow_chart(axis)
                 for axis, name in enumerate(("x", "y", "z"))}
    tags = {name: classify(e) for name, e in chart_eqs.items()}
    assert tags["x"] == "smooth" and tags["y"] == "smooth"
    if k == 1:
        # single irreducible exceptional curve, visible in every chart
        cid = f"C{round_no}"
        curves = {"x": ((cid, "x = 0"),),
                  "y": ((cid, "y = 0"),),
                  "z": ((cid, "z = 0"),)}
        new = (cid,)
        singular = None
    else:
        cx, cy = f"C{round_no}x", f"C{round_no}y"
        # the x-side curve lies along the x-axis of the z-chart (y = z = 0)
        curves = {"x": ((cx, "x = 0"),),
                  "y": ((cy, "y = 0"),),
                  "z": ((cx, "z = 0, y = 0"), (cy, "z = 0, x = 0"))}
        new = (cx, cy)
        singular = "z" if tags["z"] != "smooth" else None
    charts = {name: ChartSurface(chart_eqs[name], tags[name],
                                 curves.get(name, ()))
              for name in ("x", "y", "z")}
    return BlowupResult(charts, new, singular)


class ResolutionGraph(Record):
    __slots__ = ("nodes",   # (curve id, self-intersection) in chain order
                 "edges",   # a frozenset of 2-element frozensets
                 "rounds")  # blow-up rounds done

    @property
    def size(self) -> int:
        return len(self.nodes)

    def adjacency(self):
        index = {cid: i for i, (cid, _) in enumerate(self.nodes)}
        n = self.size
        adj = [[0] * n for _ in range(n)]
        for edge in self.edges:
            a, b = tuple(edge)
            adj[index[a]][index[b]] = adj[index[b]][index[a]] = 1
        return tuple(tuple(r) for r in adj)

    def to_json(self):
        return {"nodes": [{"id": cid, "self_intersection": s}
                          for cid, s in self.nodes],
                "edges": sorted(sorted(e) for e in self.edges),
                "rounds": self.rounds}

    def to_graphviz(self) -> str:
        lines = ["graph resolution {"]
        for cid, s in self.nodes:
            lines.append(f'  "{cid}" [label="{cid} ({s})"];')
        for e in sorted(sorted(x) for x in self.edges):
            lines.append(f'  "{e[0]}" -- "{e[1]}";')
        lines.append("}")
        return "\n".join(lines)


def resolve_an(n: int) -> ResolutionGraph:
    """Resolve x y = z^(n+1) by iterated blow-ups; returns the chain graph.

    >>> resolve_an(7).rounds
    4
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    left, right = [], []           # curve ids from the outside in
    middle = None
    left_prev = right_prev = None
    edges = set()
    chart = ChartSurface.an_singularity(n)
    rounds = 0
    while chart.tag != "smooth":
        rounds += 1
        _, k = chart.tag
        result = blowup_step(chart, rounds)
        if len(result.new_curves) == 1:
            (cid,) = result.new_curves
            middle = cid
            if left_prev:
                edges.add(frozenset((left_prev, cid)))
            if right_prev:
                edges.add(frozenset((right_prev, cid)))
        else:
            cx, cy = result.new_curves
            left.append(cx)
            right.append(cy)
            if left_prev:
                edges.add(frozenset((left_prev, cx)))
            if right_prev:
                edges.add(frozenset((right_prev, cy)))
            if k == 2:
                edges.add(frozenset((cx, cy)))
            left_prev, right_prev = cx, cy
        chart = (result.charts[result.singular_chart]
                 if result.singular_chart else
                 ChartSurface(result.charts["z"].equation, "smooth"))
    order = left + ([middle] if middle else []) + list(reversed(right))
    nodes = tuple((cid, -2) for cid in order)
    return ResolutionGraph(nodes, frozenset(edges), rounds)
