"""Command-line front end.

Exact-only input syntax: a q-point is a comma-separated list of root-of-unity
literals "e:j/k" meaning exp(2 pi i j/k); decimal floats are rejected since
every claim the tool checks is an exact identity.  All JSON output is
deterministic (sorted keys, fixed entry order) and contains no floating
point.

Exit codes: 0 success, 1 verification failure, 2 usage errors and poles.
Input the library rejects with a ValueError (an imprimitive root, an
unknown ADE label, a malformed map file, ...) is a usage error: one line on
stderr and exit 2, never a traceback.
"""

from __future__ import annotations

import json
import math
import re
import sys

import click

from .corrections import PoleError
from .exactnum import Cyclotomic, euler_phi, root_of_unity
from .isocheck import (RankMismatch, conjecture_scan, solve_a1, solve_a2,
                       transport_check)
from .mckay import (LinearMap, ade_resolution_graph, an_mckay, aut_gamma,
                    bgp_map, chtd_map)
from .resolve import resolve_an
from .ringtables import (cr_table, cup_table, qc_eval, qc_table,
                         table_from_json, table_to_json, table_to_latex,
                         table_to_text)

POLE_EXIT = 2
# ASCII digits only: int() would also take "1_0", " 1", "+3" and other
# scripts' digits
_QLITERAL = re.compile(r"e:([+-]?[0-9]+)(?:/([0-9]+))?")
_BGP = re.compile(r"bgp:([+-]?[0-9]+)")

# Largest degree phi(N) of the field Q(zeta_N) a run may compute in, N being
# the lcm of 4(n+1), the q literals' denominators and, for `verify`, the
# conductors of the map's entries.  A product costs O(phi^2), an inverse of
# 1 - zeta^a (every delta value's) O(N phi) and any other inverse O(phi^3):
# `verify --n 2 --q e:1/5,e:1/7` (N = 420, phi = 96) takes well under a
# second, while at `e:1/2003` at rank 1 (phi = 8008) one product is 64
# million coordinate products, and a rank-1 map file with an entry in
# Q(zeta_8009) would make `verify` run 8 s.
MAX_QPOINT_PHI = 128

# Largest rank `scan --n` accepts.  The scan runs one transport check, at
# m_root = 1, in the field Q(zeta_{4(n+1)}), and transports its report to
# the other primitive (n+1)-th roots by Galois automorphisms: on a 2-vCPU x86
# host `conjecture_scan(n)` for n = 10, 12, 14, 15 took 98-105 ms,
# 0.22-0.24 s, 0.25-0.27 s and 0.32-0.34 s in three timings in one sitting,
# and n = 16 (a field of degree 32) 0.71-0.75 s; `scan --n 15 --format json`
# writes 20 MB in 1.6-2.0 s, most of it spent writing the JSON, so the JSON,
# not the scan, is what binds the cap.
MAX_SCAN_RANK = 15

# Largest rank each other command accepts, timed on the same host at its
# most expensive input.  `table qc --n 20` took 0.2-0.3 s, 1.7-2.5 s with
# `--format json --check-roundtrip` (most of it writing the indented JSON
# twice) and 0.9-1.2 s with `--format json` evaluated at a point of
# Q(zeta_420) (phi = 96), five runs each; `verify` at a point of degree 96-128 took
# 12 s at n = 11, 16 s at n = 12 and 37 s at n = 14; `mckay --n 300
# --compare-resolution` took 0.2 s and `an_mckay(400)` 0.1 s; `resolve
# --n 1000` took 0.06 s and `--n 2000` 0.11 s.
MAX_TABLE_RANK = 20
MAX_VERIFY_RANK = 12
MAX_MCKAY_RANK = 300
MAX_RESOLVE_RANK = 1000

# Widest numerator or denominator, in decimal digits as written, of a
# coordinate in a `verify` map file.  A product of map entries carries the
# product of their denominators and the transport check sums such products,
# so its cost and the width of the values it prints grow with the map's
# width.  On the 2-vCPU x86 host, `verify --n 12` of `bgp:1` with each of its
# 144 entries times a distinct rational of D-digit numerator and denominator
# took, at `e:1/13` (the map's field) and at `e:1/260` (degree 96, outside
# it): 3.4 and 14 s at D = 25, 16-17 s at `e:1/260` at D = 30, 11 and 42 s
# at D = 100 (47 and 252 MB of text), while at D = 150 and 200 the check ran
# and the output could not be printed (an integer past CPython's 4300-digit
# limit for int-to-str).  The widest integer printed at D = 25 had 812
# digits; `bgp:1` alone takes 8.7 s at `e:1/260`.
MAX_MAP_DIGITS = 25
_MAP_COORDINATE = re.compile(r"[-+]?([0-9]+)(?:/([0-9]+))?")


class InputError(click.ClickException):
    """Input the library cannot take: one line on stderr, exit 2."""

    exit_code = 2


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:  # the library's input validation
            raise InputError(str(exc)) from exc


def _bound_rank(command: str, rank: int, cap: int, option: str = "--n"):
    """Refuse a rank outside 1..cap, given as `option`, before any work."""
    if rank < 1:
        raise InputError(f"{command} {option} must be >= 1, got {rank}")
    if rank > cap:
        raise InputError(
            f"{command} {option} {rank} exceeds the limit n <= {cap}")


def _parse_qpoint(spec: str, n: int, lmap: LinearMap | None = None):
    """Parse "e:j/k,e:j/k,..." into exact root-of-unity values.

    The values lie in Q(zeta_N), N = lcm(4(n+1), the denominators k).  The
    field a run computes in, which also holds every entry of `lmap` if one
    is given, must have degree at most MAX_QPOINT_PHI.
    """
    tokens = [t.strip() for t in spec.split(",")]
    if len(tokens) != n:
        raise click.UsageError(f"expected {n} q-values, got {len(tokens)}")
    literals = []
    for tok in tokens:
        if not tok.startswith("e:"):
            raise click.UsageError(
                f"bad q literal {tok!r}: use e:j/k for exp(2*pi*i*j/k)")
        literal = _QLITERAL.fullmatch(tok)
        if literal is None:
            raise click.UsageError(f"bad q literal {tok!r}")
        j, k = int(literal[1]), int(literal[2] or "1")
        if k < 1:
            raise click.UsageError(f"bad q literal {tok!r}: k must be >= 1")
        literals.append((j, k))
    conductor = math.lcm(4 * (n + 1), *(k for _, k in literals))
    rows = lmap.matrix if lmap is not None else ()
    field = math.lcm(conductor, *(c.conductor for row in rows for c in row))
    # phi(N) >= sqrt(N/2), so the first test also bounds the factorisation
    if field > 2 * MAX_QPOINT_PHI ** 2 or euler_phi(field) > MAX_QPOINT_PHI:
        by_map = " with this map" if field != conductor else ""
        raise InputError(
            f"q-point {spec!r}{by_map} needs Q(zeta_{field}), whose degree "
            f"exceeds the limit phi <= {MAX_QPOINT_PHI}")
    return [root_of_unity(conductor, j * conductor // k) for j, k in literals]


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit_pole(exc: PoleError):
    doc = {"error": "pole",
           "mu": exc.index.mu, "nu": exc.index.nu,
           "entry": list(exc.entry) if exc.entry else None,
           "message": str(exc)}
    click.echo(_dump_json(doc))
    sys.exit(POLE_EXIT)


def _approx(value: Cyclotomic) -> str:
    # display helper only; JSON output never contains floats
    z = value.to_complex()
    return f"~{z.real:+.6f}{z.imag:+.6f}i"


@click.group(cls=_Main)
def main():
    """Exact rings and ring-isomorphism checks for transversal A_n
    orbifolds and their crepant resolutions."""


@main.command("table")
@click.argument("kind", type=click.Choice(["cr", "cup", "qc"]))
@click.option("--n", "rank", type=int, required=True,
              help=f"rank 1 <= n <= {MAX_TABLE_RANK}")
@click.option("--q", "qspec", default=None,
              help="evaluate the qc table at this exact q-point; its field "
              f"Q(zeta_N) must have degree phi(N) <= {MAX_QPOINT_PHI}")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text", "latex"]))
@click.option("--check-roundtrip", is_flag=True,
              help="re-ingest the emitted JSON and compare")
def cmd_table(kind, rank, qspec, fmt, check_roundtrip):
    """Print one product table (qc is symbolic unless --q is given)."""
    _bound_rank("table", rank, MAX_TABLE_RANK)
    if qspec is not None and kind != "qc":
        raise click.UsageError("--q only applies to the qc table")
    q = None if qspec is None else _parse_qpoint(qspec, rank)
    if kind == "cr":
        table = cr_table(rank)
    elif kind == "cup":
        table = cup_table(rank)
    else:
        table = qc_table(rank)
        if q is not None:
            try:
                table = qc_eval(table, q)
            except PoleError as exc:
                _emit_pole(exc)
    if check_roundtrip:
        doc = table_to_json(table)
        if table_from_json(json.loads(_dump_json(doc))) != table:
            click.echo("round-trip mismatch", err=True)
            sys.exit(1)
    if fmt == "json":
        click.echo(_dump_json(table_to_json(table)))
    elif fmt == "latex":
        click.echo(table_to_latex(table))
    else:
        click.echo(table_to_text(table))


def _load_map(source: str, rank: int) -> LinearMap:
    if source == "chtd":
        return chtd_map(rank)
    if source.startswith("bgp:"):
        spec = _BGP.fullmatch(source)
        if spec is None:
            raise click.UsageError(f"bad map spec {source!r}")
        return bgp_map(rank, int(spec[1]))
    try:
        with open(source) as fh:
            doc = json.load(fh, parse_int=_map_int)
    except OSError as exc:
        raise click.UsageError(f"cannot read map file {source!r}: {exc}")
    except RecursionError:
        raise InputError(f"map file {source!r} is nested too deeply")
    _bound_map_digits(source, doc)
    return LinearMap.from_json(doc)


class _LongInt(str):
    """The text of a JSON integer past CPython's limit on int() of a decimal
    string (4300 digits)."""

    def digits(self) -> int:
        return len(self.lstrip("-"))


def _map_int(literal: str):
    """A JSON integer of a map file.  One past CPython's limit on int() of a
    decimal string stays its text, a `_LongInt`, so that `_bound_map_digits`
    names its field and its digit count."""
    try:
        return int(literal)
    except ValueError:
        return _LongInt(literal)


def _bound_map_digits(source: str, doc) -> None:
    """Refuse, before any work, a map file whose "n" or an entry's
    "conductor" is an integer too long to read, or a coordinate whose
    numerator or denominator has more than MAX_MAP_DIGITS digits.  Anything
    malformed is left to `LinearMap.from_json`, which refuses it."""
    if not isinstance(doc, dict):
        return
    if isinstance(doc.get("n"), _LongInt):
        raise InputError(f'map file {source!r}: "n" is an integer of '
                         f'{doc["n"].digits()} digits, too long to read')
    rows = doc.get("matrix")
    if not isinstance(rows, list):
        return
    for k, row in enumerate(rows):
        for l, entry in enumerate(row if isinstance(row, list) else ()):
            if not isinstance(entry, dict):
                continue
            if isinstance(entry.get("conductor"), _LongInt):
                raise InputError(
                    f"map file {source!r}: entry matrix[{k}][{l}] has a "
                    f"conductor of {entry['conductor'].digits()} digits, "
                    "too long to read")
            coeffs = entry.get("coeffs")
            for c in coeffs if isinstance(coeffs, list) else ():
                if isinstance(c, int):
                    c = str(c)
                parts = isinstance(c, str) and _MAP_COORDINATE.fullmatch(c)
                width = parts and max(len(parts[1]), len(parts[2] or ""))
                if width and width > MAX_MAP_DIGITS:
                    raise InputError(
                        f"map file {source!r}: entry matrix[{k}][{l}] has "
                        f"a coordinate of {width} digits, above the limit "
                        f"of {MAX_MAP_DIGITS} digits per numerator or "
                        "denominator")


@main.command("verify")
@click.option("--n", "rank", type=int, required=True,
              help=f"rank 1 <= n <= {MAX_VERIFY_RANK}")
@click.option("--map", "map_source", required=True,
              help="bgp:M, chtd, or a JSON file with a LinearMap, each "
              "numerator and denominator of its coordinates at most "
              f"{MAX_MAP_DIGITS} digits")
@click.option("--q", "qspec", required=True,
              help="exact q-point e:j/k,...; the field Q(zeta_N) holding it "
              f"and every map entry must have degree phi(N) <= "
              f"{MAX_QPOINT_PHI}")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text"]))
def cmd_verify(rank, map_source, qspec, fmt):
    """Check that the map transports the quantum product at q into the
    orbifold product; exit 0 iff it does."""
    _bound_rank("verify", rank, MAX_VERIFY_RANK)
    lmap = _load_map(map_source, rank)
    RankMismatch.check(lmap.n, rank)
    q = _parse_qpoint(qspec, rank, lmap)
    try:
        source = qc_eval(qc_table(rank), q)
    except PoleError as exc:
        _emit_pole(exc)
    report = transport_check(lmap, source)
    if fmt == "json":
        click.echo(_dump_json(report.to_json()))
    else:
        click.echo(report.summary())
    sys.exit(0 if report.passed else 1)


@main.command("solve")
@click.option("--n", "rank", type=click.Choice(["1", "2"]), required=True)
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text"]))
def cmd_solve(rank, fmt):
    """Solve the rank-1 or rank-2 isomorphism system exactly."""
    if rank == "1":
        sols = solve_a1()
        doc = [{"t": s.t.to_json(), "q": s.q.to_json()} for s in sols]
        lines = [f"E -> t*e with t = {s.t} ({_approx(s.t)}) "
                 f"at q = {s.q} ({_approx(s.q)})" for s in sols]
    else:
        sols = solve_a2()
        doc = [{"a": s.a.to_json(), "b": s.b.to_json(),
                "q1": s.q1.to_json(), "q2": s.q2.to_json()} for s in sols]
        lines = [f"E1 -> a*e1 + b*e2, E2 -> b*e1 + a*e2 with "
                 f"a = {s.a} ({_approx(s.a)}), b = {s.b} ({_approx(s.b)}) "
                 f"at q = ({s.q1}, {s.q2})" for s in sols]
    if fmt == "json":
        click.echo(_dump_json(doc))
    else:
        click.echo("\n".join(lines))


@main.command("scan")
@click.option("--n", "rank", type=int, required=True,
              help=f"rank 1 <= n <= {MAX_SCAN_RANK}")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text"]))
def cmd_scan(rank, fmt):
    """Probe the conjectured map at every primitive (n+1)-th root."""
    _bound_rank("scan", rank, MAX_SCAN_RANK)
    results = conjecture_scan(rank)
    if fmt == "json":
        click.echo(_dump_json([r.to_json() for r in results]))
    else:
        for r in results:
            line = f"m_root={r.m_root}: {r.status}"
            if r.status == "fail":
                bad = ",".join(f"({e.i},{e.j})"
                               for e in r.report.failures())
                line += f" at entries {bad}"
            elif r.status == "pole":
                line += f" ({r.pole})"
            click.echo(line)


@main.command("mckay")
@click.option("--n", "rank", type=int, default=None,
              help=f"rank 1 <= n <= {MAX_MCKAY_RANK}")
@click.option("--group", "label", default=None,
              help="static ADE data, e.g. D_4 or E_7; A_n and D_n need "
              f"n <= {MAX_MCKAY_RANK}")
@click.option("--full", is_flag=True,
              help="include the trivial representation")
@click.option("--compare-resolution", is_flag=True,
              help="exit nonzero unless the graph matches resolve_an")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text", "dot"]))
def cmd_mckay(rank, label, full, compare_resolution, fmt):
    """McKay graph from characters (A_n) or classification data (D/E)."""
    if (rank is None) == (label is None):
        raise click.UsageError("give exactly one of --n or --group")
    if compare_resolution and (rank is None or full):
        raise click.UsageError("--compare-resolution needs --n without --full")
    if rank is not None:
        _bound_rank("mckay", rank, MAX_MCKAY_RANK)
        graph = an_mckay(rank, reduced=not full)
    else:
        kind, _, num = label.partition("_")
        if kind in ("A", "D") and num.isascii() and num.isdigit():
            _bound_rank("mckay", int(num), MAX_MCKAY_RANK,
                        f"--group {kind}_n")
        graph = ade_resolution_graph(label)
    if fmt == "json":
        doc = graph.to_json()
        doc["aut"] = aut_gamma(graph.group_label)
        click.echo(_dump_json(doc))
    elif fmt == "dot":
        click.echo(graph.to_graphviz())
    else:
        click.echo(f"{graph.group_label} "
                   f"({'reduced' if graph.reduced else 'full'}), "
                   f"Aut = {aut_gamma(graph.group_label)}")
        for i, j, mult in graph.edges():
            click.echo(f"  {graph.vertices[i][0]} -- {graph.vertices[j][0]}"
                       + (f" (x{mult})" if mult > 1 else ""))
    if compare_resolution:
        match = resolve_an(rank).adjacency() == graph.adjacency
        click.echo("resolution graph match: " + ("yes" if match else "NO"))
        sys.exit(0 if match else 1)


@main.command("resolve")
@click.option("--n", "rank", type=int, required=True,
              help=f"rank 1 <= n <= {MAX_RESOLVE_RANK}")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["json", "text", "dot"]))
def cmd_resolve(rank, fmt):
    """Resolve x y = z^(n+1) by iterated blow-ups of the origin."""
    _bound_rank("resolve", rank, MAX_RESOLVE_RANK)
    graph = resolve_an(rank)
    if fmt == "json":
        click.echo(_dump_json(graph.to_json()))
    elif fmt == "dot":
        click.echo(graph.to_graphviz())
    else:
        click.echo(f"A_{rank}: {graph.size} exceptional curves in "
                   f"{graph.rounds} blow-up rounds")
        chain = " -- ".join(cid for cid, _ in graph.nodes)
        click.echo(f"  chain: {chain}")


if __name__ == "__main__":
    main()
