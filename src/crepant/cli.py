"""Command-line front end.

Exact-only input syntax: a q-point is a comma-separated list of root-of-unity
literals "e:j/k" meaning exp(2 pi i j/k); decimal floats are rejected since
every claim the tool checks is an exact identity.  All JSON output is
deterministic (sorted keys, fixed entry order) and contains no floating
point.

Exit codes: 0 success, 1 verification failure, 2 usage errors and poles.
Input the library rejects with a ValueError (an imprimitive root, an
unknown ADE label, a malformed map file, ...) is a usage error: one line on
stderr and exit 2, never a traceback.  A usage error writes nothing to
stdout, and the last line it writes to stderr is "Error: <message>", after
the command's usage line when the command line itself is malformed.

The command line is read with `argparse`.  `--help` (there is no `-h`) is
read before option values are checked, so it prints the help whatever they
are; an option takes the argument after it whatever it is; options are not
abbreviated, a repeated one keeps its last value, and `--n` is read by
int().

Every command starts a fresh interpreter, which compiles each module it
imports unless the module's bytecode was written beforehand.  So a command
loads only the modules it runs: each `cmd_*` imports what it calls in its
own body, and `import crepant.cli` loads no library module and not `json`,
which only the code that reads or prints JSON imports.  The modules are cut
along the commands, so that a command compiles little code it does not
run: `verify` loads the tables (`tables`), the maps (`maps`) and the check
(`transport`), and none of the solvers and the scan (`isocheck`), the
emitters and the JSON reader (`ringtables`) and the McKay graphs (`mckay`).
`resolve` loads `resolve` and `record` alone, `mckay` loads `resolve` only
with `--compare-resolution`, and `table` loads none of `transport`, `maps`,
`isocheck` and `mckay`.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

POLE_EXIT = 2
# ASCII digits only: int() would also take "1_0", " 1", "+3" and other
# scripts' digits
_QLITERAL = re.compile(r"e:([+-]?[0-9]+)(?:/([0-9]+))?")
_BGP = re.compile(r"bgp:([+-]?[0-9]+)")

# Largest degree phi(N) of the field Q(zeta_N) a run may compute in, N being
# the lcm of 4(n+1), the q literals' denominators and, for `verify`, the
# conductors of the map's entries.  A product costs O(phi^2), an inverse of
# 1 - zeta^a (every delta value's) O(N phi), any other (by norm) O(phi^3):
# `verify --n 2 --q e:1/5,e:1/7` (N = 420, phi = 96) takes well under a
# second, while at `e:1/2003` at rank 1 (phi = 8008) one product is 64
# million coordinate products, and a rank-1 map file with an entry in
# Q(zeta_8009) would make `verify` run 8 s.
MAX_QPOINT_PHI = 128

# Largest rank `scan --n` accepts.  The scan runs one transport check, at
# m_root = 1, in the field Q(zeta_{4(n+1)}), and transports its report to
# the other primitive (n+1)-th roots by Galois automorphisms: on a 2-vCPU x86
# host `conjecture_scan(n)` for n = 10, 12, 14, 15 took 43-46 ms, 88-93 ms,
# 91-97 ms and 0.11-0.13 s in three timings in one sitting, each in a fresh
# interpreter, and n = 16 (a field of degree 32) 0.30-0.31 s; in the same
# sitting `scan --n 15 --format json` wrote 20 MB in 0.90-1.04 s, most of it
# spent writing the JSON, so the JSON, not the scan, is what binds the cap.
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


class UsageError(ValueError):
    """A command line crepant does not run: nothing on stdout, "Error: "
    and the message as the last line on stderr, exit 2."""


def _bound_rank(command: str, rank: int, cap: int, option: str = "--n"):
    """Refuse a rank outside 1..cap, given as `option`, before any work."""
    if rank < 1:
        raise UsageError(f"{command} {option} must be >= 1, got {rank}")
    if rank > cap:
        raise UsageError(
            f"{command} {option} {rank} exceeds the limit n <= {cap}")


def _parse_qpoint(spec: str, n: int, lmap: LinearMap | None = None):
    """Parse "e:j/k,e:j/k,..." into exact root-of-unity values.

    The values lie in Q(zeta_N), N = lcm(4(n+1), the denominators k).  The
    field a run computes in, which also holds every entry of `lmap` if one
    is given, must have degree at most MAX_QPOINT_PHI.
    """
    from .exactnum import euler_phi, root_of_unity

    tokens = [t.strip() for t in spec.split(",")]
    if len(tokens) != n:
        raise UsageError(f"expected {n} q-values, got {len(tokens)}")
    literals = []
    for tok in tokens:
        if not tok.startswith("e:"):
            raise UsageError(
                f"bad q literal {tok!r}: use e:j/k for exp(2*pi*i*j/k)")
        literal = _QLITERAL.fullmatch(tok)
        if literal is None:
            raise UsageError(f"bad q literal {tok!r}")
        j, k = int(literal[1]), int(literal[2] or "1")
        if k < 1:
            raise UsageError(f"bad q literal {tok!r}: k must be >= 1")
        literals.append((j, k))
    conductor = math.lcm(4 * (n + 1), *(k for _, k in literals))
    rows = lmap.matrix if lmap is not None else ()
    field = math.lcm(conductor, *(c.conductor for row in rows for c in row))
    # phi(N) >= sqrt(N/2), so the first test also bounds the factorisation
    if field > 2 * MAX_QPOINT_PHI ** 2 or euler_phi(field) > MAX_QPOINT_PHI:
        by_map = " with this map" if field != conductor else ""
        raise UsageError(
            f"q-point {spec!r}{by_map} needs Q(zeta_{field}), whose degree "
            f"exceeds the limit phi <= {MAX_QPOINT_PHI}")
    return [root_of_unity(conductor, j * conductor // k) for j, k in literals]


def _dump_json(doc) -> str:
    import json
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit_pole(exc: PoleError) -> int:
    doc = {"error": "pole",
           "mu": exc.index.mu, "nu": exc.index.nu,
           "entry": list(exc.entry) if exc.entry else None,
           "message": str(exc)}
    print(_dump_json(doc))
    return POLE_EXIT


def _approx(value: Cyclotomic) -> str:
    # display helper only; JSON output never contains floats
    z = value.to_complex()
    return f"~{z.real:+.6f}{z.imag:+.6f}i"


class _Param:
    """One option of a command ("--n") or its one positional ("kind").

    `kind` is str, int (read with int()), bool (a flag) or the tuple of the
    allowed values.
    """

    __slots__ = ("name", "dest", "kind", "required", "default", "help")

    def __init__(self, name, dest, kind=str, required=False, default=None,
                 help=""):
        self.name, self.dest, self.kind = name, dest, kind
        self.required, self.default, self.help = required, default, help


def _format(*choices) -> _Param:
    return _Param("--format", "fmt", choices, default="text")


# name -> (the function that runs the command, its parameters); the
# function's docstring is the command's help, its first line the summary
_COMMANDS = {}


def _command(*params):
    """Register `cmd_NAME` as the command NAME taking `params`."""
    def register(run):
        _COMMANDS[run.__name__.removeprefix("cmd_")] = run, params
        return run
    return register


@_command(_Param("kind", "kind", ("cr", "cup", "qc"), required=True,
                 help="Chen-Ruan, cup or quantum-corrected"),
          _Param("--n", "rank", int, required=True,
                 help=f"rank 1 <= n <= {MAX_TABLE_RANK}"),
          _Param("--q", "qspec",
                 help="evaluate the qc table at this exact q-point; its "
                 f"field Q(zeta_N) must have degree phi(N) <= "
                 f"{MAX_QPOINT_PHI}"),
          _format("json", "text", "latex"),
          _Param("--check-roundtrip", "check_roundtrip", bool,
                 help="re-ingest the emitted JSON and compare"))
def cmd_table(kind, rank, qspec, fmt, check_roundtrip):
    """Print one product table (qc is symbolic unless --q is given)."""
    from .corrections import PoleError
    from .ringtables import (table_from_json, table_to_json, table_to_latex,
                             table_to_text)
    from .tables import cr_table, cup_table, qc_eval, qc_table

    _bound_rank("table", rank, MAX_TABLE_RANK)
    if qspec is not None and kind != "qc":
        raise UsageError("--q only applies to the qc table")
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
                return _emit_pole(exc)
    if check_roundtrip:
        import json
        doc = table_to_json(table)
        if table_from_json(json.loads(_dump_json(doc))) != table:
            print("round-trip mismatch", file=sys.stderr)
            return 1
    if fmt == "json":
        print(_dump_json(table_to_json(table)))
    elif fmt == "latex":
        print(table_to_latex(table))
    else:
        print(table_to_text(table))
    return 0


def _load_map(source: str, rank: int) -> LinearMap:
    from .maps import LinearMap, bgp_map, chtd_map

    if source == "chtd":
        return chtd_map(rank)
    if source.startswith("bgp:"):
        spec = _BGP.fullmatch(source)
        if spec is None:
            raise UsageError(f"bad map spec {source!r}")
        return bgp_map(rank, int(spec[1]))
    import json
    try:
        with open(source) as fh:
            doc = json.load(fh, parse_int=_map_int)
    except OSError as exc:
        raise UsageError(f"cannot read map file {source!r}: {exc}")
    except RecursionError:
        raise UsageError(f"map file {source!r} is nested too deeply")
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
        raise UsageError(f'map file {source!r}: "n" is an integer of '
                         f'{doc["n"].digits()} digits, too long to read')
    rows = doc.get("matrix")
    if not isinstance(rows, list):
        return
    for k, row in enumerate(rows):
        for l, entry in enumerate(row if isinstance(row, list) else ()):
            if not isinstance(entry, dict):
                continue
            if isinstance(entry.get("conductor"), _LongInt):
                raise UsageError(
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
                    raise UsageError(
                        f"map file {source!r}: entry matrix[{k}][{l}] has "
                        f"a coordinate of {width} digits, above the limit "
                        f"of {MAX_MAP_DIGITS} digits per numerator or "
                        "denominator")


@_command(_Param("--n", "rank", int, required=True,
                 help=f"rank 1 <= n <= {MAX_VERIFY_RANK}"),
          _Param("--map", "map_source", required=True,
                 help="bgp:M, chtd, or a JSON file with a LinearMap, each "
                 "numerator and denominator of its coordinates at most "
                 f"{MAX_MAP_DIGITS} digits"),
          _Param("--q", "qspec", required=True,
                 help="exact q-point e:j/k,...; the field Q(zeta_N) holding "
                 "it and every map entry must have degree phi(N) <= "
                 f"{MAX_QPOINT_PHI}"),
          _format("json", "text"))
def cmd_verify(rank, map_source, qspec, fmt):
    """Check that the map transports the quantum product at q.

    Exit 0 iff the map carries the quantum product at q into the orbifold
    product."""
    from .corrections import PoleError
    from .tables import qc_table
    from .transport import RankMismatch, transport_check

    _bound_rank("verify", rank, MAX_VERIFY_RANK)
    lmap = _load_map(map_source, rank)
    RankMismatch.check(lmap.n, rank)
    q = _parse_qpoint(qspec, rank, lmap)
    try:
        report = transport_check(lmap, qc_table(rank), q)
    except PoleError as exc:
        return _emit_pole(exc)
    if fmt == "json":
        print(_dump_json(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.passed else 1


@_command(_Param("--n", "rank", ("1", "2"), required=True),
          _format("json", "text"))
def cmd_solve(rank, fmt):
    """Solve the rank-1 or rank-2 isomorphism system exactly."""
    from .isocheck import solve_a1, solve_a2

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
    print(_dump_json(doc) if fmt == "json" else "\n".join(lines))
    return 0


@_command(_Param("--n", "rank", int, required=True,
                 help=f"rank 1 <= n <= {MAX_SCAN_RANK}"),
          _format("json", "text"))
def cmd_scan(rank, fmt):
    """Probe the conjectured map at every primitive (n+1)-th root."""
    from .isocheck import conjecture_scan

    _bound_rank("scan", rank, MAX_SCAN_RANK)
    results = conjecture_scan(rank)
    if fmt == "json":
        print(_dump_json([r.to_json() for r in results]))
        return 0
    for r in results:
        line = f"m_root={r.m_root}: {r.status}"
        if r.status == "fail":
            bad = ",".join(f"({e.i},{e.j})" for e in r.report.failures())
            line += f" at entries {bad}"
        print(line)
    return 0


@_command(_Param("--n", "rank", int, help=f"rank 1 <= n <= {MAX_MCKAY_RANK}"),
          _Param("--group", "label",
                 help="static ADE data, e.g. D_4 or E_7; A_n and D_n need "
                 f"n <= {MAX_MCKAY_RANK}"),
          _Param("--full", "full", bool,
                 help="include the trivial representation (needs --n)"),
          _Param("--compare-resolution", "compare_resolution", bool,
                 help="exit nonzero unless the graph matches resolve_an"),
          _format("json", "text", "dot"))
def cmd_mckay(rank, label, full, compare_resolution, fmt):
    """McKay graph from characters (A_n) or classification data (D/E)."""
    from .mckay import ade_resolution_graph, an_mckay, aut_gamma

    if (rank is None) == (label is None):
        raise UsageError("give exactly one of --n or --group")
    if compare_resolution and (rank is None or full):
        raise UsageError("--compare-resolution needs --n without --full")
    if full and rank is None:  # the static graphs are reduced ones only
        raise UsageError("--full needs --n")
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
        print(_dump_json(doc))
    elif fmt == "dot":
        print(graph.to_graphviz())
    else:
        print(f"{graph.group_label} "
              f"({'reduced' if graph.reduced else 'full'}), "
              f"Aut = {aut_gamma(graph.group_label)}")
        for i, j, mult in graph.edges():
            print(f"  {graph.vertices[i][0]} -- {graph.vertices[j][0]}"
                  + (f" (x{mult})" if mult > 1 else ""))
    if not compare_resolution:
        return 0
    from .resolve import resolve_an
    match = resolve_an(rank).adjacency() == graph.adjacency
    print("resolution graph match: " + ("yes" if match else "NO"))
    return 0 if match else 1


@_command(_Param("--n", "rank", int, required=True,
                 help=f"rank 1 <= n <= {MAX_RESOLVE_RANK}"),
          _format("json", "text", "dot"))
def cmd_resolve(rank, fmt):
    """Resolve x y = z^(n+1) by iterated blow-ups of the origin."""
    from .resolve import resolve_an

    _bound_rank("resolve", rank, MAX_RESOLVE_RANK)
    graph = resolve_an(rank)
    if fmt == "json":
        print(_dump_json(graph.to_json()))
    elif fmt == "dot":
        print(graph.to_graphviz())
    else:
        print(f"A_{rank}: {graph.size} exceptional curves in "
              f"{graph.rounds} blow-up rounds")
        print("  chain: " + " -- ".join(cid for cid, _ in graph.nodes))
    return 0


_ABOUT = """\
Exact rings and ring-isomorphism checks for transversal A_n orbifolds and
their crepant resolutions."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, after the usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fixed_width_help(prog):
    # a fixed width, so the help reads the same in every terminal
    return argparse.HelpFormatter(prog, width=80)


def _top_parser(prog: str) -> _Parser:
    """The help and usage of `crepant` itself; `_run` reads the options
    before the command."""
    commands = "\n".join(f"  {name:9}{run.__doc__.splitlines()[0]}"
                         for name, (run, _) in _COMMANDS.items())
    return _Parser(
        prog=prog, usage="%(prog)s [--help] COMMAND [ARGS]...",
        description=_ABOUT, add_help=False,
        epilog=f"commands:\n{commands}\n\n"
        f"'{prog} COMMAND --help' lists a command's options.",
        formatter_class=argparse.RawDescriptionHelpFormatter)


def _command_parser(prog: str, name: str) -> _Parser:
    run, params = _COMMANDS[name]
    usage = "%(prog)s [OPTIONS]" + "".join(
        " {" + ",".join(p.kind) + "}" for p in params if p.name[0] != "-")
    parser = _Parser(prog=f"{prog} {name}", usage=usage,
                     description=run.__doc__, add_help=False,
                     allow_abbrev=False, formatter_class=_fixed_width_help)
    for p in params:
        if p.kind is bool:
            parser.add_argument(p.name, dest=p.dest, action="store_true",
                                help=p.help)
            continue
        text = p.help + (" (required)" if p.required else
                         f" (default: {p.default})" if p.default else "")
        metavar = ("{" + ",".join(p.kind) + "}" if type(p.kind) is tuple
                   else p.name.lstrip("-").upper())
        names = {"dest": p.dest} if p.name[0] == "-" else {"nargs": "?"}
        parser.add_argument(p.name, **names, metavar=metavar,
                            help=text.strip())
    parser.add_argument("--help", action="store_true",
                        help="show this message and exit")
    return parser


def _value(parser: _Parser, p: _Param, raw):
    """The value of `p` given as the string `raw`, or None if absent."""
    if raw == []:  # argparse reads the value of "--n=--" as no strings
        raw = "--"
    if raw is None:
        if p.required:
            what = "option" if p.name[0] == "-" else "argument"
            parser.error(f"Missing {what} '{p.name}'.")
        return p.default
    if p.kind is int:
        try:
            return int(raw)
        except ValueError:
            parser.error(f"Invalid value for '{p.name}': {raw!r} is not a "
                         "valid integer.")
    if type(p.kind) is tuple and raw not in p.kind:
        parser.error(f"Invalid value for '{p.name}': {raw!r} is not one of "
                     + ", ".join(map(repr, p.kind)) + ".")
    return raw


def _run(prog: str, argv: list) -> int:
    """Read argv and run the command it names; its exit code.

    `--help` is read before anything but a malformed option: it prints the
    help even where an option value is invalid or missing.
    """
    start = 0  # where the command's name is: after the options and a "--"
    while start < len(argv) and argv[start][:1] == "-" and argv[start] != "-":
        start += 1
        if argv[start - 1] == "--":
            break
        if argv[start - 1] != "--help":
            _top_parser(prog).error(f"No such option: {argv[start - 1]}")
    if "--help" in argv[:start]:
        _top_parser(prog).print_help()
        return 0
    if start == len(argv):
        _top_parser(prog).print_help(sys.stderr)
        raise UsageError("Missing command.")
    name = argv[start]
    if name not in _COMMANDS:
        _top_parser(prog).error(f"No such command {name!r}.")
    run, params = _COMMANDS[name]
    # an option that takes a value takes the next argument, whatever it is
    # ("--q -1,e:1/2", "--map --help"): join the two as "--q=-1,e:1/2"
    takes_value = {p.name for p in params
                   if p.name[0] == "-" and p.kind is not bool}
    args, k = argv[start + 1:], 0
    while k < len(args) - 1 and args[k] != "--":
        if args[k] in takes_value:
            args[k:k + 2] = [f"{args[k]}={args[k + 1]}"]
        k += 1
    parser = _command_parser(prog, name)
    args, extras = parser.parse_known_args(args)
    extra = []  # arguments that are no option, each one too many
    for k, arg in enumerate(extras):
        if arg == "--":
            extra += extras[k + 1:]
            break
        if arg[:1] == "-" and arg != "-":
            parser.error(f"No such option: {arg}")
        extra.append(arg)
    if args.help:
        parser.print_help()
        return 0
    values = {p.dest: _value(parser, p, getattr(args, p.dest))
              for p in params}
    if extra:
        parser.error(f"Got unexpected extra argument{'s' * (len(extra) > 1)}"
                     f" ({' '.join(extra)})")
    return run(**values)


def main(args=None, prog_name: str | None = None):
    """Run the `crepant` command line `args` (default: sys.argv[1:]) and
    exit with its code: 0 success, 1 a failed check, 2 a usage error, input
    the library refuses, or a pole."""
    argv = sys.argv[1:] if args is None else list(args)
    try:
        code = _run(prog_name or "crepant", argv)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except ValueError as exc:  # UsageError or the library's validation
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    except BrokenPipeError:  # the reader of stdout is gone, as in `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
