"""The three workloads: what one operation is, how it runs, how it is checked.

Each workload runs as a closed loop, one operation at a time, which is how a
user runs the tool; one pass is a fixed list of operations.

* scan   -- `conjecture_scan(n)` for n = 2..6, in-process.  The slow path:
            field arithmetic at conductors 12..28 inside `qc_eval` and
            `transport_check`.
* tables -- the work of `crepant table KIND --n N --format F` for KIND in
            cr/cup/qc, N = 1..9 and all three formats, in-process; json
            output is re-ingested.  The symbolic build path, all at
            conductor 1.
* cli    -- `crepant` commands drawn by the seed from CATALOGUE, each in a
            fresh interpreter, so start-up, cold caches, mixed conductors,
            poles, linalg, mckay, resolve and the cli module do real work.
            One pass is a seeded permutation of the whole catalogue, so every
            seed does the same work in another order.

Answers are checked against the digests in expected.json (recorded by
record.py) and, where the paper states them, literally (paper.py).
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import paper
from child import READY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"
COMMAND_TIMEOUT_S = 60

SCAN_RANKS = tuple(range(2, 7))
TABLE_OPS = tuple((kind, n, fmt) for n in range(1, 10)
                  for kind in ("cr", "cup", "qc")
                  for fmt in ("json", "text", "latex"))

# Every lifted conductor here has phi(N) <= 48.  Malformed input is left
# out: its exit codes are not settled yet.
CATALOGUE = tuple(line.split() for line in """\
verify --n 1 --map bgp:1 --q e:1/2
verify --n 1 --map bgp:1 --q e:1/2 --format json
verify --n 1 --map chtd --q e:1/2
verify --n 1 --map chtd --q e:1/3
verify --n 1 --map bgp:1 --q e:1/1
verify --n 1 --map bgp:1 --q e:1/7 --format json
verify --n 2 --map bgp:1 --q e:1/3,e:1/3
verify --n 2 --map bgp:2 --q e:2/3,e:2/3
verify --n 2 --map bgp:1 --q e:1/3,e:1/3 --format json
verify --n 2 --map chtd --q e:1/3,e:1/3
verify --n 2 --map bgp:1 --q e:1/2,e:1/2
verify --n 2 --map bgp:1 --q e:1/3,e:2/3
verify --n 2 --map bgp:1 --q e:1/3,e:1/5 --format json
verify --n 2 --map bgp:2 --q e:1/7,e:3/7
verify --n 2 --map bgp:1 --q e:1/13,e:1/13
verify --n 2 --map chtd --q e:1/3,e:1/5 --format json
verify --n 3 --map bgp:1 --q e:1/4,e:1/4,e:1/4
verify --n 3 --map bgp:3 --q e:3/4,e:3/4,e:3/4
verify --n 3 --map chtd --q e:1/4,e:1/4,e:1/4
verify --n 3 --map bgp:3 --q e:1/4,e:1/3,e:1/4
verify --n 3 --map bgp:1 --q e:1/9,e:1/9,e:1/9
verify --n 3 --map bgp:1 --q e:1/2,e:1/2,e:1/4
verify --n 3 --map chtd --q e:1/5,e:1/4,e:1/5 --format json
verify --n 4 --map bgp:1 --q e:1/5,e:1/5,e:1/5,e:1/5
verify --n 4 --map bgp:2 --q e:2/5,e:2/5,e:2/5,e:2/5
verify --n 4 --map chtd --q e:1/5,e:1/5,e:1/5,e:1/5
verify --n 4 --map bgp:3 --q e:1/5,e:4/5,e:1/5,e:1/5
verify --n 4 --map bgp:1 --q e:1/3,e:1/3,e:1/3,e:1/3
verify --n 4 --map bgp:4 --q e:4/5,e:4/5,e:4/5,e:4/5 --format json
verify --n 5 --map bgp:1 --q e:1/6,e:1/6,e:1/6,e:1/6,e:1/6
verify --n 5 --map bgp:5 --q e:5/6,e:5/6,e:5/6,e:5/6,e:5/6
verify --n 5 --map chtd --q e:1/6,e:1/6,e:1/6,e:1/6,e:1/6
verify --n 5 --map bgp:1 --q e:1/6,e:1/2,e:1/6,e:1/2,e:1/6
verify --n 5 --map bgp:5 --q e:1/3,e:1/2,e:1/3,e:1/2,e:1/3
verify --n 5 --map bgp:1 --q e:1/3,e:2/3,e:1/3,e:1/3,e:1/3
table qc --n 1 --q e:1/2
table qc --n 2 --q e:1/3,e:1/3
table qc --n 2 --q e:1/2,e:1/2
table qc --n 3 --q e:1/4,e:1/4,e:1/4 --format json
table qc --n 1 --q e:1/7 --format latex
table qc --n 4 --q e:1/5,e:1/5,e:1/5,e:1/5 --format latex
table qc --n 2 --q e:1/13,e:1/13 --format json
table qc --n 3 --q e:1/4,e:1/2,e:1/4
solve --n 1
solve --n 1 --format json
solve --n 2
solve --n 2 --format json
mckay --n 1 --compare-resolution
mckay --n 4 --compare-resolution
mckay --n 6 --compare-resolution --format json
mckay --n 8 --compare-resolution
resolve --n 1
resolve --n 5 --format json
resolve --n 7
resolve --n 4 --format dot
""".splitlines())

# Commands whose answer the paper states; checked on top of the digest.
LITERAL = {
    "solve --n 1 --format json": paper.check_solve_a1,
    "solve --n 2 --format json": paper.check_solve_a2,
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def dump_json(doc):
    """JSON exactly as the `crepant` command line prints it."""
    return json.dumps(doc, sort_keys=True, indent=2)


def load_expected():
    return json.loads(EXPECTED.read_text())


class Outcome:
    """One operation: its latency, whether it was right, and why not."""

    __slots__ = ("start", "latency", "ok", "error", "setup", "op", "pass_no",
                 "ref")

    def __init__(self, start, latency, ok, error=None, setup=None):
        self.start = start  # time.perf_counter() when it began
        self.latency = latency
        self.ok = ok
        self.error = error
        self.setup = setup
        self.op = self.pass_no = None
        self.ref = None  # the reference kernel's time around it (calib.py)


def spawn(module, args=(), trace_file=None):
    """Run child.py in a fresh interpreter: import `module`, then run the
    `crepant` command line with `args`, if any.

    Returns (completed process, start, latency, set-up time), with start a
    time.perf_counter() reading.
    """
    argv = [sys.executable, str(CHILD)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    argv += [module, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=COMMAND_TIMEOUT_S)
    latency = time.perf_counter() - t0
    ready = [line for line in proc.stderr.splitlines()
             if line.startswith(READY)]
    setup = float(ready[-1].split()[1]) - t0 if ready else None
    return proc, t0, latency, setup


def _run_in_process(call, check, tracer):
    """Time call(), traced when a tracer is given; check its result untimed.

    An operation that raises, or whose check raises, has failed.
    """
    if tracer is not None:
        tracer.enabled = True
        token = tracer.enter("bench.op", "bench.op")
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:
        return Outcome(t0, time.perf_counter() - t0, False, repr(exc))
    finally:
        if tracer is not None:
            tracer.exit(token)
            tracer.enabled = False
    latency = time.perf_counter() - t0
    try:
        error = check(result)
    except Exception as exc:
        error = f"check raised {exc!r}"
    return Outcome(t0, latency, error is None, error)


class Scan:
    name = "scan"
    probe = "crepant"
    in_process = True

    def ops(self, seed, pass_no):
        return list(SCAN_RANKS)

    def text(self, results):
        return dump_json([r.to_json() for r in results]) + "\n"

    def run(self, n, expected, tracer=None):
        from crepant import isocheck

        def check(results):
            statuses = [r.status for r in results]
            if not paper.check_scan(n, statuses):
                return f"scan n={n}: statuses {statuses}"
            if sha256(self.text(results)) != expected["scan"][str(n)]:
                return f"scan n={n}: JSON differs from the recorded output"
            return None

        return _run_in_process(lambda: isocheck.conjecture_scan(n), check,
                               tracer)


class Tables:
    name = "tables"
    probe = "crepant"
    in_process = True

    def ops(self, seed, pass_no):
        return list(TABLE_OPS)

    @staticmethod
    def key(op):
        return "{}-{}-{}".format(*op)

    def build_and_emit(self, op):
        from crepant import ringtables as rt
        kind, n, fmt = op
        build = {"cr": rt.cr_table, "cup": rt.cup_table, "qc": rt.qc_table}
        table = build[kind](n)
        if fmt == "json":
            text = dump_json(rt.table_to_json(table))
            return table, text, rt.table_from_json(json.loads(text))
        emit = rt.table_to_text if fmt == "text" else rt.table_to_latex
        return table, emit(table), None

    def run(self, op, expected, tracer=None):
        def check(result):
            table, text, back = result
            if sha256(text + "\n") != expected["tables"][self.key(op)]:
                return f"table {self.key(op)}: output differs"
            if back is not None and back != table:
                return f"table {self.key(op)}: JSON round trip differs"
            return None

        return _run_in_process(lambda: self.build_and_emit(op), check,
                               tracer)


class Cli:
    name = "cli"
    probe = "crepant.cli"
    in_process = False

    def ops(self, seed, pass_no):
        order = list(CATALOGUE)
        random.Random(f"{seed}/{pass_no}").shuffle(order)
        return order

    def run(self, args, expected, trace_file=None):
        key = " ".join(args)
        start = time.perf_counter()
        try:
            proc, start, latency, setup = spawn(self.probe, args, trace_file)
        except subprocess.TimeoutExpired:
            return Outcome(start, COMMAND_TIMEOUT_S, False,
                           f"{key}: timed out")
        want = expected["cli"][key]
        error = None
        if proc.returncode != want["exit"]:
            error = f"{key}: exit {proc.returncode}, expected {want['exit']}"
        elif sha256(proc.stdout) != want["stdout_sha256"]:
            error = f"{key}: stdout differs from the recorded output"
        elif key in LITERAL and not _literal_ok(LITERAL[key], proc.stdout):
            error = f"{key}: not the paper's answer"
        return Outcome(start, latency, error is None, error, setup)


def _literal_ok(check, stdout):
    try:
        return check(json.loads(stdout))
    except (ValueError, KeyError, TypeError):
        return False


WORKLOADS = {w.name: w for w in (Scan(), Tables(), Cli())}
