"""Record the expected outputs the benchmark checks against.

    python3 bench/record.py

Writes bench/expected.json from the program in src/: the sha256 of the JSON
of every `scan` operation, of every `tables` emission, and the exit code and
stdout sha256 of every `cli` catalogue command.  Each digest is of the bytes
the `crepant` command line prints, which the recorder confirms for a sample
of operations.  It refuses to record when an answer the paper states
(paper.py) comes out differently, so re-recording cannot bless a wrong one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import paper  # noqa: E402
import workloads as w  # noqa: E402
from crepant import isocheck  # noqa: E402


def crepant_stdout(args):
    proc = w.spawn("crepant.cli", args)[0]
    return proc.returncode, proc.stdout


def record():
    scan, tables, cli = {}, {}, {}
    for n in w.SCAN_RANKS:
        results = isocheck.conjecture_scan(n)
        if not paper.check_scan(n, [r.status for r in results]):
            raise SystemExit(f"scan n={n} contradicts the paper; not recorded")
        text = w.Scan().text(results)
        if n <= 3 and crepant_stdout(
                ["scan", "--n", str(n), "--format", "json"]) != (0, text):
            raise SystemExit(f"scan n={n}: differs from the command line")
        scan[str(n)] = w.sha256(text)
    for op in w.TABLE_OPS:
        table, text, back = w.Tables().build_and_emit(op)
        if back is not None and back != table:
            raise SystemExit(f"table {op}: JSON round trip differs")
        kind, n, fmt = op
        if n <= 3 and crepant_stdout(
                ["table", kind, "--n", str(n), "--format", fmt]) \
                != (0, text + "\n"):
            raise SystemExit(f"table {op}: differs from the command line")
        tables[w.Tables.key(op)] = w.sha256(text + "\n")
    for args in w.CATALOGUE:
        key = " ".join(args)
        code, stdout = crepant_stdout(args)
        if code not in (0, 1, 2):
            raise SystemExit(f"{key}: exit {code}")
        if key in w.LITERAL and not w.LITERAL[key](json.loads(stdout)):
            raise SystemExit(f"{key}: not the paper's answer; not recorded")
        cli[key] = {"exit": code, "stdout_sha256": w.sha256(stdout)}
    return {"scan": scan, "tables": tables, "cli": cli}


if __name__ == "__main__":
    w.EXPECTED.write_text(json.dumps(record(), indent=1, sort_keys=True)
                          + "\n")
    print(f"wrote {w.EXPECTED}")
