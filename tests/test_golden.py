"""Byte-for-byte comparison of CLI output against frozen golden files.

The files under tests/golden/ hold the exact stdout of each command below,
captured from the `Fraction`-coordinate implementation of `exactnum` before
the integer rewrite (the `verify` files at n = 3 and 4 from the code before
the coefficient arithmetic moved into `coeffring`, the `table qc --n 12`
files from the code before `qc_table` used the closed-form pairing).  Any
change to the arithmetic core, the table builders or the emitters must
reproduce them exactly.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from crepant.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXT = {"json": "json", "text": "txt", "latex": "tex"}


def _cases():
    """(file name, argv, expected exit code) of every golden command."""
    cases = []
    for kind in ("cr", "cup", "qc"):
        for n in range(1, 6):
            for fmt in ("json", "text", "latex"):
                cases.append((f"table-{kind}-n{n}.{EXT[fmt]}",
                              ["table", kind, "--n", str(n), "--format", fmt],
                              0))
    for fmt in ("text", "latex"):
        cases.append((f"table-qc-n12.{EXT[fmt]}",
                      ["table", "qc", "--n", "12", "--format", fmt], 0))
    for n in range(1, 7):
        cases.append((f"scan-n{n}.json",
                      ["scan", "--n", str(n), "--format", "json"], 0))
    for n in ("1", "2"):
        cases.append((f"solve-n{n}.json",
                      ["solve", "--n", n, "--format", "json"], 0))
    verify = [(2, "pass", "bgp:1", "e:1/3", 0),
              (2, "fail", "chtd", "e:1/3", 1),
              (2, "pole", "bgp:1", "e:1/2", 2),
              (3, "pass", "bgp:1", "e:1/4", 0),
              (3, "fail", "chtd", "e:1/4", 1),
              (4, "pass", "bgp:1", "e:1/5", 0),
              (4, "fail", "chtd", "e:1/5", 1),
              (4, "fail-bgp2", "bgp:2", "e:2/5", 1)]
    for n, label, lmap, q, code in verify:
        cases.append((f"verify-n{n}-{label}.json",
                      ["verify", "--n", str(n), "--map", lmap,
                       "--q", ",".join([q] * n), "--format", "json"], code))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,argv,code", CASES,
                         ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(name, argv, code):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == code, result.output
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == code, (argv, result.output)
        (GOLDEN / name).write_bytes(result.stdout_bytes)
