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

import hashlib
from pathlib import Path

import pytest
from clirunner import CliRunner

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


# sha256 of the `scan --n N --format json` output above the golden ranks,
# recorded before the transport check subtracted its two sides packed
SCAN_DIGESTS = {
    7: "b5b3fcfe988f7b02fdce99ec3de2d241e8a178a25a9550bf59eff3d7e16a1b28",
    8: "b758b6cfc1e0f536a2cec89d5381cbdf554e32b04517bc5a45317ab4a2f2ed6b",
    9: "a5fd694da974715ecd8373969e735e0ad8b261910e10b3f04b31d2bd37412d3f",
    10: "920c65aee622320473813e3972682f98e6df733fe2ee1374794db7c34a697453",
}


@pytest.mark.parametrize("n", sorted(SCAN_DIGESTS))
def test_higher_rank_scan_matches_its_digest(n):
    result = CliRunner().invoke(main, ["scan", "--n", str(n),
                                       "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == \
        SCAN_DIGESTS[n]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == code, (argv, result.output)
        (GOLDEN / name).write_bytes(result.stdout_bytes)
