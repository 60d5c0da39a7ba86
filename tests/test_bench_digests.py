"""The benchmark's recorded answers, replayed in-process.

`bench/expected.json` holds the sha256 of the stdout of every `tables`
operation (the bytes `crepant table KIND --n N --format F` prints) and the
exit code and stdout sha256 of every `cli` catalogue command.  Each one is
run here in-process (`tests/clirunner.py`), reading only that file, so a change
in the bytes shows up before a benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest
from clirunner import CliRunner

from crepant.cli import main

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "expected.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(EXPECTED["tables"]))
def test_tables_digest(key):
    kind, n, fmt = key.split("-")
    result = CliRunner().invoke(main, ["table", kind, "--n", n,
                                       "--format", fmt])
    assert result.exit_code == 0
    assert _sha256(result.stdout) == EXPECTED["tables"][key]


@pytest.mark.parametrize("key", sorted(EXPECTED["cli"]))
def test_cli_digest(key):
    want = EXPECTED["cli"][key]
    result = CliRunner().invoke(main, key.split())
    assert result.exit_code == want["exit"]
    assert _sha256(result.stdout) == want["stdout_sha256"]
