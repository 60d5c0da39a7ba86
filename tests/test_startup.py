"""Importing crepant loads no module that only code generation needs.

Every `crepant` command starts a fresh interpreter, so what the package
imports is paid on every command.  The value classes are plain slotted
records, not dataclasses, and the command line is read with `argparse`, not
click, so neither `import crepant` nor `import crepant.cli` loads
`dataclasses`, `inspect` (with `ast`, `dis` and `tokenize` behind it) or
click.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("click", "dataclasses", "inspect")

PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
loaded = lambda: {{name: name in sys.modules for name in {WATCHED!r}}}
seen = {{"start": loaded()}}
import crepant
seen["crepant"] = loaded()
import crepant.cli
seen["crepant.cli"] = loaded()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def loaded():
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True).stdout
    seen = json.loads(out)
    for name, present in seen["start"].items():
        if present:
            pytest.skip(f"the interpreter loads {name} before any import")
    return seen


def test_import_crepant_loads_neither_dataclasses_nor_inspect(loaded):
    assert not loaded["crepant"]["dataclasses"]
    assert not loaded["crepant"]["inspect"]


def test_import_crepant_cli_does_not_load_dataclasses(loaded):
    assert loaded["crepant.cli"]["dataclasses"] is False


def test_import_crepant_cli_loads_neither_click_nor_inspect(loaded):
    assert loaded["crepant.cli"] == dict.fromkeys(WATCHED, False)
