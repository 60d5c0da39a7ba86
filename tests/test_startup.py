"""A `crepant` command loads only the modules it runs.

Every `crepant` command starts a fresh interpreter, so what it imports is
paid on every command, and with no bytecode written beforehand each module
is compiled from source.  The value classes are plain slotted records, not
dataclasses, and the command line is read with `argparse`, not click, so
neither `import crepant` nor `import crepant.cli` loads `dataclasses`,
`inspect` (with `ast`, `dis` and `tokenize` behind it) or click.
`import crepant` loads no submodule (each public name is imported on first
use), `import crepant.cli` loads no library module and not `json`, and each
command imports only what it uses.  The modules are cut along the commands:
`verify` loads the tables, the maps and the check, but not the solvers and
the scan, the emitters or the McKay graphs.
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

# Runs `code`, then writes the modules loaded before and after it as the
# last two lines of stderr.  It imports nothing itself, so `json` is loaded
# only if the interpreter or `code` loads it.
MODULES_PROBE = """
import sys
sys.path.insert(0, {src!r})
start = " ".join(sorted(sys.modules))
{code}
sys.stderr.write(start + "\\n" + " ".join(sorted(sys.modules)) + "\\n")
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


def modules_after(code):
    """The modules a fresh interpreter has loaded after running `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE.format(src=str(SRC), code=code)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    start, after = (set(line.split())
                    for line in proc.stderr.splitlines()[-2:])
    if "json" in start:
        pytest.skip("the interpreter loads json before any import")
    return after


def command_modules(args):
    """The modules loaded by the `crepant` command `args`, which must
    succeed."""
    return modules_after(f"""\
from crepant.cli import main
try:
    main({args.split()!r})
except SystemExit as exc:
    assert exc.code == 0, exc.code""")


def test_import_crepant_loads_neither_dataclasses_nor_inspect(loaded):
    assert not loaded["crepant"]["dataclasses"]
    assert not loaded["crepant"]["inspect"]


def test_import_crepant_cli_does_not_load_dataclasses(loaded):
    assert loaded["crepant.cli"]["dataclasses"] is False


def test_import_crepant_cli_loads_neither_click_nor_inspect(loaded):
    assert loaded["crepant.cli"] == dict.fromkeys(WATCHED, False)


def test_import_crepant_loads_no_submodule():
    assert {m for m in modules_after("import crepant")
            if m.startswith("crepant")} == {"crepant"}


def test_import_crepant_cli_loads_no_library_module_and_not_json():
    after = modules_after("import crepant.cli")
    assert {m for m in after if m.startswith("crepant")} == {
        "crepant", "crepant.cli"}
    assert "json" not in after


def test_resolve_loads_no_field_arithmetic():
    after = command_modules("resolve --n 3")
    assert "crepant.resolve" in after
    assert "crepant.exactnum" not in after


def test_verify_as_text_loads_neither_resolve_linalg_nor_json():
    after = command_modules("verify --n 2 --map bgp:1 --q e:1/3,e:1/3")
    assert "crepant.transport" in after
    assert not {"crepant.resolve", "crepant.linalg", "json"} & after


def test_solve_loads_the_modules_it_runs_and_no_other():
    after = command_modules("solve --n 2")
    assert {m for m in after if m.startswith("crepant")} == {
        "crepant", "crepant.cli", "crepant.coeffring", "crepant.corrections",
        "crepant.exactnum", "crepant.isocheck", "crepant.maps",
        "crepant.record", "crepant.tables", "crepant.transport"}


def test_table_loads_neither_isocheck_nor_mckay():
    after = command_modules("table qc --n 2")
    assert {"crepant.tables", "crepant.ringtables"} <= after
    assert not {"crepant.isocheck", "crepant.mckay", "crepant.transport",
                "crepant.maps"} & after


VERIFY = "verify --n 2 --map bgp:1 --q e:1/3,e:1/3 --format "
# the field arithmetic, the records, the tables, the maps and the check
CHECK_MODULES = {"crepant", "crepant.cli", "crepant.coeffring",
                 "crepant.corrections", "crepant.exactnum", "crepant.record",
                 "crepant.tables", "crepant.maps", "crepant.transport"}


@pytest.mark.parametrize("args, modules", [
    (VERIFY + "text", CHECK_MODULES),
    (VERIFY + "json", CHECK_MODULES),
    ("table qc --n 2", {"crepant", "crepant.cli", "crepant.coeffring",
                        "crepant.corrections", "crepant.exactnum",
                        "crepant.record", "crepant.tables",
                        "crepant.ringtables"}),
    ("mckay --n 3", {"crepant", "crepant.cli", "crepant.exactnum",
                     "crepant.record", "crepant.mckay"}),
], ids=["verify-text", "verify-json", "table", "mckay"])
def test_a_command_loads_exactly_the_modules_it_runs(args, modules):
    after = command_modules(args)
    assert {m for m in after if m.startswith("crepant")} == modules


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_loads_neither_the_solvers_the_scan_the_emitters_nor_graphs(
        fmt):
    import crepant
    from crepant import ringtables

    homes = {crepant.solve_a2.__module__, crepant.conjecture_scan.__module__,
             ringtables.table_to_latex.__module__,
             crepant.an_mckay.__module__}
    assert homes == {"crepant.isocheck", "crepant.ringtables",
                     "crepant.mckay"}
    assert not homes & command_modules(VERIFY + fmt)


# The public names of `crepant`, as the package listed them when it imported
# every module eagerly.
PUBLIC = [
    "BaseScalar", "ChartSurface", "CorrectionFunction",
    "Cyclotomic", "DeltaIndex", "ExcClass", "InvalidRoot", "LinearMap",
    "McKayGraph", "NotSingular", "PoleError", "ProductTable",
    "RankMismatch", "ResolutionGraph", "TransportReport",
    "ade_resolution_graph", "an_mckay", "aut_gamma", "beta_pairing",
    "bgp_map", "blowup_step", "branch_sqrt", "chtd_map",
    "conjecture_scan", "cr_table", "cup_table", "cyclotomic_polynomial",
    "delta_eval", "imaginary_unit", "qc_eval", "qc_table", "resolve_an",
    "root_of_unity", "solve_a1", "solve_a2", "sqrt_rational",
    "transport_check",
]


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_the_one_its_module_defines(name):
    import importlib

    import crepant

    value = getattr(crepant, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert value.__module__.startswith("crepant.")


def test_the_public_names_are_those_of_the_eager_package():
    import crepant

    assert crepant.__all__ == PUBLIC
    assert dir(crepant) == PUBLIC


def test_a_star_import_binds_every_public_name():
    import crepant

    namespace = {}
    exec("from crepant import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(crepant, name) for name in PUBLIC}


def test_an_unknown_name_raises_the_standard_attribute_error():
    import crepant

    with pytest.raises(AttributeError) as info:
        crepant.no_such_name
    assert str(info.value) == (
        "module 'crepant' has no attribute 'no_such_name'")
    assert not hasattr(crepant, "no_such_name")


def test_a_value_built_through_the_package_pickles_and_copies():
    import copy
    import pickle

    import crepant

    table = crepant.cr_table(2)
    assert pickle.loads(pickle.dumps(table)) == table
    assert copy.deepcopy(table) == table
    assert pickle.loads(pickle.dumps(crepant.ProductTable)) \
        is crepant.ProductTable
