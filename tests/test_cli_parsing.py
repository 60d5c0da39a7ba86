"""How the `crepant` command line is read: which argv runs, which prints
help and which is a usage error, pinned case by case.

A command that runs is pinned by its exit code and its stdout.  `--help`
exits 0 wherever it is read as the flag, before the other options are
checked; the layout of the help text is free.  A usage error exits 2, writes
nothing to stdout, and ends stderr with one "Error: ..." line.
"""

import pytest
from clirunner import CliRunner

from crepant.cli import main

Q3 = ["--q", "e:1/3,e:1/3"]
VERIFY_2 = ("transport check (n=2): PASS\n"
            "  (1,1): ok\n  (1,2): ok\n  (2,2): ok\n")
SCAN_10_FAIL = ",".join(f"({i},{j})" for i in range(1, 11)
                        for j in range(i, 11))
SCAN_10 = ("m_root=1: pass\n"
           + "".join(f"m_root={m}: fail at entries {SCAN_10_FAIL}\n"
                     for m in range(2, 10))
           + "m_root=10: pass\n")

RUNS = [
    (["verify", "--n=2", "--map=bgp:1", "--q=e:1/3,e:1/3"], VERIFY_2),
    (["verify", "--n", "3", "--n", "2", "--map", "bgp:1", *Q3], VERIFY_2),
    (["table", "--n", "2", "cr"], "e1 . e1 = [1/3*L]*e2\ne1 . e2 = 1/3*S\n"
                                  "e2 . e2 = [1/3*M]*e1\n"),
    (["resolve", "--n", "2", "--"], "A_2: 2 exceptional curves in 1 blow-up "
                                    "rounds\n  chain: C1x -- C1y\n"),
    (["scan", "--n", " 2"], "m_root=1: pass\nm_root=2: pass\n"),
    (["scan", "--n", "1_0"], SCAN_10),
]

HELP = [["--help"], ["--help", "bogus"], ["table", "--help", "cr"],
        ["scan", "--n", "x", "--help"], ["scan", "--help", "--format", "yaml"],
        *([command, "--help"] for command in
          ("table", "verify", "solve", "scan", "mckay", "resolve"))]

USAGE_ERRORS = [
    ["bogus"], ["bogus", "--help"], ["-h"], ["verify", "-h"],
    ["verify", "--n", "2", "--map", "bgp:1", *Q3, "--form", "json"],
    ["verify", "--n", "x", "--map", "bgp:1", *Q3],
    ["verify", "--n", "2", "--map", "--help", *Q3],
    ["verify", "--n", "2", "--map", "-x", *Q3],
    ["verify", "--map", "bgp:1", *Q3],
    ["table", "xx", "--n", "2"], ["table", "cr", "--n", "2", "extra"],
    ["scan", "--n", "2", "--format", "yaml"], ["solve", "--n", "3"],
    ["mckay"],
]

# usage errors pinned with their whole message: the q-point of a table
USAGE_MESSAGES = [
    (["table", "qc", "--n", "2", "--q", "e:1/3"],
     "Error: expected 2 q-values, got 1\n"),
    (["table", "qc", "--n", "1", "--q", "e:1/0"],
     "Error: bad q literal 'e:1/0': k must be >= 1\n"),
    (["table", "cr", "--n", "2", "--q", "e:1/3"],
     "Error: --q only applies to the qc table\n"),
]


def _ids(cases):
    return [" ".join(argv) or "(none)" for argv in cases]


@pytest.mark.parametrize("argv, stdout", RUNS,
                         ids=_ids(argv for argv, _ in RUNS))
def test_a_command_that_runs(argv, stdout):
    result = CliRunner().invoke(main, argv)
    assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")


@pytest.mark.parametrize("argv", HELP, ids=_ids(HELP))
def test_help_is_read_before_the_other_options(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0
    assert result.stdout and result.stderr == ""


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=_ids(USAGE_ERRORS))
def test_a_usage_error(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("argv, stderr", USAGE_MESSAGES,
                         ids=_ids(argv for argv, _ in USAGE_MESSAGES))
def test_a_usage_error_and_its_message(argv, stderr):
    result = CliRunner().invoke(main, argv)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)


def test_a_rank_below_one_names_itself():
    result = CliRunner().invoke(main, ["verify", "--n", "-1", "--map",
                                       "bgp:1", *Q3])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "Error: verify --n must be >= 1, got -1\n"


def test_no_arguments_is_a_usage_error():
    result = CliRunner().invoke(main, [])
    assert result.exit_code == 2
    assert result.stdout == ""
