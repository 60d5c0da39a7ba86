import json
from pathlib import Path

import pytest
from clirunner import CliRunner

from crepant.cli import MAX_MAP_DIGITS, main


@pytest.fixture()
def runner():
    return CliRunner()


def test_table_cr_rank_two_text(runner):
    result = runner.invoke(main, ["table", "cr", "--n", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["e1 . e1 = [1/3*L]*e2",
                                          "e1 . e2 = 1/3*S",
                                          "e2 . e2 = [1/3*M]*e1"]


def test_table_qc_rank_one_symbolic(runner):
    result = runner.invoke(main, ["table", "qc", "--n", "1"])
    assert result.exit_code == 0
    assert "(4*d11)*K" in result.output


def test_table_qc_pole_diagnostic(runner):
    result = runner.invoke(main, ["table", "qc", "--n", "2",
                                  "--q", "e:1/2,e:1/2"])
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["error"] == "pole" and (doc["mu"], doc["nu"]) == (1, 2)


def test_table_json_roundtrip_flag(runner):
    result = runner.invoke(main, ["table", "qc", "--n", "2",
                                  "--format", "json", "--check-roundtrip"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "quantum" and doc["n"] == 2


def test_table_rejects_float_q(runner):
    result = runner.invoke(main, ["table", "qc", "--n", "1",
                                  "--q", "0.5"])
    assert result.exit_code == 2


@pytest.mark.parametrize("literal,parsed", [
    ("e:1_0/3", False), ("e: 1/3", False), ("e:\u0661/3", False),
    ("e:1/+3", False), ("e:1/", False),
    ("e:-1/3", True), ("e:+1/3", True), ("e:1", True)])
def test_q_literals_take_ascii_digits_only(runner, literal, parsed):
    # int() reads each refused literal as e:1/3, e:10/3 or e:1/1
    result = runner.invoke(main, ["table", "qc", "--n", "1",
                                  "--q", literal])
    if parsed:  # e:1 is q = 1, a pole: exit 2 with the pole's JSON
        assert result.exit_code == (2 if literal == "e:1" else 0)
        assert result.stderr == "" and result.stdout
    else:
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"bad q literal {literal!r}" in result.stderr


@pytest.mark.parametrize("spec,code", [
    ("bgp: 1", 2), ("bgp:1_0", 2), ("bgp:\u0661", 2), ("bgp:1 ", 2),
    ("bgp:", 2), ("bgp:x", 2), ("bgp:+1", 0), ("bgp:-1", 1)])
def test_bgp_roots_take_ascii_digits_only(runner, spec, code):
    # int() reads the first four as bgp:1, bgp:10, bgp:1 and bgp:1
    result = runner.invoke(main, ["verify", "--n", "2", "--map", spec,
                                  "--q", "e:1/3,e:1/3"])
    assert result.exit_code == code
    if code != 2:   # a signed root is read: bgp:-1 is the root m = 2
        assert result.stderr == "" and result.stdout
    else:
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("Error:")]
        assert errors == [f"Error: bad map spec {spec!r}"]


@pytest.mark.parametrize("label", [
    "A_\u0661", "A_\u00b2", "D_\u0664", "E_\u0667"])
def test_group_ranks_take_ascii_digits_only(runner, label):
    # int() reads other scripts' digits, so A_ with an Arabic-Indic one ran
    # as A_1, and a superscript two exited with int()'s own message
    result = runner.invoke(main, ["mckay", "--group", label])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"Error: unknown ADE label {label!r}\n"


def test_a_round_trip_mismatch_is_a_failed_check(runner, monkeypatch):
    from crepant import ringtables

    monkeypatch.setattr(ringtables, "table_from_json",
                        lambda doc: ringtables.cr_table(2))
    result = runner.invoke(main, ["table", "qc", "--n", "2",
                                  "--format", "json", "--check-roundtrip"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "round-trip mismatch\n"


def test_output_determinism(runner):
    first = runner.invoke(main, ["table", "qc", "--n", "3",
                                 "--format", "json"])
    second = runner.invoke(main, ["table", "qc", "--n", "3",
                                  "--format", "json"])
    assert first.output == second.output


def test_verify_bgp_rank_two_passes(runner):
    result = runner.invoke(main, ["verify", "--n", "2", "--map", "bgp:1",
                                  "--q", "e:1/3,e:1/3"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_verify_chtd_fails(runner):
    result = runner.invoke(main, ["verify", "--n", "2", "--map", "chtd",
                                  "--q", "e:1/3,e:1/3"])
    assert result.exit_code == 1
    assert "FAIL" in result.output and "nonzero difference" in result.output


def test_verify_rank_one(runner):
    result = runner.invoke(main, ["verify", "--n", "1", "--map", "bgp:1",
                                  "--q", "e:1/2"])
    assert result.exit_code == 0


def test_verify_pole_exit(runner):
    result = runner.invoke(main, ["verify", "--n", "2", "--map", "bgp:1",
                                  "--q", "e:1/2,e:1/2"])
    assert result.exit_code == 2


def test_verify_map_from_file(runner, tmp_path):
    from crepant.maps import bgp_map

    path = tmp_path / "map.json"
    path.write_text(json.dumps(bgp_map(2, 1).to_json()))
    result = runner.invoke(main, ["verify", "--n", "2", "--map", str(path),
                                  "--q", "e:1/3,e:1/3"])
    assert result.exit_code == 0


def test_solve_rank_two_lists_both_tuples(runner):
    result = runner.invoke(main, ["solve", "--n", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert len(doc) == 2
    assert all(set(sol) == {"a", "b", "q1", "q2"} for sol in doc)


def test_solve_rank_one(runner):
    result = runner.invoke(main, ["solve", "--n", "1"])
    assert result.exit_code == 0
    assert result.output.count("at q = -1") == 2


def test_scan_rank_three_report(runner):
    result = runner.invoke(main, ["scan", "--n", "3", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [r["m_root"] for r in doc] == [1, 3]
    assert all(r["status"] in ("pass", "fail", "pole") for r in doc)


def test_mckay_compare_resolution(runner):
    result = runner.invoke(main, ["mckay", "--n", "4",
                                  "--compare-resolution"])
    assert result.exit_code == 0
    assert "match: yes" in result.output


@pytest.mark.parametrize("argv", [["--group", "A_3"], ["--group", "D_4"],
                                  ["--n", "3", "--full"]])
def test_mckay_compare_resolution_misuse_prints_no_graph(runner, argv):
    result = runner.invoke(main, ["mckay", *argv, "--compare-resolution"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert [line for line in result.stderr.splitlines()
            if line.startswith("Error:")] == [
        "Error: --compare-resolution needs --n without --full"]


def test_mckay_static_group(runner):
    result = runner.invoke(main, ["mckay", "--group", "E_7",
                                  "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["aut"] == "1" and len(doc["vertices"]) == 7


def test_mckay_requires_exactly_one_selector(runner):
    assert runner.invoke(main, ["mckay"]).exit_code == 2
    assert runner.invoke(main, ["mckay", "--n", "2", "--group",
                                "D_4"]).exit_code == 2


@pytest.mark.parametrize("label", ["A_3", "D_4", "E_7"])
def test_mckay_full_needs_a_rank(runner, monkeypatch, label):
    # the graphs of --group are reduced ones only, so --full was ignored
    _forbid_work(monkeypatch, "mckay --group --full did work")
    result = runner.invoke(main, ["mckay", "--group", label, "--full"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "Error: --full needs --n\n"


def test_no_arguments_lists_the_commands_and_is_a_usage_error(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == "Error: Missing command."
    for name in ("table", "verify", "solve", "scan", "mckay", "resolve"):
        assert f"\n  {name} " in result.stderr


def test_resolve_command(runner):
    result = runner.invoke(main, ["resolve", "--n", "5"])
    assert result.exit_code == 0
    assert "5 exceptional curves in 3 blow-up rounds" in result.output
    dot = runner.invoke(main, ["resolve", "--n", "3", "--format", "dot"])
    assert dot.output.startswith("graph resolution {")


def test_qc_table_evaluated_via_cli_matches_library(runner):
    from crepant.exactnum import root_of_unity
    from crepant.ringtables import table_from_json
    from crepant.tables import qc_eval, qc_table

    result = runner.invoke(main, ["table", "qc", "--n", "2",
                                  "--q", "e:1/3,e:1/3", "--format", "json"])
    assert result.exit_code == 0
    z3 = root_of_unity(3, 1).lift(12)
    expected = qc_eval(qc_table(2), [z3, z3])
    assert table_from_json(json.loads(result.output)) == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--map", "bgp:3", "--q", "e:1/3,e:1/3"],
    ["verify", "--n", "2", "--map", "bgp:0", "--q", "e:1/3,e:1/3"],
    ["mckay", "--group", "F_4"],
    ["mckay", "--group", "A_x"],
    ["verify", "--n", "0", "--map", "chtd", "--q", "e:1/2"],
], ids=["imprimitive-root", "zero-root", "unknown-group", "bad-group-rank",
        "rank-zero"])
def test_library_input_errors_are_one_line_usage_errors(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: ")


@pytest.mark.parametrize("rank,content", [
    (2, "{not json"), (3, None), (2, '{"n": 2}'), (2, "[1, 2]"),
    (1, '{"n": 1, "matrix": [["1"]]}'),
    (1, '{"n": 1, "matrix": [[{"conductor": 2305843009213693951, '
        '"coeffs": ["1"]}]]}'),
], ids=["not-json", "wrong-rank", "no-matrix", "not-an-object",
        "bare-coefficient", "huge-conductor"])
def test_malformed_map_file_is_a_usage_error(runner, tmp_path, rank,
                                             content):
    from crepant.maps import bgp_map

    path = tmp_path / "map.json"
    path.write_text(content or json.dumps(bgp_map(2, 1).to_json()))
    qspec = ",".join(["e:1/5"] * rank)
    result = runner.invoke(main, ["verify", "--n", str(rank), "--map",
                                  str(path), "--q", qspec])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: ")


@pytest.mark.parametrize("rank,entry", [
    (1, '{"conductor": 5, "coeffs": "1234"}'),
    (1, '{"conductor": 1, "coeffs": [2.5]}'),
    (1, '{"conductor": 8.0, "coeffs": ["1", "0", "0", "0"]}'),
    (1, '{"conductor": 1, "coeffs": [true]}'),
    (1, '{"conductor": 1, "coeffs": ["1/0"]}'),
    ("true", '{"conductor": 1, "coeffs": ["1"]}'),
    (1, "[" * 100000 + "]" * 100000),
], ids=["string-coeffs", "float-coordinate", "float-conductor",
        "bool-coordinate", "zero-denominator", "bool-rank", "deep-nesting"])
def test_mistyped_map_file_is_a_usage_error(runner, tmp_path, rank, entry):
    # each of these used to verify some other map, or crash with exit 1
    path = tmp_path / "map.json"
    path.write_text(f'{{"n": {rank}, "matrix": [[{entry}]]}}')
    result = runner.invoke(main, ["verify", "--n", "1", "--map", str(path),
                                  "--q", "e:1/2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: ")


def test_qpoint_field_degree_is_bounded(runner):
    from crepant.cli import MAX_QPOINT_PHI

    assert MAX_QPOINT_PHI >= 96
    # conductor lcm(8, 2003) = 16024, phi = 8008: rejected before any work
    result = runner.invoke(main, ["table", "qc", "--n", "1",
                                  "--q", "e:1/2003"])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert f"phi <= {MAX_QPOINT_PHI}" in result.stderr
    huge = runner.invoke(main, ["table", "qc", "--n", "1",
                                "--q", f"e:1/{10 ** 30 + 57}"])
    assert huge.exit_code == 2
    # conductor 420, phi = 96: still computed
    ok = runner.invoke(main, ["verify", "--n", "2", "--map", "bgp:1",
                              "--q", "e:1/5,e:1/7"])
    assert ok.exit_code == 1 and "FAIL" in ok.stdout
    assert f"phi(N) <= {MAX_QPOINT_PHI}" in runner.invoke(
        main, ["table", "--help"]).output


def test_wrong_rank_map_is_refused_before_evaluation(runner, tmp_path,
                                                     monkeypatch):
    from crepant import tables
    from crepant.maps import bgp_map

    def no_eval(*args):
        raise AssertionError("qc_eval called for a map of the wrong rank")

    monkeypatch.setattr(tables, "qc_eval", no_eval)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(bgp_map(2, 1).to_json()))
    result = runner.invoke(main, ["verify", "--n", "3", "--map", str(path),
                                  "--q", "e:1/5,e:1/5,e:1/5"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "Error: ranks differ: map 2, source 3, target 3\n"


RANKED_COMMANDS = [
    ("table", "MAX_TABLE_RANK", ["table", "qc", "--q", "e:1/3"]),
    ("verify", "MAX_VERIFY_RANK", ["verify", "--map", "bgp:1", "--q", "e:1/3"]),
    ("mckay", "MAX_MCKAY_RANK", ["mckay", "--compare-resolution"]),
    ("resolve", "MAX_RESOLVE_RANK", ["resolve"]),
    ("scan", "MAX_SCAN_RANK", ["scan"]),
]
RANKED_IDS = [command for command, _, _ in RANKED_COMMANDS]


def _forbid_work(monkeypatch, message):
    """Make every function that does a command's work raise, patched in the
    module that defines it: each command imports it from there when run."""
    from crepant import cli, isocheck, maps, mckay, resolve, tables

    def no_work(*args, **kwargs):
        raise AssertionError(message)

    for module, names in (
            (tables, ("cr_table", "cup_table", "qc_table", "qc_eval")),
            (maps, ("bgp_map", "chtd_map")),
            (mckay, ("an_mckay", "ade_resolution_graph")),
            (resolve, ("resolve_an",)), (isocheck, ("conjecture_scan",)),
            (cli, ("_parse_qpoint",))):
        for name in names:
            monkeypatch.setattr(module, name, no_work)


@pytest.mark.parametrize("command, cap, argv", RANKED_COMMANDS,
                         ids=RANKED_IDS)
def test_rank_above_the_cap_is_refused_before_any_work(runner, monkeypatch,
                                                       command, cap, argv):
    import crepant.cli as cli

    _forbid_work(monkeypatch, f"{command} did work above the rank cap")
    limit = getattr(cli, cap)
    assert limit >= 12  # the benchmark catalogue goes up to rank 9
    result = runner.invoke(main, [*argv, "--n", str(limit + 1)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"Error: {command} --n {limit + 1} exceeds the "
                             f"limit n <= {limit}\n")
    assert f"1 <= n <= {limit}" in runner.invoke(
        main, [command, "--help"]).output


@pytest.mark.parametrize("rank", ["0", "-1"])
@pytest.mark.parametrize("command, cap, argv", RANKED_COMMANDS,
                         ids=RANKED_IDS)
def test_rank_below_one_is_refused_before_any_work(runner, monkeypatch,
                                                   command, cap, argv, rank):
    _forbid_work(monkeypatch, f"{command} did work at rank {rank}")
    result = runner.invoke(main, [*argv, "--n", rank])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"Error: {command} --n must be >= 1, got {rank}\n"


@pytest.mark.parametrize("kind", ["A", "D"])
def test_a_group_rank_above_the_mckay_cap_is_refused_before_any_work(
        runner, monkeypatch, kind):
    import crepant.cli as cli

    limit = cli.MAX_MCKAY_RANK
    assert runner.invoke(main, ["mckay", "--group", f"D_{limit}"]
                         ).exit_code == 0
    _forbid_work(monkeypatch, f"mckay --group {kind}_n did work above the "
                 "rank cap")
    result = runner.invoke(main, ["mckay", "--group", f"{kind}_{limit + 1}"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"Error: mckay --group {kind}_n {limit + 1} "
                             f"exceeds the limit n <= {limit}\n")
    help_text = runner.invoke(main, ["mckay", "--help"]).output
    assert f"A_n and D_n need n <= {limit}" in " ".join(help_text.split())


def _diagonal_map_file(tmp_path, conductors):
    """A map file whose diagonal entry l is zeta_N, N = conductors[l]."""
    from crepant.exactnum import Cyclotomic, root_of_unity

    zero = Cyclotomic.zero(1).to_json()
    matrix = [[root_of_unity(c, 1).to_json() if l == m else zero
               for m in range(len(conductors))]
              for l, c in enumerate(conductors)]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": len(conductors), "matrix": matrix}))
    return str(path)


@pytest.mark.parametrize("conductors, q, field", [
    ([1009], "e:1/2", 8072),          # phi = 4032
    ([5, 11], "e:1/3,e:1/3", 660),    # phi = 160, each entry alone is fine
], ids=["zeta-1009", "mixed"])
def test_map_file_field_degree_is_bounded(runner, tmp_path, monkeypatch,
                                          conductors, q, field):
    import crepant.cli as cli
    from crepant import tables

    def no_build(*args):
        raise AssertionError("a table was built for a map past the bound")

    for name in ("cr_table", "qc_table", "qc_eval"):
        monkeypatch.setattr(tables, name, no_build)
    result = runner.invoke(main, ["verify", "--n", str(len(conductors)),
                                  "--map", _diagonal_map_file(tmp_path,
                                                              conductors),
                                  "--q", q])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"Error: q-point {q!r} with this map needs Q(zeta_{field}), whose "
        f"degree exceeds the limit phi <= {cli.MAX_QPOINT_PHI}\n")
    help_text = " ".join(runner.invoke(main, ["verify", "--help"]).output
                         .split())
    assert "every map entry must have degree phi(N) <= " \
        f"{cli.MAX_QPOINT_PHI}" in help_text


def test_mixed_map_file_within_the_field_bound_verifies(runner, tmp_path):
    from crepant.exactnum import root_of_unity
    from crepant.maps import LinearMap
    from crepant.tables import qc_eval, qc_table
    from crepant.transport import transport_check

    # lcm(12, 3, 5, 7) = 420, phi = 96
    path = _diagonal_map_file(tmp_path, [5, 7])
    result = runner.invoke(main, ["verify", "--n", "2", "--map", path,
                                  "--q", "e:1/3,e:1/3", "--format", "json"])
    lmap = LinearMap.from_json(json.loads(Path(path).read_text()))
    z3 = root_of_unity(3, 1).lift(12)
    report = transport_check(lmap, qc_eval(qc_table(2), [z3, z3]))
    assert result.exit_code == (0 if report.passed else 1)
    assert json.loads(result.stdout) == report.to_json()


def _one_entry_map_file(tmp_path, coordinate):
    """A rank-1 map file whose one entry has the JSON text `coordinate` as
    its coordinate."""
    path = tmp_path / "map.json"
    path.write_text('{"n": 1, "matrix": [[{"conductor": 1, "coeffs": ['
                    + coordinate + "]}]]}")
    return str(path)


@pytest.mark.parametrize("coordinate, width", [
    ('"' + "7" * 4000 + '"', 4000),
    ('"' + "7" * 5000 + '"', 5000),
    ("7" * 4000, 4000),
    ("-" + "7" * 5000, 5000),
    ('"-1/' + "3" * 4000 + '"', 4000),
    ('"-' + "0" * 4000 + '1"', 4001),
    ("1" + "0" * MAX_MAP_DIGITS, MAX_MAP_DIGITS + 1),
], ids=["4000-digits", "5000-digits", "4000-digit-json-int",
        "5000-digit-json-int", "4000-digit-denominator",
        "4001-digits-with-leading-zeros", "26-digit-json-int"])
def test_a_map_coordinate_above_the_digit_cap_is_refused_before_any_work(
        runner, tmp_path, monkeypatch, coordinate, width):
    import crepant.cli as cli

    _forbid_work(monkeypatch, "verify did work for a map past the digit cap")
    path = _one_entry_map_file(tmp_path, coordinate)
    result = runner.invoke(main, ["verify", "--n", "1", "--map", path,
                                  "--q", "e:1/2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"Error: map file {path!r}: entry matrix[0][0] has a coordinate of "
        f"{width} digits, above the limit of {cli.MAX_MAP_DIGITS} digits per "
        "numerator or denominator\n")
    help_text = " ".join(runner.invoke(main, ["verify", "--help"]).output
                         .split())
    assert f"at most {cli.MAX_MAP_DIGITS} digits" in help_text


@pytest.mark.parametrize("content, field", [
    ('{"n": ' + "1" * 5000 + ', "matrix": [[{"conductor": 1, '
     '"coeffs": ["1"]}]]}', '"n" is an integer'),
    ('{"n": 1, "matrix": [[{"conductor": ' + "1" * 5000
     + ', "coeffs": ["1"]}]]}', "entry matrix[0][0] has a conductor"),
], ids=["5000-digit-rank", "5000-digit-conductor"])
def test_a_map_integer_too_long_to_read_is_named_with_its_digits(
        runner, tmp_path, monkeypatch, content, field):
    _forbid_work(monkeypatch, "verify did work for an unreadable map")
    path = tmp_path / "map.json"
    path.write_text(content)
    result = runner.invoke(main, ["verify", "--n", "1", "--map", str(path),
                                  "--q", "e:1/2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"Error: map file {str(path)!r}: {field} of "
                             "5000 digits, too long to read\n")


@pytest.mark.parametrize("quote", ['"', ""], ids=["string", "json-int"])
def test_a_map_coordinate_at_the_digit_cap_verifies(runner, tmp_path,
                                                    quote):
    from crepant.exactnum import Cyclotomic
    from crepant.maps import LinearMap

    wide = "9" * MAX_MAP_DIGITS
    coordinate = (f'"-{wide}/{wide[:-1]}8"' if quote
                  else f"-{wide}")
    path = _one_entry_map_file(tmp_path, coordinate)
    result = runner.invoke(main, ["verify", "--n", "1", "--map", path,
                                  "--q", "e:1/2"])
    value = Cyclotomic.from_json(json.loads(Path(path).read_text())
                                 ["matrix"][0][0])
    canonical = tmp_path / "canonical.json"
    canonical.write_text(json.dumps(LinearMap(1, ((value,),)).to_json()))
    expected = runner.invoke(main, ["verify", "--n", "1", "--map",
                                    str(canonical), "--q", "e:1/2"])
    assert result.exit_code == 1
    assert (result.stdout, result.stderr) == (expected.stdout, "")


def test_the_widest_rank_12_map_verifies_and_prints(runner, tmp_path):
    import random
    from fractions import Fraction

    from crepant.maps import LinearMap, bgp_map

    # bgp:1 with each entry times a distinct rational whose numerator and
    # denominator have MAX_MAP_DIGITS digits (bgp:1's coordinates are at
    # most 2, so numerators stay within the cap)
    rng = random.Random(12)
    low = 10 ** (MAX_MAP_DIGITS - 1)
    scales = set()
    while len(scales) < 144:
        scale = Fraction(rng.randrange(low, 10 * low // 4),
                         rng.randrange(low, 10 * low))
        if scale.denominator >= low and scale.numerator >= low:
            scales.add(scale)
    scales = iter(scales)
    lmap = LinearMap(12, tuple(tuple(c * next(scales) for c in row)
                               for row in bgp_map(12, 1).matrix))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(lmap.to_json()))
    assert max(len(part.lstrip("-")) for row in lmap.to_json()["matrix"]
               for entry in row for c in entry["coeffs"]
               for part in c.split("/")) == MAX_MAP_DIGITS
    result = runner.invoke(main, ["verify", "--n", "12", "--map", str(path),
                                  "--q", ",".join(["e:1/13"] * 12)])
    assert result.exit_code == 1
    assert result.stderr == ""
    assert result.stdout.startswith("transport check (n=12): FAIL\n")
