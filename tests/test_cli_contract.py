"""The exit-code contract of the `crepant` command, on generated input.

Whatever the argv and the map file hold, the command must end without a
traceback, with exit code 0 (success), 1 (a transport verdict: the map fails)
or 2 (usage error, refused input or pole), and exit 1 only after printing
the verdict.  Ranks that reach real work stay <= 3; larger ones are
generated only far above the caps, where they are refused at once.
"""

import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from clirunner import CliRunner  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crepant.cli import main  # noqa: E402
from crepant.exactnum import euler_phi  # noqa: E402

HUGE = [10 ** 30, -10 ** 30, 2 ** 63]

RANK = st.one_of(st.integers(-1, 3).map(str),
                 st.sampled_from(["0", "x", "1.5", "", "1e3", "0x2",
                                  *map(str, HUGE)]))

Q_TOKEN = st.one_of(
    st.builds("e:{}/{}".format, st.integers(-3, 7), st.integers(-1, 13)),
    st.sampled_from(["e:", "e:1/", "e:/2", "e:a/b", "0.5", "-1", "e:1/0",
                     "e:1.5/2", "", "e:1/2003", f"e:1/{10 ** 30 + 57}",
                     "e:1/2/3", "E:1/2", f"e:{10 ** 30}/3"]))
QPOINT = st.lists(Q_TOKEN, max_size=4).map(",".join)


def _roots(k):
    """k well-formed literals; at q = (zeta, ..., zeta), zeta = e:1/(k+1),
    the map bgp:1 passes."""
    return st.one_of(
        st.just(",".join([f"e:1/{k + 1}"] * k)),
        st.lists(st.builds("e:{}/{}".format, st.integers(-3, 7),
                           st.integers(1, 8)),
                 min_size=k, max_size=k).map(",".join))


# JSON values a map file may hold: well-formed Q(zeta_N) entries and junk
SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(HUGE),
    st.floats(),
    st.sampled_from(["1/2", "-3/4", "1/0", "2.5", "1e3", "abc", "", "1/-2",
                     " 1", "1" * 5000]))


def _entry(c):
    return st.lists(st.integers(-2, 2), min_size=euler_phi(c),
                    max_size=euler_phi(c)).map(
        lambda v: {"conductor": c, "coeffs": v})


VALID_ENTRY = st.sampled_from([1, 2, 3, 4, 5, 8, 12]).flatmap(_entry)
ENTRY = st.one_of(
    VALID_ENTRY,
    st.fixed_dictionaries({"conductor": st.one_of(st.integers(-1, 13),
                                                  SCALAR),
                           "coeffs": st.one_of(st.lists(SCALAR, max_size=5),
                                               SCALAR)}))
JSON = st.recursive(
    st.one_of(SCALAR, ENTRY),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["n", "matrix", "conductor",
                                         "coeffs"]), kids, max_size=3)),
    max_leaves=8)
MATRIX = st.one_of(
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.one_of(ENTRY, JSON), min_size=k, max_size=k),
        min_size=k, max_size=k)),
    JSON)


def _map_doc(k):
    """Well-formed rank-k map files: entries of mixed conductors, or all of
    one conductor, a multiple of the 4(k+1) every q-point of `_roots(k)` is
    lifted to, so that `verify` runs the packed transport check whenever
    the q-point's field lies in the map's."""
    def matrix(entry):
        return st.lists(st.lists(entry, min_size=k, max_size=k),
                        min_size=k, max_size=k)
    single = st.sampled_from([4, 8, 24]).flatmap(
        lambda c: matrix(_entry(c * (k + 1))))
    return st.fixed_dictionaries({
        "n": st.just(k), "matrix": st.one_of(matrix(VALID_ENTRY), single)})


MAP_DOC = st.one_of(
    st.integers(1, 3).flatmap(_map_doc),
    st.fixed_dictionaries({"n": st.one_of(st.integers(-1, 3), SCALAR),
                           "matrix": MATRIX}),
    JSON)
RAW_BYTES = st.sampled_from([b"", b"{", b"not json", b"\xff\xfe",
                             b"[" * 100000, b"[" * 5000 + b"]" * 5000])
MAP_BYTES = st.one_of(MAP_DOC.map(lambda doc: json.dumps(doc).encode()),
                      RAW_BYTES)
MAP_SPEC = st.sampled_from(["chtd", "bgp:1", "bgp:2", "bgp:0", "bgp:-1",
                            "bgp:x", "bgp:", f"bgp:{10 ** 30}", "missing.json",
                            "FILE", "FILE", "FILE"])
FORMAT = st.one_of(st.just([]), st.sampled_from(
    ["json", "text", "latex", "dot", "xml"]).map(lambda f: ["--format", f]))
FLAG = st.sampled_from([[], [], ["--full"], ["--compare-resolution"],
                        ["--check-roundtrip"], ["--help"]])


def _command(name, *parts):
    return st.tuples(*parts).map(
        lambda t: [name, *(a for part in t for a in part)])


def _opt(flag, values, omit=True):
    opt = values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), opt) if omit else opt


ARGV = st.one_of(
    _command("table", st.sampled_from(["cr", "cup", "qc", "xx"]).map(
        lambda k: [k]), _opt("--n", RANK), _opt("--q", QPOINT), FORMAT, FLAG),
    _command("verify", _opt("--n", RANK), _opt("--map", MAP_SPEC),
             _opt("--q", QPOINT), FORMAT),
    _command("scan", _opt("--n", RANK), FORMAT),
    _command("mckay", _opt("--n", RANK),
             _opt("--group", st.sampled_from(["A_2", "D_4", "D_3", "E_7",
                                              "E_9", "Z_1", "A_x", "E_"])),
             FLAG, FORMAT),
    _command("resolve", _opt("--n", RANK), FORMAT),
    _command("solve", _opt("--n", st.sampled_from(["1", "2", "3", "x"])),
             FORMAT),
    st.lists(st.sampled_from(["table", "bogus", "--n", "1", "--q", "e:1/2",
                              "--help", "--format", "json", "-x"]),
             max_size=6))


# a verify call that reaches the transport check, unless the map is refused
VERIFY = st.integers(1, 3).flatmap(lambda k: st.tuples(
    _command("verify", st.just(["--n", str(k)]),
             _opt("--map", st.sampled_from(["chtd", "bgp:1", "FILE", "FILE"]),
                  False),
             _opt("--q", _roots(k), False),
             st.sampled_from([[], ["--format", "json"], ["--format", "text"]])),
    st.one_of(_map_doc(k).map(lambda doc: json.dumps(doc).encode()),
              MAP_DOC.map(lambda doc: json.dumps(doc).encode()), RAW_BYTES)))


def _printed_a_failing_verdict(stdout: str) -> bool:
    if stdout.startswith("transport check") and "FAIL" in stdout:
        return True
    if "resolution graph match: NO" in stdout:
        return True
    try:
        return json.loads(stdout).get("pass") is False
    except (ValueError, AttributeError):
        return False


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    return tmp_path_factory.mktemp("maps") / "map.json"


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(st.tuples(ARGV, MAP_BYTES), VERIFY))
def test_every_input_keeps_the_exit_code_contract(map_file: Path, case):
    argv, map_bytes = case
    map_file.write_bytes(map_bytes)
    argv = [str(map_file) if a == "FILE" else a for a in argv]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), argv
    assert "Traceback" not in result.output + result.stderr, argv
    assert result.exit_code in (0, 1, 2), argv
    if result.exit_code == 1:
        assert _printed_a_failing_verdict(result.stdout), argv
