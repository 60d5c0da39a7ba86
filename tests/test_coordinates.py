"""Coordinates spelled and read from integers, against the Fraction formulas.

`Cyclotomic.to_json`, `__str__`, the LaTeX emitter and `from_json` work on
the integer numerators and the common denominator.  `tests/oracles.py` keeps
the formulas they replaced, one `Fraction` per coordinate; here both run on
generated values and on a corpus of malformed input, which both must refuse
with the same exception and message.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from clirunner import CliRunner  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from crepant.cli import main  # noqa: E402
from crepant.exactnum import Cyclotomic, euler_phi  # noqa: E402
from crepant.ringtables import _ltx_cyclotomic  # noqa: E402

CONDUCTORS = (1, 3, 4, 5, 8, 12, 20, 28, 60)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

WIDE = 10 ** 40
coordinates = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-WIDE, WIDE),
    st.fractions(max_denominator=WIDE),
    st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, 12)))


@st.composite
def values(draw):
    conductor = draw(st.sampled_from(CONDUCTORS))
    m = euler_phi(conductor)
    return Cyclotomic(conductor, draw(st.lists(coordinates, min_size=m,
                                               max_size=m)))


def _form(x: Cyclotomic):
    return x.conductor, x._num, x._den


@SETTINGS
@given(values())
def test_spelling_matches_the_fraction_formulas(x):
    assert x.to_json() == oracles.fraction_to_json(x)
    assert str(x) == oracles.fraction_str(x)
    assert _ltx_cyclotomic(x) == oracles.fraction_latex(x)


@SETTINGS
@given(values())
def test_the_reader_keeps_the_normal_form(x):
    doc = json.loads(json.dumps(x.to_json()))
    back = Cyclotomic.from_json(doc)
    assert _form(back) == _form(x)
    assert _form(back) == _form(oracles.fraction_from_json(doc))


@st.composite
def spellings(draw):
    """A coordinate list in any accepted spelling: ints, unreduced p/q,
    leading zeros and signs."""
    conductor = draw(st.sampled_from(CONDUCTORS))
    out = []
    for _ in range(euler_phi(conductor)):
        p = draw(st.integers(-WIDE, WIDE))
        if draw(st.booleans()):
            out.append(p)
            continue
        text = draw(st.sampled_from(["", "+"])) + "0" * draw(
            st.integers(0, 3)) + str(abs(p))
        if p < 0:
            text = "-" + text.lstrip("+")
        if draw(st.booleans()):
            text += "/" + "0" * draw(st.integers(0, 2)) + str(
                draw(st.integers(1, WIDE)))
        out.append(text)
    return {"conductor": conductor, "coeffs": out}


@SETTINGS
@given(spellings())
def test_every_spelling_reads_to_the_fraction_value(doc):
    x = Cyclotomic.from_json(doc)
    assert _form(x) == _form(oracles.fraction_from_json(doc))
    assert x.to_json() == oracles.fraction_to_json(x)


ARABIC_ONE = "١"
FULLWIDTH_ONE = "１"
REFUSED = {
    "conductor-0": {"conductor": 0, "coeffs": ["1"]},
    "conductor-negative": {"conductor": -4, "coeffs": ["1", "0"]},
    "conductor-true": {"conductor": True, "coeffs": ["1"]},
    "conductor-float": {"conductor": 1.0, "coeffs": ["1"]},
    "conductor-huge": {"conductor": 10 ** 30, "coeffs": ["1"]},
    "coeffs-string": {"conductor": 1, "coeffs": "1"},
    "coordinate-true": {"conductor": 1, "coeffs": [True]},
    "coordinate-float": {"conductor": 1, "coeffs": [2.0]},
    "zero-denominator": {"conductor": 1, "coeffs": ["1/0"]},
    "zero-denominator-00": {"conductor": 1, "coeffs": ["1/00"]},
    "leading-blank": {"conductor": 1, "coeffs": [" 1"]},
    "decimal": {"conductor": 1, "coeffs": ["1.5"]},
    "exponent": {"conductor": 1, "coeffs": ["1e3"]},
    "underscore": {"conductor": 1, "coeffs": ["1_0"]},
    "arabic-indic-digit": {"conductor": 1, "coeffs": [ARABIC_ONE]},
    "fullwidth-digit": {"conductor": 4, "coeffs": ["1", FULLWIDTH_ONE]},
    "too-long": {"conductor": 1, "coeffs": ["1", "2"]},
    "too-short": {"conductor": 5, "coeffs": ["1", "2", "3"]},
    "empty": {"conductor": 1, "coeffs": []},
    "signed-denominator": {"conductor": 1, "coeffs": ["1/-3"]},
}
# past CPython's limit on int() of a decimal string; refused by int() in
# either reader, the length check coming after every coordinate is read
TOO_WIDE_FOR_INT = {
    "wide-numerator": {"conductor": 1, "coeffs": ["1" * 5000]},
    "wide-denominator": {"conductor": 4, "coeffs": ["0", "1/" + "7" * 5000]},
    "wide-and-too-long": {"conductor": 1, "coeffs": ["1", "-" + "3" * 5000]},
}
ACCEPTED = {
    "plus-sign": {"conductor": 1, "coeffs": ["+3"]},
    "leading-zeros": {"conductor": 1, "coeffs": ["007"]},
    "unreduced": {"conductor": 1, "coeffs": ["2/04"]},
    "negative-zero": {"conductor": 1, "coeffs": ["-0/5"]},
    "mixed": {"conductor": 4, "coeffs": [3, "-6/8"]},
}


def _outcome(read, doc):
    try:
        return "value", _form(read(doc))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("doc", [*REFUSED.values(),
                                 *TOO_WIDE_FOR_INT.values()],
                         ids=[*REFUSED, *TOO_WIDE_FOR_INT])
def test_the_reader_refuses_what_the_fraction_reader_refuses(doc):
    got = _outcome(Cyclotomic.from_json, doc)
    assert got[0] != "value"
    assert got == _outcome(oracles.fraction_from_json, doc)


@pytest.mark.parametrize("doc", ACCEPTED.values(), ids=ACCEPTED)
def test_the_reader_accepts_what_the_fraction_reader_accepts(doc):
    got = _outcome(Cyclotomic.from_json, doc)
    assert got[0] == "value"
    assert got == _outcome(oracles.fraction_from_json, doc)


def _verify_rank_one(tmp_path, entry):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": 1, "matrix": [[entry]]}))
    return CliRunner().invoke(main, ["verify", "--n", "1", "--map",
                                     str(path), "--q", "e:1/2"])


@pytest.mark.parametrize("doc", REFUSED.values(), ids=REFUSED)
def test_a_refused_map_entry_exits_2_with_the_readers_message(tmp_path, doc):
    result = _verify_rank_one(tmp_path, doc)
    _, message = _outcome(oracles.fraction_from_json, doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"Error: {message}\n"


@pytest.mark.parametrize("doc", ACCEPTED.values(), ids=ACCEPTED)
def test_an_accepted_map_entry_verifies_as_its_normal_form(tmp_path, doc):
    result = _verify_rank_one(tmp_path, doc)
    canonical = _verify_rank_one(
        tmp_path, oracles.fraction_from_json(doc).to_json())
    assert result.exit_code in (0, 1)
    assert (result.exit_code, result.stdout, result.stderr) == (
        canonical.exit_code, canonical.stdout, canonical.stderr)
