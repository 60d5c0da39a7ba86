"""The value records of the package behave as frozen value objects.

Ten `Record` subclasses hold the results of the checks, tables, maps and
resolutions as named fields.  Each is built positionally by `Record`'s own
`__init__`, which refuses a wrong number of values.  Each record refuses
assignment, equals only a record of its own class with equal fields, hashes
when its fields do, and reprs as ``Name(field=value, ...)``.  Every crepant
value, records included, survives `copy.deepcopy` and a pickle round trip.
"""

import copy
import pickle

import pytest

from crepant.corrections import DeltaIndex, PoleError
from crepant.exactnum import Cyclotomic, root_of_unity
from crepant.isocheck import (EntryCheck, RootScan, TransportReport,
                              conjecture_scan)
from crepant.mckay import LinearMap, McKayGraph, an_mckay, bgp_map
from crepant.record import Record
from crepant.resolve import (BlowupResult, ChartSurface, ResolutionGraph,
                             blowup_step, resolve_an)
from crepant.ringtables import (ExcClass, QCoeff, cr_table, cup_table,
                                qc_eval, qc_table)

FIELDS = {
    EntryCheck: ("i", "j", "diff"),
    TransportReport: ("n", "q", "map_matrix", "entries"),
    RootScan: ("m_root", "status", "report", "pole"),
    ExcClass: ("n", "s", "e"),
    QCoeff: ("cup", "corr"),
    McKayGraph: ("group_label", "vertices", "adjacency", "reduced"),
    LinearMap: ("n", "matrix"),
    ChartSurface: ("equation", "tag", "curves"),
    BlowupResult: ("charts", "new_curves", "singular_chart"),
    ResolutionGraph: ("nodes", "edges", "rounds"),
}
RECORDS = list(FIELDS)
HASHABLE = (McKayGraph, ResolutionGraph)


def _values(cls):
    """Plain field values, distinct per field: "<field>-value"."""
    return [f"{name}-value" for name in FIELDS[cls]]


# each class's instance built the way the package builds it
REAL = {
    EntryCheck: lambda: conjecture_scan(2)[0].report.entries[0],
    TransportReport: lambda: conjecture_scan(2)[0].report,
    RootScan: lambda: conjecture_scan(2)[0],
    ExcClass: lambda: qc_table(2).entry(1, 1),
    QCoeff: lambda: qc_table(2).entry(1, 2).e[0],
    McKayGraph: lambda: an_mckay(4),
    LinearMap: lambda: bgp_map(3, 1),
    ChartSurface: lambda: ChartSurface.an_singularity(3),
    BlowupResult: lambda: blowup_step(ChartSurface.an_singularity(3)),
    ResolutionGraph: lambda: resolve_an(3),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_construction_sets_every_field(cls):
    rec = cls(*_values(cls))
    assert [getattr(rec, f) for f in FIELDS[cls]] == _values(cls)


def test_every_record_class_is_listed():
    # the imports above load every module that defines a record
    assert set(Record.__subclasses__()) == set(FIELDS)
    for cls in RECORDS:
        assert cls.__slots__ == FIELDS[cls]
    # only the classes with a default field have an __init__ of their own
    assert {cls for cls in RECORDS
            if "__init__" in vars(cls)} == {RootScan, ChartSurface}


def test_a_wrong_number_of_values_is_refused():
    with pytest.raises(TypeError, match="EntryCheck"):
        EntryCheck(1, 2)
    with pytest.raises(TypeError, match="LinearMap"):
        LinearMap(1, 2, 3)


def test_the_two_defaults():
    assert RootScan(1, "pass", None).pole is None
    assert ChartSurface("eq", "smooth").curves == ()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    rec = cls(*_values(cls))
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(rec, name, "other")
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert [getattr(rec, f) for f in FIELDS[cls]] == _values(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_only_to_the_same_class_with_equal_fields(cls):
    values = _values(cls)
    rec = cls(*values)
    assert rec == cls(*[v + "" for v in values])
    assert not rec != cls(*values)
    for k in range(len(values)):
        changed = list(values)
        changed[k] = "changed"
        assert rec != cls(*changed)
    assert rec != tuple(values)
    assert tuple(values) != rec
    for other in RECORDS:
        if other is not cls and len(FIELDS[other]) == len(values):
            assert rec != other(*values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_real_instances_equal_a_rebuilt_one(cls):
    assert REAL[cls]() == REAL[cls]()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_hash_follows_the_fields(cls):
    a, b = REAL[cls](), REAL[cls]()
    if cls in HASHABLE:
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_every_field(cls):
    rec = cls(*_values(cls))
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[cls],
                                                      _values(cls)))
    assert repr(rec) == f"{cls.__name__}({fields})"


# ---------------------------------------------------------------------------
# copy.deepcopy and pickle


def _pole_scan():
    return RootScan(1, "pole", None, PoleError(DeltaIndex(1, 2), entry=(1, 1)))


VALUES = {
    "cr_table": lambda: cr_table(2),
    "cup_table": lambda: cup_table(2),
    "qc_table": lambda: qc_table(2),
    "evaluated": lambda: qc_eval(qc_table(2), [root_of_unity(3, 1)] * 2),
    "cyclotomic": lambda: Cyclotomic.one(4),
    "scan": lambda: conjecture_scan(2),
    "scan4": lambda: conjecture_scan(4),
    "pole_scan": _pole_scan,
    "bgp_map": lambda: bgp_map(3, 1),
    "an_mckay": lambda: an_mckay(4),
    "resolve_an": lambda: resolve_an(3),
    "blowup": lambda: blowup_step(ChartSurface.an_singularity(3)),
}


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


def _rootscan_key(scan):
    """A RootScan's fields with its pole as (index, entry): exceptions do
    not compare by value."""
    pole = scan.pole and (type(scan.pole), scan.pole.index, scan.pole.entry,
                          str(scan.pole))
    return scan.m_root, scan.status, scan.report, pole


def _key(value):
    if isinstance(value, RootScan):
        return _rootscan_key(value)
    if isinstance(value, list):
        return [_key(v) for v in value]
    return value


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", list(VALUES))
def test_values_survive_deepcopy_and_pickle(name, copier):
    value = VALUES[name]()
    copied = copier(value)
    assert type(copied) is type(value)
    assert _key(copied) == _key(value)


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
def test_a_copied_pole_error_keeps_index_and_entry(copier):
    err = PoleError(DeltaIndex(1, 2), entry=(1, 1))
    copied = copier(err)
    assert type(copied) is PoleError
    assert copied.index == DeltaIndex(1, 2)
    assert copied.entry == (1, 1)
    assert str(copied) == str(err)
    bare = copier(PoleError(DeltaIndex(2, 3)))
    assert bare.index == (2, 3) and bare.entry is None


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
def test_copied_values_stay_immutable(copier):
    for value, field in ((Cyclotomic.one(4), "conductor"),
                         (cr_table(2).entry(1, 1).s, "terms"),
                         (qc_table(2).entry(1, 2).e[0].corr, "terms"),
                         (bgp_map(2, 1), "matrix")):
        for obj in (value, copier(value)):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is not None
