"""The package's records: each keeps its field order, defaults, repr,
by-value equality and hash, immutability and pickling."""

import pickle
from fractions import Fraction

import pytest

from subsemi.catalog import NamedStructure, ReconstructionMatch
from subsemi.counting import PartialBinaryAlgebra, SubuniverseReport
from subsemi.enumeration import EnumerationRun
from subsemi.order import CanonicalForm, Poset, canonical_form
from subsemi.verifier import (
    ClaimCheck,
    DiscrepancyEntry,
    DiscrepancyReport,
    PropertyResult,
    RankingReport,
    TheoremVerification,
)

PA = PartialBinaryAlgebra(3, [(1, 0, 2)])
CHECK = ClaimCheck("i", 5, 4, Fraction(25), "failed")

# (class, every field in order with a value, the defaults, the repr of the
# record built from those values, and one field with another value); each
# repr is the one the records printed as frozen dataclasses
RECORDS = [
    (CanonicalForm, {"code": b"\x01\x80", "perm": (0,)}, {},
     "CanonicalForm(code=b'\\x01\\x80', perm=(0,))", ("perm", (1,))),
    (PartialBinaryAlgebra, {"n": 3, "defined_joins": ((0, 1, 2),)}, {},
     "PartialBinaryAlgebra(n=3, defined_joins=((0, 1, 2),))", ("n", 4)),
    (SubuniverseReport, {"count": 25, "k": 5, "n": 5}, {},
     "SubuniverseReport(count=25, k=5, n=5)", ("count", 26)),
    (EnumerationRun, {"n": 1, "stats": {"candidates": 1, "duplicates": 0},
                      "codes": (b"\x01\x80",), "counts": (2,)}, {"counts": None},
     "EnumerationRun(n=1, stats={'candidates': 1, 'duplicates': 0}, "
     "codes=(b'\\x01\\x80',), counts=(2,))", ("counts", (3,))),
    (NamedStructure, {"id": "U", "structure": PA, "labels": ("a", "b", "c"),
                      "expected_sigma5": Fraction(16), "reported_sigma5": (Fraction(21),),
                      "provenance": "p", "tolerance": Fraction(1, 10)},
     {"tolerance": Fraction(0)},
     "NamedStructure(id='U', structure=PartialBinaryAlgebra(n=3, "
     "defined_joins=((0, 1, 2),)), labels=('a', 'b', 'c'), expected_sigma5=Fraction(16, 1), "
     "reported_sigma5=(Fraction(21, 1),), provenance='p', tolerance=Fraction(1, 10))",
     ("tolerance", Fraction(0))),
    (ReconstructionMatch, {"structure": PA, "parts": (14, 2, 7)}, {},
     "ReconstructionMatch(structure=PartialBinaryAlgebra(n=3, defined_joins=((0, 1, 2),)), "
     "parts=(14, 2, 7))", ("parts", (14, 2, 8))),
    (RankingReport, {"n": 5, "values": (32,), "witnesses": {32: ("0580",)},
                     "family_check": (CHECK,)}, {},
     "RankingReport(n=5, values=(32,), witnesses={32: ('0580',)}, family_check=("
     "ClaimCheck(claim='i', n=5, expected_rank=4, expected_sigma=Fraction(25, 1), "
     "status='failed', expected_count=None, value_present=False, value_at_rank=False, "
     "count_at_rank=None, witnesses_equal_family=False, extra_witnesses=(), "
     "missing_witnesses=(), notes=''),))", ("values", (32, 28))),
    (ClaimCheck, {"claim": "ii", "n": 6, "expected_rank": 5,
                  "expected_sigma": Fraction(49, 2), "status": "verified",
                  "expected_count": 49, "value_present": True, "value_at_rank": True,
                  "count_at_rank": 49, "witnesses_equal_family": True,
                  "extra_witnesses": ("ab",), "missing_witnesses": ("cd",), "notes": "x"},
     {"expected_count": None, "value_present": False, "value_at_rank": False,
      "count_at_rank": None, "witnesses_equal_family": False, "extra_witnesses": (),
      "missing_witnesses": (), "notes": ""},
     "ClaimCheck(claim='ii', n=6, expected_rank=5, expected_sigma=Fraction(49, 2), "
     "status='verified', expected_count=49, value_present=True, value_at_rank=True, "
     "count_at_rank=49, witnesses_equal_family=True, extra_witnesses=('ab',), "
     "missing_witnesses=('cd',), notes='x')", ("notes", "")),
    (TheoremVerification, {"n": 5, "claims": (), "top3": ((32, 32, True),)}, {},
     "TheoremVerification(n=5, claims=(), top3=((32, 32, True),))", ("claims", (CHECK,))),
    (DiscrepancyEntry, {"location": "catalog:H", "reported_values": (Fraction(21),),
                        "computed": Fraction(26), "classification": "contradiction"}, {},
     "DiscrepancyEntry(location='catalog:H', reported_values=(Fraction(21, 1),), "
     "computed=Fraction(26, 1), classification='contradiction')",
     ("computed", Fraction(23))),
    (PropertyResult, {"name": "trace bound", "instances": 120, "violations": 0}, {},
     "PropertyResult(name='trace bound', instances=120, violations=0)", ("violations", 1)),
    (DiscrepancyReport, {"entries": (), "properties": (), "notes": ("a",)}, {},
     "DiscrepancyReport(entries=(), properties=(), notes=('a',))", ("notes", ())),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, text, changed", RECORDS, ids=IDS)
def test_repr_and_field_order(cls, fields, defaults, text, changed):
    assert repr(cls(**fields)) == text
    # positional arguments fill the fields in the same order
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, defaults, text, changed", RECORDS, ids=IDS)
def test_defaults(cls, fields, defaults, text, changed):
    required = {name: value for name, value in fields.items() if name not in defaults}
    record = cls(**required)
    for name, value in defaults.items():
        assert getattr(record, name) == value, name
    with pytest.raises(TypeError):
        cls(**dict(list(required.items())[:-1]))   # a required field left out


@pytest.mark.parametrize("cls, fields, defaults, text, changed", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, fields, defaults, text, changed):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    name, value = changed
    assert a != cls(**{**fields, name: value})
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:
        # a record holding a dict is unhashable, as the dict is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls, fields, defaults, text, changed", RECORDS, ids=IDS)
def test_immutable_and_picklable(cls, fields, defaults, text, changed):
    record = cls(**fields)
    name, value = changed
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = value
    assert getattr(record, name) == fields[name]
    assert pickle.loads(pickle.dumps(record)) == record


def test_run_builds_its_structures_once():
    chain = Poset.from_covers(2, [(0, 1)])
    run = EnumerationRun(2, {"candidates": 1, "duplicates": 0},
                         (canonical_form(chain).code,))
    assert run.structures is run.structures
    assert [canonical_form(s).code for s in run.structures] == list(run.codes)

