"""The public records: construction, repr, equality, hashing, immutability, validation, import cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import companion_exponents
from companion_exponents import (
    BoolMatrix,
    CensusRecord,
    CompanionSpec,
    ExponentReport,
    GeneratorSet,
    LocalExponentTable,
    StringCountTable,
    VertexPartition,
    census,
)
from companion_exponents.verify import CheckResult

_HISTOGRAM, _WITNESSES = {3: 1, 4: 1, 5: 1}, {3: "111", 4: "101", 5: "110"}

# (record type, positional fields, the same fields by keyword, repr); each repr is the one the
# records printed as frozen dataclasses, and a keyword left out takes its default
CASES = [
    (CompanionSpec, (4, "1010"), {"n": 4, "row": (1, 0, 1, 0)}, "CompanionSpec(n=4, row=(1, 0, 1, 0))"),
    (VertexPartition, (frozenset({1}), frozenset({2, 3})), {"zeros": frozenset({1}), "support": frozenset({2, 3})},
     "VertexPartition(zeros=frozenset({1}), support=frozenset({2, 3}))"),
    (BoolMatrix, (2, (1, 3)), {"n": 2, "rows": (1, 3)}, "BoolMatrix(n=2, rows=(1, 3))"),
    (ExponentReport, (5, "ORACLE", None), {"value": 5, "rule": "ORACLE"},
     "ExponentReport(value=5, rule='ORACLE', detail=None)"),
    (ExponentReport, (7, "TWO_CYCLES", {"short_cycle": 2}),
     {"value": 7, "rule": "TWO_CYCLES", "detail": {"short_cycle": 2}},
     "ExponentReport(value=7, rule='TWO_CYCLES', detail={'short_cycle': 2})"),
    (LocalExponentTable, (2, ((1, 2), (3, 4))), {"n": 2, "values": ((1, 2), (3, 4))},
     "LocalExponentTable(n=2, values=((1, 2), (3, 4)))"),
    (GeneratorSet, ((3, 5), 1), {"values": (3, 5), "gcd": 1}, "GeneratorSet(values=(3, 5), gcd=1)"),
    (StringCountTable, (1, ((1, 0), (0, 1))), {"n": 1, "counts": ((1, 0), (0, 1))},
     "StringCountTable(n=1, counts=((1, 0), (0, 1)))"),
    (CensusRecord, (3, _HISTOGRAM, (3, 4, 5), _WITNESSES, 1),
     {"n": 3, "histogram": _HISTOGRAM, "exponent_set": (3, 4, 5), "witnesses": _WITNESSES, "imprimitive_count": 1},
     "CensusRecord(n=3, histogram={3: 1, 4: 1, 5: 1}, exponent_set=(3, 4, 5), "
     "witnesses={3: '111', 4: '101', 5: '110'}, imprimitive_count=1)"),
    (CheckResult, ("x", True, "d"), {"name": "x", "passed": True, "detail": "d"},
     "CheckResult(name='x', passed=True, detail='d')"),
]
IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]
# fields of another record of each type, differing in one field
OTHER = {
    CompanionSpec: (4, "1100"),
    VertexPartition: (frozenset(), frozenset({2, 3})),
    BoolMatrix: (2, (3, 1)),
    ExponentReport: (6, "ORACLE", None),
    LocalExponentTable: (2, ((1, 2), (3, 5))),
    GeneratorSet: ((3, 5), 2),
    StringCountTable: (1, ((1, 0), (1, 1))),
    CensusRecord: (3, _HISTOGRAM, (3, 4, 5), _WITNESSES, 2),
    CheckResult: ("x", False, "d"),
}


@pytest.mark.parametrize("kind, args, kwargs, text", CASES, ids=IDS)
def test_construction_and_repr(kind, args, kwargs, text):
    positional, by_keyword = kind(*args), kind(**kwargs)
    assert type(positional) is type(by_keyword) is kind
    assert positional == by_keyword
    assert repr(positional) == repr(by_keyword) == text


@pytest.mark.parametrize("kind, args, kwargs, text", CASES, ids=IDS)
def test_equal_and_hashed_by_fields(kind, args, kwargs, text):
    record, again = kind(*args), kind(*args)
    assert record == again and not record != again
    assert record != kind(*OTHER[kind])
    if any(isinstance(field, dict) for field in args):  # unhashable, as the frozen dataclasses were
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(again)
        assert len({record, again}) == 1


@pytest.mark.parametrize("kind, args, kwargs, text", CASES, ids=IDS)
def test_fields_are_read_only(kind, args, kwargs, text):
    record = kind(*args)
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict


@pytest.mark.parametrize("kind, args, kwargs, text", CASES, ids=IDS)
def test_unpacks_and_equals_its_fields(kind, args, kwargs, text):
    record = kind(*args)
    assert tuple(record) == tuple(getattr(record, field) for field in kind._fields)
    assert record == tuple(record)
    assert record._replace() == record


def test_records_built_by_the_package():
    assert census(3) == CensusRecord(*CASES[8][1])
    assert GeneratorSet.of([5, 3, 5]) == GeneratorSet(*CASES[6][1])
    assert CompanionSpec(4, [1, 0, True, 0.0]).row == (1, 0, 1, 0)
    assert all(type(bit) is int for bit in CompanionSpec(4, [1, 0, True, 0.0]).row)
    assert StringCountTable(1, ((1, 0), (0, 1))).count(1, 1) == 1  # the table's count, not tuple.count


@pytest.mark.parametrize("build, message", [
    (lambda: CompanionSpec(1, "1"), "order must be an integer >= 2, got 1"),
    (lambda: CompanionSpec(True, "1"), "order must be an integer >= 2, got True"),
    (lambda: CompanionSpec("3", "101"), "order must be an integer >= 2, got '3'"),
    (lambda: CompanionSpec(3, "10"), "row has 2 bits, expected n=3"),
    (lambda: CompanionSpec(3, "1a1"), "row must be a nonempty string over 0/1, got '1a1'"),
    (lambda: CompanionSpec(3, (1, 2, 1)), "row bits must be 0 or 1, got (1, 2, 1)"),
    (lambda: BoolMatrix(2, (1,)), "need exactly n=2 row bitmasks, got 1"),
    (lambda: BoolMatrix(0, ()), "need exactly n=0 row bitmasks, got 0"),
    (lambda: BoolMatrix(2, (1, 4)), "row bitmask out of range for the given order"),
    (lambda: BoolMatrix(2, (-1, 1)), "row bitmask out of range for the given order"),
    (lambda: ExponentReport(1, "X"), "unknown rule 'X'"),
    (lambda: GeneratorSet.of([]), "generators must be positive integers, got ()"),
    (lambda: GeneratorSet.of([0, 3]), "generators must be positive integers, got (0, 3)"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("record, change, message", [
    (CompanionSpec(3, "101"), {"row": "10"}, "row has 2 bits, expected n=3"),
    (BoolMatrix(2, (1, 3)), {"rows": (1, 4)}, "row bitmask out of range for the given order"),
    (ExponentReport(5, "ORACLE"), {"rule": "X"}, "unknown rule 'X'"),
])
def test_replace_validates(record, change, message):
    with pytest.raises(ValueError) as caught:
        record._replace(**change)
    assert str(caught.value) == message


def test_replace_parses_the_row():
    assert CompanionSpec(3, "101")._replace(row="111") == CompanionSpec(3, (1, 1, 1))


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import companion_exponents
print(*sorted(set(sys.modules) - before))
import companion_exponents.cli
print(*sorted(set(sys.modules) - before))
companion_exponents.census(3).to_json()
print("json" in sys.modules)
"""


def test_import_loads_no_dataclasses_inspect_or_json():
    # a fresh interpreter, compared with what it had loaded before the import (site hooks may preload some)
    src = Path(companion_exponents.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    package, cli, json_after = (line.split() for line in out.splitlines())
    assert "companion_exponents.core" in package and "companion_exponents.verify" in cli
    for loaded in (package, cli):
        assert not {"dataclasses", "inspect", "json"} & set(loaded)
    assert json_after == ["True"]
