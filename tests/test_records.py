"""The library's five value records: ``__slots__`` classes on one base.

``PieceLabel``, ``BasisMatrix``, ``Symbol``, ``TableEntry`` and ``RunReport``
keep their own ``__init__`` and take the rest from ``errors.Record``: each
keeps its field names and order, equals only a record of its own class with
equal fields, hashes equal records alike, refuses assignment (``RunReport``
excepted: it is mutable, so unhashable) and spells its class and fields in
its ``repr``.  No other class in the library writes those methods but
``EvenSet``, ``Matching`` and ``Span``.  A fresh ``import secondbasis.cli``
loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from secondbasis.arcs import Arc, Matching
from secondbasis.basis import BasisMatrix, Symbol
from secondbasis.f2 import EvenSet
from secondbasis.errors import Record
from secondbasis.family import PieceLabel
from secondbasis.tables import TableEntry
from secondbasis.verify import RunReport

SRC = Path(__file__).parents[1] / "src"


# (class, field names in order, a builder of one value of the fields)
RECORDS = [
    (PieceLabel, ("t", "sign"), lambda: (-2, "+")),
    (
        BasisMatrix,
        ("labels", "starts", "entry_rows", "entry_values"),
        lambda: ([EvenSet([], 3)], array("I", [0, 1]), array("I", [0]), array("i", [1])),
    ),
    (Symbol, ("s", "t", "flavor"), lambda: (frozenset({1, 3}), frozenset({2}), "odd")),
    (TableEntry, ("matching", "bracketed"), lambda: (Matching([Arc(1, 2)], 3), (Arc(1, 2),))),
    (
        RunReport,
        ("name", "d_values", "passed", "detail", "seconds"),
        lambda: ("laminarity", [1, 3], False, {"D": 3}, 0.5),
    ),
]
FROZEN = [r for r in RECORDS if r[0] is not RunReport]
HASHABLE = [r for r in FROZEN if r[0] is not BasisMatrix]
UNHASHABLE = [r for r in RECORDS if r not in HASHABLE]
# a second value of each record's fields, unequal to the first
OTHER = {
    PieceLabel: lambda: (4, None),
    BasisMatrix: lambda: ([EvenSet([1, 2], 3)], array("I", [0, 1]), array("I", [0]), array("i", [1])),
    Symbol: lambda: (frozenset({1}), frozenset({2, 3}), "odd"),
    TableEntry: lambda: (Matching([Arc(1, 2)], 3), ()),
    RunReport: lambda: ("laminarity", [1, 3], True, None, 0.5),
}


def ids(records):
    return [cls.__name__ for cls, _, _ in records]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=ids(RECORDS))
def test_a_record_keeps_its_fields_in_order(cls, names, values):
    assert cls.__slots__ == names
    record = cls(*values())
    assert tuple(getattr(record, name) for name in names) == values()
    assert cls(**dict(zip(names, values()))) == record


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=ids(RECORDS))
def test_a_record_equals_only_a_record_of_its_class(cls, names, values):
    record = cls(*values())
    assert record == cls(*values()) and not record != cls(*values())
    assert record != values()  # not a plain tuple of its fields
    assert record != list(values())
    subclass = type("Other", (cls,), {"__slots__": ()})
    assert record != subclass(*values())
    # the fields come from the class that declares them, not an empty subclass
    other = subclass(*values())
    assert tuple(getattr(other, name) for name in names) == values()
    assert other == subclass(*values()) and other != subclass(*OTHER[cls]())
    assert record != cls(*OTHER[cls]())


@pytest.mark.parametrize("cls, names, values", HASHABLE, ids=ids(HASHABLE))
def test_equal_records_hash_alike(cls, names, values):
    a, b = cls(*values()), cls(*values())
    assert a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values", UNHASHABLE, ids=ids(UNHASHABLE))
def test_a_matrix_and_a_run_report_are_unhashable(cls, names, values):
    with pytest.raises(TypeError, match="unhashable"):
        hash(cls(*values()))


@pytest.mark.parametrize("cls, names, values", FROZEN, ids=ids(FROZEN))
def test_a_frozen_record_refuses_assignment(cls, names, values):
    record = cls(*values())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values())


def test_a_run_report_is_mutable_with_its_defaults():
    report = RunReport("piece_counts", [], True)
    assert (report.detail, report.seconds) == (None, 0.0)
    assert report.line() == "PASS piece_counts                 D=(none)        0.00s"
    assert report.to_json() == {
        "name": "piece_counts",
        "d_values": [],
        "passed": True,
        "detail": None,
        "seconds": 0.0,
    }
    report.passed, report.detail, report.seconds = False, {"D": 5}, 1.23456
    report.d_values = [1, 3, 5]
    assert report.line() == (
        "FAIL piece_counts                 D=1..5          1.23s  counterexample: {'D': 5}"
    )
    assert report.to_json()["seconds"] == 1.2346
    assert report != RunReport("piece_counts", [], True)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=ids(RECORDS))
def test_a_record_repr_names_its_class_and_fields(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values()))
    assert repr(cls(*values())) == f"{cls.__name__}({fields})"


def test_only_the_record_base_and_three_hot_classes_write_value_methods():
    # a class body that defines __eq__, __hash__ or __repr__, or a __setattr__
    # that raises; ``__hash__ = None`` and a plain ``__setattr__`` do not count
    writers = set()
    for path in sorted((SRC / "secondbasis").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name in ("__eq__", "__hash__", "__repr__")
                    or item.name == "__setattr__"
                    and any(isinstance(n, ast.Raise) for n in ast.walk(item))
                ):
                    writers.add(node.name)
                elif isinstance(item, ast.Assign) and any(
                    getattr(t, "id", None) in ("__eq__", "__hash__", "__repr__") for t in item.targets
                ) and not (isinstance(item.value, ast.Constant) and item.value.value is None):
                    writers.add(node.name)
    assert writers == {"Record", "EvenSet", "Matching", "Span"}
    for cls, _, _ in RECORDS:
        assert issubclass(cls, Record) and cls.__eq__ is Record.__eq__
        assert cls.__repr__ is Record.__repr__
        assert cls.__hash__ in (Record.__hash__, None)


def test_piece_label_refuses_bad_values():
    assert PieceLabel(4) == PieceLabel(4, None) and PieceLabel(4).sign is None
    with pytest.raises(ValueError, match=r"^piece parameter must be even, got -3$"):
        PieceLabel(-3)
    with pytest.raises(ValueError, match=r"^sign must be '\+', '-' or None, got 'x'$"):
        PieceLabel(2, "x")
    # the parity of t is checked first
    with pytest.raises(ValueError, match="must be even"):
        PieceLabel(1, "x")


@pytest.mark.parametrize(
    "s, t, flavor, message",
    [
        ({1}, {2}, "even", r"^unknown flavor 'even'$"),
        ({1, 2}, {2}, "odd", r"^symbol halves must be disjoint$"),
        ({1}, {3}, "odd", r"^symbol halves must partition \[1, D\+1\]$"),
        ({1}, {2}, "odd", r"^defect 0 incompatible with flavor 'odd'$"),
        ({1, 2}, set(), "plus", r"^defect 2 incompatible with flavor 'plus'$"),
        ({1, 2, 3, 4}, set(), "minus", r"^defect 4 incompatible with flavor 'minus'$"),
    ],
)
def test_symbol_refuses_bad_values(s, t, flavor, message):
    with pytest.raises(ValueError, match=message):
        Symbol(frozenset(s), frozenset(t), flavor)


def test_the_cli_imports_without_dataclasses_or_inspect():
    # pytest itself loads both modules, so only a fresh interpreter can tell
    code = "import sys, secondbasis.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.split() == []
