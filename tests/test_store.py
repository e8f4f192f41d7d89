"""The one store of per-D tables and the D-outer runner.

Every per-D builder (``limits.per_d``) keeps its table in ``limits._store``
under its D until ``limits.release`` drops that D.  ``verify.run_checks``
runs every applicable check at D, in ``_CHECKS`` order, before any check at
D+1, and after each D releases the tables below D-2.  The first check to
read a table is the one a check-outer sweep would have met first, so
releasing never forces a rebuild.
"""

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis import limits


def test_a_table_is_built_once_until_its_d_is_released(cold_store):
    calls = []

    @limits.per_d
    def build(d):
        calls.append(d)
        return [d]

    assert build(3) is build(3) and calls == [3]
    assert build(5) == [5]
    limits.release(5)
    assert sorted(limits._store) == [5]
    assert build(5) == [5] and calls == [3, 5]
    assert build(3) == [3] and calls == [3, 5, 3]


def test_a_build_that_raises_stores_nothing(cold_store):
    calls = []

    @limits.per_d
    def build(d):
        calls.append(d)
        if len(calls) == 1:
            raise ValueError("a failing first build")
        return d

    with pytest.raises(ValueError, match="a failing first build"):
        build(4)
    assert build(4) == 4 and build(4) == 4 and calls == [4, 4]


def test_each_table_is_built_once_per_d(monkeypatch, cold_store):
    orders = []
    init = basis.Order.__init__

    def counted(self, d):
        orders.append(d)
        init(self, d)

    monkeypatch.setattr(basis.Order, "__init__", counted)
    # (D, builder) -> the first table seen there: a rebuild is a new object,
    # and every table is seen before the release that drops it
    held = {}
    release = limits.release

    def watched(below):
        for d, tables in limits._store.items():
            for builder, table in tables.items():
                assert held.setdefault((d, builder), table) is table, (d, builder)
        release(below)

    monkeypatch.setattr(verify, "release", watched)
    assert all(report.passed for report in verify.run_checks(11))
    assert orders == list(range(12))
    assert {d for d, _ in held} == set(range(12))
    assert {builder.__name__ for _, builder in held} == {
        "_family",
        "build_order",
        "epsilon_images",
        "epsilon_inverse",
        "epsilon_masks",
        "epsilon_pairs",
        "pieces",
    }


def test_the_runner_keeps_no_d_below_max_d_minus_2(cold_store):
    assert all(report.passed for report in verify.run_checks(9))
    assert sorted(limits._store) == [7, 8, 9]


def test_the_sweep_is_d_outer_and_a_failing_check_stops_alone(monkeypatch):
    calls = []
    for name, (check, first, step) in verify._CHECKS.items():

        def spy(d, name=name, check=check):
            calls.append((d, name))
            if (name, d) == ("piece_bijections", 5):
                return {"kind": "doctored"}
            return check(d)

        monkeypatch.setitem(verify._CHECKS, name, (spy, first, step))
    reports = {r.name: r for r in verify.run_checks(9)}
    names = list(verify._CHECKS)
    assert calls == sorted(calls, key=lambda call: (call[0], names.index(call[1])))
    seen = {name: [d for d, n in calls if n == name] for name in names}
    assert seen.pop("piece_bijections") == [0, 1, 2, 3, 4, 5]
    assert reports.pop("piece_bijections").detail == {"D": 5, "kind": "doctored"}
    assert len(reports) == 11
    for name, report in reports.items():  # the other eleven reach max_d
        assert report.passed and seen[name] == report.d_values, name
        assert report.d_values[-1] == (8 if name == "triangular_closed_form" else 9), name
