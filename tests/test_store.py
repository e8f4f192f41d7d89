"""The one store of per-D tables and the D-outer runner.

Every per-D builder (``limits.per_d``) keeps its table in ``limits._store``
under its D until ``limits.release`` drops it.  ``verify.run_checks`` runs
every applicable check at D, in ``_CHECKS`` order, before any check at D+1.
A check at D reads, of the tables below D, only D-2's family arrays and image
masks, so after each D the store keeps those two tables of D and of D-1 and
nothing else below D+1.  The first check to read a table is the one a
check-outer sweep would have met first, so releasing never forces a rebuild.
"""

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis import limits
from secondbasis.basis import epsilon_masks
from secondbasis.family import _family

CARRIED = {_family.__name__, epsilon_masks.__name__}  # the tables D+2 reads


def held_names():
    """D -> the names of the builders whose tables the store holds at D."""
    return {d: {build.__name__ for build in tables} for d, tables in limits._store.items()}


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


def test_a_release_spares_the_kept_builders_tables(cold_store):
    @limits.per_d
    def kept(d):
        return [d]

    @limits.per_d
    def dropped(d):
        return [d]

    tables = {d: (kept(d), dropped(d)) for d in (3, 4, 5)}
    dropped(6)
    limits.release(5, keep=[kept])
    assert held_names() == {3: {"kept"}, 4: {"kept"}, 5: {"kept", "dropped"}, 6: {"dropped"}}
    assert kept(3) is tables[3][0] and dropped(5) is tables[5][1]
    limits.release(7, keep=[kept])
    limits.release(5)
    assert held_names() == {5: {"kept"}}


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

    def watched(below, keep=()):
        for d, tables in limits._store.items():
            for builder, table in tables.items():
                assert held.setdefault((d, builder), table) is table, (d, builder)
        release(below, keep)

    monkeypatch.setattr(verify, "release", watched)
    assert all(report.passed for report in verify.run_checks(11))
    assert orders == list(range(12))
    assert {d for d, _ in held} == set(range(12))
    assert {builder.__name__ for _, builder in held} == {
        "_family",
        "_members",
        "build_order",
        "epsilon_images",
        "epsilon_inverse",
        "epsilon_masks",
        "pieces",
    }


def test_the_runner_keeps_the_family_and_images_of_the_last_two_ds(cold_store):
    assert all(report.passed for report in verify.run_checks(9))
    assert held_names() == {8: CARRIED, 9: CARRIED}


def test_no_check_meets_a_table_the_runner_should_have_dropped(monkeypatch, cold_store):
    # at D the store holds nothing below D-2, and below D only the carried two
    seen = set()

    def assert_retention(d):
        for dd, names in held_names().items():
            assert dd >= d - 2 and (dd >= d or names <= CARRIED), (d, dd, names)
            seen.update((d - dd, name) for name in names if dd < d)

    for name, (check, first, step) in verify._CHECKS.items():

        def spy(d, check=check):
            assert_retention(d)
            try:
                return check(d)
            finally:
                assert_retention(d)

        monkeypatch.setitem(verify._CHECKS, name, (spy, first, step))
    assert all(report.passed for report in verify.run_checks(11))
    assert seen == {(k, name) for k in (1, 2) for name in CARRIED}


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
