"""The column-sparse matrices against dense references built from the spans.

The dense references read span membership cell by cell, the way the matrices
were built before they were stored by column, and the dense unitriangularity
scan below is the row-major reference for which fault is reported.
"""

import tracemalloc

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis.basis import (
    BasisMatrix,
    Order,
    _assert_unitriangular,
    build_order,
    change_matrix,
    second_basis_vectors,
)
from secondbasis.cli import _matrix_for
from secondbasis.errors import FalsificationError
from secondbasis.variants import involution, orbit_representatives, sector_matrix
from tests.conftest import doctor, elements, from_columns


def sectors(d):
    if d % 2 == 0:
        return ["all"]
    return ["plus", "minus", "++", "+-", "-+", "--"]


def dense_reference(order, d, sector):
    if sector in ("++", "+-", "-+", "--"):
        reps = orbit_representatives(d, sector)
        spans = [order.gen_spans[y.mask] for y in reps]
        return [
            [(x.mask in s) + (involution(x, d).mask in s) for s in spans] for x in reps
        ]
    sets = elements(order)
    chosen = [sets[p] for p in order.sector_positions(sector)]
    spans = [order.gen_spans[y.mask] for y in chosen]
    return [[int(x.mask in s) for s in spans] for x in chosen]


def dense_fault(rows, bound, what):
    """The first fault of a row-major scan, or None."""
    for i, row in enumerate(rows):
        if row[i] != 1:
            return f"{what}: diagonal entry {i} is {row[i]}"
        for j, v in enumerate(row):
            if v and j < i:
                return f"{what}: nonzero entry below the diagonal at ({i}, {j})"
            if not 0 <= v <= bound:
                return f"{what}: entry {v} at ({i}, {j})"
    return None


@pytest.mark.parametrize("d", range(10))
def test_rows_equal_the_dense_span_reference(d):
    order = build_order(d)
    for sector in sectors(d):
        m = _matrix_for(d, sector)
        assert m.rows == dense_reference(order, d, sector), sector
        for j, column in enumerate(m.columns):
            assert [i for i, _ in column] == sorted({i for i, _ in column})
            assert column[-1] == (j, 1)


@pytest.mark.parametrize("d", range(10))
def test_columns_round_trip_through_from_columns(d):
    for sector in sectors(d):
        m = _matrix_for(d, sector)
        assert (m.starts.typecode, m.entry_rows.typecode) == ("I", "I"), sector
        assert m.entry_values.typecode == "i", sector
        assert len(m.starts) == m.size() + 1 and m.starts[-1] == len(m.entry_rows)
        assert from_columns(m.labels, m.columns) == m, sector


@pytest.mark.parametrize("sep", [", ", ","])
def test_row_lines_render_the_dense_rows(sep):
    m = from_columns(
        [None] * 4, [((0, 1),), ((0, -12), (1, 1)), (), ((1, 345), (2, 2), (3, 1))]
    )
    assert list(m.row_lines(sep)) == [sep.join(map(str, row)) for row in m.rows]


def test_stored_entries_cost_under_16_bytes_each():
    """Compressed columns retain about 9 B per entry; (row, value) tuples
    retained about 57 B."""
    build_order(11)
    orbit_representatives(11, "++")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = sector_matrix(11, "++")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(m.entry_rows) > 20000
    assert retained < 16 * len(m.entry_rows), retained / len(m.entry_rows)


@pytest.fixture
def doctored_order(monkeypatch):
    """A fresh D=4 order whose spans the test may edit; change_matrix reads it."""
    order = Order(4)
    monkeypatch.setattr(basis, "build_order", lambda _: order)
    return order


DOCTORED_FAULTS = {
    "below-diagonal": "nonzero entry below the diagonal at (10, 3)",
    "missing-diagonal": "diagonal entry 10 is 0",
    "both": "diagonal entry 10 is 0",
}


@pytest.mark.parametrize(
    "edit",
    [
        "below-diagonal",  # a late element enters an early span
        "missing-diagonal",  # an element leaves its own span
        "both",  # two faults: the row-major first one is named
    ],
)
def test_doctored_span_names_the_dense_fault(doctored_order, edit):
    order = doctored_order
    sets = elements(order)
    early, late = sets[3].mask, sets[10].mask
    spans = {}
    if edit in ("below-diagonal", "both"):
        # late joins early's disjoint pairs; early | late lands at position 13
        spans[early] = [*order.gen_spans[early].pairs, late]
    if edit in ("missing-diagonal", "both"):
        # with no pair inside late left, late is no union of the rest
        spans[late] = [g for g in order.gen_spans[late].pairs if g & late != g]
    doctor(order, spans)
    want = dense_fault(dense_reference(order, 4, "all"), 1, "matrix D=4 sector=all")
    assert want == f"matrix D=4 sector=all: {DOCTORED_FAULTS[edit]}"
    with pytest.raises(FalsificationError) as exc:
        change_matrix(4, "all")
    assert str(exc.value) == want


@pytest.mark.parametrize(
    "columns",
    [
        [((0, 1),), ((0, 3), (1, 1)), ((2, 1),)],  # out of range above the diagonal
        [((0, 1),), ((1, 1), (2, 2)), ((2, 1),)],  # below the diagonal, in range
        [((0, 1), (2, 1)), ((1, 1),), ((0, 2), (2, 2))],  # below, then a bad diagonal
        [((0, 1),), ((0, 1),), ((2, 1),)],  # an empty diagonal
        [((0, 1),), ((0, 2), (1, 1)), ((0, 1), (1, 2), (2, 1))],  # unitriangular
    ],
)
def test_sparse_check_reports_the_row_major_fault(columns):
    m = from_columns([None] * 3, columns)
    want = dense_fault(m.rows, 2, "m")
    if want is None:
        _assert_unitriangular(m, 2, "m")
        return
    with pytest.raises(FalsificationError) as exc:
        _assert_unitriangular(m, 2, "m")
    assert str(exc.value) == want


@pytest.fixture
def no_dense_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("dense rows read on a library path")

    monkeypatch.setattr(BasisMatrix, "rows", property(refuse))


def test_second_basis_vectors_read_the_columns(no_dense_rows):
    vectors = second_basis_vectors(5, "plus")
    m = change_matrix(5, "plus")
    assert len(vectors) == m.size()
    for (label, combo), y, column in zip(vectors, m.labels, m.columns):
        assert label == y
        assert combo == tuple((m.labels[i], v) for i, v in column)


def test_involution_suite_reads_the_columns(no_dense_rows):
    assert verify._sweep(verify._check_involution_suite, [1, 3, 5]) is None


def test_tracer_read_surface():
    """The objects a benchmark trace reads: spans, down-sets and dense rows."""
    order = build_order(5)
    assert sum(len(s) - 1 for s in order.gen_spans.values()) > 0
    assert sum(bits.bit_count() for bits in order.down) >= len(order.down)
    for m in (change_matrix(5, "plus"), sector_matrix(5, "--")):
        rows = m.rows
        assert isinstance(rows, list) and all(isinstance(r, list) for r in rows)
        assert sum(len(r) for r in rows) == m.size() ** 2
        nnz = sum(len(column) for column in m.columns)
        assert sum(len(r) - r.count(0) for r in rows) == nnz
