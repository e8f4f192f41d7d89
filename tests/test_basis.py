"""Epsilon, the order it generates, the matrices, and the symbol bijections."""

import hashlib
import heapq
import random
from fractions import Fraction

import pytest

from secondbasis import verify
from secondbasis.arcs import Matching, cyclic_interval_mask, pair_masks
from secondbasis.basis import (
    boundary_correction,
    build_order,
    change_matrix,
    epsilon,
    epsilon_inverse,
    epsilon_masks,
    epsilon_pairs,
    piece_cardinality,
    primitive_image,
    reduce_symbol,
    second_basis_vectors,
    sector_label,
    series_size,
    symbol_of,
    unique_bijection_check,
)
from secondbasis.errors import DomainError
from secondbasis.f2 import EvenSet, Span, span_masks
from secondbasis.family import (
    PieceLabel,
    enumerate_family,
    ground_size,
    labeled_primitives,
    piece_of,
    pieces,
)
from tests.conftest import below, clear_library_caches, elements, position
from tests.oracles import iter_matchings


def span_of(b):
    """The span of b's pair-vectors, built from its arcs."""
    return Span(span_masks(pair_masks(b.arcs), b.n))


def m(pairs, n):
    return Matching.from_pairs(pairs, n)


def test_boundary_correction():
    for b in enumerate_family(4):
        assert boundary_correction(b, 4) == EvenSet.empty(5)
    assert boundary_correction(m([(3, 1)], 5), 3) == EvenSet([4, 5], 5)
    assert boundary_correction(m([(4, 2)], 5), 3) == EvenSet([5, 1], 5)
    assert boundary_correction(m([(4, 5)], 5), 3) == EvenSet.empty(5)


def test_epsilon_examples():
    assert epsilon(m([], 5), 4) == EvenSet.empty(5)
    assert epsilon(m([(2, 3), (1, 4)], 5), 4) == EvenSet([1, 4], 5)
    assert epsilon(m([(8, 2), (7, 3), (9, 1)], 9), 7) == EvenSet([1, 3, 7, 9], 9)
    assert primitive_image(6, PieceLabel(-2)) == EvenSet([1, 7], 7)


def oracle_epsilon(b, d):
    """Epsilon arc by arc: the cyclic intervals summed, then the correction."""
    mask = 0
    for arc in b.arcs:
        mask ^= cyclic_interval_mask(arc, b.n)
    return EvenSet.from_mask(mask, b.n) ^ boundary_correction(b, d)


@pytest.mark.parametrize("d", [*range(12), pytest.param(13, marks=pytest.mark.slow)])
def test_epsilon_equals_the_arc_by_arc_oracle(d):
    want = tuple((b, oracle_epsilon(b, d)) for b in enumerate_family(d))
    assert epsilon_pairs(d) == want


@pytest.mark.parametrize("d", range(12))
def test_epsilon_masks_are_the_images_in_family_order(d):
    masks = epsilon_masks(d)
    assert list(masks) == [epsilon(b, d).mask for b in enumerate_family(d)]
    assert masks.readonly
    with pytest.raises(TypeError):
        masks[0] = 0


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_epsilon_equals_the_oracle_on_every_small_matching():
    # non-members included: the parity and uniqueness faults of the odd-D
    # correction must still be raised, with the oracle's type and message
    raised = set()
    for n in (1, 3, 5, 7):
        for d in range(max(n - 2, 0), n):  # the D's with ground set [1, n]
            for b in iter_matchings(n):
                got = outcome(epsilon, b, d)
                assert got == outcome(oracle_epsilon, b, d), (b, d)
                if isinstance(got, tuple):
                    raised.add(got[0].__name__)
    assert raised == {"DomainError", "FalsificationError"}


def test_epsilon_matches_primitive_closed_forms():
    for d in range(0, 12):
        for label, q in labeled_primitives(d):
            image = epsilon(q, d)
            assert image == primitive_image(d, label)
            assert image.gamma() == label.t


def test_epsilon_recursion():
    for d in range(2, 8):
        assert verify._check_recursion(d) is None


def test_epsilon_lands_in_matching_piece():
    for d in range(0, 8):
        for b in enumerate_family(d):
            assert sector_label(epsilon(b, d), d) == piece_of(b, d)


def test_epsilon_bijective():
    for d in range(0, 8):
        inv = epsilon_inverse(d)
        assert len(inv) == 1 << (ground_size(d) - 1)


def test_epsilon_in_own_span_all_desk_scales():
    for d in range(0, 12):
        for b in enumerate_family(d):
            assert epsilon(b, d).mask in span_of(b)


def test_order_d2_brute_force():
    # frozen: at D=2 only the empty set is strictly comparable
    order = build_order(2)
    assert [tuple(x.members) for x in elements(order)] == [
        (), (1, 2), (2, 3), (1, 3)
    ]
    empty = EvenSet([], 3)
    for y in elements(order):
        assert set(below(order, y)) == {empty, y}


def test_order_is_partial_order():
    for d in range(0, 8):
        order = build_order(d)
        lower = {y: set(below(order, y)) for y in elements(order)}
        for y, ys in lower.items():
            assert y in ys
            # antisymmetry: mutual comparability only on the diagonal
            assert all(y not in lower[x] for x in ys if x != y)


@pytest.mark.parametrize("d", range(12))
def test_order_labels_are_the_sector_labels(d):
    order = build_order(d)
    assert len(order.labels) == len(elements(order))
    for x, label in zip(elements(order), order.labels):
        assert label == sector_label(x, d)
    # interned: one label object per piece
    assert len({id(label) for label in order.labels}) == len(set(order.labels))


@pytest.mark.parametrize("d", range(12))
def test_the_order_labels_each_class_once(monkeypatch, d):
    # a label is fixed by gamma and, at odd D, the N bit, so Order reads one
    # label per class
    from secondbasis.basis import Order, _mask_label
    from tests.conftest import rebind_everywhere

    epsilon_pairs(d)  # built before counting
    calls = []
    n = ground_size(d)

    def counted(m, dd):
        calls.append(EvenSet.from_mask(m, n))
        return _mask_label(m, dd)

    rebind_everywhere(monkeypatch, _mask_label, counted)
    order = Order(d)

    def kind(x):
        return (x.gamma(), n in x) if d % 2 else x.gamma()

    assert sorted(map(kind, calls)) == sorted({kind(x) for x in elements(order)})


@pytest.fixture
def fresh_orders():
    build_order.cache_clear()
    yield
    build_order.cache_clear()


def test_emit_commands_leave_the_down_sets_unbuilt(fresh_orders, capsys):
    from secondbasis.cli import main

    for d in range(6):
        assert main(["table", "--D", str(d)]) == 0
        assert main(["symbols", "--D", str(d)]) == 0
        for sector in ("plus", "minus", "pp", "mm") if d % 2 else ("all",):
            assert main(["matrix", "--D", str(d), "--sector", sector]) == 0
    capsys.readouterr()
    assert build_order.cache_info().currsize == 6
    for d in range(6):
        assert "down" not in build_order(d).__dict__, d


def test_table_and_matrix_build_no_image_or_piece_table(capsys):
    from secondbasis.cli import main

    clear_library_caches()
    try:
        assert main(["table", "--D", "7"]) == 0
        assert main(["matrix", "--D", "7", "--sector", "pp"]) == 0
        capsys.readouterr()
        assert epsilon_pairs.cache_info().currsize == 0
        assert pieces.cache_info().currsize == 0
    finally:
        clear_library_caches()


def test_passing_checks_leave_the_down_sets_unbuilt(fresh_orders):
    assert all(report.passed for report in verify.run_checks(7))
    for d in range(8):
        assert "down" not in build_order(d).__dict__, d


def _eager_down(order):
    # the closure read straight off the spans, member by member in extension order
    down = {}
    for x in elements(order):
        bits = 1 << position(order, x.mask)
        for z in order.gen_spans[x.mask]:
            if z != x.mask:
                bits |= down[z]
        down[x.mask] = bits
    return [down[x.mask] for x in elements(order)]


def test_lazy_down_sets_equal_the_eager_closure():
    for d in range(10):
        order = build_order(d)
        assert order.down == _eager_down(order), d


def reference_extension(d):
    """Kahn's extension keyed by mask over frozenset spans, as Order once built it."""
    n = ground_size(d)
    spans = {
        x.mask: frozenset(span_of(b)) for b, x in epsilon_pairs(d)
    }
    succ = {m: [] for m in spans}
    indeg = {m: 0 for m in spans}
    for m, span in spans.items():
        for z in span:
            if z != m:
                succ[z].append(m)
                indeg[m] += 1

    def entry(mask):
        piece = sector_label(EvenSet.from_mask(mask, n), d)
        return (piece.sort_key(), mask, piece)

    heap = [entry(m) for m, deg in indeg.items() if deg == 0]
    heapq.heapify(heap)
    masks, labels = [], []
    while heap:
        _, m, piece = heapq.heappop(heap)
        masks.append(m)
        labels.append(piece)
        for m2 in succ[m]:
            indeg[m2] -= 1
            if indeg[m2] == 0:
                heapq.heappush(heap, entry(m2))
    assert len(masks) == len(spans)
    return masks, labels


@pytest.mark.parametrize(
    "d", [*range(10), *(pytest.param(d, marks=pytest.mark.slow) for d in (11, 13))]
)
def test_extension_equals_the_mask_keyed_reference(d):
    masks, labels = reference_extension(d)
    order = build_order(d)
    assert [order.masks[p] for p in order.extension] == masks
    assert order.labels == labels


@pytest.mark.parametrize("d", range(10))
def test_the_views_equal_the_reference_dicts(d):
    order = build_order(d)
    spans = {x.mask: span_of(b) for b, x in epsilon_pairs(d)}
    assert list(order.gen_spans) == [x.mask for x in elements(order)]
    assert len(order.gen_spans) == len(spans)
    for m, span in spans.items():
        view = order.gen_spans[m]
        assert view.pairs == span.pairs and list(view) == list(span)
        assert order.members(m) == list(span)


@pytest.mark.parametrize(
    "key",
    [
        0b1110,  # {1, 2, 3}: odd size
        0b11,  # bit 0
        0b1000010,  # {1, 6}: past N = 5
        -2,
        "6",
        6.0,
        None,
        EvenSet([1, 2], 5),
    ],
)
def test_the_views_refuse_keys_outside_e_n(key):
    view = build_order(3).gen_spans
    with pytest.raises(KeyError):
        view[key]
    assert key not in view


# sha256 of the lines f"{mask} {label}\n" over build_order(15), 65,536
# elements; the frozenset reference above is too large to build at D=15
D15_EXTENSION_SHA256 = "9c08dac360c459a871c050915faea4bd4d69a746f0de5af36ba7183647f61325"


@pytest.mark.slow
def test_d15_extension_digest():
    clear_library_caches()
    try:
        order = build_order(15)
        digest = hashlib.sha256()
        for p, label in zip(order.extension, order.labels):
            digest.update(f"{order.masks[p]} {label}\n".encode())
        assert len(order.extension) == 1 << 16
        assert digest.hexdigest() == D15_EXTENSION_SHA256
    finally:
        clear_library_caches()


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_plus_and_minus_positions_partition_the_extension(d):
    order = build_order(d)
    plus, minus = order.sector_positions("plus"), order.sector_positions("minus")
    assert sorted([*plus, *minus]) == list(range(len(order.extension)))
    assert list(plus) == sorted(plus) and list(minus) == sorted(minus)
    # plus avoids N, minus contains it
    tops = [order.masks[p] >> order.n & 1 for p in order.extension]
    assert {tops[p] for p in plus} == {0} and {tops[p] for p in minus} == {1}


def test_sector_positions_refuse_a_sector_outside_d():
    assert list(build_order(4).sector_positions("all")) == list(range(16))
    for d, sector, message in [
        (5, "all", "sector 'all' needs even D"),
        (4, "plus", "sector 'plus' needs odd D"),
        (4, "minus", "sector 'minus' needs odd D"),
        (5, "pp", "unknown sector 'pp'"),
    ]:
        with pytest.raises(DomainError) as exc:
            build_order(d).sector_positions(sector)
        assert str(exc.value) == message


def test_unique_bijection_certificate():
    for d in (0, 1, 2, 3, 4, 7):
        assert unique_bijection_check(d) is None


def test_change_matrix_d2_frozen():
    matrix = change_matrix(2, "all")
    assert [tuple(x.members) for x in matrix.labels] == [
        (), (1, 2), (2, 3), (1, 3)
    ]
    assert matrix.rows == [
        [1, 1, 1, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_change_matrix_sectors():
    assert change_matrix(5, "plus").size() == 32
    assert change_matrix(5, "minus").size() == 32
    with pytest.raises(DomainError):
        change_matrix(4, "plus")
    with pytest.raises(DomainError):
        change_matrix(5, "all")


def test_empty_image_column_is_unit():
    for d in (2, 4, 3, 5):
        sector = "all" if d % 2 == 0 else "plus"
        matrix = change_matrix(d, sector)
        j = matrix.labels.index(EvenSet.empty(ground_size(d)))
        column = [matrix.rows[i][j] for i in range(matrix.size())]
        assert sum(column) == 1 and column[j] == 1


def bareiss_det(rows):
    """Fraction-free determinant, independent of any triangularity assumption."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def test_second_basis_vectors_unimodular():
    vectors = second_basis_vectors(4, "all")
    assert len(vectors) == 16
    matrix = change_matrix(4, "all")
    assert bareiss_det(matrix.rows) == 1
    # every column is the expansion of its label in the standard basis
    for j, (label, combo) in enumerate(vectors):
        assert label == matrix.labels[j]
        assert all(coeff == 1 for _, coeff in combo)
        assert (label, 1) in combo  # diagonal term


def test_symbol_of_even_d():
    sym = symbol_of(EvenSet([], 3), 2)
    assert sorted(sym.s) == [2] and sorted(sym.t) == [1, 3]
    assert sym.defect == -1 and sym.series() == 1


def set_rule_symbol(x, d):
    """(S, T, flavor) by the star rule on sets, as the library first wrote it."""
    n, members = x.n, set(x.members)
    star = frozenset(
        {i for i in members if i % 2} | {i for i in range(2, n + 1, 2) if i not in members}
    )
    starstar = frozenset(range(1, n + 1)) - star
    if d % 2 == 0:
        return star, starstar, "odd"
    if n not in x:
        return starstar - {n}, star, "plus"
    return starstar, star - {n}, "minus"


@pytest.mark.parametrize("d", range(10))
def test_symbol_of_follows_the_set_rule(d):
    for x in elements(build_order(d)):
        sym = symbol_of(x, d)
        assert (sym.s, sym.t, sym.flavor) == set_rule_symbol(x, d), x


def test_symbol_defect_identity_random():
    rng = random.Random(17)
    for d in (2, 4, 5, 7, 9, 11):
        n = ground_size(d)
        for _ in range(50):
            size = rng.choice(range(0, n + 1, 2))
            x = EvenSet(rng.sample(range(1, n + 1), size), n)
            members = set(x.members)
            star = {i for i in members if i % 2} | {
                i for i in range(2, n + 1, 2) if i not in members
            }
            starstar = set(range(1, n + 1)) - star
            assert len(starstar) - len(star) == 2 * x.gamma() + 1


def test_symbol_sectors_odd_d():
    d, n = 3, 5
    for x in elements(build_order(d)):
        sym = symbol_of(x, d)
        if n in x:
            assert sym.flavor == "minus" and sym.defect == 2 * x.gamma() + 2
            assert sym.defect % 4 == 2
        else:
            assert sym.flavor == "plus" and sym.defect == 2 * x.gamma()
            assert sym.defect % 4 == 0


def test_symbol_bijective_with_series_counts():
    for d in (2, 4, 3, 5):
        n = ground_size(d)
        order = build_order(d)
        if d % 2 == 0:
            groups = {}
            for x in elements(order):
                groups.setdefault(symbol_of(x, d).series(), set()).add(symbol_of(x, d))
            assert sum(len(v) for v in groups.values()) == 1 << (n - 1)
            for s, syms in groups.items():
                assert len(syms) == series_size(d, s)
        else:
            for sector, keep in (("plus", False), ("minus", True)):
                syms = {
                    symbol_of(x, d)
                    for x in elements(order)
                    if (n in x) == keep
                }
                assert len(syms) == 1 << (n - 2)
                by_series = {}
                for sym in syms:
                    by_series.setdefault(sym.series(), []).append(sym)
                for s, group in by_series.items():
                    assert len(group) == series_size(d, s)


def test_reduce_symbol():
    sym = reduce_symbol({2, 5}, {5, 9}, {5}, {2, 5, 9})
    assert sorted(sym.s) == [1] and sorted(sym.t) == [2]
    # identity on an already-standard symbol
    sym2 = reduce_symbol({1, 3}, {2}, set(), {1, 2, 3})
    assert sorted(sym2.s) == [1, 3] and sorted(sym2.t) == [2]
    assert sym2.defect == 1
    with pytest.raises(ValueError):
        reduce_symbol({1}, {2}, set(), {1, 2, 3})  # does not cover U


def test_reduce_preserves_defect():
    rng = random.Random(23)
    for _ in range(50):
        u = set(rng.sample(range(1, 20), rng.randint(2, 8)))
        u_prime = set(rng.sample(sorted(u), rng.randint(0, len(u) - 1)))
        core = sorted(u - u_prime)
        s_extra = set(rng.sample(core, rng.randint(0, len(core))))
        s = u_prime | s_extra
        t = u_prime | (set(core) - s_extra)
        sym = reduce_symbol(s, t, u_prime, u)
        assert sym.defect == len(s) - len(t)


def test_piece_cardinality_examples():
    assert piece_cardinality(6, PieceLabel(0)) == 35
    assert piece_cardinality(7, PieceLabel(0, "+")) == 70
    assert piece_cardinality(6, PieceLabel(-4)) == 1
    assert series_size(2, 1) == 3
    assert series_size(7, 0) == 70


def test_piece_cardinality_matches_enumeration():
    for d in range(0, 9):
        for label, members in pieces(d).items():
            assert piece_cardinality(d, label) == len(members)
