"""The lift grid is walked once per D, by the inductive construction.

``enumerate_family`` and the per-D pair masks it is built from come from one
walk: each member of X_{D-2}, as a key of (i, j) byte pairs, is lifted into
all D slots with one ``lift_keys`` call, and the walk records where every
lift lands in X_D (``lift_positions``); the lift checks read those positions
through the epsilon table (``verify._lifts``), so the grid is held once, as
positions.  Building it calls ``lift_keys`` once per member of X_{D-2}, and
the rows hold |X_{D-2}|·D lifts.  The family and the grid equal those of the
``Matching`` lift in ``tests/oracles.py``, member for member and position for
position.  The lifts' images are checked against a direct recomputation;
once the tables exist, the lift checks, ``piece_bijections`` and
``triangular_closed_form`` run with the lift and epsilon functions disabled.
A doctored row entry that leaves X_D enters the inductive family:
``construction_equivalence`` names it, and every check that reads the
epsilon table FAILs with the collision it causes.  ``lift_matching`` is
entry k of the oracle's row and is checked against the lift computed arc by
arc, and the arcs of lifts are shared: equal arcs are one object across all
lifts.  Pair vectors are shared in the same way: equal (i, j, n) vectors are
one object.
"""

import pytest

import secondbasis.basis as basis
import secondbasis.verify as verify
from secondbasis.arcs import (
    Arc,
    Matching,
    arc_key,
    classify_pair,
    lift_keys,
    lift_matching,
    pair_masks,
)
from secondbasis.basis import (
    epsilon,
    epsilon_images,
    epsilon_inverse,
    epsilon_masks,
    epsilon_pairs,
)
from secondbasis.errors import DomainError, FalsificationError
from secondbasis.family import (
    distinguished_element,
    enumerate_family,
    ground_size,
    lift_positions,
    piece_of,
)
from tests.conftest import empty_store, rebind_everywhere, stored, sweep
from tests.oracles import embed, iter_matchings, lift_row, oracle_family

LIFT_CHECKS = ["lifting_recursion", "gamma_invariance", "n_membership_transport"]
TABLE_READERS = LIFT_CHECKS + ["piece_bijections", "triangular_closed_form"]


def oracle_lift(k, bp):
    """The lift arc by arc: embed both endpoints, re-canonicalise, validate."""
    n = bp.n + 2
    arcs = [classify_pair(embed(k, a.i), embed(k, a.j)) for a in bp.arcs]
    return Matching(arcs + [Arc(k, k + 1)], n)


def assert_lifts_match_the_oracle(bps, slots, d):
    for bp in bps:
        for k in slots:
            got, want = lift_matching(k, bp, d), oracle_lift(k, bp)
            assert (got.n, got.arcs, got.support_mask) == (
                want.n, want.arcs, want.support_mask
            ), (bp, k)


def test_lift_equals_the_oracle_on_every_small_matching():
    for n in (1, 3, 5, 7):  # to [1, n + 2], whose even D = n + 1 has every slot
        assert_lifts_match_the_oracle(iter_matchings(n), range(1, n + 2), n + 1)


@pytest.mark.parametrize("d", range(2, 12))
def test_lift_equals_the_oracle_on_the_lift_grid(d):
    assert_lifts_match_the_oracle(enumerate_family(d - 2), range(1, d + 1), d)


@pytest.mark.slow
def test_lift_equals_the_oracle_on_the_lift_grid_d13():
    assert_lifts_match_the_oracle(enumerate_family(11), range(1, 14), 13)


def test_lifts_share_their_arcs():
    shared = {}
    for bp in enumerate_family(7):
        for k in range(1, 10):
            for arc in lift_matching(k, bp, 9).arcs:
                assert shared.setdefault(arc, arc) is arc, (bp, k, arc)


@pytest.mark.parametrize("d", range(1, 10))
def test_lift_matching_is_entry_k_of_the_row(d):
    # the oracle's row of arcs, the library's row of keys, and lift_matching agree
    n = ground_size(d) - 2
    parents = list(iter_matchings(n)) if n <= 7 else enumerate_family(d - 2)
    for bp in parents:
        row, keys = lift_row(bp, d), lift_keys(arc_key(bp.arcs), d)
        assert len(row) == len(keys) == d
        for k in range(1, d + 1):
            assert row[k - 1] == lift_matching(k, bp, d).arcs, (bp, k)
            assert keys[k - 1] == arc_key(row[k - 1]), (bp, k)


@pytest.mark.parametrize("d", [*range(12), pytest.param(13, marks=pytest.mark.slow)])
def test_the_family_and_its_grid_equal_the_matching_lift(d):
    members, grid = oracle_family(d)
    assert enumerate_family(d) == members
    assert list(lift_positions(d)) == grid


def test_pair_vectors_are_shared():
    # each arc's pair mask is the one int of the process-wide table
    shared = {}
    for b in enumerate_family(9):
        for arc, g in zip(b.arcs, pair_masks(b.arcs)):
            assert g == 1 << arc.i | 1 << arc.j, (b, arc)
            assert shared.setdefault(arc, g) is g, (b, arc)


def test_rows_are_the_lifted_images(cold_store):
    for d in range(2, 10):
        want = [
            epsilon(lift_matching(k, bp, d), d).mask
            for bp in enumerate_family(d - 2)
            for k in range(1, d + 1)
        ]
        assert [m for _, _, row in verify._lifts(d) for m in row] == want
        with pytest.raises(TypeError):
            lift_positions(d)[0] = 0  # the stored grid is shared, so read-only
        with pytest.raises(TypeError):
            epsilon_masks(d)[0] = 0  # and so are the masks it is read through


@pytest.mark.parametrize("d", range(2, 12))
def test_positions_are_where_the_lifts_land(d):
    family = enumerate_family(d)
    slots = range(1, d + 1)
    lifts = [lift_matching(k, bp, d) for bp in enumerate_family(d - 2) for k in slots]
    assert [family[p] for p in lift_positions(d)] == lifts
    with pytest.raises(TypeError):
        lift_positions(d)[0] = 0  # the cached grid is shared, so read-only


def test_no_lift_grid_below_d2():
    assert len(lift_positions(0)) == len(lift_positions(1)) == 0
    for d in (0, 1):  # there is no X_{D-2} to lift
        message = rf"^D must be >= 0, got {d - 2}$"
        with pytest.raises(DomainError, match=message):
            list(verify._lifts(d))


@pytest.mark.parametrize("d", range(2, 10))
def test_the_lift_grid_is_walked_once(monkeypatch, cold_store, d):
    enumerate_family(d - 2)  # the levels below walk their own grids
    rows = []

    def counted(key, dd):
        rows.append(lift_keys(key, dd))
        return rows[-1]

    rebind_everywhere(monkeypatch, lift_keys, counted)
    enumerate_family(d)
    list(verify._lifts(d))
    assert len(rows) == len(enumerate_family(d - 2))
    assert sum(map(len, rows)) == len(enumerate_family(d - 2)) * d


def test_checks_read_the_tables(monkeypatch, cold_store):
    ranges = verify._ranges(7, False)
    for d in range(8):
        epsilon_pairs(d)
        if d >= 2:
            lift_positions(d)

    def disabled(*args):
        raise AssertionError("recomputed instead of read from a table")

    rebind_everywhere(monkeypatch, lift_keys, disabled)
    rebind_everywhere(monkeypatch, lift_matching, disabled)
    rebind_everywhere(monkeypatch, epsilon, disabled)
    rebind_everywhere(monkeypatch, basis._image, disabled)
    for name in TABLE_READERS:
        check, _, _ = verify._CHECKS[name]
        assert sweep(check, ranges[name]) is None, name


def test_verify_builds_the_image_tables_at_odd_d_only(monkeypatch, cold_store):
    # the checks read epsilon_masks by position; only the involution suite's
    # not-equivariant and primed-class clauses read the (member, image) tables
    built = []

    def spy(d):
        built.append(d)
        return epsilon_pairs(d)

    rebind_everywhere(monkeypatch, epsilon_pairs, spy)
    assert all(report.passed for report in verify.run_checks(11))
    assert built == list(range(1, 12, 2))  # once per odd D, by epsilon_images
    # the runner keeps no (member, image) table past its D
    assert stored(epsilon_images) == stored(epsilon_inverse) == []


D, K = 5, 2  # an odd D, so all three lift checks sweep it


@pytest.fixture
def stray_lift(monkeypatch):
    """Entry K of the row of member 0 of X_{D-2} replaced by a non-member's key.

    Returns (stray, the true lift it displaced).  Every per-D cache is
    cleared before and after the doctored run.
    """
    bp = enumerate_family(D - 2)[0]
    members = set(enumerate_family(D))
    stray = next(b for b in iter_matchings(ground_size(D)) if b not in members)
    displaced = lift_matching(K, bp, D)

    def doctored(key, d):
        row = lift_keys(key, d)
        if (d, key) == (D, arc_key(bp.arcs)):
            row[K - 1] = arc_key(stray.arcs)
        return row

    empty_store()
    rebind_everywhere(monkeypatch, lift_keys, doctored)
    yield stray, displaced
    empty_store()


def test_a_stray_lift_is_a_falsification(stray_lift):
    stray, _ = stray_lift
    assert stray in enumerate_family(D)
    with pytest.raises(FalsificationError) as exc:
        epsilon_pairs(D)
    message = str(exc.value)
    assert message.startswith(f"epsilon collision at D={D}: ")
    assert repr(stray) in message


def test_the_stray_collides_in_the_image_table(stray_lift):
    stray, _ = stray_lift
    with pytest.raises(FalsificationError) as exc:
        epsilon_masks(D)
    message = str(exc.value)
    assert message.startswith(f"epsilon collision at D={D}: ")
    assert repr(stray) in message


def test_run_checks_fails_the_three_lift_checks(stray_lift):
    stray, displaced = stray_lift
    reports = {r.name: r for r in verify.run_checks(D)}
    assert list(reports) == verify.CHECK_NAMES
    assert reports["construction_equivalence"].detail == {
        "D": D,
        "filter_only": [displaced.to_pairs()],
        "inductive_only": [stray.to_pairs()],
    }
    table_readers = LIFT_CHECKS + [
        "piece_bijections",
        "unique_bijection",
        "order_antisymmetry",
        "involution_suite",
    ]
    for name in table_readers:
        detail = reports[name].detail
        assert detail["kind"] == "falsification", name
        assert detail["message"].startswith(f"epsilon collision at D={D}: "), name
    failed = [name for name, r in reports.items() if not r.passed]
    assert sorted(failed) == sorted(
        ["construction_equivalence", "piece_counts"] + table_readers
    )


@pytest.mark.parametrize(
    "pairs, reader",
    [
        ([(5, 1), (4, 2)], piece_of),  # two double-primed arcs, N unmatched
        ([(1, 4), (2, 5), (8, 6)], distinguished_element),  # leftovers [1, 5]
    ],
    ids=["parity", "two-leftovers"],
)
def test_a_lift_off_the_rules_fails_the_table_build(monkeypatch, cold_store, pairs, reader):
    # the image table reads a member's label and leftover off its arcs, with
    # the checks and the message of the Matching-level reader
    d = 7
    bad = Matching.from_pairs(pairs, ground_size(d))
    with pytest.raises((DomainError, FalsificationError)) as want:
        reader(bad, d)
    parent = arc_key(enumerate_family(d - 2)[0].arcs)

    def doctored(key, dd):
        row = lift_keys(key, dd)
        if (dd, key) == (d, parent):
            row[0] = arc_key(bad.arcs)
        return row

    rebind_everywhere(monkeypatch, lift_keys, doctored)
    with pytest.raises(type(want.value)) as exc:
        epsilon_masks(d)
    assert str(exc.value) == str(want.value)
    assert repr(bad) in str(exc.value)
