"""The families X_D: primitives, induction, the three-property filter, pieces."""

import re
from collections import Counter
from itertools import combinations

import pytest

import secondbasis.family as family
import secondbasis.verify as verify
from secondbasis.arcs import Arc, Matching, cyclic_interval_mask
from secondbasis.errors import DomainError, FalsificationError, ResourceGuardError
from secondbasis.family import (
    PieceLabel,
    coverings_ok,
    distinguished_element,
    enumerate_family,
    filter_family,
    ground_size,
    is_member,
    labeled_primitives,
    nested_pairing,
    parity_ok,
    piece_of,
    pieces,
    primitives,
)
from tests.conftest import (
    covering_requirements,
    nested_candidates,
    parity_target,
    primed_starts,
    tile,
)
from tests.oracles import iter_matchings, iter_primed_matchings


def m(pairs, n):
    return Matching.from_pairs(pairs, n)


def arcs_set(b):
    return frozenset((a.i, a.j) for a in b.arcs)


# frozen primitive lists (reference data)
PRIMITIVES = {
    0: [[]],
    1: [[], [(3, 1)], [(2, 3)]],
    2: [[], [(3, 1)]],
    3: [[], [(4, 2)], [(3, 1)], [(5, 1)], [(4, 5)]],
    4: [[], [(5, 1)], [(5, 1), (4, 2)]],
    5: [[], [(6, 2)], [(5, 1)], [(7, 1)], [(7, 1), (6, 2), (5, 3)], [(6, 7)],
        [(6, 7), (5, 1), (4, 2)]],
    6: [[], [(7, 1)], [(7, 1), (6, 2)], [(7, 1), (6, 2), (5, 3)]],
    7: [[], [(8, 2)], [(8, 2), (7, 3), (6, 4)], [(7, 1)], [(7, 1), (6, 2), (5, 3)],
        [(9, 1)], [(9, 1), (8, 2), (7, 3)], [(8, 9)], [(8, 9), (7, 1), (6, 2)]],
    8: [[], [(9, 1)], [(9, 1), (8, 2)], [(9, 1), (8, 2), (7, 3)],
        [(9, 1), (8, 2), (7, 3), (6, 4)]],
}


@pytest.mark.parametrize("d", sorted(PRIMITIVES))
def test_primitives_match_reference(d):
    got = {frozenset(arcs_set(b)) for b in primitives(d)}
    want = {frozenset(p) for p in PRIMITIVES[d]}
    assert got == want


def test_primitive_labels_unique_per_piece():
    for d in range(0, 12):
        labels = [label for label, _ in labeled_primitives(d)]
        assert len(labels) == len(set(labels))
        for label, q in labeled_primitives(d):
            assert piece_of(q, d) == label


def test_enumerate_small():
    assert {b.arcs for b in enumerate_family(0)} == {()}
    assert {arcs_set(b) for b in enumerate_family(1)} == {
        frozenset(), frozenset({(1, 2)}), frozenset({(2, 3)}), frozenset({(3, 1)})
    }
    assert {arcs_set(b) for b in enumerate_family(2)} == {
        frozenset(), frozenset({(1, 2)}), frozenset({(2, 3)}), frozenset({(3, 1)})
    }


def test_family_sizes():
    for d in range(0, 10):
        n = ground_size(d)
        assert len(enumerate_family(d)) == 1 << (n - 1)


def test_piece_split_d4():
    sizes = {str(label): len(members) for label, members in pieces(4).items()}
    assert sizes == {"0": 10, "-2": 5, "2": 1}


def test_nested_pairing():
    assert nested_pairing(m([], 3)) == ()
    assert nested_pairing(m([(7, 1), (6, 2), (5, 3)], 7)) == (1, 2, 3, 5, 6, 7)
    assert nested_pairing(m([(3, 1), (4, 2)], 5)) is None


def test_nested_pairing_against_brute_force():
    # oracle: search every increasing sequence for a matching nested pairing
    def brute(b):
        b0 = {(a.i, a.j) for a in b.double_primed()}
        s = len(b0)
        for seq in combinations(range(1, b.n + 1), 2 * s):
            if {(seq[2 * s - 1 - r], seq[r]) for r in range(s)} == b0:
                return seq
        return None

    for b in iter_matchings(7):
        assert (nested_pairing(b) is None) == (brute(b) is None)
        if nested_pairing(b) is not None:
            assert nested_pairing(b) == brute(b)


def test_parity_property():
    # even D: the parity target is the actual parity, so the check always holds
    for b in enumerate_family(4):
        assert parity_ok(b, 4)
    b = m([(4, 2)], 5)
    assert parity_target(b, 3) == 1 and parity_ok(b, 3)
    b = m([(5, 1), (3, 4)], 5)  # largest double-primed coordinate is N
    assert parity_target(b, 3) == 1 and parity_ok(b, 3)
    assert not parity_ok(m([(3, 1), (4, 5)], 5), 3)


def walk(pairs, n, lo, hi):
    """The forced walk on [lo, hi]: (tiled leaving nothing out, the points a
    cover can leave out alone)."""
    ends = family._ends(m(pairs, n))
    return family._covered(ends, lo, hi), family._leftovers(ends, lo, hi)


def test_cover_interval():
    assert walk([], 3, 2, 1) == (True, [])
    assert walk([(2, 3), (1, 4)], 5, 2, 3) == (True, [])  # the arc (2, 3)
    assert walk([(3, 1)], 5, 4, 4) == (False, [4])
    assert walk([], 5, 2, 3) == (False, [])  # even size, so no single leftover
    # an empty interval, whatever its ends, is covered exactly without a leftover
    assert walk([], 3, 3, -2) == (True, [])
    assert walk([(1, 4)], 5, 2, 3) == (False, [])
    assert walk([(1, 2), (4, 5)], 5, 1, 5) == (False, [3])
    assert walk([(2, 3)], 5, 1, 5) == (False, [])  # 1 and 4, 5 stay uncovered
    assert walk([(1, 2), (3, 4)], 5, 1, 5) == (False, [5])
    assert walk([(2, 3), (4, 5)], 5, 1, 5) == (False, [1])


def test_covering_requirements_table():
    b = m([(3, 1)], 5)
    assert covering_requirements(b, 3, (1, 3)) == [(1, 0, 0), (4, 4, 1)]
    b = m([(3, 1)], 3)
    assert covering_requirements(b, 1, (1, 3)) == [(1, 0, 0), (4, 3, 0)]


def test_coverings_examples():
    assert coverings_ok(m([], 3), 2, ())
    assert not is_member(m([(3, 1), (4, 5)], 5), 3)
    assert is_member(m([(6, 7), (5, 1), (4, 2)], 7), 5)


def search_nested_pairing(b):
    """The first property by its definition: sort the support, pair it up."""
    b0 = b.double_primed()
    seq = sorted(x for a in b0 for x in (a.i, a.j))
    s = len(b0)
    want = {Arc(seq[2 * s - 1 - r], seq[r]) for r in range(s)}
    return tuple(seq) if want == set(b0) else None


def search_parity_ok(b, d):
    """The second property read off the sorted double-primed support."""
    support = sorted(x for a in b.double_primed() for x in a)
    s = len(support) // 2
    if d % 2 == 0 or not s:
        target = s % 2
    else:
        n_matched = bool(b.support_mask >> b.n & 1)
        target = 0 if n_matched and support[-1] != b.n else 1
    return s % 2 == target


def search_coverings_ok(b, d, seq):
    """The third property: the tiling search on every row of the table."""
    starts = primed_starts(b)
    return all(
        tile(starts, lo, hi, e) is not None
        for lo, hi, e in covering_requirements(b, d, seq)
    )


def search_is_member(b, d):
    seq = search_nested_pairing(b)
    return seq is not None and search_parity_ok(b, d) and search_coverings_ok(b, d, seq)


def assert_walk_equals_the_search(n):
    """The membership predicates on every matching of [1, n], at both D on
    [1, n], and the forced walk, against the search.

    A cover uses primed arcs only, so the walk is compared on every primed
    matching of [1, n], for every interval lo <= hi + 1: ``_covered`` with
    the search's tiling that leaves nothing out, and ``_leftovers`` with
    every point p a tiling can leave out alone, [lo, p-1] and [p+1, hi]
    tiled.
    """
    members = 0
    for b in iter_matchings(n):
        seq = nested_pairing(b)
        assert seq == search_nested_pairing(b), b
        for d in (n - 2, n - 1):
            if d < 0:
                continue
            assert parity_ok(b, d) == search_parity_ok(b, d), (b, d)
            if seq is not None:
                assert coverings_ok(b, d, seq) == search_coverings_ok(b, d, seq), (b, d)
            member = is_member(b, d)
            assert member == search_is_member(b, d), (b, d)
            members += member
    assert members == (1 << n - 1) * (2 if n > 1 else 1)  # |X_D| at each D
    for arcs, _ in iter_primed_matchings(((1 << n) - 1) << 1):
        b = Matching(arcs, n)
        starts, ends = primed_starts(b), family._ends(b)
        tiled = {
            (lo, hi): tile(starts, lo, hi, 0) is not None
            for lo in range(1, n + 2)
            for hi in range(lo - 1, n + 1)
        }
        for (lo, hi), covered in tiled.items():
            assert family._covered(ends, lo, hi) == covered, (b, lo, hi)
            left = [p for p in range(lo, hi + 1) if tiled[lo, p - 1] and tiled[p + 1, hi]]
            assert family._leftovers(ends, lo, hi) == left, (b, lo, hi)


@pytest.mark.parametrize("n", range(1, 12, 2))
def test_the_walk_equals_the_tiling_search(n):
    assert_walk_equals_the_search(n)


@pytest.mark.slow
def test_the_walk_equals_the_tiling_search_at_n13():
    assert_walk_equals_the_search(13)


def raw_scan(d):
    """The oracle: every partial matching of [1, N] that passes is_member."""
    return [b for b in iter_matchings(ground_size(d)) if is_member(b, d)]


def test_filter_matches_enumeration():
    # the raw scan's members, listed in the order of enumerate_family
    for d in range(0, 10):
        want = sorted(raw_scan(d), key=lambda b: b.arcs)
        assert filter_family(d) == want == list(enumerate_family(d)), f"D={d}"


def candidate_route(d):
    """The oracle: every nested candidate that passes parity_ok and coverings_ok."""
    return sorted(
        (
            b
            for b, seq in nested_candidates(ground_size(d))
            if parity_ok(b, d) and coverings_ok(b, d, seq)
        ),
        key=lambda b: b.arcs,
    )


@pytest.mark.parametrize(
    "d", [*range(0, 10), *(pytest.param(d, marks=pytest.mark.slow) for d in (10, 11))]
)
def test_filter_equals_the_candidate_route(d):
    assert filter_family(d) == candidate_route(d)


def test_filter_runs_the_predicates_on_survivors_only(monkeypatch):
    # once per member, inside the is_member certificate
    from tests.conftest import rebind_everywhere

    calls = {"parity_ok": 0, "coverings_ok": 0}
    for name in calls:
        real = getattr(family, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        rebind_everywhere(monkeypatch, real, counted)
    for d in range(0, 10):
        calls.update(parity_ok=0, coverings_ok=0)
        members = filter_family(d)
        for name, count in calls.items():
            assert count == len(members), (d, name, count)


def brute_tilings(lo, hi, left):
    """The oracle: primed matchings of [lo, hi] whose arcs' interiors and,
    when a budget is given, [lo, hi] itself tile as ``_Tilings`` demands."""
    free = sum(1 << p for p in range(lo, hi + 1))
    for arcs, _ in iter_primed_matchings(free):
        starts = {i: [j] for i, j in arcs}
        if any(tile(starts, i + 1, j - 1, 0) is None for i, j in arcs):
            continue
        if left is None or tile(starts, lo, hi, left) is not None:
            yield arcs


def recursive_tilings(lo, hi, left):
    """The order of the table's tilings: lo uncovered first, then each arc
    {lo, q} by q, with every tiling of its interior and then of [q+1, hi]."""
    if left is not None and max(0, hi - lo + 1) % 2 != left:
        return
    if lo > hi:
        yield ()
        return
    if left != 0:
        yield from recursive_tilings(lo + 1, hi, None if left is None else left - 1)
    for q in range(lo + 1, hi + 1, 2):
        for inner in recursive_tilings(lo + 1, q - 1, 0):
            for rest in recursive_tilings(q + 1, hi, left):
                yield (Arc(lo, q),) + inner + rest


def test_tilings_equal_the_brute_force():
    cases = 0
    table = family._Tilings()
    for lo in range(1, 11):
        for hi in range(lo - 1, 11):
            for left in (0, 1, None):
                got = table[lo, hi, left]
                assert list(got) == list(recursive_tilings(lo, hi, left)), (lo, hi, left)
                assert len(set(got)) == len(got), (lo, hi, left)
                for arcs in got:
                    assert list(arcs) == sorted(arcs, key=min), (lo, hi, left, arcs)
                assert set(got) == set(brute_tilings(lo, hi, left)), (lo, hi, left)
                cases += 1
    assert cases == 195


def test_filter_tiles_each_region_once_per_call(monkeypatch):
    built = Counter()

    class Counted(family._Tilings):
        def __missing__(self, key):
            built[key] += 1
            return super().__missing__(key)

    monkeypatch.setattr(family, "_Tilings", Counted)
    assert filter_family(11) == list(enumerate_family(11))
    assert built and set(built.values()) == {1}
    # the table is the call's own: the next call builds every region again
    filter_family(11)
    assert set(built.values()) == {2}


def test_a_doctored_table_does_not_outlive_its_call(monkeypatch):
    class Emptied(family._Tilings):
        def __missing__(self, key):
            out = super().__missing__(key)
            if key == (1, 5, None):  # the free region of the empty sequence
                out = self[key] = ()
            return out

    monkeypatch.setattr(family, "_Tilings", Emptied)
    dropped = [b for b in enumerate_family(4) if not b.double_primed()]
    assert dropped and filter_family(4) == [
        b for b in enumerate_family(4) if b not in dropped
    ]
    monkeypatch.undo()
    assert filter_family(4) == list(enumerate_family(4))


@pytest.mark.parametrize("d", [*range(0, 12), pytest.param(13, marks=pytest.mark.slow)])
def test_filter_members_come_out_by_lower_point(d):
    members = filter_family(d)
    for b in members:
        assert list(b.arcs) == sorted(b.arcs, key=lambda a: a.lo), b
    assert members == list(enumerate_family(d))


def test_doctored_segment_helper_fails_equivalence(monkeypatch):
    d = 5
    # no other member of X_5 has this sequence: its one free point stays alone
    victim = m([(7, 1), (6, 2), (5, 3)], 7)
    seq = nested_pairing(victim)
    real = family._sequence_segments

    def doctored(s, dd, n, n_matched):
        segs = real(s, dd, n, n_matched)
        # an empty segment cannot leave a point uncovered
        return segs + [(1, 0, 1)] if s == seq else segs

    monkeypatch.setattr(family, "_sequence_segments", doctored)
    assert filter_family(d) == [b for b in enumerate_family(d) if b != victim]
    assert verify._sweep(verify._check_construction_equivalence, list(range(d + 1))) == {
        "D": d,
        "filter_only": [],
        "inductive_only": [victim.to_pairs()],
    }
    report = verify.run_checks(d)[0]
    assert report.name == "construction_equivalence" and not report.passed


@pytest.mark.parametrize("n", range(1, 12, 2))
def test_candidates_are_the_raw_matchings_with_a_nested_pairing(n):
    candidates = list(nested_candidates(n))
    assert all(nested_pairing(b) == seq for b, seq in candidates)
    assert len({b for b, _ in candidates}) == len(candidates)
    assert len(candidates) == sum(
        1 for b in iter_matchings(n) if nested_pairing(b) is not None
    )


@pytest.mark.slow
def test_candidate_and_raw_counts_at_n13():
    assert sum(1 for _ in nested_candidates(13)) == 225_270
    assert sum(1 for _ in iter_matchings(13)) == 568_504


def test_doctored_parity_fails_filter_and_equivalence(monkeypatch):
    # the generator does not read parity_ok, so the certificate refuses the victim
    d = 5
    victim = enumerate_family(d)[7]
    real = family.parity_ok
    monkeypatch.setattr(
        family, "parity_ok", lambda b, dd: b != victim and real(b, dd)
    )
    with pytest.raises(FalsificationError, match=re.escape(f"{victim!r} is not in X_5")):
        filter_family(d)
    report = verify.run_checks(d)[0]
    assert report.name == "construction_equivalence" and not report.passed
    assert report.detail["kind"] == "falsification"
    assert repr(victim) in report.detail["message"]


def test_generated_non_member_is_refused(monkeypatch):
    # crossing double-primed arcs with an empty witness pass parity and the
    # coverings at D=4; only the recomputed witness in is_member rejects it
    fake = m([(4, 2), (5, 3)], 5)
    assert parity_ok(fake, 4) and coverings_ok(fake, 4, ()) and not is_member(fake, 4)

    class Doctored(family._Tilings):
        def __missing__(self, key):
            out = super().__missing__(key)
            if key == (1, 5, None):  # the free region of the empty sequence
                out = self[key] = out + (fake.arcs,)
            return out

    monkeypatch.setattr(family, "_Tilings", Doctored)
    with pytest.raises(FalsificationError, match="not in X_4"):
        filter_family(4)


def test_equivalence_builds_each_family_once_per_d(monkeypatch):
    real = verify.filter_family
    calls = []
    dropped = enumerate_family(3)[2]
    stranger = m([(4, 2), (5, 3)], 5)

    def doctored(d):
        calls.append(d)
        members = real(d)
        return [b for b in members if b != dropped] + [stranger] if d == 3 else members

    monkeypatch.setattr(verify, "filter_family", doctored)
    assert verify._sweep(verify._check_construction_equivalence, [0, 1, 2, 3, 4]) == {
        "D": 3,
        "filter_only": [stranger.to_pairs()],
        "inductive_only": [dropped.to_pairs()],
    }
    assert calls == [0, 1, 2, 3]


def test_filter_guard(monkeypatch):
    monkeypatch.setenv("SBL_MAX_D", "3")
    with pytest.raises(ResourceGuardError):
        filter_family(5)


def test_is_member_rejects_wrong_ground_set():
    with pytest.raises(DomainError):
        is_member(m([], 5), 2)  # D=2 lives on [1, 3]


def test_distinguished_element():
    assert distinguished_element(m([(3, 1)], 5), 3) == 4
    assert distinguished_element(m([(4, 2)], 5), 3) == 1
    with pytest.raises(DomainError):
        distinguished_element(m([(6, 2), (5, 3), (7, 1)], 7), 5)  # N matched
    with pytest.raises(DomainError):
        distinguished_element(m([(1, 2)], 5), 3)  # no double-primed arcs


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(1, 4), (2, 5), (8, 6)], "boundary segment [1,5] of Matching([14, 25, 86], n=9) admits leftovers [1, 5]"),
        ([(6, 4)], "boundary segment [1,3] of Matching([64], n=9) admits leftovers []"),
        ([(5, 3), (1, 8)], "boundary segment [6,8] of Matching([18, 53], n=9) admits leftovers []"),
    ],
)
def test_distinguished_element_needs_exactly_one_leftover(pairs, message):
    with pytest.raises(FalsificationError) as exc:
        distinguished_element(m(pairs, 9), 7)
    assert str(exc.value) == message
    lo, hi, leftovers = tiled_leftovers(m(pairs, 9), 7)
    assert message == f"boundary segment [{lo},{hi}] of {m(pairs, 9)!r} admits leftovers {leftovers}"


def tiled_leftovers(b, d):
    """(lo, hi, leftovers) of the 1-covered boundary segment by the tiling
    search: every p of the segment whose two sides are tiled leaving nothing."""
    seq = nested_pairing(b)
    ((lo, hi, _),) = [seg for seg in covering_requirements(b, d, seq) if seg[2] == 1]
    starts = primed_starts(b)
    leftovers = [
        p
        for p in range(lo, hi + 1, 2)
        if tile(starts, lo, p - 1, 0) is not None
        and tile(starts, p + 1, hi, 0) is not None
    ]
    return lo, hi, leftovers


@pytest.mark.parametrize("d", range(1, 12, 2))
def test_distinguished_element_agrees_with_the_tiling_search(d):
    checked = 0
    for b in enumerate_family(d):
        if b.double_primed() and not b.support_mask >> b.n & 1:
            assert [distinguished_element(b, d)] == tiled_leftovers(b, d)[2], b
            checked += 1
    assert checked > 0 or d == 1


def test_piece_of_examples():
    assert piece_of(m([], 5), 4) == PieceLabel(0)
    assert piece_of(m([], 5), 3) == PieceLabel(0, "+")
    assert piece_of(m([(6, 2), (7, 1), (5, 3)], 7), 6) == PieceLabel(-4)
    assert piece_of(m([(5, 1), (4, 2), (6, 7)], 7), 5) == PieceLabel(2, "-")


def test_pieces_partition_and_primitives():
    for d in range(0, 9):
        by_piece = pieces(d)
        assert sum(len(v) for v in by_piece.values()) == len(enumerate_family(d))
        prim = {label: q for label, q in labeled_primitives(d)}
        assert set(prim) == set(by_piece)
        for label, members in by_piece.items():
            assert [b for b in members if b in primitives(d)] == [prim[label]]


def test_laminarity():
    for d in range(0, 9):
        for b in enumerate_family(d):
            ivals = [cyclic_interval_mask(a, b.n) for a in b.arcs]
            for x, y in combinations(ivals, 2):
                meet = x & y
                assert meet in (0, x, y)


def test_witness_halves_alternate_parity():
    for d in range(0, 9):
        for b in enumerate_family(d):
            seq = nested_pairing(b)
            s = len(seq) // 2
            for half in (seq[:s], seq[s:]):
                for u, v in zip(half, half[1:]):
                    assert (u + v) % 2 == 1
