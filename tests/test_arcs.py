"""Arcs, cyclic intervals, the embedding, lifts, and matching enumeration."""

import pytest

from secondbasis.arcs import (
    Arc,
    Matching,
    _splice,
    classify_pair,
    cyclic_interval_mask,
    lift_matching,
    pair_masks,
)
from secondbasis.errors import DomainError, ResourceGuardError
from secondbasis.f2 import EvenSet
from secondbasis.family import enumerate_family
from tests.oracles import embed, enumerate_matchings, iter_matchings


def involution_count(n):
    """Oracle: I(n) = I(n-1) + (n-1) I(n-2)."""
    a, b = 1, 1
    for i in range(2, n + 1):
        a, b = b, b + (i - 1) * a
    return b if n else 1


def test_classify_pair():
    assert classify_pair(1, 2) == Arc(1, 2) and Arc(1, 2).primed
    assert classify_pair(3, 1) == Arc(3, 1) and not Arc(3, 1).primed
    assert classify_pair(2, 4) == Arc(4, 2)
    assert classify_pair(4, 2) == Arc(4, 2)
    with pytest.raises(DomainError):
        classify_pair(2, 2)


def test_cyclic_interval():
    assert cyclic_interval_mask(Arc(1, 4), 5) == EvenSet([1, 2, 3, 4], 5).mask
    assert cyclic_interval_mask(Arc(5, 3), 5) == EvenSet([5, 1, 2, 3], 5).mask
    assert cyclic_interval_mask(Arc(5, 1), 5).bit_count() == 2  # N - i + 1 + j


def test_interval_sizes_even():
    n = 9
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            arc = classify_pair(a, b)
            size = cyclic_interval_mask(arc, n).bit_count()
            expected = arc.j - arc.i + 1 if arc.primed else n - arc.i + 1 + arc.j
            assert size == expected and size % 2 == 0


def test_embed_index_examples():
    assert [embed(2, i) for i in (1, 2, 3)] == [1, 4, 5]
    assert embed(1, 3) == 5 and embed(1, 1) == 3
    for k in range(1, 5):
        image = {embed(k, i) for i in range(1, 4)}
        assert k not in image and (k + 1) not in image
        assert all(embed(k, i) % 2 == i % 2 for i in range(1, 4))


def test_embed_set():
    assert _splice(EvenSet([], 3).mask, 1) == EvenSet([], 5).mask
    assert _splice(EvenSet([1, 3], 3).mask, 1) == EvenSet([3, 5], 5).mask


def test_embed_set_splice_is_the_elementwise_embedding():
    import itertools

    for n in (1, 3, 5, 7, 9):
        for size in range(0, n + 1, 2):
            for members in itertools.combinations(range(1, n + 1), size):
                x = EvenSet(members, n)
                for k in range(1, n + 2):
                    want = EvenSet((embed(k, i) for i in x), n + 2)
                    assert _splice(x.mask, k) == want.mask


def test_embed_preserves_gamma():
    n = 7
    import itertools

    for size in (0, 2, 4):
        for members in itertools.combinations(range(1, n - 1), size):
            x = EvenSet(members, n - 2)
            for k in range(1, n):
                assert EvenSet.from_mask(_splice(x.mask, k), n).gamma() == x.gamma()


def test_interval_lifting_law():
    # the embedded interval is the interval of the embedded arc, up to {k,k+1}
    for n in (5, 7, 9):
        for a in range(1, n - 1):
            for b in range(1, n - 1):
                if a == b:
                    continue
                arc = classify_pair(a, b)
                for k in range(1, n):
                    lifted = classify_pair(embed(k, a), embed(k, b))
                    left = cyclic_interval_mask(lifted, n)
                    right = _splice(cyclic_interval_mask(arc, n - 2), k)
                    diff = left ^ right
                    assert diff in (0, (1 << k) | (1 << (k + 1)))


def test_lift_matching_examples():
    assert lift_matching(1, Matching([], 1), 1) == Matching([Arc(1, 2)], 3)
    assert lift_matching(1, Matching([Arc(3, 1)], 3), 3) == Matching(
        [Arc(5, 3), Arc(1, 2)], 5
    )
    assert lift_matching(3, Matching([Arc(1, 2)], 3), 3) == Matching(
        [Arc(1, 2), Arc(3, 4)], 5
    )
    with pytest.raises(DomainError):
        lift_matching(4, Matching([], 3), 3)  # slot outside [1, D]


def test_lift_matching_refuses_a_d_that_does_not_fit():
    from secondbasis.family import enumerate_family

    bp = enumerate_family(4)[3]  # over [1, 5]: lifts to D = 5 or 6, on [1, 7]
    message = r"^matching over \[1, 5\] does not lift to D=7$"
    with pytest.raises(DomainError, match=message):
        lift_matching(2, bp, 7)
    for d in (3, 4, 8):
        with pytest.raises(DomainError, match=rf"does not lift to D={d}$"):
            lift_matching(1, bp, d)
    assert lift_matching(2, bp, 5) == lift_matching(2, bp, 6)


@pytest.mark.parametrize("k", [0, 5, 99])
def test_lift_matching_checks_the_slot_of_every_matching(k):
    for bp in (Matching([], 3), Matching([Arc(1, 2)], 3)):
        with pytest.raises(DomainError, match=rf"^slot index {k} outside \[1, 4\]$"):
            lift_matching(k, bp, 4)


def test_lift_injective_and_avoids_slot():
    for k in (1, 2, 3, 4):
        seen = set()
        for bp in iter_matchings(3):
            b = lift_matching(k, bp, 4)
            assert b not in seen
            seen.add(b)
            for arc in b.arcs:
                if arc != Arc(k, k + 1):
                    assert not {arc.i, arc.j} & {k, k + 1}


def test_matching_validation():
    with pytest.raises(DomainError):
        Matching([Arc(1, 2), Arc(2, 3)], 5)  # overlapping supports
    with pytest.raises(ValueError):
        Matching([Arc(1, 2)], 4)  # even ground size
    m = Matching.from_pairs([[3, 1], [4, 5]], 5)
    assert m.arcs == (Arc(3, 1), Arc(4, 5))  # sorted by min support element


def test_enumerate_matchings_counts():
    assert [b.arcs for b in enumerate_matchings(1)] == [()]
    three = enumerate_matchings(3)
    assert len(three) == 4
    assert set(three) == {
        Matching([], 3),
        Matching([Arc(1, 2)], 3),
        Matching([Arc(2, 3)], 3),
        Matching([Arc(3, 1)], 3),
    }
    for n in (5, 7, 9):
        got = enumerate_matchings(n)
        assert len(got) == involution_count(n)
        assert len(set(got)) == len(got)
    assert involution_count(9) == 2620


def test_enumerate_matchings_guard(monkeypatch):
    with pytest.raises(ResourceGuardError):
        enumerate_matchings(17)
    monkeypatch.setenv("SBL_MAX_D", "1")
    with pytest.raises(ResourceGuardError):
        enumerate_matchings(5)
    monkeypatch.setenv("SBL_MAX_D", "15")
    assert len(enumerate_matchings(5)) == 26


def test_matching_repr_spells_arcs_like_the_tables():
    # at N >= 10 every arc is hyphenated, even one with single-digit ends
    assert repr(Matching([Arc(3, 4)], 11)) == "Matching([3-4], n=11)"
    assert repr(Matching([Arc(3, 4)], 9)) == "Matching([34], n=9)"


def test_a_matching_holds_its_arcs_and_n_alone():
    assert Matching.__slots__ == ("arcs", "n")
    for b in enumerate_family(9):
        assert b.support_mask == sum(pair_masks(b.arcs))
