"""F2 space: construction, addition, gamma, spans."""

import random
from itertools import combinations

import pytest

from secondbasis.errors import DimensionMismatchError
from secondbasis.f2 import EvenSet, Span, span_masks


def es(members, n=5):
    return EvenSet(members, n)


def subset_sums(gens):
    """Brute-force oracle: every mask reachable as a subset sum."""
    out = set()
    for r in range(len(gens) + 1):
        for combo in combinations(gens, r):
            m = 0
            for g in combo:
                m ^= g.mask
            out.add(m)
    return out


def random_even_set(rng, n):
    size = rng.choice(range(0, n + 1, 2))
    return EvenSet(rng.sample(range(1, n + 1), size), n)


def test_construction_validates():
    with pytest.raises(ValueError):
        EvenSet([1], 5)
    with pytest.raises(ValueError):
        EvenSet([1, 6], 5)
    with pytest.raises(ValueError):
        EvenSet([1, 2], 4)  # even ground size
    assert len(es([])) == 0
    assert es([1, 2]).members == (1, 2)


def test_addition_examples():
    assert es([1, 2], 3) ^ es([2, 3], 3) == es([1, 3], 3)
    x = es([1, 4])
    assert x ^ x == es([])
    assert es([5, 1, 2, 3]) ^ es([1, 2]) == es([3, 5])


def test_addition_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        es([1, 2], 3) ^ es([1, 2], 5)


def test_addition_algebra():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (random_even_set(rng, 7) for _ in range(3))
        assert x ^ y == y ^ x
        assert (x ^ y) ^ z == x ^ (y ^ z)
        assert x ^ x == EvenSet.empty(7)


def test_gamma_examples():
    assert es([]).gamma() == 0
    assert es([4, 2]).gamma() == 2
    assert es([1, 3]).gamma() == -2
    assert es([1, 2]).gamma() == 0


def test_gamma_additive_on_disjoint():
    rng = random.Random(11)
    for _ in range(200):
        x = random_even_set(rng, 9)
        rest = [i for i in range(1, 10) if i not in x]
        size = rng.choice(range(0, len(rest) + 1, 2))
        y = EvenSet(rng.sample(rest, size), 9)
        assert (x ^ y).gamma() == x.gamma() + y.gamma()


def span_of(gens, n):
    """The span of some pair-vectors of E_n, through ``span_masks``."""
    return Span(span_masks([g.mask for g in gens], n))


def test_span_membership_examples():
    assert es([1, 4]).mask in span_of([es([1, 4]), es([2, 3])], 5)
    assert es([2, 3]).mask not in span_of([es([1, 2])], 5)
    assert 0 in span_of([], 3) and es([1, 2], 3).mask not in span_of([], 3)


def random_pairs(rng, n=9):
    """A random partial matching of [1, n], as its pair-vectors."""
    universe = list(range(1, n + 1))
    rng.shuffle(universe)
    count = rng.randint(0, n // 2)
    return [EvenSet(universe[2 * i : 2 * i + 2], n) for i in range(count)]


def test_span_membership_against_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        gens = random_pairs(rng)
        sums = subset_sums(gens)
        span = span_of(gens, 9)
        inside = [EvenSet.from_mask(m, 9) for m in rng.choices(sorted(sums), k=3)]
        for x in inside + [random_even_set(rng, 9) for _ in range(10)]:
            assert (x.mask in span) == (x.mask in sums)
        assert set(span) == sums


def test_span_behaves_as_the_frozenset_it_replaces():
    # size, membership and iteration: all the library reads of a span
    rng = random.Random(3)
    evens = [m for m in range(0, 1 << 10, 2) if m.bit_count() % 2 == 0]
    for _ in range(60):
        gens = random_pairs(rng)
        masks = [g.mask for g in gens]
        assert span_masks(masks, 9) is masks
        span = Span(masks)
        sums = frozenset(subset_sums(gens))
        assert span.pairs == tuple(masks)
        assert len(span) == len(sums) == 1 << len(gens)
        assert [m for m in evens if m in span] == [m for m in evens if m in sums]
        listed = list(span)
        assert len(listed) == len(set(listed)) and set(listed) == sums


def bits(*points):
    return sum(1 << i for i in points)


@pytest.mark.parametrize(
    "gens, error",
    [
        ([bits(1, 2), bits(2, 3)], ValueError),  # overlapping pairs
        ([bits(1, 2, 3, 4)], ValueError),  # not a pair
        ([bits(1, 2), bits(4, 6)], DimensionMismatchError),  # a point past n
        ([bits(0, 1), bits(3, 4)], ValueError),  # a pair at bit 0
        ([bits(1, 2), bits(3, 4, 5)], ValueError),  # three points
        ([bits(2), bits(3, 4)], ValueError),  # one point
    ],
)
def test_spans_refuse_generators_that_are_not_disjoint_pairs(gens, error):
    with pytest.raises(ValueError) as exc:
        span_masks(gens, 5)
    assert type(exc.value) is error
