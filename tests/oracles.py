"""Raw matching enumerators: the reference the filter and the lifts are tested against.

The library never enumerates the whole matching space (the filter tiles each
region of a nested sequence instead), so these live with the tests.
"""

from typing import Iterator

from secondbasis.arcs import Arc, Matching, _range_mask
from secondbasis.f2 import check_ground_size
from secondbasis.limits import guard_d


def _arc_sets(free: int, primed_only: bool) -> Iterator[tuple[tuple[Arc, ...], int]]:
    # every set of disjoint arcs on the points of the bitmask `free`, as
    # (arcs in increasing order of their lower point, support mask); the
    # lowest free point is left alone or joined to a higher one
    everything = (1 << free.bit_length()) - 1
    evens = sum(1 << p for p in range(0, free.bit_length(), 2))
    # a primed arc joins points of opposite parity
    partners = (everything ^ evens, evens) if primed_only else (everything, everything)

    def rec(free: int, acc: tuple[Arc, ...], supp: int):
        if not free:
            yield acc, supp
            return
        low = free & -free
        a = low.bit_length() - 1
        rest = free ^ low
        yield from rec(rest, acc, supp)
        others = rest & partners[a & 1]
        while others:
            nxt = others & -others
            b = nxt.bit_length() - 1
            arc = Arc(a, b) if (b - a) % 2 else Arc(b, a)
            yield from rec(rest ^ nxt, acc + (arc,), supp | low | nxt)
            others ^= nxt

    yield from rec(free, (), 0)


def iter_matchings(n: int) -> Iterator[Matching]:
    """All partial matchings of [1, n], smallest-support-first, no duplicates."""
    check_ground_size(n)
    for acc, _ in _arc_sets(_range_mask(1, n), False):
        yield Matching._make(acc, n)


def iter_primed_matchings(free: int) -> Iterator[tuple[tuple[Arc, ...], int]]:
    """Every set of disjoint primed arcs on the points of the bitmask `free`.

    Yields (arcs in increasing order of their lower point, support mask), the
    empty set included, in the order ``iter_matchings`` would visit them.
    """
    return _arc_sets(free, True)


def enumerate_matchings(n: int) -> list[Matching]:
    """The full matching space, guarded to desk scale."""
    guard_d(n - 2, 13, "matching-space enumeration")
    return list(iter_matchings(n))
