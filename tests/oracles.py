"""References the library is tested against.

The raw matching enumerators: the library never enumerates the whole
matching space (the filter tiles each region of a nested sequence instead).
The triangular closed form counted arc by arc and point by point: the
library counts every n_k at once on bit slices.  The embedding point by
point: the library moves a whole mask (``arcs._splice``) or arc (``lift_row``).
"""

from typing import Iterator

from secondbasis.arcs import Arc, Matching, _range_mask, cyclic_interval_mask
from secondbasis.errors import DomainError
from secondbasis.f2 import EvenSet, check_ground_size
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


def embed(k: int, i: int) -> int:
    """The order- and parity-preserving embedding [1, n-2] -> [1, n] missing k, k+1."""
    return i if i < k else i + 2


def interval_counts(b: Matching, d: int) -> list[int]:
    """n_1..n_{D+1}: arcs whose interval contains {k, k+1}, then |B0|."""
    n = b.n
    masks = [cyclic_interval_mask(a, n) for a in b.arcs]
    counts = []
    for k in range(1, d + 1):
        pair = (1 << k) | (1 << (k + 1))
        counts.append(sum(1 for m in masks if m & pair == pair))
    counts.append(len(b.double_primed()))
    return counts


def point_counts(b: Matching) -> list[int]:
    """m_1..m_N: arcs whose interval contains the point k."""
    n = b.n
    masks = [cyclic_interval_mask(a, n) for a in b.arcs]
    return [sum(1 for m in masks if m >> k & 1) for k in range(1, n + 1)]


def _tri(n: int) -> int:
    return n * (n + 1) // 2 % 2


def triangular_epsilon(b: Matching, d: int) -> EvenSet:
    """The closed form: sum of [n_k]{k,k+1} plus [n_{D+1}]{1,N}, even D only."""
    if d % 2:
        raise DomainError("the triangular closed form is stated for even D only")
    n = b.n
    counts = interval_counts(b, d)
    mask = 0
    for k in range(1, d + 1):
        if _tri(counts[k - 1]):
            mask ^= (1 << k) | (1 << (k + 1))
    if _tri(counts[d]):
        mask ^= (1 << 1) | (1 << n)
    return EvenSet.from_mask(mask, n)


def triangle_identity_ok(b: Matching, d: int) -> bool:
    """Pointwise identity: [n_k] + [n_k'] == m_k mod 2 (k' = cyclic left step)."""
    counts = interval_counts(b, d)
    points = point_counts(b)
    for k in range(1, d + 2):
        left = d + 1 if k == 1 else k - 1
        if (_tri(counts[k - 1]) + _tri(counts[left - 1])) % 2 != points[k - 1] % 2:
            return False
    return True
