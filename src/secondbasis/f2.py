"""F2 arithmetic on subsets of [1, N].

Subsets are bit vectors: bit i is the membership of ground element i, bit 0
is unused.  Addition is symmetric difference, i.e. XOR, and cardinality is a
popcount.  ``EvenSet`` enforces even cardinality at construction; odd
cardinality vectors only occur as transient masks inside this module.

Spans are only ever taken of one matching's pair-vectors: pairwise-disjoint
2-element sets.  Those are linearly independent, and any sum of them is
their union, so the span of k pairs is the 2^k unions of sub-collections,
and x lies in it exactly when x is the union of the pairs it contains; those
pairs are its unique decomposition.  That is the one span rule here
(``in_span``), and ``span_masks`` refuses any generators but disjoint pairs
of [1, N].  A ``Span`` holds only its k pair masks: its size and membership
follow from the rule, and ``_unions`` lists the unions afresh for each
iteration and for ``Order.members``.  ``basis.Order`` keeps each member's
pair masks, checked by ``span_masks`` once per member, in one flat array;
its Kahn walk regenerates the unions one pair per Gray-code step, and the
uniqueness certificate and the table test each image with ``in_span``.

All values are immutable after construction, so everything here is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DimensionMismatchError

__all__ = [
    "EvenSet",
    "Span",
    "check_ground_size",
    "f2_sum",
    "in_span",
    "mask_of",
    "members_of",
    "span_masks",
]


def check_ground_size(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"ground size must be an odd integer >= 1, got {n}")
    return n


def mask_of(members: Iterable[int], n: int) -> int:
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"element {i} outside [1, {n}]")
        mask |= 1 << i
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def _even_positions_mask(n: int) -> int:
    mask = 0
    for i in range(2, n + 1, 2):
        mask |= 1 << i
    return mask


class EvenSet:
    """An even-cardinality subset of [1, n]: an element of the space E_n."""

    __slots__ = ("mask", "n")

    def __init__(self, members: Iterable[int], n: int):
        check_ground_size(n)
        mask = mask_of(members, n)
        if mask.bit_count() % 2:
            raise ValueError(f"even cardinality required, got {members_of(mask)}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "EvenSet":
        check_ground_size(n)
        if mask & 1 or mask >> (n + 1):
            raise ValueError(f"mask {bin(mask)} outside positions [1, {n}]")
        if mask.bit_count() % 2:
            raise ValueError("even cardinality required")
        self = object.__new__(cls)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def empty(cls, n: int) -> "EvenSet":
        return cls.from_mask(0, n)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("EvenSet is immutable")

    @property
    def members(self) -> tuple[int, ...]:
        return members_of(self.mask)

    def __xor__(self, other: "EvenSet") -> "EvenSet":
        if not isinstance(other, EvenSet):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(f"ground sizes differ: {self.n} != {other.n}")
        return EvenSet.from_mask(self.mask ^ other.mask, self.n)

    def __contains__(self, i: int) -> bool:
        return 0 < i <= self.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EvenSet) and self.mask == other.mask and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __repr__(self) -> str:
        return f"EvenSet({list(self.members)}, n={self.n})"

    def gamma(self) -> int:
        """Number of even members minus number of odd members (always even)."""
        evens = (self.mask & _even_positions_mask(self.n)).bit_count()
        return 2 * evens - self.mask.bit_count()

    def to_json(self) -> list[int]:
        return list(self.members)


def f2_sum(sets: Iterable[EvenSet], n: int) -> EvenSet:
    """Sum (symmetric difference) of a collection of even sets over [1, n]."""
    mask = 0
    for x in sets:
        if x.n != n:
            raise DimensionMismatchError(f"ground sizes differ: {x.n} != {n}")
        mask ^= x.mask
    return EvenSet.from_mask(mask, n)


def in_span(x: int, pairs: Iterable[int]) -> bool:
    """Whether x is the union of the pairs inside it: the one span rule."""
    union = 0
    for g in pairs:
        if g & x == g:
            union |= g
    return union == x


def _unions(pairs: Iterable[int]) -> list[int]:
    # the 2^k members of the span of k disjoint pairs, each pair doubling them
    members = [0]
    for g in pairs:
        members += [m | g for m in members]
    return members


class Span:
    """The span of k disjoint pairs as a set of masks, held as the k pair masks.

    It has 2^k members, and x is one exactly when x is the union of the pairs
    inside it.  Size, membership and iteration are all it offers.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[int]):
        object.__setattr__(self, "pairs", tuple(pairs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Span is immutable")

    def __len__(self) -> int:
        return 1 << len(self.pairs)

    def __contains__(self, x: int) -> bool:
        return in_span(x, self.pairs)

    def __iter__(self) -> Iterator[int]:
        return iter(_unions(self.pairs))


def span_masks(masks: list[int], n: int) -> list[int]:
    """The k pair masks that span a matching's span, once they are checked
    to be pairwise disjoint pairs of [1, n].

    Each must have two bits; the popcount of a sum is the sum of the
    popcounts less one per carry, so the sum of k pairs has 2k bits exactly
    when no two meet.  A point past n belongs to a larger ground set.
    """
    k = len(masks)
    total = sum(masks)
    if [*map(int.bit_count, masks)] != [2] * k or total.bit_count() != 2 * k:
        raise ValueError(f"generators must be pairwise disjoint pairs, got {masks}")
    if total & 1:
        raise ValueError("bit 0 is not a ground element")
    if total >> (n + 1):
        raise DimensionMismatchError(f"generators outside [1, {n}]: {masks}")
    return masks
