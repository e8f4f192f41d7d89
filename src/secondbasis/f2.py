"""F2 arithmetic on subsets of [1, N].

Subsets are bit vectors: bit i is the membership of ground element i, bit 0
is unused.  Addition is symmetric difference, i.e. XOR, and cardinality is a
popcount.  ``EvenSet`` enforces even cardinality at construction; odd
cardinality vectors only occur as transient masks inside this module.

All values are immutable after construction, so everything here is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DecompositionError, DimensionMismatchError

__all__ = [
    "EvenSet",
    "check_ground_size",
    "f2_sum",
    "mask_of",
    "members_of",
    "span_masks",
    "span_membership",
    "unique_decomposition",
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


def _reduced_rows(generators: Sequence[EvenSet]) -> dict[int, int]:
    """Row-echelon basis of the span, keyed by pivot bit.

    The pivot of a row is its lowest set bit (lowest ground-set index), which
    fixes the elimination order and makes every reduction deterministic.
    """
    rows: dict[int, int] = {}
    n = None
    for g in generators:
        if n is None:
            n = g.n
        elif g.n != n:
            raise DimensionMismatchError(f"ground sizes differ: {g.n} != {n}")
        mask = g.mask
        while mask:
            pivot = mask & -mask
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = mask
                break
            mask ^= row
    return rows


def _reduce(mask: int, rows: dict[int, int]) -> int:
    while mask:
        pivot = mask & -mask
        row = rows.get(pivot)
        if row is None:
            return mask
        mask ^= row
    return 0


def span_membership(generators: Sequence[EvenSet], x: EvenSet) -> bool:
    """Whether x lies in the F2 span of the generators."""
    for g in generators:
        if g.n != x.n:
            raise DimensionMismatchError(f"ground sizes differ: {g.n} != {x.n}")
    return _reduce(x.mask, _reduced_rows(generators)) == 0


def span_masks(generators: Sequence[EvenSet]) -> frozenset[int]:
    """All 2^rank member masks of the span of the generators."""
    members = {0}
    for row in _reduced_rows(generators).values():
        members |= {m ^ row for m in members}
    return frozenset(members)


def unique_decomposition(
    generators: Sequence[EvenSet], x: EvenSet
) -> list[EvenSet]:
    """The unique sub-collection of pairwise-disjoint generators summing to x.

    Generators must be disjoint 2-element sets, so they are linearly
    independent and the sum of any sub-collection is its union: a generator
    participates iff it is contained in x.
    """
    seen = 0
    for g in generators:
        if g.n != x.n:
            raise DimensionMismatchError(f"ground sizes differ: {g.n} != {x.n}")
        if len(g) != 2:
            raise ValueError(f"generators must be 2-element sets, got {g!r}")
        if seen & g.mask:
            raise ValueError("generators must be pairwise disjoint")
        seen |= g.mask
    picked = [g for g in generators if g.mask & x.mask == g.mask]
    total = 0
    for g in picked:
        total ^= g.mask
    if total != x.mask:
        raise DecompositionError(f"{x!r} is not in the span of the generators")
    return picked
