"""Arcs, partial matchings, and the gap-inserting lift between ground sets.

An arc is an unordered pair {i, j} of ground elements written in a canonical
order: min first when the difference is odd (a *primed* arc), max first when
the difference is even (a *double-primed* arc).  Exactly one of the two
writings is admissible for any pair, so ``Arc(i, j)`` doubles as the class
tag.  A matching is a set of pairwise disjoint arcs.

Each arc carries a cyclic interval on [1, N]: the plain interval [i, j] for a
primed arc, the wrap-around [i, N] ∪ [1, j] for a double-primed one.  Both
have even size, so intervals and arc pair-vectors live in E_N.

The gap-inserting lift works on keys: a matching's arcs by lower point as
(i, j) byte pairs (``arc_key``), which sort as the arcs do.  A pair mask
names its arc, and ``arcs_of`` reads the one shared ``Arc`` of each.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError
from .f2 import check_ground_size

__all__ = [
    "Arc",
    "Matching",
    "arc_key",
    "arc_text",
    "arcs_of",
    "classify_pair",
    "cyclic_interval_mask",
    "key_masks",
    "lift_keys",
    "lift_matching",
    "pair_masks",
]


class Arc(NamedTuple):
    i: int
    j: int

    @property
    def primed(self) -> bool:
        return self.i < self.j

    @property
    def lo(self) -> int:
        return min(self.i, self.j)

    @property
    def hi(self) -> int:
        return max(self.i, self.j)


def arc_text(arc: Arc, n: int) -> str:
    # digit concatenation only while every index of [1, n] is a single digit
    return f"{arc.i}{arc.j}" if n <= 9 else f"{arc.i}-{arc.j}"


def classify_pair(a: int, b: int) -> Arc:
    """Canonical writing of the pair {a, b} (min first iff difference odd)."""
    if a == b:
        raise DomainError(f"arc endpoints must differ, got {a}={b}")
    if a < 1 or b < 1:
        raise DomainError(f"arc endpoints must be positive, got ({a}, {b})")
    lo, hi = min(a, b), max(a, b)
    return Arc(lo, hi) if (hi - lo) % 2 else Arc(hi, lo)


def _check_arc(arc: Arc, n: int) -> None:
    if not (1 <= arc.i <= n and 1 <= arc.j <= n):
        raise DomainError(f"{arc} outside [1, {n}]")
    if classify_pair(arc.i, arc.j) != arc:
        raise DomainError(f"{arc} is not in canonical writing order")


def pair_mask(arc: Arc) -> int:
    return (1 << arc.i) | (1 << arc.j)


class _PairMasks(dict):
    """arc -> ``pair_mask(arc)``, filled as arcs occur."""

    def __missing__(self, arc: Arc) -> int:
        mask = self[arc] = pair_mask(arc)
        return mask


_PAIR_MASKS = _PairMasks()


def pair_masks(arcs: Iterable[Arc]) -> list[int]:
    """The arcs' pair masks, read from one process-wide table."""
    return list(map(_PAIR_MASKS.__getitem__, arcs))


def _range_mask(lo: int, hi: int) -> int:
    # bits lo..hi inclusive; empty when lo > hi
    if lo > hi:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def cyclic_interval_mask(arc: Arc, n: int) -> int:
    if arc.primed:
        return _range_mask(arc.i, arc.j)
    return _range_mask(arc.i, n) | _range_mask(1, arc.j)


def _splice(mask: int, k: int) -> int:
    # the embedding on a bitmask: bits below k stay, the rest move up by two
    low = (1 << k) - 1
    return mask & low | (mask & ~low) << 2


class Matching:
    """A set of pairwise-disjoint arcs on [1, n] (at most (n-1)/2 of them).

    A matching holds its arcs, by lower point, and n alone: its support is
    the sum of the arcs' shared pair masks (``pair_masks``), read when asked.
    """

    __slots__ = ("arcs", "n")

    def __init__(self, arcs: Iterable[Arc], n: int):
        check_ground_size(n)
        arcs = tuple(sorted(arcs, key=lambda a: a.lo))
        supp = 0
        for arc in arcs:
            _check_arc(arc, n)
            m = pair_mask(arc)
            if supp & m:
                raise DomainError(f"arcs are not pairwise disjoint: {arcs}")
            supp |= m
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "n", n)

    @classmethod
    def _make(cls, sorted_arcs: tuple[Arc, ...], n: int) -> "Matching":
        # fast path for enumerators that already guarantee the invariants
        self = object.__new__(cls)
        object.__setattr__(self, "arcs", sorted_arcs)
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]], n: int) -> "Matching":
        return cls((classify_pair(a, b) for a, b in pairs), n)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Matching is immutable")

    @property
    def support_mask(self) -> int:
        # disjoint arcs: the sum of their pair masks is their union
        return sum(map(_PAIR_MASKS.__getitem__, self.arcs))

    def __contains__(self, arc: Arc) -> bool:
        return arc in self.arcs

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matching) and self.n == other.n and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.arcs, self.n))

    def __repr__(self) -> str:
        arcs = ", ".join(arc_text(a, self.n) for a in self.arcs)
        return f"Matching([{arcs}], n={self.n})"

    def double_primed(self) -> tuple[Arc, ...]:
        return tuple([a for a in self.arcs if a[0] > a[1]])

    def primed(self) -> tuple[Arc, ...]:
        return tuple([a for a in self.arcs if a[0] < a[1]])

    def to_pairs(self) -> list[list[int]]:
        return [[a.i, a.j] for a in self.arcs]


# one Arc object per pair for every member built in the process, so the
# members of a family share their arcs instead of each holding its own copies
class _Arcs(dict):
    """pair mask -> its arc in canonical writing, filled as masks occur."""

    def __missing__(self, g: int) -> Arc:
        arc = self[g] = classify_pair((g & -g).bit_length() - 1, g.bit_length() - 1)
        return arc


_ARCS = _Arcs()


def arcs_of(masks: Iterable[int]) -> list[Arc]:
    """The shared arcs of the pair masks: a list, as a freed tuple stays in a free list."""
    return list(map(_ARCS.__getitem__, masks))


def arc_key(arcs: Iterable[Arc]) -> bytes:
    """A matching's key: its arcs by lower point as (i, j) byte pairs."""
    return bytes(chain.from_iterable(arcs))


def key_masks(key: bytes) -> Iterator[int]:
    """The pair masks of a key's arcs, in the key's order."""
    return (1 << key[t] | 1 << key[t + 1] for t in range(0, len(key), 2))


_SLOTS: list[tuple[bytes, bytes]] = []  # slot k's (translate table, short arc key)


def lift_keys(key: bytes, d: int) -> list[bytes]:
    """The keys of the D lifts of the matching with key ``key``: entry k-1 holds slot k's.

    Slot k inserts the short arc {k, k+1} and moves every point i >= k to
    i + 2, one ``bytes.translate`` (each slot's table is made on first use).
    The embedding [1, n-2] -> [1, n] is strictly increasing, misses k and
    k+1, and keeps the parity of every difference, so each moved arc keeps
    its canonical writing, the arcs keep their order by lower point, and the
    short arc goes right after the arcs that start below k.  That the lifts
    land in X_D is certified by ``construction_equivalence``.
    """
    while len(_SLOTS) < d:
        k = len(_SLOTS) + 1
        table = bytes(min(i + 2 if i >= k else i, 255) for i in range(256))
        _SLOTS.append((table, bytes((k, k + 1))))
    lows = [min(key[t], key[t + 1]) for t in range(0, len(key), 2)]
    row = []
    for k, (table, short) in enumerate(_SLOTS[:d], start=1):
        cut = 2 * bisect_left(lows, k)
        moved = key.translate(table)
        row.append(moved[:cut] + short + moved[cut:])
    return row


def lift_matching(k: int, bp: Matching, d: int) -> Matching:
    """Insert the short arc {k, k+1} and shift the rest through the embedding.

    The lift is entry k-1 of ``lift_keys`` on bp's key, whose arcs need no
    re-checking, so it is built through ``Matching._make`` from the shared
    arcs.  The lift must land on the ground set of the target D, and k lie
    in [1, D].
    """
    n = bp.n + 2
    if n != d + 1 + d % 2:  # N = D+1 or D+2, whichever is odd
        raise DomainError(f"matching over [1, {bp.n}] does not lift to D={d}")
    if not 1 <= k <= d:
        raise DomainError(f"slot index {k} outside [1, {d}]")
    return Matching._make(tuple(arcs_of(key_masks(lift_keys(arc_key(bp.arcs), d)[k - 1]))), n)
