"""The nested arc families X_D: construction, filtering, and piece labels.

X_D is built two independent ways.  The inductive route starts from a short
list of primitive matchings and closes under the gap-inserting lift; the
filter route keeps the matchings with three structural properties:

  * the double-primed part is the nested pairing of an increasing sequence
    i_1 < ... < i_{2s} (largest with smallest, and so on inward);
  * the size of the double-primed part has the parity dictated by how the
    top ground element N interacts with the matching;
  * a prescribed list of intervals (primed-arc interiors, gaps between
    consecutive i_r within each half of the sequence, and two boundary
    segments) can each be tiled by disjoint primed-arc intervals leaving
    exactly 0 or 1 elements uncovered, as prescribed.

The filter does not search the matching space; ``filter_family`` builds
each member from the properties.  The first fixes the double-primed part as
the nested pairing of a sequence (built outside-in), and the second which
states of N, matched or not, that sequence allows.  By the third, no primed
arc crosses a sequence point (its interior could not be tiled), so the
primed part is a product of tilings of the regions between consecutive
points of 0, i_1, ..., i_2s, N+1, each region tiled once per call in one
``_Tilings`` table.  With each double-primed arc as a part of its own at its
lower point, the parts in order concatenate to a member's arcs by lower
point, and no member's arcs are sorted.  Each member is then certified by
``is_member``, the definition itself.

The inductive route lifts each member of X_{D-2} into all D slots with one
``lift_row`` call, builds a ``Matching`` only for the first lift of each
member, and records where each lift lands (``lift_positions``).  The two
constructions are proved equal; ``verify``-level checks re-derive that
equality exhaustively.  The boundary clauses of the third property only make
sense when the double-primed part is non-empty, and are applied exactly
then; for an all-primed matching only the interiors are constrained.

The covering test is a forced walk: a matching starts at most one arc at a
point, so a cover of [lo, hi] that leaves nothing out exists exactly when
the walk from lo along the primed arcs lands on hi+1, and a cover can leave
out just the walked points p from which one backward pass finds [p+1, hi]
covered.  That holds for crossing primed intervals too, so ``is_member``
needs no laminarity (it only holds after membership), and the walk shares
no code with ``_Tilings``, so the certificate re-checks the generator.
``coverings_ok`` and ``distinguished_element`` read it.

``piece_of`` runs its parity rule on every call and returns interned labels,
one object per (t, sign).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter
from typing import Iterator

from .arcs import (
    Arc,
    Matching,
    lift_matching,
    lift_row,
)
from .errors import DomainError, FalsificationError, Record
from .limits import guard_d

__all__ = [
    "PieceLabel",
    "coverings_ok",
    "distinguished_element",
    "enumerate_family",
    "filter_family",
    "ground_size",
    "is_member",
    "labeled_primitives",
    "lift_positions",
    "nested_pairing",
    "parity_ok",
    "piece_of",
    "pieces",
    "primitives",
]


def ground_size(d: int) -> int:
    """N for a given D: D+1 when D is even, D+2 when odd (always odd)."""
    if d < 0:
        raise DomainError(f"D must be >= 0, got {d}")
    return d + 1 if d % 2 == 0 else d + 2


class PieceLabel(Record):
    """A block of the piece partition: t for even D, (t, sign) for odd D."""

    __slots__ = ("t", "sign")

    def __init__(self, t: int, sign: str | None = None):
        if t % 2:
            raise ValueError(f"piece parameter must be even, got {t}")
        if sign not in (None, "+", "-"):
            raise ValueError(f"sign must be '+', '-' or None, got {sign!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sign", sign)

    def __str__(self) -> str:
        return str(self.t) if self.sign is None else f"{self.t},{self.sign}"

    @classmethod
    def parse(cls, text: str) -> "PieceLabel":
        text = text.strip()
        if "," in text:
            t_part, sign = text.split(",", 1)
            return cls(int(t_part), sign.strip())
        return cls(int(text))

    def sort_key(self) -> tuple[int, ...]:
        # sector + first, then by |t| with the negative piece first
        sector = 0 if self.sign in (None, "+") else 1
        return (sector, abs(self.t), 0 if self.t < 0 else 1)


# ---------------------------------------------------------------------------
# primitives


def _desc_arcs(top: int, firsts: range) -> list[Arc]:
    # arcs {top - l, l} for l running over firsts
    return [Arc(top - l, l) for l in firsts]


def labeled_primitives(d: int) -> list[tuple[PieceLabel, Matching]]:
    """The primitive matchings seeding the induction, with their piece labels."""
    if d < 0:
        raise DomainError(f"D must be >= 0, got {d}")
    n = ground_size(d)
    out: list[tuple[PieceLabel, Matching]] = []
    if d % 2 == 0:
        out.append((PieceLabel(0), Matching((), n)))
        for t in range(2, d // 2 + 1, 2):
            out.append((PieceLabel(t), Matching(_desc_arcs(d + 2, range(1, t + 1)), n)))
        for t in range(2, (d + 2) // 2 + 1, 2):
            out.append((PieceLabel(-t), Matching(_desc_arcs(d + 2, range(1, t)), n)))
    else:
        out.append((PieceLabel(0, "+"), Matching((), n)))
        out.append((PieceLabel(0, "-"), Matching((Arc(d + 1, d + 2),), n)))
        for t in range(2, (d + 1) // 2 + 1, 2):
            out.append(
                (PieceLabel(t, "+"), Matching(_desc_arcs(d + 3, range(2, t + 1)), n))
            )
        for t in range(2, (d + 1) // 2 + 1, 2):
            out.append(
                (PieceLabel(-t, "+"), Matching(_desc_arcs(d + 1, range(1, t)), n))
            )
        for t in range(2, (d + 3) // 2 + 1, 2):
            out.append(
                (PieceLabel(-t, "-"), Matching(_desc_arcs(d + 3, range(1, t)), n))
            )
        for t in range(2, (d - 1) // 2 + 1, 2):
            arcs = [Arc(d + 1, d + 2)] + _desc_arcs(d + 1, range(1, t + 1))
            out.append((PieceLabel(t, "-"), Matching(arcs, n)))
    return out


def primitives(d: int) -> list[Matching]:
    return [b for _, b in labeled_primitives(d)]


# ---------------------------------------------------------------------------
# inductive construction


@lru_cache(maxsize=None)
def _family(d: int) -> tuple[tuple[Matching, ...], array]:
    if d == 0:
        return (Matching((), 1),), array("I")
    if d == 1:  # the primitives and the one lift of the empty matching on [1, 1]
        base = primitives(1) + [lift_matching(1, Matching((), 1), 1)]
        return tuple(sorted(base, key=lambda b: b.arcs)), array("I")
    n = ground_size(d)
    found = list({b.arcs: b for b in primitives(d)}.values())  # in order of meeting
    seen = {b.arcs: i for i, b in enumerate(found)}
    walk = array("I")
    for bp in _family(d - 2)[0]:
        for arcs in lift_row(bp, d):
            i = seen.get(arcs)
            if i is None:  # a Matching is built once per member, not per lift
                i = seen[arcs] = len(found)
                found.append(Matching._make(arcs, n))
            walk.append(i)
    ranked = [seen[arcs] for arcs in sorted(seen)]
    del seen
    position = array("I", [0]) * len(found)
    for p, i in enumerate(ranked):
        position[i] = p
    return tuple(found[i] for i in ranked), array("I", map(position.__getitem__, walk))


def enumerate_family(d: int) -> tuple[Matching, ...]:
    """X_D by induction: primitives plus every lift of X_{D-2}, deduplicated."""
    guard_d(d, 15, "family enumeration")
    return _family(d)[0]


def lift_positions(d: int) -> memoryview:
    """The lift grid as positions in X_D: flat, row-major, read-only (shared).

    Entry r*D + k-1 is the position of ``lift_matching(k, b', d)``, b' being
    member r of X_{D-2}, as the walk that builds X_D recorded it; empty for D < 2.
    """
    guard_d(d, 15, "family enumeration")
    return memoryview(_family(d)[1]).toreadonly()


# ---------------------------------------------------------------------------
# the three filter properties


def nested_pairing(b: Matching) -> tuple[int, ...] | None:
    """The increasing sequence whose nested pairing is the double-primed part.

    Returns the (possibly empty) sequence i_1 < ... < i_{2s}, or None when the
    double-primed arcs are not exactly {i_{2s}i_1, i_{2s-1}i_2, ...}.  When a
    witness exists it is unique: the sequence is forced to be the sorted
    support.  By lower point, the double-primed arcs nest exactly when their
    lower points rise and their upper points fall.
    """
    lows, highs = [], []
    for i, j in b.arcs:
        if i > j:  # double-primed
            if lows and (j < lows[-1] or i > highs[-1]):
                return None
            lows.append(j)
            highs.append(i)
    return (*lows, *reversed(highs))


def _parity(b: Matching, d: int) -> tuple[int, int]:
    # |B0| and its target in one pass: for odd D and B0 non-empty, 0 exactly
    # when N is matched but is not i_b, that is, when a primed arc ends at N
    s = primed_n = 0
    for i, j in b.arcs:
        if i > j:
            s += 1
        elif j == b.n:
            primed_n = 1
    return s, s % 2 if d % 2 == 0 or not s else 1 - primed_n


def parity_ok(b: Matching, d: int) -> bool:
    s, target = _parity(b, d)
    return s % 2 == target


def _ends(b: Matching) -> dict[int, int]:
    # the primed arcs as first point -> second point
    return {i: j for i, j in b.arcs if i < j}


def _covered(ends: dict[int, int], lo: int, hi: int) -> bool:
    # whether [lo, hi] is tiled leaving nothing out: the walk from lo, taking
    # the one arc that starts at each point, lands on hi + 1
    while lo <= hi:
        q = ends.get(lo, hi + 1)
        if q > hi:
            return False
        lo = q + 1
    return True


def _leftovers(ends: dict[int, int], lo: int, hi: int) -> list[int]:
    # the points a cover of [lo, hi] can leave out alone, in walk order: the
    # walked points p, those with [lo, p-1] covered, with [p+1, hi] covered
    covered = {hi + 1: True}  # covered[p]: [p, hi] is tiled, nothing left
    for p in range(hi, lo - 1, -1):
        q = ends.get(p, hi + 1)
        covered[p] = q <= hi and covered[q + 1]
    leftovers, p = [], lo
    while p <= hi:
        if covered[p + 1]:
            leftovers.append(p)
        p = ends.get(p, hi) + 1
    return leftovers


def _sequence_segments(
    seq: tuple[int, ...], d: int, n: int, n_matched: bool
) -> list[tuple[int, int, int]]:
    # the rows of the covering table that depend on the sequence alone: the
    # gaps within each half, then the two boundary segments
    s = len(seq) // 2
    segs = []
    for r in range(s - 1):
        segs.append((seq[r] + 1, seq[r + 1] - 1, 0))
    for r in range(s, 2 * s - 1):
        segs.append((seq[r] + 1, seq[r + 1] - 1, 0))
    if s:
        i1, i2s = seq[0], seq[-1]
        if d % 2 == 0 or n_matched:
            segs.append((1, i1 - 1, 0))
            segs.append((i2s + 1, n, 0))
        elif i2s % 2 == 1:
            segs.append((1, i1 - 1, 0))
            segs.append((i2s + 1, n - 1, 1))
        else:
            segs.append((1, i1 - 1, 1))
            segs.append((i2s + 1, n - 1, 0))
    return segs


def coverings_ok(b: Matching, d: int, seq: tuple[int, ...]) -> bool:
    """Whether every prescribed segment admits its prescribed cover.

    ``seq`` is the nested-pairing witness of b, from ``nested_pairing``.  The
    rows (the primed-arc interiors, then the sequence segments) are walked
    without building the table.
    """
    n = b.n
    ends = _ends(b)
    for i, j in ends.items():  # the primed-arc interiors
        if not _covered(ends, i + 1, j - 1):
            return False
    for lo, hi, e in _sequence_segments(seq, d, n, bool(b.support_mask >> n & 1)):
        if not (_leftovers(ends, lo, hi) if e else _covered(ends, lo, hi)):
            return False
    return True


def is_member(b: Matching, d: int) -> bool:
    """Membership in X_D by the three-property filter."""
    if b.n != ground_size(d):
        raise DomainError(f"matching over [1, {b.n}] does not fit D={d}")
    seq = nested_pairing(b)
    return seq is not None and parity_ok(b, d) and coverings_ok(b, d, seq)


def _nested_sequences(n: int) -> Iterator[tuple[int, ...]]:
    # every i_1 < ... < i_2s in [1, n] with i_r and i_{2s+1-r} of one parity,
    # so that its nested pairing is all double-primed; pairs chosen outside-in
    def rec(first: int, last: int, los: tuple, his: tuple):
        yield los + his[::-1]
        for lo in range(first, last - 1):
            for hi in range(lo + 2, last + 1, 2):
                yield from rec(lo + 1, hi - 1, los + (lo,), his + (hi,))

    yield from rec(1, n, (), ())


def _pairing(seq: tuple[int, ...]) -> tuple[Arc, ...]:
    # the nested pairing of seq as arcs by lower point
    s = len(seq) // 2
    return tuple(Arc(seq[-1 - r], seq[r]) for r in range(s))


class _Tilings(dict):
    """(lo, hi, left) -> the tilings of the region, each built once.

    A tiling is a set of disjoint primed arcs covering [lo, hi] with exactly
    ``left`` points uncovered (any number when None), each arc's interior
    tiled with none left, as arcs by lower point.  A region's tuple is built
    from the table's own entries: lo uncovered, then each arc {lo, q} with
    every tiling of its interior and of [q+1, hi].
    """

    def __missing__(self, key: tuple[int, int, int | None]) -> tuple:
        lo, hi, left = key
        if left is not None and max(0, hi - lo + 1) % 2 != left:
            out = ()
        elif lo > hi:
            out = ((),)
        else:
            out = []
            if left != 0:  # lo stays uncovered
                out += self[lo + 1, hi, None if left is None else left - 1]
            for q in range(lo + 1, hi + 1, 2):
                rests = self[q + 1, hi, left]
                for inner in self[lo + 1, q - 1, 0]:
                    head = (Arc(lo, q),) + inner
                    out += [head + rest for rest in rests]
            out = tuple(out)
        self[key] = out
        return out


def _state_parts(
    seq: tuple[int, ...], d: int, n: int, tilings: _Tilings
) -> Iterator[list[tuple]]:
    # per state of N that passes the parity property, the choices of arcs by
    # lower point: each double-primed arc alone at its lower point, and the
    # tilings of each region, the sequence segments, then the gap between the
    # halves (all of [1, N] for the empty sequence) with any number left.
    # With N unmatched the segments stop at N-1, unless one must cover N (even
    # D).  At odd D the parity target is 0 exactly when N is matched, not to i_2s
    s = len(seq) // 2
    if not s:  # no segments and parity target 0, whatever N does
        yield [tilings[1, n, None]]
        return
    pairing = [(a.j, ((a,),)) for a in _pairing(seq)]
    for n_matched in (False, True):
        segs = _sequence_segments(seq, d, n, n_matched)
        if d % 2 and s % 2 == (n_matched and seq[-1] != n) or (
            not n_matched and any(hi == n for _, hi, _ in segs)
        ):
            continue
        segs.append((seq[s - 1] + 1, seq[s] - 1, None))
        regions = [(r[0], tilings[r]) for r in segs]
        yield [part for _, part in sorted(pairing + regions, key=itemgetter(0))]


def filter_family(d: int) -> list[Matching]:
    """X_D by the three-property filter, in the order of ``enumerate_family``.

    Each member is generated, not searched for: for each nested sequence and
    each state of N its parity allows, every product of the tilings of the
    regions outside the sequence, read from one ``_Tilings`` table per call.
    Each member is then certified by ``is_member``, so a faulty generator
    raises instead of returning a non-member, and a dropped member shows up
    in ``construction_equivalence``.
    """
    guard_d(d, 13, "family filtering")
    n = ground_size(d)
    tilings = _Tilings()
    members = []
    for seq in _nested_sequences(n):
        for parts in _state_parts(seq, d, n, tilings):
            for choice in product(*parts):  # the parts lie by lower point
                members.append(Matching._make(tuple(chain.from_iterable(choice)), n))
    members.sort(key=lambda b: b.arcs)
    # certificate: each member passes the definition with its witness recomputed
    for b in members:
        if not is_member(b, d):
            raise FalsificationError(f"generated candidate {b!r} is not in X_{d}")
    return members


# ---------------------------------------------------------------------------
# distinguished element and pieces


def distinguished_element(b: Matching, d: int) -> int:
    """The unique uncovered point of the 1-covered boundary segment.

    Defined for odd D, non-empty double-primed part, and N unmatched.  The
    uncovered point is provably unique for members of X_D; uniqueness is
    asserted here at runtime, so a violation surfaces as a falsification
    instead of silently picking one.  The leftovers are the walked points p
    with [p+1, hi] covered, from the same forced walk as ``coverings_ok``.
    """
    if d % 2 == 0 or not b.double_primed() or (b.support_mask >> b.n & 1):
        raise DomainError(
            "distinguished element needs odd D, double-primed arcs, and N unmatched"
        )
    seq = nested_pairing(b)
    if seq is None:
        raise DomainError("not a member: no nested-pairing witness")
    # the one boundary segment the third property tiles with a leftover
    ((lo, hi, _),) = [seg for seg in _sequence_segments(seq, d, b.n, False) if seg[2]]
    leftovers = _leftovers(_ends(b), lo, hi)
    if len(leftovers) != 1:
        raise FalsificationError(
            f"boundary segment [{lo},{hi}] of {b!r} admits leftovers {leftovers}"
        )
    return leftovers[0]


# one label object per (t, sign): a member's piece costs one lookup
_label = lru_cache(maxsize=None)(PieceLabel)


def piece_of(b: Matching, d: int) -> PieceLabel:
    """The piece of X_D the matching belongs to."""
    b0 = b.double_primed()
    q = len(b0)
    if d % 2 == 0:
        return _label(q) if q % 2 == 0 else _label(-q - 1)
    n = b.n
    n_matched = bool(b.support_mask >> n & 1)
    if not n_matched:
        if q == 0:
            return _label(0, "+")
        if q % 2 == 0:
            raise DomainError(f"{b!r} violates the parity property for D={d}")
        i_b = max(a.i for a in b0)  # the largest first coordinate of B0
        return _label(q + 1, "+") if i_b % 2 == 0 else _label(-q - 1, "+")
    if q == 0:
        return _label(0, "-")
    if max(a.i for a in b0) == n:
        if q % 2 == 0:
            raise DomainError(f"{b!r} violates the parity property for D={d}")
        return _label(-q - 1, "-")
    if q % 2 == 1:
        raise DomainError(f"{b!r} violates the parity property for D={d}")
    return _label(q, "-")


@lru_cache(maxsize=None)
def pieces(d: int) -> dict[PieceLabel, tuple[Matching, ...]]:
    """The family grouped by piece, keyed in canonical piece order."""
    groups: dict[PieceLabel, list[Matching]] = {}
    for b in enumerate_family(d):
        groups.setdefault(piece_of(b, d), []).append(b)
    return {
        label: tuple(groups[label])
        for label in sorted(groups, key=PieceLabel.sort_key)
    }
