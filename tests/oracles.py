"""References the library is tested against.

The raw matching enumerators: the library never enumerates the whole
matching space (the filter tiles each region of a nested sequence instead).
The triangular closed form counted arc by arc and point by point: the
library counts every n_k at once on bit slices.  The embedding point by
point: the library moves a whole mask (``arcs._splice``) or key
(``arcs.lift_keys``).  The inductive family by the ``Matching`` lift, one
shared arc per moved arc (``lift_row``): the library lifts byte keys and
holds X_D as pair masks.
"""

from typing import Iterator

from secondbasis.arcs import Arc, Matching, _range_mask, cyclic_interval_mask
from secondbasis.errors import DomainError
from secondbasis.f2 import EvenSet, check_ground_size
from secondbasis.family import ground_size, primitives
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


# ---------------------------------------------------------------------------
# the Matching lift: each arc moved through a per-slot table, one tuple per lift


# one Arc object per (i, j) for every lift in the process, so the members of
# a family share their arcs instead of each holding its own copies
_SHARED_ARCS: dict[tuple[int, int], Arc] = {}


def _shared_arc(i: int, j: int) -> Arc:
    arc = _SHARED_ARCS.get((i, j))
    return arc if arc is not None else _SHARED_ARCS.setdefault((i, j), Arc(i, j))


class _Shift(dict):
    """Slot k's lift on arcs: an arc -> its shared image, filled as arcs occur.

    The embedding moves a point i to i + 2 when i >= k and keeps it below, so
    the image does not depend on D and one table serves every D.  The key
    None stands for the short arc {k, k+1} the slot inserts.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        super().__init__({None: _shared_arc(k, k + 1)})
        self.k = k

    def __missing__(self, arc: Arc) -> Arc:
        i, j = arc
        k = self.k
        image = self[arc] = _shared_arc(i + 2 if i >= k else i, j + 2 if j >= k else j)
        return image


_SHIFTS: list[_Shift] = []  # _SHIFTS[k - 1] is slot k's table


def lift_row(bp: Matching, d: int) -> list[tuple[Arc, ...]]:
    """The arcs of the D lifts of ``bp``: entry k-1 holds slot k's, by lower point.

    Slot k inserts the short arc {k, k+1} and moves every point i >= k to
    i + 2.  The embedding [1, n-2] -> [1, n] is strictly increasing, misses k
    and k+1, and keeps the parity of every difference, so each moved arc keeps
    its canonical writing, the arcs keep their order by lower point, and the
    short arc goes right after the arcs that start below k.  Every arc of a
    lift, the short one included, is the one process-wide object of its
    (i, j), read from slot k's shift table.  The lift must land on the ground
    set of the target D.  That the lifts land in X_D is certified by
    ``construction_equivalence``.
    """
    if bp.n + 2 != d + 1 + d % 2:  # N = D+1 or D+2, whichever is odd
        raise DomainError(f"matching over [1, {bp.n}] does not lift to D={d}")
    while len(_SHIFTS) < d:
        _SHIFTS.append(_Shift(len(_SHIFTS) + 1))
    arcs = bp.arcs
    los = [i if i < j else j for i, j in arcs] + [d + 1]
    row = []
    cut = 0
    keys = (None, *arcs)  # the arcs with the short arc's key after those below k
    for k, shift in enumerate(_SHIFTS[:d], start=1):
        if los[cut] < k:
            while los[cut] < k:
                cut += 1
            keys = (*arcs[:cut], None, *arcs[cut:])
        # tuple() of a bare map guesses its size and shrinks it, so the
        # tuples of repeated lifts, freed, would pile up in CPython's tuple
        # free lists; through a list the tuple gets its exact size
        row.append(tuple(list(map(shift.__getitem__, keys))))
    return row


def oracle_family(d: int) -> tuple[tuple[Matching, ...], list[int]]:
    """X_D and its lift grid by the ``Matching`` lift: (members, grid).

    Every member of X_{D-2}, by this oracle, is lifted into all D slots with
    ``lift_row``, the lifts are deduplicated on their arcs with the
    primitives, and the members sorted by arcs; grid entry r*D + k-1 is the
    position of slot k's lift of member r.
    """
    n = ground_size(d)
    if d < 2:
        empty = Matching((), 1)
        base = [empty] if d == 0 else primitives(1) + [Matching._make(lift_row(empty, 1)[0], 3)]
        return tuple(sorted(base, key=lambda b: b.arcs)), []
    members = {b.arcs: b for b in primitives(d)}
    lifts = [arcs for bp in oracle_family(d - 2)[0] for arcs in lift_row(bp, d)]
    for arcs in lifts:
        members.setdefault(arcs, Matching._make(arcs, n))
    order = sorted(members)
    position = {arcs: p for p, arcs in enumerate(order)}
    return tuple(members[arcs] for arcs in order), [position[arcs] for arcs in lifts]
