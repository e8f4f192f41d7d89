"""Two refinements of the even-set image.

For even D, the image has a closed form with triangular-number coefficients
over the adjacent-pair basis {k, k+1}; the per-point identity behind it is
exposed as a diagnostic because it exercises every interval computation.

For odd D, adding the fixed block [1, D+1] is a fixed-point-free involution
of each sector; transversals of its orbits index the doubled change-of-basis
matrices whose columns give bases of the orbit spaces.
"""

from __future__ import annotations

from .arcs import Matching, cyclic_interval_mask
from .basis import (
    BasisMatrix,
    build_order,
    epsilon_images,
    epsilon_inverse,
    sector_label,
    _span_matrix,
)
from .errors import DomainError, FalsificationError
from .f2 import EvenSet, members_of
from .family import PieceLabel, ground_size, piece_of

__all__ = [
    "in_primed_zero_piece",
    "in_primed_zero_piece_set",
    "interval_counts",
    "involution",
    "matching_involution",
    "orbit_representatives",
    "pair_basis_coords",
    "pair_basis_set",
    "point_counts",
    "sector_matrix",
    "sector_order_check",
    "triangle_identity_ok",
    "triangular_epsilon",
]


# ---------------------------------------------------------------------------
# even D: the triangular-number formula


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


def pair_basis_coords(x: EvenSet, d: int) -> tuple[int, ...]:
    """Coordinates of x in the adjacent-pair basis {1,2}, {2,3}, ..., {D,D+1}.

    Coordinate j is the parity of |x ∩ [1, j]|; reconstruction round-trips.
    """
    if d % 2:
        raise DomainError("the adjacent-pair basis is for even D only")
    if x.n != ground_size(d):
        raise DomainError(f"even set over [1, {x.n}] does not fit D={d}")
    coords = []
    acc = 0
    for j in range(1, d + 1):
        acc ^= x.mask >> j & 1
        coords.append(acc)
    return tuple(coords)


def pair_basis_set(coords: tuple[int, ...], d: int) -> EvenSet:
    n = ground_size(d)
    if len(coords) != d:
        raise DomainError(f"expected {d} coordinates, got {len(coords)}")
    mask = 0
    for j, c in enumerate(coords, start=1):
        if c:
            mask ^= (1 << j) | (1 << (j + 1))
    return EvenSet.from_mask(mask, n)


# ---------------------------------------------------------------------------
# odd D: the block-flip involution


def _block(d: int) -> int:
    return ((1 << (d + 1)) - 1) << 1


def involution(x: EvenSet, d: int) -> EvenSet:
    """x + [1, D+1]: flips membership below N, fixed-point free on E_N."""
    if d % 2 == 0:
        raise DomainError("the block-flip involution is for odd D only")
    n = ground_size(d)
    if x.n != n:
        raise DomainError(f"even set over [1, {x.n}] does not fit D={d}")
    return EvenSet.from_mask(x.mask ^ _block(d), n)


def matching_involution(b: Matching, d: int) -> Matching:
    """The preimage of eps(b)^!, both directions read from the per-D epsilon tables."""
    return epsilon_inverse(d)[involution(epsilon_images(d)[b], d)]


def in_primed_zero_piece_set(x: EvenSet, d: int) -> bool:
    """Whether a (0,+)-piece even set avoids D+1 (the primed half of the piece)."""
    if sector_label(x, d) != PieceLabel(0, "+"):
        raise DomainError(f"{x!r} is not in the (0,+) piece for D={d}")
    return (d + 1) not in x


def in_primed_zero_piece(b: Matching, d: int) -> bool:
    """Whether a (0,+)-piece member leaves D+1 unmatched."""
    if piece_of(b, d) != PieceLabel(0, "+"):
        raise DomainError(f"{b!r} is not in the (0,+) piece for D={d}")
    return not (b.support_mask >> (d + 1)) & 1


# ---------------------------------------------------------------------------
# sector order properties and the orbit matrices


def _rank(label: PieceLabel) -> int:
    # strictly increasing along the order within a sector, constant on orbits
    t = label.t
    return max(t, -t) if label.sign == "+" else max(t, -t - 2)


def _fault(lx: PieceLabel, x: int, ly: PieceLabel, y: int, d: int) -> str | None:
    """The kind of fault x below y makes, or None."""
    if lx.sign != ly.sign:  # a plus set's preimage leaves N unmatched
        return "sector-crossing" if ly.sign == "+" else None
    if lx.t != ly.t:
        return "rank-violation" if _rank(lx) >= _rank(ly) else None
    if lx.t == 0 and lx.sign == "+" and x >> (d + 1) & 1 and not y >> (d + 1) & 1:
        return "primed-violation"
    return None


def sector_order_check(d: int) -> dict | None:
    """The sector order properties; None on success.

    No minus set lies below a plus set; comparable plus-sector sets have
    equal t or strictly growing max(t, -t), and anything below the primed
    half of the (0,+) piece stays primed; the minus sector uses
    max(t, -t-2).  Each property holds on the order once it holds on every
    generating edge: with no crossing edge a chain between two sets of one
    sector stays in it, the rank never falls along it and rises where t
    changes, and an unprimed-to-primed chain has an unprimed-to-primed edge.
    So the first y with a faulty edge is the first with a fault below it,
    and its lowest faulty down-set position is the counterexample.

    A fault depends on the two labels alone, with the (0,+) piece split by
    the D+1 bit, so each set gets the id of its class and the fault of every
    pair of ids is computed once per D: an edge costs one table lookup.
    """
    if d % 2 == 0:
        raise DomainError("the sector order properties concern odd D only")
    order = build_order(d)
    masks, extension, labels, low = order.masks, order.extension, order.labels, order.low
    zero_plus = PieceLabel(0, "+")
    classes: dict[tuple[PieceLabel, int], int] = {}
    ids = bytearray(low + 1)
    for p, label in zip(extension, labels):
        m = masks[p]
        top = m >> (d + 1) & 1 if label == zero_plus else 0
        ids[m >> 1 & low] = classes.setdefault((label, top), len(classes))
    # faults[b][a]: the kind of fault a set of class a makes below one of class b
    faults = [
        [_fault(la, ta << (d + 1), lb, tb << (d + 1), d) for la, ta in classes]
        for lb, tb in classes
    ]
    for i, p in enumerate(extension):
        m = masks[p]
        column = faults[ids[m >> 1 & low]]
        # a set makes no fault with itself, so its own span member is harmless
        if not any(column[ids[z >> 1 & low]] for z in order.members(m)):
            continue
        down = order.down[i]
        for k in range(i):
            x = masks[extension[k]]
            kind = column[ids[x >> 1 & low]] if down >> k & 1 else None
            if kind:
                bad = {"kind": kind, "x": list(members_of(x)), "y": list(members_of(m))}
                if kind == "rank-violation":
                    bad["pieces"] = [str(labels[k]), str(labels[i])]
                return bad
    return None


_SECTOR_NAMES = ("++", "+-", "-+", "--")


def orbit_representatives(d: int, which: str) -> tuple[EvenSet, ...]:
    """A transversal of the involution orbits on one sector.

    ++/+- take the positive/negative pieces of the plus sector together with
    the primed half of its zero piece; -+/-- split the minus sector at t >= 0.
    Ordered by orbit rank, then canonical-extension position, which is the
    triangularizing order for the doubled matrices.
    """
    if which not in _SECTOR_NAMES:
        raise DomainError(f"sector must be one of {_SECTOR_NAMES}, got {which!r}")
    if d % 2 == 0:
        raise DomainError("orbit representatives concern odd D only")
    order = build_order(d)
    masks, extension, labels = order.masks, order.extension, order.labels
    chosen = []
    for p in order.sector_positions("plus" if which[0] == "+" else "minus"):
        label = labels[p]
        if label.sign == "+" and label.t == 0:  # the primed half avoids D+1
            keep = not masks[extension[p]] >> (d + 1) & 1
        else:  # a plus-sector t here is nonzero, so t >= 0 means t > 0
            keep = (label.t >= 0) == (which[1] == "+")
        if keep:
            chosen.append(p)
    chosen.sort(key=lambda p: _rank(labels[p]))  # stable: ties keep position order
    return tuple(EvenSet.from_mask(masks[extension[p]], order.n) for p in chosen)


def sector_matrix(d: int, which: str) -> BasisMatrix:
    """The doubled membership matrix over an orbit transversal.

    Entry (X, X') counts how many of X, X^! lie in the span of the preimage
    of X'; unitriangular with entries in {0, 1, 2}.  The row map sends both
    members of each orbit to its representative's row.
    """
    reps = orbit_representatives(d, which)
    block = _block(d)
    rows: dict[int, int] = {}
    for i, x in enumerate(reps):
        rows[x.mask] = rows[x.mask ^ block] = i
    what = f"orbit matrix D={d} sector={which}"
    if len(rows) != 2 * len(reps):
        raise FalsificationError(f"{what}: the transversal meets an orbit twice")
    return _span_matrix(build_order(d), list(reps), rows, 2, what)
