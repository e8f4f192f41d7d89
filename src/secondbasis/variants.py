"""Two refinements of the even-set image.

For even D, the image has a closed form with triangular-number coefficients
over the adjacent-pair basis {k, k+1}; the per-point identity behind it is
exposed as a diagnostic because it exercises every interval computation.

For odd D, adding the fixed block [1, D+1] is a fixed-point-free involution
of each sector; transversals of its orbits index the doubled change-of-basis
matrices whose columns give bases of the orbit spaces.
"""

from __future__ import annotations

from collections.abc import Iterable

from .arcs import Matching
from .basis import (
    BasisMatrix,
    build_order,
    epsilon_images,
    epsilon_inverse,
    sector_label,
    _span_matrix,
)
from .errors import DomainError, FalsificationError
from .f2 import EvenSet, _mask_gamma, members_of
from .family import PieceLabel, _label, ground_size, piece_of

__all__ = [
    "in_primed_zero_piece",
    "in_primed_zero_piece_set",
    "involution",
    "matching_involution",
    "orbit_representatives",
    "sector_matrix",
    "sector_order_check",
    "triangle_identity_ok",
    "triangular_epsilon",
]


# ---------------------------------------------------------------------------
# even D: the triangular-number formula


def _triangle_masks(b: Matching, d: int) -> tuple[int, int]:
    """The closed form's mask and the point identity's defect (0 when it holds).

    Bits k of c0, c1 hold n_k mod 4 for every k, so T = c0 ^ c1 holds [n_k];
    a wrapping interval repeats point 1 at N+1, so n_N = |B0|."""
    if d % 2:
        raise DomainError("the triangular closed form is stated for even D only")
    n = b.n
    c0 = c1 = points = 0
    for i, j in b.arcs:
        interval = (2 << j) - (1 << i) if i < j else (4 << n) - (1 << i) + (2 << j) - 2
        x = interval & interval >> 1
        c1 ^= c0 & x
        c0 ^= x
        points ^= interval
    t, full = c0 ^ c1, (2 << n) - 2
    inner = t & full >> 1  # [n_1..n_D]
    form = inner ^ inner << 1 ^ (2 | 1 << n if t >> n & 1 else 0)
    return form, (t ^ (t << 1 | t >> (n - 1)) ^ points) & full  # T + rot(T) = sum


def triangular_epsilon(b: Matching, d: int) -> EvenSet:
    """The closed form, sum of [n_k]{k,k+1} plus [n_{D+1}]{1,N}, bit-sliced; even D only."""
    return EvenSet.from_mask(_triangle_masks(b, d)[0], b.n)


def triangle_identity_ok(b: Matching, d: int) -> bool:
    """Pointwise identity: [n_k] + [n_k'] == m_k mod 2 (k' = cyclic left step)."""
    return not _triangle_masks(b, d)[1]


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
    if sector_label(x, d) != _label(0, "+"):
        raise DomainError(f"{x!r} is not in the (0,+) piece for D={d}")
    return (d + 1) not in x


def in_primed_zero_piece(b: Matching, d: int) -> bool:
    """Whether a (0,+)-piece member leaves D+1 unmatched."""
    if piece_of(b, d) != _label(0, "+"):
        raise DomainError(f"{b!r} is not in the (0,+) piece for D={d}")
    return not (b.support_mask >> (d + 1)) & 1


# ---------------------------------------------------------------------------
# sector order properties and the orbit matrices


def _rank(label: PieceLabel) -> int:
    # strictly increasing along the order within a sector, constant on orbits
    t = label.t
    return max(t, -t) if label.sign == "+" else max(t, -t - 2)


def _fault(x: int, y: int) -> str | None:
    """The kind of fault a set of code x (``_code``) below one of code y makes, or None."""
    lx, ly = (_label(c >> 2, "+-"[c >> 1 & 1]) for c in (x, y))  # as _mask_label
    if lx.sign != ly.sign:  # a plus set's preimage leaves N unmatched
        return "sector-crossing" if ly.sign == "+" else None
    if lx.t != ly.t:
        return "rank-violation" if _rank(lx) >= _rank(ly) else None
    if lx.t == 0 and lx.sign == "+" and x & 1 and not y & 1:
        return "primed-violation"
    return None


def _code(q: int, d: int) -> int:
    """4·gamma(q) + 2·[N in q] + [D+1 in q] at odd D: additive over disjoint unions."""
    return _mask_gamma(q, d + 2) << 2 | q >> (d + 1) & 3  # N = D+2


def _subset_sums(codes: Iterable[int], zero: int) -> int:
    """Bit zero + s is set for each sum s of a sub-collection of ``codes``."""
    reach = 1 << zero
    for c in codes:
        reach |= reach << c if c >= 0 else reach >> -c
    return reach


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

    A fault depends on the labels alone, with the (0,+) piece split by the
    D+1 bit: on the codes.  Codes add over disjoint unions, so a subset sum
    over y's generators' codes marks the codes its span reaches; y's down-set
    is read only where they meet y's faulty codes, at a faulty edge.
    """
    if d % 2 == 0:
        raise DomainError("the sector order properties concern odd D only")
    order = build_order(d)
    masks, extension, labels = order.masks, order.extension, order.labels
    zero = 4 * order.n + 4  # the codes of subsets of [1, N] lie above -zero
    code = {q: _code(q, d) for q in set(order.pairs)}  # the distinct generators
    codes = [c for c in range(-zero, zero + 8) if not c & 4]  # gamma is even
    faults = {cy: {cx: f for cx in codes if (f := _fault(cx, cy))} for cy in codes}
    screens = {cy: sum(1 << zero + cx for cx in column) for cy, column in faults.items()}
    for i, p in enumerate(extension):
        m = masks[p]
        cy = _code(m, d)
        generators = order.pairs[order.starts[p] : order.starts[p + 1]]
        if not _subset_sums(map(code.__getitem__, generators), zero) & screens[cy]:
            continue
        column, down = faults[cy], order.down[i]
        for k in range(i):
            x = masks[extension[k]]
            if down >> k & 1 and (kind := column.get(_code(x, d))):
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
