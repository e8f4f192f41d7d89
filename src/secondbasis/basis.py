"""The even-set image of a matching, the order it generates, and the bases.

``epsilon`` sends a family member to the sum of its cyclic intervals plus a
boundary correction, landing in the span of the member's own pair-vectors.
It is a bijection onto E_N (certified at runtime, not assumed), its inverse
induces a partial order on E_N, and the membership matrix of spans against
that order is unitriangular; its columns are the second basis.

The images of X_D are held as masks in family order (``epsilon_masks``), one
``array('I')`` per D.  ``Order``, the lift grid, the uniqueness certificate,
the tables, the matrices and the symbols read those masks and the order's
extension positions; an ``EvenSet`` is built only for what a function
returns, reports or prints.

Symbols are the bridge to the classical bookkeeping: complementary pairs
(S, T) over [1, D+1] with a defect that locates the Harish-Chandra series.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache
from math import comb
from types import MappingProxyType

from .arcs import Matching, pair_masks
from .errors import DomainError, FalsificationError, Record
from .f2 import (
    EvenSet,
    Span,
    _even_positions_mask,
    _mask_gamma,
    _unions,
    in_span,
    members_of,
    span_masks,
)
from .family import (
    PieceLabel,
    _label,
    distinguished_element,
    enumerate_family,
    ground_size,
    lift_positions,
    piece_of,
)

__all__ = [
    "BasisMatrix",
    "CycleError",
    "Order",
    "Symbol",
    "boundary_correction",
    "build_order",
    "change_matrix",
    "epsilon",
    "epsilon_images",
    "epsilon_inverse",
    "epsilon_masks",
    "epsilon_pairs",
    "lift_images",
    "piece_cardinality",
    "primitive_image",
    "reduce_symbol",
    "second_basis_vectors",
    "sector_label",
    "series_size",
    "symbol_of",
    "unique_bijection_check",
]


def sector_label(x: EvenSet, d: int) -> PieceLabel:
    """The piece of E_N an even set belongs to (gamma, and N-membership for odd D)."""
    if x.n != ground_size(d):
        raise DomainError(f"even set over [1, {x.n}] does not fit D={d}")
    return _mask_label(x.mask, d)


def _mask_label(m: int, d: int) -> PieceLabel:
    """``sector_label`` of the set with mask m, unchecked."""
    gamma = _mask_gamma(m, n := ground_size(d))
    return _label(gamma) if d % 2 == 0 else _label(gamma, "-" if m >> n & 1 else "+")


def _correction_mask(b: Matching, d: int) -> int:
    # the mask of ``boundary_correction`` at odd D; every member's label is
    # read, so the parity rule of ``piece_of`` runs on each
    label = piece_of(b, d)
    if label.sign != "+" or label.t == 0:
        return 0
    n = b.n
    u = distinguished_element(b, d)
    if label.t < 0:
        return (2 << n) - (1 << u)
    return 1 << n | (2 << u) - 2


def boundary_correction(b: Matching, d: int) -> EvenSet:
    """The correction summand of epsilon.

    Empty except on the nonzero pieces of the odd-D plus sector, where it is
    [u, N] (negative t) or {N} ∪ [1, u] (positive t) for the distinguished
    boundary element u.
    """
    if d % 2 == 0:
        return EvenSet.empty(b.n)
    return EvenSet.from_mask(_correction_mask(b, d), b.n)


def _epsilon_mask(b: Matching, d: int) -> int:
    # the mask of ``epsilon``, folded from the intervals: [i, j] for a primed
    # arc, [i, N] and [1, j] for a double-primed one
    n = b.n
    mask = 0
    for i, j in b.arcs:
        if i < j:
            mask ^= (2 << j) - (1 << i)
        else:
            mask ^= (2 << n) - (1 << i) + (2 << j) - 2
    if d % 2:
        mask ^= _correction_mask(b, d)
    return mask


def epsilon(b: Matching, d: int) -> EvenSet:
    """Sum of the cyclic intervals of all arcs, plus the boundary correction.

    The correction is empty for even D; for odd D it is read on every call,
    so its parity and uniqueness checks run.
    """
    return EvenSet.from_mask(_epsilon_mask(b, d), b.n)


@lru_cache(maxsize=None)
def epsilon_masks(d: int) -> memoryview:
    """The image masks of X_D in family order: read-only (shared).

    Each image comes from ``epsilon``'s mask and must have even size.  An
    even set is fixed by its bits 1..N-1, so ``mask >> 1`` over those bits is
    its slot among 2^(N-1); a slot met twice is a collision, and the family
    must fill every slot, so epsilon is certified injective onto E_N.
    """
    family = enumerate_family(d)
    n = ground_size(d)
    low = (1 << (n - 1)) - 1
    masks = array("I")
    seen = bytearray(low + 1)
    for b in family:
        m = _epsilon_mask(b, d)
        if m.bit_count() & 1:
            raise FalsificationError(f"epsilon of {b!r} at D={d} has odd size")
        slot = m >> 1 & low
        if seen[slot]:
            first = family[masks.index(m)]
            x = EvenSet.from_mask(m, n)
            raise FalsificationError(f"epsilon collision at D={d}: {first!r} and {b!r} -> {x!r}")
        seen[slot] = 1
        masks.append(m)
    if len(masks) != 1 << (n - 1):
        raise FalsificationError(
            f"family size {len(masks)} != |E_{n}| = {1 << (n - 1)} at D={d}"
        )
    return memoryview(masks).toreadonly()


@lru_cache(maxsize=None)
def epsilon_pairs(d: int) -> tuple[tuple[Matching, EvenSet], ...]:
    """(member, image) for the whole family, read off ``epsilon_masks``, which
    certifies injectivity onto E_N."""
    n = ground_size(d)
    images = (EvenSet.from_mask(m, n) for m in epsilon_masks(d))
    return tuple(zip(enumerate_family(d), images))


@lru_cache(maxsize=None)
def epsilon_images(d: int) -> Mapping[Matching, EvenSet]:
    """member -> image, built once per D; read-only because it is shared."""
    return MappingProxyType(dict(epsilon_pairs(d)))


@lru_cache(maxsize=None)
def epsilon_inverse(d: int) -> Mapping[EvenSet, Matching]:
    """image -> member, built once per D; read-only because it is shared."""
    return MappingProxyType({x: b for b, x in epsilon_pairs(d)})


@lru_cache(maxsize=None)
def lift_images(d: int) -> memoryview:
    """The lift grid X_{D-2} x [1, D] as image masks: flat, row-major,
    read-only (shared).

    Entry r*D + k-1 is the image mask of ``lift_matching(k, b', d)``, b' being
    member r of X_{D-2} in family order: the position the inductive walk
    recorded (``lift_positions``), read through ``epsilon_masks(d)``.
    """
    if d < 2:
        raise DomainError(f"the lift grid needs D >= 2, got {d}")
    masks = epsilon_masks(d)
    return memoryview(array("I", map(masks.__getitem__, lift_positions(d)))).toreadonly()


# ---------------------------------------------------------------------------
# closed-form images of the primitives


def _steps(start: int, stop: int) -> range:
    return range(start, stop + 1, 2)


def primitive_image(d: int, label: PieceLabel) -> EvenSet:
    """The image of the primitive in the given piece, in closed form."""
    n = ground_size(d)
    t = label.t
    if d % 2 == 0:
        if label.sign is not None:
            raise DomainError(f"even D takes unsigned piece labels, got {label}")
        if t == 0:
            return EvenSet.empty(n)
        if t > 0:
            return EvenSet([*_steps(2, t), *_steps(d + 2 - t, d)], n)
        tau = -t
        return EvenSet([*_steps(1, tau - 1), *_steps(d + 3 - tau, d + 1)], n)
    if label.sign == "+":
        if t == 0:
            return EvenSet.empty(n)
        if t > 0:
            return EvenSet([*_steps(2, t), *_steps(d + 3 - t, d + 1)], n)
        tau = -t
        return EvenSet([*_steps(1, tau - 1), *_steps(d + 2 - tau, d)], n)
    if label.sign == "-":
        if t == 0:
            return EvenSet([d + 1, d + 2], n)
        if t < 0:
            tau = -t
            return EvenSet([*_steps(1, tau - 1), *_steps(d + 4 - tau, d + 2)], n)
        return EvenSet(
            [*_steps(2, t), *_steps(d + 1 - t, d - 1), d + 1, d + 2], n
        )
    raise DomainError(f"odd D takes signed piece labels, got {label}")


# ---------------------------------------------------------------------------
# the partial order and the change-of-basis matrices


class CycleError(FalsificationError):
    """The generating digraph has a cycle; ``cycle`` lists its masks, closed."""

    def __init__(self, d: int, cycle: list[int]):
        super().__init__(f"generating digraph at D={d} has a cycle through masks {cycle}")
        self.cycle = cycle


class _MaskMap(Mapping):
    """``Order.gen_spans``: mask -> ``f2.Span``, built when read, iterated in
    extension order; a key outside the masks of E_N raises ``KeyError``."""

    __slots__ = ("_order",)

    def __init__(self, order: "Order"):
        self._order = order

    def __getitem__(self, m) -> Span:
        order = self._order
        if not isinstance(m, int) or m & 1 or m >> (order.n + 1) or m.bit_count() & 1:
            raise KeyError(m)
        i = order.index[m >> 1 & order.low]
        return Span(order.pairs[order.starts[i] : order.starts[i + 1]])

    def __iter__(self) -> Iterator[int]:
        return map(self._order.masks.__getitem__, self._order.extension)

    def __len__(self) -> int:
        return len(self._order.extension)


class Order:
    """The partial order on E_N generated by span membership of preimages.

    Its readers walk int arrays.  ``extension`` (``array('I')``) is the
    canonical linear extension as family positions (piece blocks in display
    order, ties broken by bit-vector value), so position p holds the set of
    mask ``masks[extension[p]]`` (``epsilon_masks``) in the piece
    ``labels[p]``, one interned label per class.  A set's slot
    ``mask >> 1 & low`` indexes 2^(N-1) slots: ``index[slot]`` is its family
    position, ``rank[slot]`` its extension position.  Family position i
    spans by the pair masks ``pairs[starts[i]:starts[i + 1]]``; ``members``
    lists their unions, ``gen_spans`` is a mask -> ``f2.Span`` view, and
    ``sector_positions`` is the one sign filter.
    The generating digraph X' -> span(preimage of X') - {X'} is the one
    acyclicity certificate, checked by a Kahn extension that stores no edge:
    each position walks its span in reflected Gray-code order, one pair
    XORed in per step, and waits on the first unpopped member other than
    itself, resuming the walk when that one pops; popped flags and watch
    lists are indexed by mask.  A heap entry is one int, the label's sort key
    above the mask, and the label is fixed by gamma (a popcount difference)
    and, at odd D, the N bit, so ``_mask_label`` runs once per such class.
    Each member's pair masks are read off its arcs through
    ``f2.span_masks``, once per member, which refuses any but disjoint pairs.
    Construction raises ``CycleError`` with an explicit cycle if the
    extension stalls.  Kahn's pop order already puts every generating edge
    backwards, as the ``order_antisymmetry`` check certifies edge by edge;
    the checks read the order through its generating edges alone.
    """

    def __init__(self, d: int):
        self.d = d
        self.n = n = ground_size(d)
        self.low = low = (1 << (n - 1)) - 1
        self.masks = masks = epsilon_masks(d)
        self.pairs = pairs = array("I")
        self.starts = starts = array("I", [0])
        for b in enumerate_family(d):
            pairs.extend(span_masks(pair_masks(b.arcs), n))
            starts.append(len(pairs))
        # Kahn as the class docstring describes
        self.index = index = array("I", [0]) * (low + 1)
        for i, m in enumerate(masks):
            index[m >> 1 & low] = i
        self.rank = rank = array("I", [0]) * (low + 1)
        popped = bytearray(2 << n)
        cursor = array("I", [0]) * len(masks)
        member = array("I", [0]) * len(masks)
        # ctz[c] is the pair that step c of the reflected Gray code flips
        widest = max(b - a for a, b in zip(starts, starts[1:]))
        ctz = bytes((c ^ c - 1).bit_length() - 1 for c in range(1 << widest))
        # nearly every position waits after the first pass; an array holds it
        # in 4 bytes where a list holds an int object (about 0.5 MB at D=13)
        watch: dict[int, array] = {}
        # a heap entry packs the label's sort key, one byte per field, above
        # the mask; ``keys`` maps a (gamma, N bit) class to its shifted key,
        # and ``labels`` interns one label per key
        shift = n + 1
        top = n if d % 2 else shift  # a mask's bit at ``shift`` is 0
        keys: dict[int, int] = {}
        labels: dict[int, PieceLabel] = {}
        heap: list[int] = []
        push, pop = heapq.heappush, heapq.heappop
        self.extension = extension = array("I")
        self.labels: list[PieceLabel] = []
        every = (1 << shift) - 1
        # every position walks first; then, after each pop, those waiting on it
        woken: Iterable[int] = range(len(masks))
        while True:
            for i in woken:  # go on with i's walk to its next unpopped member
                me = masks[i]
                a = starts[i]
                c, z = cursor[i], member[i]
                if z == me or popped[z]:
                    for c in range(c + 1, 1 << (starts[i + 1] - a)):
                        z ^= pairs[a + ctz[c]]
                        if not popped[z] and z != me:
                            break
                    else:  # each position is pushed once
                        kind = _mask_gamma(me, n) << 1 | me >> top & 1
                        key = keys.get(kind)
                        if key is None:  # _mask_label runs once per class
                            piece = _mask_label(me, d)
                            key = int.from_bytes(bytes(piece.sort_key()), "big")
                            labels[key] = piece
                            key = keys[kind] = key << shift
                        push(heap, key | me)
                        continue
                    cursor[i], member[i] = c, z
                waiting = watch.get(z)
                if waiting is None:
                    watch[z] = array("I", (i,))
                else:
                    waiting.append(i)
            if not heap:
                break
            key = pop(heap)
            m = key & every
            popped[m] = 1
            slot = m >> 1 & low
            rank[slot] = len(extension)
            extension.append(index[slot])
            self.labels.append(labels[key >> shift])
            woken = watch.pop(m, ())
        if len(extension) != len(masks):
            # a stalled mask keeps a stalled span member, so this walk closes
            stalled = {m for m in masks if not popped[m]}
            path: list[int] = []
            step: dict[int, int] = {}
            m = min(stalled)
            while m not in step:
                step[m] = len(path)
                path.append(m)
                m = min(z for z in self.members(m) if z in stalled and z != m)
            raise CycleError(d, path[step[m]:] + [m])

    @property
    def gen_spans(self) -> Mapping[int, Span]:
        """mask -> the span of its preimage's pair-vectors, built when read."""
        return _MaskMap(self)

    def members(self, m: int) -> list[int]:
        """The unions of the pairs of m's span, in the order ``f2.Span`` lists them."""
        i = self.index[m >> 1 & self.low]
        return _unions(self.pairs[self.starts[i] : self.starts[i + 1]])

    @cached_property
    def down(self) -> list[int]:
        """``down[i]``: the full down-set of element i as a bitset over positions.

        Built on first read, which no passing check makes; the pass assumes
        every span member precedes its element, as ``order_antisymmetry``
        certifies.
        """
        rank, low, masks = self.rank, self.low, self.masks
        down: list[int] = []
        for i, p in enumerate(self.extension):
            m = masks[p]
            bits = 1 << i
            for z in self.members(m):
                if z != m:
                    bits |= down[rank[z >> 1 & low]]
            down.append(bits)
        return down

    def sector_positions(self, sector: str) -> array:
        """The extension positions of a sector, in increasing order.

        "all" covers even D; "plus"/"minus" restrict odd D to the even sets
        avoiding/containing N.
        """
        if sector == "all":
            if self.d % 2:
                raise DomainError("sector 'all' needs even D")
            return array("I", range(len(self.extension)))
        if sector in ("plus", "minus"):
            if self.d % 2 == 0:
                raise DomainError(f"sector {sector!r} needs odd D")
            sign = "-" if sector == "minus" else "+"
            return array("I", [p for p, l in enumerate(self.labels) if l.sign == sign])
        raise DomainError(f"unknown sector {sector!r}")


@lru_cache(maxsize=None)
def build_order(d: int) -> Order:
    return Order(d)


def unique_bijection_check(d: int) -> dict | None:
    """Certificate that epsilon is the only span-compatible bijection.

    Epsilon must be a perfect matching of the bipartite graph pairing members
    with the even sets in their span, and the matching is unique exactly when
    the alternating digraph X' -> span(X') - {X'} is acyclic, which is the
    order's own certificate.  Returns None on success, a counterexample
    payload otherwise.
    """
    try:
        order = build_order(d)  # raises on any bijectivity failure
    except CycleError as exc:
        return {"kind": "alternating-cycle", "masks": exc.cycle}
    pairs, starts = order.pairs, order.starts
    for i, m in enumerate(epsilon_masks(d)):
        if not in_span(m, pairs[starts[i] : starts[i + 1]]):
            return {"kind": "image-outside-span", "member": enumerate_family(d)[i].to_pairs()}
    return None


class BasisMatrix(Record):
    """A square integer matrix with its row/column labels (shared order).

    Stored as compressed columns: column j holds the entries
    ``starts[j]:starts[j + 1]`` of ``entry_rows`` (``array('I')``, increasing
    within each column) and ``entry_values`` (``array('i')``); ``starts``
    (``array('I')``) has one offset per column plus the end.  Its fields
    cannot be rebound, and it is unhashable, as its list and arrays are.
    """

    __slots__ = ("labels", "starts", "entry_rows", "entry_values")

    def __init__(
        self, labels: list[EvenSet], starts: array, entry_rows: array, entry_values: array
    ):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "entry_rows", entry_rows)
        object.__setattr__(self, "entry_values", entry_values)

    __hash__ = None

    @property
    def columns(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """Each column's (row, value) pairs, built as the column is reached."""
        for a, b in zip(self.starts, self.starts[1:]):
            yield tuple(zip(self.entry_rows[a:b], self.entry_values[a:b]))

    @property
    def rows(self) -> list[list[int]]:
        """The dense row lists, rebuilt on every access; no library path reads them."""
        n = self.size()
        rows = [[0] * n for _ in range(n)]
        for j, column in enumerate(self.columns):
            for i, v in column:
                rows[i][j] = v
        return rows

    def row_lines(self, sep: str) -> Iterator[str]:
        """Each row as ``sep.join(map(str, row))`` would render it.

        The columns are transposed once, by counting sort, into row-major
        arrays; each line is cut from one all-zero line at its nonzero slots.
        """
        n = self.size()
        starts, entry_rows, entry_values = self.starts, self.entry_rows, self.entry_values
        row_starts = array("I", [0]) * (n + 1)
        for i in entry_rows:
            row_starts[i + 1] += 1
        for i in range(n):
            row_starts[i + 1] += row_starts[i]
        fill = row_starts[:-1]
        cols = array("I", [0]) * len(entry_rows)
        values = array("i", [0]) * len(entry_rows)
        for j, (a, b) in enumerate(zip(starts, starts[1:])):
            for i, v in zip(entry_rows[a:b], entry_values[a:b]):
                p = fill[i]
                cols[p], values[p] = j, v
                fill[i] = p + 1
        zero = sep.join("0" * n)
        step = len(sep) + 1
        for a, b in zip(row_starts, row_starts[1:]):
            parts = []
            at = 0
            for j, v in zip(cols[a:b], values[a:b]):
                slot = j * step
                parts += (zero[at:slot], str(v))
                at = slot + 1
            parts.append(zero[at:])
            yield "".join(parts)

    def to_json(self) -> dict:
        return {
            "labels": [x.to_json() for x in self.labels],
            "rows": self.rows,
        }

    def size(self) -> int:
        return len(self.labels)


def _assert_unitriangular(m: BasisMatrix, bound: int, what: str) -> None:
    """Upper unitriangular with entries in [0, bound], in O(nnz).

    Reports the first fault a row-major scan would meet: in each row the
    diagonal first, then the entries left to right.
    """
    starts, entry_rows, entry_values = m.starts, m.entry_rows, m.entry_values
    first = None  # (row, column, message); column -1 is the diagonal test
    for j, (a, b) in enumerate(zip(starts, starts[1:])):
        diagonal = 0
        for i, v in zip(entry_rows[a:b], entry_values[a:b]):
            if i == j:
                diagonal = v
            if i > j:
                fault = (i, j, f"{what}: nonzero entry below the diagonal at ({i}, {j})")
            elif not 0 <= v <= bound:
                fault = (i, j, f"{what}: entry {v} at ({i}, {j})")
            else:
                continue
            if first is None or fault[:2] < first[:2]:
                first = fault
        if diagonal != 1 and (first is None or (j, -1) < first[:2]):
            first = (j, -1, f"{what}: diagonal entry {j} is {diagonal}")
    if first is not None:
        raise FalsificationError(first[2])


def _span_matrix(
    order: Order, labels: list[EvenSet], rows: dict[int, int], bound: int, what: str
) -> BasisMatrix:
    """Column j counts the members of the span of label j that ``rows`` sends
    to each row; the matrix must be unitriangular with entries in [0, bound]."""
    starts, entry_rows, entry_values = array("I", [0]), array("I"), array("i")
    for y in labels:
        counts = Counter(map(rows.get, order.members(y.mask)))
        counts.pop(None, None)
        hit = sorted(counts)
        entry_rows.extend(hit)
        entry_values.extend(map(counts.__getitem__, hit))
        starts.append(len(entry_rows))
    matrix = BasisMatrix(labels, starts, entry_rows, entry_values)
    _assert_unitriangular(matrix, bound, what)
    return matrix


def change_matrix(d: int, sector: str = "all") -> BasisMatrix:
    """Span-membership matrix over the canonical extension, unitriangular.

    The sector is read as in ``Order.sector_positions``; column j lists the
    positions of the span members of element j.
    """
    order = build_order(d)
    masks, extension = order.masks, order.extension
    chosen = [masks[extension[p]] for p in order.sector_positions(sector)]
    rows = {m: i for i, m in enumerate(chosen)}
    labels = [EvenSet.from_mask(m, order.n) for m in chosen]
    return _span_matrix(order, labels, rows, 1, f"matrix D={d} sector={sector}")


def second_basis_vectors(
    d: int, sector: str = "all"
) -> list[tuple[EvenSet, tuple[tuple[EvenSet, int], ...]]]:
    """The columns of the change matrix as integer combinations of labels."""
    m = change_matrix(d, sector)
    labels, starts = m.labels, m.starts
    vectors = []
    for j, label in enumerate(labels):
        a, b = starts[j], starts[j + 1]
        rows = map(labels.__getitem__, m.entry_rows[a:b])
        vectors.append((label, tuple(zip(rows, m.entry_values[a:b]))))
    return vectors


# ---------------------------------------------------------------------------
# symbols


_FLAVOR_CLASS = {"odd": (2, 1), "plus": (4, 0), "minus": (4, 2)}


class Symbol(Record):
    """An ordered pair of complementary subsets of [1, D+1].

    The flavor records the residue class of the defect |S| - |T|: odd for
    even D, 0 mod 4 ("plus") or 2 mod 4 ("minus") for odd D.
    """

    __slots__ = ("s", "t", "flavor")

    def __init__(self, s: frozenset[int], t: frozenset[int], flavor: str):
        if flavor not in _FLAVOR_CLASS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if s & t:
            raise ValueError("symbol halves must be disjoint")
        m = len(s) + len(t)
        if s | t != set(range(1, m + 1)):
            raise ValueError("symbol halves must partition [1, D+1]")
        modulus, residue = _FLAVOR_CLASS[flavor]
        defect = len(s) - len(t)
        if defect % modulus != residue % modulus:
            raise ValueError(f"defect {defect} incompatible with flavor {flavor!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "flavor", flavor)

    @property
    def defect(self) -> int:
        return len(self.s) - len(self.t)

    @property
    def d(self) -> int:
        return len(self.s) + len(self.t) - 1

    def series(self) -> int:
        """The Harish-Chandra series parameter: |defect| for even D, signed else."""
        return abs(self.defect) if self.flavor == "odd" else self.defect

    def to_json(self) -> dict:
        return {
            "S": sorted(self.s),
            "T": sorted(self.t),
            "defect": self.defect,
            "series": self.series(),
        }


def _symbol_masks(x: int, d: int) -> tuple[int, int]:
    """The halves (S, T) of the symbol of the even set with mask x, as masks
    over [1, D+1]: the star rule.

    star holds the odd members of x and the even points of [1, N] outside
    it, starstar the rest of [1, N].  Even D takes (star, starstar).  At odd
    D, N is odd, so it lies in star exactly when it lies in x; the halves
    swap and N leaves the one holding it: (starstar - {N}, star) in the plus
    sector, (starstar, star - {N}) in the minus sector.
    """
    n = ground_size(d)
    star = x ^ _even_positions_mask(n)
    starstar = star ^ (2 << n) - 2
    if d % 2 == 0:
        return star, starstar
    top = 1 << n
    return (starstar, star ^ top) if star & top else (starstar ^ top, star)


def symbol_of(x: EvenSet, d: int) -> Symbol:
    """The symbol attached to an even set (sector-dependent for odd D)."""
    if x.n != ground_size(d):
        raise DomainError(f"even set over [1, {x.n}] does not fit D={d}")
    s, t = _symbol_masks(x.mask, d)
    flavor = "odd" if d % 2 == 0 else "minus" if x.mask >> x.n & 1 else "plus"
    return Symbol(frozenset(members_of(s)), frozenset(members_of(t)), flavor)


def reduce_symbol(s, t, u_prime, u) -> Symbol:
    """Relabel a symbol over (U', U) to the standard ground set [1, D+1]."""
    s, t, u_prime, u = set(s), set(t), set(u_prime), set(u)
    if s | t != u:
        raise ValueError("S and T must cover U")
    if s & t != u_prime:
        raise ValueError("S and T must overlap exactly in U'")
    if 0 in u_prime:
        raise ValueError("0 may not occur in U'")
    core = sorted(u - u_prime)
    if not core:
        raise ValueError("U - U' must be nonempty")
    relabel = {e: i for i, e in enumerate(core, start=1)}
    s2 = frozenset(relabel[e] for e in s - u_prime)
    t2 = frozenset(relabel[e] for e in t - u_prime)
    if len(core) % 2 == 1:
        flavor = "odd"
    else:
        flavor = "plus" if (len(s2) - len(t2)) % 4 == 0 else "minus"
    return Symbol(s2, t2, flavor)


# ---------------------------------------------------------------------------
# counting


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def piece_cardinality(d: int, label: PieceLabel) -> int:
    """The size of a piece of E_N, in closed form."""
    n = ground_size(d)
    t = label.t
    if d % 2 == 0:
        if label.sign is not None:
            raise DomainError(f"even D takes unsigned piece labels, got {label}")
        return _binom(n, (abs(2 * t + 1) + n) // 2)
    if label.sign == "+":
        num = 2 * t + n - 1
        return _binom(n - 1, num // 2) if num % 2 == 0 else 0
    if label.sign == "-":
        num = 2 * t + n + 1
        return _binom(n - 1, num // 2) if num % 2 == 0 else 0
    raise DomainError(f"odd D takes signed piece labels, got {label}")


def series_size(d: int, s: int) -> int:
    """The size of a Harish-Chandra series of symbols."""
    n = ground_size(d)
    if d % 2 == 0:
        if s % 2 == 0 or s < 0:
            raise DomainError(f"even D takes positive odd series parameters, got {s}")
        return _binom(n, (s + n) // 2)
    if s % 2:
        raise DomainError(f"odd D takes even series parameters, got {s}")
    return _binom(n - 1, (s + n - 1) // 2)
