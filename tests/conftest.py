import sys
from array import array
from itertools import combinations
from pathlib import Path

import pytest

from secondbasis import limits
from secondbasis.arcs import Arc, Matching
from secondbasis.basis import BasisMatrix, sector_label
from secondbasis.f2 import EvenSet
from secondbasis.family import (
    _nested_sequences,
    _pairing,
    _parity,
    _sequence_segments,
    ground_size,
)
from secondbasis.tables import parse_entry
from tests.oracles import iter_primed_matchings

GOLDEN = Path(__file__).parent / "golden"


def load_corpus(d):
    """Parse a corpus file into (ordered piece labels, entries per piece)."""
    pieces: dict[str, list] = {}
    label = None
    n = ground_size(d)
    for line in (GOLDEN / f"table_d{d}.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("piece "):
            label = line[len("piece "):].rstrip(":")
            pieces[label] = []
            continue
        pieces[label].append(parse_entry(line, n))
    return pieces


@pytest.fixture
def corpus_loader():
    return load_corpus


def library_modules():
    """Every loaded secondbasis module, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".")[0] == "secondbasis"
    ]


def empty_store():
    """Drop every per-D table the library holds: ``limits.release`` of every D."""
    limits.release(sys.maxsize)


@pytest.fixture
def cold_store():
    """An empty store of per-D tables before the test and after it."""
    empty_store()
    yield
    empty_store()


def stored(builder):
    """The Ds at which the store holds a table of ``builder``, a ``limits.per_d`` function."""
    return sorted(d for d, tables in limits._store.items() if builder.__wrapped__ in tables)


def sweep(check, ds):
    """Run ``check`` at each D in order; the first failure, tagged with its D.

    One check's part of ``verify.run_checks``, without its report: a check
    that raises raises here.
    """
    for d in ds:
        detail = check(d)
        if detail is not None:
            return {"D": d, **detail}
    return None


def rebind_everywhere(monkeypatch, original, replacement):
    """Point every library name bound to ``original`` at ``replacement``."""
    for mod in library_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


def elements(order):
    """The order's extension as even sets: ``masks[extension[p]]`` for each p."""
    return [EvenSet.from_mask(order.masks[i], order.n) for i in order.extension]


def position(order, m):
    """The extension position of the even set with mask ``m``, read off ``rank``."""
    return order.rank[m >> 1 & order.low]


def below(order, y):
    """The elements at or below ``y``, in extension order, read off ``order.down``."""
    bits = order.down[position(order, y.mask)]
    masks = order.masks
    return [
        EvenSet.from_mask(masks[p], order.n)
        for i, p in enumerate(order.extension)
        if bits >> i & 1
    ]


def doctor(order, spans=None, elements=None):
    """Rewrite a fresh order's arrays in place; its readers and checks read them.

    ``spans`` maps a mask to the masks that now generate its span.  They must
    be pairwise disjoint, so the span is still the unions of its generators,
    as ``f2.Span`` and ``Order.members`` read it.  ``elements`` is a new
    extension, as even sets: ``extension``, ``rank`` and ``labels`` follow it.
    """
    low = order.low
    new = {}
    for m, generators in (spans or {}).items():
        generators = tuple(generators)
        assert not any(a & b for a, b in combinations(generators, 2)), generators
        new[order.index[m >> 1 & low]] = generators
    pairs, starts = array("I"), array("I", [0])
    for i, (a, b) in enumerate(zip(order.starts, order.starts[1:])):
        pairs.extend(new.get(i, order.pairs[a:b]))
        starts.append(len(pairs))
    order.pairs, order.starts = pairs, starts
    if elements is not None:
        elements = list(elements)
        order.extension = array("I", [order.index[x.mask >> 1 & low] for x in elements])
        order.labels = [sector_label(x, order.d) for x in elements]
        for p, x in enumerate(elements):
            order.rank[x.mask >> 1 & low] = p


def from_columns(labels, columns):
    """The ``BasisMatrix`` whose column j lists its nonzero (row, value) pairs."""
    starts, rows, values = array("I", [0]), array("I"), array("i")
    for column in columns:
        rows.extend(i for i, _ in column)
        values.extend(v for _, v in column)
        starts.append(len(rows))
    return BasisMatrix(labels, starts, rows, values)


def primed_starts(b):
    """The primed arcs of ``b`` as first point -> list of second points."""
    starts = {}
    for a in b.primed():
        starts.setdefault(a.i, []).append(a.j)
    return starts


def tile(starts, lo, hi, skip):
    """The tiling search: tile [lo, hi] with the arcs in ``starts``, leaving
    exactly ``skip`` points uncovered; (arcs, skipped points) or None.

    A depth-first search that tries the arcs at a point before skipping it,
    over arbitrary interval systems (``starts`` may hold several arcs per
    point).  It is the reference the library's forced walk is tested against.
    """
    if max(0, hi - lo + 1) % 2 != skip % 2:
        return None

    def rec(p, budget):
        if p > hi:
            return ([], []) if budget == 0 else None
        for q in starts.get(p, ()):
            if q <= hi:
                rest = rec(q + 1, budget)
                if rest is not None:
                    return ([Arc(p, q)] + rest[0], rest[1])
        if budget:
            rest = rec(p + 1, budget - 1)
            if rest is not None:
                return (rest[0], [p] + rest[1])
        return None

    return rec(lo, skip)


def parity_target(b, d):
    """The parity the double-primed part must have (0 or 1)."""
    return _parity(b, d)[1]


def covering_requirements(b, d, seq):
    """The interval/budget table the third property demands, materialized.

    Each triple (lo, hi, e) asks for [lo, hi] to be tiled with exactly e
    uncovered points: first the primed-arc interiors, then the segments of
    the sequence.  The case split on the boundary segments follows the
    parity of D, whether N is matched, and the parity of the largest
    double-primed coordinate; it only applies when the sequence is non-empty.
    """
    n = b.n
    interiors = [(a.i + 1, a.j - 1, 0) for a in b.primed()]
    return interiors + _sequence_segments(seq, d, n, bool(b.support_mask >> n & 1))


def nested_candidates(n):
    """Every matching of [1, n] with the first filter property, with its witness.

    These are the matchings whose double-primed part is the nested pairing of
    an increasing sequence: each such sequence (outer loop) together with
    each primed-only matching of the remaining points (inner loop).  Yields
    (matching, sequence); the sequence is ``nested_pairing`` of the matching.
    """
    everything = ((1 << n) - 1) << 1
    for seq in _nested_sequences(n):
        inner = _pairing(seq)
        for outer, _ in iter_primed_matchings(everything ^ sum(1 << i for i in seq)):
            yield Matching._make(tuple(sorted(inner + outer, key=min)), n), seq
