"""Rendering of the family tables in bracket notation.

An entry shows a member's arcs with the bracketed ones inside its even-set
image; their pair-vectors sum to the image, which ``f2.in_span`` checks
against the member's pair masks in ``Order.pairs``.  Arcs print as digit
pairs up to N = 9 and as "i-j" beyond; the empty member prints as ([∅]).
"""

from __future__ import annotations

import json
from typing import Iterable, TextIO

from .arcs import Arc, Matching, arc_text, classify_pair, pair_masks
from .basis import build_order
from .errors import DecompositionError, DomainError, Record
from .f2 import EvenSet, in_span
from .family import PieceLabel, enumerate_family, ground_size
from .limits import guard_d, per_d

__all__ = [
    "TableEntry",
    "parse_entry",
    "render_entry",
    "render_table",
    "table_data",
    "table_json",
    "write_table_json",
]

EMPTY_MARK = "∅"


class TableEntry(Record):
    """A member and the arcs of it whose pair-vectors sum to its image."""

    __slots__ = ("matching", "bracketed")

    def __init__(self, matching: Matching, bracketed: tuple[Arc, ...]):
        object.__setattr__(self, "matching", matching)
        object.__setattr__(self, "bracketed", bracketed)

    def unbracketed(self) -> tuple[Arc, ...]:
        inside = set(self.bracketed)
        return tuple(a for a in self.matching.arcs if a not in inside)

    def key(self) -> tuple:
        return (self.matching.arcs, tuple(sorted(self.bracketed)))

    def to_json(self) -> dict:
        return {
            "arcs": self.matching.to_pairs(),
            "bracketed": [[a.i, a.j] for a in self.bracketed],
        }


def table_entry(b: Matching, m: int, pairs: Iterable[int]) -> TableEntry:
    """The entry of a member from its image mask and span pairs: the arcs inside it."""
    if not in_span(m, pairs):
        image = EvenSet.from_mask(m, b.n)
        raise DecompositionError(f"{image!r} is not in the span of the generators")
    inside = tuple([a for a, g in zip(b.arcs, pair_masks(b.arcs)) if g & m == g])
    return TableEntry(b, inside)


def render_entry(entry: TableEntry) -> str:
    n = entry.matching.n
    outside = ",".join(arc_text(a, n) for a in entry.unbracketed())
    inside = ",".join(arc_text(a, n) for a in entry.bracketed) or EMPTY_MARK
    head = f"({outside}," if outside else "("
    return f"{head}[{inside}])"


def parse_entry(text: str, n: int) -> TableEntry:
    """Inverse of render_entry (tolerates whitespace and hyphenated arcs)."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith("])")):
        raise ValueError(f"malformed entry {text!r}")
    body = text[1:-2]
    outside_text, _, inside_text = body.partition("[")

    def parse_arcs(chunk: str) -> list[Arc]:
        arcs = []
        for token in chunk.split(","):
            token = token.strip()
            if not token or token == EMPTY_MARK:
                continue
            if "-" in token:
                a, b = token.split("-")
            else:
                a, b = token[0], token[1:]
            arcs.append(classify_pair(int(a), int(b)))
        return arcs

    inside = parse_arcs(inside_text)
    matching = Matching(parse_arcs(outside_text) + inside, n)
    return TableEntry(matching, tuple(inside))


def table_data(d: int) -> tuple[tuple[PieceLabel, tuple[TableEntry, ...]], ...]:
    """Entries per piece, pieces in display order, entries in the canonical
    linear extension of the order on images."""
    guard_d(d, 11, "table rendering")
    return _table_data(d)


@per_d
def _table_data(d: int) -> tuple[tuple[PieceLabel, tuple[TableEntry, ...]], ...]:
    order = build_order(d)
    family, masks, pairs, starts = enumerate_family(d), order.masks, order.pairs, order.starts
    # the extension runs through the pieces in display order, one block each
    groups: dict[PieceLabel, list[TableEntry]] = {}
    for p, label in zip(order.extension, order.labels):
        entry = table_entry(family[p], masks[p], pairs[starts[p] : starts[p + 1]])
        groups.setdefault(label, []).append(entry)
    return tuple((label, tuple(entries)) for label, entries in groups.items())


def _selected(d: int, piece: PieceLabel | None) -> list:
    # every piece, or the one asked for; a table always has a piece
    data = table_data(d)
    chosen = [item for item in data if piece is None or item[0] == piece]
    if not chosen:
        raise DomainError(f"no piece {piece} at D={d}")
    return chosen


def render_table(d: int, piece: PieceLabel | None = None) -> str:
    lines = [f"table D={d} (ground set [1,{ground_size(d)}])"]
    for label, entries in _selected(d, piece):
        lines.append(f"piece {label}:")
        lines.extend(render_entry(e) for e in entries)
    return "\n".join(lines) + "\n"


def table_json(d: int, piece: PieceLabel | None = None) -> dict:
    pieces_json = [
        {
            "label": str(label),
            "t": label.t,
            "sign": label.sign,
            "entries": [e.to_json() for e in entries],
        }
        for label, entries in _selected(d, piece)
    ]
    return {"D": d, "N": ground_size(d), "pieces": pieces_json}


_encode = json.JSONEncoder(sort_keys=True).encode


def write_table_json(out: TextIO, d: int, piece: PieceLabel | None = None) -> None:
    """Write ``json.dumps(table_json(d, piece), sort_keys=True)`` and a newline,
    one piece and one entry at a time, so the JSON tree is never held."""
    chosen = _selected(d, piece)  # refuses before a byte is written
    out.write(f'{{"D": {d}, "N": {ground_size(d)}, "pieces": [')
    for i, (label, entries) in enumerate(chosen):
        out.write(', {"entries": [' if i else '{"entries": [')
        for j, e in enumerate(entries):
            out.write((", " if j else "") + _encode(e.to_json()))
        sign = json.dumps(label.sign)
        out.write(f'], "label": {json.dumps(str(label))}, "sign": {sign}, "t": {label.t}}}')
    out.write("]}\n")
