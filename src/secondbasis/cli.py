"""Command-line surface: table / verify / matrix / symbols."""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array

from .basis import _symbol_masks, build_order, change_matrix, series_size
from .errors import DomainError, FalsificationError, ResourceGuardError
from .f2 import EvenSet, members_of
from .family import PieceLabel
from .limits import guard_d
from .tables import render_table, write_table_json
from .variants import sector_matrix
from .verify import run_checks

_SECTOR_ALIASES = {"pp": "++", "pm": "+-", "mp": "-+", "mm": "--"}


def _cmd_table(args) -> int:
    piece = PieceLabel.parse(args.piece) if args.piece else None
    if args.format == "json":
        write_table_json(sys.stdout, args.d, piece)
    else:
        sys.stdout.write(render_table(args.d, piece))
    return 0


def _cmd_verify(args) -> int:
    reports = run_checks(args.max_d, slow=args.slow)
    for report in reports:
        print(report.line())
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def _matrix_for(d: int, sector: str):
    sector = _SECTOR_ALIASES.get(sector, sector)
    if sector in ("++", "+-", "-+", "--"):
        return sector_matrix(d, sector)
    return change_matrix(d, sector)


def _cmd_matrix(args) -> int:
    guard_d(args.d, 11, "matrix rendering")
    matrix = _matrix_for(args.d, args.sector)
    out = sys.stdout
    if args.format == "json":
        # the bytes of print(json.dumps(matrix.to_json(), sort_keys=True)), row by row
        labels = json.dumps([x.to_json() for x in matrix.labels])
        out.write(f'{{"labels": {labels}, "rows": [')
        for i, line in enumerate(matrix.row_lines(", ")):
            out.write(("[" if i == 0 else ", [") + line + "]")
        out.write("]}\n")
    else:
        # the bytes csv.writer emits: no field here needs quoting
        names = [" ".join(map(str, x.members)) for x in matrix.labels]
        out.write("," + ",".join(names) + "\r\n")
        for name, line in zip(names, matrix.row_lines(",")):
            out.write(name + "," + line + "\r\n")
    return 0


def _series(label: PieceLabel) -> int:
    # the symbol of a set of gamma t (even minus odd members, a popcount
    # difference) has defect -1-2t for even D, 2t in the plus sector and
    # 2t+2 in the minus sector
    if label.sign is None:
        return abs(2 * label.t + 1)
    return 2 * label.t + (2 if label.sign == "-" else 0)


def _points(mask: int) -> str:
    """The points of a mask, comma-separated in increasing order, or ∅."""
    return ",".join(map(str, members_of(mask))) or "∅"


def _cmd_symbols(args) -> int:
    guard_d(args.d, 13, "symbol listing")
    d = args.d
    if d % 2 == 0:
        if args.sector:
            raise DomainError("even D has a single symbol flavor; drop --sector")
        sectors = ["all"]
    else:
        sectors = [args.sector] if args.sector else ["plus", "minus"]
    order = build_order(d)
    masks, extension, labels = order.masks, order.extension, order.labels
    total = 0
    for sector in sectors:
        # extension positions grouped by series; each symbol's halves are
        # read off its masks only as its line is printed
        groups: dict[int, array] = {}
        for p in order.sector_positions(sector):
            groups.setdefault(_series(labels[p]), array("I")).append(p)
        for s in sorted(groups):
            group = groups[s]
            expected = series_size(d, s)
            if expected != len(group):
                raise DomainError(
                    f"series size mismatch at D={d}, s={s}: {len(group)} != {expected}"
                )
            print(f"series s={s} ({len(group)} symbols)")
            for p in group:
                x = masks[extension[p]]
                left, right = _symbol_masks(x, d)
                # the series is read off the popcounts; each s lies in its
                # flavor's class of defects, so a match certifies the flavor
                series = left.bit_count() - right.bit_count()
                if d % 2 == 0:
                    series = abs(series)
                if series != s:
                    x = EvenSet.from_mask(x, order.n)
                    raise FalsificationError(f"symbol of {x!r} has series {series}, not {s}")
                print(f"({_points(left)} ; {_points(right)})")
            total += len(group)
    print(f"total {total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secondbasis",
        description="Nested arc families, their even-set images, and second bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="list a family by piece in bracket notation")
    p_table.add_argument("--D", dest="d", type=int, required=True)
    p_table.add_argument("--piece", help="restrict to one piece, e.g. 0 or -2,+")
    p_table.add_argument("--format", choices=["text", "json"], default="text")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the exhaustive check suite")
    p_verify.add_argument("--max-D", dest="max_d", type=int, required=True)
    p_verify.add_argument("--slow", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_matrix = sub.add_parser("matrix", help="emit a change-of-basis matrix")
    p_matrix.add_argument("--D", dest="d", type=int, required=True)
    p_matrix.add_argument(
        "--sector",
        required=True,
        choices=["all", "plus", "minus", "pp", "pm", "mp", "mm"],
    )
    p_matrix.add_argument("--format", choices=["json", "csv"], default="json")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_symbols = sub.add_parser("symbols", help="list symbols by series")
    p_symbols.add_argument("--D", dest="d", type=int, required=True)
    p_symbols.add_argument("--sector", choices=["plus", "minus"])
    p_symbols.set_defaults(func=_cmd_symbols)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (DomainError, ResourceGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: send what Python still flushes at exit to devnull,
        # and exit 1 as Python does on EPIPE (see the signal module's notes)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
