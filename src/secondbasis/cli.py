"""Command-line surface: table / verify / matrix / symbols."""

from __future__ import annotations

import argparse
import json
import sys

from .basis import build_order, change_matrix, series_size, symbol_of
from .errors import DomainError, ResourceGuardError
from .family import PieceLabel
from .limits import guard_d
from .tables import render_table, table_json
from .variants import sector_matrix
from .verify import run_checks

_SECTOR_ALIASES = {"pp": "++", "pm": "+-", "mp": "-+", "mm": "--"}


def _cmd_table(args) -> int:
    piece = PieceLabel.parse(args.piece) if args.piece else None
    if args.format == "json":
        print(json.dumps(table_json(args.d, piece), sort_keys=True))
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


def _cmd_symbols(args) -> int:
    guard_d(args.d, 13, "symbol listing")
    d = args.d
    if d % 2 == 0:
        if args.sector:
            raise DomainError("even D has a single symbol flavor; drop --sector")
        sectors = ["all"]
    elif args.sector:
        sectors = [args.sector]
    else:
        sectors = ["plus", "minus"]
    order = build_order(d)
    total = 0
    for sector in sectors:
        # each symbol is built and validated, then kept only as its line
        groups: dict[int, list[str]] = {}
        for x in order.sector_elements(sector):
            sym = symbol_of(x, d)
            left = ",".join(map(str, sorted(sym.s))) or "∅"
            right = ",".join(map(str, sorted(sym.t))) or "∅"
            groups.setdefault(sym.series(), []).append(f"({left} ; {right})")
        for s in sorted(groups):
            lines = groups[s]
            expected = series_size(d, s)
            if expected != len(lines):
                raise DomainError(
                    f"series size mismatch at D={d}, s={s}: {len(lines)} != {expected}"
                )
            print(f"series s={s} ({len(lines)} symbols)")
            for line in lines:
                print(line)
            total += len(lines)
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
        return args.func(args)
    except (DomainError, ResourceGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
