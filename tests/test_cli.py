"""The command-line surface: formats, exit codes, round-trips, guards."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secondbasis.verify as verify
from secondbasis.basis import build_order, series_size, symbol_of
from secondbasis.cli import _matrix_for, main
from secondbasis.errors import DomainError, FalsificationError, ResourceGuardError
from secondbasis.tables import parse_entry, render_entry, table_data, table_json
from tests.conftest import elements


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_table_text(capsys):
    rc, out, _ = run(capsys, "table", "--D", "2")
    assert rc == 0
    assert "piece 0:" in out and "piece -2:" in out
    assert "([∅])" in out and "([31])" in out


def test_table_piece_filter(capsys):
    rc, out, _ = run(capsys, "table", "--D", "5", "--piece", "2,-")
    assert rc == 0
    body = [l for l in out.splitlines() if l.startswith("(")]
    assert body == ["(51,[42,67])"]


def test_table_unknown_piece(capsys):
    rc, _, err = run(capsys, "table", "--D", "2", "--piece", "4")
    assert rc == 2 and "no piece" in err


def test_table_json_round_trip(capsys):
    rc, out, _ = run(capsys, "table", "--D", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data == table_json(3)
    assert data["N"] == 5
    rebuilt = {
        piece["label"]: {
            (tuple(map(tuple, e["arcs"])), tuple(sorted(map(tuple, e["bracketed"]))))
            for e in piece["entries"]
        }
        for piece in data["pieces"]
    }
    direct = {
        str(label): {
            (tuple(map(tuple, e.to_json()["arcs"])),
             tuple(sorted(map(tuple, e.to_json()["bracketed"]))))
            for e in entries
        }
        for label, entries in table_data(3)
    }
    assert rebuilt == direct


def test_json_output_is_stable(capsys):
    rc1, out1, _ = run(capsys, "table", "--D", "4", "--format", "json")
    rc2, out2, _ = run(capsys, "table", "--D", "4", "--format", "json")
    assert rc1 == rc2 == 0 and out1 == out2


def test_entry_text_round_trip():
    for d in (1, 4, 7):
        for _, entries in table_data(d):
            for e in entries:
                n = e.matching.n
                again = parse_entry(render_entry(e), n)
                assert again.key() == e.key()


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--max-D", "2")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 12
    assert "12/12 checks passed" in out


def test_run_reports_are_machine_readable():
    from secondbasis.verify import run_checks

    for report in run_checks(1):
        payload = report.to_json()
        assert set(payload) == {"name", "d_values", "passed", "detail", "seconds"}
        assert json.dumps(payload)  # JSON-serializable, reproducer included


def test_verify_guard(capsys):
    rc, _, err = run(capsys, "verify", "--max-D", "12")
    assert rc == 2 and "SBL_MAX_D" in err


def test_verify_refuses_a_negative_bound(capsys):
    rc, out, err = run(capsys, "verify", "--max-D", "-1")
    assert rc == 2 and out == ""
    assert err == "error: max-D must be >= 0, got -1\n"


ALL_D = list(range(12))
# the D lists of `verify --max-D 11` and `verify --max-D 13 --slow`
RANGES = {
    False: {
        "construction_equivalence": list(range(10)),
        "laminarity": ALL_D,
        "lifting_recursion": list(range(2, 12)),
        "gamma_invariance": list(range(2, 12)),
        "primitive_closed_forms": ALL_D,
        "n_membership_transport": [3, 5, 7, 9, 11],
        "piece_bijections": ALL_D,
        "unique_bijection": ALL_D,
        "order_antisymmetry": ALL_D,
        "piece_counts": ALL_D,
        "triangular_closed_form": [0, 2, 4, 6, 8, 10],
        "involution_suite": [1, 3, 5, 7, 9, 11],
    },
    True: {
        "construction_equivalence": ALL_D + [12, 13],
        "laminarity": ALL_D + [12, 13],
        "lifting_recursion": list(range(2, 14)),
        "gamma_invariance": list(range(2, 14)),
        "primitive_closed_forms": ALL_D + [12, 13],
        "n_membership_transport": [3, 5, 7, 9, 11, 13],
        "piece_bijections": ALL_D + [12, 13],
        "unique_bijection": ALL_D + [12, 13],
        "order_antisymmetry": ALL_D + [12, 13],
        "piece_counts": ALL_D + [12, 13],
        "triangular_closed_form": [0, 2, 4, 6, 8, 10, 12],
        "involution_suite": [1, 3, 5, 7, 9, 11, 13],
    },
}


@pytest.mark.parametrize("slow", [False, True])
def test_every_check_has_one_range(slow):
    ranges = verify._ranges(13 if slow else 11, slow)
    assert list(ranges) == verify.CHECK_NAMES
    assert ranges == RANGES[slow]


def test_matrix_json_labels_round_trip(capsys):
    rc, out, _ = run(capsys, "matrix", "--D", "2", "--sector", "all")
    assert rc == 0
    data = json.loads(out)
    assert data["labels"] == [[], [1, 2], [2, 3], [1, 3]]
    assert data["rows"] == [[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_matrix_sector_aliases(capsys):
    rc, out, _ = run(capsys, "matrix", "--D", "1", "--sector", "mp")
    assert rc == 0
    data = json.loads(out)
    assert data == {"labels": [[2, 3]], "rows": [[1]]}


def test_matrix_csv(capsys):
    rc, out, _ = run(capsys, "matrix", "--D", "1", "--sector", "mp", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [",2 3", "2 3,1"]


def dense_renders(matrix):
    """JSON and CSV rendered from the dense rows, as before streaming."""
    as_json = json.dumps(matrix.to_json(), sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [" ".join(map(str, x.members)) for x in matrix.labels])
    for label, row in zip(matrix.labels, matrix.rows):
        writer.writerow([" ".join(map(str, label.members))] + row)
    return {"json": as_json, "csv": buf.getvalue()}


@pytest.mark.parametrize("d", range(8))
def test_matrix_streams_the_dense_bytes(capsys, d):
    legal = ["all"] if d % 2 == 0 else ["plus", "minus", "pp", "pm", "mp", "mm"]
    for sector in legal:
        want = dense_renders(_matrix_for(d, sector))
        for fmt in ("json", "csv"):
            argv = ["matrix", "--D", str(d), "--sector", sector, "--format", fmt]
            rc, out, _ = run(capsys, *argv)
            assert rc == 0 and out == want[fmt], (sector, fmt)


def test_a_raising_check_fails_alone(capsys, monkeypatch):
    def broken(d):
        raise DomainError("stray domain error")

    monkeypatch.setitem(verify._CHECKS, "laminarity", (broken, 0, 1))
    reports = verify.run_checks(3)
    assert [r.name for r in reports] == verify.CHECK_NAMES
    assert [r.name for r in reports if not r.passed] == ["laminarity"]
    assert reports[1].detail == {
        "kind": "error",
        "type": "DomainError",
        "message": "stray domain error",
    }
    rc, out, _ = run(capsys, "verify", "--max-D", "3")
    assert rc == 1
    assert out.count("PASS ") == 11 and "11/12 checks passed" in out
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fail.startswith("FAIL laminarity") and "counterexample: " in fail


def doctor_at_5(monkeypatch, name, outcome):
    """Replace check ``name`` by one that meets ``outcome`` at D=5; the Ds it saw."""
    seen = []
    _, first, step = verify._CHECKS[name]

    def doctored(d):
        seen.append(d)
        return outcome() if d == 5 else None

    monkeypatch.setitem(verify._CHECKS, name, (doctored, first, step))
    return seen


def test_the_runner_stops_a_check_at_its_first_failing_d(capsys, monkeypatch):
    seen = doctor_at_5(monkeypatch, "piece_bijections", lambda: {"kind": "doctored"})
    reports = {r.name: r for r in verify.run_checks(9)}
    assert seen == [0, 1, 2, 3, 4, 5]
    assert reports["piece_bijections"].d_values == list(range(10))
    assert reports["piece_bijections"].detail == {"D": 5, "kind": "doctored"}
    assert [name for name, r in reports.items() if not r.passed] == ["piece_bijections"]
    rc, out, _ = run(capsys, "verify", "--max-D", "9")
    assert rc == 1 and "11/12 checks passed" in out
    assert "counterexample: {'D': 5, 'kind': 'doctored'}" in out


def test_a_check_raising_at_d5_reports_no_d(monkeypatch):
    def refuse():
        raise DomainError("doctored at D=5")

    seen = doctor_at_5(monkeypatch, "unique_bijection", refuse)
    reports = {r.name: r for r in verify.run_checks(9)}
    assert seen == [0, 1, 2, 3, 4, 5]
    assert reports["unique_bijection"].detail == {
        "kind": "error",
        "type": "DomainError",
        "message": "doctored at D=5",
    }
    assert [name for name, r in reports.items() if not r.passed] == ["unique_bijection"]


def test_slow_verify_reaches_d13_without_an_override(monkeypatch):
    # --slow caps the sweep at 13 by itself; only the default sweep stops at 11
    monkeypatch.delenv("SBL_MAX_D", raising=False)
    for name in verify.CHECK_NAMES:
        _, first, step = verify._CHECKS[name]
        monkeypatch.setitem(verify._CHECKS, name, (lambda d: None, first, step))
    reports = verify.run_checks(13, slow=True)
    assert [r.name for r in reports] == verify.CHECK_NAMES
    assert all(r.passed for r in reports) and len(reports) == 12
    with pytest.raises(ResourceGuardError):
        verify.run_checks(13)


def test_matrix_usage_error(capsys):
    rc, _, err = run(capsys, "matrix", "--D", "2", "--sector", "plus")
    assert rc == 2 and "odd D" in err


def test_symbols_counts(capsys):
    rc, out, _ = run(capsys, "symbols", "--D", "2")
    assert rc == 0
    assert "series s=1 (3 symbols)" in out
    assert "series s=3 (1 symbols)" in out
    assert "total 4" in out


def test_symbols_sector_and_totals(capsys):
    rc, out, _ = run(capsys, "symbols", "--D", "7", "--sector", "plus")
    assert rc == 0
    assert "series s=0 (70 symbols)" in out
    assert "total 128" in out
    rc, out, _ = run(capsys, "symbols", "--D", "3")
    assert rc == 0
    assert "total 16" in out  # both sectors together biject with E_N


@pytest.mark.parametrize("d", range(8))
def test_table_json_streams_the_dumps_bytes(capsys, d):
    for piece in [None, *(label for label, _ in table_data(d))]:
        argv = ["table", "--D", str(d), "--format", "json"]
        if piece is not None:
            argv.append(f"--piece={piece}")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out == json.dumps(table_json(d, piece), sort_keys=True) + "\n", piece


def symbols_oracle(d, sector=None, size=series_size):
    """The grouped listing as it was first rendered: every symbol of a sector
    built, grouped by series, then printed; the lines up to a size mismatch."""
    order = build_order(d)
    sets = elements(order)
    lines, total = [], 0
    for name in ["all"] if d % 2 == 0 else [sector] if sector else ["plus", "minus"]:
        groups = {}
        for p in order.sector_positions(name):
            sym = symbol_of(sets[p], d)
            left = ",".join(map(str, sorted(sym.s))) or "∅"
            right = ",".join(map(str, sorted(sym.t))) or "∅"
            groups.setdefault(sym.series(), []).append(f"({left} ; {right})")
        for s in sorted(groups):
            if size(d, s) != len(groups[s]):
                return lines
            lines += [f"series s={s} ({len(groups[s])} symbols)", *groups[s]]
            total += len(groups[s])
    return lines + [f"total {total}"]


@pytest.mark.parametrize("d", range(10))
def test_symbols_equal_the_grouped_oracle(capsys, d):
    for sector in [None] if d % 2 == 0 else [None, "plus", "minus"]:
        argv = ["symbols", "--D", str(d)] + (["--sector", sector] if sector else [])
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out.splitlines() == symbols_oracle(d, sector), sector


def test_a_series_mismatch_stops_the_listing_where_it_did(capsys, monkeypatch):
    import secondbasis.cli as cli

    # s=6 is the last series listed at D=5, after the whole plus sector and
    # three minus-sector series
    def size(d, s):
        return series_size(d, s) + (s == 6)

    monkeypatch.setattr(cli, "series_size", size)
    rc, out, err = run(capsys, "symbols", "--D", "5")
    assert rc == 2
    assert out.splitlines() == symbols_oracle(5, size=size)
    assert "series s=2 (15 symbols)" in out and "series s=6 (" not in out
    assert err == "error: series size mismatch at D=5, s=6: 1 != 2\n"


def test_a_symbol_off_its_series_is_a_falsification(capsys, monkeypatch):
    import secondbasis.cli as cli

    real = cli._symbol_masks
    order = build_order(5)
    x = elements(order)[order.sector_positions("plus")[-1]]

    def swapped(m, d):  # the halves of the last plus-sector set swapped
        s, t = real(m, d)
        return (t, s) if m == x.mask else (s, t)

    monkeypatch.setattr(cli, "_symbol_masks", swapped)
    s = 2 * x.gamma()
    with pytest.raises(FalsificationError) as exc:
        main(["symbols", "--D", "5"])
    assert str(exc.value) == f"symbol of {x!r} has series {-s}, not {s}"


def test_a_closed_stdout_exits_1_without_a_traceback():
    read, write = os.pipe()
    os.close(read)  # the reader left before the first byte
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "secondbasis.cli", "symbols", "--D", "3"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_symbols_series_size_mismatch_exits_2(capsys, monkeypatch):
    import secondbasis.cli as cli

    true_size = cli.series_size
    monkeypatch.setattr(cli, "series_size", lambda d, s: true_size(d, s) + 1)
    rc, _, err = run(capsys, "symbols", "--D", "5")
    assert rc == 2
    assert "error: series size mismatch at D=5" in err


def test_table_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("SBL_MAX_D", "2")
    rc, _, err = run(capsys, "table", "--D", "3")
    assert rc == 2 and "SBL_MAX_D" in err


def test_table_at_d0(capsys):
    rc, out, _ = run(capsys, "table", "--D", "0")
    assert rc == 0
    assert out == "table D=0 (ground set [1,1])\npiece 0:\n([∅])\n"
    rc, out, _ = run(capsys, "table", "--D", "0", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "D": 0,
        "N": 1,
        "pieces": [
            {
                "label": "0",
                "t": 0,
                "sign": None,
                "entries": [{"arcs": [], "bracketed": []}],
            }
        ],
    }


def test_matrix_at_d0(capsys):
    rc, out, _ = run(capsys, "matrix", "--D", "0", "--sector", "all")
    assert rc == 0 and json.loads(out) == {"labels": [[]], "rows": [[1]]}
    rc, out, _ = run(capsys, "matrix", "--D", "0", "--sector", "all", "--format", "csv")
    assert rc == 0 and out.splitlines() == [",", ",1"]


def test_symbols_at_d0(capsys):
    rc, out, _ = run(capsys, "symbols", "--D", "0")
    assert rc == 0
    assert out == "series s=1 (1 symbols)\n(∅ ; 1)\ntotal 1\n"


def test_verify_at_d0(capsys):
    rc, out, _ = run(capsys, "verify", "--max-D", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "12/12 checks passed"
    spans = {line.split()[1]: line.split()[2] for line in lines[:-1]}
    assert list(spans) == verify.CHECK_NAMES
    none = {
        "lifting_recursion",
        "gamma_invariance",
        "n_membership_transport",
        "involution_suite",
    }
    assert {name for name, span in spans.items() if span == "D=(none)"} == none
    assert all(span == "D=0..0" for name, span in spans.items() if name not in none)


@pytest.mark.parametrize("raw", ["abc", "11.5", ""])
def test_a_non_integer_cap_exits_2_and_names_the_variable(capsys, monkeypatch, raw):
    monkeypatch.setenv("SBL_MAX_D", raw)
    rc, out, err = run(capsys, "table", "--D", "3")
    assert rc == 2 and out == ""
    assert err == f"error: SBL_MAX_D must be an integer, got {raw!r}\n"
