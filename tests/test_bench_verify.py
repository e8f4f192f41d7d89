"""The BENCH trajectory script writes one record per command, over three
fresh-process runs or ``--runs N``, and with ``--against`` one more per
command for a second checkout, run in turn with this one, the first of each
turn alternating.  Its first command, ``import``, times the start-up alone."""

import json
import os
import runpy
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_verify.py"
RECORD = {"command", "exit_code", "wall_runs", "wall_s", "vmhwm_runs", "vmhwm_mb"}


def assert_runs(r, runs):
    """Every run's wall time and peak, and the median and the largest of them."""
    assert len(r["wall_runs"]) == len(r["vmhwm_runs"]) == runs
    assert min(r["wall_runs"]) > 0 and min(r["vmhwm_runs"]) > 0
    assert r["wall_s"] == statistics.median(r["wall_runs"])
    assert r["vmhwm_mb"] == round(max(r["vmhwm_runs"]), 2)


def stand_in(tmp_path: Path) -> Path:
    """A checkout whose CLI exits 3 whenever it is called."""
    package = tmp_path / "other" / "src" / "secondbasis"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 3\n")
    return package.parents[1]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_bench_verify_records_each_command(tmp_path):
    out = tmp_path / "BENCH_0.json"
    commands = ["verify --max-D 3", "SBL_MAX_D=2 verify --max-D 3"]
    argv = [sys.executable, str(SCRIPT), str(out), *commands]
    subprocess.run(argv, check=True, timeout=120)
    report = json.loads(out.read_text())
    assert set(report) == {"git_sha", "python", "nproc", "commands"}
    assert report["python"] == ".".join(map(str, sys.version_info[:3]))
    assert report["nproc"] >= 1
    records = report["commands"]
    assert [r["command"] for r in records] == commands
    for r in records:
        assert set(r) == RECORD
        assert_runs(r, 3)
    # the guard refuses D=3 under SBL_MAX_D=2, and the CLI exits 2 for it
    assert [r["exit_code"] for r in records] == [0, 2]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_bench_verify_alternates_two_checkouts(tmp_path):
    # the stand-in's records must come from its src
    out = tmp_path / "BENCH_0.json"
    argv = [sys.executable, str(SCRIPT), str(out), "--against", str(stand_in(tmp_path))]
    subprocess.run([*argv, "verify --max-D 3"], check=True, timeout=120)
    report = json.loads(out.read_text())
    assert set(report) == {"git_sha", "python", "nproc", "commands", "against"}
    assert set(report["against"]) == {"git_sha", "commands"}
    for records, code in ((report["commands"], 0), (report["against"]["commands"], 3)):
        assert [r["command"] for r in records] == ["verify --max-D 3"]
        (r,) = records
        assert set(r) == RECORD
        assert r["exit_code"] == code
        assert_runs(r, 3)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_bench_verify_import_only_runs_no_command(tmp_path):
    assert runpy.run_path(str(SCRIPT))["COMMANDS"][0] == "import"
    out = tmp_path / "BENCH_0.json"
    argv = [sys.executable, str(SCRIPT), str(out), "--against", str(stand_in(tmp_path))]
    subprocess.run([*argv, "import"], check=True, timeout=120)
    report = json.loads(out.read_text())
    (ours,), (theirs,) = report["commands"], report["against"]["commands"]
    assert ours["command"] == theirs["command"] == "import"
    # exit 0 from the stand-in: its CLI never ran
    assert ours["exit_code"] == theirs["exit_code"] == 0
    # this checkout's import loads the whole library; the stand-in's is empty
    assert ours["vmhwm_mb"] > theirs["vmhwm_mb"] > 0
    assert min(ours["wall_runs"]) > 0 and len(theirs["wall_runs"]) == 3


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_bench_verify_records_every_import_peak_of_each_checkout(tmp_path):
    out = tmp_path / "peaks.json"
    argv = [sys.executable, str(SCRIPT), str(out), "--runs", "4", "import"]
    subprocess.run([*argv, "--against", str(stand_in(tmp_path))], check=True, timeout=120)
    report = json.loads(out.read_text())
    (ours,), (theirs,) = report["commands"], report["against"]["commands"]
    for r in (ours, theirs):
        assert set(r) == RECORD
        assert_runs(r, 4)
    # the stand-in is no git checkout; its import loads next to nothing
    assert report["git_sha"] and report["against"]["git_sha"] is None
    assert min(ours["vmhwm_runs"]) > max(theirs["vmhwm_runs"]) > 0


def test_bench_verify_alternates_which_checkout_runs_first(tmp_path, monkeypatch):
    # each stand-in's CLI, imported, appends its name to one log
    log = tmp_path / "turns.log"
    monkeypatch.setenv("TURNS_LOG", str(log))
    roots = []
    for name in "ab":
        package = tmp_path / name / "src" / "secondbasis"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(
            f"import os\nwith open(os.environ['TURNS_LOG'], 'a') as fh:\n"
            f"    fh.write({name!r})\n"
        )
        roots.append(package.parents[1])
    records = runpy.run_path(str(SCRIPT))["run"]("import", roots, 5)
    assert log.read_text() == "ab" "ba" "ab" "ba" "ab"
    assert [len(r["wall_runs"]) for r in records] == [5, 5]
