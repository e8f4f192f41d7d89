"""The BENCH trajectory script writes one record per command, over three
fresh-process runs, and with ``--against`` one more per command for a second
checkout, run in turn with this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_verify.py"


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
        assert set(r) == {"command", "exit_code", "wall_runs", "wall_s", "vmhwm_mb"}
        assert len(r["wall_runs"]) == 3 and min(r["wall_runs"]) > 0
        assert r["wall_s"] == sorted(r["wall_runs"])[1] and r["vmhwm_mb"] > 0
    # the guard refuses D=3 under SBL_MAX_D=2, and the CLI exits 2 for it
    assert [r["exit_code"] for r in records] == [0, 2]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_bench_verify_alternates_two_checkouts(tmp_path):
    # a stand-in checkout whose CLI exits 3: its records must come from its src
    package = tmp_path / "other" / "src" / "secondbasis"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 3\n")
    out = tmp_path / "BENCH_0.json"
    argv = [sys.executable, str(SCRIPT), str(out), "--against", str(package.parents[1])]
    subprocess.run([*argv, "verify --max-D 3"], check=True, timeout=120)
    report = json.loads(out.read_text())
    assert set(report) == {"git_sha", "python", "nproc", "commands", "against"}
    assert set(report["against"]) == {"git_sha", "commands"}
    for records, code in ((report["commands"], 0), (report["against"]["commands"], 3)):
        assert [r["command"] for r in records] == ["verify --max-D 3"]
        (r,) = records
        assert set(r) == {"command", "exit_code", "wall_runs", "wall_s", "vmhwm_mb"}
        assert r["exit_code"] == code and len(r["wall_runs"]) == 3
        assert r["wall_s"] == sorted(r["wall_runs"])[1] and r["vmhwm_mb"] > 0
