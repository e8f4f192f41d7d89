"""Smoke tests of the benchmark, at D=5 so they run in seconds.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL_D = 5
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# The per-layer metrics each workload must move: the map in README.md.
FAMILY = [
    "family.filter_family.s",
    "family.is_member.calls",
    "family.filter_family.accept_ratio",
    "family.nested_pairing.s",
    "family.parity_ok.s",
    "family.coverings_ok.s",
    "arcs.iter_matchings.self_s",
    "family.enumerate_family.s",
    "arcs.lift_matching.calls",
]
EXERCISED = {
    "filter_d11": FAMILY,
    "verify_d11": FAMILY
    + [
        "basis.epsilon_inverse.calls",
        "basis.epsilon_inverse.s",
        "basis.epsilon_pairs.s",
        "basis.epsilon.calls",
        "basis.build_order.s",
        "basis.Order.edges",
        "basis.Order.down_popcount",
        "f2.span_masks.calls",
        "basis.unique_bijection_check.s",
        "variants.matching_involution.s",
        "variants.sector_order_check.s",
        "variants.sector_matrix.s",
        "variants.sector_matrix.cells",
        "variants.sector_matrix.nnz",
        "variants.orbit_representatives.s",
        "cli.main.self_s",
        "cli.out_bytes",
    ]
    + [f"verify.{name}.s" for name in run.VERIFY_CHECKS],
    "emit_d11": [
        "basis.build_order.s",
        "basis.Order.edges",
        "basis.Order.down_popcount",
        "basis.change_matrix.s",
        "basis.change_matrix.cells",
        "basis.change_matrix.nnz",
        "variants.sector_matrix.s",
        "variants.sector_matrix.cells",
        "variants.sector_matrix.nnz",
        "tables.table_data.s",
        "cli.main.self_s",
        "cli.out_bytes",
        "cli.main.rss_rise_mb",
    ],
}


def results(capsys, workload: str, trace: int):
    """One run of the workload at D=SMALL_D: its detail and result lines."""
    capsys.readouterr()
    assert run.run(workload, 3, 1, bool(trace), SMALL_D) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_what_the_driver_reports():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in BENCH[key]] == list(table.items())
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    detail, result = results(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["environment"]
    assert env["nproc"] >= 1 and env["python"] and "loadavg_start" in env
    assert detail["error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(capsys, workload):
    detail, result = results(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert all(m["value"] is not None for m in result["metrics"].values())
    unmoved = [n for n in EXERCISED[workload] if not result["metrics"][n]["value"] > 0]
    assert unmoved == []
    assert detail["tracing"]["missing_targets"] == []
    assert detail["tracing"]["traced_run_s"] > 0


def test_epsilon_inverse_calls_is_the_member_count_over_odd_d(capsys):
    _, result = results(capsys, "verify_d11", 1)
    # one call per member of X_D for every odd D <= SMALL_D; |X_D| = 2^(D+1)
    expected = sum(1 << (d + 1) for d in range(1, SMALL_D + 1, 2))
    assert result["metrics"]["basis.epsilon_inverse.calls"]["value"] == expected


def test_digest_mismatch_fails_only_that_invocation(tmp_path, monkeypatch):
    record = json.loads(run.DIGESTS.read_text())
    record["sha256"]["table --D 5"] = "0" * 64
    doctored = tmp_path / "digests.json"
    doctored.write_text(json.dumps(record))
    monkeypatch.setattr(run, "DIGESTS", doctored)
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    ex = run.emit_d11(runner, SMALL_D, False, random.Random(0))
    assert (ex.attempted, ex.failed, ex.ok) == (12, 1, False)
    assert ex.errors == ["digest mismatch: table --D 5"]


def test_failed_and_timed_out_processes_are_recorded(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    refused = runner.spawn("cli", ["matrix", "--D", "99", "--sector", "plus"], False)
    assert refused.error.startswith("exit 2") and refused.run_s is None
    runner = run.Runner(tmp_path, time.monotonic() + 0.5)
    slow = runner.spawn("cli", ["verify", "--max-D", "11"], False)
    assert slow.error.startswith("timeout")
    assert runner.spawn("probe", [], False).error.startswith("not started")


def test_tracer_refuses_to_run_with_an_unwrapped_original():
    script = (
        "import sys, types, secondbasis\n"
        "from tracer import Tracer\n"
        "stash = types.ModuleType('secondbasis._stash')\n"
        "def keep(g=secondbasis.basis.epsilon): return g\n"
        "stash.keep = keep\n"
        "sys.modules['secondbasis._stash'] = stash\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=HERE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "secondbasis._stash.keep default (basis.epsilon)" in proc.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "filter_d11", "--seed", "3"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
