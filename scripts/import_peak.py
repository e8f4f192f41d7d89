"""The start-up peak of checkouts, over many fresh imports taken in turn.

    python scripts/import_peak.py OUT.json RUNS CHECKOUT [CHECKOUT ...]

Each of RUNS rounds imports ``secondbasis.cli`` once from every checkout's
``src``, each in a new interpreter that reads its high-water RSS (``VmHWM``,
from ``/proc/self/status``, so Linux only); the first checkout of a round
alternates.  The JSON file records the Python version and, per checkout,
its git SHA, every reading in MB in run order, and their median and
quartiles.  One reading moves by allocator steps of about 0.2 MB between
processes of one tree, so the largest of ``bench_verify.py``'s three runs
cannot tell two trees apart within 0.05 MB; a median over many alternating
runs can.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import secondbasis.cli
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def peak_mb(root: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return round(int(child.stdout) / 1024, 3)


if __name__ == "__main__":
    out, runs, *checkouts = sys.argv[1:]
    roots = [Path(c).resolve() for c in checkouts]
    readings: list[list[float]] = [[] for _ in roots]
    for r in range(int(runs)):
        turn = list(zip(roots, readings))
        for root, mbs in turn if r % 2 == 0 else turn[::-1]:
            mbs.append(peak_mb(root))
    records = []
    for root, mbs in zip(roots, readings):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()
        q1, median, q3 = statistics.quantiles(mbs, n=4) if len(mbs) > 1 else mbs * 3
        records.append(
            {
                "git_sha": sha or None,
                "vmhwm_runs": mbs,
                "median_mb": round(median, 3),
                "quartiles_mb": [round(q1, 3), round(q3, 3)],
            }
        )
    report = {"python": platform.python_version(), "checkouts": records}
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
