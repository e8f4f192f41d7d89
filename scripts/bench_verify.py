"""Time the verify sweeps and the write-path peak, each in a fresh process.

    python scripts/bench_verify.py BENCH_<n>.json [--against CHECKOUT] [COMMAND ...]

Each command (default: ``COMMANDS``) runs the ``secondbasis`` CLI from this
checkout's ``src`` in a new interpreter, ``REPEATS`` times, its output
discarded; leading ``NAME=value`` words set the environment.  The JSON file
records per command the largest exit code, the wall seconds of every run and
their median, and the largest high-water RSS (``VmHWM``, read by the child
from ``/proc/self/status``, so Linux only), with the git SHA, the Python
version and the number of usable CPUs.

With ``--against``, each run of a command in CHECKOUT's ``src`` is followed
by one in this checkout's, so load on a shared host falls on both sides
alike; CHECKOUT's SHA and records go under ``"against"`` in the same file.
"""

import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = [
    "symbols --D 13",
    "verify --max-D 11",
    "verify --max-D 13 --slow",
    "SBL_MAX_D=15 verify --max-D 15 --slow",
    "table --D 11 --format json",
    "table --D 11",
    "matrix --D 11 --sector plus",
]
# on a shared host one run's wall time moves by up to about 20%
REPEATS = 3
CHILD = """
import contextlib, os, sys
from secondbasis.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run(command: str, roots: list[Path]) -> list[dict]:
    # one record per checkout; the checkouts take turns, run by run
    argv = shlex.split(command)
    env = {k: v for k, v in os.environ.items() if k != "SBL_MAX_D"}
    while argv and "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    runs = [([], [], []) for _ in roots]
    for _ in range(REPEATS):
        for root, (codes, walls, kbs) in zip(roots, runs):
            env["PYTHONPATH"] = str(root / "src")
            start = time.perf_counter()
            child = subprocess.run(
                [sys.executable, "-c", CHILD, *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            walls.append(round(time.perf_counter() - start, 3))
            codes.append(child.returncode)
            kbs += [int(kb) for kb in child.stdout.split()[-1:]]
    return [
        {
            "command": command,
            "exit_code": max(codes),
            "wall_runs": walls,
            "wall_s": statistics.median(walls),
            "vmhwm_mb": round(max(kbs) / 1024, 2) if kbs else None,
        }
        for codes, walls, kbs in runs
    ]


def git_sha(root: Path) -> str | None:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    ).stdout.strip()
    return sha or None


if __name__ == "__main__":
    out, *commands = sys.argv[1:]
    roots = [ROOT]
    if commands[:1] == ["--against"]:
        roots.insert(0, Path(commands[1]).resolve())
        del commands[:2]
    records = [run(command, roots) for command in commands or COMMANDS]
    report = {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commands": [pair[-1] for pair in records],
    }
    if len(roots) > 1:
        report["against"] = {
            "git_sha": git_sha(roots[0]),
            "commands": [pair[0] for pair in records],
        }
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
