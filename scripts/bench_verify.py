"""Time the verify sweeps and the write-path peak, each in a fresh process.

    python scripts/bench_verify.py OUT.json [--runs N] [--against CHECKOUT] [COMMAND ...]

Each command (default: ``COMMANDS``) runs the ``secondbasis`` CLI from this
checkout's ``src`` in a new interpreter, ``--runs`` times (default 3), its
output discarded; leading ``NAME=value`` words set the environment.  The
command ``import`` runs nothing: its child only imports ``secondbasis.cli``,
so its record is one process's start-up.  The JSON file records per command
the largest exit code, the wall seconds of every run and their median, and
the high-water RSS (``VmHWM``, read by the child from ``/proc/self/status``,
so Linux only) of every run and the largest, with the git SHA, the Python
version and the number of usable CPUs.

With ``--against``, CHECKOUT's ``src`` and this checkout's take turns, run by
run, and the one that goes first alternates, so load on a shared host falls
on both sides alike; CHECKOUT's SHA and records go under ``"against"`` in the
same file.  One start-up reading moves by allocator steps of about 0.2 MB
between processes of one tree, so two trees' start-up peaks are told apart
within 0.05 MB by the median of many runs::

    python scripts/bench_verify.py OUT.json --runs 40 --against PARENT import
"""

import argparse
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
    "import",
    "symbols --D 13",
    "verify --max-D 11",
    "verify --max-D 13 --slow",
    "SBL_MAX_D=15 verify --max-D 15 --slow",
    "table --D 11 --format json",
    "table --D 11",
    "matrix --D 11 --sector plus",
]
CHILD = """
import contextlib, os, sys
from secondbasis.cli import main
code = 0
if sys.argv[1:] != ["import"]:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run(command: str, roots: list[Path], runs: int) -> list[dict]:
    # one record per checkout; the checkouts take turns, and the first alternates
    argv = shlex.split(command)
    env = {k: v for k, v in os.environ.items() if k != "SBL_MAX_D"}
    while argv and "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    results = [([], [], []) for _ in roots]
    for r in range(runs):
        turn = list(zip(roots, results))
        for root, (codes, walls, mbs) in turn if r % 2 == 0 else turn[::-1]:
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
            mbs += [round(int(kb) / 1024, 3) for kb in child.stdout.split()[-1:]]
    return [
        {
            "command": command,
            "exit_code": max(codes),
            "wall_runs": walls,
            "wall_s": statistics.median(walls),
            "vmhwm_runs": mbs,
            "vmhwm_mb": round(max(mbs), 2) if mbs else None,
        }
        for codes, walls, mbs in results
    ]


def git_sha(root: Path) -> str | None:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    ).stdout.strip()
    return sha or None


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("commands", nargs="*", default=COMMANDS)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--against", type=Path)
    args = parser.parse_intermixed_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    roots = [ROOT] if args.against is None else [args.against.resolve(), ROOT]
    records = [run(command, roots, args.runs) for command in args.commands]
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
    args.out.write_text(json.dumps(report, indent=2) + "\n")
