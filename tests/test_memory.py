"""Peak memory of the write path: ``symbols --D 13`` in a fresh process.

It is the only D=13 order build among the emission commands, so its
high-water RSS (``VmHWM``) is the write path's peak: about 32.5 MB on
CPython 3.11 (x86-64 Linux), with lifted arcs and pair vectors shared, Kahn
run on watch lists that free each position's array as it becomes ready, and
the symbols kept only as their output lines.  The child reads its
own ``/proc/self/status`` after the command; the test is skipped where that
file does not exist.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
PEAK_MB = 40

CHILD = """
import contextlib, os
from secondbasis.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(["symbols", "--D", "13"])
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, kb)
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_symbols_d13_peak_rss():
    env = {k: v for k, v in os.environ.items() if k != "SBL_MAX_D"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    code, kb = map(int, out.split())
    assert code == 0
    assert kb / 1024 < PEAK_MB, f"symbols --D 13 peaked at {kb / 1024:.1f} MB"
