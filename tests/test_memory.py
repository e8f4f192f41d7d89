"""Peak memory gates: one command or one order build in a fresh process.

Every peak includes the import baseline: a fresh ``import secondbasis.cli``
compiled from source peaks at about 15.8 MB on CPython 3.11 (x86-64 Linux),
about 0.8 MB less than when the record classes were dataclasses (the five
value records are now ``__slots__`` classes on one base, ``errors.Record``).
``symbols --D 13`` is the only D=13 order build among the emission commands,
so its high-water RSS (``VmHWM``) is the write path's peak: about 18 MB on
CPython 3.11 (about 20 MB when X_D was a tuple of ``Matching``s beside the
order's pair masks).  X_D is held as one flat array of its members' pair
masks, which the order adopts as its spans, and the write path builds no
``Matching`` per member.  The images of X_D are one ``array('I')`` of masks
in family order, the order keeps its extension as family positions and its
positions in a dense
array of 2^(N-1) slots, and ``symbols`` prints from the masks, so that path
builds no ``EvenSet`` or (member, image) tuple per member (about 24 MB with
them, about 29 MB with an ``f2.Span`` and dict entries per element too).
``table --D 11 --format json``, the next largest emission command, writes
one piece and one entry at a time: about 17 MB (about 27 MB when it built
the whole JSON tree first).  ``build_order(15)`` peaks at about 27 MB
(about 36 MB with the family as ``Matching``s, 41 MB when its extension was
also read as ``EvenSet``s, 50 MB when
the image table held the pairs, 68 MB with the per-element structures).
``verify --max-D 13 --slow`` is the verify path's peak: about 26.6 MB.  The
runner sweeps D outermost and, after each D, keeps of the tables below D+1
only the family arrays and image masks of D and D-1, the two a later D
reads; both matrix kinds are stored as compressed column arrays, the lift
grid is held once, as family positions, the order's properties are checked
on its generating edges, so no passing check builds the down-set bitsets,
and the checks read image masks by family position, so no (member, image)
table is built at even D.  ``SBL_MAX_D=15 verify --max-D 15 --slow`` peaks
at about 68 MB (434 MB with the down-sets).  Each gate is its largest peak
on CPython 3.10, 3.11 and 3.12 (3.11's, or within 0.3 MB of it) plus about
15%.  The child reads its own
``/proc/self/status`` after the work; the tests are skipped where that file
does not exist.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

CHILD = """
import contextlib, os, sys
from secondbasis.basis import build_order
from secondbasis.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = {call}
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, kb)
"""

needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)


def peak_mb(
    argv: list[str],
    timeout: int,
    call: str = "main(sys.argv[1:])",
    sbl_max_d: str | None = None,
) -> float:
    """Run ``call`` on ``argv`` in a fresh process; require 0, return VmHWM.

    The default call is the CLI on ``argv``; ``sbl_max_d`` sets ``SBL_MAX_D``.
    """
    env = {k: v for k, v in os.environ.items() if k != "SBL_MAX_D"}
    env["PYTHONPATH"] = str(SRC)
    if sbl_max_d is not None:
        env["SBL_MAX_D"] = sbl_max_d
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(call=call), *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=timeout,
    ).stdout
    code, kb = map(int, out.split())
    assert code == 0
    return kb / 1024


@pytest.mark.slow
@needs_proc
def test_symbols_d13_peak_rss():
    mb = peak_mb(["symbols", "--D", "13"], timeout=300)
    assert mb < 20.5, f"symbols --D 13 peaked at {mb:.1f} MB"


@pytest.mark.slow
@needs_proc
def test_table_d11_json_peak_rss():
    mb = peak_mb(["table", "--D", "11", "--format", "json"], timeout=300)
    assert mb < 19.5, f"table --D 11 --format json peaked at {mb:.1f} MB"


@pytest.mark.slow
@needs_proc
def test_build_order_d15_peak_rss():
    # exit 0 once the extension holds all 2^16 even sets
    mb = peak_mb([], 300, call="int(len(build_order(15).extension) != 1 << 16)")
    assert mb < 31, f"build_order(15) peaked at {mb:.1f} MB"


@pytest.mark.slow
@needs_proc
def test_verify_d13_slow_peak_rss():
    mb = peak_mb(["verify", "--max-D", "13", "--slow"], timeout=900)
    assert mb < 30.5, f"verify --max-D 13 --slow peaked at {mb:.1f} MB"


@pytest.mark.slow
@needs_proc
def test_verify_d15_slow_peak_rss():
    # exit 0 means all twelve checks passed
    mb = peak_mb(["verify", "--max-D", "15", "--slow"], timeout=900, sbl_max_d="15")
    assert mb < 78, f"SBL_MAX_D=15 verify --max-D 15 --slow peaked at {mb:.1f} MB"
