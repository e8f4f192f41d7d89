"""Byte gates: each emission command prints the bytes the benchmark recorded.

``perfbench/digests.json`` holds the sha256 of the stdout of every
``table``/``matrix``/``symbols`` command the benchmark runs, at its full scale
and at smoke-test scale.  Each command runs here in-process; the commands at
D >= 10 are marked slow.
"""

import hashlib
import json
from pathlib import Path

import pytest

from secondbasis.cli import main

DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
)["sha256"]


def command_d(key):
    argv = key.split()
    return int(argv[argv.index("--D") + 1])


@pytest.mark.parametrize(
    "key",
    [
        pytest.param(key, marks=[pytest.mark.slow] if command_d(key) >= 10 else [])
        for key in DIGESTS
    ],
)
def test_output_matches_the_recorded_digest(capsys, monkeypatch, key):
    monkeypatch.delenv("SBL_MAX_D", raising=False)  # the benchmark runs without it
    assert main(key.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[key]
