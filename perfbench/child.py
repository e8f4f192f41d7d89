"""One process of a benchmark workload.

A fresh interpreter imports ``secondbasis.cli`` (the end of its set-up),
optionally installs the tracer, runs one operation and writes a JSON report:
the monotonic-clock time set-up ended, its peak RSS and, when traced, the
tracer's dump.  The parent measures everything else.

usage: python3 perfbench/child.py REPORT TRACE OP [ARG...]
  OP probe           import only: one set-up sample
  OP cli ARG...      secondbasis.cli.main(ARG...), as the console script runs it
  OP filter D        the filter route against the inductive route at D
"""

from __future__ import annotations

import json
import sys
import time


def _run(op: str, args: list[str]) -> int:
    import secondbasis

    if op == "probe":
        return 0
    if op == "cli":
        try:
            return secondbasis.cli.main(args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code if isinstance(exc.code, int) else 1
    if op == "filter":
        d = int(args[0])
        filtered = set(secondbasis.filter_family(d))
        inductive = set(secondbasis.enumerate_family(d))
        verdict = "equal" if filtered == inductive else "different"
        print(f"{verdict} {len(filtered)} {len(inductive)}")
        return 0
    raise SystemExit(f"unknown operation {op!r}")


def main() -> int:
    report_path, trace, op, *args = sys.argv[1:]
    import secondbasis.cli  # noqa: F401  (interpreter start plus this import is set-up)

    ready = time.monotonic()
    from tracer import Tracer, peak_rss_kb

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    code = _run(op, args)
    sys.stdout.flush()
    report = {"ready": ready, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report["trace"] = tracer.dump()
        if report["trace"]["unwrapped"]:
            code = 3
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
