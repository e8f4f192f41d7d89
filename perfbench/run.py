"""Benchmark driver for secondbasis.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-digests

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  One closed-loop client: each operation is a
fresh Python process (``perfbench/child.py``) started after the previous one
exited, because the library's per-process ``lru_cache``s make a second timing
inside one process meaningless.  A run repeats the workload while at least
half of a repetition as long as the longest so far still fits in
``--seconds``, so a run lasts about ``--seconds`` on average; it always runs
at least once.  Before every repetition it takes a few set-up samples (fresh
interpreters that only import ``secondbasis.cli``), so the set-up samples
spread over the whole run.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every repetition runs the workload once untraced and once
under the tracer, and the run reports the per-layer metrics and the tracing
overhead.  The last line of stdout is the result; the line before it is a
detail record with the environment, sample counts, error rate and failures.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from tracer import RSS_SPANS, summarize  # noqa: E402

PROBES = 8  # set-up samples taken before each repetition
DEADLINE_S = 170.0  # a run must end within 180 s; processes still running then are killed
FULL_D = 11

VERIFY_CHECKS = [
    "construction_equivalence",
    "laminarity",
    "lifting_recursion",
    "gamma_invariance",
    "primitive_closed_forms",
    "n_membership_transport",
    "piece_bijections",
    "unique_bijection",
    "order_antisymmetry",
    "piece_counts",
    "triangular_closed_form",
    "involution_suite",
]

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "family.filter_family.s": "s",
    "family.is_member.calls": "count",
    "family.filter_family.accept_ratio": "ratio",
    "family.nested_pairing.s": "s",
    "family.parity_ok.s": "s",
    "family.coverings_ok.s": "s",
    "arcs.iter_matchings.self_s": "s",
    "family.enumerate_family.s": "s",
    "arcs.lift_matching.calls": "count",
    "basis.epsilon_inverse.calls": "count",
    "basis.epsilon_inverse.s": "s",
    "basis.epsilon_pairs.s": "s",
    "basis.epsilon.calls": "count",
    "basis.build_order.s": "s",
    "basis.Order.edges": "count",
    "basis.Order.down_popcount": "count",
    "f2.span_masks.calls": "count",
    "basis.unique_bijection_check.s": "s",
    "basis.change_matrix.s": "s",
    "basis.change_matrix.cells": "count",
    "basis.change_matrix.nnz": "count",
    "variants.matching_involution.s": "s",
    "variants.sector_order_check.s": "s",
    "variants.sector_matrix.s": "s",
    "variants.sector_matrix.cells": "count",
    "variants.sector_matrix.nnz": "count",
    "variants.orbit_representatives.s": "s",
    "tables.table_data.s": "s",
    "cli.main.self_s": "s",
    "cli.out_bytes": "bytes",
    **{f"{name}.rss_rise_mb": "MB" for name in sorted(RSS_SPANS)},
    **{f"verify.{name}.s": "s" for name in VERIFY_CHECKS},
    "trace.overhead_s": "s",
}


def emit_commands(d: int) -> list[list[str]]:
    """The write path at the guard caps: tables and matrices at D=d, the
    even matrix at d-1, symbols at d+2."""
    sectors = ("plus", "minus", "pp", "pm", "mp", "mm")
    return [
        ["table", "--D", str(d)],
        ["table", "--D", str(d), "--format", "json"],
        ["matrix", "--D", str(d - 1), "--sector", "all"],
        *(["matrix", "--D", str(d), "--sector", s] for s in sectors),
        *(["matrix", "--D", str(d), "--sector", s, "--format", "csv"] for s in ("plus", "mm")),
        ["symbols", "--D", str(d + 2)],
    ]


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    """One finished (or killed) child process."""

    out: bytes = b""
    setup_s: float | None = None
    run_s: float | None = None
    rss_mb: float | None = None
    trace: dict | None = None
    error: str | None = None


class Runner:
    """Starts child processes one at a time, never past the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "SBL_MAX_D"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, op: str, args: list[str], trace: bool) -> Proc:
        self.count += 1
        report = self.work / f"{self.count}.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(error="not started: run deadline reached")
        cmd = [sys.executable, str(CHILD), str(report), "1" if trace else "0", op, *args]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Proc(error=f"timeout after {timeout:.1f}s: {' '.join([op, *args])}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exited = time.monotonic()
        try:
            rep = json.loads(report.read_text())
        except (OSError, ValueError):
            rep = None
        if proc.returncode != 0 or rep is None:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return Proc(
                out=out,
                error=f"exit {proc.returncode}: {' '.join([op, *args])}: {' | '.join(tail)}",
            )
        return Proc(
            out=out,
            setup_s=rep["ready"] - spawned,
            run_s=exited - rep["ready"],
            rss_mb=rep["peak_rss_kb"] / 1024,
            trace=rep.get("trace"),
        )


# ---------------------------------------------------------------------------
# workloads: one execution each, returning what it attempted and how it went


@dataclass
class Execution:
    traced: bool
    attempted: int = 0
    failed: int = 0
    procs: list[Proc] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not any(p.error for p in self.procs)

    @property
    def run_s(self) -> float:
        return sum(p.run_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def verify_d11(runner: Runner, d: int, traced: bool, rng: random.Random) -> Execution:
    """One `secondbasis verify --max-D d`; an operation is one check."""
    ex = Execution(traced)
    p = runner.spawn("cli", ["verify", "--max-D", str(d)], traced)
    ex.procs.append(p)
    text = p.out.decode(errors="replace")
    status = dict(
        (m[2], m[1]) for m in re.finditer(r"^(PASS|FAIL) (\S+)", text, re.MULTILINE)
    )
    names = list(dict.fromkeys(VERIFY_CHECKS + list(status)))
    failed = [n for n in names if status.get(n) != "PASS"]
    summary = f"{len(names)}/{len(names)} checks passed"
    if not failed and (p.error or summary not in text.splitlines()):
        failed = names  # the process failed without a FAIL line to blame
    ex.attempted, ex.failed = len(names), len(failed)
    ex.errors = ([p.error] if p.error else []) + [f"check not passed: {n}" for n in failed]
    return ex


def filter_d11(runner: Runner, d: int, traced: bool, rng: random.Random) -> Execution:
    """filter_family(d) against enumerate_family(d); one operation."""
    ex = Execution(traced, attempted=1)
    p = runner.spawn("filter", [str(d)], traced)
    ex.procs.append(p)
    size = 1 << (d + 1)  # |X_D| = 2^(N-1) with N = D+2 for odd D
    got = p.out.decode(errors="replace").strip()
    if p.error or got != f"equal {size} {size}":
        ex.failed = 1
        ex.errors.append(p.error or f"filter route disagrees: {got!r}")
    return ex


def emit_d11(runner: Runner, d: int, traced: bool, rng: random.Random) -> Execution:
    """The twelve emission commands in seeded order; one operation each,
    failed on a nonzero exit, a timeout or a digest mismatch."""
    reference = json.loads(DIGESTS.read_text())["sha256"]
    commands = emit_commands(d)
    rng.shuffle(commands)
    ex = Execution(traced, attempted=len(commands))
    for argv in commands:
        p = runner.spawn("cli", argv, traced)
        ex.procs.append(p)
        key = " ".join(argv)
        digest = hashlib.sha256(p.out).hexdigest()
        if p.error:
            ex.errors.append(p.error)
        elif digest != reference.get(key):
            ex.errors.append(f"digest mismatch: {key}")
        else:
            continue
        ex.failed += 1
    return ex


WORKLOADS = {"verify_d11": verify_d11, "filter_d11": filter_d11, "emit_d11": emit_d11}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(ex: Execution) -> dict[str, float]:
    """Per-layer metrics of one traced execution, summed over its processes
    (peak-RSS rises take the largest)."""
    total: dict[str, float] = {}
    for p in ex.procs:
        for key, value in summarize(p.trace).items():
            if key.endswith(".rss_rise_mb"):
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0) + value
    calls = total.get("family.is_member.calls", 0)
    members = total.get("family.filter_family.members", 0)
    total["family.filter_family.accept_ratio"] = members / calls if calls else 0.0
    total["arcs.iter_matchings.self_s"] = total.get("family.filter_family.self_s", 0.0)
    total["cli.out_bytes"] = sum(len(p.out) for p in ex.procs)
    return total


def environment() -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# entry points


def run(workload: str, seed: int, seconds: int, trace: bool, d: int) -> int:
    if not (ROOT / "src" / "secondbasis" / "__init__.py").is_file():
        print(f"no secondbasis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    started = time.monotonic()
    execute = WORKLOADS[workload]
    rng = random.Random(seed)
    setup: list[float] = []
    plain: list[Execution] = []
    traced: list[Execution] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), started + DEADLINE_S)
        window_end = min(started + seconds, runner.deadline)
        longest = 0.0
        while True:
            t0 = time.monotonic()
            probes = [runner.spawn("probe", [], False) for _ in range(PROBES)]
            broken = [p.error for p in probes if p.error]
            if broken and not plain:
                print(f"set-up failed: {broken[0]}", file=sys.stderr)
                return 2
            setup += [p.setup_s for p in probes if p.setup_s is not None]
            plain.append(execute(runner, d, False, rng))
            if trace:
                traced.append(execute(runner, d, True, rng))
            # start another repetition only if at least half of one as long
            # as the longest so far fits in the window: runs then overshoot
            # and undershoot the window about equally
            now = time.monotonic()
            longest = max(longest, now - t0)
            if now + longest / 2 > window_end:
                break

    executions = plain + traced
    for ex in executions:
        setup += [p.setup_s for p in ex.procs if p.setup_s is not None]
    procs_per_execution = len(plain[0].procs)
    attempted = sum(ex.attempted for ex in executions)
    failed = sum(ex.failed for ex in executions)
    good_plain = [ex for ex in plain if ex.ok]
    good_traced = [ex for ex in traced if ex.ok]
    run_s = _median([ex.run_s for ex in good_plain])

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "d": d,
        "client": "closed loop, 1 client, 1 fresh process per operation",
        "environment": env,
        "samples": {
            "run_s": len(good_plain),
            "setup_s": len(setup),
            "traced_executions": len(good_traced),
        },
        "error_rate": failed / attempted if attempted else None,
        "executions": [
            {
                "traced": ex.traced,
                "attempted": ex.attempted,
                "failed": ex.failed,
                "run_s": ex.run_s if ex.ok else None,
                "peak_rss_mb": ex.rss_mb if ex.ok else None,
            }
            for ex in executions
        ],
        "failures": [e for ex in executions for e in ex.errors][:20],
    }

    if trace:
        traced_run_s = _median([ex.run_s for ex in good_traced])
        layers = [layer_metrics(ex) for ex in good_traced]
        values = {name: _median([m.get(name, 0) for m in layers]) for name in PER_LAYER}
        overhead = (
            traced_run_s - run_s if traced_run_s is not None and run_s is not None else None
        )
        values["trace.overhead_s"] = overhead
        dumps = [p.trace for ex in good_traced for p in ex.procs]
        detail["tracing"] = {
            "untraced_run_s": run_s,
            "traced_run_s": traced_run_s,
            "overhead_s": overhead,
            "overhead_ratio": overhead / run_s if overhead is not None and run_s else None,
            "hook_s": _median([m.get("trace.hook_s", 0.0) for m in layers]),
            "missing_targets": sorted({t for dump in dumps for t in dump["missing"]}),
            "spans": sum(len(dump["spans"]) for dump in dumps),
        }
        units = PER_LAYER
    else:
        values = {
            "run_s": run_s,
            "setup_s": procs_per_execution * statistics.median(setup),
            "peak_rss_mb": _median([ex.rss_mb for ex in good_plain]),
        }
        units = END_TO_END

    result = {
        "correct": failed == 0 and bool(good_plain) and (not trace or bool(good_traced)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def record_digests() -> int:
    """Write the reference sha256 of every emission output, at full and at
    smoke-test scale, from the code in this checkout."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), time.monotonic() + 600)
        for d in (FULL_D, 5):
            for argv in emit_commands(d):
                p = runner.spawn("cli", argv, False)
                if p.error:
                    print(p.error, file=sys.stderr)
                    return 1
                digests[" ".join(argv)] = hashlib.sha256(p.out).hexdigest()
    record = {"recorded_at": git_sha(), "sha256": dict(sorted(digests.items()))}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), FULL_D)


if __name__ == "__main__":
    sys.exit(main())
