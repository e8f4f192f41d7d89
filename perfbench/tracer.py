"""In-process tracer for the benchmark's traced runs.

The tracer wraps public secondbasis functions from the outside: for each
target it rebinds the name in every ``secondbasis.*`` module that holds the
original, so calls made inside the library are seen too.  Three kinds of
wrapper keep the cost in proportion to how often a function runs:

* ``span``  -- one record per call (name, start, end, parent, D, the time its
  timed children cover, peak RSS before and after);
* ``acc``   -- per-member predicates called hundreds of thousands of times:
  summed time and a call count, no record.  The wrapper's own bookkeeping is
  charged to the caller's covered time, so it does not land in the caller's
  self time;
* ``count`` -- the hottest functions: a call count only.

Spans are kept in memory and written out once, when the process ends.  A
span's self time is its duration minus the time its timed children cover.
Peak RSS is read for the coarse spans in ``RSS_SPANS`` only.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

# (module, function, kind).  The metric prefix is "<module>.<function>".
TARGETS = [
    ("family", "filter_family", "span"),
    ("family", "enumerate_family", "span"),
    ("family", "is_member", "acc"),
    ("family", "nested_pairing", "acc"),
    ("family", "parity_ok", "acc"),
    ("family", "coverings_ok", "acc"),
    ("arcs", "lift_matching", "count"),
    ("basis", "epsilon", "count"),
    ("basis", "epsilon_pairs", "span"),
    ("basis", "epsilon_inverse", "span"),
    ("basis", "build_order", "span"),
    ("basis", "unique_bijection_check", "span"),
    ("basis", "change_matrix", "span"),
    ("f2", "span_masks", "count"),
    ("variants", "matching_involution", "span"),
    ("variants", "sector_order_check", "span"),
    ("variants", "sector_matrix", "span"),
    ("variants", "orbit_representatives", "span"),
    ("tables", "table_data", "span"),
    ("verify", "run_checks", "span"),
    ("cli", "main", "span"),
]

# Spans that also record the peak-RSS rise across each call.
RSS_SPANS = {
    "basis.build_order",
    "basis.change_matrix",
    "variants.sector_matrix",
    "tables.table_data",
    "family.filter_family",
    "cli.main",
}

PACKAGE = "secondbasis"


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` is not used: across exec it keeps the high-water mark of
    the image it replaced, so a child started by a large parent would report
    the parent's size.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _d_of(args, kwargs):
    for a in args:
        if type(a) is int:
            return a
    return kwargs.get("d", kwargs.get("max_d"))


def _library_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the targets once; collects spans, counts and extra counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[list] = [[0.0, -1]]  # frames: [covered child time, span index]
        self.counts: dict[str, int] = {}
        self.acc_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.hook_s = 0.0
        self.missing: list[str] = []
        # id -> (metric prefix, original); holding the original keeps its id unique
        self._originals: dict[int, tuple[str, object]] = {}
        self._wrappers: set[int] = set()
        self._orders_seen: set[int] = set()
        self._hooks = {
            "basis.build_order": self._hook_order,
            "basis.change_matrix": self._hook_matrix,
            "variants.sector_matrix": self._hook_matrix,
            "family.filter_family": self._hook_filter,
            "verify.run_checks": self._hook_reports,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and refuse to run if an original stays bound."""
        importlib.import_module(PACKAGE)
        modules = _library_modules()
        for modname, func, kind in TARGETS:
            name = f"{modname}.{func}"
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(home, func, None) if home else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = getattr(self, "_" + kind)(original, name)
            self._originals[id(original)] = (name, original)
            self._wrappers.add(id(wrapper))
            for _, mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
        leftover = self.unwrapped_bindings()
        if leftover:
            raise RuntimeError(
                "tracer would under-count: unwrapped originals still bound at "
                + ", ".join(leftover)
            )

    def unwrapped_bindings(self) -> list[str]:
        """Every place in a library module that still reaches an original.

        Looks at module globals, class attributes, and the defaults and
        closure cells of module-level functions.
        """
        found = []

        def check(where, obj):
            if id(obj) in self._originals:
                found.append(f"{where} ({self._originals[id(obj)][0]})")

        for modname, mod in _library_modules():
            for attr, val in list(vars(mod).items()):
                where = f"{modname}.{attr}"
                check(where, val)
                if isinstance(val, type):
                    for key, member in vars(val).items():
                        check(f"{where}.{key}", member)
                if id(val) in self._wrappers or not callable(val):
                    continue
                func = getattr(val, "__wrapped__", val)
                defaults = list(getattr(func, "__defaults__", None) or ())
                defaults += (getattr(func, "__kwdefaults__", None) or {}).values()
                for obj in defaults:
                    check(f"{where} default", obj)
                for cell in getattr(func, "__closure__", None) or ():
                    try:
                        check(f"{where} closure", cell.cell_contents)
                    except ValueError:  # empty cell
                        pass
        return found

    # -- wrappers ---------------------------------------------------------

    def _count(self, fn, name):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _acc(self, fn, name):
        counts, acc_s, stack = self.counts, self.acc_s, self.stack
        key = name + ".calls"
        counts[key] = 0
        acc_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            stack.append([0.0, parent[1]])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc_s[name] += dt
                counts[key] += 1
                parent[0] += clock() - entered

        return wrapper

    def _span(self, fn, name):
        spans, stack = self.spans, self.stack
        hook = self._hooks.get(name)
        clock = time.perf_counter
        rss = peak_rss_kb if name in RSS_SPANS else lambda: None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            rss0 = rss()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                spans[frame[1]] = (
                    name, t0, t1, parent[1], _d_of(args, kwargs), frame[0], rss0, rss()
                )
            if hook is not None:
                h0 = clock()
                hook(name, result)
                h = clock() - h0
                parent[0] += h  # the hook's own work is not the parent's self time
                self.hook_s += h
            return result

        return wrapper

    # -- result hooks: work counters read off returned objects ------------

    def _add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def _hook_order(self, name, order):
        if id(order) in self._orders_seen:  # build_order is cached per D
            return
        self._orders_seen.add(id(order))
        self._add("basis.Order.edges", sum(len(s) - 1 for s in order.gen_spans.values()))
        self._add("basis.Order.down_popcount", sum(bits.bit_count() for bits in order.down))

    def _hook_matrix(self, name, matrix):
        self._add(name + ".cells", sum(len(r) for r in matrix.rows))
        self._add(name + ".nnz", sum(len(r) - r.count(0) for r in matrix.rows))

    def _hook_filter(self, name, members):
        self._add(name + ".members", len(members))

    def _hook_reports(self, name, reports):
        for r in reports:
            self._add(f"verify.{r.name}.s", r.seconds)

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        """Everything the parent needs to derive the per-layer metrics."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "acc_s": self.acc_s,
            "extra": self.extra,
            "hook_s": self.hook_s,
            "missing": self.missing,
            "unwrapped": self.unwrapped_bindings(),
        }


def summarize(dump: dict) -> dict[str, float]:
    """Per-process metrics from one dump: inclusive and self time per span
    name, call counts, the largest peak-RSS rise of one call, and the extra
    counters.  Inclusive time counts only the outermost call of a name, so a
    name nested in itself is not counted twice."""
    spans = dump["spans"]
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    names_above: list[frozenset] = []
    for name, t0, t1, parent, _d, child_s, rss0, rss1 in spans:
        above = names_above[parent] if parent >= 0 else frozenset()
        names_above.append(above | {name})
        dur = t1 - t0
        add(name + ".calls", 1)
        add(name + ".self_s", dur - child_s)
        if name not in above:
            add(name + ".s", dur)
        if rss0 is not None:
            rise = (rss1 - rss0) / 1024
            out[name + ".rss_rise_mb"] = max(out.get(name + ".rss_rise_mb", 0.0), rise)
    for key, value in dump["counts"].items():
        add(key, value)
    for name, value in dump["acc_s"].items():
        add(name + ".s", value)
    for key, value in dump["extra"].items():
        add(key, value)
    add("trace.hook_s", dump["hook_s"])
    return out
