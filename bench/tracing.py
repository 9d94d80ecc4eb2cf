"""Outside-in tracing of graphck's layers.

``Tracer.install`` replaces chosen public functions with wrappers in every
graphck module namespace that binds them (and ``AlgebraElement.__mul__`` on
its class), so calls between modules are seen without touching the program.
Each wrapped call records a span (name, start, end, parent) in compact arrays
and updates counters and layer timers; ``uninstall`` puts the originals back.
A layer's time counts only its outermost call, so nested or re-entrant calls
(``omega_set`` calling ``boundary_set``) are not counted twice.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

SPAN_CAP = 1_000_000  # spans kept in memory (24 bytes each); counters continue past it

# (module, attribute, timer metric or None, count metric or None, size metric or None)
SPEC = [
    ("graph", "enumerate_paths", "graph.enumerate_paths_ms", None, "graph.paths_listed"),
    ("graph", "reach_map", "graph.reach_ms", None, None),
    ("cycles", "simple_cycles", "cycles.simple_cycles_ms", None, "cycles.cycles_found"),
    ("cycles", "rotations", None, "cycles.rotations_calls", None),
    ("boundary", "boundary_set", "boundary.test_set_ms", None, None),
    ("boundary", "omega_set", "boundary.test_set_ms", None, None),
    ("boundary", "canonicalize", None, "boundary.canonicalize_calls", None),
    ("reps", "apply", "reps.apply_ms", "reps.apply_calls", None),
    ("reps", "operator_equal", None, None, None),
    ("reps", "verify_relations", None, None, None),
    ("algebra", "AlgebraElement.__mul__", "algebra.mul_ms", "algebra.mul_calls", None),
    ("algebra", "diag_expectation", "algebra.expectation_ms", None, None),
    ("exact", "add", None, "exact.scalar_ops", None),
    ("exact", "mul", None, "exact.scalar_ops", None),
    ("exact", "times_phase", None, "exact.scalar_ops", None),
    ("exact", "scalars_equal", None, "exact.scalar_ops", None),
    ("transform", "toeplitz_graph", "transform.toeplitz_ms", None, None),
    ("transform", "reduced_graph", "transform.reduced_ms", None, None),
    ("tails", "maximal_tails", "tails.maximal_tails_ms", None, "tails.found"),
    ("tails", "is_maximal_tail", None, "tails.mt_checks", None),
    ("expr", "parse_element", "expr.parse_ms", None, None),
    ("cli", "_load_graph", "cli.load_ms", None, None),
    ("cli", "_emit", "cli.emit_ms", None, None),
]

# Metrics that are means per call of one function; all others are per task.
PER_CALL = ("reps.equal_pair_ms", "reps.unequal_pair_ms", "reps.verify_relations_ms")
TEST_SETS = ("boundary_set", "omega_set")
# Functions whose result feeds a metric even though they have no timer.
RESULT_READ = ("operator_equal", "verify_relations")

METRICS = {
    "graph.enumerate_paths_ms": "ms", "graph.paths_listed": "count", "graph.reach_ms": "ms",
    "cycles.simple_cycles_ms": "ms", "cycles.cycles_found": "count",
    "cycles.rotations_calls": "count",
    "boundary.test_set_ms": "ms", "boundary.test_set_vectors": "count",
    "boundary.test_set_hits": "count", "boundary.test_set_misses": "count",
    "boundary.canonicalize_calls": "count",
    "reps.apply_calls": "count", "reps.apply_ms": "ms", "reps.equal_pair_ms": "ms",
    "reps.unequal_pair_ms": "ms", "reps.verify_relations_ms": "ms",
    "reps.relation_failures": "count",
    "algebra.mul_calls": "count", "algebra.mul_ms": "ms", "algebra.expectation_ms": "ms",
    "exact.scalar_ops": "count",
    "transform.toeplitz_ms": "ms", "transform.reduced_ms": "ms",
    "tails.maximal_tails_ms": "ms", "tails.mt_checks": "count", "tails.found": "count",
    "expr.parse_ms": "ms", "cli.load_ms": "ms", "cli.emit_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack = [-1]
        self.totals = {m: 0.0 for m in METRICS}
        self.calls = {m: 0 for m in PER_CALL}
        self.depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "graphck" or n.startswith("graphck."))]
        for mod_name, attr, timer, count, size in SPEC:
            home = sys.modules[f"graphck.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], attr, timer, count, size))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, attr, timer, count, size)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, name, timer, count, size):
        if timer is None and size is None and name not in RESULT_READ:
            return self._counter(fn, count)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        group = timer or name
        totals, depth, stack = self.totals, self.depth, self.stack
        depth.setdefault(group, 0)
        cache_info = fn.cache_info if name in TEST_SETS else None

        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            keep = idx < SPAN_CAP
            if keep:
                self.span_name.append(nid)
                self.span_parent.append(stack[-1])
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                stack.append(idx)
            else:
                self.dropped += 1
            misses = cache_info().misses if cache_info else 0
            depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[group] -= 1
                if keep:
                    stack.pop()
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
            if count:
                totals[count] += 1
            if timer and depth[group] == 0:
                totals[timer] += (t1 - t0) * 1000
            if size:
                totals[size] += len(result)
            if cache_info:
                if cache_info().misses > misses:
                    totals["boundary.test_set_misses"] += 1
                    totals["boundary.test_set_vectors"] += len(result)
                else:
                    totals["boundary.test_set_hits"] += 1
            if name == "operator_equal":
                key = "reps.equal_pair_ms" if result else "reps.unequal_pair_ms"
                totals[key] += (t1 - t0) * 1000
                self.calls[key] += 1
            elif name == "verify_relations":
                totals["reps.verify_relations_ms"] += (t1 - t0) * 1000
                self.calls["reps.verify_relations_ms"] += 1
                totals["reps.relation_failures"] += len(result.failures)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[count] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ results

    def metrics(self, tasks_run: int, overhead_pct: float) -> dict:
        out = {}
        for name, unit in METRICS.items():
            if name == "trace.overhead_pct":
                value = overhead_pct
            elif name in PER_CALL:
                value = self.totals[name] / self.calls[name] if self.calls[name] else 0.0
            else:
                value = self.totals[name] / tasks_run
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, stem: str, summary: dict) -> None:
        """Spans as four little-endian arrays (name id, parent index, start,
        end) in ``stem.spans``; names and the summary in ``stem.json``."""
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "spans_dropped": self.dropped, **summary}, fh, indent=1, sort_keys=True)
