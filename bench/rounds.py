"""The timed part of a benchmark run, in a process of its own.

    python3 bench/rounds.py JOB RESULT

``run.py`` writes JOB (a pickle: the tasks' command lines or equality
batches, ``seconds``, ``trace`` and where traces go) and starts this
program, which imports graphck once, runs whole rounds of the tasks and
pickles to RESULT the per-task times, each task's output, and the process's
peak resident set before and after the rounds.  Running the rounds apart
from set-up keeps the benchmark's own input generation, and the repeated
imports of set-up, out of ``peak_rss_mb``: what is left is the interpreter,
one import of graphck, the task list and the tasks' own memory.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TAIL_QUANTILE = 0.90  # with 100 tasks, ten task samples lie beyond it


class MissingProgram(RuntimeError):
    pass


def import_graphck():
    """(Re-)import graphck from this checkout's ``src``; never from elsewhere."""
    if not (SRC / "graphck" / "__init__.py").is_file():
        raise MissingProgram(f"no graphck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "graphck" or n.startswith("graphck.")]:
        del sys.modules[name]
    gk = importlib.import_module("graphck")
    cli = importlib.import_module("graphck.cli")
    if Path(gk.__file__).resolve().parent != (SRC / "graphck").resolve():
        raise MissingProgram(f"graphck imported from {gk.__file__}, not {SRC}")
    return gk, cli


def peak_rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` starts afresh at exec;
    ``ru_maxrss``, the fallback, also holds the parent's peak at the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cached_functions(gk_modules) -> list:
    seen = {}
    for mod in gk_modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


def make_runner(gk, cli, task):
    """A zero-argument callable doing the task once; returns (seconds, output).
    A CLI task's output is (exit code, stdout, stderr); an output that is a
    string means the task raised."""
    if "argv" in task:
        argv = task["argv"]

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is reported as a failed task
                    return time.perf_counter() - t0, f"raised {exc!r}"
                t1 = time.perf_counter()
            return t1 - t0, (code, out.getvalue(), err.getvalue())

        return run_cli

    path, pairs = task["path"], task["pairs"]

    def element(g, terms):
        def gk_path(p):
            return g.path(list(p[0])) if p[0] else g.empty_path(p[1][0])

        return gk.AlgebraElement(
            {(gk_path(a), gk_path(b)): gk.GaussianRational(*c) for (a, b), c in terms.items()})

    def run_equality():
        t0 = time.perf_counter()
        try:
            with open(path, encoding="utf-8") as fh:
                g = gk.parse_graph(fh.read())
            reps = (gk.boundary(g), gk.left_regular(g))
            verdicts = []
            for a, b, _ in pairs:
                ea, eb = element(g, a), element(g, b)
                verdicts.append(tuple(gk.operator_equal(rep, ea, eb) for rep in reps))
            out = tuple(verdicts)
        except Exception as exc:  # a crash is reported as a failed task
            out = f"raised {exc!r}"
        t1 = time.perf_counter()
        return t1 - t0, out

    return run_equality


def run_rounds(runners, caches, seconds, tracer=None, min_rounds=1):
    """Whole rounds until the next one would pass ``seconds``.  With a
    tracer, rounds alternate untraced / traced (at least one of each)."""
    n = len(runners)
    times = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    outputs = [None] * n
    consistent = True
    rounds = 0
    start = time.perf_counter()
    last = 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        try:
            for i, runner in enumerate(runners):
                for fn in caches:
                    fn.cache_clear()
                gc.collect()
                dt, out = runner()
                times[traced][i].append(dt)
                if outputs[i] is None:
                    outputs[i] = out
                elif out != outputs[i]:
                    consistent = False
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - r0
        rounds += 1
    return rounds, times, outputs, consistent


def summarize(per_task_seconds) -> dict:
    """End-to-end timing metrics over per-task medians."""
    ms = sorted(statistics.median(ts) * 1000 for ts in per_task_seconds)
    tail_rank = math.ceil(TAIL_QUANTILE * len(ms)) - 1
    return {
        "tasks_per_s": {"value": len(ms) / (sum(ms) / 1000), "unit": "1/s"},
        "task_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "task_tail_ms": {"value": ms[tail_rank], "unit": "ms"},
    }


def main(job_path: str, result_path: str) -> int:
    with open(job_path, "rb") as fh:
        job = pickle.load(fh)
    gk, cli = import_graphck()
    gk_modules = [m for n, m in sys.modules.items() if n.startswith("graphck")]
    runners = [make_runner(gk, cli, t) for t in job["tasks"]]
    caches = cached_functions(gk_modules)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    rss_before = peak_rss_mb()
    rounds, times, outputs, consistent = run_rounds(
        runners, caches, job["seconds"], tracer, min_rounds=2 if tracer else 1)
    result = {"rounds": rounds, "times": times[False], "outputs": outputs,
              "consistent": consistent, "rss_before_mb": rss_before, "peak_rss_mb": peak_rss_mb()}
    if tracer:
        traced_rounds = rounds // 2
        untraced, traced = summarize(times[False]), summarize(times[True])
        overhead = 100 * (untraced["tasks_per_s"]["value"] / traced["tasks_per_s"]["value"] - 1)
        result["layer_metrics"] = tracer.metrics(traced_rounds * len(runners), overhead)
        tracer.write(job["trace_stem"], {
            **job["trace_info"], "traced_rounds": traced_rounds,
            "untraced_rounds": rounds - traced_rounds, "metrics": result["layer_metrics"]})
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
