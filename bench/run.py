"""graphck benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify|equality|structure --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next
to this directory; without it the run exits with code 2 and prints no result.
Set-up (importing graphck, generating and writing the seeded inputs) is
repeated at least ``SETUP_REPEATS`` times and until ``SETUP_SECONDS`` have
passed, and its median reported.  The rounds then run in a process of their
own (``rounds.py``): as many whole rounds of the workload's tasks as fit in
``--seconds`` (at least one), each task on one thread, with every graphck
cache cleared before it, as in a fresh ``graphck`` process.  Every output is
then checked by ``checkers``.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checkers  # noqa: E402
import workloads  # noqa: E402
from rounds import MissingProgram, import_graphck, summarize  # noqa: E402

SETUP_REPEATS = 7  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
ROUNDS_GRACE_S = 100  # beyond --seconds, before the rounds process is stopped


def setup(workload: str, seed: int, inputs: Path):
    """Import graphck and build the task list; returns (tasks, median seconds)."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        import_graphck()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)

        def write(name, g):
            path = inputs / f"{name}.graph"
            path.write_text(g.to_text(), encoding="utf-8")
            return str(path)

        tasks = workloads.BUILDERS[workload](seed, write)
        times.append(time.perf_counter() - t0)
    return tasks, statistics.median(times)


def run_rounds(tasks, seconds: float, trace: bool, work: Path, trace_stem: str, trace_info: dict):
    """Run the rounds in a fresh process (``rounds.py``) and return its result."""
    job, result = work / "job.pickle", work / "result.pickle"
    with open(job, "wb") as fh:
        pickle.dump({"tasks": [{k: t[k] for k in ("argv", "path", "pairs") if k in t} for t in tasks],
                     "seconds": seconds, "trace": trace, "trace_stem": trace_stem,
                     "trace_info": trace_info}, fh)
    subprocess.run([sys.executable, str(BENCH / "rounds.py"), str(job), str(result)],
                   stdout=sys.stderr, check=True, timeout=seconds + ROUNDS_GRACE_S)
    with open(result, "rb") as fh:
        return pickle.load(fh)


def check_outputs(tasks, outputs) -> tuple[list, int]:
    """(problems, failed tasks per round)."""
    problems, failed = [], 0
    for i, (task, out) in enumerate(zip(tasks, outputs)):
        if isinstance(out, str):  # the task raised
            failed += 1
            found = [out]
        elif task["check"] == "equality":
            found = checkers.check_equality(task, out)
        else:
            code, text, err = out
            if code == 2:
                failed += 1
            check = checkers.check_verify if task["check"] == "verify" else checkers.STRUCTURE[task["check"]]
            if code == 2 and task.get("known_fault"):
                found = [] if task["known_fault"] in err else [f"exit 2 with another error: {err.strip()}"]
            else:
                found = check(task, code, text)
        problems += [f"task {i} ({task['argv'][0] if 'argv' in task else 'equality'}): {p}" for p in found]
    return problems, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            tasks, setup_s = setup(args.workload, args.seed, work)
        except MissingProgram as err:
            print(f"bench: {err}", file=sys.stderr)
            return 2
        res = run_rounds(tasks, args.seconds, bool(args.trace), work,
                         str(OUT / f"trace-{args.workload}-{args.seed}"),
                         {"workload": args.workload, "seed": args.seed})
        problems, failed_per_round = check_outputs(tasks, res["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not res["consistent"]:
        problems.append("a task's output changed between rounds")

    if args.trace:
        metrics = res["layer_metrics"]
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **summarize(res["times"]),
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}

    rounds = res["rounds"]
    for p in problems[:20]:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} rounds={rounds} tasks/round={len(tasks)} "
          f"failed/round={failed_per_round} rss_before_rounds_mb={res['rss_before_mb']:.2f} "
          f"peak_rss_mb={res['peak_rss_mb']:.2f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * len(tasks),
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
