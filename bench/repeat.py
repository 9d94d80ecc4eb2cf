"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 bench/repeat.py --workload verify [equality structure]

Runs each workload in ``SETS`` sets of ``RUNS`` runs, each run
``bench/run.py`` in its own process for ``run_seconds`` from
``BENCHMARK.json`` with its own seed: set 1 uses seeds 1-10, set 2 seeds
11-20.  For every metric it prints each set's median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound, and how far set 2's median
moved from set 1's, in the metric's worse direction.  Exits 1 if any run
fails, reports incorrect output, or the share of failed operations differs
between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return {"run_seconds": spec["run_seconds"], "metrics": metrics}


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+")
    args = parser.parse_args(argv)
    spec = load_spec()
    ok = True
    for workload in args.workload:
        ok &= report(workload, spec)
    return 0 if ok else 1


def report(workload, spec) -> bool:
    ok = True
    seconds = spec["run_seconds"]
    sets = []
    for k in range(SETS):
        results = []
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            res = one_run(workload, seed, seconds)
            share = Fraction(res["failed"], res["attempted"])
            print(f"set {k + 1} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({float(share):.4f})", flush=True)
            ok &= bool(res["correct"])
            results.append((res, share))
        sets.append(results)

    shares = {share for results in sets for _, share in results}
    if len(shares) != 1:
        print(f"failed shares differ between runs: {sorted(shares)}")
        ok = False
    attempted = sum(res["attempted"] for results in sets for res, _ in results)
    failed = sum(res["failed"] for results in sets for res, _ in results)
    print(f"\n{workload}: {RUNS} runs x {SETS} sets, {seconds:g} s each, "
          f"{attempted} tasks attempted, {failed} failed "
          f"(share {', '.join(str(s) for s in sorted(shares))})")
    print(f"{'metric':32} {'unit':6} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'moved':>7}")
    names = sets[0][0][0]["metrics"]
    for name in names:
        meta = spec["metrics"].get(name, {})
        bound = meta.get("bound")
        first = None
        for k, results in enumerate(sets):
            values = [res["metrics"][name]["value"] for res, _ in results]
            med, q1, q3, spread = stats(values)
            moved = ""
            if first is None:
                first = med
            elif first:
                sign = 1 if meta.get("better") == "lower" else -1
                moved = f"{sign * (med - first) / first:+7.3f}"
            print(f"{name:32} {names[name]['unit']:6} {k + 1:>3} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} {moved:>7}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
