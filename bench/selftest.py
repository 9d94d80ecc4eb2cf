"""Self-test of the benchmark's checkers: each must accept a real output of
the program and reject a deliberately corrupted copy of it.

    python3 bench/selftest.py

Runs in a few seconds; exits 1 if any checker accepts a corrupted output or
rejects a genuine one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkers  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _edit(text: str, fn) -> str:
    report = json.loads(text)
    fn(report["result"])
    return json.dumps(report)


def _drop_first_edge(res):
    lines = res["graphText"].splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("edge"))
    res["graphText"] = "\n".join(lines[:first] + lines[first + 1:]) + "\n"


def _drop_last_term(res):
    text = res["expectation"]
    cut = max(text.rfind(" + "), text.rfind(" - "))
    res["expectation"] = text[:cut] if cut > 0 else "0"


CLI_CORRUPTIONS = {
    "verify": [
        ("pass flipped", lambda r: r.update({"pass": not r["pass"]})),
        ("failure added", lambda r: r["failures"].append({"relation": "T1[x]", "witness": "@x|."})),
        ("depth changed", lambda r: r.update({"depth": r["depth"] + 1})),
    ],
    "analyze": [
        ("cycle added", lambda r: r["simpleCycles"].append("zz")),
        ("cofinality flipped", lambda r: r.update({"cofinal": not r["cofinal"]})),
    ],
    "toeplitz": [("edge dropped", _drop_first_edge)],
    "reduce": [("edge dropped", _drop_first_edge),
               ("cutting set emptied", lambda r: r.update({"cuttingSet": []}))],
    "tails": [
        ("tail dropped", lambda r: r["tails"].pop()),
        ("kind flipped", lambda r: r["tails"][0].update(
            {"kind": "gamma" if r["tails"][0]["kind"] == "tau" else "tau"})),
        ("vertex added", lambda r: r["tails"][-1]["vertices"].append("nowhere")),
    ],
    "expect": [
        ("term dropped", _drop_last_term),
        ("off-diagonal term", lambda r: r.update({"expectation": r["wNormalForm"]})),
    ],
}


def pick(tasks, check, want):
    for task in tasks:
        if task["check"] == check and not task.get("known_fault") and want(task):
            return task
    raise LookupError(f"no {check} task")


def main() -> int:
    out = run.OUT / f"selftest-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)

    def write(name, g):
        path = out / f"{name}.graph"
        path.write_text(g.to_text(), encoding="utf-8")
        return str(path)

    bad = 0
    try:
        gk, cli = rounds.import_graphck()
        verify = workloads.verify_tasks(0, write)
        structure = workloads.structure_tasks(0, write)
        equality = workloads.equality_tasks(0, write)
        cases = [
            ("verify", pick(verify, "verify", lambda t: t["rep"] == "twisted" and t["level"] == "normalized"
                            and any(x % 1 for x in t["turns"].values()))),
            ("verify", pick(verify, "verify", lambda t: t["rep"] == "left-regular" and t["level"] == "ck")),
            ("analyze", pick(structure, "analyze", lambda t: t["family"] == "random")),
            ("toeplitz", pick(structure, "toeplitz", lambda t: True)),
            ("reduce", pick(structure, "reduce", lambda t: True)),
            ("tails", pick(structure, "tails", lambda t: len(t["target"].vertices) <= 8)),
            ("expect", pick(structure, "expect", lambda t: t["turn"] is None and len(t["graph"].vertices) > 2)),
            ("expect", pick(structure, "expect", lambda t: t["turn"] is not None and len(t["graph"].vertices) > 2)),
        ]
        for kind, task in cases:
            _, (code, text, _) = rounds.make_runner(gk, cli, task)()
            check = checkers.check_verify if kind == "verify" else checkers.STRUCTURE[kind]
            if check(task, code, text):
                print(f"FAIL {kind}: genuine output rejected: {check(task, code, text)}")
                bad += 1
            for label, corrupt in CLI_CORRUPTIONS[kind]:
                try:
                    rejected = bool(check(task, code, _edit(text, corrupt)))
                except (KeyError, ValueError, IndexError, TypeError):
                    rejected = True
                print(f"{'ok  ' if rejected else 'FAIL'} {kind}: {label} {'rejected' if rejected else 'ACCEPTED'}")
                bad += not rejected

        for task in (t for t in structure if t.get("known_fault")):
            _, out = rounds.make_runner(gk, cli, task)()
            genuine, _ = run.check_outputs([task], [out])
            other, _ = run.check_outputs([task], [(2, "", "graphck: error: no such file\n")])
            ok = not genuine and bool(other)
            print(f"{'ok  ' if ok else 'FAIL'} known fault {task['argv'][0]}: its own error accepted, "
                  f"another exit-2 error {'rejected' if other else 'ACCEPTED'}")
            bad += not ok

        task = next(t for t in equality if t["pairs"][0][2])
        _, verdicts = rounds.make_runner(gk, cli, task)()
        if checkers.check_equality(task, verdicts):
            print("FAIL equality: genuine verdicts rejected")
            bad += 1
        for label, slot in (("boundary verdict flipped", 0), ("left-regular verdict flipped", 1)):
            accepted = 0
            for i in range(len(verdicts)):
                wrong = list(verdicts)
                pair = list(wrong[i])
                pair[slot] = not pair[slot]
                wrong[i] = tuple(pair)
                accepted += not checkers.check_equality(task, wrong)
            print(f"{'FAIL' if accepted else 'ok  '} equality: {label}, in each of "
                  f"{len(verdicts)} pairs in turn, {'ACCEPTED' if accepted else 'rejected'}")
            bad += accepted
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("selftest:", "all checkers reject corrupted output" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
