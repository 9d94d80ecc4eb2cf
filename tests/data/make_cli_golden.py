"""Record ``graphck`` output for a fixed list of commands.

Usage (from the repository root):

    PYTHONPATH=src:tests python tests/data/make_cli_golden.py > tests/data/cli_golden.json

``commands()`` is the one table of recorded commands; each row is a graph
name and the argument list, with the graph file inserted after the command
name.  ``graph_texts()`` maps each graph name to the text of its file.  The
table covers every command on every graph of ``corpus.CORPUS`` and
``corpus.EXTRAS``:

- ``verify``: every representation and level, at ``--depth=1`` and at the
  default depth, twisted kappa at quarter, k/12 and level-840 turns, and the
  exit-2 messages of a depth below the minimum, an omega basis the graph does
  not support, a malformed kappa, a kappa that is no cutting set and a kappa
  whose level is above 1000;
- ``analyze``, ``transform --toeplitz``, ``transform --reduce``, ``tails``
  and ``tails --toeplitz-of``;
- ``transform --reduce --cutting-set=`` with the largest edge of each
  entrance-free class, where that set is not the canonical one, and with the
  graph's least edge, where the graph has a class (exit 2 when that edge is
  no cutting set);
- ``--pretty`` on one ``analyze``, ``transform``, ``tails`` and ``verify``
  command.

It also records ``analyze`` on three malformed graph texts (``MALFORMED``):
a dangling edge endpoint, a duplicate vertex id and an unrecognized
declaration.  The recorded file pins exit code, standard output and standard
error byte for byte; regenerate it only for an intended change of output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from graphck import cli
from graphck.cycles import canonical_cutting_set, entrance_free_classes

from corpus import CORPUS, EXTRAS

SEED = 21
REPS = ("left-regular", "boundary", "omega")
LEVELS = ("tck", "ck", "reduced", "normalized")
DEPTHS = (("--depth=1",), ())
TURN_DENOMINATORS = (4, 4, 12, 12, 840, 840)
MALFORMED = {
    "malformed-dangling": "vertex v\nedge e : v -> q\n",
    "malformed-duplicate": "vertex v\nvertex w\nvertex v\n",
    "malformed-declaration": "vertex v\nnode w\n",
}


def kappa_text(edges, turns) -> str:
    return ",".join(f"{e}:{t}" for e, t in zip(edges, turns))


def verify_commands(rng, g):
    rows = []
    for level in LEVELS:
        for depth in DEPTHS:
            rows += [["verify", f"--rep={rep}", f"--level={level}", *depth] for rep in REPS]
    cutting = canonical_cutting_set(g)
    twists = [kappa_text(cutting, (f"{rng.randrange(n)}/{n}" for _ in cutting)) for n in TURN_DENOMINATORS]
    for kappa in twists if cutting else [None]:
        flag = [f"--kappa={kappa}"] if kappa else []
        for level in LEVELS:
            for depth in DEPTHS:
                rows.append(["verify", "--rep=twisted", f"--level={level}", *depth, *flag])
    if not cutting:
        return rows
    # exit 2: malformed, missing and non-cutting kappa, and a level above 1000
    bad = [f"{cutting[0]}:bad", f"{cutting[0]}", f"{cutting[0]}:1/0",
           kappa_text(cutting, ("1/3" for _ in cutting)) + f",{cutting[0]}:1/4"]
    off = sorted(set(g.edges) - set(cutting))
    if off:
        bad.append(kappa_text(cutting, ("1/3" for _ in cutting)) + f",{off[0]}:1/4")
    if len(entrance_free_classes(g)) > 1:
        bad.append(f"{cutting[0]}:1/3")
    rows += [["verify", "--rep=twisted", "--level=reduced", f"--kappa={kappa}"] for kappa in bad]
    rows.append(["verify", "--rep=twisted", "--level=reduced"])
    rows.append(["verify", "--rep=boundary", "--level=ck", f"--kappa={cutting[0]}:1/2"])
    huge = kappa_text(cutting, ("1/1001" for _ in cutting))
    rows += [["verify", "--rep=twisted", f"--level={level}", f"--kappa={huge}"] for level in LEVELS]
    return rows


def structure_commands(g):
    rows = [["analyze"], ["transform", "--toeplitz"], ["transform", "--reduce"],
            ["tails"], ["tails", "--toeplitz-of"]]
    classes = entrance_free_classes(g)
    largest = sorted(max(cls.edge_set) for cls in classes)
    if tuple(largest) != canonical_cutting_set(g):
        rows.append(["transform", "--reduce", f"--cutting-set={','.join(largest)}"])
    if classes:
        rows.append(["transform", "--reduce", f"--cutting-set={min(g.edges)}"])
    rows += [["analyze", "--pretty"], ["transform", "--reduce", "--pretty"],
             ["tails", "--toeplitz-of", "--pretty"],
             ["verify", "--rep=left-regular", "--level=reduced", "--pretty"]]
    return rows


def graph_texts() -> dict[str, str]:
    return {**{name: g.to_text() for name, g in CORPUS + EXTRAS}, **MALFORMED}


def commands():
    rng = random.Random(SEED)
    rows = [(name, argv) for name, g in CORPUS + EXTRAS for argv in verify_commands(rng, g)]
    rows += [(name, argv) for name, g in CORPUS + EXTRAS for argv in structure_commands(g)]
    return rows + [(name, ["analyze"]) for name in MALFORMED]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    texts = graph_texts()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands():
            path = os.path.join(tmp, f"{name}.graph")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write(texts[name])
            code, out, err = run([argv[0], path, *argv[1:]])
            records.append({"graph": name, "argv": argv, "code": code, "stdout": out, "stderr": err})
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    main()
