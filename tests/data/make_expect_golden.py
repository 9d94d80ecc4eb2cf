"""Record ``graphck expect`` output for a fixed list of commands.

Usage (from the repository root):

    PYTHONPATH=src:tests python tests/data/make_expect_golden.py > tests/data/expect_golden.json

The list is seeded and covers every graph of ``corpus.CORPUS`` and
``corpus.EXTRAS``: Gaussian, single-direction polar and two-direction polar
coefficients, parenthesised sums, generators that do and do not compose,
zero and cancelling terms, and literals the parser refuses.  The recorded
file pins the output byte for byte; regenerate it only for an intended
change of output.
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
from graphck.graph import enumerate_paths

from corpus import CORPUS, EXTRAS

SEED = 8
PER_GRAPH = 8

GAUSSIAN = ("1", "2", "-1", "1/2", "-2/3", "i", "-i", "2/3i", "(1-2/3i)", "(-1/2+i)", "(3+1/4i)")
POLAR = ("1@1/3", "2/5@1/8", "-3@1/12", "1@1/5", "1/2@1/6", "(1+2@1/6)", "(-1+1@1/5)",
         "(1@1/3+1/2@1/4)", "1@7/24", "2@1/9")


def generators(g):
    paths = enumerate_paths(g, 2)
    gens = [f"p[{v}]" for v in g.vertices]
    gens += [f"s[{p.render()}]" for p in paths if p.edges]
    gens += [f"s*[{p.render()}]" for p in paths if p.edges]
    return gens


def term(rng, gens, coeffs):
    factors = [rng.choice(gens) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
    if rng.random() < 0.8:
        c = rng.choice(coeffs)  # a bare signed literal may only lead a term
        factors.insert(0 if c[0] == "-" else rng.randrange(len(factors) + 1), c)
    return " * ".join(factors)


def element(rng, gens, style):
    coeffs = {"gaussian": GAUSSIAN, "polar": POLAR, "mixed": GAUSSIAN + POLAR}[style]
    terms = [term(rng, gens, coeffs) for _ in range(rng.randint(1, 4))]
    if style == "polar" and rng.random() < 0.5:  # two directions on one key
        gen = rng.choice(gens)
        terms += [f"1@1/3 * {gen}", f"1@1/4 * {gen}"]
    if rng.random() < 0.3:  # a term and its cancellation
        t = rng.choice(terms)
        terms += ["-" + t if t[0] != "-" else t[1:]]
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t[0] == "-" else f" + {t}"
    return text


def commands():
    rng = random.Random(SEED)
    out = []
    for name, g in CORPUS + EXTRAS:
        gens = generators(g)
        v = g.vertices[0]
        out.append((name, "0"))
        out.append((name, f"0 * p[{v}] + 1@1/3 * p[{v}] - 1@1/3 * p[{v}]"))
        for k in range(PER_GRAPH - 2):
            out.append((name, element(rng, gens, ("gaussian", "polar", "mixed")[k % 3])))
    v = CORPUS[0][1].vertices[0]
    out += [(CORPUS[0][0], text) for text in (
        f"1/0 * p[{v}]", f"1@1/1009 * p[{v}]", f"p[{v}] +", f"s[] * p[{v}]", "2 * 3", f"p[{v} {v}]",
        f"(1@1/840+2/3@3/840+1) * (1@1/840+2/3@3/840+1) * (1@1/840+2/3@3/840+1) * p[{v}]",
    )]
    return out


def run(path, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["expect", path, f"--element={text}"])
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    graphs = dict(CORPUS + EXTRAS)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in commands():
            path = os.path.join(tmp, f"{name}.graph")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write(graphs[name].to_text())
            code, out, err = run(path, text)
            records.append({"graph": name, "element": text, "code": code, "stdout": out, "stderr": err})
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
