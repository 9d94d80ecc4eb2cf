"""Seeded task lists for the three workloads.

A task is one unit of user work: one CLI command (``argv``), or one graph's
batch of ``operator_equal`` pairs (``pairs``).  Every workload has exactly
``TASKS`` tasks per round, laid out in fixed slots: a slot fixes the graph
family, its vertex count and, where the cost grows exponentially, a target
size of its boundary test set.  The seed picks the edges, labels, phases and
elements; of a fixed number of seeded draws, the graph whose test set (by the
benchmark's own count, ``elements.boundary_test_set``) is closest to the
target is kept.  So rounds from different seeds hold different inputs of
about the same cost, and the timing quantiles do not jump between seeds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import elements as el
from digraph import (
    Digraph,
    chain_graph,
    complete_graph,
    cycle_graph,
    entrance_free_cycles,
    graph_sources,
    layered_dag,
    path_counts,
    planted_graph,
    random_graph,
    reaches,
    relabel,
    renamed,
    simple_cycles,
    test_set_size,
    toeplitz_double,
    vertex_shuffle,
)

TASKS = 100
WORKLOADS = ("verify", "equality", "structure")
DRAWS = 24  # candidate graphs per slot
EXACT = 6  # of which this many, closest by the estimate, are counted exactly


def sized(rng, make, depth_of, target):
    """Of DRAWS graphs from ``make(rng)``, the one whose depth-``depth_of(g)``
    boundary test set is closest to ``target`` vectors, in ratio.  A target
    ``(vectors, paths)`` also asks for that many paths of length <= depth
    (the left-regular basis).

    A cheap estimate (half of ``test_set_size``, which is typically one and
    a half to three times the exact count) ranks the draws; the EXACT best
    are counted with ``elements.boundary_test_set``.  A fixed amount of work
    per slot keeps set-up time the same from seed to seed.
    """
    vectors, paths = target if isinstance(target, tuple) else (target, None)

    def miss(g, exact):
        depth = depth_of(g)
        n = len(el.boundary_test_set(g, depth)) if exact else test_set_size(g, depth) / 2
        out = abs(math.log((1 + n) / vectors))
        if paths:
            out += abs(math.log(sum(sum(c) for c in path_counts(g, depth).values()) / paths))
        return out

    draws = [make(rng) for _ in range(DRAWS)]
    ranked = sorted(draws, key=lambda g: miss(g, False))
    return min(ranked[:EXACT], key=lambda g: miss(g, True))


def edges_graph(n, extra_lo, extra_hi):
    """Random graphs on n vertices with n + extra_lo .. n + extra_hi edges."""
    return lambda rng: random_graph(rng, n, n + rng.randint(extra_lo, extra_hi))


def max_cycle(g) -> int:
    return max((len(c) for c in simple_cycles(g)), default=0)


def longest_free(g) -> int:
    return max((len(c) for c in entrance_free_cycles(g)), default=0)


def verify_depth(g) -> int:
    """The CLI's default depth at the reduced and normalized levels."""
    return len(g.vertices) + 1 + longest_free(g)


def ck_depth(g) -> int:
    """The CLI's default depth at the tck and ck levels."""
    return len(g.vertices) + 1


def omega_ok(g) -> bool:
    """Every vertex reaches a source or an entrance-free cycle."""
    targets = set(graph_sources(g))
    for cyc in entrance_free_cycles(g):
        targets |= {g.source_of(e) for e in cyc}
    return all(reaches(g, v) & targets for v in g.vertices)


# -------------------------------------------------------------------- verify

LR, BD, OM, TW = "left-regular", "boundary", "omega", "twisted"
QUARTER = [Fraction(k, 4) for k in range(4)]


def _turn(rng, polar: bool) -> Fraction:
    """A quarter turn (Gaussian mode) or k/d with d <= 12 (polar mode)."""
    if not polar:
        return rng.choice(QUARTER)
    den = rng.randint(3, 12)
    return Fraction(rng.randrange(den), den)


def _verify_task(g, path, rep, level, rng, polar):
    argv = ["verify", path, f"--rep={rep}", f"--level={level}"]
    task = {"check": "verify", "graph": g, "rep": rep, "level": level}
    if rep == TW:
        efree = entrance_free_cycles(g)
        turns = {c: _turn(rng, polar) for c in efree}
        if efree:
            argv.append("--kappa=" + ",".join(f"{rng.choice(c)}:{turns[c]}" for c in efree))
        task["turns"] = turns
    task["argv"] = argv
    return task


CYCLE_COMBOS = [(LR, "ck"), (OM, "normalized"), (TW, "reduced"), (TW, "normalized")]
PLANTED_COMBOS = [(BD, "ck"), (BD, "reduced"), (OM, "tck"), (OM, "normalized"), (TW, "tck"),
                  (TW, "ck"), (TW, "reduced"), (TW, "normalized"), (LR, "reduced"), (OM, "ck"),
                  (OM, "reduced"), (LR, "normalized")]
RANDOM_COMBOS = [(LR, "tck"), (LR, "ck"), (BD, "tck"), (BD, "ck"), (BD, "normalized")]

# (family, size parameter, size target or None, commands per graph, graphs).
# Targets are test-set sizes, or (test set, path basis) where left-regular
# commands run.  Commands are dealt from the family's list in turn; every
# group of like commands spans many graphs, so a timing quantile does not
# hang on one graph's quirks.  Twelve like heavy commands (boundary ck on
# random 7-vertex graphs) sit next to the ladder, so the tail quantile falls
# inside that group rather than on the largest of the rest.  These two
# families take most of a round's time, so they keep one graph per slot,
# drawn from a fixed seed, and the run's seed only relabels its vertices.
VERIFY_SLOTS = [
    ("cycle", None, None, 4, 5),
    ("planted", ((1,), 3, 2), 15, 2, 5),
    ("planted", ((2,), 3, 2), 16, 2, 5),
    ("planted", ((1,), 4, 3), 32, 2, 5),
    ("random", 4, (30, 70), 2, 4),
    ("random", 5, (35, 90), 2, 4),
    ("random", 6, (40, 120), 2, 4),
    ("random", 7, (50, 140), 2, 2),
    ("toeplitz", 3, (45, 90), 1, 5),
    ("heavy", 7, 200, 1, 12),
    # the density ladder: 7-vertex graphs with 8 to 12 edges whose test sets
    # grow to a couple of thousand vectors, so the exponential growth shows
    ("ladder", None, None, 1, 5),
]
LADDER = [(8, 100), (9, 250), (10, 500), (11, 1000), (12, 2000)]
FIXED_VERIFY = ("heavy", "ladder")


def _verify_graph(rng, family, param, target, i):
    if family == "cycle":
        return cycle_graph(3 + i)
    if family == "planted":
        lengths, extra, extra_edges = param
        return sized(rng, lambda r: planted_graph(r, lengths, extra, extra_edges), verify_depth, target)
    if family == "toeplitz":
        return sized(rng, lambda r: toeplitz_double(edges_graph(param, 0, 1)(r)), verify_depth, target)
    if family == "ladder":
        edges, target = LADDER[i]
        return sized(rng, lambda r: random_graph(r, 7, edges), ck_depth, target)
    if family == "heavy":
        return sized(rng, edges_graph(param, 0, 3), ck_depth, target)
    return sized(rng, edges_graph(param, 0, 3), verify_depth, target)


def verify_tasks(seed: int, write) -> list:
    rng = random.Random(f"verify|{seed}")
    tasks = []
    dealt = {}
    for family, param, target, per_graph, graphs in VERIFY_SLOTS:
        combos = {"cycle": CYCLE_COMBOS, "planted": PLANTED_COMBOS, "random": RANDOM_COMBOS,
                  "toeplitz": [(LR, "tck"), (BD, "ck")]}.get(family, [(BD, "ck")])
        for i in range(graphs):
            if family in FIXED_VERIFY:
                g = relabel(_verify_graph(random.Random(f"verify-slot|{len(tasks)}"), family, param, target, i), rng)
            else:
                g = _verify_graph(rng, family, param, target, i)
            path = write(f"{family}{len(tasks)}", g)
            for k in range(per_graph):
                n = dealt[family] = dealt.get(family, -1) + 1
                rep, level = combos[n % len(combos)]
                if rep == OM and not omega_ok(g):
                    rep = BD
                tasks.append(_verify_task(g, path, rep, level, rng, polar=(i + k) % 2 == 1))
    assert len(tasks) == TASKS, len(tasks)
    return tasks


# ------------------------------------------------------------------ equality

PAIRS = 24
EQUAL_EVERY = 4  # about a quarter of the pairs are made equal
TERMS = 2
KEY_LEN = 2


def random_coeff(rng):
    while True:
        c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if c != el.ZERO:
            return c


def random_element(rng, by_source) -> dict:
    """TERMS random terms whose keys have length <= KEY_LEN, the first key
    exactly KEY_LEN long where the graph has such paths, so that the
    program's test-set depth does not vary from element to element."""
    pools = {w: [p for p in ps if len(p[0]) <= KEY_LEN] for w, ps in by_source.items()}
    longest = [p for ps in pools.values() for p in ps if len(p[0]) == KEY_LEN]
    terms = {}
    while not terms:
        for k in range(TERMS):
            alpha = rng.choice(longest) if k == 0 and longest else \
                rng.choice(pools[rng.choice(sorted(w for w in pools if pools[w]))])
            beta = rng.choice(pools[alpha[1][-1]])
            terms = el.add(terms, {(alpha, beta): random_coeff(rng)})
    return terms


def kernel_times(rng, g, by_source, use_pin) -> dict:
    """K * r for a kernel element K of the boundary representation and a
    random r with keys of length <= 1 whose alphas have the range K needs:
    a CK defect p_v - sum s_e s_e^*, or with ``use_pin`` (where the graph has
    an entrance-free cycle mu) s_mu - p_{r(mu)}."""
    efree = entrance_free_cycles(g)
    if use_pin and efree:
        ker = el.cycle_pin(g, rng.choice(efree))
    else:
        ker = el.ck_defect(g, rng.choice([v for v in g.vertices if g.in_edges(v)]))
    vertex = next(iter(ker))[1][1][0]
    pools = {w: [p for p in ps if len(p[0]) <= 1] for w, ps in by_source.items()}
    alpha = rng.choice([p for ps in pools.values() for p in ps if p[1][0] == vertex])
    r = {(alpha, rng.choice(pools[alpha[1][-1]])): random_coeff(rng)}
    return el.mul(ker, r)


def equality_depth(g) -> int:
    """The program's depth for keys of length KEY_LEN: L + |V| + longest cycle."""
    return KEY_LEN + len(g.vertices) + max_cycle(g)


# (family, size parameter, (test-set, path-basis) target or None).  Ten like
# heavy tasks (random 6-vertex graphs) sit at the top, so the tail quantile
# falls inside that group.
EQUALITY_SLOTS = (
    [("random", n, target) for n, target, count in
     [(4, (15, 45), 4), (4, (40, 100), 4), (4, (70, 160), 4), (5, (18, 50), 4), (5, (45, 110), 4),
      (5, (60, 170), 2), (6, (25, 80), 2), (6, (60, 150), 2), (6, (100, 220), 10)]
     for _ in range(count)]
    + [("planted", shape, target) for shape, target in
       [(((1,), 3, 2), (18, 88)), (((2,), 3, 2), (16, 112)), (((1, 1), 2, 2), (17, 88))]
       for _ in range(12)]
    + [("cycle", n, None) for n in (1, 2, 3, 4, 5) for _ in range(2)]
    + [("toeplitz", n, target) for n, targets in
       ((2, ((50, 90), (150, 250))), (3, ((47, 86), (200, 300))))
       for target, count in zip(targets, (5, 4)) for _ in range(count)]
)


def _equality_graph(rng, family, param, target):
    if family == "cycle":
        return cycle_graph(param)
    if family == "planted":
        lengths, extra, extra_edges = param
        return sized(rng, lambda r: planted_graph(r, lengths, extra, extra_edges), equality_depth, target)
    if family == "toeplitz":
        return sized(rng, lambda r: toeplitz_double(edges_graph(param, 0, 1)(r)), equality_depth, target)
    return sized(rng, edges_graph(param, -1, 2), equality_depth, target)


# The heaviest slots keep one graph and one batch of pairs each, drawn from a
# fixed seed, and the run's seed only relabels their vertices.  Their cost
# swings with the draw (an equal pair scans the whole test set in 3 to 12 ms
# depending on its terms; random 6-vertex graphs near one target hold 20 to
# 150 test vectors), and these slots set the tail quantile and most of the
# round's time.
FIXED_SLOTS = {("random", 6, (100, 220)), ("toeplitz", 2, (150, 250)), ("toeplitz", 3, (200, 300))}


def _renamed_element(elem: dict, new: dict) -> dict:
    def path(p):
        return p[0], tuple(new[v] for v in p[1])

    return {(path(a), path(b)): c for (a, b), c in elem.items()}


def equality_tasks(seed: int, write) -> list:
    rng = random.Random(f"equality|{seed}")
    tasks = []
    for i, (family, param, target) in enumerate(EQUALITY_SLOTS):
        fixed = (family, param, target) in FIXED_SLOTS
        draw = random.Random(f"equality-slot|{i}") if fixed else rng
        g = _equality_graph(draw, family, param, target)
        by_source = el.paths_by_source(g, KEY_LEN)
        pairs = []
        for k in range(PAIRS):
            a = random_element(draw, by_source)
            if k % EQUAL_EVERY == 0:
                b = el.add(a, kernel_times(draw, g, by_source, use_pin=k > 0))
                pairs.append((a, b, True))
            else:
                pairs.append((a, random_element(draw, by_source), False))
        if fixed:
            new = vertex_shuffle(g, rng)
            g = renamed(g, new)
            pairs = [(_renamed_element(a, new), _renamed_element(b, new), eq) for a, b, eq in pairs]
        tasks.append({"check": "equality", "graph": g, "path": write(f"{family}{i}", g),
                      "pairs": pairs, "max_cycle": max_cycle(g)})
    assert len(tasks) == TASKS, len(tasks)
    return tasks


# ----------------------------------------------------------------- structure


def element_text(elem: dict, turn) -> str:
    """Render an own element in the CLI's expression syntax; with ``turn``
    every coefficient is a real magnitude in that one polar direction."""
    text = ""
    for (alpha, beta), (re, im) in sorted(elem.items()):
        if turn is None:
            op, coeff = "+", f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"
        else:
            op, coeff = ("+" if re > 0 else "-"), f"{abs(re)}@{turn}"
        if not alpha[0] and not beta[0]:
            body = [f"p[{alpha[1][0]}]"]
        else:
            body = ([f"s[{' '.join(alpha[0])}]"] if alpha[0] else []) + \
                   ([f"s*[{' '.join(beta[0])}]"] if beta[0] else [])
        text += f" {op} " + " * ".join([coeff] + body)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def expect_element(rng, g, terms: int, polar: bool) -> dict:
    """``terms`` terms (at most half the available keys) with keys of length
    <= 4, so cycle powers appear."""
    by_source = el.paths_by_source(g, 4)
    pools = {w: ps for w, ps in by_source.items() if ps}
    terms = min(terms, sum(len(ps) ** 2 for ps in pools.values()) // 2)
    out = {}
    while len(out) < terms:
        w = rng.choice(sorted(pools))
        if polar:
            coeff = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)), Fraction(0))
        else:
            coeff = random_coeff(rng)
        out[(rng.choice(pools[w]), rng.choice(pools[w]))] = coeff
    return out


def toeplitz_base(rng, n, receiving):
    """A random n-vertex graph in which exactly ``receiving`` vertices
    receive edges, so its Toeplitz graph has n + receiving vertices."""
    while True:
        g = random_graph(rng, n, rng.randint(n - 1, n + 1))
        if sum(1 for v in g.vertices if g.in_edges(v)) == receiving:
            return g


def structure_tasks(seed: int, write) -> list:
    rng = random.Random(f"structure|{seed}")
    tasks = []

    def cli(argv, **spec):
        tasks.append({"argv": argv, **spec})

    for layers in range(12, 17):
        g = layered_dag(layers)
        cli(["analyze", write(f"layered{layers}", g)], check="analyze", graph=g, family="layered")
    for k in range(3, 7):
        g = complete_graph(k)
        cli(["analyze", write(f"complete{k}", g)], check="analyze", graph=g, family="complete")
    for n in (3, 6, 9):
        g = cycle_graph(n)
        cli(["analyze", write(f"cycle{n}", g)], check="analyze", graph=g, family="cycle")
    for n in range(10, 17):
        g = random_graph(rng, n, n + n // 4)
        cli(["analyze", write(f"sparse{n}", g)], check="analyze", graph=g, family="random")
    for n in range(6, 18):
        g = random_graph(rng, n, n + n // 4)
        cli(["transform", write(f"toep{n}", g), "--toeplitz"], check="toeplitz", graph=g)
    for i, lengths in enumerate(([(1,), (2,), (3,), (1, 3), (2, 2), (1, 1, 2)] * 2)[:10]):
        g = planted_graph(rng, lengths, 2 + i % 6, 1 + i % 5)
        cli(["transform", write(f"red{i}", g), "--reduce"], check="reduce", graph=g)
    # The cost of tails grows as 2^n and with the number of reach-closed
    # vertex sets, so graphs from 12 vertices up keep one shape per size
    # (drawn from a fixed seed) and the run's seed only relabels them.  Six
    # relabellings of the 12-vertex shape sit just below the ten heaviest
    # commands, so the tail quantile falls inside that group.
    for n in list(range(4, 12)) + [12] * 6 + [13, 14, 15, 16]:
        shape = rng if n < 12 else random.Random(f"tails|{n}")
        g = chain_graph(shape, n) if n % 2 else planted_graph(shape, (1 + n % 3,), n - 1 - n % 3, 2)
        g = g if n < 12 else relabel(g, rng)
        cli(["tails", write(f"tails{len(tasks)}", g)], check="tails", target=g)
    for n, receiving in [(3, 2), (3, 3), (4, 3), (5, 4), (6, 4), (6, 5), (7, 5), (8, 6)]:
        shape = rng if n < 6 else random.Random(f"tailsT|{n}|{receiving}")
        base = toeplitz_base(shape, n, receiving)
        base = base if n < 6 else relabel(base, rng)
        cli(["tails", write(f"tailsT{len(tasks)}", base), "--toeplitz-of"], check="tails",
            target=toeplitz_double(base))
    for i in range(30):
        polar = i % 2 == 1
        g = (cycle_graph(1 + i % 3) if i % 3 == 0
             else planted_graph(rng, [(1,), (2,), (1, 2)][i % 3], 1 + i % 4, i % 3))
        elem = expect_element(rng, g, 10 + i, polar)
        turn = Fraction(rng.randrange(1, 12), 12) if polar else None
        cli(["expect", write(f"expect{i}", g), "--element=" + element_text(elem, turn)],
            check="expect", graph=g, element=elem, turn=turn)
    tasks.extend(known_faults(write))
    assert len(tasks) == TASKS, len(tasks)
    return tasks


def known_faults(write) -> list:
    """Inputs that fail every time, the same for every seed: ``tails`` past
    the 16-vertex enumeration guard, and a polar sum of two directions.
    ``known_fault`` holds the text the program's error message must contain
    for an exit 2 to count as that fault."""
    out = []
    for n in (17, 24):
        g = chain_graph(random.Random(n), n)
        out.append({"argv": ["tails", write(f"guard{n}", g)], "check": "tails",
                    "target": g, "known_fault": "exceed the enumeration guard"})
    g = Digraph(["v"], [])
    out.append({"argv": ["expect", write("polar", g), "--element=1@1/3 * p[v] + 1@1/6 * p[v]"],
                "check": "expect", "graph": g,
                "known_fault": "cannot add polar coefficients with distinct directions"})
    return out


BUILDERS = {"verify": verify_tasks, "equality": equality_tasks, "structure": structure_tasks}
