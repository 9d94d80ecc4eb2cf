"""Independent checks of every task output.

Each checker takes the task (its own ``Digraph`` and parameters), the exit
code and the standard output, and returns a list of problems; an empty list
means the output is right.  Expected values come from the benchmark's own
algorithms in ``digraph`` and ``elements`` or from properties the method must
have, never from a saved copy of earlier output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial

import elements as el
from digraph import (
    all_maximal_tails,
    entrance_free_cycles,
    free_cycles_within,
    graph_sources,
    is_cofinal,
    is_maximal_tail,
    parse_text,
    simple_cycles,
)

COMPLETENESS_LIMIT = 10  # tails: every vertex set is tried up to this size


def _report(out: str):
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report.get("result") if isinstance(report, dict) else None


def _render(edges) -> str:
    return " ".join(edges)


def rotation_names(g, cycles) -> set:
    return {_render(rot[0]) for cyc in cycles for rot in el.rotations(g, cyc)}


# ------------------------------------------------------------------ verify


def check_verify(task, code, out) -> list:
    g, rep, level = task["graph"], task["rep"], task["level"]
    res = _report(out)
    if res is None:
        return [f"unreadable report (exit {code})"]
    problems = []
    efree = entrance_free_cycles(g)
    receiving = [v for v in g.vertices if g.in_edges(v)]
    longest = max((len(c) for c in efree), default=0)
    depth = len(g.vertices) + (1 + longest if level in ("reduced", "normalized") else 1)
    if res.get("depth") != depth:
        problems.append(f"depth {res.get('depth')} != default {depth}")
    failed = {f["relation"] for f in res.get("failures", [])}
    if len(failed) != len(res.get("failures", [])):
        problems.append("a relation is reported twice")
    if rep == "left-regular":
        expected = set()
        if level != "tck":
            expected |= {f"CK[{v}]" for v in receiving}
        if level in ("reduced", "normalized"):
            expected |= {f"R[{r}]" for r in rotation_names(g, efree)}
    elif rep == "twisted":
        turns = task["turns"]
        expected = set()
        if level == "normalized":
            moved = [c for c in efree if turns[c] % 1 != 0]
            expected = {f"R[{r}]" for r in rotation_names(g, moved)}
        got = {(k["class"], k.get("turn")) for k in res.get("kappa", [])}
        want = {(_render(c), str(turns[c] % 1)) for c in efree}
        if got != want:
            problems.append(f"kappa {sorted(got)} != given {sorted(want)}")
    else:
        expected = set()
    if failed != expected:
        problems.append(f"failures {sorted(failed)} != expected {sorted(expected)}")
    if res.get("pass") != (not expected) or code != (0 if not expected else 1):
        problems.append(f"pass={res.get('pass')} exit={code}, expected pass={not expected}")
    return problems


# ---------------------------------------------------------------- equality


def check_equality(task, verdicts) -> list:
    """``verdicts`` lists (boundary, left-regular) booleans per pair."""
    g = task["graph"]
    problems = []
    if len(verdicts) != len(task["pairs"]):
        return [f"{len(verdicts)} verdicts for {len(task['pairs'])} pairs"]
    test_sets = {}
    for i, ((a, b, made_equal), (bd, lr)) in enumerate(zip(task["pairs"], verdicts)):
        if made_equal and not bd:
            problems.append(f"pair {i}: equal by construction, reported unequal")
        if lr != (a == b):
            problems.append(f"pair {i}: left-regular verdict {lr} != coefficients")
        depth = el.max_key_length(a, b) + len(g.vertices) + task["max_cycle"]
        if depth not in test_sets:
            test_sets[depth] = el.boundary_test_set(g, depth)
        if bd != el.boundary_equal(test_sets[depth], a, b):
            problems.append(f"pair {i}: boundary verdict {bd} != own evaluation")
    return problems


# --------------------------------------------------------------- structure


def check_analyze(task, code, out) -> list:
    g = task["graph"]
    res = _report(out)
    if code != 0 or res is None:
        return [f"exit {code}"]
    problems = []
    count = len(res["simpleCycles"])
    family = task["family"]
    if family == "cycle":
        want = 1
    elif family == "layered":
        want = 0
    elif family == "complete":
        k = len(g.vertices)
        want = sum(comb(k, j) * factorial(j - 1) for j in range(1, k + 1))
    else:
        want = len(simple_cycles(g))
    if count != want:
        problems.append(f"{count} simple cycles, expected {want}")
    if res["cofinal"] != is_cofinal(g) or res["simple"] != res["cofinal"]:
        problems.append(f"cofinal={res['cofinal']} disagrees with own check")
    if sorted(res["sources"]) != graph_sources(g):
        problems.append("sources differ")
    classes = sorted(tuple(c) for c in res["entranceFreeClasses"])
    if classes != entrance_free_cycles(g):
        problems.append("entrance-free classes differ")
    cut = res["cuttingSet"]
    if len(cut) != len(classes) or any(
        sum(e in c for e in cut) != 1 for c in classes
    ):
        problems.append("cutting set is not one edge per class")
    return problems


def check_toeplitz(task, code, out) -> list:
    g = task["graph"]
    res = _report(out)
    if code != 0 or res is None:
        return [f"exit {code}"]
    t = parse_text(res["graphText"])
    receiving = {v for v in g.vertices if g.in_edges(v)}
    n_v = len(g.vertices) + len(receiving)
    n_e = sum(1 + (g.source_of(e) in receiving) for v in g.vertices for e in g.in_edges(v))
    problems = []
    if (len(t.vertices), len(t.edges)) != (n_v, n_e):
        problems.append(f"toeplitz has {len(t.vertices)}v/{len(t.edges)}e, expected {n_v}/{n_e}")
    if set(res["betaVertices"]) != receiving:
        problems.append("beta vertices are not the receiving vertices")
    if any(t.in_edges(b) for b in res["betaVertices"].values()):
        problems.append("a beta vertex receives edges")
    return problems


def check_reduce(task, code, out) -> list:
    g = task["graph"]
    res = _report(out)
    if code != 0 or res is None:
        return [f"exit {code}"]
    r = parse_text(res["graphText"])
    classes = entrance_free_cycles(g)
    cut = res["cuttingSet"]
    problems = []
    if entrance_free_cycles(r):
        problems.append("reduced graph keeps an entrance-free cycle")
    if len(r.vertices) != len(g.vertices) or len(r.edges) != len(g.edges) - len(cut):
        problems.append("reduced graph has the wrong size")
    if len(cut) != len(classes) or any(sum(e in c for e in cut) != 1 for c in classes):
        problems.append("cutting set is not one edge per class")
    return problems


def check_tails(task, code, out) -> list:
    res = _report(out)
    if code != 0 or res is None:
        return [f"exit {code}"]
    target = task["target"]
    problems = []
    got = {}
    for t in res["tails"]:
        members = frozenset(t["vertices"])
        got[members] = t
        if not is_maximal_tail(target, members):
            problems.append(f"{sorted(members)} fails MT1-MT3")
            continue
        free = free_cycles_within(target, members)
        kind = "tau" if free else "gamma"
        if t["kind"] != kind or (free and tuple(t.get("class", ())) not in free):
            problems.append(f"{sorted(members)} classified {t['kind']}, expected {kind}")
    if len(got) != len(res["tails"]):
        problems.append("a tail is listed twice")
    if len(target.vertices) <= COMPLETENESS_LIMIT and set(got) != all_maximal_tails(target):
        problems.append("tail list is not every vertex set passing MT1-MT3")
    if len(res["primIdeals"]) != len(res["tails"]):
        problems.append("one primitive-ideal descriptor per tail expected")
    return problems


_GAUSS_RE = re.compile(
    r"^\((?P<re>-?\d+(?:/\d+)?)(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)?i\)$"
    r"|^(?P<pure>\d+(?:/\d+)?)?i$|^(?P<real>\d+(?:/\d+)?)$"
)


def parse_coeff(text: str, polar: bool):
    """A rendered magnitude as (re, im), or (mag, turn) in polar mode."""
    if polar:
        mag, _, turn = text.partition("@")
        return (Fraction(mag), Fraction(turn or 0))
    m = _GAUSS_RE.match(text)
    if not m:
        raise ValueError(f"unreadable coefficient {text!r}")
    if m["real"] is not None:
        return (Fraction(m["real"]), Fraction(0))
    if m["re"] is not None:
        im = Fraction(m["im"] or 1)
        return (Fraction(m["re"]), im if m["sign"] == "+" else -im)
    return (Fraction(0), Fraction(m["pure"] or 1))


def parse_rendered(text: str, polar: bool) -> dict:
    """A rendered element as {(alpha, beta, vertex-or-None): coefficient}."""
    if text == "0":
        return {}
    out = {}
    for piece in re.split(r" (?=[+-] )", text):
        if piece[:2] in ("+ ", "- "):
            neg, piece = piece[0] == "-", piece[2:]
        else:
            neg = piece.startswith("-")
            piece = piece[neg:]
        parts = piece.split(" * ")
        coeff = (Fraction(1), Fraction(0))
        if not parts[0].startswith(("p[", "s[", "s*[")):
            coeff = parse_coeff(parts[0], polar)
            parts = parts[1:]
        if neg:
            coeff = (-coeff[0], coeff[1]) if polar else el.c_neg(coeff)
        alpha = beta = ()
        vertex = None
        for part in parts:
            head, inner = part[:-1].split("[", 1)
            if head == "p":
                vertex = inner
            elif head == "s":
                alpha = tuple(inner.split())
            else:
                beta = tuple(inner.split())
        key = (alpha, beta, vertex)
        if key in out:
            raise ValueError(f"term {key} rendered twice")
        out[key] = coeff
    return out


def _polar_canonical(mag: Fraction, turn: Fraction):
    turn %= 1
    if turn >= Fraction(1, 2):
        turn, mag = turn - Fraction(1, 2), -mag
    return (mag, turn if mag else Fraction(0))


def _keyed(elem: dict, turn) -> dict:
    """Own element in the rendered-key shape, polar values canonicalized."""
    out = {}
    for (a, b), c in elem.items():
        vertex = a[1][0] if not a[0] and not b[0] else None
        out[(a[0], b[0], vertex)] = c if turn is None else _polar_canonical(c[0], turn)
    return out


def check_expect(task, code, out) -> list:
    res = _report(out)
    if task.get("known_fault"):
        # The sum of two polar directions is exact in Q(zeta_12); once the
        # program accepts it, the one-term element is its own expectation.
        if res is None or not (res["element"] == res["wNormalForm"] == res["expectation"]):
            return ["a one-term diagonal element must be its own expectation"]
        return []
    if code != 0 or res is None:
        return [f"exit {code}"]
    g, turn = task["graph"], task.get("turn")
    rot = el.efree_rotation_by_source(g, entrance_free_cycles(g))
    want_w = _keyed(el.w_normal_element(task["element"], rot), turn)
    want_e = _keyed(el.expectation(task["element"], rot), turn)
    polar = turn is not None
    problems = []
    try:
        got_w = parse_rendered(res["wNormalForm"], polar)
        got_e = parse_rendered(res["expectation"], polar)
    except ValueError as err:
        return [str(err)]
    if got_w != want_w:
        problems.append("W-normal form differs from own computation")
    if got_e != want_e:
        problems.append("expectation differs from own computation")
    if any(a != b for a, b, _ in got_e):
        problems.append("expectation is not diagonal")
    if any(el.w_normal(_as_path(g, a, v), rot)[0] != a for a, _, v in got_e):
        problems.append("expectation is not idempotent (a key is not W-normal)")
    return problems


def _as_path(g, edges, vertex):
    if not edges:
        return el.empty(vertex)
    return (tuple(edges), (g.range_of(edges[0]),) + tuple(g.source_of(e) for e in edges))


STRUCTURE = {
    "analyze": check_analyze,
    "toeplitz": check_toeplitz,
    "reduce": check_reduce,
    "tails": check_tails,
    "expect": check_expect,
}
