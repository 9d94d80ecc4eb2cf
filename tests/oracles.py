"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the raw graph accessors only
(in_edges / source_of), with its own searches, so that agreement with the
library is a genuine two-route check rather than a tautology.  The one
exception is ``test_set_equal_oracle``, the operator-equality scan over the
canonical test set that the closed-form Gaussian route replaced.
"""

from __future__ import annotations

import itertools

from graphck import Graph, apply, basis_elements
from graphck.reps import combos_equal, equality_depth


def _reaches(g: Graph, v: str) -> set[str]:
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for e in g.in_edges(u):
            w = g.source_of(e)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _vertex_walks(g: Graph, v: str, limit: int) -> list[list[str]]:
    """All vertex itineraries x(0..k), k <= limit, of paths with range v."""
    out = [[v]]
    frontier = [[v]]
    for _ in range(limit):
        nxt = []
        for walk in frontier:
            for e in g.in_edges(walk[-1]):
                nxt.append(walk + [g.source_of(e)])
        out.extend(nxt)
        frontier = nxt
    return out


def cofinal_oracle(g: Graph) -> bool:
    """Brute-force cofinality: enumerate boundary paths as finite walks to
    sources plus eventually periodic walks (prefix bounded by the vertex
    count, period a simple cycle) and test every vertex against each."""
    n = len(g.vertices)
    reach = {v: _reaches(g, v) for v in g.vertices}

    witnesses: list[list[str]] = []
    cycles: list[list[str]] = []
    for v in g.vertices:
        for walk in _vertex_walks(g, v, n):
            if not g.in_edges(walk[-1]):
                witnesses.append(walk)
            if (
                len(walk) > 1
                and walk[-1] == walk[0]
                and len(set(walk[:-1])) == len(walk) - 1
            ):
                cycles.append(walk)
    for v in g.vertices:
        for prefix in _vertex_walks(g, v, n):
            for cyc in cycles:
                if cyc[0] == prefix[-1]:
                    witnesses.append(prefix + cyc[1:])

    for v in g.vertices:
        r = reach[v]
        for walk in witnesses:
            if not any(x in r for x in walk):
                return False
    return True


def _is_tail_oracle(g: Graph, m: set[str], reach: dict[str, set[str]]) -> bool:
    """MT1-MT3 from the definitions: closed forward, extendable backward
    inside m at every receiving vertex, and any two members have a common
    ancestor in m."""
    if any(v not in m and reach[v] & m for v in g.vertices):
        return False
    for v in m:
        ins = g.in_edges(v)
        if ins and all(g.source_of(e) not in m for e in ins):
            return False
    return all(
        any(w in reach[u] and w in reach[v] for w in m) for u in m for v in m
    )


def _free_cycles_within(g: Graph, m: set[str]) -> set[tuple[str, ...]]:
    """Cycles inside m with no entrance from m, as least edge rotations: on
    such a cycle every vertex receives exactly one edge from m, so chase the
    unique in-edges from each vertex and keep the loops found."""
    found = set()
    for v in m:
        trail: list[str] = []
        seen = {v}
        cur = v
        while True:
            ins = [e for e in g.in_edges(cur) if g.source_of(e) in m]
            if len(ins) != 1:
                break
            trail.append(ins[0])
            cur = g.source_of(ins[0])
            if cur in seen:
                if cur == v:
                    found.add(min(tuple(trail[k:] + trail[:k]) for k in range(len(trail))))
                break
            seen.add(cur)
    return found


def maximal_tails_oracle(g: Graph) -> list[tuple[frozenset[str], str, tuple[str, ...] | None]]:
    """Every vertex subset passing MT1-MT3, as (vertices, kind, least
    rotation of the tail's entrance-free cycle or None), sorted by size and
    then by sorted vertex ids.  Exponential in the vertex count."""
    reach = {v: _reaches(g, v) for v in g.vertices}
    out = []
    for r in range(1, len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, r):
            m = set(combo)
            if not _is_tail_oracle(g, m, reach):
                continue
            free = _free_cycles_within(g, m)
            assert len(free) <= 1, (sorted(m), free)
            cyc = next(iter(free), None)
            out.append((frozenset(m), "gamma" if cyc is None else "tau", cyc))
    return sorted(out, key=lambda t: (len(t[0]), tuple(sorted(t[0]))))


def tail_triples(tails) -> list[tuple[frozenset[str], str, tuple[str, ...] | None]]:
    """Library ``MaximalTail`` objects in the oracle's form."""
    return [
        (t.vertices, t.kind, t.cycle_class.representative.edges if t.cycle_class else None)
        for t in tails
    ]


def test_set_equal_oracle(rep, a, b) -> bool:
    """Operator equality by applying both elements to every vector of the
    canonical test set of depth L + |vertices| + longest cycle.  Exponential
    in that depth."""
    xs = basis_elements(rep, equality_depth(rep, a, b))
    return all(combos_equal(apply(rep, a, x), apply(rep, b, x)) for x in xs)


test_set_equal_oracle.__test__ = False  # an oracle, not a pytest test
