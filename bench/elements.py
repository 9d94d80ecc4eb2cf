"""The benchmark's own model of elements sum c * s_alpha s_beta^* and of
their action on boundary paths, written apart from graphck.  Graphs are ``digraph.Digraph`` objects.

A path is ``(edges, vertices)`` with ``vertices[0]`` its range and
``vertices[-1]`` its source.  A coefficient is an exact pair ``(re, im)`` of
Fractions.  An element maps ``(alpha, beta)`` keys to nonzero coefficients.
A boundary path is ``(prefix, period)`` with ``period`` a cycle path, or
``None`` for a finite path ending at a vertex that receives no edges; it is
kept canonical (the prefix never ends with the period's last edge).
"""

from __future__ import annotations

from fractions import Fraction

from digraph import simple_cycles

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_neg(a):
    return (-a[0], -a[1])


# ------------------------------------------------------------------- paths


def empty(v):
    return ((), (v,))


def edge_path(g, e):
    return ((e,), (g.range_of(e), g.source_of(e)))


def concat(p, q):
    if p[1][-1] != q[1][0]:
        raise ValueError("paths do not compose")
    return (p[0] + q[0], p[1] + q[1][1:])


def drop(p, k):
    return (p[0][k:], p[1][k:])


def starts_with(p, q) -> bool:
    if not q[0]:
        return p[1][0] == q[1][0]
    return p[0][: len(q[0])] == q[0]


def paths_by_source(g, max_len: int) -> dict:
    """Every path of length <= max_len, grouped by source vertex."""
    out = {v: [] for v in g.vertices}
    layer = [empty(v) for v in g.vertices]
    for _ in range(max_len + 1):
        nxt = []
        for p in layer:
            out[p[1][-1]].append(p)
            for e in g.in_edges(p[1][-1]):
                nxt.append((p[0] + (e,), p[1] + (g.source_of(e),)))
        layer = nxt
    return out


def rotations(g, cyc_edges):
    """Every rotation of a cycle (given as an edge tuple) as a path."""
    n = len(cyc_edges)
    out = []
    for k in range(n):
        edges = cyc_edges[k:] + cyc_edges[:k]
        out.append((edges, (g.range_of(edges[0]),) + tuple(g.source_of(e) for e in edges)))
    return out


# ---------------------------------------------------------------- elements


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = c_add(out[k], c) if k in out else c
    return {k: c for k, c in out.items() if c != ZERO}


def mul(a: dict, b: dict) -> dict:
    """Product by (s_a s_b*)(s_c s_d*) = s_{a c'} s_d* when c = b c',
    s_a s_{d b'}* when b = c b', and 0 otherwise."""
    out = {}
    for (pa, pb), c1 in a.items():
        for (pc, pd), c2 in b.items():
            if starts_with(pc, pb):
                key = (concat(pa, drop(pc, len(pb[0]))), pd)
            elif starts_with(pb, pc):
                key = (pa, concat(pd, drop(pb, len(pc[0]))))
            else:
                continue
            c = c_mul(c1, c2)
            out[key] = c_add(out[key], c) if key in out else c
    return {k: c for k, c in out.items() if c != ZERO}


def max_key_length(*elems) -> int:
    return max((max(len(a[0]), len(b[0])) for e in elems for a, b in e), default=0)


def ck_defect(g, v) -> dict:
    """p_v minus the range projections of the edges pointing at v."""
    out = {(empty(v), empty(v)): ONE}
    for e in g.in_edges(v):
        p = edge_path(g, e)
        out = add(out, {(p, p): c_neg(ONE)})
    return out


def cycle_pin(g, cyc_edges) -> dict:
    """s_mu - p_{r(mu)} for a cycle mu."""
    mu = rotations(g, cyc_edges)[0]
    src = empty(mu[1][-1])
    return add({(mu, src): ONE}, {(empty(mu[1][0]), empty(mu[1][0])): c_neg(ONE)})


# --------------------------------------------------------- boundary action


def canonical(prefix, period):
    """Absorb trailing period edges into the period (rotating it)."""
    while prefix[0] and prefix[0][-1] == period[0][-1]:
        pe, pv = period
        period = ((pe[-1],) + pe[:-1], (pv[-2],) + pv[:-1])
        prefix = (prefix[0][:-1], prefix[1][:-1])
    return (prefix, period)


def edges_of(x, n: int):
    """The first n edges of a boundary path (fewer if it ends)."""
    prefix, period = x
    out = list(prefix[0][:n])
    if period is not None:
        while len(out) < n:
            out.extend(period[0])
    return tuple(out[:n])


def x_starts_with(x, beta) -> bool:
    if not beta[0]:
        return x[0][1][0] == beta[1][0]
    return edges_of(x, len(beta[0])) == beta[0]


def x_drop(x, k: int):
    prefix, period = x
    if k <= len(prefix[0]):
        return (drop(prefix, k), period)
    j = (k - len(prefix[0])) % len(period[0])
    pe, pv = period
    rotated = (pe[j:] + pe[:j], pv[j:] + pv[1: j + 1])
    return (empty(rotated[1][0]), rotated)


def x_prepend(alpha, x):
    prefix, period = x
    joined = concat(alpha, prefix)
    if period is None:
        return (joined, None)
    return canonical(joined, period)


def act(elem: dict, x) -> dict:
    """elem . xi_x as a map from boundary paths to nonzero coefficients."""
    out = {}
    for (alpha, beta), c in elem.items():
        if x_starts_with(x, beta):
            z = x_prepend(alpha, x_drop(x, len(beta[0])))
            out[z] = c_add(out[z], c) if z in out else c
    return {z: c for z, c in out.items() if c != ZERO}


def boundary_test_set(g, depth: int) -> list:
    """Finite boundary paths of length <= depth, and every canonical
    prefix . cycle^inf with prefix length <= depth."""
    by_source = paths_by_source(g, depth)
    out = set()
    for v in g.vertices:
        if not g.in_edges(v):
            out.update((p, None) for p in by_source[v])
    for cyc in simple_cycles(g):
        for per in rotations(g, cyc):
            for p in by_source[per[1][0]]:
                out.add(canonical(p, per))
    return sorted(out, key=lambda x: (x[1] is not None, len(x[0][0]), x[0], x[1] or ()))


def boundary_equal(test_set, a: dict, b: dict) -> bool:
    """Whether a and b act alike on every vector of the test set."""
    return all(act(a, x) == act(b, x) for x in test_set)


# ------------------------------------------------- W-normal form, expectation


def efree_rotation_by_source(g, efree_cycles) -> dict:
    return {rot[1][-1]: rot for cyc in efree_cycles for rot in rotations(g, cyc)}


def w_normal(p, rot_by_source):
    """Strip trailing powers of entrance-free cycles."""
    while True:
        rot = rot_by_source.get(p[1][-1])
        k = len(rot[0]) if rot else 0
        if rot is None or len(p[0]) < k or p[0][-k:] != rot[0]:
            return p
        p = (p[0][:-k], p[1][:-k])


def w_normal_element(elem: dict, rot_by_source) -> dict:
    out = {}
    for (a, b), c in elem.items():
        key = (w_normal(a, rot_by_source), w_normal(b, rot_by_source))
        out[key] = c_add(out[key], c) if key in out else c
    return {k: c for k, c in out.items() if c != ZERO}


def expectation(elem: dict, rot_by_source) -> dict:
    return {k: c for k, c in w_normal_element(elem, rot_by_source).items() if k[0] == k[1]}
