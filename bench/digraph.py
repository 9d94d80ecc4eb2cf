"""The benchmark's own graph type, input generators and graph algorithms.

Nothing here imports graphck: inputs are generated and checked with code
written apart from the program.  Algorithms read a graph only through
``vertices``, ``in_edges`` and ``source_of``, as ``tests/oracles.py`` does,
so any object with those accessors (including a ``graphck.Graph``) works.

Conventions match the program's text format: ``edge e : s -> r`` points from
``s`` to ``r``; a path ``e1 e2 ...`` has ``source(e_i) == range(e_{i+1})``,
so walking a path means following in-edges backwards from its range.
"""

from __future__ import annotations

import itertools
import random


class Digraph:
    """A finite directed multigraph kept as sorted id tuples."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        triples = sorted(edges)
        self.edges = tuple(e for e, _, _ in triples)
        self._src = {e: s for e, s, _ in triples}
        self._rng = {e: r for e, _, r in triples}
        incoming = {v: [] for v in self.vertices}
        for e, _, r in triples:
            incoming[r].append(e)
        self._in = {v: tuple(es) for v, es in incoming.items()}

    def in_edges(self, v):
        return self._in[v]

    def source_of(self, e):
        return self._src[e]

    def range_of(self, e):
        return self._rng[e]

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {e} : {self._src[e]} -> {self._rng[e]}" for e in self.edges]
        return "\n".join(lines) + "\n"


def parse_text(text: str) -> Digraph:
    """Read the one-declaration-per-line format the program emits."""
    vertices, edges = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "vertex" and len(line) == 2:
            vertices.append(line[1])
        elif line[0] == "edge" and len(line) == 6 and line[2] == ":" and line[4] == "->":
            edges.append((line[1], line[3], line[5]))
        else:
            raise ValueError(f"unreadable graph line {raw!r}")
    return Digraph(vertices, edges)


# ---------------------------------------------------------------- generators


def random_graph(rng: random.Random, n: int, m: int, prefix: str = "v") -> Digraph:
    """n vertices and m distinct ordered pairs (self-loops allowed)."""
    vs = [f"{prefix}{i}" for i in range(n)]
    pairs = [(s, r) for s in vs for r in vs]
    rng.shuffle(pairs)
    return Digraph(vs, [(f"e{k}", s, r) for k, (s, r) in enumerate(pairs[:m])])


def cycle_graph(n: int) -> Digraph:
    """C_n: c0 -> c1 -> ... -> c(n-1) -> c0."""
    vs = [f"c{i}" for i in range(n)]
    return Digraph(vs, [(f"k{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def toeplitz_double(g, alpha: str = "alpha:", beta: str = "beta:") -> Digraph:
    """Each edge-receiving vertex gets a source twin ``beta:v``; each edge whose
    source receives edges gets a twin edge from that twin."""
    receiving = [v for v in g.vertices if g.in_edges(v)]
    vertices = [alpha + v for v in g.vertices] + [beta + v for v in receiving]
    edges = []
    for v in g.vertices:
        for e in g.in_edges(v):
            s = g.source_of(e)
            edges.append((alpha + e, alpha + s, alpha + v))
            if g.in_edges(s):
                edges.append((beta + e, beta + s, alpha + v))
    return Digraph(vertices, edges)


def planted_graph(rng: random.Random, cycle_lengths, extra: int, extra_edges: int) -> Digraph:
    """Entrance-free cycles of the given lengths plus ``extra`` vertices.

    Cycle vertices receive only their cycle edge.  Every extra vertex gets an
    in-edge from a cycle vertex or an earlier extra vertex, so every vertex
    reaches an entrance-free cycle; ``extra_edges`` more edges land only on
    extra vertices, so no entrance is created.
    """
    vertices, edges, cyc_vs = [], [], []
    for c, k in enumerate(cycle_lengths):
        vs = [f"p{c}_{i}" for i in range(k)]
        vertices += vs
        cyc_vs += vs
        edges += [(f"k{c}_{i}", vs[i], vs[(i + 1) % k]) for i in range(k)]
    xs = [f"q{j}" for j in range(extra)]
    vertices += xs
    for j, x in enumerate(xs):
        edges.append((f"t{j}", rng.choice(cyc_vs + xs[:j]), x))
    pairs = [(s, r) for s in vertices for r in xs]
    rng.shuffle(pairs)
    used = {(s, r) for _, s, r in edges}
    fresh = [p for p in pairs if p not in used][:extra_edges]
    edges += [(f"f{i}", s, r) for i, (s, r) in enumerate(fresh)]
    return Digraph(vertices, edges)


def layered_dag(layers: int) -> Digraph:
    """Width-2 layers joined completely, fed by one root: acyclic.

    Ids sort from the sink layer up to the root, so a cycle search that
    extends only through larger ids, started at a sink, meets every one of
    the 2^layers paths above it.
    """
    rows = [[f"l{i:02d}{j}" for j in "ab"] for i in range(layers)]
    root = f"l{layers:02d}r"
    edges = [(f"d{layers - 1:02d}{j}", root, rows[-1][j]) for j in range(2)]
    for i in range(layers - 1):
        for s in rows[i + 1]:
            for r in rows[i]:
                edges.append((f"d{i:02d}{s[-1]}{r[-1]}", s, r))
    return Digraph([v for row in rows for v in row] + [root], edges)


def complete_graph(k: int) -> Digraph:
    """Complete digraph with loops: one edge for every ordered pair."""
    vs = [f"u{i}" for i in range(k)]
    return Digraph(vs, [(f"x{i}_{j}", s, r) for i, s in enumerate(vs) for j, r in enumerate(vs)])


def chain_graph(rng: random.Random, n: int) -> Digraph:
    """A random spanning tree of n vertices plus a few back edges."""
    vs = [f"w{i}" for i in range(n)]
    edges = [(f"t{i}", vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    extra = rng.randint(1, 3)
    for j in range(extra):
        s, r = rng.choice(vs), rng.choice(vs)
        edges.append((f"b{j}", s, r))
    return Digraph(vs, edges)


def vertex_shuffle(g, rng: random.Random) -> dict:
    """A map sending each vertex id to another id of the same graph."""
    names = list(g.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


def renamed(g, new: dict) -> Digraph:
    return Digraph([new[v] for v in g.vertices],
                   [(e, new[g.source_of(e)], new[g.range_of(e)]) for e in g.edges])


def relabel(g, rng: random.Random) -> Digraph:
    """The same graph with its vertex ids shuffled among themselves."""
    return renamed(g, vertex_shuffle(g, rng))


# ---------------------------------------------------------------- algorithms


def reaches(g, v) -> set:
    """Vertices w with a path from w to v (v included)."""
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


def graph_sources(g) -> list:
    return [v for v in g.vertices if not g.in_edges(v)]


def simple_cycles(g) -> list[tuple]:
    """Every simple cycle once, as an edge tuple read from its least vertex.

    A backwards search from each root visits only vertices that sort after
    the root, so each cycle is found at its least vertex only.
    """
    found = []
    for root in g.vertices:
        def walk(cur, trail, on_path):
            for e in g.in_edges(cur):
                w = g.source_of(e)
                if w == root:
                    found.append(trail + (e,))
                elif w > root and w not in on_path:
                    on_path.add(w)
                    walk(w, trail + (e,), on_path)
                    on_path.discard(w)
        walk(root, (), {root})
    return found


def free_cycles_within(g, members) -> list[tuple]:
    """Cycles inside ``members`` with no entrance from ``members``.

    Such a cycle's vertices each receive exactly one edge from inside the
    set, so it is found by chasing that unique in-edge.  Each cycle is
    returned once, as an edge tuple starting at its least edge id.
    """
    members = set(members)
    unique_in = {}
    for v in members:
        inner = [e for e in g.in_edges(v) if g.source_of(e) in members]
        if len(inner) == 1:
            unique_in[v] = inner[0]
    out = set()
    for start in unique_in:
        trail, cur, seen = [], start, set()
        while cur in unique_in and cur not in seen:
            seen.add(cur)
            trail.append(unique_in[cur])
            cur = g.source_of(trail[-1])
        if cur == start:
            k = trail.index(min(trail))
            out.add(tuple(trail[k:] + trail[:k]))
    return sorted(out)


def entrance_free_cycles(g) -> list[tuple]:
    return free_cycles_within(g, g.vertices)


def has_cycle(g, members) -> bool:
    """Whether the subgraph induced on ``members`` carries a cycle.

    Repeatedly removes vertices that receive no edge from the remaining set;
    a cycle is left exactly when something survives.
    """
    alive = set(members)
    while True:
        dead = {v for v in alive if not any(g.source_of(e) in alive for e in g.in_edges(v))}
        if not dead:
            return bool(alive)
        alive -= dead


def is_cofinal(g) -> bool:
    """No boundary path avoids the vertices reaching some v.

    The complement of reach(v) is closed along edges, so a boundary path
    avoiding reach(v) exists iff the complement holds a source of the graph
    or carries a cycle.
    """
    srcs = set(graph_sources(g))
    for v in g.vertices:
        outside = set(g.vertices) - reaches(g, v)
        if outside & srcs or has_cycle(g, outside):
            return False
    return True


def is_maximal_tail(g, members, reach=None) -> bool:
    """MT1 (closed under ranges), MT2 (extendable at receiving vertices) and
    MT3 (downward directed), checked directly."""
    m = set(members)
    if not m:
        return False
    if reach is None:
        reach = {v: reaches(g, v) for v in g.vertices}
    for v in g.vertices:
        if v not in m and reach[v] & m:
            return False
    for v in m:
        incoming = g.in_edges(v)
        if incoming and not any(g.source_of(e) in m for e in incoming):
            return False
    for u, v in itertools.combinations(sorted(m), 2):
        if not reach[u] & reach[v] & m:
            return False
    return True


def all_maximal_tails(g) -> set[frozenset]:
    """Every vertex set passing the MT1-MT3 check (exponential; small graphs)."""
    reach = {v: reaches(g, v) for v in g.vertices}
    out = set()
    for r in range(1, len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, r):
            if is_maximal_tail(g, combo, reach):
                out.add(frozenset(combo))
    return out


def path_counts(g, depth: int) -> dict:
    """counts[v][k] = number of paths of length k with source v."""
    counts = {v: [1] + [0] * depth for v in g.vertices}
    out_edges = {v: [] for v in g.vertices}
    for r in g.vertices:
        for e in g.in_edges(r):
            out_edges[g.source_of(e)].append(r)
    # paths with source v of length k: first step leaves v along an edge
    for k in range(1, depth + 1):
        for v in g.vertices:
            counts[v][k] = sum(counts[r][k - 1] for r in out_edges[v])
    return counts


def test_set_size(g, depth: int) -> int:
    """Size proxy of the depth-``depth`` boundary test set: finite paths to
    sources plus one periodic vector per (prefix, cycle rotation) pair."""
    counts = path_counts(g, depth)
    total = sum(sum(counts[v]) for v in graph_sources(g))
    for cyc in simple_cycles(g):
        for e in cyc:
            total += sum(counts[g.source_of(e)])
    return total
