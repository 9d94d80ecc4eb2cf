"""Finite directed multigraphs with the range/source path conventions.

An edge ``e`` points from ``source(e)`` to ``range(e)``.  A path
``e1 e2 ... en`` requires ``source(e_i) == range(e_{i+1})``, so paths read
head-first: the range end is on the left and the source end on the right, and
a path grows by appending edges at its source end.  ``vE1`` denotes the set
of edges pointing *at* ``v``; a vertex receiving no edges is called a source
of the graph (paths stopping there cannot be extended).
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Invalid graph data (dangling endpoints, duplicate ids, bad paths)."""


class GraphParseError(GraphError):
    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


_ID_RE = re.compile(r"^[A-Za-z0-9_.:\-]+$")
_EDGE_RE = re.compile(r"^edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")


class Path:
    """A composable edge sequence carrying its full vertex itinerary.

    ``vertices`` has length ``len(edges) + 1``; ``vertices[0]`` is the range
    and ``vertices[-1]`` the source, so empty paths still know where they sit
    and interior cut points need no graph lookup.

    Paths are the keys of every coefficient map, so a Path is immutable by
    contract (nothing assigns to its slots after construction) and its hash
    is computed once, when it is built.  Two Paths are equal when their edges
    and itineraries are; a Path never equals a plain tuple.  Pickling rebuilds
    the Path from its edges and itinerary, so no hash crosses processes.
    """

    __slots__ = ("edges", "vertices", "range", "source", "_hash")

    def __init__(self, edges: tuple[str, ...], vertices: tuple[str, ...]):
        if len(vertices) != len(edges) + 1:
            raise GraphError("path vertex itinerary has the wrong length")
        self.edges = edges
        self.vertices = vertices
        self.range = vertices[0]
        self.source = vertices[-1]
        self._hash = hash((edges, vertices))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Path:
            return NotImplemented
        return self.edges == other.edges and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Path, (self.edges, self.vertices)

    def __repr__(self) -> str:
        return f"Path(edges={self.edges!r}, vertices={self.vertices!r})"

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def vertex_at(self, n: int) -> str:
        """The vertex reached after the first n edges."""
        return self.vertices[n]

    def starts_with(self, prefix: "Path") -> bool:
        if prefix.is_empty:
            return self.range == prefix.range
        return self.edges[: len(prefix.edges)] == prefix.edges

    def strip_prefix(self, prefix: "Path") -> "Path":
        if not self.starts_with(prefix):
            raise GraphError(f"{self} does not start with {prefix}")
        k = len(prefix.edges)
        return Path(self.edges[k:], self.vertices[k:])

    def concat(self, other: "Path") -> "Path":
        if self.source != other.range:
            raise GraphError(f"paths do not compose: {self} then {other}")
        return Path(self.edges + other.edges, self.vertices + other.vertices[1:])

    def render(self) -> str:
        return " ".join(self.edges) if self.edges else f"@{self.range}"

    def __str__(self) -> str:
        return self.render()


def path_key(p: Path):
    """Deterministic sort key for paths."""
    return (len(p.edges), p.edges, p.vertices)


class Graph:
    """Validated finite directed multigraph.

    Vertices and edges are opaque string ids kept in sorted order so every
    enumeration downstream is reproducible.  Row-finiteness holds by
    construction (the edge list is finite), matching the standing hypothesis
    of everything built on top.
    """

    __slots__ = ("vertices", "edges", "_src", "_rng", "_in", "_out", "_hash")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        vs = list(vertices)
        if len(vs) != len(set(vs)):
            raise GraphError("duplicate vertex id")
        triples = list(edges)
        ids = [e for e, _, _ in triples]
        if len(ids) != len(set(ids)):
            raise GraphError("duplicate edge id")
        # to_text() must parse back to this graph, and fingerprint() hashes it
        for x in vs + ids:
            if not (isinstance(x, str) and _ID_RE.fullmatch(x)):
                raise GraphError(f"id {x!r} is not expressible in the text format")
        vset = set(vs)
        src: dict[str, str] = {}
        rng: dict[str, str] = {}
        for e, s, r in triples:
            if s not in vset:
                raise GraphError(f"edge {e!r} has dangling source {s!r}")
            if r not in vset:
                raise GraphError(f"edge {e!r} has dangling range {r!r}")
            src[e] = s
            rng[e] = r
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        self.edges: tuple[str, ...] = tuple(sorted(ids))
        self._src = src
        self._rng = rng
        incoming: dict[str, list[str]] = {v: [] for v in self.vertices}
        outgoing: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            incoming[rng[e]].append(e)
            outgoing[src[e]].append(e)
        self._in = {v: tuple(es) for v, es in incoming.items()}
        self._out = {v: tuple(es) for v, es in outgoing.items()}
        self._hash = hash((self.vertices, tuple((e, src[e], rng[e]) for e in self.edges)))

    def source_of(self, e: str) -> str:
        return self._src[e]

    def range_of(self, e: str) -> str:
        return self._rng[e]

    def in_edges(self, v: str) -> tuple[str, ...]:
        """vE1: the edges pointing at v."""
        return self._in[v]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return self._out[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._in

    def has_edge(self, e: str) -> bool:
        return e in self._src

    def empty_path(self, v: str) -> Path:
        if not self.has_vertex(v):
            raise GraphError(f"unknown vertex {v!r}")
        return Path((), (v,))

    def edge_path(self, e: str) -> Path:
        if not self.has_edge(e):
            raise GraphError(f"unknown edge {e!r}")
        return Path((e,), (self._rng[e], self._src[e]))

    def path(self, edge_ids: Sequence[str]) -> Path:
        """Build and validate the path e1 e2 ... en in one pass over the
        edges; an unknown edge is reported before a pair that does not compose."""
        if not edge_ids:
            raise GraphError("empty edge list; use empty_path(v)")
        edges = tuple(edge_ids)
        src, rng = self._src, self._rng
        try:
            vertices = [rng[edges[0]]]
            for e in edges:
                if rng[e] != vertices[-1]:
                    break
                vertices.append(src[e])
            else:
                return Path(edges, tuple(vertices))
        except KeyError as err:
            raise GraphError(f"unknown edge {err.args[0]!r}") from None
        unknown = next((e for e in edges if e not in src), None)
        if unknown is not None:
            raise GraphError(f"unknown edge {unknown!r}")
        a, b = edges[len(vertices) - 2], edges[len(vertices) - 1]
        raise GraphError(f"edges do not compose: source({a}) = {src[a]} != range({b}) = {rng[b]}")

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [
            f"edge {e} : {self._src[e]} -> {self._rng[e]}" for e in self.edges
        ]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self._src == other._src
            and self._rng == other._rng
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def parse_graph(text: str) -> Graph:
    """Parse the one-declaration-per-line graph format.

    ``vertex <id>`` and ``edge <id> : <source-id> -> <range-id>``; ``#``
    starts a comment.  Identifiers are preserved verbatim.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    seen_v: set[str] = set()
    seen_e: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2 or not _ID_RE.match(parts[1]):
                raise GraphParseError("malformed vertex declaration", line_no, raw)
            if parts[1] in seen_v:
                raise GraphParseError(f"duplicate vertex id {parts[1]!r}", line_no, raw)
            seen_v.add(parts[1])
            vertices.append(parts[1])
        elif parts[0] == "edge":
            m = _EDGE_RE.match(line)
            if not m or not all(_ID_RE.match(x) for x in m.groups()):
                raise GraphParseError("malformed edge declaration", line_no, raw)
            e, s, r = m.groups()
            if e in seen_e:
                raise GraphParseError(f"duplicate edge id {e!r}", line_no, raw)
            seen_e.add(e)
            if s not in seen_v:
                raise GraphParseError(f"edge endpoint {s!r} not declared", line_no, raw)
            if r not in seen_v:
                raise GraphParseError(f"edge endpoint {r!r} not declared", line_no, raw)
            edges.append((e, s, r))
        else:
            raise GraphParseError("unrecognized declaration", line_no, raw)
    return Graph(vertices, edges)


def sources(g: Graph) -> tuple[str, ...]:
    """Vertices receiving no edges (vE1 empty); finite paths may stop there."""
    return tuple(v for v in g.vertices if not g.in_edges(v))


@lru_cache(maxsize=None)
def reach_map(g: Graph) -> Mapping[str, frozenset[str]]:
    """reach_map(g)[v] = {w : some path has range v and source w}."""
    out: dict[str, frozenset[str]] = {}
    for v in g.vertices:
        seen = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for e in g.in_edges(u):
                w = g.source_of(e)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        out[v] = frozenset(seen)
    return out


def path_layers(g: Graph, starts: Iterable[str], depth: int):
    """Every path with source in ``starts`` and length <= depth, one
    ``path_key``-sorted list per length, shortest first.  Paths grow at the
    range end, so every path keeps its source; growth stops at the first
    empty layer.  This is the one path grower: every test set is built on it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    layer = sorted((g.empty_path(v) for v in starts), key=path_key)
    for n in range(depth + 1):
        if n:
            layer = sorted((g.edge_path(e).concat(p) for p in layer
                            for e in g.out_edges(p.range)), key=path_key)
        if not layer:
            return
        yield layer


def enumerate_paths(g: Graph, max_len: int) -> list[Path]:
    """All paths of length <= max_len, any range, in ``path_key`` order."""
    return [p for layer in path_layers(g, g.vertices, max_len) for p in layer]


@lru_cache(maxsize=None)
def strongly_connected_components(g: Graph) -> tuple[frozenset[str], ...]:
    """Tarjan SCCs of the arrow digraph source(e) -> range(e)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = [0]

    succ = {v: tuple(g.range_of(e) for e in g.out_edges(v)) for v in g.vertices}

    for root in g.vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack.add(v)
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return tuple(sorted(sccs, key=lambda c: sorted(c)))


def cyclic_components(g: Graph) -> tuple[frozenset[str], ...]:
    """SCCs containing at least one edge (equivalently, carrying a cycle)."""
    out = []
    for comp in strongly_connected_components(g):
        if any(
            g.range_of(e) in comp
            for v in comp
            for e in g.out_edges(v)
        ):
            out.append(comp)
    return tuple(out)


def bottoms(g: Graph) -> tuple[frozenset[str], ...]:
    """Where boundary paths end: each source as a singleton, then each cyclic
    component (an infinite path eventually stays inside one of them)."""
    return tuple(frozenset({s}) for s in sources(g)) + cyclic_components(g)


def is_cofinal(g: Graph) -> bool:
    """Whether every vertex eventually meets every boundary path.

    For finite graphs this holds iff reach(v) meets every bottom for each
    vertex v: a boundary path ending at a source or inside a cyclic
    component visits a strongly connected vertex set there.
    """
    rm = reach_map(g)
    ends = bottoms(g)
    return all(b & rm[v] for v in g.vertices for b in ends)
