"""Shared graph corpus for the test suite.

CORPUS holds the omega-supported desk graphs (every vertex reaches a source
or an entrance-free cycle, so all four representation kinds are available);
EXTRAS holds graphs whose omega space is purely aperiodic somewhere, used to
exercise boundary-only behaviour and the omega rejection path.  Sizes are
kept small and sparse so depth-2|V| enumerations stay cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from graphck import (
    GaussianRational,
    GeneratorFamily,
    Graph,
    canonical_family,
    ck_defect,
    entrance_free_classes,
    exact,
    omega_supported,
)


def g1_loop():
    return Graph(["v"], [("e", "v", "v")])


def g2_cyc2():
    return Graph(["u", "v"], [("e1", "u", "v"), ("e2", "v", "u")])


def g3_ent():
    return Graph(
        ["u", "v", "w"],
        [("e1", "u", "v"), ("e2", "v", "u"), ("f", "w", "u")],
    )


def g4_line():
    return Graph(["v", "w"], [("e", "w", "v")])


def _pt():
    return Graph(["v"], [])


def _pts2():
    return Graph(["u", "v"], [])


def _cyc3():
    return Graph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")])


def _cyc3ent():
    return Graph(
        ["a", "b", "c", "d"],
        [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a"), ("g", "d", "a")],
    )


def _loops2():
    return Graph(["u", "w"], [("l1", "u", "u"), ("l2", "w", "w")])


def _loopout():
    return Graph(["u", "w"], [("l", "u", "u"), ("x", "u", "w")])


def _tree3():
    return Graph(["u", "v", "w"], [("a", "u", "v"), ("b", "w", "v")])


def _chain4():
    return Graph(
        ["w1", "w2", "w3", "w4"],
        [("c1", "w1", "w2"), ("c2", "w2", "w3"), ("c3", "w3", "w4")],
    )


def _cyc2tail():
    return Graph(
        ["t", "u", "v"],
        [("e1", "u", "v"), ("e2", "v", "u"), ("g", "v", "t")],
    )


def _twocomp():
    return Graph(["a", "c", "d"], [("l", "a", "a"), ("m", "d", "c")])


def _chainincyc3():
    return Graph(
        ["a", "b", "c", "d", "e"],
        [
            ("x", "a", "b"),
            ("y", "b", "c"),
            ("z", "c", "a"),
            ("t1", "d", "a"),
            ("t2", "e", "d"),
        ],
    )


def _selfloopmix():
    return Graph(["a", "b"], [("la", "a", "a"), ("f", "a", "b"), ("lb", "b", "b")])


def _bigcyc6():
    vs = [f"n{i}" for i in range(6)]
    es = [(f"k{i}", vs[i], vs[(i + 1) % 6]) for i in range(6)]
    return Graph(vs, es)


def _cyc2cyc():
    return Graph(
        ["u1", "u2", "w1", "w2"],
        [
            ("a1", "u1", "u2"),
            ("a2", "u2", "u1"),
            ("b1", "w1", "w2"),
            ("b2", "w2", "w1"),
            ("br", "u1", "w1"),
        ],
    )


def _stair():
    return Graph(
        ["a1", "a2", "s0", "t"],
        [
            ("d1", "s0", "a1"),
            ("d2", "s0", "a2"),
            ("d3", "a1", "t"),
            ("d4", "a2", "t"),
        ],
    )


def _longtail():
    vs = ["a", "b", "c", "p1", "p2", "p3", "p4", "p5"]
    es = [
        ("x", "a", "b"),
        ("y", "b", "c"),
        ("z", "c", "a"),
        ("q1", "p1", "a"),
        ("q2", "p2", "p1"),
        ("q3", "p3", "p2"),
        ("q4", "p4", "p3"),
        ("q5", "p5", "p4"),
    ]
    return Graph(vs, es)


def _cyc3exit():
    return Graph(
        ["a", "b", "c", "z"],
        [("x", "a", "b"), ("y", "b", "c"), ("zz", "c", "a"), ("w", "a", "z")],
    )


CORPUS: list[tuple[str, Graph]] = [
    ("loop", g1_loop()),
    ("cyc2", g2_cyc2()),
    ("ent", g3_ent()),
    ("line", g4_line()),
    ("pt", _pt()),
    ("pts2", _pts2()),
    ("cyc3", _cyc3()),
    ("cyc3ent", _cyc3ent()),
    ("loops2", _loops2()),
    ("loopout", _loopout()),
    ("tree3", _tree3()),
    ("chain4", _chain4()),
    ("cyc2tail", _cyc2tail()),
    ("twocomp", _twocomp()),
    ("chainincyc3", _chainincyc3()),
    ("selfloopmix", _selfloopmix()),
    ("bigcyc6", _bigcyc6()),
    ("cyc2cyc", _cyc2cyc()),
    ("stair", _stair()),
    ("longtail", _longtail()),
    ("cyc3exit", _cyc3exit()),
]


def _fig8():
    return Graph(["u"], [("a", "u", "u"), ("b", "u", "u")])


def _cyc2par():
    return Graph(
        ["u", "v"], [("e1", "u", "v"), ("e2", "v", "u"), ("e3", "u", "v")]
    )


def _par2():
    return Graph(
        ["u", "v"], [("e1", "u", "v"), ("e2", "u", "v"), ("f", "v", "u")]
    )


EXTRAS: list[tuple[str, Graph]] = [
    ("fig8", _fig8()),
    ("cyc2par", _cyc2par()),
    ("par2", _par2()),
]

assert all(omega_supported(g) for _, g in CORPUS)
assert not any(omega_supported(g) for _, g in EXTRAS)


# a 7-vertex, 16-edge graph whose depth-8 boundary test set has 79,257 vectors
# (bench/digraph.py random_graph(random.Random(8), 7, 16)); a scan of that
# test set bounds the work of verify at 937,376 paths x rotations
BUDGET_GRAPH = "".join(f"vertex v{i}\n" for i in range(7)) + "".join(
    f"edge {e} : {s} -> {r}\n" for e, s, r in [
        ("e0", "v6", "v0"), ("e1", "v0", "v4"), ("e10", "v1", "v2"), ("e11", "v4", "v5"),
        ("e12", "v6", "v6"), ("e13", "v2", "v5"), ("e14", "v5", "v1"), ("e15", "v3", "v0"),
        ("e2", "v1", "v3"), ("e3", "v2", "v6"), ("e4", "v6", "v5"), ("e5", "v4", "v2"),
        ("e6", "v5", "v2"), ("e7", "v3", "v1"), ("e8", "v2", "v3"), ("e9", "v1", "v4"),
    ])


def layered_graph(layers: int) -> Graph:
    """Layers of two vertices, each feeding both vertices of the layer below,
    into the sink ``a`` (the least id): acyclic, with about 2^k paths of length k."""
    vs = ["a"] + [f"l{k:02d}{c}" for k in range(1, layers + 1) for c in "xy"]
    edges = [(f"e01{c}a", f"l01{c}", "a") for c in "xy"]
    for k in range(1, layers):
        edges += [(f"e{k + 1:02d}{c}{d}", f"l{k + 1:02d}{c}", f"l{k:02d}{d}") for c in "xy" for d in "xy"]
    return Graph(vs, edges)


def ring_with_chords(n: int, chords: int, seed: int) -> Graph:
    """The ring v_i -> v_(i+1 mod n) plus ``chords`` seeded edges, both ends
    drawn by ``random.Random(seed).randrange(n)``: strongly connected, with
    thousands of simple cycles at n = 14-16 and 40 chords."""
    rng = random.Random(seed)
    vs = [f"v{i:02d}" for i in range(n)]
    edges = [(f"r{i:02d}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += [(f"c{j:02d}", vs[rng.randrange(n)], vs[rng.randrange(n)]) for j in range(chords)]
    return Graph(vs, edges)


def random_graph(rng: random.Random, max_vertices: int = 8, density: float = 0.3) -> Graph:
    """Seeded directed graph: each ordered vertex pair (self-loops included)
    carries an edge with the given probability."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for s in vs:
        for r in vs:
            if rng.random() < density:
                edges.append((f"e{k}", s, r))
                k += 1
    return Graph(vs, edges)


def random_graphs(seed: int, count: int, max_vertices: int = 8, density: float = 0.3):
    rng = random.Random(seed)
    return [random_graph(rng, max_vertices, density) for _ in range(count)]


def random_coeff(rng: random.Random) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    while True:
        c = GaussianRational(frac(), frac())
        if not c.is_zero:
            return c


def random_element(rng: random.Random, g: Graph, pool_by_source, max_terms: int = 3):
    """A random Gaussian element with short keys over the given graph.

    ``pool_by_source`` maps each vertex to the candidate paths with that
    source (precomputed by the caller from enumerate_paths).
    """
    from graphck import AlgebraElement

    terms = {}
    sources_avail = [w for w, pool in pool_by_source.items() if pool]
    for _ in range(rng.randint(1, max_terms)):
        w = rng.choice(sources_avail)
        alpha = rng.choice(pool_by_source[w])
        beta = rng.choice(pool_by_source[w])
        key = (alpha, beta)
        c = random_coeff(rng)
        terms[key] = terms[key] + c if key in terms else c
    return AlgebraElement(terms)


def kernel_elements(g: Graph, rep) -> list:
    """Elements acting as zero in a boundary-type representation of g, so
    adding a multiple of one leaves the operator unchanged: the CK defects
    and, per entrance-free class, the pin kappa(C) p_{r(mu)} - s_mu, with
    kappa = 1 off the twisted kind.  The elements are complex when ``rep``
    twists by complex units (``rep_family``).  The left-regular
    representation is faithful, so there the same perturbations give
    near-miss unequal pairs."""
    fam = rep_family(rep)
    kernel = [ck_defect(fam, v) for v in g.vertices if g.in_edges(v)]
    for cls in entrance_free_classes(g):
        mu = cls.representative
        kc = exact.ONE
        for e in mu.edges:
            if e in rep.kappa:
                kc = exact.times_phase(kc, rep.kappa[e])
        kernel.append(fam.p[mu.range].scaled(kc) - fam.s_path(mu))
    return kernel


def complex_family(fam: GeneratorFamily) -> GeneratorFamily:
    """``fam`` with every coefficient a machine complex number."""
    def convert(elements):
        return {k: x.map_coefficients(exact.as_complex) for k, x in elements.items()}

    return GeneratorFamily(fam.index, convert(fam.p), convert(fam.s))


def is_inexact(rep) -> bool:
    """Whether ``rep`` twists by complex units, so that it acts inexactly."""
    return any(isinstance(k, complex) for k in rep.kappa.values())


def rep_family(rep) -> GeneratorFamily:
    """The canonical family of ``rep.graph``, complex when ``rep`` is inexact."""
    fam = canonical_family(rep.graph)
    return complex_family(fam) if is_inexact(rep) else fam
