"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every check is exact (Gaussian-rational or rational-phase
arithmetic); the stated time budgets are asserted.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from graphck import (
    BOUNDARY,
    CK,
    LEFT_REGULAR,
    NORMALIZED,
    OMEGA,
    REDUCED,
    TCK,
    TWISTED,
    Phase,
    boundary,
    boundary_set,
    canonical_cutting_set,
    diag_expectation,
    entrance_free_classes,
    enumerate_paths,
    extract_kappa,
    is_cofinal,
    left_regular,
    maximal_tails,
    monomial,
    noncofinal_witness,
    omega,
    omega_set,
    operator_equal,
    path_isometry,
    prepend,
    rescale_family,
    toeplitz_family,
    toeplitz_graph,
    twisted_boundary,
    verify_relations,
    vertex_projection,
    zero,
)
from graphck import apply as rep_apply
from corpus import CORPUS, g1_loop, kernel_elements, random_element, random_graphs
from oracles import (
    cofinal_oracle,
    cutting_sets,
    deep_walk_equal,
    ideal_span_pairs,
    report_tuple,
    test_set_equal_oracle,
    verify_relations_oracle,
    w_paths,
)

PAIRS_PER_GRAPH = 1000


def _finish(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_single_loop_collapse():
    started = time.perf_counter()
    g1 = g1_loop()
    assert len(boundary_set(g1, 4)) == 1
    brep = boundary(g1)
    s_e = path_isometry(g1, "e")
    p_v = vertex_projection(g1, "v")
    assert operator_equal(brep, s_e, p_v)
    paths = enumerate_paths(g1, 4)
    for alpha in paths:
        for beta in paths:
            assert operator_equal(brep, monomial(g1, alpha, beta), p_v)
    _finish(1, "single-loop collapse onto the one-point boundary", started, 1.0)


def test_criterion_2_toeplitz_dictionary():
    started = time.perf_counter()
    assert len(CORPUS) >= 20
    for name, g in CORPUS:
        assert len(g.vertices) <= 8
        tg = toeplitz_graph(g)
        fam = toeplitz_family(tg)
        lrep = left_regular(tg.graph)
        report = verify_relations(lrep, TCK, depth=3, family=fam)
        assert report.passed, (name, report.failures)
        brep = boundary(tg.graph)
        nil = zero()
        for v in g.vertices:
            if not g.in_edges(v):
                continue
            defect = fam.p[v]
            for e in g.in_edges(v):
                defect = defect - fam.s[e] * fam.s[e].adjoint()
            twin = vertex_projection(tg.graph, tg.beta_v[v])
            assert operator_equal(brep, defect, twin), (name, v)
            assert not operator_equal(brep, defect, nil), (name, v)
            assert not operator_equal(lrep, defect, nil), (name, v)
    _finish(2, "Toeplitz dictionary family over the doubled graph", started, 30.0)


def test_criterion_3_reduced_graph_invariant():
    from graphck import reduced_graph

    started = time.perf_counter()
    graphs = random_graphs(2024, 100, max_vertices=8, density=0.3)
    assert len(graphs) == 100
    for g in graphs:
        for cut in cutting_sets(g):
            assert entrance_free_classes(reduced_graph(g, cut).graph) == ()
    _finish(3, "cutting sets leave no entrance-free cycles (100 graphs)", started, 60.0)


def test_criterion_4_tail_catalog_of_doubled_loop():
    started = time.perf_counter()
    te = toeplitz_graph(g1_loop()).graph
    tails = maximal_tails(te)
    assert len(tails) == 2
    tau, gamma = tails
    assert tau.kind == "tau" and tau.vertices == frozenset({"alpha:v"})
    assert tau.cycle_class.representative.render() == "alpha:e"
    assert gamma.kind == "gamma" and gamma.vertices == frozenset(
        {"alpha:v", "beta:v"}
    )
    _finish(4, "doubled-loop tail catalog (one circle, one dense point)", started, 1.0)


def _verified(rep, level):
    """The closed-form report, checked against a scan of the whole test set."""
    report = verify_relations(rep, level)
    assert report_tuple(report) == report_tuple(verify_relations_oracle(rep, level)), (rep, level)
    return report


def test_criterion_5_relation_matrix():
    started = time.perf_counter()
    rng = random.Random(404)
    for name, g in CORPUS:
        lrep = left_regular(g)
        assert _verified(lrep, TCK).passed, name
        report = _verified(lrep, CK)
        receiving = {v for v in g.vertices if g.in_edges(v)}
        assert {f.relation for f in report.failures} == {
            f"CK[{v}]" for v in receiving
        }, name
        assert _verified(boundary(g), NORMALIZED).passed, name
        assert _verified(omega(g), NORMALIZED).passed, name
        cut = canonical_cutting_set(g)
        if cut:
            kappa = {
                x: Phase(Fraction(rng.randint(0, 11), rng.randint(1, 12)))
                for x in cut
            }
            trep = twisted_boundary(g, kappa)
            assert _verified(trep, REDUCED).passed, name
            extracted = extract_kappa(trep)
            for cls, phase in extracted.items():
                (x,) = set(cut) & cls.edge_set
                assert phase == kappa[x], (name, cls.representative.render())
    _finish(5, "relation matrix across all kinds and levels", started, 60.0)


def test_criterion_6_couniversal_detwisting():
    started = time.perf_counter()
    rng = random.Random(1105)
    twisted_graphs = [
        (name, g) for name, g in CORPUS if entrance_free_classes(g)
    ]
    runs = 0
    while runs < 50:
        name, g = twisted_graphs[runs % len(twisted_graphs)]
        kappa = {
            x: Phase(Fraction(rng.randint(0, 11), rng.randint(1, 12)))
            for x in canonical_cutting_set(g)
        }
        trep = twisted_boundary(g, kappa)
        assert _verified(trep, REDUCED).passed, (name, kappa)
        rescaled = rescale_family(trep)
        assert _verified(rescaled, NORMALIZED).passed, (name, kappa)
        for phase in extract_kappa(rescaled).values():
            assert phase == Phase(0), (name, kappa)
        runs += 1
    assert runs == 50
    _finish(6, "de-twisting 50 random rational gauge assignments", started, 30.0)


def test_criterion_7_expectation():
    started = time.perf_counter()
    rng = random.Random(77)
    for name, g in CORPUS:
        depth = 2 * len(g.vertices)
        orep = omega(g)
        pts = omega_set(g, depth)
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        for _ in range(200):
            a = random_element(rng, g, pools)
            psi = diag_expectation(g, a)
            for x in pts:
                diag = rep_apply(orep, a, x).get(x)
                out = rep_apply(orep, psi, x)
                if diag is None:
                    assert out == {}, name
                else:
                    assert out == {x: diag}, name
        # off-diagonal W-monomials vanish under the expectation
        ws = w_paths(g, min(depth, 4))
        assert len(ws) ** 2 < 3_000_000, name  # enumeration guard
        by_source = {}
        for p in ws:
            by_source.setdefault(p.source, []).append(p)
        for w, group in by_source.items():
            for i, alpha in enumerate(group):
                for beta in group[i + 1:]:
                    assert diag_expectation(g, monomial(g, alpha, beta)).is_zero
        # separation: distinct W-paths move every omega point apart
        for w, group in by_source.items():
            targets = [y for y in pts if y.range == w]
            for i, alpha in enumerate(group):
                for beta in group[i + 1:]:
                    for y in targets:
                        assert prepend(alpha, y) != prepend(beta, y), name
    _finish(7, "diagonal expectation vs rank-one compression", started, 120.0)


def test_criterion_8_simplicity_dichotomy():
    started = time.perf_counter()
    for name, g in CORPUS:
        assert is_cofinal(g) == cofinal_oracle(g), name
        witness = noncofinal_witness(g)
        if is_cofinal(g):
            assert witness is None, name
            continue
        v, x = witness
        orep = omega(g)
        assert not operator_equal(
            orep, vertex_projection(g, x.range), zero()
        ), name
        p_v = vertex_projection(g, v)
        for alpha, beta in ideal_span_pairs(g, x, 2):
            assert operator_equal(orep, p_v * monomial(g, alpha, beta), zero()), name
    _finish(8, "cofinality oracle agreement and witness ideal", started, 60.0)


def test_criterion_9_cross_oracle_equality():
    started = time.perf_counter()
    rng = random.Random(909)
    agreements = Counter()
    for name, g in CORPUS:
        pools = {v: [] for v in g.vertices}
        for p in enumerate_paths(g, 2):
            pools[p.source].append(p)
        quarter = {
            x: Phase(Fraction(rng.randint(0, 3), 4))
            for x in canonical_cutting_set(g)
        }
        reps = [boundary(g), left_regular(g), omega(g), twisted_boundary(g, quarter)]
        kernels = [kernel_elements(g, rep) for rep in reps]
        for i in range(PAIRS_PER_GRAPH):
            a = random_element(rng, g, pools)
            shared = random_element(rng, g, pools)
            r = random_element(rng, g, pools)
            for rep, kernel in zip(reps, kernels):
                # a quarter of the pairs differ by an element of the kernel,
                # giving structurally distinct equal pairs
                b = a + rng.choice(kernel) * r if kernel and i % 4 == 0 else shared
                symbolic = operator_equal(rep, a, b)
                scanned = test_set_equal_oracle(rep, a, b)
                walked = deep_walk_equal(rep, a, b)
                assert symbolic == scanned == walked, (name, rep.kind, i)
                agreements[rep.kind, symbolic] += 1
    kinds = (BOUNDARY, LEFT_REGULAR, OMEGA, TWISTED)
    for kind in kinds:
        assert agreements[kind, True] and agreements[kind, False], kind
    counts = ", ".join(
        f"{kind} {agreements[kind, True]}/{agreements[kind, False]}" for kind in kinds
    )
    _finish(
        9,
        f"closed form vs test-set scan vs deep walks (equal/unequal: {counts})",
        started,
        120.0,
    )
