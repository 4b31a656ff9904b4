"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, sqrt

from fibergraphs.analysis import (
    diameter,
    diameter_witness_pair,
    distance_between,
    distance_two_pairs,
    hemmecke_graph,
    liu_check,
    local_connectivity,
    vertex_connectivity,
)
from fibergraphs.decomposition import decompose, decompose_tables
from fibergraphs.enumeration import count_fiber, enumerate_fiber
from fibergraphs.graphs import CsrGraph, build_graph, find_sinks, is_acyclic, orient
from fibergraphs.sampler import (
    Target,
    WalkConfig,
    exact_test,
    run_walk,
)
from fibergraphs.tables import (
    max_degree_value,
    scaled_permutation,
    valid_moves,
    validate_table,
)

from oracles import (
    brute_local_connectivity,
    brute_vertex_connectivity,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decomposition_holds,
    hypergeometric_mass,
    path_graph,
    random_graph,
    rows_of,
    transition_probabilities,
)


def test_acceptance_1_connectivity_theorem(graph_3_3, graph_3_4):
    for name, graph in (("G(3,3)", graph_3_3), ("G(3,4)", graph_3_4)):
        start = time.perf_counter()
        report = vertex_connectivity(graph)
        elapsed = time.perf_counter() - start
        assert report.kappa == 3, name
        assert report.conjecture_holds, name
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    print("ACCEPTANCE 1: kappa(G(3,3)) = kappa(G(3,4)) = 3, exact: PASS")


def test_acceptance_1_long_g43(graph_4_3):
    assert len(graph_4_3.fiber) == count_fiber(4, 3) == 2008
    start = time.perf_counter()
    report = vertex_connectivity(graph_4_3)
    elapsed = time.perf_counter() - start
    assert report.kappa == 6 == comb(4, 2)
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    assert liu_check(graph_4_3, 6).passed
    print(f"ACCEPTANCE 1 (G(4,3)): kappa = 6 on 2008 vertices in {elapsed:.1f}s, Liu >= 6: PASS")


def test_acceptance_2_degree_lemma():
    for n in (2, 3, 4):
        floor = comb(n, 2)
        for r in (1, 2, 3):
            degrees_seen = []
            for t in enumerate_fiber(n, r):
                d = len(valid_moves(t))
                degrees_seen.append(d)
                if all(x in (0, r) for x in t.row_major()):
                    assert d == floor, (n, r, t.entries)
                else:
                    assert d >= floor + n - 1, (n, r, t.entries)
            assert min(degrees_seen) == floor
    print("ACCEPTANCE 2: degree lemma holds on every fiber with n <= 4, r <= 3: PASS")


def test_acceptance_3_max_degree_formula():
    for n, r in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        bound = max_degree_value(n, r)
        assert bound.attained
        observed = max(len(valid_moves(t)) for t in enumerate_fiber(n, r))
        assert observed == bound.value, (n, r)
    bound = max_degree_value(2, 3)
    assert not bound.attained
    observed = max(len(valid_moves(t)) for t in enumerate_fiber(2, 3))
    assert observed < bound.value
    print("ACCEPTANCE 3: max degree nr(nr-2r+1)/2 attained for n >= r, strict bound for (2,3): PASS")


def test_acceptance_4_diameter_formula():
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            graph = build_graph(enumerate_fiber(n, r))
            expected = (n - 1) * r
            assert diameter(graph) == expected, (n, r)
            a, b = diameter_witness_pair(n, r)
            u, v = graph.fiber.index_of(a), graph.fiber.index_of(b)
            assert distance_between(graph, u, v) == expected, (n, r)
    print("ACCEPTANCE 4: diam G(n,r) = (n-1)r with the cycle witness, n <= 4, r <= 3: PASS")


def test_acceptance_5_liu_and_common_moves(graph_3_3, graph_3_4):
    start = time.perf_counter()
    for name, graph in (("G(3,3)", graph_3_3), ("G(3,4)", graph_3_4)):
        pairs = distance_two_pairs(graph)
        result = liu_check(graph, 3)
        assert result.passed and result.min_value >= 3, name
        masks = [sum(1 << k for k in valid_moves(t)) for t in graph.fiber]
        worst = min((masks[u] & masks[v]).bit_count() for u, v in pairs)
        assert worst >= 3, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 5: every distance-2 pair of G(3,3) and G(3,4) has >= 3 "
        f"disjoint paths and >= 3 common moves ({elapsed:.1f}s): PASS"
    )


def test_acceptance_6_groebner_orientation():
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            graph = build_graph(enumerate_fiber(n, r))
            og = orient(graph)
            assert is_acyclic(og), (n, r)
            sinks = find_sinks(og)
            assert len(sinks) == 1, (n, r)
            if n == 3:
                anti = scaled_permutation(3, r, [2, 1, 0])
                assert graph.fiber[sinks[0]].entries == anti.entries, (n, r)
    print("ACCEPTANCE 6: (row+col)^2 orientation is acyclic with a unique sink; "
          "anti-diagonal sink at n = 3: PASS")


def test_acceptance_7_konig_and_constrained():
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            fiber = enumerate_fiber(n, r)
            parts = decompose_tables(fiber.cells, n, r)
            assert parts.shape == (len(fiber), r, n)
            for t, matchings in zip(fiber, parts.tolist()):
                assert decomposition_holds(t.entries, matchings)
    rng = random.Random(271828)
    fibers = {(n, r): enumerate_fiber(n, r) for n in (2, 3, 4) for r in (1, 2, 3)}
    for _ in range(500):
        n, r = rng.choice(list(fibers))
        fiber = fibers[(n, r)]
        t = fiber[rng.randrange(len(fiber))]
        budget = [row[:] for row in t.rows()]
        positions = []
        for _ in range(rng.randint(0, r)):
            cells = [
                (i + 1, j + 1) for i in range(n) for j in range(n) if budget[i][j] > 0
            ]
            i, j = rng.choice(cells)
            budget[i - 1][j - 1] -= 1
            positions.append((i, j))
        dec = decompose(t, positions)
        assert decomposition_holds(t.entries, dec.matchings, dec.constraints)
    print("ACCEPTANCE 7: all tables (n <= 4, r <= 3) decompose into r matchings; "
          "500 constrained instances satisfy every prefix inequality: PASS")


def test_acceptance_8_hemmecke_counterexample():
    for k in range(1, 7):
        graph, report = hemmecke_graph(k)
        assert graph.vertex_count == 2 ** (k + 1)
        assert report.min_degree == k
        assert report.kappa == 1
    print("ACCEPTANCE 8: double-cube graphs have min degree k and connectivity 1, "
          "k = 1..6: PASS")


def test_acceptance_9_oracle_equivalence():
    rng = random.Random(112358)
    graphs = [
        cycle_graph(8),
        path_graph(9),
        complete_graph(6),
        complete_bipartite(3, 5),
        complete_bipartite(2, 2),
        rows_of(hemmecke_graph(1)[0]),
        rows_of(hemmecke_graph(2)[0]),
        rows_of(hemmecke_graph(3)[0]),
    ]
    while len(graphs) < 200:
        n = rng.randint(4, 25)
        c = rng.uniform(1.2, 3.0)
        graphs.append(random_graph(rng, n, c / n))
    assert len(graphs) == 200
    for adj in graphs:
        assert vertex_connectivity(CsrGraph.from_rows(adj)).kappa == brute_vertex_connectivity(adj)

    checked = 0
    while checked < 100:
        n = rng.randint(4, 12)
        adj = random_graph(rng, n, rng.uniform(0.25, 0.5))
        graph = CsrGraph.from_rows(adj)
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]
        ]
        rng.shuffle(pairs)
        for u, v in pairs[:3]:
            assert local_connectivity(graph, u, v) == brute_local_connectivity(adj, u, v)
            checked += 1
    print("ACCEPTANCE 9: vertex connectivity matches brute-force cutsets on 200 random "
          "graphs; local connectivity matches exhaustive path packing: PASS")


def test_acceptance_10_sampler_correctness(graph_3_2):
    # detailed balance, exactly, on the three-state chain for both targets
    tables = [
        validate_table(2, 2, [[0, 2], [2, 0]]),
        validate_table(2, 2, [[1, 1], [1, 1]]),
        validate_table(2, 2, [[2, 0], [0, 2]]),
    ]
    uniform_pi = {t.entries: Fraction(1, 3) for t in tables}
    hyper_pi = hypergeometric_mass([t.entries for t in tables])
    for target, pi in ((Target.UNIFORM, uniform_pi), (Target.HYPERGEOMETRIC, hyper_pi)):
        rows = {t.entries: transition_probabilities(t.entries, target) for t in tables}
        for a in tables:
            for b in tables:
                if a.entries == b.entries:
                    continue
                lhs = pi[a.entries] * rows[a.entries].get(b.entries, Fraction(0))
                rhs = pi[b.entries] * rows[b.entries].get(a.entries, Fraction(0))
                assert lhs == rhs, target

    # one million-step hypergeometric stream vs the 21-table exact oracle
    start = time.perf_counter()
    fiber = graph_3_2.fiber
    pi_exact = hypergeometric_mass([t.entries for t in fiber])

    def score(entries) -> int:
        return sum((3 * x - 2) ** 2 for row in entries for x in row)

    config = WalkConfig(
        steps=1_000_000, seed=20_260_809, burn_in=10_000, thinning=10,
        target=Target.HYPERGEOMETRIC,
    )
    _, samples = run_walk(fiber[0], config)
    scores = [score([s]) for s in samples]  # a sample is its row-major cells
    m = len(scores)
    batches = 100
    size = m // batches
    for observed in fiber:
        threshold = score(observed.entries)
        exact = float(
            sum(mass for entries, mass in pi_exact.items() if score(entries) >= threshold)
        )
        hits = [1.0 if s >= threshold else 0.0 for s in scores]
        p_hat = sum(hits) / m
        means = [sum(hits[b * size:(b + 1) * size]) / size for b in range(batches)]
        center = sum(means) / batches
        se = sqrt(sum((x - center) ** 2 for x in means) / (batches - 1) / batches)
        assert abs(p_hat - exact) <= 3 * se + 1e-12, (
            observed.entries, p_hat, exact, se,
        )

    # the public exact-test API end to end on the most extreme table
    observed = validate_table(3, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    result = exact_test(
        observed, WalkConfig(steps=1_000_000, seed=31337, burn_in=10_000, thinning=10)
    )
    exact = float(
        sum(
            mass
            for entries, mass in pi_exact.items()
            if score(entries) >= score(observed.entries)
        )
    )
    assert abs(result.p_value_estimate - exact) <= 3 * result.standard_error
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 10: detailed balance exact on G(2,2); million-step MCMC p-values "
        f"within 3 SE of the exhaustive oracle for all 21 observed tables ({elapsed:.1f}s): PASS"
    )
