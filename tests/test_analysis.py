from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from fibergraphs import analysis
from fibergraphs.analysis import (
    SplitNetwork,
    _anchored_pairs,
    _bfs,
    _orbit_first_pairs,
    _vertex_labels,
    articulation_vertices,
    detour_paths,
    diameter,
    diameter_witness_pair,
    distance_between,
    distance_two_pairs,
    hemmecke_graph,
    is_connected,
    liu_check,
    local_connectivity,
    min_common_moves_over_close_pairs,
    vertex_connectivity,
)
from fibergraphs.cli import main
from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError
from fibergraphs.graphs import (TWO_HOP_BLOCK, CsrGraph, _orbit_labels, build_graph, stabiliser,
                                two_hop_pairs)
from fibergraphs.tables import scaled_permutation, valid_moves, validate_table

from oracles import (
    brute_articulation_vertices,
    brute_bfs_distances,
    brute_distance_two_pairs,
    brute_is_connected,
    brute_local_connectivity,
    brute_min_common_moves,
    brute_vertex_connectivity,
    complete_bipartite,
    complete_graph,
    connectivity_pairs,
    cycle_graph,
    path_graph,
    permute,
    random_graph,
    rows_of,
    transpose,
)


# --- distances ---

def _distances(graph, source):
    return _bfs(graph.indptr, graph.indices, source).tolist()


def test_bfs_on_g22_path(graph_2_2):
    diag = graph_2_2.fiber.index_of(validate_table(2, 2, [[2, 0], [0, 2]]))
    dist = _distances(graph_2_2, diag)
    assert sorted(dist) == [0, 1, 2]
    assert dist[diag] == 0


def test_bfs_self_distance_zero(graph_3_2):
    assert _distances(graph_3_2, 7)[7] == 0
    assert distance_between(graph_3_2, 7, 7) == 0


def test_bfs_matches_vectorized_diameter(graph_3_2):
    # the all-sources sweep must agree with the per-source distance lists
    by_bfs = max(max(_distances(graph_3_2, s)) for s in range(graph_3_2.vertex_count))
    assert diameter(graph_3_2) == by_bfs


def test_bfs_routines_match_oracles_on_plain_lists():
    # isolated vertices, empty rows and unsorted rows on the adjacency-list path
    rng = random.Random(6060)
    graphs = [[], [[]], [[], []], [[1], [0], []]]
    for _ in range(120):
        n = rng.randint(1, 14)
        adj = [list(row) for row in random_graph(rng, n, rng.uniform(0.0, 3.0) / n)]
        for row in adj:
            rng.shuffle(row)
        graphs.append(adj)
    for adj in graphs:
        graph = CsrGraph.from_rows(adj)
        for s in range(len(adj)):
            assert _distances(graph, s) == brute_bfs_distances(adj, s), adj
        assert is_connected(graph) == brute_is_connected(adj), adj
        assert articulation_vertices(graph) == brute_articulation_vertices(adj), adj
    assert any(not brute_is_connected(adj) for adj in graphs)
    assert any(brute_articulation_vertices(adj) for adj in graphs)


def test_distance_diag_to_antidiagonal_g32(graph_3_2):
    # the anti-diagonal pattern is a transposition away from the diagonal,
    # two applications of one move; it does not attain the diameter
    fiber = graph_3_2.fiber
    diag = fiber.index_of(scaled_permutation(3, 2, [0, 1, 2]))
    anti = fiber.index_of(scaled_permutation(3, 2, [2, 1, 0]))
    assert distance_between(graph_3_2, diag, anti) == 2


@pytest.mark.parametrize("call,args", [
    pytest.param(distance_between, (-1, 0), id="distance_between(-1,0)"),
    pytest.param(distance_between, (0, 55), id="distance_between(0,55)"),
    pytest.param(distance_between, (0, -1), id="distance_between(0,-1)"),
    pytest.param(distance_between, (55, 0), id="distance_between(55,0)"),
    pytest.param(local_connectivity, (0, -1), id="local_connectivity(0,-1)"),
    pytest.param(local_connectivity, (0, 55), id="local_connectivity(0,55)"),
    pytest.param(local_connectivity, (-1, 0), id="local_connectivity(-1,0)"),
    pytest.param(detour_paths, (-1, 2), id="detour_paths(-1,2)"),
    pytest.param(detour_paths, (0, 55), id="detour_paths(0,55)"),
    pytest.param(distance_between, (True, False), id="distance_between(True,False)"),
    pytest.param(distance_between, (1.0, 0), id="distance_between(1.0,0)"),
])
def test_out_of_range_vertices_are_refused(graph_3_3, call, args):
    # G(3,3) has 55 vertices, so -1 and 55 are both outside it; a bool or a
    # float is no vertex id (True was read as 1 and 1.0 raised a TypeError)
    assert graph_3_3.vertex_count == 55
    bad = next(x for x in args if type(x) is not int or not 0 <= x < 55)
    with pytest.raises(FiberGraphsError, match=rf"^vertex {bad} is not in 0\.\.54$"):
        call(graph_3_3, *args)


def test_diameter_formula_small():
    for n, r, expected in [(2, 2, 2), (2, 3, 3), (3, 1, 2), (3, 2, 4), (3, 3, 6)]:
        graph = build_graph(enumerate_fiber(n, r))
        assert diameter(graph) == expected


def test_diameter_witness_pair_attains():
    for n, r in [(2, 2), (3, 2), (3, 3)]:
        graph = build_graph(enumerate_fiber(n, r))
        a, b = diameter_witness_pair(n, r)
        u = graph.fiber.index_of(a)
        v = graph.fiber.index_of(b)
        assert distance_between(graph, u, v) == (n - 1) * r


def test_diameter_disconnected_raises():
    with pytest.raises(FiberGraphsError, match="^vertex 2 unreachable from 0$"):
        diameter(CsrGraph.from_rows(((1,), (0,), ())))


def test_diameter_matches_the_queue_bfs_oracle():
    # the bit-parallel sweep against the largest queue-BFS distance from every vertex
    rng = random.Random(3131)
    graphs = [cycle_graph(n) for n in (3, 4, 9)] + [path_graph(n) for n in (1, 2, 7)]
    graphs += [rows_of(hemmecke_graph(k)[0]) for k in (1, 2, 4)]
    for n in rng.choices(range(1, 40), k=80):
        graphs.append(random_graph(rng, n, rng.uniform(1.0, 4.0) / n))
    connected = 0
    for adj in graphs:
        dist = [brute_bfs_distances(adj, s) for s in range(len(adj))]
        unreached = [v for v, d in enumerate(dist[0]) if d < 0]
        if unreached:  # vertex 0 is the least source, and it misses these
            message = f"^vertex {unreached[0]} unreachable from 0$"
            with pytest.raises(FiberGraphsError, match=message):
                diameter(CsrGraph.from_rows(adj))
        else:
            connected += 1
            assert diameter(CsrGraph.from_rows(adj)) == max(map(max, dist)), adj
    assert 20 < connected < len(graphs)


def _two_tails(rng, core, tail):
    """A sparse random graph on ``core`` vertices, then two paths of ``tail``
    vertices each hanging from vertex 0: only the tails' ends, both past
    the core, are at the diameter."""
    adj = [list(row) for row in random_graph(rng, core, 8.0 / core)]
    for first in (core, core + tail):
        chain = [0, *range(first, first + tail)]
        adj += [[] for _ in range(tail)]
        for a, b in zip(chain, chain[1:]):
            adj[a].append(b)
            adj[b].append(a)
    return CsrGraph.from_rows(adj)


@pytest.mark.parametrize("tail", [0, 40])
def test_diameter_across_source_batches(tail):
    # a plain graph's sources are all its vertices: more than one batch holds
    graph = _two_tails(random.Random(31 + tail), 1100 - 2 * tail, tail)
    assert graph.vertex_count > 64 * analysis._SOURCE_WORDS
    by_bfs = [int(_bfs(graph.indptr, graph.indices, s).max()) for s in range(graph.vertex_count)]
    assert min(by_bfs) >= 0 and diameter(graph) == max(by_bfs)
    assert (max(by_bfs) == 2 * tail) if tail else (max(by_bfs) <= 8)


def test_diameter_names_the_first_vertex_the_least_source_misses():
    # two components, {0, 1, 4} and {2, 3}: vertex 0 misses 2 first, not the last vertex
    with pytest.raises(FiberGraphsError, match="^vertex 2 unreachable from 0$"):
        diameter(CsrGraph.from_rows(((1, 4), (0,), (3,), (2,), (0,))))


@pytest.mark.long
def test_diameter_g45_matches_the_per_source_loop():
    graph = build_graph(enumerate_fiber(4, 5))
    sources = analysis._first_members(_vertex_labels(graph)).tolist()
    assert len(sources) == 90
    by_bfs = max(int(_bfs(graph.indptr, graph.indices, s).max()) for s in sources)
    assert diameter(graph) == by_bfs == 15


def test_fiber_graphs_connected():
    for n, r in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        assert is_connected(build_graph(enumerate_fiber(n, r)))


# --- local connectivity ---

def test_local_connectivity_path_ends(graph_2_2):
    assert local_connectivity(graph_2_2, 0, 2) == 1


def test_local_connectivity_cycle_opposites():
    c4 = CsrGraph.from_rows(cycle_graph(4))
    assert local_connectivity(c4, 0, 2) == 2


# --- the array sweeps for distance-2 pairs and shared moves, against oracles ---

ORACLE_FIBERS = [(n, r) for n in range(1, 5) for r in range(4)] + [(3, 7)]


def _oracle_graph(n, r, graph_4_3):
    return graph_4_3 if (n, r) == (4, 3) else build_graph(enumerate_fiber(n, r))


def _plain_oracle_graphs():
    rng = random.Random(3131)
    graphs = [(), ((), (), ()), ((1,), (0,)), ((1,), (0,), ())]
    graphs += [random_graph(rng, n, rng.uniform(0.0, 4.0) / n) for n in range(1, 40)]
    # rows in no particular order, as plain adjacency lists may come
    graphs += [tuple(tuple(rng.sample(row, len(row))) for row in graph) for graph in graphs[-10:]]
    return graphs


@pytest.mark.parametrize("n,r", ORACLE_FIBERS)
def test_distance_two_pairs_match_the_two_hop_oracle(n, r, graph_4_3):
    graph = _oracle_graph(n, r, graph_4_3)
    expected = brute_distance_two_pairs(rows_of(graph))
    plain = CsrGraph.from_rows(rows_of(graph))  # the same rows, with no symmetry or cache
    for pairs in (distance_two_pairs(graph), distance_two_pairs(plain)):
        assert pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
        assert list(map(tuple, pairs.tolist())) == expected
    if (n, r) == (4, 3):
        # about a million two-arc walks: many blocks of TWO_HOP_BLOCK
        assert int(np.diff(graph.indptr)[graph.indices].sum()) > 10 * TWO_HOP_BLOCK


def test_distance_two_pairs_of_plain_graphs_match_the_two_hop_oracle():
    for adj in _plain_oracle_graphs():
        pairs = distance_two_pairs(CsrGraph.from_rows(adj))
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert list(map(tuple, pairs.tolist())) == brute_distance_two_pairs(adj), adj


def test_two_hop_pairs_of_chosen_rows_match_the_two_hop_oracle():
    rng = random.Random(2020)
    for adj in _plain_oracle_graphs():
        graph = CsrGraph.from_rows(adj)
        rows = sorted(rng.sample(range(len(adj)), rng.randint(0, len(adj))))
        pairs = two_hop_pairs(graph.indptr, graph.indices, np.array(rows, dtype=np.int64))
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        expected = [(u, w) for u, w in brute_distance_two_pairs(adj) if u in rows]
        assert list(map(tuple, pairs.tolist())) == expected, (adj, rows)


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (4, 2)])
def test_anchored_pairs_are_the_rows_of_representatives(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    labels, pairs = _vertex_labels(graph), _anchored_pairs(graph)
    assert labels.tolist() == _orbit_labels(graph.vertex_count, graph.automorphisms).tolist()
    full = distance_two_pairs(graph)
    # u a representative, and (rule 1) w's representative no smaller than u
    expected = full[(labels[full[:, 0]] == full[:, 0]) & (labels[full[:, 1]] >= full[:, 0])]
    assert pairs.dtype == np.int64 and np.array_equal(pairs, expected)
    assert 0 < len(pairs) < len(full)


@pytest.mark.parametrize("n,r", ORACLE_FIBERS + [(3, 5)])
def test_common_moves_match_the_bitmask_oracle(n, r, graph_4_3):
    graph = _oracle_graph(n, r, graph_4_3)
    adj = rows_of(graph)
    ptr, ids = graph.indptr.tolist(), graph.move_ids.tolist()
    move_sets = [ids[a:b] for a, b in zip(ptr, ptr[1:])]
    pairs = [(u, v) for u, row in enumerate(adj) for v in row if u < v]
    expected = brute_min_common_moves(move_sets, pairs + brute_distance_two_pairs(adj))
    result = min_common_moves_over_close_pairs(graph)
    assert result == expected
    if result is not None:
        count, (u, v) = result
        assert type(count) is int and type(u) is int and type(v) is int


def test_verify_computes_distance_two_pairs_once(monkeypatch, tmp_path):
    # commonchoices and the sweep share one two-hop pass per graph, over the
    # vertex-orbit representatives' rows only: never the pairs of every row
    calls = []

    def counted(indptr, indices, rows):
        calls.append((len(indptr) - 1, len(rows)))
        return two_hop_pairs(indptr, indices, rows)

    monkeypatch.setattr("fibergraphs.analysis.two_hop_pairs", counted)
    argv = ["verify", "--n", "3", "--r", "3", "--checks", "commonchoices,liu,commonchoices",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    graph = build_graph(enumerate_fiber(3, 3))
    reps = len(np.unique(_orbit_labels(graph.vertex_count, graph.automorphisms)))
    assert reps < graph.vertex_count == 55
    assert calls == [(55, reps)]


def test_verify_without_flow_checks_builds_no_neighbour_tuples(monkeypatch, tmp_path):
    def refuse(net, graph):
        raise AssertionError("the flow engine's Python neighbour lists were built")

    monkeypatch.setattr(SplitNetwork, "__init__", refuse)
    checks = "degrees,connmax,maxdeg,commonchoices,diameter,sink,dag,konig,decomp-constrained"
    argv = ["verify", "--n", "3", "--r", "3", "--checks", checks, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0


def test_local_connectivity_adjacent_rejected(graph_2_2):
    with pytest.raises(FiberGraphsError, match="^vertices 0 and 1 are adjacent; "):
        local_connectivity(graph_2_2, 0, 1)


def test_local_connectivity_g33_distance_two(graph_3_3):
    for u, v in distance_two_pairs(graph_3_3)[:40]:
        assert local_connectivity(graph_3_3, u, v) >= 3


def test_local_connectivity_matches_path_packing_oracle():
    rng = random.Random(777)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 12)
        adj = random_graph(rng, n, rng.uniform(0.25, 0.5))
        graph = CsrGraph.from_rows(adj)
        non_adjacent = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if v not in adj[u]
        ]
        rng.shuffle(non_adjacent)
        for u, v in non_adjacent[:3]:
            assert local_connectivity(graph, u, v) == brute_local_connectivity(adj, u, v)
            checked += 1
    assert checked >= 100


# --- global connectivity ---

def test_vertex_connectivity_g2r_path():
    for r in (2, 3, 4):
        graph = build_graph(enumerate_fiber(2, r))
        report = vertex_connectivity(graph)
        assert report.kappa == 1
        assert report.min_degree == 1
        assert report.conjecture_holds


def test_vertex_connectivity_g33(graph_3_3):
    report = vertex_connectivity(graph_3_3)
    assert report.kappa == 3
    assert report.conjecture_holds
    assert report.witness_cut is not None and len(report.witness_cut) == 3


def test_vertex_connectivity_g31(graph_3_1):
    # outside the r > 2 hypothesis; empirical value cross-checked by brute force
    report = vertex_connectivity(graph_3_1)
    assert report.kappa == brute_vertex_connectivity(rows_of(graph_3_1)) == 3


def test_witness_cut_disconnects(graph_3_3):
    # two triangles chained through the path 4 - 0 - 6: the minimizing pair
    # (0, 1) saturates the arc from s0 into its neighbour 6, the cut vertex
    chain = ((4, 6), (5, 6), (3, 4), (2, 4), (0, 2, 3), (1, 6), (0, 1, 5))
    for adj in (rows_of(graph_3_3), chain):
        report = vertex_connectivity(CsrGraph.from_rows(adj))
        removed = report.witness_cut
        assert len(removed) == report.kappa == brute_vertex_connectivity(adj)
        alive = [x for x in range(len(adj)) if x not in removed]
        seen = {alive[0]}
        stack = [alive[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in removed and y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert len(seen) < len(alive)
    assert report.witness_cut == frozenset({6})


def test_witness_cut_recheck_is_not_an_assert(graph_3_3, monkeypatch):
    # the BFS re-check raises a module error, so python -O keeps it
    monkeypatch.setattr(analysis, "is_connected", lambda graph, removed=frozenset(): True)
    with pytest.raises(FiberGraphsError, match="does not disconnect"):
        vertex_connectivity(graph_3_3)


def test_vertex_connectivity_complete_marker():
    report = vertex_connectivity(CsrGraph.from_rows(complete_graph(5)))
    assert report.kappa == 4
    assert report.complete
    assert report.witness_cut is None


def test_vertex_connectivity_disconnected():
    report = vertex_connectivity(CsrGraph.from_rows(((1,), (0,), ())))
    assert report.kappa == 0
    assert report.witness_cut == frozenset()


def test_vertex_connectivity_structured_graphs():
    assert vertex_connectivity(CsrGraph.from_rows(cycle_graph(7))).kappa == 2
    assert vertex_connectivity(CsrGraph.from_rows(path_graph(6))).kappa == 1
    assert vertex_connectivity(CsrGraph.from_rows(complete_bipartite(3, 4))).kappa == 3


def test_vertex_connectivity_matches_brute_force_random():
    rng = random.Random(4242)
    for trial in range(60):
        n = rng.randint(4, 16)
        adj = random_graph(rng, n, rng.uniform(1.2, 3.5) / n)
        report = vertex_connectivity(CsrGraph.from_rows(adj))
        assert report.kappa == brute_vertex_connectivity(adj), adj
        assert report.kappa <= report.min_degree  # Whitney bound


# --- Liu criterion and common moves ---

def test_liu_g33(graph_3_3):
    result = liu_check(graph_3_3, 3)
    assert result.passed
    assert result.min_value >= 3


def test_liu_g22_fails_for_two(graph_2_2):
    result = liu_check(graph_2_2, 2)
    assert not result.passed
    assert result.min_value == 1
    assert result.min_pair == (0, 2)


def test_liu_g32_empirical(graph_3_2):
    # r = 2 sits outside the theorem; record the computed value only
    result = liu_check(graph_3_2, 3)
    assert result.min_value == local_connectivity(graph_3_2, *result.min_pair)


def test_liu_reports_first_exact_minimiser(graph_3_3):
    # the capped sweep must return the first pair, in distance_two_pairs
    # order, whose uncapped local connectivity is least
    rng = random.Random(7171)
    # the double cubes' least pair sits below every pair's smaller degree
    graphs = [rows_of(graph_3_3), rows_of(hemmecke_graph(2)[0]), rows_of(hemmecke_graph(3)[0])]
    graphs += [random_graph(rng, n, rng.uniform(0.15, 0.7))
               for n in (rng.randint(5, 14) for _ in range(80))]
    at_degree_bound = checked = 0
    for adj in graphs:
        graph = CsrGraph.from_rows(adj)
        pairs = [tuple(pair) for pair in distance_two_pairs(graph).tolist()]
        if not pairs:
            continue
        checked += 1
        exact = [local_connectivity(graph, s, t) for s, t in pairs]
        least = min(exact)
        result = liu_check(graph, 2)
        assert (result.min_pair, result.min_value) == (pairs[exact.index(least)], least), adj
        degrees = [len(row) for row in adj]
        at_degree_bound += least == min(min(degrees[s], degrees[t]) for s, t in pairs)
    assert 0 < at_degree_bound < checked


def test_common_moves_g33_close_pairs(graph_3_3):
    result = min_common_moves_over_close_pairs(graph_3_3)
    assert result is not None
    assert result[0] >= 3


def test_common_moves_disjoint_supports_g41():
    identity = scaled_permutation(4, 1, [0, 1, 2, 3])
    reversal = scaled_permutation(4, 1, [3, 2, 1, 0])
    # disjoint supports, r = 1: the lemma does not apply and the count is 0
    assert not set(valid_moves(identity)) & set(valid_moves(reversal))
    graph = build_graph(enumerate_fiber(4, 1))
    u, v = graph.fiber.index_of(identity), graph.fiber.index_of(reversal)
    assert distance_between(graph, u, v) == 2
    assert min_common_moves_over_close_pairs(graph)[0] == 0


# --- detour paths ---

def test_detour_paths_g22_endpoints(graph_2_2):
    report = detour_paths(graph_2_2, 0, 2)
    assert report.count_disjoint == 1
    assert report.paths == ((0, 1, 2),)


def test_detour_paths_not_distance_two(graph_3_3):
    with pytest.raises(FiberGraphsError, match="^vertices 0 and 0 are not at distance 2$"):
        detour_paths(graph_3_3, 0, 0)
    u = 0
    v = rows_of(graph_3_3)[0][0]
    with pytest.raises(FiberGraphsError, match=f"^vertices {u} and {v} are not at distance 2$"):
        detour_paths(graph_3_3, u, v)


def test_detour_paths_g33_all_pairs(graph_3_3):
    for u, v in distance_two_pairs(graph_3_3):
        report = detour_paths(graph_3_3, u, v)
        assert report.count_disjoint >= 3


def test_detour_paths_are_valid_and_disjoint(graph_3_3):
    adj = rows_of(graph_3_3)
    for u, v in distance_two_pairs(graph_3_3)[:25]:
        report = detour_paths(graph_3_3, u, v)
        interiors: set[int] = set()
        for path in report.paths:
            assert path[0] == u and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert b in adj[a]
            inner = set(path[1:-1])
            assert len(inner) == len(path) - 2
            assert not inner & interiors
            interiors |= inner
        d1, d2 = report.middle_moves
        assert report.decomposition_count >= 1


def test_detour_paths_g43_sampled(graph_4_3):
    pairs = distance_two_pairs(graph_4_3)
    for u, v in pairs[::211]:
        assert detour_paths(graph_4_3, u, v).count_disjoint >= 6


@pytest.mark.long
def test_detour_paths_g43_exhaustive(graph_4_3):
    for u, v in distance_two_pairs(graph_4_3):
        assert detour_paths(graph_4_3, u, v).count_disjoint >= 6


# --- double-cube counterexample ---

def test_hemmecke_k1_path():
    graph, report = hemmecke_graph(1)
    assert graph.vertex_count == 4
    assert sorted(graph.degrees()) == [1, 1, 2, 2]
    assert report.kappa == 1
    assert report.min_degree == 1


def test_hemmecke_k2():
    graph, report = hemmecke_graph(2)
    assert graph.vertex_count == 8
    assert report.min_degree == 2
    assert report.kappa == 1


def test_hemmecke_k3():
    graph, report = hemmecke_graph(3)
    assert graph.vertex_count == 16
    assert report.min_degree == 3
    assert report.kappa == 1
    assert not report.conjecture_holds


def test_hemmecke_articulation_bridge_ends():
    graph, _ = hemmecke_graph(3)
    assert articulation_vertices(graph) == [0, 8]


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_hemmecke_cut_is_a_bridge_end(k):
    _, report = hemmecke_graph(k)
    assert report.kappa == 1
    assert report.witness_cut in (frozenset({0}), frozenset({1 << k}))


def test_hemmecke_matches_brute_force():
    graph, report = hemmecke_graph(2)
    assert brute_vertex_connectivity(rows_of(graph)) == report.kappa == 1


# --- orbit sweeps against the unreduced sweeps ---

def _min_flow(net, pairs, bound):
    """(value, pair, residual) for the first pair whose max-flow is least,
    each search capped at the least flow found so far (the first at
    ``bound``); (bound, None, None) when no pair goes below it."""
    best = bound, None, None
    for s, t in pairs:
        flow, residual = net.max_flow(s, t, best[0])
        if residual is not None:
            best = flow, (s, t), residual
    return best


def _full_sweeps(graph):
    """diameter, (kappa, witness cut) and Liu's (value, pair), every vertex and
    pair swept; kappa from the classical family, not from the distance-2 pairs."""
    adj = rows_of(graph)
    diam = max(int(_bfs(graph.indptr, graph.indices, s).max()) for s in range(len(adj)))
    net = SplitNetwork(graph)
    s0, family = connectivity_pairs(adj)
    kappa, pair, residual = _min_flow(net, family, len(adj[s0]))
    cut = frozenset(adj[s0]) if pair is None else net.min_cut_vertices(residual, pair[0])
    liu_value, liu_pair, _ = _min_flow(net, distance_two_pairs(graph).tolist(), None)
    return diam, (kappa, cut), (liu_value, liu_pair)


def _orbit_sweeps(graph):
    report, liu = vertex_connectivity(graph), liu_check(graph, 3)
    return diameter(graph), (report.kappa, report.witness_cut), (liu.min_value, liu.min_pair)


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (4, 2),
                                 (3, 2), (4, 1), (5, 1)])
def test_orbit_sweeps_match_full_sweeps(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    assert _orbit_sweeps(graph) == _full_sweeps(graph)


@pytest.mark.long
def test_orbit_sweeps_match_full_sweeps_g43(graph_4_3):
    assert _orbit_sweeps(graph_4_3) == _full_sweeps(graph_4_3)


def _canonical(table):
    """The least image of a table under row/column permutations and transpose."""
    perms = list(permutations(range(table.n)))
    moved = [permute(table.entries, rows, cols) for rows in perms for cols in perms]
    return min(min(t, transpose(t)) for t in moved)


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (4, 2)])
def test_vertex_orbits_are_the_table_classes(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    labels = _orbit_labels(graph.vertex_count, graph.automorphisms).tolist()
    classes = [_canonical(table) for table in graph.fiber]
    first_of_class: dict = {}
    for x, key in enumerate(classes):
        first_of_class.setdefault(key, x)
    assert labels == [first_of_class[key] for key in classes]


def _recorded_sweep(graph, monkeypatch):
    """Run vertex_connectivity, recording each max-flow's pair and each
    capped detour scan's (s, t, cap, family)."""
    flows, scans = [], []
    original_flow, original_family = SplitNetwork.max_flow, analysis._detour_family

    def counted(net, s, t, bound=None):
        flows.append((s, t))
        return original_flow(net, s, t, bound)

    def recorded(rows, s, t, cap):
        family = original_family(rows, s, t, cap)
        scans.append((s, t, cap, family))
        return family

    monkeypatch.setattr(SplitNetwork, "max_flow", counted)
    monkeypatch.setattr(analysis, "_detour_family", recorded)
    vertex_connectivity(graph)
    return flows, scans


# the swept pairs whose capped detour family falls short, so that they get a max-flow
DETOURS_FALL_SHORT = {
    (3, 2): [(0, 2), (1, 8)],
    (3, 3): [],
    (3, 4): [],
    (4, 2): [(0, 2), (0, 4), (1, 8), (1, 15), (1, 55), (4, 13), (4, 58)],
}


def _cell_group(n):
    """All 2(n!)^2 row and column permutations, with and without the
    transpose, as permutations of a table's row-major cells."""
    grid = np.arange(n * n).reshape(n, n)
    return np.array([cells[list(rows)][:, list(cols)].ravel() for cells in (grid, grid.T)
                     for rows in permutations(range(n)) for cols in permutations(range(n))])


@pytest.mark.parametrize("n,r", sorted(DETOURS_FALL_SHORT))
def test_sweeps_settle_each_orbit_once_by_detours_or_a_flow(n, r, monkeypatch):
    graph = build_graph(enumerate_fiber(n, r))
    # images[g, x]: the id of table x moved by group element g, found from the tables
    cells = graph.fiber.cells
    images = np.array([graph.fiber.ids_of(cells[:, p]) for p in _cell_group(n)])
    labels = images.min(axis=0)
    # u a representative, (rule 1) labels[w] >= u, (rule 2) w least among its
    # images under the elements that fix u
    swept = [(u, w) for u, w in distance_two_pairs(graph).tolist()
             if labels[u] == u <= labels[w] and w == images[images[:, u] == u, w].min()]
    flows, scans = _recorded_sweep(graph, monkeypatch)
    settled = [(s, t) for s, t, cap, family in scans if len(family) >= cap]
    short = [(s, t) for s, t, cap, family in scans if len(family) < cap]
    assert [(s, t) for s, t, _, _ in scans] == swept
    assert sorted(settled + flows) == swept
    assert flows == short == DETOURS_FALL_SHORT[n, r]
    # Liu's check then reads the same sweep, with no scan and no flow
    liu_check(graph, 3)
    assert (len(flows), len(scans)) == (len(short), len(swept))


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3)])
def test_settling_detour_families_are_disjoint_graph_paths(n, r, monkeypatch):
    graph = build_graph(enumerate_fiber(n, r))
    _, scans = _recorded_sweep(graph, monkeypatch)
    kappa, adj = liu_check(graph, 0).min_value, rows_of(graph)
    settling = [scan for scan in scans if len(scan[3]) >= scan[2]]
    assert settling
    for s, t, cap, family in settling:
        assert len(family) >= cap >= kappa
        interiors: set[int] = set()
        for path in family:
            assert path[0] == s and path[-1] == t
            assert all(b in adj[a] for a, b in zip(path, path[1:]))
            inner = set(path[1:-1])
            assert len(inner) == len(path) - 2 and not inner & ({s, t} | interiors)
            interiors |= inner


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (4, 2), (5, 1), (6, 1), (7, 1)])
def test_anchored_sweep_pairs_are_the_orbit_first_members(n, r):
    # the orbits of every distance-2 pair, labelled through the generators' images
    graph = build_graph(enumerate_fiber(n, r))
    full, size = distance_two_pairs(graph), graph.vertex_count
    keys = full @ np.array([size, 1])
    images = [np.searchsorted(keys, np.sort(perm[full], axis=1) @ np.array([size, 1]))
              for perm in graph.automorphisms]
    orbits = _orbit_labels(len(full), images)
    pairs = _orbit_first_pairs(graph)
    swept = np.searchsorted(keys, pairs @ np.array([size, 1]))
    assert np.array_equal(full[swept], pairs) and np.all(np.diff(swept) > 0)
    # every orbit's first member is swept, and at most one other member
    assert np.isin(np.flatnonzero(orbits == np.arange(len(full))), swept).all()
    kept, counts = np.unique(orbits[swept], return_counts=True)
    assert counts.max() <= 2
    # a second member only where the orbit's two tables share a vertex orbit
    labels = _vertex_labels(graph)
    u, w = full[swept[np.isin(orbits[swept], kept[counts == 2])]].T
    assert np.array_equal(labels[u], labels[w])


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_stabiliser_is_the_group_elements_fixing_a_table(n, r):
    # the whole group, 2(n!)^2 cell permutations, filtered by brute force
    group, cells = _cell_group(n), enumerate_fiber(n, r).cells
    for b in cells:
        maps = stabiliser(b)
        assert maps.shape[1:] == (n * n,)
        assert sorted(maps.tolist()) == sorted(group[(b[group] == b).all(axis=1)].tolist()), b
    if (n, r) == (3, 3):  # the all-ones table is fixed by the whole group
        assert len(stabiliser(np.ones(9, dtype=cells.dtype))) == len(group) == 72


def test_orbit_labels_of_plain_permutations():
    # orbits {0, 3, 5} and {1, 4} under the two cycles; 2 is fixed
    perms = [np.array([3, 1, 2, 5, 4, 0]), np.array([0, 4, 2, 3, 1, 5])]
    assert _orbit_labels(6, perms).tolist() == [0, 1, 2, 0, 1, 0]
    assert _orbit_labels(4, []).tolist() == [0, 1, 2, 3]
