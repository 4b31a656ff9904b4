from __future__ import annotations

import json

import numpy as np
import pytest

from fibergraphs.analysis import diameter, liu_check, vertex_connectivity
from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError, SizeLimitExceededError
from fibergraphs.graphs import (
    FiberGraph,
    OrientedFiberGraph,
    build_graph,
    export_graph,
    find_sinks,
    is_acyclic,
    orient,
    symmetry_generators,
    vertex_map_json,
    vertex_orbits,
)
from fibergraphs.tables import (
    ContingencyTable,
    scaled_permutation,
    valid_moves,
    validate_table,
)

from oracles import orientation_weight, permute, rows_of, transpose


def test_g22_is_a_path(graph_2_2):
    assert graph_2_2.vertex_count == 3
    assert graph_2_2.edges() == [(0, 1), (1, 2)]


def test_g32_vertex_count_and_min_degree(graph_3_2):
    assert graph_3_2.vertex_count == 21
    assert min(graph_3_2.degrees()) == 3


def test_g31_three_regular(graph_3_1):
    assert graph_3_1.vertex_count == 6
    assert set(graph_3_1.degrees()) == {3}


def test_handshake(graph_3_2):
    assert sum(graph_3_2.degrees()) == 2 * graph_3_2.edge_count


def test_graph_degree_matches_table_degree(graph_3_3):
    for u, t in enumerate(graph_3_3.fiber):
        assert graph_3_3.degree(u) == len(valid_moves(t))


def test_adjacency_symmetric_no_loops(graph_3_2):
    nbrs = rows_of(graph_3_2)
    for u, row in enumerate(nbrs):
        assert u not in row
        assert len(set(row)) == len(row)
        for v in row:
            assert u in nbrs[v]


def test_pair_multiplicity_is_one(graph_3_3):
    # distinct basis moves are distinct matrices, so a vertex pair is never
    # connected by two different moves: each valid move gives exactly one arc
    g = graph_3_3
    for u, t in enumerate(g.fiber):
        row = g.indices[g.indptr[u]:g.indptr[u + 1]]
        assert (np.diff(row) > 0).all()
        labels = g.move_ids[g.indptr[u]:g.indptr[u + 1]]
        assert sorted(labels.tolist()) == valid_moves(t)


def test_wide_keys_on_a_long_path():
    # 70,001 tables whose entries need 32 bits; (r+1)^4 > 2^63, so a table
    # cannot be packed into one int64 and the lookup must compare wide keys
    graph = build_graph(enumerate_fiber(2, 70_000))
    fiber = graph.fiber
    assert graph.vertex_count == 70_001
    assert graph.edges() == [(k, k + 1) for k in range(70_000)]
    for k in (0, 35_000, 70_000):
        assert fiber.index_of(fiber[k]) == k
    with pytest.raises(KeyError):
        fiber.index_of(validate_table(2, 69_999, [[0, 69_999], [69_999, 0]]))
    with pytest.raises(KeyError):
        # same n and r, but no such row in the fiber: the byte-key search misses
        fiber.index_of(ContingencyTable(2, 70_000, ((35_000, 35_001), (35_001, 35_000))))


def _heads(og, u):
    """Heads of the arcs out of u, as Python ints."""
    return og.indices[og.indptr[u]:og.indptr[u + 1]].tolist()


def test_orientation_hand_computed_edge(graph_2_2):
    # w = [[4, 9], [9, 16]]: w.(2I) = 40, w.[[1,1],[1,1]] = 38, so the edge points at the flat table
    fiber = graph_2_2.fiber
    flat = fiber.index_of(validate_table(2, 2, [[1, 1], [1, 1]]))
    diag = fiber.index_of(scaled_permutation(2, 2, [0, 1]))
    assert orientation_weight(fiber[diag].entries) == 40
    assert orientation_weight(fiber[flat].entries) == 38
    og = orient(graph_2_2)
    assert flat in _heads(og, diag)
    assert diag not in _heads(og, flat)


def test_orientation_is_acyclic(graph_3_2):
    og = orient(graph_3_2)
    assert is_acyclic(og)


def test_is_acyclic_detects_a_cycle(graph_3_1):
    # the arcs 0 -> 1 -> 2 -> 0 form a cycle; 3 -> 4 -> 5 is a path
    def arcs(heads):
        indptr = np.cumsum([0] + [len(h) for h in heads])
        return indptr, np.array([v for h in heads for v in h], dtype=np.intp)

    cyclic = OrientedFiberGraph(graph_3_1, *arcs([[1], [2], [0], [4], [5], []]))
    assert is_acyclic(cyclic) is False
    assert find_sinks(cyclic) == [5]
    path = OrientedFiberGraph(graph_3_1, *arcs([[1], [2], [], [4], [5], []]))
    assert is_acyclic(path) is True


def test_every_directed_edge_decreases_weight():
    # and every edge is directed one way: the arcs out of u and out of v hold it once
    for n in range(1, 5):
        for r in range(4):
            graph = build_graph(enumerate_fiber(n, r))
            og = orient(graph)
            values = np.array([orientation_weight(t.entries) for t in graph.fiber])
            tails = np.repeat(np.arange(graph.vertex_count), np.diff(og.indptr))
            assert (values[og.indices] < values[tails]).all(), (n, r)
            assert len(og.indices) == graph.edge_count, (n, r)


@pytest.mark.parametrize(
    "n,r",
    [(2, 2), (3, 2), (3, 3)],
)
def test_unique_sink_is_antidiagonal(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    og = orient(graph)
    sinks = find_sinks(og)
    assert len(sinks) == 1
    anti = scaled_permutation(n, r, [n - 1 - i for i in range(n)])
    assert graph.fiber[sinks[0]].entries == anti.entries
    # the sink minimizes the weight over the whole fiber
    values = [orientation_weight(t.entries) for t in graph.fiber]
    assert values[sinks[0]] == min(values)


def _text(blocks) -> str:
    """An export's byte blocks joined into its text."""
    return b"".join(blocks).decode("ascii")


def test_export_edge_list(graph_2_2):
    assert _text(export_graph(graph_2_2, "edge-list")) == "0 1\n1 2\n"
    sidecar = json.loads(_text(vertex_map_json(graph_2_2)))
    assert sidecar["0"] == [[0, 2], [2, 0]]
    assert sidecar["2"] == [[2, 0], [0, 2]]


def test_export_dot(graph_2_2):
    dot = _text(export_graph(graph_2_2, "dot"))
    assert dot.count("--") == 2
    assert dot.count("[label=") == 3


def test_export_oriented_directions(graph_2_2):
    og = orient(graph_2_2)
    listing = _text(export_graph(og, "edge-list"))
    assert listing == "1 0\n2 1\n"
    dot = _text(export_graph(og, "dot"))
    assert "digraph" in dot and "->" in dot


def test_export_unknown_format(graph_2_2):
    with pytest.raises(FiberGraphsError, match="^unknown graph format 'graphml'$"):
        export_graph(graph_2_2, "graphml")


def test_dot_export_guarded():
    graph = build_graph(enumerate_fiber(4, 3))
    with pytest.raises(SizeLimitExceededError):
        export_graph(graph, "dot")


def test_degree_multiset_invariant_under_relabeling(graph_3_2):
    # simultaneous row/column relabeling is a graph isomorphism
    fiber = graph_3_2.fiber
    perm = [2, 0, 1]
    degrees = sorted(graph_3_2.degrees())
    relabeled = sorted(
        graph_3_2.degree(fiber.index_of(ContingencyTable(3, 2, permute(t.entries, perm, perm))))
        for t in fiber
    )
    assert relabeled == degrees


# --- the symmetry group ---

def _edge_set(graph, perm=None):
    perm = np.arange(graph.vertex_count) if perm is None else perm
    return {tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in graph.edges()}


@pytest.mark.parametrize("n,r", [(n, r) for n in (2, 3, 4) for r in range(4)])
def test_generators_are_automorphisms(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    rows = list(range(n))
    rows[:2] = rows[1::-1]
    # each generator's action on the entries of a table
    actions = (
        lambda entries: permute(entries, rows, range(n)),
        lambda entries: permute(entries, [(i - 1) % n for i in range(n)], range(n)),
        transpose,
    )
    edges = _edge_set(graph)
    for perm, act in zip(graph.automorphisms, actions):
        assert sorted(perm.tolist()) == list(range(graph.vertex_count))
        assert _edge_set(graph, perm) == edges
        assert all(graph.fiber[int(perm[x])].entries == act(t.entries)
                   for x, t in enumerate(graph.fiber))


def test_generators_and_orbits_are_read_only_and_computed_once_per_fiber(graph_3_3):
    fiber = graph_3_3.fiber
    generators, labels = symmetry_generators(fiber), vertex_orbits(fiber)
    assert symmetry_generators(fiber) is generators and vertex_orbits(fiber) is labels
    assert all(a is b for a, b in zip(generators.values(), graph_3_3.automorphisms))
    for array in (*generators.values(), labels):
        with pytest.raises(ValueError):
            array[0] = 1
    # a second enumeration of the same fiber gets its own, equal labels
    again = vertex_orbits(enumerate_fiber(3, 3))
    assert again is not labels and np.array_equal(again, labels)


def _without_edge(graph, u, v):
    keep = np.ones(len(graph.indices), dtype=bool)
    for a, b in ((u, v), (v, u)):
        row = np.arange(graph.indptr[a], graph.indptr[a + 1])
        keep[row[graph.indices[row] == b]] = False
    indptr = np.concatenate(([0], np.cumsum(keep)))[graph.indptr]
    return FiberGraph(indptr, graph.indices[keep], fiber=graph.fiber, move_ids=graph.move_ids[keep])


def test_a_broken_symmetry_is_refused(graph_3_2):
    u, v = graph_3_2.edges()[0]
    # the second graph's fiber has its orbits labelled before its graph is
    # broken: the sweeps must still wait for the generators' proof
    memoised = build_graph(enumerate_fiber(3, 2))
    vertex_orbits(memoised.fiber)
    uses = (lambda g: g.automorphisms, diameter, vertex_connectivity, lambda g: liu_check(g, 3))
    for graph in (graph_3_2, memoised):
        broken = _without_edge(graph, u, v)
        assert broken.edge_count == graph.edge_count - 1
        for use in uses:
            with pytest.raises(FiberGraphsError,
                               match="^the row swap does not map the edges onto edges$"):
                use(broken)


def test_unsorted_rows_are_refused(graph_3_2):
    # the automorphism check compares image keys against the graph's own keys,
    # which it takes to be sorted because build_graph sorts every CSR row
    end = graph_3_2.indptr[1]
    indices = graph_3_2.indices.copy()
    indices[:end] = indices[:end][::-1]
    moves = graph_3_2.move_ids.copy()
    moves[:end] = moves[:end][::-1]
    unsorted = FiberGraph(graph_3_2.indptr, indices, fiber=graph_3_2.fiber, move_ids=moves)
    with pytest.raises(FiberGraphsError, match="not sorted"):
        unsorted.automorphisms
