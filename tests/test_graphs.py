from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from fibergraphs import enumeration, graphs
from fibergraphs.enumeration import Fiber, enumerate_fiber
from fibergraphs.errors import FiberGraphsError, SizeLimitExceededError
from fibergraphs.graphs import (
    CsrGraph,
    OrientedFiberGraph,
    _cell_symmetries,
    _check_line_maps,
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
    apply_move,
    move_cells,
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


def test_pair_multiplicity_is_one():
    # distinct basis moves are distinct matrices, so a vertex pair is never
    # connected by two different moves: each valid move gives exactly one arc,
    # from u to the table that move gives, and each CSR row strictly increases
    for n, r in itertools.product(range(1, 5), range(4)):
        g = build_graph(enumerate_fiber(n, r))
        for u, t in enumerate(g.fiber):
            row = g.neighbors(u).tolist()
            assert row == sorted(set(row)), (n, r, u)
            labels = g.move_ids[g.indptr[u]:g.indptr[u + 1]].tolist()
            assert sorted(labels) == valid_moves(t), (n, r, u)
            heads = [tuple(g.fiber.cells[v].tolist()) for v in row]
            assert heads == [apply_move(t, k).row_major() for k in labels], (n, r, u)


def test_wide_keys_on_a_long_path():
    # 70,001 tables whose entries need 32 bits; a G(2, r) table's key is its
    # top-left cell, so the keys are int64 and every lookup still compares cells
    graph = build_graph(enumerate_fiber(2, 70_000))
    fiber = graph.fiber
    assert graph.vertex_count == 70_001
    assert graph.edges() == [(k, k + 1) for k in range(70_000)]
    for k in (0, 35_000, 70_000):
        assert fiber.index_of(fiber[k]) == k
    with pytest.raises(KeyError):
        fiber.index_of(validate_table(2, 69_999, [[0, 69_999], [69_999, 0]]))
    with pytest.raises(KeyError):
        # same n and r, and key 35,000, but table 35,000 has other cells
        fiber.index_of(ContingencyTable(2, 70_000, ((35_000, 35_001), (35_001, 35_000))))


@pytest.mark.parametrize("block", [1, 50])
@pytest.mark.parametrize("n, r", [(3, 3), (4, 2)], ids=str)
def test_python_int_keys_and_tiny_blocks_build_the_same_graph(monkeypatch, n, r, block):
    # G(9, 1) and G(10, 1) are the fibers under the cap whose keys pass the
    # int64 limit; lowering it sends small fibers down their path, a few
    # (table, move) pairs at a time
    whole = build_graph(enumerate_fiber(n, r))
    images = whole.fiber.cells[:, _cell_symmetries(n)["transpose"].ravel()]
    monkeypatch.setattr(enumeration, "KEY_LIMIT", 1)
    monkeypatch.setattr(graphs, "BUILD_BLOCK", block)
    tiled = build_graph(enumerate_fiber(n, r))
    assert tiled.fiber.keys.dtype == object
    assert tiled.fiber.keys.tolist() == whole.fiber.keys.tolist()
    for name in ("indptr", "indices", "move_ids"):
        assert getattr(tiled, name).dtype == getattr(whole, name).dtype, name
        assert np.array_equal(getattr(tiled, name), getattr(whole, name)), name
    assert np.array_equal(tiled.fiber.ids_of(images), whole.fiber.ids_of(images))
    with pytest.raises(KeyError):
        tiled.fiber.ids_of(images + 1)


def test_a_table_missing_from_the_fiber_is_a_key_error():
    whole = enumerate_fiber(3, 2)
    with pytest.raises(KeyError) as caught:
        build_graph(Fiber(3, 2, np.delete(whole.cells, 5, axis=0)))
    assert caught.value.args[0] == whole[5].entries


def _heads(og, u):
    """Heads of the arcs out of u, as Python ints: the down arcs of its base row."""
    a, b = og.base.indptr[u], og.base.indptr[u + 1]
    return og.base.indices[a:b][og.down[a:b]].tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_even_move_ids_are_the_moves_that_lower_the_weight(n):
    # the change of w.t under a move is the weight of the move's own matrix
    for k, (a, b, c, d) in enumerate(move_cells(n)):
        matrix = [[0] * n for _ in range(n)]
        for cell, sign in ((a, -1), (b, -1), (c, 1), (d, 1)):
            matrix[cell // n][cell % n] = sign
        change = orientation_weight(matrix)
        assert change != 0 and (change < 0) == (k % 2 == 0), (n, k, change)


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


def test_is_acyclic_detects_a_cycle():
    # the arcs 0 -> 1 -> 2 -> 0 form a cycle; 3 -> 4 -> 5 is a path
    def directed(heads):
        base = CsrGraph.from_rows(heads)
        return OrientedFiberGraph(base, np.ones(len(base.indices), dtype=bool))

    cyclic = directed([[1], [2], [0], [4], [5], []])
    assert is_acyclic(cyclic) is False
    assert find_sinks(cyclic) == [5]
    path = directed([[1], [2], [], [4], [5], []])
    assert is_acyclic(path) is True


@pytest.mark.parametrize("n, r", [(1, 3), (3, 0)], ids=str)
def test_a_single_table_is_the_one_sink_of_an_acyclic_graph(n, r):
    og = orient(build_graph(enumerate_fiber(n, r)))
    assert og.base.vertex_count == 1 and len(og.down) == 0
    assert find_sinks(og) == [0]
    assert is_acyclic(og) is True


def test_every_directed_edge_decreases_weight():
    # and every edge is directed one way: the arcs out of u and out of v hold it once
    for n in range(1, 5):
        for r in range(4):
            graph = build_graph(enumerate_fiber(n, r))
            og = orient(graph)
            values = np.array([orientation_weight(t.entries) for t in graph.fiber])
            tails = np.repeat(np.arange(graph.vertex_count), np.diff(graph.indptr))[og.down]
            heads = graph.indices[og.down]
            assert (values[heads] < values[tails]).all(), (n, r)
            assert len(heads) == graph.edge_count, (n, r)


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
    # the arc-level reference for what _check_line_maps proves on the cells
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
    for perm, act in zip(symmetry_generators(graph.fiber).values(), actions):
        assert sorted(perm.tolist()) == list(range(graph.vertex_count))
        assert _edge_set(graph, perm) == edges
        assert all(graph.fiber[int(perm[x])].entries == act(t.entries)
                   for x, t in enumerate(graph.fiber))


def test_generators_and_orbits_are_read_only_and_computed_once_per_fiber(graph_3_3):
    fiber = graph_3_3.fiber
    generators, labels = symmetry_generators(fiber), vertex_orbits(fiber)
    assert symmetry_generators(fiber) is generators and vertex_orbits(fiber) is labels
    for array in (*generators.values(), labels):
        with pytest.raises(ValueError):
            array[0] = 1
    # a second enumeration of the same fiber gets its own, equal labels
    again = vertex_orbits(enumerate_fiber(3, 3))
    assert again is not labels and np.array_equal(again, labels)


def _exchange(n, *cells):
    """The (n, n) cell ids with two cells, given as (row, column), exchanged."""
    p = np.arange(n * n).reshape(n, n)
    (a, b), (c, d) = cells
    p[a, b], p[c, d] = p[c, d], p[a, b]
    return p


@pytest.mark.parametrize("n, cells", [(2, ((0, 0), (0, 1))), (3, ((0, 0), (1, 1))),
                                      (4, ((0, 0), (1, 1))), (3, ((0, 0), (2, 2)))])
def test_the_line_check_refuses_a_cell_exchange(n, cells):
    name = f"exchange of cells {cells[0]} and {cells[1]}"
    with pytest.raises(FiberGraphsError,
                       match=f"^the {re.escape(name)} does not map the lines of a table onto lines$"):
        _check_line_maps({"transpose": np.arange(n * n).reshape(n, n).T, name: _exchange(n, *cells)})
    # a repeated cell is refused as well: it leaves some line short
    repeated = np.arange(n * n).reshape(n, n)
    repeated[-1, -1] = 0
    with pytest.raises(FiberGraphsError, match="^the repeat does not map"):
        _check_line_maps({"repeat": repeated})


def test_the_line_check_accepts_the_antitranspose_of_a_2x2_table():
    # for n = 2, exchanging cells (0, 0) and (1, 1) reflects the table in its
    # anti-diagonal, a row swap and a column swap after the transpose
    _check_line_maps({"exchange": _exchange(2, (0, 0), (1, 1))})
    assert _exchange(2, (0, 0), (1, 1)).tolist() == np.arange(4).reshape(2, 2).T[::-1, ::-1].tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_cell_symmetries_map_moves_onto_moves(n):
    # a table's cells t map to t[p], so a move's vector m maps to m[p]
    moves = np.zeros((len(move_cells(n)), n * n), dtype=int)
    for k, (a, b, c, d) in enumerate(move_cells(n)):
        moves[k, [a, b]], moves[k, [c, d]] = -1, 1
    rows = {tuple(m) for m in moves.tolist()}
    assert len(rows) == len(moves)
    for p in _cell_symmetries(n).values():
        assert {tuple(m) for m in moves[:, p.ravel()].tolist()} == rows
