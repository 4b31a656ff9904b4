"""Properties of the array-backed fiber and of the graphs built on it: tables
read from ``cells`` are exact, moves come in negated pairs, and connectivity
on drawn small graphs agrees with the brute-force oracles."""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibergraphs import io
from fibergraphs.analysis import local_connectivity, vertex_connectivity
from fibergraphs.decomposition import decompose
from fibergraphs.enumeration import count_fiber, enumerate_fiber
from fibergraphs.graphs import CsrGraph, build_graph
from fibergraphs.sampler import _keeps_margins, _margins_ok
from fibergraphs.tables import move_cells, validate_table

from oracles import (
    brute_distance_two_pairs,
    brute_is_connected,
    brute_local_connectivity,
    brute_vertex_connectivity,
)


@settings(deadline=None)
@given(n=st.integers(1, 4), r=st.integers(0, 3))
def test_tables_read_from_cells_are_exact(n, r):
    fiber = enumerate_fiber(n, r)
    assert len(fiber) == count_fiber(n, r)
    tables = [fiber[k] for k in range(len(fiber))]
    assert list(fiber) == tables
    for k, t in enumerate(tables):
        # Python ints, not numpy scalars: JSON needs them, and a uint8 would wrap
        assert all(type(x) is int for row in t.entries for x in row)
        assert validate_table(n, r, t.entries) == t
        assert fiber.index_of(t) == k
    vectors = [t.row_major() for t in tables]
    assert all(a < b for a, b in zip(vectors, vectors[1:]))


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 5) for r in range(4)])
def test_every_arc_has_its_reverse_by_the_negated_move(n, r):
    # move k ^ 1 is the negation of move k, so u -> v by k means v -> u by k ^ 1
    graph = build_graph(enumerate_fiber(n, r))
    size, moves = graph.vertex_count, 2 * comb(n, 2) ** 2
    tails = np.repeat(np.arange(size), np.diff(graph.indptr))
    forward = (tails * size + graph.indices) * moves + graph.move_ids
    backward = (graph.indices * size + tails) * moves + (graph.move_ids ^ 1)
    assert np.array_equal(np.sort(forward), np.sort(backward))


@st.composite
def small_graphs(draw, min_size: int = 2, max_size: int = 8) -> list[list[int]]:
    """Rows of a simple graph on min_size to max_size vertices, each row in drawn order."""
    n = draw(st.integers(min_size, max_size))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows: list[list[int]] = [[] for _ in range(n)]
    for (u, v), edge in zip(pairs, edges):
        if edge:
            rows[u].append(v)
            rows[v].append(u)
    return [draw(st.permutations(row)) for row in rows]


def _disconnects(rows, cut) -> bool:
    """Whether the vertices outside ``cut`` induce a disconnected graph."""
    alive = {x: i for i, x in enumerate(x for x in range(len(rows)) if x not in cut)}
    return not brute_is_connected([[alive[y] for y in rows[x] if y in alive] for x in alive])


@settings(deadline=None, max_examples=150)
@given(rows=small_graphs())
def test_connectivity_of_small_graphs_matches_the_oracles(rows):
    graph = CsrGraph.from_rows(rows)
    report = vertex_connectivity(graph)
    assert report.kappa == brute_vertex_connectivity(rows)
    if report.complete:
        assert report.witness_cut is None
    else:
        # the witness cut has kappa vertices and leaves the rest disconnected
        cut = report.witness_cut
        assert len(cut) == report.kappa
        assert _disconnects(rows, cut)
    for u, v in combinations(range(len(rows)), 2):
        if v not in rows[u]:
            assert local_connectivity(graph, u, v) == brute_local_connectivity(rows, u, v)


@settings(deadline=None, max_examples=150)
@given(rows=small_graphs(3, 9))
def test_kappa_is_the_least_flow_over_distance_two_pairs(rows):
    # a minimum cut separates two neighbours of each of its vertices, which
    # are at distance 2; so no pair family beyond the distance-2 pairs is needed
    pairs = brute_distance_two_pairs(rows)
    assume(brute_is_connected(rows) and pairs)  # connected and not complete
    report = vertex_connectivity(CsrGraph.from_rows(rows))
    assert report.kappa == min(brute_local_connectivity(rows, u, w) for u, w in pairs)
    cut = report.witness_cut
    assert len(cut) == report.kappa
    assert _disconnects(rows, cut)


_fiber = lru_cache(maxsize=None)(enumerate_fiber)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 4), r=st.integers(1, 3))
def test_a_proven_move_keeps_the_margins(data, n, r):
    # any four cells, or a basis move's cells in any order (a third of the
    # orders keep the margins); the kernel's writes then keep the table in G(n, r)
    cells = st.integers(-n * n, n * n)
    shapes = [st.tuples(cells, cells, cells, cells)]
    if n >= 2:
        shapes.append(st.sampled_from(move_cells(n)).flatmap(st.permutations).map(tuple))
    move = data.draw(st.one_of(shapes))
    if not _keeps_margins(n, move):
        return
    sub1, sub2, add1, add2 = move
    fiber = _fiber(n, r)
    tables = np.flatnonzero((fiber.cells[:, sub1] >= 1) & (fiber.cells[:, sub2] >= 1))
    entries = fiber.cells[data.draw(st.sampled_from(tables.tolist()))].tolist()
    a, b = entries[sub1], entries[sub2]
    entries[sub1] = a - 1
    entries[sub2] = b - 1
    entries[add1] += 1
    entries[add2] += 1
    assert _margins_ok(n, r, entries)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_basis_move_is_proven(n):
    assert all(_keeps_margins(n, move) for move in move_cells(n))


@st.composite
def constrained_tables(draw):
    """A table of G(n, r), n <= 4 and 1 <= r <= 4, and up to r constraint
    cells, each drawn from what the table holds after the cells before it."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fiber = _fiber(n, r)
    t = fiber[draw(st.integers(0, len(fiber) - 1))]
    budget = t.rows()
    positions = []
    for _ in range(draw(st.integers(0, r))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if budget[i][j]]))
        budget[i][j] -= 1
        positions.append((i + 1, j + 1))
    return t, positions


@settings(deadline=None, max_examples=200)
@given(drawn=constrained_tables())
def test_constrained_parts_are_permutations_over_shrinking_residuals(drawn):
    t, positions = drawn
    n, r = t.n, t.r
    dec = decompose(t, positions)
    assert len(dec.parts) == r
    residual = np.array(t.entries, dtype=np.int64)
    covered = np.zeros((n, n), dtype=np.int64)
    needed = np.zeros((n, n), dtype=np.int64)
    for l, part in enumerate(dec.parts, start=1):
        matrix = np.array(part.entries, dtype=np.int64)
        # a permutation matrix: non-negative, with each row and column summing to 1
        assert validate_table(n, 1, part.entries) == part
        residual -= matrix
        validate_table(n, r - l, residual.tolist())
        # the first l parts cover the first l constraint cells, with multiplicity
        covered += matrix
        if l <= len(positions):
            needed[positions[l - 1][0] - 1, positions[l - 1][1] - 1] += 1
        assert (covered >= needed).all()
    assert not residual.any()
    # the first part is the least matching through the first constraint cell alone
    assert dec.parts[0] == decompose(t, positions[:1]).parts[0]


# every shape a table file may take: CSV, a bare JSON array, or a JSON object
# holding the rows with none, one or both of n and r
TABLE_FILE_SHAPES = {
    "csv": lambda t: "".join(",".join(map(str, row)) + "\n" for row in t.rows()),
    "json-array": lambda t: json.dumps(t.rows()),
    "json-rows": lambda t: json.dumps({"rows": t.rows()}),
    "json-n": lambda t: json.dumps({"n": t.n, "rows": t.rows()}),
    "json-r": lambda t: json.dumps({"r": t.r, "rows": t.rows()}),
    "json-n-r": lambda t: json.dumps({"n": t.n, "r": t.r, "rows": t.rows()}),
}


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 4), r=st.integers(0, 4),
       shape=st.sampled_from(sorted(TABLE_FILE_SHAPES)))
def test_test_and_sample_read_the_same_table(tmp_path_factory, data, n, r, shape):
    # test, sample and decompose share io.load_table, which reads every shape back exactly
    fiber = _fiber(n, r)
    t = fiber[data.draw(st.integers(0, len(fiber) - 1))]
    path = tmp_path_factory.getbasetemp() / f"drawn.{shape.split('-')[0]}"
    path.write_text(TABLE_FILE_SHAPES[shape](t))
    assert io.load_table(path) == t

