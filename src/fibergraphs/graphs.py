"""Explicit fiber graphs, their weight orientation, and export formats.

Vertices are the fiber tables under their canonical dense ids; two vertices
are adjacent when one move maps one table to the other.  The graph is one
CSR adjacency whose arcs are labelled by basis-move id, built in one pass
over the tables: each arc's head is found by binary search in the fiber's
integer table keys, O(|E| log |V|) in all, and no sort follows.

Row permutations, column permutations and the transpose act on the graph as
automorphisms: a group of order 2(n!)^2, generated by a row swap, a row
n-cycle and the transpose.  Each is one permutation of a table's n^2
cells, proven with no graph to map lines onto lines.

Orienting every edge toward the strictly smaller value of the weight
(row + col)^2, summed over a table's cells, turns the graph into a DAG with
a unique sink, located at the anti-diagonal table.  The orientation is one
mask over the graph's own arcs: an arc points down when its move id is even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from itertools import chain, permutations
from typing import Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .enumeration import Fiber
from .errors import FiberGraphsError, SizeLimitExceededError
from .io import format_rows, json_row_separators
from .tables import apply_move, as_integer, move_cells

DOT_VERTEX_LIMIT = 500
BUILD_BLOCK = 1 << 16  # (table, move) pairs tested at a time by build_graph


def weakly_memoised(compute):
    """Memoise compute(key) for as long as the key object lives."""
    results: WeakKeyDictionary = WeakKeyDictionary()

    @wraps(compute)
    def cached(key):
        if key not in results:
            results[key] = compute(key)
        return results[key]
    return cached


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Undirected simple graph as CSR: the neighbours of u are
    ``indices[indptr[u]:indptr[u + 1]]``.

    A plain graph has no known symmetry, so every vertex and pair is its
    own orbit.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CsrGraph":
        """The graph whose row u lists the neighbours of u, in the given order."""
        rows = [list(row) for row in rows]
        indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
        indices = np.fromiter((v for row in rows for v in row), dtype=np.int64, count=indptr[-1])
        return cls(indptr, indices)

    @property
    def vertex_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def check_vertex(self, x: int) -> int:
        """x as a Python int; FiberGraphsError unless it is a vertex id (an integer, no bool)."""
        u = as_integer(x)
        if u is None or not 0 <= u < self.vertex_count:
            raise FiberGraphsError(f"vertex {x} is not in 0..{self.vertex_count - 1}")
        return u

    def neighbors(self, u: int) -> np.ndarray:
        """The CSR row of u."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def edges(self) -> list[tuple[int, int]]:
        """Sorted (u, v) pairs with u < v."""
        sources = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
        upper = sources < self.indices
        return list(zip(sources[upper].tolist(), self.indices[upper].tolist()))


@dataclass(frozen=True, eq=False)
class FiberGraph(CsrGraph):
    """The graph on a fiber, its CSR arcs labelled by move.

    The arcs of u are sorted by neighbour; ``move_ids[a]``, of the narrowest
    unsigned dtype, is the arc's move id, its row in ``move_cells(n)``.  Each
    valid move gives exactly one arc, because distinct moves are distinct matrices.
    """

    fiber: Fiber
    move_ids: np.ndarray


def _check_line_maps(cell_perms: dict[str, np.ndarray]) -> None:
    """Raise FiberGraphsError, naming it, for the first (n, n) array p of
    cell ids whose rows and columns are not, as sets, the grid's 2n lines.

    p maps a table t to t[p], whose lines read t on the lines of p.  When
    these are the grid's lines, each cell is in two of them, so once in p,
    and every margin stays: p maps the fiber onto itself (``Fiber.ids_of``
    looks the images up).  The rows of p are disjoint lines, and a row meets
    every column, so they are all rows or all columns: p permutes rows and
    columns, with or without the transpose.  So it maps each rectangle's
    diagonal to a rectangle's diagonal, and the rows of ``move_cells(n)``
    onto themselves.  As ``build_graph`` joins exactly the move
    differences, p is an automorphism of every G(n, r).
    """
    for name, p in cell_perms.items():
        lines = [{frozenset(line) for line in chain(a.tolist(), a.T.tolist())}
                 for a in (p, np.arange(p.size).reshape(p.shape))]
        if lines[0] != lines[1]:
            raise FiberGraphsError(f"the {name} does not map the lines of a table onto lines")


def _cell_symmetries(n: int) -> dict[str, np.ndarray]:
    """A row swap, a row n-cycle and the transpose as checked (n, n) arrays of cell ids."""
    grid, rows = np.arange(n * n).reshape(n, n), np.arange(n)
    cell_perms = {"row swap": grid[np.r_[rows[1::-1], rows[2:]]],
                  "row cycle": grid[np.roll(rows, 1)], "transpose": grid.T}
    _check_line_maps(cell_perms)
    return cell_perms


@weakly_memoised
def symmetry_generators(fiber: Fiber) -> dict[str, np.ndarray]:
    """Vertex permutations of ``_cell_symmetries``, read-only, computed once per
    fiber: they generate the 2(n!)^2 row and column permutations and transposes."""
    generators = {name: fiber.ids_of(fiber.cells[:, p.ravel()])
                  for name, p in _cell_symmetries(fiber.n).items()}
    for perm in generators.values():
        perm.flags.writeable = False
    return generators


def _orbit_labels(size: int, perms: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest member of each element's orbit under the group the
    permutations generate: min-label propagation along every i -- perm[i],
    with pointer jumping, until nothing changes."""
    labels = np.arange(size)
    while True:
        new = labels.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
            new[perm] = np.minimum(new[perm], new)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


@weakly_memoised
def vertex_orbits(fiber: Fiber) -> np.ndarray:
    """Each table's orbit under ``symmetry_generators``, labelled by its least
    vertex id (a representative): a read-only array, computed once per fiber."""
    labels = _orbit_labels(len(fiber), list(symmetry_generators(fiber).values()))
    labels.flags.writeable = False
    return labels


def stabiliser(table: np.ndarray) -> np.ndarray:
    """Every symmetry that fixes the table with row-major cells ``table``:
    the (k, n^2) cell permutations p with table[p] == table.

    Each of the 2 n! row permutations s, with or without the transpose, is
    tried in O(n^3): column t(j) of table[s] must equal column j of the
    table, so t is the least matching of equal columns composed with each
    permutation of the table's columns that fixes it.
    """
    n = math.isqrt(table.size)
    orders, b = np.array(list(permutations(range(n)))), table.reshape(n, n)
    grid = np.arange(n * n).reshape(n, n)
    rows = np.concatenate((grid[orders], grid.T[orders]))  # cell ids after each row order
    same = (b[:, :, None] == b[:, None, :]).all(axis=0)
    rank = np.tril(same, -1).sum(axis=1)  # equal columns of b before column j
    fixing = orders[(b[:, orders] == b[:, None, :]).all(axis=(0, 2))]
    match = (table[rows][..., None, :] == b[:, :, None]).all(axis=1)  # [s, j, t(j)]
    s = np.flatnonzero((match.sum(axis=2) == same.sum(axis=1)).all(axis=1))
    pick = match[s] & (np.cumsum(match[s], axis=2) == rank[:, None] + 1)
    cols = pick.argmax(axis=2)[:, fixing]
    maps = np.take_along_axis(rows[s][:, None], cols[:, :, None], axis=3)
    return maps.reshape(-1, n * n)


def build_graph(fiber: Fiber) -> FiberGraph:
    """Adjacency of the fiber graph: v adjacent to u iff v = u + m for a basis move m.

    key(u + m) = key(u) + weights . m and keys rise with vertex id, so with the
    moves sorted by weights . m, those valid at u reach its neighbours in order:
    per block of about BUILD_BLOCK (table, move) pairs, one mask and one binary
    search in the keys.  KeyError names a table u + m missing from the fiber.
    """
    moves = np.array(move_cells(fiber.n), dtype=np.intp).reshape(-1, 4)
    delta = fiber.weights[moves] @ np.array([-1, -1, 1, 1])
    labels = np.argsort(delta, kind="stable").astype(np.min_scalar_type(len(moves)))
    moves, delta, keys, parts = moves[labels], delta[labels], fiber.keys, []
    step = max(1, BUILD_BLOCK // max(len(moves), 1))
    for start in range(0, len(fiber), step):
        positive = fiber.cells[start:start + step] != 0
        valid = positive[:, moves[:, 0]] & positive[:, moves[:, 1]]
        u, k = np.divmod(np.flatnonzero(valid), len(moves))  # np.nonzero is slower
        want = keys[start + u] + delta[k]
        v = np.searchsorted(keys, want)
        for i in np.flatnonzero(keys.take(v, mode="clip") != want)[:1]:
            raise KeyError(apply_move(fiber[int(start + u[i])], int(labels[k[i]])).entries)
        parts.append((valid.sum(axis=1), v, labels[k]))
    degrees, indices, move_ids = map(np.concatenate, zip(*parts))
    return FiberGraph(np.concatenate(([0], np.cumsum(degrees))), indices, fiber=fiber, move_ids=move_ids)


@dataclass(frozen=True, eq=False)
class OrientedFiberGraph:
    """Edge orientation of a fiber graph by ``orient``: u -> v whenever w.(v - u) < 0.

    ``down[a]`` marks the arcs of the base graph's CSR that point down, one
    byte per arc: each edge is held by the arc of its upper end.
    """

    base: FiberGraph
    down: np.ndarray


def row_arcs(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in ``indices`` of every arc out of the given CSR rows, row by row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


TWO_HOP_BLOCK = 1 << 16  # two-arc walks gathered at a time by two_hop_pairs


def two_hop_pairs(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every pair (u, w), u < w, u in the increasing int64 array ``rows``,
    joined by a two-arc walk but by no arc, as a (P, 2) int64 array sorted
    by (u, w).

    The rows are taken in blocks of at most about TWO_HOP_BLOCK walks (a
    row with more walks is a block of its own).  A block's walk ends w > u
    become u*V + w keys, which are sorted and deduplicated, and the arcs are
    dropped by binary search in the block's sorted arc keys.
    """
    size = len(indptr) - 1
    degree = np.diff(indptr)
    mids = indices[row_arcs(indptr, rows)]
    # first[k]: the first of the mids of rows[k]; walks[k]: the walks out of rows[:k]
    first = np.concatenate(([0], np.cumsum(degree[rows])))
    walks = np.concatenate(([0], np.cumsum(degree[mids])))[first]
    blocks, start = [np.zeros(0, dtype=np.int64)], 0
    while start < len(rows):
        stop = max(int(np.searchsorted(walks, walks[start] + TWO_HOP_BLOCK, side="right")) - 1, start + 1)
        block = rows[start:stop]
        sources = np.repeat(block, degree[block])
        mid = mids[first[start]:first[stop]]
        near = np.sort(sources * size + mid)
        ends = indices[row_arcs(indptr, mid)]
        sources = np.repeat(sources, degree[mid])
        ahead = ends > sources
        keys = np.sort(sources[ahead] * size + ends[ahead])
        at = np.minimum(np.searchsorted(near, keys), len(near) - 1)
        keep = near[at] != keys
        keep[1:] &= keys[1:] != keys[:-1]  # np.unique is many times slower than this
        blocks.append(keys[keep])
        start = stop
    return np.stack(np.divmod(np.concatenate(blocks), max(size, 1)), axis=1)


def orient(graph: FiberGraph) -> OrientedFiberGraph:
    """Direct every edge toward the strictly smaller value of w.t, where
    w[i][j] = (i + j)^2 with 1-based rows i and columns j.

    The move subtracting from the diagonal of rows i1 < i2 and columns
    j1 < j2 changes w.t by (i1 + j2)^2 + (i2 + j1)^2 - (i1 + j1)^2 -
    (i2 + j2)^2 = -2(i2 - i1)(j2 - j1) < 0, and its negation by the opposite.
    ``move_cells`` numbers them 2k and 2k + 1, so an arc points down exactly
    when its move id is even.  w.t falls along every arc, so no arcs cycle.
    """
    return OrientedFiberGraph(graph, (graph.move_ids & 1) == 0)


def find_sinks(og: OrientedFiberGraph) -> list[int]:
    """Vertex ids with out-degree 0: no down arc in their CSR row."""
    before = np.searchsorted(np.flatnonzero(og.down), og.base.indptr)  # down arcs before each row
    return np.flatnonzero(np.diff(before) == 0).tolist()


def is_acyclic(og: OrientedFiberGraph) -> bool:
    """Kahn's algorithm one level at a time: remove every vertex of in-degree
    0 together with its arcs, and repeat; True when every vertex is removed."""
    indptr, indices = og.base.indptr, og.base.indices
    indeg = np.bincount(indices[og.down], minlength=len(indptr) - 1)
    level = np.flatnonzero(indeg == 0)
    removed = 0
    while level.size:
        removed += level.size
        arcs = row_arcs(indptr, level)
        heads, counts = np.unique(indices[arcs[og.down[arcs]]], return_counts=True)
        indeg[heads] -= counts
        level = heads[indeg[heads] == 0]
    return removed == len(indeg)


def export_graph(graph: FiberGraph | OrientedFiberGraph, fmt: str) -> Iterator[bytes]:
    """Deterministic rendering of a graph, as blocks of ASCII bytes.

    Edges are read from the graph's CSR rows, so they come out sorted by
    (u, v).  ``edge-list``: one "u v" line per edge with u < v; directed
    graphs list u -> v pairs.  There is no multiplicity column, because each
    edge comes from exactly one move.  ``dot``: Graphviz source with tables
    as node labels, guarded to 500 vertices (checked before any block).
    """
    oriented = isinstance(graph, OrientedFiberGraph)
    base = graph.base if oriented else graph
    tails = np.repeat(np.arange(base.vertex_count), np.diff(base.indptr))
    heads = base.indices
    keep = graph.down if oriented else tails < heads  # undirected: each edge once, as u < v
    tails, heads = tails[keep], heads[keep]
    if fmt == "edge-list":
        return format_rows(["", " ", "\n"], [tails, heads])
    if fmt == "dot":
        if base.vertex_count > DOT_VERTEX_LIMIT:
            raise SizeLimitExceededError(DOT_VERTEX_LIMIT, context="dot export")
        name, arrow = ("digraph", "->") if oriented else ("graph", "--")
        n = base.fiber.n
        between = ["\\n" if j % n == 0 else " " for j in range(1, n * n)]
        ids = np.arange(base.vertex_count)
        nodes = format_rows(["  ", ' [label="', *between, '"];\n'], [ids, *base.fiber.cells.T])
        edges = format_rows(["  ", f" {arrow} ", ";\n"], [tails, heads])
        return chain([f"{name} fiber {{\n".encode("ascii")], nodes, edges, [b"}\n"])
    raise FiberGraphsError(f"unknown graph format {fmt!r}")


def vertex_map_json(graph: FiberGraph | OrientedFiberGraph) -> Iterator[bytes]:
    """Sidecar JSON mapping vertex id -> table rows, for the edge-list export, in blocks."""
    fiber = (graph.base if isinstance(graph, OrientedFiberGraph) else graph).fiber
    # every entry ends in a comma; the last block's becomes the closing brace
    literals = ['"', '":[[', *json_row_separators(fiber.n), "]],"]
    held = b"{"
    for block in format_rows(literals, [np.arange(len(fiber)), *fiber.cells.T]):
        yield held
        held = block
    yield held[:-1] + b"}"
