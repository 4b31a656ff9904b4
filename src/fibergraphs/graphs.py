"""Explicit fiber graphs, their weight orientation, and export formats.

Vertices are the fiber tables under their canonical dense ids; two vertices
are adjacent when one move maps one table to the other.  The graph is one
CSR adjacency whose arcs are labelled by basis-move id.  It is built one
basis move at a time: the move is added to every row of the fiber's cell
array whose two subtracted cells are positive, and the results are looked
up in the fiber by binary search, O(|V| log |V|) per move.

Orienting every edge toward the strictly smaller value of a weight vector
turns the graph into a DAG; with the standard weight (row + col)^2 the DAG
has a unique sink, located at the anti-diagonal table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .enumeration import Fiber
from .errors import SizeLimitExceededError, UnsupportedFormatError, ZeroWeightEdgeError
from .tables import ContingencyTable, MarkovMove, enumerate_basis_moves

DOT_VERTEX_LIMIT = 500


@dataclass(frozen=True, eq=False)
class FiberGraph:
    """Undirected simple graph on a fiber, as CSR arcs labelled by move.

    The arcs of u are ``indptr[u]:indptr[u + 1]``, sorted by neighbour;
    ``move_ids[a]`` indexes ``enumerate_basis_moves(n)``.  Each valid move
    gives exactly one arc, because distinct moves are distinct matrices.
    """

    fiber: Fiber
    indptr: np.ndarray
    indices: np.ndarray
    move_ids: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.fiber)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        ptr, idx = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))

    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Plain adjacency (neighbor ids as Python ints), for the graph algorithms."""
        return self._neighbors

    def edges(self) -> list[tuple[int, int]]:
        """Sorted (u, v) pairs with u < v."""
        sources = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
        upper = sources < self.indices
        return list(zip(sources[upper].tolist(), self.indices[upper].tolist()))


def build_graph(fiber: Fiber) -> FiberGraph:
    """Adjacency of the fiber graph: v adjacent to u iff v = u + m for a basis move m.

    Raises KeyError when some u + m is missing from the fiber.
    """
    n, count = fiber.n, len(fiber)
    empty = np.zeros(0, dtype=np.intp)
    sources, targets, labels = [empty], [empty], [empty]
    if n >= 2:
        cells = fiber.cells
        for k, m in enumerate(enumerate_basis_moves(n)):
            (a, b), (c, d) = m.subtracted_cells()
            at = np.flatnonzero((cells[:, a * n + b] >= 1) & (cells[:, c * n + d] >= 1))
            sources.append(at)
            targets.append(fiber.ids_of(cells[at] + np.ravel(m.as_matrix(n))))
            labels.append(np.full(len(at), k, dtype=np.intp))
    u, v = np.concatenate(sources), np.concatenate(targets)
    order = np.lexsort((v, u))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=count))))
    return FiberGraph(fiber, indptr, v[order], np.concatenate(labels)[order])


@dataclass(frozen=True)
class WeightVector:
    """Cell weights used to orient edges; w[i][j] is 1-based via construction."""

    n: int
    w: tuple[tuple[int, ...], ...]

    @classmethod
    def standard(cls, n: int) -> "WeightVector":
        """The (row + col)^2 weight, 1-based: symmetric and strictly increasing."""
        return cls(n, tuple(
            tuple((i + j + 2) ** 2 for j in range(n)) for i in range(n)
        ))

    def negate(self) -> "WeightVector":
        return WeightVector(self.n, tuple(tuple(-x for x in row) for row in self.w))

    def dot(self, t: ContingencyTable) -> int:
        return sum(
            self.w[i][j] * t.entries[i][j] for i in range(self.n) for j in range(self.n)
        )

    def move_weight(self, m: MarkovMove) -> int:
        """w . (move as matrix); the weight change along an edge using this move."""
        total = 0
        for (i, j) in m.added_cells():
            total += self.w[i][j]
        for (i, j) in m.subtracted_cells():
            total -= self.w[i][j]
        return total


@dataclass(frozen=True, eq=False)
class OrientedFiberGraph:
    """Edge orientation of a fiber graph: u -> v whenever w.(v - u) < 0.

    The arcs out of u are ``indices[indptr[u]:indptr[u + 1]]``, the down
    arcs of the base graph's CSR row u, so each row stays sorted.
    """

    base: FiberGraph
    weight: WeightVector
    indptr: np.ndarray
    indices: np.ndarray


def row_arcs(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in ``indices`` of every arc out of the given CSR rows, row by row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def orient(graph: FiberGraph, w: WeightVector) -> OrientedFiberGraph:
    """Direct every edge toward the strictly smaller w-value.

    Raises ZeroWeightEdgeError when some edge has weight change 0 (the
    weight vector then does not induce an orientation).  Any successful
    orientation is automatically acyclic: w.v strictly decreases along
    every directed edge.
    """
    n = graph.fiber.n
    if w.n != n:
        raise ZeroWeightEdgeError(
            f"weight vector is for n={w.n}, graph is for n={n}"
        )
    weights = [w.move_weight(m) for m in enumerate_basis_moves(n)] if n >= 2 else []
    zero = np.array([x == 0 for x in weights], dtype=bool)[graph.move_ids]
    if zero.any():
        arc = int(np.argmax(zero))
        u = int(np.searchsorted(graph.indptr, arc, side="right")) - 1
        raise ZeroWeightEdgeError(f"edge {u} -- {graph.indices[arc]} has zero weight change under w")
    down = np.array([x < 0 for x in weights], dtype=bool)[graph.move_ids]
    indptr = np.concatenate(([0], np.cumsum(down)))[graph.indptr]
    return OrientedFiberGraph(graph, w, indptr, graph.indices[down])


def find_sinks(og: OrientedFiberGraph) -> list[int]:
    """Vertex ids with out-degree 0."""
    return np.flatnonzero(np.diff(og.indptr) == 0).tolist()


def is_acyclic(og: OrientedFiberGraph) -> bool:
    """Kahn's algorithm one level at a time: remove every vertex of in-degree
    0 together with its arcs, and repeat; True when every vertex is removed."""
    indeg = np.bincount(og.indices, minlength=len(og.indptr) - 1)
    level = np.flatnonzero(indeg == 0)
    removed = 0
    while level.size:
        removed += level.size
        heads, counts = np.unique(og.indices[row_arcs(og.indptr, level)], return_counts=True)
        indeg[heads] -= counts
        level = heads[indeg[heads] == 0]
    return removed == len(indeg)


def export_graph(graph: FiberGraph | OrientedFiberGraph, fmt: str) -> str:
    """Deterministic rendering of a graph.

    Edges are read from the graph's CSR rows, so they come out sorted by
    (u, v).  ``edge-list``: one "u v" line per edge with u < v; directed
    graphs list u -> v pairs.  There is no multiplicity column, because each
    edge comes from exactly one move.  ``dot``: Graphviz source with tables
    as node labels, guarded to 500 vertices.
    """
    oriented = isinstance(graph, OrientedFiberGraph)
    base = graph.base if oriented else graph
    if oriented:
        tails = np.repeat(np.arange(base.vertex_count), np.diff(graph.indptr))
        pairs = list(zip(tails.tolist(), graph.indices.tolist()))
    else:
        pairs = base.edges()
    if fmt == "edge-list":
        return "".join(f"{u} {v}\n" for u, v in pairs)
    if fmt == "dot":
        if base.vertex_count > DOT_VERTEX_LIMIT:
            raise SizeLimitExceededError(DOT_VERTEX_LIMIT, context="dot export")
        name = "digraph" if oriented else "graph"
        arrow = "->" if oriented else "--"
        lines = [f"{name} fiber {{"]
        for u, t in enumerate(base.fiber):
            label = "\\n".join(" ".join(str(x) for x in row) for row in t.entries)
            lines.append(f'  {u} [label="{label}"];')
        lines.extend(f"  {u} {arrow} {v};" for u, v in pairs)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise UnsupportedFormatError(f"unknown graph format {fmt!r}")


def vertex_map_json(graph: FiberGraph | OrientedFiberGraph) -> str:
    """Sidecar JSON mapping vertex id -> table rows, for the edge-list export."""
    base = graph.base if isinstance(graph, OrientedFiberGraph) else graph
    return json.dumps(
        {str(u): t.rows() for u, t in enumerate(base.fiber)},
        separators=(",", ":"),
    )
