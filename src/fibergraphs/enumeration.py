"""Exhaustive enumeration of table fibers.

Two deliberately independent code paths cover the table fiber:

* ``enumerate_fiber`` grows every table as one array frontier, a row at a
  time: each partial table takes every row composition of r that fits its
  remaining column budgets, in lex order (the last row is the leftover budget).
* ``count_fiber`` computes the cardinality alone by dynamic programming over
  sorted residual column-margin tuples, never materializing a table.

The two must agree; tests and the CLI cross-check them on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import FiberGraphsError, SizeLimitExceededError
from .tables import ContingencyTable

DEFAULT_CAP = 10_000_000
FRONTIER_BLOCK = 1 << 16  # (partial table, row composition) candidates tested at a time
KEY_LIMIT = 2 ** 63  # keys are int64 while (r+1)^((n-1)^2) is at most this


@dataclass(frozen=True, eq=False)
class Fiber:
    """All tables with the given margins, in canonical (row-major lex) order.

    ``cells`` holds the row-major entries of every table, row k holding vertex
    k: big-endian unsigned ints of one width, or Python ints past 64 bits;
    tables are built from their rows when read.  ``keys`` reads each table's
    leading (n-1) x (n-1) block as base-(r+1) digits, most significant first.
    The margins fix the other cells, so the keys rise strictly with vertex id.
    """

    n: int
    r: int
    cells: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[ContingencyTable]:
        return map(self._table, self.cells.tolist())

    def __getitem__(self, vertex_id: int) -> ContingencyTable:
        return self._table(self.cells[vertex_id].tolist())

    def _table(self, flat: list[int]) -> ContingencyTable:
        return ContingencyTable(self.n, self.r, tuple(zip(*[iter(flat)] * self.n)))  # rows of n

    @cached_property
    def weights(self) -> np.ndarray:
        """Each row-major cell's weight in the keys, 0 off the block, in the keys' dtype."""
        n, base = self.n, self.r + 1
        weights = np.zeros((n, n), dtype=np.int64 if base ** ((n - 1) ** 2) <= KEY_LIMIT else object)
        weights[:-1, :-1].flat = [base ** k for k in reversed(range((n - 1) ** 2))]
        return weights.ravel()

    @cached_property
    def keys(self) -> np.ndarray:
        return self._keys(self.cells)

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        block = np.flatnonzero(self.weights)  # the other cells may pass int64
        return np.clip(rows[:, block], 0, self.r).astype(self.weights.dtype) @ self.weights[block]

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        """Vertex ids of (k, n^2) row-major entry rows, each found by its key (block
        clipped to 0..r) and checked cell by cell; KeyError names the first miss."""
        ids = np.searchsorted(self.keys, self._keys(rows)).clip(max=len(self) - 1)
        found = (self.cells[ids] == rows).all(axis=1)
        if not found.all():
            raise KeyError(tuple(rows[np.argmin(found)].tolist()))
        return ids

    def index_of(self, t: ContingencyTable) -> int:
        """Dense vertex id of a table; KeyError when t is not in the fiber."""
        if t.n != self.n or t.r != self.r:
            raise KeyError(t.entries)
        return int(self.ids_of(np.array([t.row_major()], dtype=object))[0])


def check_size(n: int, r: int) -> None:
    """FiberGraphsError unless n >= 1 and r >= 0."""
    if n < 1:
        raise FiberGraphsError(f"need n >= 1, got {n}")
    if r < 0:
        raise FiberGraphsError(f"need r >= 0, got {r}")


def _row_compositions(total: int, budgets: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Compositions of total into len(budgets) parts with part k <= budgets[k].

    Emitted in lexicographically ascending order, which makes the enumerated
    fiber come out sorted without a final sort.
    """
    n = len(budgets)
    row = [0] * n

    def rec(pos: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if pos == n - 1:
            if remaining <= budgets[pos]:
                row[pos] = remaining
                yield tuple(row)
            return
        lo = max(0, remaining - sum(budgets[pos + 1:]))  # leave room in the later columns
        for v in range(lo, min(remaining, budgets[pos]) + 1):
            row[pos] = v
            yield from rec(pos + 1, remaining - v)

    yield from rec(0, total)


def enumerate_fiber(n: int, r: int, cap: int = DEFAULT_CAP) -> Fiber:
    """Every n x n non-negative integer table with all margins r.

    Raises SizeLimitExceededError as soon as more than ``cap`` tables exist.
    """
    check_size(n, r)
    # every row composition starts some table (n >= 2), and every frontier
    # below extends to at least as many tables as it has rows
    if math.comb(r + n - 1, n - 1) > cap:
        raise SizeLimitExceededError(cap, context="fiber enumeration")
    dtype = np.min_scalar_type(r)
    # columns[j]: entry j of every row composition, compositions in lex order
    compositions = chain.from_iterable(_row_compositions(r, (r,) * n))
    columns = np.fromiter(compositions, dtype=dtype).reshape(-1, n).T.copy()
    # several partial tables against every composition, or one against a run of them
    width = min(columns.shape[1], FRONTIER_BLOCK)
    step = max(1, FRONTIER_BLOCK // width)
    # frontier row: the rows chosen so far, then the remaining column budgets
    frontier = np.full((1, n), r, dtype=dtype)
    for i in range(1, n):
        blocks, count = [], 0
        for start in range(0, len(frontier), step):
            block = frontier[start:start + step]
            budgets = block[:, -n:]
            for first in range(0, columns.shape[1], width):
                # row-major order: each partial table's rows in lex order, so sorted
                fits = columns[:, first:first + width] <= budgets[:, :, None]
                k, c = np.nonzero(fits.all(axis=1))
                count += len(k)
                if count > cap:
                    raise SizeLimitExceededError(cap, context="fiber enumeration")
                rows = columns[:, first + c].T
                blocks.append(np.hstack([block[k, :-n], rows, budgets[k] - rows]))
        frontier = np.concatenate(blocks)
    # the last row is the leftover budget, which sums to r
    return Fiber(n, r, frontier.astype(dtype.newbyteorder(">"), copy=False))


def count_fiber(n: int, r: int) -> int:
    """|fiber(n, r)| by transfer-matrix DP, without enumerating tables.

    State = sorted tuple of residual column margins; sorting collapses
    column-symmetric states.  Exact big-integer arithmetic throughout.
    """
    check_size(n, r)

    states = {(r,) * n: 1}  # state -> partial tables that reach it, a row at a time
    for _ in range(n):
        reached: dict[tuple[int, ...], int] = {}
        for residual, ways in states.items():
            for comp in _row_compositions(r, residual):
                nxt = tuple(sorted(b - c for b, c in zip(residual, comp)))
                reached[nxt] = reached.get(nxt, 0) + ways
        states = reached
    return states.get((0,) * n, 0)
