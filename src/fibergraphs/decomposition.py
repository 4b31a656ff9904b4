"""Decomposing tables into permutation matrices, with prefix constraints.

A table with margins r is the biadjacency matrix of an r-regular bipartite
multigraph, which splits into r perfect matchings; each matching is a 0/1
permutation pattern and the patterns sum back to the table.  Listed
constraint cells, when given, are forced to be covered by the matching
prefix in order.

One kernel, ``decompose_tables``, decomposes a batch of n x n tables at once;
``decompose`` is a batch of one.  The batch's residual tables are one
(B, n^2) array.  Each of the r rounds takes from every residual its
lexicographically least perfect matching on the positive cells, through the
residual's first remaining constraint cell when one is left.
Subtracting the parts, checking that no cell goes below 0 and letting each
part absorb the later constraints it covers are array operations on the
whole batch.

Ties go to the lexicographically least row-to-column assignment, so
decompositions are reproducible.  That assignment is read from one of two
routines, which give the same matching:

* for n <= TABLE_MAX_N, the table of all n! permutations of range(n) in
  lexicographic order (``itertools.permutations``), each with its cells as a
  bitmask: a residual's matching is the first row whose cells are all
  positive and include the forced cell.  That row is the least assignment by
  the table's order.
* above it, the augmenting-path greedy, one residual at a time.  It fixes the
  rows in order, each to its least column that still leaves a perfect
  matching (multiplicities act as capacities and never need duplicating).
  Every assignment it rejects is smaller and has no completion, and the one
  it builds is complete, so it is the same least assignment, found in
  polynomial time.  The table's (B, n!) comparison grows by the factor n:
  at n = 7 it is 20 MB for 500 residuals, at n = 8 160 MB.

The parts are kept as their matchings, one column per row; they become
tables only when read.  ``failed_tables`` is the one checker of that
format: verify's konig and decomp-constrained checks and the decompose
command all take their verdicts from it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .enumeration import DEFAULT_CAP
from .errors import FiberGraphsError, SizeLimitExceededError
from .tables import ContingencyTable, as_integer

Position = tuple[int, int]  # 1-based (row, col)

TABLE_MAX_N = 6  # the largest n whose matchings are read from the permutation table


def _max_matching(support: Sequence[Sequence[int]], banned_rows: set[int],
                  banned_cols: set[int]) -> int:
    """Size of a maximum matching on the support graph avoiding banned lines."""
    n = len(support)
    match_col = [-1] * n

    def augment(i: int, seen: list[bool]) -> bool:
        for j in support[i]:
            if j in banned_cols or seen[j]:
                continue
            seen[j] = True
            if match_col[j] < 0 or augment(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    size = 0
    for i in range(n):
        if i not in banned_rows and augment(i, [False] * n):
            size += 1
    return size


def _greedy_matching(support: Sequence[Sequence[int]], forced: Position | None) -> list[int] | None:
    """Column of each row in the least perfect matching on the support (each
    row's positive columns, ascending) through the 0-based forced cell, by
    augmenting paths; None when there is no such matching."""
    n = len(support)
    assigned = {} if forced is None else dict([forced])

    def feasible() -> bool:
        return _max_matching(support, set(assigned), set(assigned.values())) == n - len(assigned)

    # once feasible, some column of each next row keeps it so: the greedy never fails
    if not feasible():
        return None
    for i in range(n):
        if i in assigned:
            continue
        used = set(assigned.values())
        for j in support[i]:
            if j in used:
                continue
            assigned[i] = j
            if feasible():
                break
            del assigned[i]
    return [assigned[i] for i in range(n)]


@lru_cache(maxsize=None)
def _permutation_table(n: int) -> tuple[np.ndarray, ...]:
    """The n! permutations p of range(n) in lexicographic order, each as the
    row-major cells i * n + p[i] of its rows, (n!, n); their bitmasks, cell c
    being bit c; the bit of each cell; and for each cell, then for -1 (no
    cell), the bits of the other cells in its row and column."""
    cols = np.array(list(permutations(range(n))), dtype=np.intp).reshape(-1, n)
    cells = cols + np.arange(n) * n
    bits = np.int64(1) << np.arange(n * n)
    square = bits.reshape(n, n)
    crossing = (square.sum(axis=1)[:, None] | square.sum(axis=0)).ravel() & ~bits
    return cells, bits[cells].sum(axis=1), bits, np.append(crossing, 0)


def _least_matchings(residual: np.ndarray, forced: np.ndarray, n: int) -> np.ndarray:
    """(B, n) row-major cells i * n + j of each residual's least perfect
    matching on its positive cells, through the cell forced[b] unless it is -1.

    Raises FiberGraphsError when some residual has none.
    """
    positive = residual > 0
    if n > TABLE_MAX_N:
        cols = []
        residuals = zip(positive.reshape(-1, n, n).tolist(), forced.tolist())
        for b, (rows, cell) in enumerate(residuals):
            found = None
            if cell < 0 or positive[b, cell]:
                support = [[j for j, x in enumerate(row) if x] for row in rows]
                found = _greedy_matching(support, None if cell < 0 else divmod(cell, n))
            if found is None:
                raise _no_matching(positive, forced, b, n)
            cols.append(found)
        return np.array(cols, dtype=np.intp).reshape(-1, n) + np.arange(n) * n
    cells, masks, bits, crossing = _permutation_table(n)
    # the cells a matching may not hold: the zero cells and, when a cell is
    # forced, the other cells of its row and column
    barred = ~(positive @ bits) | crossing[forced]
    first = ((masks & barred[:, None]) == 0).argmax(axis=1)
    # argmax gives row 0 when no row fits
    missed = masks[first] & barred
    if missed.any():
        raise _no_matching(positive, forced, int(missed.nonzero()[0][0]), n)
    return cells[first]


def _no_matching(positive: np.ndarray, forced: np.ndarray, b: int,
                 n: int) -> FiberGraphsError:
    """The error for residual b, which has no matching through forced[b]."""
    if forced[b] >= 0 and not positive[b, forced[b]]:
        i, j = divmod(int(forced[b]), n)
        return FiberGraphsError(
            f"forced cell {(i + 1, j + 1)} is outside the support of the table")
    return FiberGraphsError("support admits no perfect matching")


def decompose_tables(cells: np.ndarray, n: int, r: int,
                     constraints: np.ndarray | None = None) -> np.ndarray:
    """Matchings of B tables, each split into r permutation parts.

    cells is (B, n^2): each row holds the row-major entries of an n x n table
    whose margins are all r.  constraints, when given, is (B, k): row b holds
    table b's constraint cells in order, as row-major cell ids i * n + j
    (0-based), then -1 where it has fewer than k.  Each table's part
    prefixes cover its cells as in ``decompose``.  Returns the
    (B, r, n) array whose [b, l, i] is the 0-based column of row i in part l
    of table b.

    Raises FiberGraphsError when some table has more constraints than
    parts, a constraint outside the table or a cell listed more often than
    it holds, or margin 0, and SizeLimitExceededError for a margin above
    ``enumeration.DEFAULT_CAP``: r is the number of parts and of rounds.
    """
    if r > DEFAULT_CAP:
        raise SizeLimitExceededError(DEFAULT_CAP, context=f"decomposition into {r} parts")
    residual = np.array(cells, dtype=np.int64).reshape(-1, n * n)
    tables = np.arange(len(residual))
    at = tables[:, None]
    pending = np.full((len(residual), 0), -1)
    if constraints is not None:
        pending = np.array(constraints, dtype=np.int64)
    alive = pending >= 0
    # each round absorbs the first constraint left of every table, so only
    # the first `most` rounds have any
    most = alive.sum(axis=1).max(initial=0)
    if most > r:
        raise FiberGraphsError(f"{most} constraints but only {r} parts")
    if r < 1:
        raise FiberGraphsError("a table with margin 0 has no permutation parts")
    if most:
        if (pending >= n * n).any():
            raise FiberGraphsError(
                f"constraint cell {pending.max()} is outside the {n} x {n} table")
        # a cell listed m times by a table must hold at least m
        required = ((pending[:, :, None] == pending[:, None, :]) & alive[:, None, :]).sum(axis=2)
        short = alive & (residual[at, pending] < required)
        if short.any():
            b, k = np.argwhere(short)[0]
            i, j = divmod(int(pending[b, k]), n)
            raise FiberGraphsError(
                f"cell ({i + 1}, {j + 1}) holds {residual[b, pending[b, k]]} "
                f"but the constraints require {required[b, k]}"
            )
        row_of = pending // n
        # [b, k, q]: constraint q comes before constraint k and is in its row
        earlier_in_row = row_of[:, :, None] == row_of[:, None, :]
        earlier_in_row &= np.tri(pending.shape[1], k=-1, dtype=bool)
    unforced = np.full(len(residual), -1)
    parts = np.empty((len(residual), r, n), dtype=np.intp)
    for l in range(r):
        forced = unforced
        if l < most:
            forced = np.where(alive, pending, -1)[tables, alive.argmax(axis=1)]
        taken = _least_matchings(residual, forced, n)
        left = residual[at, taken] - 1
        residual[at, taken] = left
        if (left < 0).any():
            b, i = np.argwhere(left < 0)[0]
            raise FiberGraphsError(
                f"part {l + 1} takes cell ({i + 1}, {taken[b, i] % n + 1}) below 0")
        parts[:, l] = taken
        if l < most:
            # the part covers its forced cell and, greedily in order, each later
            # constraint on another of its cells; each row covers one constraint
            hit = alive & (taken[at, row_of] == pending)
            alive &= ~hit | (hit[:, None, :] & earlier_in_row).any(axis=2)
    return parts % n


def failed_tables(cells: np.ndarray, matchings: np.ndarray,
                  constraints: np.ndarray | None = None) -> np.ndarray:
    """Whether each of B tables fails its decomposition, as a (B,) bool array.

    cells, matchings and constraints are in ``decompose_tables``'s formats.
    Table b fails when one of its parts is not a permutation of range(n),
    when its parts do not sum to its cells (part l adds 1 to cell
    i * n + matchings[b, l, i]), when it lists more constraints than it has
    parts, or when some prefix of its parts fails to cover, cell by cell
    with multiplicity, the same prefix of its constraint cells.  A cell's
    count rises only at the constraints that list it, and the parts through
    it only grow, so it suffices to check the prefix that ends at each
    constraint: parts 1..k+1 must pass through constraint k's cell at least
    as often as constraints 1..k+1 list it.
    """
    matchings = np.asarray(matchings)
    count, r, n = matchings.shape
    failed = (np.sort(matchings, axis=2) != np.arange(n)).any(axis=(1, 2))
    # a column outside range(n) has failed its table; clipped, it stays in that table's cells
    ids = np.clip(matchings, 0, n - 1) + (np.arange(count)[:, None, None] * n + np.arange(n)) * n
    sums = np.bincount(ids.ravel(), minlength=count * n * n).reshape(count, n * n)
    failed |= (sums != cells).any(axis=1)
    if constraints is None:
        return failed
    constraints = np.asarray(constraints, dtype=np.intp).reshape(count, -1)
    k = constraints.shape[1]
    listed = constraints >= 0
    rows, cols = np.divmod(constraints, n)
    # [b, k, l]: part l passes through constraint k's cell, and l <= k
    through = matchings[np.arange(count)[:, None, None], np.arange(r), rows[:, :, None]]
    covered = ((through == cols[:, :, None]) & np.tri(k, r, dtype=bool)).sum(axis=2)
    same = (constraints[:, :, None] == constraints[:, None, :]) & listed[:, None, :]
    required = (same & np.tri(k, dtype=bool)).sum(axis=2)
    return failed | (listed.sum(axis=1) > r) | (listed & (covered < required)).any(axis=1)


def _permutation(cols: Sequence[int]) -> ContingencyTable:
    n = len(cols)
    return ContingencyTable(n, 1, tuple(tuple(1 if j == c else 0 for j in range(n)) for c in cols))


@dataclass(frozen=True)
class MatchingDecomposition:
    """Ordered permutation parts summing to a table, with optional prefix forcing.

    Part l is kept as its matching: ``matchings[l][i]`` is the 0-based column
    of row i.
    """

    matchings: tuple[tuple[int, ...], ...]
    constraints: tuple[Position, ...] = ()

    @property
    def parts(self) -> tuple[ContingencyTable, ...]:
        """The parts as 0/1 permutation tables, built on each read."""
        return tuple(map(_permutation, self.matchings))


def _position(pair: Sequence[int]) -> Position:
    """pair as two Python ints; numpy integers pass, booleans, floats and
    sequences of another length do not (a non-iterable is shown by its repr)."""
    with suppress(TypeError):  # a non-iterable pair
        pair = tuple(pair)
        ints = tuple(map(as_integer, pair))
        if len(ints) == 2 and None not in ints:
            return ints
    raise FiberGraphsError(f"position {pair!r} is not a pair of integers")


def decompose(table: ContingencyTable,
              constraints: Sequence[Position] = ()) -> MatchingDecomposition:
    """Split a table into r permutation patterns whose prefixes cover the
    1-based constraint cells in order, as the inductive argument does: take a
    matching through the first constraint cell, absorb into it a maximal
    compatible subset of the remaining constraints (greedy in the given
    order), and recurse on the residual table with the constraints left over.

    Raises FiberGraphsError for a constraint cell that is not a pair of
    integers or lies outside the table, and ``decompose_tables``'s errors
    otherwise.
    """
    n = table.n
    positions = tuple(map(_position, constraints))
    for pos in positions:
        if not (1 <= pos[0] <= n and 1 <= pos[1] <= n):
            raise FiberGraphsError(f"position {pos} is outside the table")
    cells = [[(i - 1) * n + j - 1 for i, j in positions]]
    matchings = decompose_tables([table.row_major()], n, table.r, cells)[0]
    return MatchingDecomposition(tuple(map(tuple, matchings.tolist())), positions)
