"""Square contingency tables with equal margins and the 2x2 swap moves on them.

A table is an n x n matrix of non-negative integers whose row sums and column
sums all equal a common margin r.  The elementary moves add 1 to two cells and
subtract 1 from two cells arranged in a rectangle, which preserves all margins.
Entries are plain Python integers, so arithmetic is exact at any size.

The module holds what the commands use: table validation, which works the
margin out where it is not given, the r-scaled permutations, the moves, the
valid moves at a table and their application, and the maximum-degree
formula.  Every layer names a move by its id, its row in ``move_cells(n)``.
A table's degree is ``len(valid_moves(t))``; its minimum over a fiber is C(n, 2).

Error messages use 1-based row and column indices (the same convention as
the file formats); internal array access is 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import FiberGraphsError

Entries = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ContingencyTable:
    """Validated n x n table with all row and column sums equal to r.

    Instances are immutable and hashable; the row-major entry tuple is the
    canonical serialization order used for vertex indexing everywhere.
    """

    n: int
    r: int
    entries: Entries

    def row_major(self) -> tuple[int, ...]:
        """Flat entry vector in canonical (row-major) order."""
        return tuple(x for row in self.entries for x in row)

    def rows(self) -> list[list[int]]:
        """Entries as nested lists (mutable copy, e.g. for JSON output)."""
        return [list(row) for row in self.entries]


def validate_table(n: int, r: int, entries: Sequence[Sequence[int]]) -> ContingencyTable:
    """Check shape, non-negativity and both margin constraints; return the table.

    Entries are integers, numpy's included, stored as Python ints.  Raises
    FiberGraphsError naming the first failed check, with 1-based positions.
    """
    if n < 1:
        raise FiberGraphsError(f"table dimension must be >= 1, got {n}")
    if r < 0:
        raise FiberGraphsError(f"margin must be >= 0, got {r}")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise FiberGraphsError(f"expected shape {n}x{n}")
    rows = [[as_integer(x) for x in row] for row in entries]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x is None:
                raise FiberGraphsError(
                    f"entry at row {i + 1}, column {j + 1} is not an integer: {entries[i][j]!r}"
                )
            if x < 0:
                raise FiberGraphsError(f"negative entry {x} at row {i + 1}, column {j + 1}")
    for i, row in enumerate(rows):
        s = sum(row)
        if s != r:
            raise FiberGraphsError(f"row {i + 1} sums to {s}, expected {r}")
    for j in range(n):
        s = sum(rows[i][j] for i in range(n))
        if s != r:
            raise FiberGraphsError(f"column {j + 1} sums to {s}, expected {r}")
    return ContingencyTable(n, r, tuple(tuple(row) for row in rows))


def as_equal_margin_table(rows: Sequence[Sequence[int]], n: int | None = None,
                          r: int | None = None) -> ContingencyTable:
    """Validate raw rows as a table with every margin r; n defaults to the
    number of rows, and r, when not given, is worked out as their common margin.

    Raises FiberGraphsError when r is not given and the rows are not
    square or their row and column sums are not all equal (such tables are
    outside this package's scope), and ``validate_table``'s errors otherwise.
    """
    if r is None:
        size = len(rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != size:
                raise FiberGraphsError(
                    f"row {i} has {len(row)} entries, expected {size} (the number of rows)")
        row_sums = [sum(row) for row in rows]
        col_sums = [sum(col) for col in zip(*rows)]
        if len(set(row_sums + col_sums)) > 1:
            raise FiberGraphsError(f"margins are not all equal: row sums {row_sums}, "
                                   f"column sums {col_sums}")
        r = row_sums[0] if rows else 0
    return validate_table(len(rows) if n is None else n, r, rows)


def scaled_permutation(n: int, r: int, perm: Sequence[int]) -> ContingencyTable:
    """Table with entry r at (i, perm[i]) (0-based) and zeros elsewhere."""
    ent = tuple(
        tuple(r if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )
    return validate_table(n, r, ent)


def as_integer(x: object) -> int | None:
    """x as a Python int if it is an integer, numpy's included, and not a bool; else None."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


@lru_cache(maxsize=None)
def move_cells(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Row k: the row-major cells move k subtracts from, then those it adds
    to (sub1, sub2, add1, add2).  Each rectangle i1 < i2, j1 < j2, in lex
    order of (i1, j1, i2, j2), gives the move subtracting from its diagonal,
    then its negation k ^ 1, subtracting from the anti-diagonal.  Empty for n < 2."""
    out = []
    for i1 in range(n - 1):
        for j1 in range(n - 1):
            for i2 in range(i1 + 1, n):
                for j2 in range(j1 + 1, n):
                    diagonal, anti = (i1 * n + j1, i2 * n + j2), (i1 * n + j2, i2 * n + j1)
                    out += (*diagonal, *anti), (*anti, *diagonal)
    return tuple(out)


def valid_moves(t: ContingencyTable) -> list[int]:
    """Ids of the moves applicable at t, ascending: those whose two
    subtracted cells are positive."""
    cells = t.row_major()
    return [k for k, (a, b, _, _) in enumerate(move_cells(t.n)) if min(cells[a], cells[b]) >= 1]


def apply_move(t: ContingencyTable, k: int) -> ContingencyTable:
    """Apply the valid move with id k; the result stays in the same fiber.

    apply_move(apply_move(t, k), k ^ 1) == t.  Raises FiberGraphsError when
    k is not a move id of t's size or subtracts from a zero entry of t.
    """
    moves = move_cells(t.n)
    move = as_integer(k)
    if move is None or not 0 <= move < len(moves):
        raise FiberGraphsError(f"move {k} is not one of the {len(moves)} move ids of "
                               f"{t.n}x{t.n} tables")
    a, b, c, d = moves[move]
    cells = [x for row in t.entries for x in row]
    if min(cells[a], cells[b]) < 1:
        raise FiberGraphsError(f"move {move} subtracts from a zero entry of the table")
    cells[a] -= 1
    cells[b] -= 1
    cells[c] += 1
    cells[d] += 1
    # margins fixed at r make overflow impossible; guard against misuse
    assert max(cells[c], cells[d]) <= t.r, "entry exceeded the margin, input table was invalid"
    return ContingencyTable(t.n, t.r, tuple(zip(*[iter(cells)] * t.n)))  # rows of n cells


class MaxDegreeBound(NamedTuple):
    value: int
    attained: bool  # True when a 0/1 vertex exists (n >= r); else an upper bound only


def max_degree_value(n: int, r: int) -> MaxDegreeBound:
    """Maximum-degree formula n*r*(n*r - 2r + 1)/2.

    The value is the exact maximum (attained at tables whose positive entries
    are all ones) when n >= r; for n < r no such table exists and the formula
    is only an upper bound, signalled by attained=False.
    """
    if n < 1 or r < 1:
        raise FiberGraphsError(f"need n >= 1 and r >= 1, got ({n}, {r})")
    value = n * r * (n * r - 2 * r + 1) // 2
    return MaxDegreeBound(value, attained=n >= r)
