"""Square contingency tables with equal margins and the 2x2 swap moves on them.

A table is an n x n matrix of non-negative integers whose row sums and column
sums all equal a common margin r.  The elementary moves add 1 to two cells and
subtract 1 from two cells arranged in a rectangle, which preserves all margins.
Entries are plain Python integers, so arithmetic is exact at any size.

The module holds what the commands use: table validation, which works the
margin out where it is not given, the r-scaled permutations, the canonical
move basis with each move's row-major cells, the valid moves at a table and
their application, and the maximum-degree formula.  A table's degree in
the fiber graph is ``len(valid_moves(t))``; its minimum over a fiber is C(n, 2).

Index convention: moves and error messages use 1-based indices (the same
convention as the file formats); internal array access is 0-based.
"""

from __future__ import annotations

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

    Raises FiberGraphsError naming the first failed check, with 1-based
    positions.
    """
    if n < 1:
        raise FiberGraphsError(f"table dimension must be >= 1, got {n}")
    if r < 0:
        raise FiberGraphsError(f"margin must be >= 0, got {r}")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise FiberGraphsError(f"expected an {n}x{n} array of entries")
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise FiberGraphsError(
                    f"entry at row {i + 1}, column {j + 1} is not an integer: {x!r}"
                )
            if x < 0:
                raise FiberGraphsError(f"negative entry {x} at row {i + 1}, column {j + 1}")
    for i, row in enumerate(entries):
        s = sum(row)
        if s != r:
            raise FiberGraphsError(f"row {i + 1} sums to {s}, expected {r}")
    for j in range(n):
        s = sum(entries[i][j] for i in range(n))
        if s != r:
            raise FiberGraphsError(f"column {j + 1} sums to {s}, expected {r}")
    return ContingencyTable(n, r, tuple(tuple(row) for row in entries))


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


@dataclass(frozen=True, order=True)
class MarkovMove:
    """Signed rectangle swap on rows i1 < i2 and columns j1 < j2 (1-based).

    As a matrix the move is sign * (E(i1,j1) + E(i2,j2) - E(i1,j2) - E(i2,j1)).
    Field order gives the canonical sort: lexicographic on (i1, j1, i2, j2)
    with sign -1 before +1.
    """

    i1: int
    j1: int
    i2: int
    j2: int
    sign: int

    def __post_init__(self) -> None:
        if not (1 <= self.i1 < self.i2 and 1 <= self.j1 < self.j2):
            raise FiberGraphsError(
                f"need 1 <= i1 < i2 and 1 <= j1 < j2, got {self!r}"
            )
        if self.sign not in (-1, 1):
            raise FiberGraphsError(f"sign must be -1 or +1, got {self.sign}")

    def negate(self) -> "MarkovMove":
        return MarkovMove(self.i1, self.j1, self.i2, self.j2, -self.sign)

    def added_cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """0-based cells the move adds 1 to."""
        if self.sign == 1:
            return (self.i1 - 1, self.j1 - 1), (self.i2 - 1, self.j2 - 1)
        return (self.i1 - 1, self.j2 - 1), (self.i2 - 1, self.j1 - 1)

    def subtracted_cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """0-based cells the move subtracts 1 from."""
        if self.sign == 1:
            return (self.i1 - 1, self.j2 - 1), (self.i2 - 1, self.j1 - 1)
        return (self.i1 - 1, self.j1 - 1), (self.i2 - 1, self.j2 - 1)

@lru_cache(maxsize=None)
def enumerate_basis_moves(n: int) -> tuple[MarkovMove, ...]:
    """All 2*C(n,2)^2 moves for n x n tables, in canonical order (one cached tuple)."""
    if n < 2:
        raise FiberGraphsError(f"moves require n >= 2, got {n}")
    out = []
    for i1 in range(1, n):
        for j1 in range(1, n):
            for i2 in range(i1 + 1, n + 1):
                for j2 in range(j1 + 1, n + 1):
                    out.append(MarkovMove(i1, j1, i2, j2, -1))
                    out.append(MarkovMove(i1, j1, i2, j2, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def move_cells(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """For each basis move in canonical order, the row-major cells it
    subtracts from and then the cells it adds to: (sub1, sub2, add1, add2).
    Row k ^ 1 is row k with its halves swapped (the negated move); empty for n < 2.
    """
    return tuple(
        tuple(i * n + j for i, j in (*m.subtracted_cells(), *m.added_cells()))
        for m in (enumerate_basis_moves(n) if n >= 2 else ())
    )


def is_valid_move(t: ContingencyTable, m: MarkovMove) -> bool:
    """True when both cells the move subtracts from are positive in t."""
    (a, b), (c, d) = m.subtracted_cells()
    return t.entries[a][b] >= 1 and t.entries[c][d] >= 1


def apply_move(t: ContingencyTable, m: MarkovMove) -> ContingencyTable:
    """Apply a valid move; the result stays in the same fiber.

    apply_move(apply_move(t, m), m.negate()) == t.
    """
    if not is_valid_move(t, m):
        raise FiberGraphsError(f"move {m!r} subtracts from a zero entry of the table")
    rows = [list(row) for row in t.entries]
    for (i, j) in m.added_cells():
        rows[i][j] += 1
        # margins fixed at r make overflow impossible; guard against misuse
        assert rows[i][j] <= t.r, "entry exceeded the margin, input table was invalid"
    for (i, j) in m.subtracted_cells():
        rows[i][j] -= 1
    return ContingencyTable(t.n, t.r, tuple(tuple(row) for row in rows))


def valid_moves(t: ContingencyTable) -> list[MarkovMove]:
    """Moves applicable at t, in canonical order."""
    if t.n < 2:
        return []
    return [m for m in enumerate_basis_moves(t.n) if is_valid_move(t, m)]


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
