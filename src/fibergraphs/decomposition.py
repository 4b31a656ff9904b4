"""Decomposing tables into permutation matrices, with prefix constraints.

A table with margins r is the biadjacency matrix of an r-regular bipartite
multigraph, which splits into r perfect matchings; each matching is a 0/1
permutation pattern and the patterns sum back to the table.  The constrained
variant additionally forces listed cell positions to be covered by the
matching prefix in order.

Matchings are found by augmenting paths over the support (multiplicities act
as capacities and never need duplicating), and ties are broken toward the
lexicographically least row-to-column assignment so decompositions are
reproducible.  That greedy search reads only the positive cells and the
forced cell, so its result is memoised on them.  A decomposition keeps one
residual table as row lists, changed in place: taking away a part, a column
per row, is n checked decrements.  The parts are kept as those columns; they
become tables only when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import ConstraintInfeasibleError, FiberGraphsError, NoPerfectMatchingError
from .tables import ContingencyTable, validate_table

Position = tuple[int, int]  # 1-based (row, col)


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


def _least_matching(rows: Sequence[Sequence[int]], forced: Position | None = None) -> list[int]:
    """Column of each row in the lexicographically least perfect matching on
    the support of rows, through the forced cell (1-based) when one is given.

    Raises NoPerfectMatchingError when there is none.
    """
    n = len(rows)
    support = tuple([tuple([j for j, x in enumerate(row) if x > 0]) for row in rows])
    cell = None if forced is None else (forced[0] - 1, forced[1] - 1)
    if cell is not None and not (0 <= min(cell) and max(cell) < n and cell[1] in support[cell[0]]):
        raise NoPerfectMatchingError(f"forced cell {forced} is outside the support of the table")
    cols = _least_support_matching(support, cell)
    if cols is None:
        raise NoPerfectMatchingError("support admits no perfect matching")
    return list(cols)


@lru_cache(maxsize=1 << 12)
def _least_support_matching(
    support: tuple[tuple[int, ...], ...], forced: tuple[int, int] | None
) -> tuple[int, ...] | None:
    """``_least_matching`` on the positive cells and the 0-based forced cell,
    which are all it reads, as a tuple; None when there is no matching."""
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
    return tuple(assigned[i] for i in range(n))


def _permutation(cols: Sequence[int]) -> ContingencyTable:
    n = len(cols)
    return ContingencyTable(n, 1, tuple(tuple(1 if j == c else 0 for j in range(n)) for c in cols))


def perfect_matching(table: ContingencyTable, forced: Position | None = None) -> ContingencyTable:
    """A permutation pattern inside the support of an equal-margin table.

    When forced=(i, j) is given (1-based) the matching contains that cell.
    Among all valid matchings the lexicographically least row-to-column
    assignment is returned, so the result is deterministic.

    Raises NoPerfectMatchingError when no perfect matching exists; for a
    valid table with r >= 1 that can only happen for an unusable forced cell.
    """
    if table.r < 1:
        raise NoPerfectMatchingError("a table with margin 0 has empty support")
    return _permutation(_least_matching(table.entries, forced))


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

    def resum(self) -> ContingencyTable:
        n = len(self.matchings[0])
        rows = [[0] * n for _ in range(n)]
        for cols in self.matchings:
            for i, j in enumerate(cols):
                rows[i][j] += 1
        return validate_table(n, len(self.matchings), rows)

    def satisfies_constraints(self) -> bool:
        """Each prefix of parts must entrywise dominate the matching prefix of
        constraint cells: u_1 + ... + u_l >= E(p_1) + ... + E(p_l).  A
        constraint past the last part has no prefix to dominate it."""
        if len(self.constraints) > len(self.matchings):
            return False
        covered: Counter[Position] = Counter()  # 0-based cell -> parts through it so far
        needed: Counter[Position] = Counter()
        for l, (i, j) in enumerate(self.constraints):
            covered.update(enumerate(self.matchings[l]))
            needed[i - 1, j - 1] += 1
            if any(covered[cell] < count for cell, count in needed.items()):
                return False
        return True


def decompose(table: ContingencyTable) -> MatchingDecomposition:
    """Split a table into r permutation patterns by repeated matchings.

    Raises NoPerfectMatchingError for a table with margin 0, which has no parts.
    """
    return _decompose(table, ())


def decompose_constrained(
    table: ContingencyTable, positions: Sequence[Position]
) -> MatchingDecomposition:
    """Decomposition whose part prefixes cover the constraint cells in order.

    Mirrors the inductive argument: take a matching through the first
    constraint cell, absorb into it a maximal compatible subset of the
    remaining constraints (greedy in the given order), and recurse on the
    residual table with the constraints left over.

    Raises ConstraintInfeasibleError when the table does not entrywise
    dominate the constraint cells (with multiplicity) or when there are more
    constraints than parts, and NoPerfectMatchingError for a table with
    margin 0.
    """
    return _decompose(table, tuple((int(i), int(j)) for i, j in positions))


def _decompose(table: ContingencyTable, positions: tuple[Position, ...]) -> MatchingDecomposition:
    if len(positions) > table.r:
        raise ConstraintInfeasibleError(f"{len(positions)} constraints but only {table.r} parts")
    if table.r < 1:
        raise NoPerfectMatchingError("a table with margin 0 has no permutation parts")
    for pos in positions:
        if not (1 <= pos[0] <= table.n and 1 <= pos[1] <= table.n):
            raise ConstraintInfeasibleError(f"position {pos} is outside the table")
    for (i, j), count in Counter(positions).items():
        if table.entries[i - 1][j - 1] < count:
            raise ConstraintInfeasibleError(
                f"cell ({i}, {j}) holds {table.entries[i - 1][j - 1]} "
                f"but the constraints require {count}"
            )

    residual = table.rows()
    matchings: list[tuple[int, ...]] = []
    remaining = list(positions)
    while len(matchings) < table.r:
        cols = _least_matching(residual, remaining[0] if remaining else None)
        for i, j in enumerate(cols):
            residual[i][j] -= 1
            if residual[i][j] < 0:
                raise FiberGraphsError(
                    f"part {len(matchings) + 1} takes cell ({i + 1}, {j + 1}) below 0"
                )
        matchings.append(tuple(cols))
        # the part covers its forced cell and, greedily in order, each later
        # constraint on another of its cells; each cell covers one constraint
        covered: set[int] = set()
        leftovers = []
        for i, j in remaining:
            if cols[i - 1] == j - 1 and i not in covered:
                covered.add(i)
            else:
                leftovers.append((i, j))
        remaining = leftovers
    return MatchingDecomposition(tuple(matchings), positions)
