"""Decomposing tables into permutation matrices, with prefix constraints.

A table with margins r is the biadjacency matrix of an r-regular bipartite
multigraph, which splits into r perfect matchings; each matching is a 0/1
permutation pattern and the patterns sum back to the table.  The constrained
variant additionally forces listed cell positions to be covered by the
matching prefix in order.

Matchings are found by augmenting paths over the support (multiplicities act
as capacities and never need duplicating), and ties are broken toward the
lexicographically least row-to-column assignment so decompositions are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConstraintInfeasibleError, NoPerfectMatchingError
from .tables import ContingencyTable, validate_table

Position = tuple[int, int]  # 1-based (row, col)


def _max_matching(support: list[list[int]], banned_rows: set[int], banned_cols: set[int]) -> int:
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


def perfect_matching(
    table: ContingencyTable, forced: Position | None = None
) -> ContingencyTable:
    """A permutation pattern inside the support of an equal-margin table.

    When forced=(i, j) is given (1-based) the matching contains that cell.
    Among all valid matchings the lexicographically least row-to-column
    assignment is returned, so the result is deterministic.

    Raises NoPerfectMatchingError when no perfect matching exists; for a
    valid table with r >= 1 that can only happen for an unusable forced cell.
    """
    n = table.n
    if table.r < 1:
        raise NoPerfectMatchingError("a table with margin 0 has empty support")
    support = [
        [j for j in range(n) if table.entries[i][j] > 0] for i in range(n)
    ]
    assigned: dict[int, int] = {}
    if forced is not None:
        fi, fj = forced[0] - 1, forced[1] - 1
        if not (0 <= fi < n and 0 <= fj < n) or table.entries[fi][fj] < 1:
            raise NoPerfectMatchingError(
                f"forced cell {forced} is outside the support of the table"
            )
        assigned[fi] = fj

    def feasible() -> bool:
        rows = set(assigned)
        cols = set(assigned.values())
        return _max_matching(support, rows, cols) == n - len(assigned)

    if not feasible():
        raise NoPerfectMatchingError("support admits no perfect matching")
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
        else:
            raise NoPerfectMatchingError("support admits no perfect matching")

    entries = tuple(
        tuple(1 if assigned[i] == j else 0 for j in range(n)) for i in range(n)
    )
    return ContingencyTable(n, 1, entries)


def _subtract(table: ContingencyTable, part: ContingencyTable) -> ContingencyTable:
    entries = tuple(
        tuple(a - b for a, b in zip(ra, rb))
        for ra, rb in zip(table.entries, part.entries)
    )
    return validate_table(table.n, table.r - 1, entries)


@dataclass(frozen=True)
class MatchingDecomposition:
    """Ordered permutation parts summing to a table, with optional prefix forcing."""

    parts: tuple[ContingencyTable, ...]
    constraints: tuple[Position, ...] = ()

    def resum(self) -> ContingencyTable:
        n = self.parts[0].n
        entries = tuple(
            tuple(sum(p.entries[i][j] for p in self.parts) for j in range(n))
            for i in range(n)
        )
        return validate_table(n, len(self.parts), entries)

    def satisfies_constraints(self) -> bool:
        """Each prefix of parts must entrywise dominate the matching prefix of
        constraint cells: u_1 + ... + u_l >= E(p_1) + ... + E(p_l)."""
        n = self.parts[0].n
        running = [[0] * n for _ in range(n)]
        needed = [[0] * n for _ in range(n)]
        for l, (i, j) in enumerate(self.constraints):
            for a in range(n):
                for b in range(n):
                    running[a][b] += self.parts[l].entries[a][b]
            needed[i - 1][j - 1] += 1
            if any(
                running[a][b] < needed[a][b] for a in range(n) for b in range(n)
            ):
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
        raise ConstraintInfeasibleError(
            f"{len(positions)} constraints but only {table.r} parts"
        )
    if table.r < 1:
        raise NoPerfectMatchingError("a table with margin 0 has no permutation parts")
    demand: dict[Position, int] = {}
    for pos in positions:
        i, j = pos
        if not (1 <= i <= table.n and 1 <= j <= table.n):
            raise ConstraintInfeasibleError(f"position {pos} is outside the table")
        demand[pos] = demand.get(pos, 0) + 1
    for (i, j), count in demand.items():
        if table.entries[i - 1][j - 1] < count:
            raise ConstraintInfeasibleError(
                f"cell ({i}, {j}) holds {table.entries[i - 1][j - 1]} "
                f"but the constraints require {count}"
            )

    parts: list[ContingencyTable] = []
    residual = table
    remaining = list(positions)
    while len(parts) < table.r:
        part = perfect_matching(residual, forced=remaining[0] if remaining else None)
        parts.append(part)
        residual = _subtract(residual, part)
        # the part covers its forced cell and, greedily in order, each later
        # constraint on another of its cells; each cell covers one constraint
        available = {
            (i + 1, j + 1) for i, row in enumerate(part.entries) for j, x in enumerate(row) if x
        }
        leftovers = []
        for pos in remaining:
            if pos in available:
                available.discard(pos)
            else:
                leftovers.append(pos)
        remaining = leftovers
    return MatchingDecomposition(tuple(parts), positions)
