"""Independent brute-force reference implementations used only by the tests.

Nothing here shares code with the library under test: fibers come from raw
product enumeration, connectivity from exhaustive cutset search, and local
connectivity from exhaustive path packing.

Tables are plain tuples of rows here.  These references left the package,
which no command called them from, and check it from outside:

* ``degree_by_support_pairs``: a table's degree from its positive cells.
* ``move_rectangle``: a move's rectangle and sign, read from its cells.
* ``orientation_weight``: w.t for the (row + col)^2 weight that orients the graph.
* ``transpose`` and ``permute``: the symmetries that relabel a table.
* ``acceptance_ratio`` and ``transition_probabilities``: the sampler's
  kernel as exact fractions; ``chi_square_fraction``: its statistic.
* ``resum`` and ``satisfies_constraints``, joined in ``decomposition_holds``:
  the reference for ``decomposition.failed_tables``.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial


def brute_fiber(n: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every n x n table with margins r, by filtering the full product space."""
    out = []
    for flat in product(range(r + 1), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if any(sum(row) != r for row in rows):
            continue
        if any(sum(rows[i][j] for i in range(n)) != r for j in range(n)):
            continue
        out.append(tuple(tuple(row) for row in rows))
    out.sort()
    return out


def rows_of(graph) -> list[list[int]]:
    """A CSR graph's rows as plain lists, read from its ``indptr`` and ``indices``."""
    ptr, idx = graph.indptr.tolist(), graph.indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def _bitmask_adjacency(adj) -> list[int]:
    masks = [0] * len(adj)
    for u, row in enumerate(adj):
        for v in row:
            masks[u] |= 1 << v
    return masks


def _connected_mask(masks: list[int], alive: int) -> bool:
    if alive == 0:
        return True
    seen = alive & -alive
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            m ^= bit
            nxt |= masks[bit.bit_length() - 1]
        nxt &= alive & ~seen
        seen |= nxt
        frontier = nxt
    return seen == alive


def brute_bfs_distances(adj, source: int) -> list[int]:
    """Distances from source by a plain queue BFS; -1 marks unreachable vertices."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def brute_is_connected(adj) -> bool:
    return _connected_mask(_bitmask_adjacency(adj), (1 << len(adj)) - 1)


def brute_articulation_vertices(adj) -> list[int]:
    """Vertices whose removal leaves the other vertices disconnected."""
    masks = _bitmask_adjacency(adj)
    full = (1 << len(adj)) - 1
    return [x for x in range(len(adj)) if not _connected_mask(masks, full & ~(1 << x))]


def brute_vertex_connectivity(adj) -> int:
    """Exact kappa by trying every cutset of increasing size."""
    n = len(adj)
    masks = _bitmask_adjacency(adj)
    full = (1 << n) - 1
    if not _connected_mask(masks, full):
        return 0
    if all(masks[u] == full ^ (1 << u) for u in range(n)):
        return n - 1
    min_deg = min(len(set(row)) for row in adj)
    for k in range(1, min_deg + 1):
        for subset in combinations(range(n), k):
            removed = 0
            for x in subset:
                removed |= 1 << x
            if n - k >= 2 and not _connected_mask(masks, full & ~removed):
                return k
    raise AssertionError("non-complete graph must have a cut of size <= min degree")


def connectivity_pairs(adj) -> tuple[int, list[tuple[int, int]]]:
    """The classical pair family certifying kappa: the first minimum-degree
    vertex s0 against all its non-neighbours, then all non-adjacent pairs
    inside N(s0), in order.  Returns (s0, pairs)."""
    s0 = min(range(len(adj)), key=lambda u: len(adj[u]))
    nbrs = sorted(set(adj[s0]))
    skip = {s0, *nbrs}
    pairs = [(s0, w) for w in range(len(adj)) if w not in skip]
    for a, x in enumerate(nbrs):
        row = set(adj[x])
        pairs.extend((x, y) for y in nbrs[a + 1:] if y not in row)
    return s0, pairs


def brute_local_connectivity(adj, s: int, t: int) -> int:
    """Max internally disjoint s-t paths by exhaustive path packing.

    All simple paths are enumerated as interior bitmasks, dominated masks are
    dropped, and the best pairwise-disjoint packing is found by backtracking.
    """
    assert t not in adj[s]
    masks: set[int] = set()

    def dfs(u: int, visited: int, interior: int) -> None:
        for v in adj[u]:
            if v == t:
                masks.add(interior)
            elif v != s and not (visited >> v) & 1:
                dfs(v, visited | (1 << v), interior | (1 << v))

    dfs(s, 1 << s, 0)
    minimal = [
        m for m in masks if not any(o != m and (o & m) == o for o in masks)
    ]
    minimal.sort(key=lambda m: m.bit_count())
    best = 0

    def pack(idx: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(minimal) - idx) <= best:
            return
        for i in range(idx, len(minimal)):
            if not (minimal[i] & used):
                pack(i + 1, used | minimal[i], count + 1)

    pack(0, 0, 0)
    return best


def brute_distance_two_pairs(adj) -> list[tuple[int, int]]:
    """Unordered pairs (u, w), u < w, at distance exactly 2, from each vertex's
    set of two-hop neighbours."""
    adj_sets = [set(row) for row in adj]
    pairs = []
    for u in range(len(adj)):
        two_hop: set[int] = set()
        for x in adj[u]:
            two_hop.update(adj[x])
        for w in sorted(two_hop):
            if w > u and w not in adj_sets[u]:
                pairs.append((u, w))
    return pairs


def brute_min_common_moves(move_sets, pairs) -> tuple[int, tuple[int, int]] | None:
    """(count, pair) for the first pair whose two move-id sets share the
    fewest members, each set packed into one integer bitmask; None for no pairs."""
    masks = [sum(1 << k for k in moves) for moves in move_sets]
    shared = (((masks[u] & masks[v]).bit_count(), (u, v)) for u, v in pairs)
    return min(shared, key=lambda item: item[0], default=None)


def random_graph(rng: random.Random, n: int, p: float) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return tuple(tuple(row) for row in adj)


def cycle_graph(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(((u - 1) % n, (u + 1) % n))) for u in range(n)
    )


def path_graph(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(v for v in (u - 1, u + 1) if 0 <= v < n) for u in range(n)
    )


def complete_graph(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(v for v in range(n) if v != u) for u in range(n))


def complete_bipartite(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    left = tuple(range(a))
    right = tuple(range(a, a + b))
    return tuple(
        right if u < a else left for u in range(a + b)
    )


def hypergeometric_mass(tables) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Exact normalized mass proportional to 1 / prod(cell!) over a table list."""
    weights = {}
    for t in tables:
        w = Fraction(1)
        for row in t:
            for x in row:
                for y in range(2, x + 1):
                    w /= y
        weights[t] = w
    z = sum(weights.values())
    return {k: v / z for k, v in weights.items()}


# --- tables and their moves ---

def degree_by_support_pairs(entries) -> int:
    """A table's degree: its unordered pairs of positive cells in distinct rows
    and distinct columns, each the subtracted cells of one valid move."""
    pos = [(i, j) for i, row in enumerate(entries) for j, x in enumerate(row) if x > 0]
    return sum(a[0] != b[0] and a[1] != b[1] for a, b in combinations(pos, 2))


def move_rectangle(n: int, cells) -> tuple[int, int, int, int, int]:
    """The 1-based rows i1 < i2, columns j1 < j2 and sign of the move that
    subtracts 1 from row-major cells[:2] and adds 1 to cells[2:]; the sign is
    -1 when it subtracts from the diagonal (i1, j1), (i2, j2).  The cells must
    list the upper row's cell first in both halves."""
    (i1, a), (i2, b) = divmod(cells[0], n), divmod(cells[1], n)
    assert i1 < i2 and a != b and tuple(cells[2:]) == (i1 * n + b, i2 * n + a), cells
    return i1 + 1, min(a, b) + 1, i2 + 1, max(a, b) + 1, -1 if a < b else 1


def orientation_weight(entries) -> int:
    """w.t for w[i][j] = (i + j)^2, rows i and columns j numbered from 1."""
    return sum((i + j + 2) ** 2 * x for i, row in enumerate(entries) for j, x in enumerate(row))


def transpose(entries) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*entries))


def permute(entries, row_perm, col_perm) -> tuple[tuple[int, ...], ...]:
    """Relabel rows and columns: new[i][j] = old[row_perm[i]][col_perm[j]] (0-based)."""
    return tuple(tuple(entries[i][j] for j in col_perm) for i in row_perm)


def chi_square_fraction(entries) -> Fraction:
    """Pearson's statistic against the flat expectation r/n, summed cell by cell as
    exact fractions: sum (x - r/n)^2 / (r/n)."""
    n, r = len(entries), sum(entries[0])
    expected = Fraction(r, n)
    return sum(((x - expected) ** 2 / expected for row in entries for x in row), Fraction(0))


def acceptance_ratio(u, v) -> Fraction:
    """Exact hypergeometric ratio pi(v)/pi(u) = prod(u!) / prod(v!)."""
    ratio = Fraction(1)
    for a, b in zip(chain(*u), chain(*v)):
        ratio *= Fraction(factorial(a), factorial(b))
    return ratio


def transition_probabilities(entries, target: str) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Exact one-step distribution out of a table (n >= 2) under the "uniform"
    or "hypergeometric" target: each of the 2 C(n,2)^2 signed rectangle moves
    is proposed with equal probability, one that would leave a negative entry
    is a self-loop, and a hypergeometric proposal is accepted with probability
    min(1, acceptance_ratio)."""
    n = len(entries)
    moves = []
    for (i1, i2), (j1, j2) in product(combinations(range(n), 2), repeat=2):
        diagonal, anti = ((i1, j1), (i2, j2)), ((i1, j2), (i2, j1))
        moves += [(diagonal, anti), (anti, diagonal)]
    proposal = Fraction(1, len(moves))
    out: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    stay = Fraction(0)
    for subtracted, added in moves:
        if any(entries[i][j] < 1 for i, j in subtracted):
            stay += proposal
            continue
        rows = [list(row) for row in entries]
        for i, j in subtracted:
            rows[i][j] -= 1
        for i, j in added:
            rows[i][j] += 1
        dest = tuple(map(tuple, rows))
        accept = Fraction(1)
        if target == "hypergeometric":
            accept = min(accept, acceptance_ratio(entries, dest))
        out[dest] = out.get(dest, Fraction(0)) + proposal * accept
        stay += proposal * (1 - accept)
    out[entries] = out.get(entries, Fraction(0)) + stay
    return out


# --- permutation decompositions ---

def resum(matchings) -> tuple[tuple[int, ...], ...] | None:
    """The table the parts sum to, part l adding 1 at each 0-based
    (i, matchings[l][i]); None when some part is not a permutation of range(n)."""
    n = len(matchings[0])
    rows = [[0] * n for _ in range(n)]
    for cols in matchings:
        if sorted(cols) != list(range(n)):
            return None
        for i, j in enumerate(cols):
            rows[i][j] += 1
    return tuple(map(tuple, rows))


def satisfies_constraints(matchings, constraints) -> bool:
    """Each prefix of parts must entrywise dominate the matching prefix of the
    1-based constraint cells: u_1 + ... + u_l >= E(p_1) + ... + E(p_l).  A
    constraint past the last part has no prefix to dominate it."""
    if len(constraints) > len(matchings):
        return False
    covered: Counter = Counter()  # 0-based cell -> parts through it so far
    needed: Counter = Counter()
    for l, (i, j) in enumerate(constraints):
        covered.update(enumerate(matchings[l]))
        needed[i - 1, j - 1] += 1
        if any(covered[cell] < count for cell, count in needed.items()):
            return False
    return True


def decomposition_holds(entries, matchings, constraints=()) -> bool:
    """Whether the parts are permutations summing to the table whose prefixes
    cover the constraint cells."""
    return (resum(matchings) == tuple(map(tuple, entries))
            and satisfies_constraints(matchings, constraints))
