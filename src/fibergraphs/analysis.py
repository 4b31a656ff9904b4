"""Distances, connectivity, common moves, and detour-path structure of fiber graphs.

A graph arrives as a fiber graph or as plain adjacency lists, so the same
machinery serves fiber graphs, the double-cube counterexample graph, and the
random graphs the test oracles throw at it.  Every distance and connectivity
question is answered by one vectorized frontier BFS over CSR arrays: a fiber
graph's own, or arrays built once from the lists.  Local connectivity is
Menger's count of internally vertex-disjoint paths, computed as unit-capacity
max-flow on the vertex-split network.  Global vertex connectivity uses the
classical exact scheme: one minimum-degree vertex against all its
non-neighbors, then all non-adjacent pairs among its neighbors.  Both it and
Liu's criterion sweep their pairs serially, each search capped at the least
flow found so far.

Distances and local connectivity are invariant under graph automorphisms, so
the diameter, κ and Liu sweeps visit one representative per orbit: the first
member in sweep order.  A fiber graph brings its symmetry group (checked
generators, and the stabilizer of one vertex); a plain adjacency list has
none, so there each vertex and each pair is its own orbit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import (
    AdjacentPairError,
    DisconnectedGraphError,
    InvalidDimensionError,
    NotDistanceTwoError,
)
from .graphs import FiberGraph, row_arcs, two_hop_pairs
from .tables import (
    ContingencyTable,
    MarkovMove,
    enumerate_basis_moves,
    is_valid_move,
    scaled_permutation,
)

AdjacencyList = Sequence[Sequence[int]]
GraphLike = Union[FiberGraph, AdjacencyList]

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)
_PAIR_CHUNK = 1 << 16  # pairs scored at a time by min_common_moves_over_close_pairs


def adjacency_of(graph: GraphLike) -> tuple[tuple[int, ...], ...]:
    """Normalize any supported graph input to immutable adjacency lists."""
    if isinstance(graph, FiberGraph):
        return graph.neighbor_lists()
    return tuple(tuple(row) for row in graph)


def _csr(graph: GraphLike) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): a fiber graph's own arrays, or built from adjacency lists."""
    if isinstance(graph, FiberGraph):
        return graph.indptr, graph.indices
    indptr = np.cumsum([0, *map(len, graph)])
    indices = np.fromiter((v for row in graph for v in row), dtype=np.int64, count=indptr[-1])
    return indptr, indices


# --- orbits ---

def _automorphisms(graph: GraphLike) -> tuple[np.ndarray, ...]:
    """Checked generating vertex permutations of a fiber graph; none for lists."""
    return graph.automorphisms if isinstance(graph, FiberGraph) else ()


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


def _pair_images(pairs: np.ndarray, size: int, perms: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """For each vertex permutation, the position in ``pairs`` (a (P, 2)
    array) of every pair's image, pairs compared unordered (keys min * size + max)."""
    weights = np.array([size, 1])
    keys = np.sort(pairs, axis=1) @ weights
    order = np.argsort(keys)
    for perm in perms:
        image = np.sort(perm[pairs], axis=1) @ weights
        at = np.searchsorted(keys, image, sorter=order)
        at = order[np.minimum(at, len(keys) - 1, out=at)]
        assert np.array_equal(keys[at], image), "a symmetry maps a swept pair outside the sweep"
        yield at


def _first_members(labels: np.ndarray) -> np.ndarray:
    """Positions of the first member of each orbit."""
    return np.flatnonzero(labels == np.arange(len(labels)))


# --- distances ---

def _bfs(
    indptr: np.ndarray, indices: np.ndarray, source: int, removed: Iterable[int] = ()
) -> np.ndarray:
    """Distances from source by level-synchronous frontier expansion; -1 marks
    unreachable vertices.  The search never enters a vertex in ``removed``."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    blocked = list(removed)
    dist[blocked] = n  # reads as already reached, so no level enters it
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nbrs = indices[row_arcs(indptr, frontier)]
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = level
    dist[blocked] = -1
    return dist


def bfs_distances(graph: GraphLike, source: int) -> list[int]:
    """Shortest-path distances from source; -1 marks unreachable vertices."""
    return _bfs(*_csr(graph), source).tolist()


def distance_between(graph: GraphLike, u: int, v: int) -> int:
    """BFS distance from u to v, -1 when unreachable."""
    return int(_bfs(*_csr(graph), u)[v])


def diameter(graph: GraphLike) -> int:
    """Largest BFS distance over all source vertices.

    Eccentricity is constant on vertex orbits, so one vectorized BFS runs
    from each orbit's first member (38 sources on G(4,4), not 10,147).
    Vertex 0 is always one, so a disconnected graph raises
    DisconnectedGraphError from the first BFS.
    """
    indptr, indices = _csr(graph)
    n = len(indptr) - 1
    if n == 0:
        raise InvalidDimensionError("diameter of an empty graph is undefined")
    best = 0
    for s in _first_members(_orbit_labels(n, _automorphisms(graph))).tolist():
        dist = _bfs(indptr, indices, s)
        if (dist < 0).any():
            raise DisconnectedGraphError(
                f"vertex {int(np.flatnonzero(dist < 0)[0])} unreachable from {s}"
            )
        best = max(best, int(dist.max()))
    return best


def diameter_witness_pair(n: int, r: int) -> tuple[ContingencyTable, ContingencyTable]:
    """The pair (r*I, r*P), P the n-cycle sending row i to column i-1, at distance (n-1)r."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    identity = scaled_permutation(n, r, list(range(n)))
    cycle = scaled_permutation(n, r, [(i - 1) % n for i in range(n)])
    return identity, cycle


def is_connected(graph: GraphLike) -> bool:
    indptr, indices = _csr(graph)
    return len(indptr) == 1 or bool((_bfs(indptr, indices, 0) >= 0).all())


def _connected_after_removal(
    indptr: np.ndarray, indices: np.ndarray, removed: frozenset[int]
) -> bool:
    """Whether the vertices outside ``removed`` induce a connected graph."""
    alive = len(indptr) - 1 - len(removed)
    start = next((x for x in range(len(indptr) - 1) if x not in removed), None)
    if start is None:
        return True
    return int(np.count_nonzero(_bfs(indptr, indices, start, removed) >= 0)) == alive


# --- local connectivity via vertex-split max-flow ---

class SplitNetwork:
    """Unit-capacity flow network with every vertex split into in/out halves.

    Built once per graph; each query copies the capacity template.  Flow from
    u_out to v_in equals the number of internally vertex-disjoint u-v paths.
    """

    def __init__(self, adj: Sequence[Sequence[int]]):
        n = len(adj)
        self.n = n
        self.arc_to: list[int] = []
        self.arc_cap: list[int] = []
        self.node_arcs: list[list[int]] = [[] for _ in range(2 * n)]

        def add(u: int, v: int, cap: int) -> None:
            self.node_arcs[u].append(len(self.arc_to))
            self.arc_to.append(v)
            self.arc_cap.append(cap)
            self.node_arcs[v].append(len(self.arc_to))
            self.arc_to.append(u)
            self.arc_cap.append(0)

        for x in range(n):
            add(2 * x, 2 * x + 1, 1)  # x_in -> x_out
        for x in range(n):
            for y in adj[x]:
                add(2 * x + 1, 2 * y, 1)  # x_out -> y_in

    def max_flow(
        self, s: int, t: int, bound: int | None = None
    ) -> tuple[int, list[int] | None]:
        """Flow value from s_out to t_in, capped at ``bound`` when given.

        Returns (flow, residual_caps); residual_caps is None when the search
        stopped at the bound (the true value may be larger).
        """
        caps = self.arc_cap.copy()
        source, sink = 2 * s + 1, 2 * t
        arc_to, node_arcs = self.arc_to, self.node_arcs
        flow = 0
        while bound is None or flow < bound:
            parent_arc = [-1] * (2 * self.n)
            parent_arc[source] = -2
            queue = deque([source])
            reached = False
            while queue and not reached:
                x = queue.popleft()
                for a in node_arcs[x]:
                    if caps[a] > 0:
                        y = arc_to[a]
                        if parent_arc[y] == -1:
                            parent_arc[y] = a
                            if y == sink:
                                reached = True
                                break
                            queue.append(y)
            if not reached:
                return flow, caps
            x = sink
            while x != source:
                a = parent_arc[x]
                caps[a] -= 1
                caps[a ^ 1] += 1
                x = arc_to[a ^ 1]
            flow += 1
        return flow, None

    def min_cut_vertices(self, caps: list[int], s: int) -> frozenset[int]:
        """A minimum s-t vertex cut, read from a maximum flow's residual ``caps``.

        Every arc leaving the residual-reachable side is saturated, and there
        are as many as units of flow.  Each names a vertex: x_in -> x_out
        names x, and u_out -> v_in names u, or v when u is s (then v is not
        t, as s and t are non-adjacent).  Every s-t path crosses one of these
        arcs at the vertex it names, so the named vertices form a cut.
        """
        source = 2 * s + 1
        seen = [False] * (2 * self.n)
        seen[source] = True
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for a in self.node_arcs[x]:
                if caps[a] > 0 and not seen[self.arc_to[a]]:
                    seen[self.arc_to[a]] = True
                    queue.append(self.arc_to[a])
        cut = set()
        for a in range(0, len(self.arc_to), 2):  # even arcs are the forward ones
            tail, head = self.arc_to[a + 1], self.arc_to[a]
            if seen[tail] and not seen[head]:
                cut.add((head if tail == source else tail) // 2)
        return frozenset(cut)


def local_connectivity(graph: GraphLike, u: int, v: int) -> int:
    """Maximum number of internally vertex-disjoint u-v paths (u, v non-adjacent)."""
    adj = adjacency_of(graph)
    if u == v:
        raise InvalidDimensionError("local connectivity needs two distinct vertices")
    if v in adj[u]:
        raise AdjacentPairError(
            f"vertices {u} and {v} are adjacent; the split-network reduction "
            "does not define their local connectivity"
        )
    flow, _ = SplitNetwork(adj).max_flow(u, v)
    return flow


# --- global vertex connectivity ---

@dataclass(frozen=True)
class ConnectivityReport:
    kappa: int
    witness_cut: frozenset[int] | None  # None only for complete graphs
    min_degree: int
    conjecture_holds: bool  # kappa == min_degree
    complete: bool = False


def _is_complete(adj: Sequence[Sequence[int]]) -> bool:
    n = len(adj)
    return all(len(set(row)) == n - 1 for row in adj)


def _connectivity_pairs(adj: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, int]]]:
    """The certifying pair family: a minimum-degree vertex s0 vs all its
    non-neighbors, then all non-adjacent pairs inside N(s0)."""
    degrees = [len(row) for row in adj]
    s0 = min(range(len(adj)), key=lambda x: (degrees[x], x))
    nbrs = set(adj[s0])
    pairs = [(s0, w) for w in range(len(adj)) if w != s0 and w not in nbrs]
    sorted_nbrs = sorted(nbrs)
    adj_sets = [set(row) for row in adj]
    for a in range(len(sorted_nbrs)):
        for b in range(a + 1, len(sorted_nbrs)):
            x, y = sorted_nbrs[a], sorted_nbrs[b]
            if y not in adj_sets[x]:
                pairs.append((x, y))
    return s0, pairs


def _min_flow(
    net: SplitNetwork, pairs: Sequence[tuple[int, int]], bound: int | None
) -> tuple[int | None, tuple[int, int] | None, list[int] | None]:
    """(value, pair, residual) for the first pair whose max-flow is least.

    Each search is capped at the least flow found so far, the first one at
    ``bound`` (None leaves it uncapped).  A search that stops below its cap
    found no augmenting path, so its value is exact and its residual is a
    maximum flow's.  Returns (bound, None, None) when no pair goes below it.
    """
    best, best_pair, best_caps = bound, None, None
    for s, t in pairs:
        flow, caps = net.max_flow(s, t, best)
        if caps is not None:
            best, best_pair, best_caps = flow, (s, t), caps
    return best, best_pair, best_caps


def vertex_connectivity(graph: GraphLike) -> ConnectivityReport:
    """Exact vertex connectivity with a verified witness cut.

    Complete graphs get kappa = |V| - 1 and no cut; disconnected graphs get
    kappa = 0 with the empty cut.  Otherwise kappa is the minimum local
    connectivity over the certifying pair family, swept serially with every
    search capped at deg(s0) or the least flow found so far.  Stab(s0) maps
    the family onto itself, so only the first member of each of its orbits
    is swept; the first pair of the whole family to reach the minimum is
    such a member, and every earlier one is above it.  The witness cut is
    read from the minimizing search's residual (N(s0) when no pair goes
    below deg(s0)) and re-checked by BFS before returning.
    """
    adj = adjacency_of(graph)
    n = len(adj)
    if n < 2:
        raise InvalidDimensionError("connectivity needs at least two vertices")
    min_degree = min(len(row) for row in adj)
    if not is_connected(graph):
        return ConnectivityReport(0, frozenset(), min_degree, min_degree == 0)
    if _is_complete(adj):
        return ConnectivityReport(n - 1, None, min_degree, min_degree == n - 1, complete=True)

    s0, pairs = _connectivity_pairs(adj)
    # Stab(s0) is a group, so an orbit's least position is its least image
    stabilizer = graph.stabilizer(s0) if isinstance(graph, FiberGraph) else ()
    images = _pair_images(np.array(pairs, dtype=np.int64), n, stabilizer)
    labels = reduce(np.minimum, images, np.arange(len(pairs)))
    firsts = [pairs[i] for i in _first_members(labels).tolist()]
    net = SplitNetwork(adj)
    kappa, min_pair, caps = _min_flow(net, firsts, len(adj[s0]))
    if min_pair is None:
        # kappa equals the minimum degree; the neighborhood of s0 is a cut
        witness = frozenset(adj[s0])
    else:
        witness = net.min_cut_vertices(caps, min_pair[0])

    assert len(witness) == kappa, "witness cut size disagrees with kappa"
    assert not _connected_after_removal(*_csr(graph), witness), "witness cut does not disconnect"
    return ConnectivityReport(kappa, witness, min_degree, kappa == min_degree)


# --- Liu's criterion and distance-2 structure ---

def distance_two_pairs(graph: GraphLike) -> np.ndarray:
    """All unordered pairs at distance exactly 2, as a (P, 2) int64 array
    sorted by (u, w) with u < w: one CSR two-hop sweep (``two_hop_pairs``),
    which a fiber graph runs once and keeps."""
    if isinstance(graph, FiberGraph):
        return graph.distance_two
    return two_hop_pairs(*_csr(graph))


@dataclass(frozen=True)
class LiuCheckResult:
    passed: bool
    threshold: int
    min_pair: tuple[int, int] | None
    min_value: int | None  # None when the graph has no distance-2 pair


def liu_check(graph: GraphLike, k: int) -> LiuCheckResult:
    """Check the k-disjoint-paths hypothesis over every distance-2 pair.

    Returns the first pair, in ``distance_two_pairs`` order, whose exact
    disjoint-path count is least, with that count; passed is True when the
    minimum is >= k (vacuously true without distance-2 pairs).  The first
    member of each pair orbit is swept serially: the first search is
    uncapped and each later one is capped at the least count found so far.
    That first pair to reach the minimum is the first member of its orbit.
    """
    adj = adjacency_of(graph)
    pairs = distance_two_pairs(graph)
    if not len(pairs):
        return LiuCheckResult(True, k, None, None)
    labels = _orbit_labels(len(pairs), list(_pair_images(pairs, len(adj), _automorphisms(graph))))
    firsts = list(map(tuple, pairs[_first_members(labels)].tolist()))
    best, min_pair, _ = _min_flow(SplitNetwork(adj), firsts, None)
    return LiuCheckResult(best >= k, k, min_pair, best)


def common_moves(u: ContingencyTable, v: ContingencyTable) -> list[MarkovMove]:
    """Basis moves valid at both tables, in canonical order."""
    if u.n != v.n or u.r != v.r:
        raise InvalidDimensionError("tables live in different fibers")
    if u.n < 2:
        return []
    return [
        m
        for m in enumerate_basis_moves(u.n)
        if is_valid_move(u, m) and is_valid_move(v, m)
    ]


def min_common_moves_over_close_pairs(
    graph: FiberGraph, max_distance: int = 2
) -> tuple[int, tuple[int, int]] | None:
    """Minimum number of shared valid moves over all pairs within the distance.

    Each valid move gives exactly one arc, so a vertex's valid-move set is
    the move ids of its CSR row, packed once into bytes.  The edges, then the
    distance-2 pairs, are scored a chunk at a time by one AND and a byte
    popcount.  Returns (count, (u, v)) for the first minimizing pair, or None
    when no qualifying pair exists.
    """
    if max_distance != 2:
        raise InvalidDimensionError("only max_distance=2 is supported")
    size = graph.vertex_count
    tails = np.repeat(np.arange(size), np.diff(graph.indptr))
    valid = np.zeros((size, 2 * comb(graph.fiber.n, 2) ** 2), dtype=bool)
    valid[tails, graph.move_ids] = True
    masks = np.packbits(valid, axis=1)
    upper = tails < graph.indices
    close = distance_two_pairs(graph)
    best = None
    for first, second in ((tails[upper], graph.indices[upper]), (close[:, 0], close[:, 1])):
        for start in range(0, len(first), _PAIR_CHUNK):
            u, v = first[start:start + _PAIR_CHUNK], second[start:start + _PAIR_CHUNK]
            shared = _POPCOUNT[masks[u] & masks[v]].sum(axis=1)
            at = int(np.argmin(shared))  # the first of several minimizing pairs
            if best is None or shared[at] < best[0]:
                best = (int(shared[at]), (int(u[at]), int(v[at])))
    return best


# --- detour paths between distance-2 vertices ---

@lru_cache(maxsize=None)
def _basis_moves(n: int) -> tuple[MarkovMove, ...]:
    return tuple(enumerate_basis_moves(n))


@dataclass(frozen=True)
class DetourPathReport:
    u: int
    v: int
    middle_moves: tuple[MarkovMove, MarkovMove]
    count_disjoint: int
    decomposition_count: int
    paths: tuple[tuple[int, ...], ...]  # kept pairwise internally-disjoint paths


def detour_paths(graph: FiberGraph, u: int, v: int) -> DetourPathReport:
    """Greedy internally-disjoint path family between a distance-2 pair.

    The pair is joined by a two-move sequence (d1, d2); the canonically first
    such decomposition is fixed.  Candidate paths are the direct length-2
    path, the alternate length-2 path through u + d2 (reached when the extra
    move equals d2 or -d1), and the four-step detours M, d1, d2, -M for every
    other extra move M.  Candidates are kept first-come in canonical move
    order whenever their interior avoids all previously kept paths.

    Moves are basis-move ids: the neighbour of x by move k is read from the
    CSR row of x, and move k ^ 1 is the negation of move k.
    """

    def arcs(x: int) -> dict[int, int]:
        """Move id -> neighbour over the CSR row of x (which is sorted by neighbour)."""
        a, b = graph.indptr[x], graph.indptr[x + 1]
        return dict(zip(graph.move_ids[a:b].tolist(), graph.indices[a:b].tolist()))

    at_u = arcs(u)
    if u == v or v in at_u.values():
        raise NotDistanceTwoError(f"vertices {u} and {v} are not at distance 2")
    # sorted by move id, so that the canonically first decomposition comes first
    decomps = [(m1, m2) for m1, x in sorted(at_u.items()) for m2, y in arcs(x).items() if y == v]
    if not decomps:
        raise NotDistanceTwoError(f"vertices {u} and {v} are not at distance 2")
    d1, d2 = decomps[0]

    kept: list[tuple[int, ...]] = [(u, at_u[d1], v)]
    used_internal: set[int] = {at_u[d1]}
    moves = _basis_moves(graph.fiber.n)

    for move in range(len(moves)):
        if move == d1 or move == d2 ^ 1:
            continue  # these collide with the direct path's interior
        if move == d2 or move == d1 ^ 1:
            # both stand for the alternate length-2 path u -> u + d2 -> v
            if d2 not in at_u:
                continue
            candidate = (u, at_u[d2], v)
        else:
            a = at_u.get(move)
            b = None if a is None else arcs(a).get(d1)
            c = None if b is None else arcs(b).get(d2)
            if c is None:
                continue
            assert arcs(c).get(move ^ 1) == v, "final leg must land on v"
            if len({a, b, c}) < 3 or u in (a, b, c) or v in (a, b, c):
                continue
            candidate = (u, a, b, c, v)
        interior = set(candidate[1:-1])
        if interior & used_internal:
            continue
        kept.append(candidate)
        used_internal |= interior

    return DetourPathReport(u, v, (moves[d1], moves[d2]), len(kept), len(decomps), tuple(kept))


# --- the double-cube counterexample ---

def hemmecke_graph(k: int) -> tuple[tuple[tuple[int, ...], ...], ConnectivityReport]:
    """Two k-cube skeletons joined by a single edge between all-zero corners.

    Vertex id = side * 2^k + corner_bits.  The graph has 2^(k+1) vertices,
    minimum degree k, and connectivity 1 (each bridge endpoint is a cut
    vertex), which is why its fiber needs large margins to be excluded.
    """
    if k < 1:
        raise InvalidDimensionError(f"need k >= 1, got {k}")
    size = 1 << k
    adj: list[list[int]] = [[] for _ in range(2 * size)]
    for side in (0, 1):
        base = side * size
        for mask in range(size):
            for bit in range(k):
                adj[base + mask].append(base + (mask ^ (1 << bit)))
    adj[0].append(size)
    adj[size].append(0)
    frozen = tuple(tuple(sorted(row)) for row in adj)
    return frozen, vertex_connectivity(frozen)


def hemmecke_matrix(k: int) -> tuple[list[list[int]], list[int]]:
    """(2k+1) x (4k+2) system whose non-negative solutions for b = e_{2k+1}
    form the double-cube fiber: each of the first 2k rows ties one variable
    pair to a cube selector, and the last row makes the selectors sum to 1."""
    if k < 1:
        raise InvalidDimensionError(f"need k >= 1, got {k}")
    cols = 4 * k + 2
    A: list[list[int]] = []
    for i in range(k):
        row = [0] * cols
        row[2 * i] = row[2 * i + 1] = 1
        row[4 * k] = -1
        A.append(row)
    for i in range(k):
        row = [0] * cols
        row[2 * k + 2 * i] = row[2 * k + 2 * i + 1] = 1
        row[4 * k + 1] = -1
        A.append(row)
    last = [0] * cols
    last[4 * k] = last[4 * k + 1] = 1
    A.append(last)
    b = [0] * (2 * k) + [1]
    return A, b


def articulation_vertices(graph: GraphLike) -> list[int]:
    """Vertices whose removal disconnects the graph (checked by removal + BFS)."""
    indptr, indices = _csr(graph)
    return [
        x
        for x in range(len(indptr) - 1)
        if not _connected_after_removal(indptr, indices, frozenset({x}))
    ]
