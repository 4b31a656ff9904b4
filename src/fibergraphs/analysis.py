"""Distances, connectivity, common moves, and detour-path structure of fiber graphs.

Every function takes one graph type, a ``CsrGraph``: a fiber graph, the
double-cube counterexample graph, or a random graph of the test oracles,
each built as CSR arrays once, at the boundary.  One-source questions are
answered by a vectorized frontier BFS over those arrays, the diameter by a
bit-parallel BFS from all sources at once.  Local connectivity is Menger's
count of internally vertex-disjoint paths: unit-capacity max-flow on the
vertex-split network, whose searches read the CSR rows directly.

Global vertex connectivity is read from Liu's criterion.  In a connected,
non-complete graph, take a minimum vertex cut S.  Each x in S has
neighbours a and b in two different components (else S - x would be a
cut), so d(a, b) = 2 and S separates a from b.  So κ is the least local
connectivity over the distance-2 pairs, which is the minimum Liu's
criterion asks for.  One sweep over those pairs, run once per graph,
answers both.  It settles most pairs without a flow: k internally disjoint
s-t paths prove κ(s, t) >= k (Menger), and the paper's detours M, d1, d2,
-M give such paths.  A pair whose detours reach the least value found so
far cannot lower it.  Before there is one, a family reaching min(deg s,
deg t), an upper bound, gives the value exactly; on every fiber graph
tried the first pair is (0, w), of degree δ, so its cap is δ >= κ.  Only
the pairs whose detours fall short get a max-flow, capped the same way.

Distances, local connectivity and shared moves are invariant under graph
automorphisms, so a sweep needs one member of each orbit.  The diameter's
sources are the vertex orbits' first members, the representatives.  The
pair sweeps are anchored: the least member (x, y), x < y, of any orbit of
unordered pairs has x a representative, since a symmetry mapping x to the
first member of its orbit would give a smaller pair.  They read the pairs
(u, w), u a representative, w > u, of one two-hop pass per graph with (1)
labels[w] >= u and, for the distance-2 sweep, (2) w least in its orbit
under Stab(u), the symmetries fixing u; else a symmetry gives a smaller
pair.  By (1) all pairs read from one orbit share u, and a symmetry maps
(u, w) to (u, x) by fixing u, or by sending w to u, which one coset of
Stab(u) does when w and u share a vertex orbit: so (2) reads one pair per
orbit, two at most when its tables share a vertex orbit.  A fiber graph
reads its fiber's ``graphs.vertex_orbits``, once ``automorphisms`` has
proven the generators on its arcs; a plain ``CsrGraph`` has no symmetry, so
there every vertex is a representative and every pair its own orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FiberGraphsError
from .graphs import (CsrGraph, FiberGraph, row_arcs, stabiliser, two_hop_pairs, vertex_orbits,
                     weakly_memoised)
from .tables import ContingencyTable, move_cells, scaled_permutation

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


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
        dist[nbrs[dist[nbrs] < 0]] = level
        frontier = np.flatnonzero(dist == level)
    dist[blocked] = -1
    return dist


def distance_between(graph: CsrGraph, u: int, v: int) -> int:
    """BFS distance from u to v, -1 when unreachable."""
    u, v = graph.check_vertex(u), graph.check_vertex(v)
    return int(_bfs(graph.indptr, graph.indices, u)[v])


_SOURCE_WORDS = 16  # 64-bit words of sources one diameter sweep carries: 1,024 sources
_SWEEP_ROWS = 1 << 14  # CSR rows gathered at a time; 65,536 ran 20% slower on G(4,6)


def diameter(graph: CsrGraph) -> int:
    """Largest BFS distance over all source vertices.

    The sources are the vertex-orbit representatives (module docstring):
    38 on G(4,4), not 10,147.  Their searches advance together, one bit per
    source in each vertex's words, in batches of at most ``_SOURCE_WORDS``
    words.  Each level is one pass over the arcs: a vertex ORs its
    neighbours' frontier words, and the bits it had not yet seen are its
    next frontier.  The diameter is the last level that sets a bit.  When
    a source misses a vertex, FiberGraphsError names the least such source
    and the first vertex it misses.
    """
    n = graph.vertex_count
    if n == 0:
        raise FiberGraphsError("diameter of an empty graph is undefined")
    sources = _first_members(_vertex_labels(graph))
    best = 0
    for batch in np.split(sources, range(64 * _SOURCE_WORDS, len(sources), 64 * _SOURCE_WORDS)):
        bits = np.arange(len(batch))
        frontier = np.zeros(((len(batch) + 63) // 64, n), dtype=np.uint64)  # word j of vertex v
        frontier[bits >> 6, batch] = np.uint64(1) << (bits & 63).astype(np.uint64)
        seen, level = frontier.copy(), 0
        while frontier.any():
            frontier = _neighbour_or(graph.indptr, graph.indices, frontier) & ~seen
            seen |= frontier
            level += 1
        best = max(best, level - 1)
        # each source sees itself, so a bit some vertex lacks is a source that misses it
        missed = np.bitwise_or.reduce(seen, axis=1) & ~np.bitwise_and.reduce(seen, axis=1)
        if missed.any():
            word = int(np.flatnonzero(missed)[0])
            mask = int(missed[word]) & -int(missed[word])  # the lowest bit: the least source
            v = int(np.flatnonzero(seen[word] & np.uint64(mask) == 0)[0])
            s = int(batch[64 * word + mask.bit_length() - 1])
            raise FiberGraphsError(f"vertex {v} unreachable from {s}")
    return best


def _neighbour_or(indptr: np.ndarray, indices: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Entry (j, u) of the result is the OR of ``words[j, v]`` over the
    neighbours v of u.  Each word is gathered on its own, which keeps the
    gather one-dimensional, and the rows go ``_SWEEP_ROWS`` at a time: a
    chunk whose neighbours all hold zero words is skipped."""
    out = np.zeros_like(words)
    live = words.any(axis=0)
    for a in range(0, words.shape[1], _SWEEP_ROWS):
        starts = indptr[a:a + _SWEEP_ROWS + 1]
        nbrs = indices[starts[0]:starts[-1]]
        if not live[nbrs].any():
            continue
        rows = np.flatnonzero(np.diff(starts))  # reduceat would misread an empty row
        for word, into in zip(words, out):
            into[a + rows] = np.bitwise_or.reduceat(word.take(nbrs), starts[rows] - starts[0])
    return out


def diameter_witness_pair(n: int, r: int) -> tuple[ContingencyTable, ContingencyTable]:
    """The pair (r*I, r*P), P the n-cycle sending row i to column i-1, at distance (n-1)r."""
    if n < 2:
        raise FiberGraphsError(f"need n >= 2, got {n}")
    identity = scaled_permutation(n, r, list(range(n)))
    cycle = scaled_permutation(n, r, [(i - 1) % n for i in range(n)])
    return identity, cycle


def is_connected(graph: CsrGraph, removed: frozenset[int] = frozenset()) -> bool:
    """Whether the vertices outside ``removed`` induce a connected graph."""
    start = next((x for x in range(graph.vertex_count) if x not in removed), None)
    if start is None:
        return True
    reached = np.count_nonzero(_bfs(graph.indptr, graph.indices, start, removed) >= 0)
    return int(reached) == graph.vertex_count - len(removed)


# --- local connectivity via vertex-split max-flow ---

Residual = tuple[int, dict[int, int], set[int]]  # (t, pred, into_t) of a maximum flow


class SplitNetwork:
    """Unit-capacity flow network with every vertex x split into x_in = 2x
    and x_out = 2x + 1, read from the graph's CSR rows.

    The arcs are x_in -> x_out for every vertex and x_out -> y_in for every
    arc x -> y of the graph, all of capacity 1.  Flow from s_out to t_in
    equals the number of internally vertex-disjoint s-t paths.  A query
    keeps its flow as ``pred[y] = x``, one entry for each flow arc x -> y
    with y != t (a vertex takes in at most one unit), plus the set of t's
    predecessors; a vertex carries flow exactly when it has a ``pred``.
    """

    def __init__(self, graph: CsrGraph):
        self.n = graph.vertex_count
        self.indptr: list[int] = graph.indptr.tolist()
        self.indices: list[int] = graph.indices.tolist()

    def _search(self, s: int, t: int, pred: dict[int, int], into_t: set[int]) -> list[int]:
        """Parents of the split nodes that one residual BFS from s_out reaches,
        -1 for the others; the search stops as soon as it reaches t_in.

        From x_out it tries the reverse vertex arc to x_in first, then the
        arcs to the row's neighbours in row order.  From x_in the one
        residual arc leads to x_out, or back to pred[x]_out when x carries flow.
        """
        indptr, indices = self.indptr, self.indices
        parent = [-1] * (2 * self.n)
        source = 2 * s + 1
        parent[source] = source
        queue = [source]
        for node in queue:  # the loop also visits the nodes appended during it
            x = node >> 1
            if not node & 1:
                nxt = 2 * pred[x] + 1 if x in pred else node + 1
                if parent[nxt] < 0:
                    parent[nxt] = node
                    queue.append(nxt)
                continue
            if x in pred and parent[node - 1] < 0:
                parent[node - 1] = node
                queue.append(node - 1)
            for y in indices[indptr[x]:indptr[x + 1]]:
                if parent[2 * y] < 0 and pred.get(y) != x:
                    if y == t:
                        if x not in into_t:
                            parent[2 * y] = node
                            return parent
                    else:
                        parent[2 * y] = node
                        queue.append(2 * y)
        return parent

    def max_flow(self, s: int, t: int, bound: int | None = None) -> tuple[int, Residual | None]:
        """Flow value from s_out to t_in, capped at ``bound`` when given.

        Returns (flow, residual); residual is None when the search stopped
        at the bound (the true value may be larger).
        """
        pred: dict[int, int] = {}
        into_t: set[int] = set()
        source, sink = 2 * s + 1, 2 * t
        flow = 0
        while bound is None or flow < bound:
            parent = self._search(s, t, pred, into_t)
            if parent[sink] < 0:
                return flow, (t, pred, into_t)
            node = sink
            while node != source:
                prev = parent[node]
                if prev >> 1 != node >> 1:  # a graph arc, not a vertex arc
                    if not prev & 1:
                        del pred[prev >> 1]  # back along x -> y: cancel it
                    elif node == sink:
                        into_t.add(prev >> 1)
                    else:
                        pred[node >> 1] = prev >> 1
                node = prev
            flow += 1
        return flow, None

    def min_cut_vertices(self, residual: Residual, s: int) -> frozenset[int]:
        """A minimum s-t vertex cut, read from a maximum flow's ``residual``.

        Every arc leaving the residual-reachable side is saturated, and there
        are as many as units of flow.  Each names a vertex: x_in -> x_out
        names x, and u_out -> v_in names u, or v when u is s (then v is not
        t, as s and t are non-adjacent).  Every s-t path crosses one of these
        arcs at the vertex it names, so the named vertices form a cut.
        """
        seen = self._search(s, *residual)
        cut = set()
        for x in range(self.n):
            if seen[2 * x + 1] >= 0:
                row = self.indices[self.indptr[x]:self.indptr[x + 1]]
                cut.update(y if x == s else x for y in row if seen[2 * y] < 0)
            elif seen[2 * x] >= 0:
                cut.add(x)
        return frozenset(cut)


def local_connectivity(graph: CsrGraph, u: int, v: int) -> int:
    """Maximum number of internally vertex-disjoint u-v paths (u, v non-adjacent)."""
    u, v = graph.check_vertex(u), graph.check_vertex(v)
    if u == v:
        raise FiberGraphsError("local connectivity needs two distinct vertices")
    if v in graph.neighbors(u):
        raise FiberGraphsError(
            f"vertices {u} and {v} are adjacent; the split-network reduction "
            "does not define their local connectivity"
        )
    flow, _ = SplitNetwork(graph).max_flow(u, v)
    return flow


# --- the distance-2 sweep: global connectivity and Liu's criterion ---

def distance_two_pairs(graph: CsrGraph) -> np.ndarray:
    """All unordered pairs at distance exactly 2, as a (P, 2) int64 array
    sorted by (u, w) with u < w, listed on each call.  The sweeps read only
    the anchored ones (module docstring)."""
    return two_hop_pairs(graph.indptr, graph.indices, np.arange(graph.vertex_count))


def _vertex_labels(graph: CsrGraph) -> np.ndarray:
    """The fiber's ``vertex_orbits``, read once ``graph.automorphisms`` proves the generators."""
    return vertex_orbits(graph.fiber) if graph.automorphisms else np.arange(graph.vertex_count)


def _first_members(labels: np.ndarray) -> np.ndarray:
    """Positions of the first member of each orbit."""
    return np.flatnonzero(labels == np.arange(len(labels)))


@weakly_memoised
def _anchored_pairs(graph: CsrGraph) -> np.ndarray:
    """The rows (u, w) of ``distance_two_pairs`` kept by rule (1) of the
    module docstring: u a representative and labels[w] >= u."""
    labels = _vertex_labels(graph)
    pairs = two_hop_pairs(graph.indptr, graph.indices, _first_members(labels))
    return pairs[labels[pairs[:, 1]] >= pairs[:, 0]]


MinFlow = tuple[int | None, tuple[int, int] | None, Residual | None]  # (value, pair, residual)


@weakly_memoised
def _distance_two_sweep(graph: CsrGraph) -> MinFlow:
    """(value, pair, residual) for the first distance-2 pair, in
    ``distance_two_pairs`` order, whose local connectivity is least; all None
    when the graph has no distance-2 pair.  It reads the pairs of rules (1)
    and (2) of the module docstring, in order: each orbit's least member is
    one of them, so their first pair of least value is that of all pairs.

    Each pair first tries the detours of ``detour_paths``, the scan capped
    at the least value found so far, or at min(deg s, deg t) before there
    is one (module docstring); a family that reaches its cap settles the
    pair without a flow.  Any other pair gets a max-flow with the same cap,
    none for the first: a search that stops below its cap found no
    augmenting path, so its value is exact and its residual a maximum
    flow's.  Detours set a value only on the first pair, and it is then at
    least δ, so a value below δ always comes with a residual.  A plain
    ``CsrGraph`` has no move labels, so there every pair gets a flow.  κ
    and Liu's check share the one sweep of a graph.
    """
    rows = _MoveRows(graph) if isinstance(graph, FiberGraph) else None
    net, best = None, (None, None, None)
    for s, t in _orbit_first_pairs(graph).tolist():
        value = best[0]
        cap = min(graph.degree(s), graph.degree(t)) if value is None else value
        if rows is not None and len(_detour_family(rows, s, t, cap)) >= cap:
            best = (cap, (s, t), None) if value is None else best
            continue
        net = net or SplitNetwork(graph)
        flow, residual = net.max_flow(s, t, value)
        if residual is not None:
            best = flow, (s, t), residual
    return best


def _orbit_first_pairs(graph: CsrGraph) -> np.ndarray:
    """The anchored pairs (u, w) kept by rule (2) of the module docstring.
    Vertex ids follow the canonical order of the tables' cells, so the rule
    compares w's table with its images and looks up no vertex."""
    pairs = _anchored_pairs(graph)
    if not (graph.automorphisms and len(pairs)):
        return pairs
    reps, which = np.unique(pairs[:, 0], return_inverse=True)
    stabs = [stabiliser(graph.fiber.cells[x]) for x in reps.tolist()]
    return pairs[~_sorts_below(graph.fiber.cells[pairs[:, 1]], stabs, which)]


_IMAGE_BLOCK = 1 << 18  # (table, permutation) images compared at a time by _sorts_below


def _sorts_below(tables: np.ndarray, perms: list[np.ndarray], which: np.ndarray) -> np.ndarray:
    """For each k, whether some image tables[k][p], p a row of
    perms[which[k]], has cells that sort before those of tables[k].  Images
    are compared a cell at a time, and only those still tied with their
    table go on to the next."""
    out = np.zeros(len(tables), dtype=bool)
    lengths = np.array([len(p) for p in perms])
    sizes, firsts = lengths[which], (np.cumsum(lengths) - lengths)[which]
    stacked = np.concatenate(perms)
    cuts = np.searchsorted(np.cumsum(sizes), np.arange(_IMAGE_BLOCK, sizes.sum(), _IMAGE_BLOCK))
    for block in np.split(np.arange(len(tables)), cuts + 1):  # some blocks may be empty
        k, size = np.repeat(block, sizes[block]), sizes[block]
        p = np.arange(len(k)) - np.repeat(np.cumsum(size) - size - firsts[block], size)
        for cell in range(stacked.shape[1]):
            image, own = tables[k, stacked[p, cell]], tables[k, cell]
            out[k[image < own]] = True
            tied = (image == own) & ~out[k]
            k, p = k[tied], p[tied]
    return out


@dataclass(frozen=True)
class ConnectivityReport:
    kappa: int
    witness_cut: frozenset[int] | None  # None only for complete graphs
    min_degree: int
    conjecture_holds: bool  # kappa == min_degree
    complete: bool = False


def vertex_connectivity(graph: CsrGraph) -> ConnectivityReport:
    """Exact vertex connectivity with a verified witness cut.

    Complete graphs get kappa = |V| - 1 and no cut; disconnected graphs get
    kappa = 0 with the empty cut.  Otherwise every minimum vertex cut
    separates some pair at distance 2 (each cut vertex has neighbours in two
    components), so kappa is the least local connectivity over the
    distance-2 pairs: the minimum of the sweep Liu's check reads too.  The
    witness cut is N(s0), s0 the first minimum-degree vertex, when kappa
    equals the minimum degree, and otherwise the minimum cut of the
    minimising pair's residual.  It is re-checked by BFS before returning,
    and FiberGraphsError is raised when the check fails.
    """
    n = graph.vertex_count
    if n < 2:
        raise FiberGraphsError("connectivity needs at least two vertices")
    degrees = np.diff(graph.indptr)
    min_degree = int(degrees.min())
    if not is_connected(graph):
        return ConnectivityReport(0, frozenset(), min_degree, min_degree == 0)
    if min_degree == n - 1:  # a simple graph, so complete
        return ConnectivityReport(n - 1, None, min_degree, True, complete=True)

    kappa, min_pair, residual = _distance_two_sweep(graph)
    if kappa == min_degree:
        witness = frozenset(graph.neighbors(int(np.argmin(degrees))).tolist())
    else:
        witness = SplitNetwork(graph).min_cut_vertices(residual, min_pair[0])

    if len(witness) != kappa:
        raise FiberGraphsError(f"witness cut has {len(witness)} vertices but kappa is {kappa}")
    if is_connected(graph, witness):
        raise FiberGraphsError("witness cut does not disconnect the graph")
    return ConnectivityReport(kappa, witness, min_degree, kappa == min_degree)


@dataclass(frozen=True)
class LiuCheckResult:
    passed: bool
    threshold: int
    min_pair: tuple[int, int] | None
    min_value: int | None  # None when the graph has no distance-2 pair


def liu_check(graph: CsrGraph, k: int) -> LiuCheckResult:
    """Check the k-disjoint-paths hypothesis over every distance-2 pair.

    Returns the first pair, in ``distance_two_pairs`` order, whose exact
    disjoint-path count is least, with that count; passed is True when the
    minimum is >= k (vacuously true without distance-2 pairs).  The count
    comes from the graph's one distance-2 sweep, shared with
    ``vertex_connectivity``.
    """
    value, min_pair, _ = _distance_two_sweep(graph)
    return LiuCheckResult(value is None or value >= k, k, min_pair, value)


def min_common_moves_over_close_pairs(graph: FiberGraph) -> tuple[int, tuple[int, int]] | None:
    """Minimum number of shared valid moves over all pairs at distance 1 or 2.

    Each valid move gives exactly one arc, so a vertex's valid-move set is
    the move ids of its CSR row, packed once into bytes.  The count is
    constant on pair orbits, so the first minimising pair, edges first, is
    its orbit's least member: the anchored edges, then ``_anchored_pairs``
    (module docstring), are scored by one AND and a byte popcount.  Returns
    (count, (u, v)) for that pair, or None when there is no such pair.
    """
    size = graph.vertex_count
    tails = np.repeat(np.arange(size), np.diff(graph.indptr))
    valid = np.zeros((size, len(move_cells(graph.fiber.n))), dtype=bool)
    valid[tails, graph.move_ids] = True
    masks = np.packbits(valid, axis=1)
    close = _anchored_pairs(graph)
    arcs = row_arcs(graph.indptr, _first_members(_vertex_labels(graph)))
    arcs = arcs[tails[arcs] < graph.indices[arcs]]
    best = None
    for u, v in ((tails[arcs], graph.indices[arcs]), (close[:, 0], close[:, 1])):
        shared = _POPCOUNT[masks[u] & masks[v]].sum(axis=1)
        if len(shared) and (best is None or shared.min() < best[0]):
            at = int(np.argmin(shared))  # the first of several minimizing pairs
            best = (int(shared[at]), (int(u[at]), int(v[at])))
    return best


# --- detour paths between distance-2 vertices ---

@dataclass(frozen=True)
class DetourPathReport:
    u: int
    v: int
    middle_moves: tuple[int, int]  # the move ids d1, d2 of u -> u + d1 -> v
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

    Moves are ids, rows of ``move_cells(n)``: the neighbour of x by move k
    is read from the CSR row of x, and move k ^ 1 is the negation of move k.
    ``middle_moves`` reports (d1, d2) as two such ids.
    """
    if not isinstance(graph, FiberGraph):
        raise FiberGraphsError("detour paths need a fiber graph's move labels")
    u, v = graph.check_vertex(u), graph.check_vertex(v)
    rows = _MoveRows(graph)
    decompositions = sum(v in rows[x] for x in rows[u] if x >= 0)
    if u == v or v in rows[u] or not decompositions:
        raise FiberGraphsError(f"vertices {u} and {v} are not at distance 2")
    kept = _detour_family(rows, u, v, len(rows[u]))  # no family outgrows the moves
    x = kept[0][1]  # kept[0] is u, u + d1, v
    middle = rows[u].index(x), rows[x].index(v)
    return DetourPathReport(u, v, middle, len(kept), decompositions, tuple(kept))


class _MoveRows(dict):
    """x -> the neighbour of x by each move id, -1 where that move is not
    valid at x: one list per vertex, read from its CSR row on first use."""

    def __init__(self, graph: FiberGraph):
        super().__init__()
        self.graph, self.moves = graph, len(move_cells(graph.fiber.n))

    def __missing__(self, x: int) -> list[int]:
        row = self[x] = [-1] * self.moves
        a, b = self.graph.indptr[x], self.graph.indptr[x + 1]
        for move, y in zip(self.graph.move_ids[a:b].tolist(), self.graph.indices[a:b].tolist()):
            row[move] = y
        return row


def _detour_family(rows: _MoveRows, u: int, v: int, cap: int) -> list[tuple[int, ...]]:
    """The paths ``detour_paths`` keeps for the distance-2 pair (u, v), the
    scan stopping as soon as ``cap`` are kept."""
    at_u = rows[u]
    d1 = next(move for move, x in enumerate(at_u) if x >= 0 and v in rows[x])
    d2 = rows[at_u[d1]].index(v)
    kept, used = [(u, at_u[d1], v)], {-1, u, v, at_u[d1]}  # -1: a move not valid there
    for move, a in enumerate(at_u):
        if len(kept) >= cap:
            break
        if move == d2 or move == d1 ^ 1:  # both stand for the alternate path through u + d2
            interior = (at_u[d2],)
        else:  # the detour M, d1, d2, -M; M = d1 or -d2 meets the direct path's interior
            b = rows[a][d1] if a >= 0 else -1
            interior = (a, b, rows[b][d2] if b >= 0 else -1)
        if len(set(interior)) == len(interior) and used.isdisjoint(interior):
            kept.append((u, *interior, v))
            used.update(interior)
    return kept


# --- the double-cube counterexample ---

def hemmecke_graph(k: int) -> tuple[CsrGraph, ConnectivityReport]:
    """Two k-cube skeletons joined by a single edge between all-zero corners.

    Vertex id = side * 2^k + corner_bits.  The graph has 2^(k+1) vertices,
    minimum degree k, and connectivity 1 (each bridge endpoint is a cut
    vertex), which is why its fiber needs large margins to be excluded.
    """
    if k < 1:
        raise FiberGraphsError(f"need k >= 1, got {k}")
    size = 1 << k
    adj: list[list[int]] = [[] for _ in range(2 * size)]
    for side in (0, 1):
        base = side * size
        for mask in range(size):
            for bit in range(k):
                adj[base + mask].append(base + (mask ^ (1 << bit)))
    adj[0].append(size)
    adj[size].append(0)
    graph = CsrGraph.from_rows(sorted(row) for row in adj)
    return graph, vertex_connectivity(graph)


def articulation_vertices(graph: CsrGraph) -> list[int]:
    """Vertices whose removal disconnects the graph (checked by removal + BFS)."""
    vertices = range(graph.vertex_count)
    return [x for x in vertices if not is_connected(graph, frozenset({x}))]
