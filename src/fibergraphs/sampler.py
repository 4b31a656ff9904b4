"""Seeded Metropolis-Hastings walks on table fibers, without enumeration.

The proposal draws uniformly from the full signed move basis; a proposal
that would drive an entry negative is rejected in place, which keeps the
kernel symmetric (a lazy walk).  Two stationary targets are supported:

* ``uniform``: every proposal that stays non-negative is accepted, so the
  chain is uniform over the fiber.
* ``hypergeometric``: density proportional to 1 / prod(cell!), the
  conditional null distribution used by exact tests; the acceptance ratio
  only involves the four changed cells and is evaluated in log space.

``advance``, ``run_walk`` and ``exact_test`` run each stretch of steps (burn-in,
then the sampled steps) as one loop of the kernel.  The kernel sums all n^2
entries and their squares, the score it keeps, on entry and every 4096 steps;
after an accepted move it sums them again only when ``_keeps_margins`` cannot
prove that the move keeps the margins, and else updates the score from the
four cells.  It reads log k from a list of log(0..r) when r <= 4096.

Randomness comes from numpy's PCG64 bit generator seeded with a 64-bit
integer.  The walk fetches its raw 64-bit outputs in blocks, decodes each
word once with numpy, and consumes the words exactly as
``Generator.integers(M)`` and ``Generator.random()`` do: a move id is
Lemire's bounded draw on a 32-bit half (low half of a fresh word first, high
half buffered for the next draw, across a block refill too), and an
acceptance uniform is one whole word, ``(w >> 11) * 2**-53``, leaving any
buffered half in place.  The trajectory is therefore a function of the
(seed, config, start) triple and PCG64's raw output alone.  numpy keeps a bit
generator's raw stream fixed across releases and platforms, while
``Generator`` methods may change their algorithms; changing the bit
generator or the decoding would be a breaking interface change.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import FiberGraphsError, UsageError
from .tables import ContingencyTable, as_equal_margin_table, move_cells


class Target(str, enum.Enum):
    UNIFORM = "uniform"
    HYPERGEOMETRIC = "hypergeometric"


@dataclass(frozen=True)
class WalkConfig:
    """Walk length, burn-in, thinning, 64-bit seed and stationary target.

    steps may be zero (an empty walk); otherwise burn_in < steps and the
    thinning stride cannot exceed the post-burn-in stretch.
    """

    steps: int
    seed: int
    burn_in: int = 0
    thinning: int = 1
    target: Target = Target.UNIFORM

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise UsageError(f"steps must be >= 0, got {self.steps}")
        if self.burn_in < 0:
            raise UsageError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thinning < 1:
            raise UsageError(f"thinning must be >= 1, got {self.thinning}")
        if not 0 <= self.seed < 2**64:
            raise UsageError("seed must fit in an unsigned 64-bit integer")
        if self.steps > 0:
            if self.burn_in >= self.steps:
                raise UsageError("burn_in must be smaller than steps")
            if self.thinning > self.steps - self.burn_in:
                raise UsageError("thinning cannot exceed the post-burn-in step count")
        object.__setattr__(self, "target", Target(self.target))

    @property
    def samples_expected(self) -> int:
        return (self.steps - self.burn_in) // self.thinning if self.steps else 0


VISIT_COUNTER_CAP = 100_000
_KMV_SIZE = 256


@lru_cache(maxsize=None)
def _packer(length: int) -> struct.Struct:
    return struct.Struct(f">{length}q")


class VisitCounter:
    """The number of distinct tables a walk visits: exact up to a cap, then estimated.

    ``seen`` holds the row-major keys of the first VISIT_COUNTER_CAP distinct
    tables.  The first new key past the cap starts a k-minimum-values sketch,
    the sorted list of the _KMV_SIZE least stable 64-bit hashes of every
    distinct key recorded, those in ``seen`` included, and flags the count
    approximate.
    """

    def __init__(self) -> None:
        self.seen: set[tuple[int, ...]] = set()
        self._kmv: list[int] | None = None

    @property
    def approximate(self) -> bool:
        return self._kmv is not None

    @staticmethod
    def _hash(key: tuple[int, ...]) -> int:
        """blake2b of the entries packed as signed 8-byte big-endian ints;
        an entry of 2**63 or more widens every entry of its key."""
        try:
            packed = _packer(len(key)).pack(*key)
        except struct.error:
            width = max(x.bit_length() for x in key) // 8 + 1
            packed = b"".join(x.to_bytes(width, "big", signed=True) for x in key)
        return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "big")

    def record(self, key: tuple[int, ...]) -> None:
        seen = self.seen
        if len(seen) < VISIT_COUNTER_CAP:
            seen.add(key)
            return
        if key in seen:
            return
        if self._kmv is None:
            self._kmv = sorted(map(self._hash, seen))[:_KMV_SIZE]
        kmv, h = self._kmv, self._hash(key)
        i = bisect_left(kmv, h)
        if i < _KMV_SIZE and h not in kmv[i : i + 1]:
            kmv.insert(i, h)
            del kmv[_KMV_SIZE:]

    def distinct_estimate(self) -> int:
        kmv = self._kmv
        if kmv is None:
            return len(self.seen)
        k = len(kmv)
        estimate = k if k < _KMV_SIZE else int((k - 1) * (2**64) / kmv[-1])
        return max(len(self.seen), estimate)


_BLOCK = 1024  # raw words fetched from the bit generator at a time
_LOW32 = 0xFFFFFFFF


@dataclass
class ChainState:
    """Mutable running state of one chain; entries is always a fiber member.

    The stream position is the next unread word ``cursor`` of the block
    ``lows``, ``highs`` and ``uniforms``, decoded for ``len(moves)`` moves by
    ``_decode_block``, and the buffered high-half move id ``half`` (or None).
    """

    n: int
    r: int
    entries: list[int]  # row-major, mutated in place
    bitgen: np.random.PCG64
    moves: tuple[tuple[int, int, int, int], ...]  # move_cells(n)
    step_index: int = 0
    accepted_count: int = 0
    visits: VisitCounter = field(default_factory=VisitCounter)
    lows: list[int] = field(default_factory=list)
    highs: list[int] = field(default_factory=list)
    uniforms: list[float] = field(default_factory=list)
    cursor: int = _BLOCK  # the first draw fetches a block
    half: int | None = None

    @classmethod
    def from_table(cls, start: ContingencyTable, config: WalkConfig) -> "ChainState":
        bitgen = np.random.PCG64(config.seed)
        return cls(start.n, start.r, list(start.row_major()), bitgen, move_cells(start.n))


def _decode_block(bitgen: np.random.PCG64, m: int) -> tuple[list[int], list[int], list[float]]:
    """The next _BLOCK raw words, each decoded once for 1 <= m < 2**32 moves:
    the move ids of its low and high halves by Lemire's multiply-shift (Lemire
    2019, "Fast random integer generation in an interval"), -1 where it rejects,
    and its uniform, as Generator.integers(m) and Generator.random() take them."""
    words = bitgen.random_raw(_BLOCK)
    threshold = (2**32 - m) % m
    lows, highs = (
        np.where((x & _LOW32) < threshold, -1, (x >> 32).astype(np.int64)).tolist()
        for x in ((words & _LOW32) * np.uint64(m), (words >> 32) * np.uint64(m))
    )
    return lows, highs, ((words >> 11) * 2.0**-53).tolist()


class _Logs(dict):
    """log(k) memoised by value, filled lazily and emptied at 4096 values:
    its size follows neither r nor the run length."""
    def __missing__(self, k: int) -> float:
        if len(self) == 4096:
            self.clear()
        value = self[k] = math.log(k)
        return value


def _margins_ok(n: int, r: int, entries: list[int]) -> bool:
    for i in range(n):
        if sum(entries[i * n : (i + 1) * n]) != r:
            return False
        if sum(entries[i::n]) != r:
            return False
    return min(entries) >= 0


def _keeps_margins(n: int, move: tuple[int, int, int, int]) -> bool:
    """Whether the kernel's writes for move = (sub1, sub2, add1, add2) keep
    every margin of an n x n table: the four cells are distinct and in range,
    so the writes change exactly those entries by -1, -1, +1, +1, and the
    added cells lie on the same rows and on the same columns, as multisets, as
    the subtracted ones."""
    sub1, sub2, add1, add2 = move
    return (
        len(set(move)) == 4
        and all(0 <= c < n * n for c in move)
        and sorted((sub1 // n, sub2 // n)) == sorted((add1 // n, add2 // n))
        and sorted((sub1 % n, sub2 % n)) == sorted((add1 % n, add2 % n))
    )


def _chain(state: ChainState, config: WalkConfig, count: int, every: int) -> Iterator[int]:
    """Run count transitions in one loop (see ``advance``), yielding the kept
    score, the sum of squared entries, after every ``every`` of them and after
    the last; a move id of -1 is Lemire's rejection and draws again.

    The full margin assert and the score's re-sum are skipped after a move that
    ``_keeps_margins`` proves, which is sound only while nothing else writes
    ``state.entries`` between yields: ``advance`` ignores them there, and
    ``run_walk`` and ``exact_test`` only read them.  A proven move adds
    2 (c + d - a - b) to the score, c and d the added cells' new values.  The
    log list holds a fiber member's terms, a, b, c, d <= r (an added cell shares
    a row with a subtracted cell >= 1); an index past its end, or an added cell
    below 1, raises as the check does.
    """
    n, r, entries, moves = state.n, state.r, state.entries, state.moves
    m = len(moves)
    keeps = [None] * m  # _keeps_margins of each move id, filled when first accepted
    hypergeometric = config.target is Target.HYPERGEOMETRIC
    log = [0.0, *map(math.log, range(1, r + 1))] if r <= 4096 else _Logs()
    exp, bitgen, block = math.exp, state.bitgen, _BLOCK
    lows, highs, uniforms, cursor, half = (
        state.lows, state.highs, state.uniforms, state.cursor, state.half)
    t, accepted, stop = state.step_index, state.accepted_count, state.step_index + count
    score = sum(map(mul, entries, entries))
    moved = True  # the entries may have changed since the last assert
    try:
        while t < stop:
            for t in range(t + 1, min(t + every, stop) + 1):
                if moved:
                    assert _margins_ok(n, r, entries)
                    moved = False
                if t % 4096 == 0:
                    if not _margins_ok(n, r, entries):
                        raise FiberGraphsError("chain state left the fiber (corrupted margins)")
                    score = sum(map(mul, entries, entries))
                if not m:
                    continue
                k = -1
                while k < 0:
                    if half is None:
                        if cursor == block:
                            lows, highs, uniforms = _decode_block(bitgen, m)
                            cursor = 0
                        k, half = lows[cursor], highs[cursor]
                        cursor += 1
                    else:
                        k, half = half, None
                sub1, sub2, add1, add2 = moves[k]
                a, b = entries[sub1], entries[sub2]
                if a < 1 or b < 1:
                    continue  # lazy self-loop
                c, d = entries[add1] + 1, entries[add2] + 1
                if hypergeometric:
                    if c < 1 or d < 1:  # a negative entry, before the list's start
                        raise FiberGraphsError("chain state left the fiber (corrupted margins)")
                    log_ratio = log[a] + log[b] - log[c] - log[d]
                    if log_ratio < 0:
                        if cursor == block:
                            lows, highs, uniforms = _decode_block(bitgen, m)
                            cursor = 0
                        cursor += 1
                        if uniforms[cursor - 1] >= exp(log_ratio):
                            continue
                entries[sub1] = a - 1
                entries[sub2] = b - 1
                entries[add1] = c
                entries[add2] = d
                score += 2 * (c + d - a - b)
                accepted += 1
                keep = keeps[k]
                if keep is None:
                    keep = keeps[k] = _keeps_margins(n, moves[k])
                if not keep:
                    moved = True
                    score = sum(map(mul, entries, entries))
            yield score
    except IndexError:
        if _margins_ok(n, r, entries):
            raise
        raise FiberGraphsError("chain state left the fiber (corrupted margins)") from None
    finally:
        state.step_index, state.accepted_count = t, accepted
        state.lows, state.highs, state.uniforms = lows, highs, uniforms
        state.cursor, state.half = cursor, half


def advance(state: ChainState, config: WalkConfig, count: int) -> ChainState:
    """Run count Metropolis-Hastings transitions; mutates and returns the state.

    Invalid proposals are consumed as self-loops.  The uniform target accepts
    every valid proposal; the hypergeometric target accepts with probability
    min(1, prod(old subtracted cells) / prod(new added cells)).

    The call is one kernel run, as are the stretches of ``run_walk`` and
    ``exact_test``.  Under assertions (stripped by -O) the margins are checked
    over all n^2 entries before the first proposal of each kernel run, which
    catches entries written from outside between calls, and before the
    proposal after an accepted move that ``_keeps_margins`` does not prove.
    Only an accepted move writes the entries, and a proven move changes four
    distinct entries by -1, -1, +1, +1 on the same two rows and the same two
    columns, so a check skipped after a rejection or a proven move would
    repeat one that passed.  The margins are also checked unconditionally
    every 4096 steps; the kept score is re-summed at each full check, under -O
    too.  The counters and the stream position are written back on a raise.
    """
    for _ in _chain(state, config, count, count):
        pass
    return state


def run_walk(
    start: ContingencyTable, config: WalkConfig
) -> tuple[ChainState, list[tuple[int, ...]]]:
    """Run a full walk and collect the post-burn-in, thinned sample stream.

    Each sample is the chain's row-major entry tuple.  ``state.visits``
    counts the distinct tables of every post-burn-in step, thinned or not,
    under the same keys.  The stream is a pure function of (start, config).
    """
    state = ChainState.from_table(start, config)
    samples: list[tuple[int, ...]] = []
    if not config.steps:
        return state, samples
    advance(state, config, config.burn_in)
    for t, _ in enumerate(_chain(state, config, config.steps - config.burn_in, 1), 1):
        key = tuple(state.entries)
        state.visits.record(key)
        if t % config.thinning == 0:
            samples.append(key)
    return state, samples


def chi_square_statistic(t: ContingencyTable) -> float:
    """Pearson statistic against the flat expectation r/n in every cell (r >= 1)."""
    if t.r == 0:
        raise FiberGraphsError("chi-square is undefined for r = 0: every expected count is 0")
    # sum (x - r/n)^2 / (r/n) = sum (n x - r)^2 / (n r), one correctly rounded division
    return sum((t.n * x - t.r) ** 2 for row in t.entries for x in row) / (t.n * t.r)


@dataclass(frozen=True)
class ExactTestResult:
    observed_statistic: float
    p_value_estimate: float
    standard_error: float
    samples_used: int


def exact_test(
    observed: ContingencyTable | Sequence[Sequence[int]], config: WalkConfig
) -> ExactTestResult:
    """Monte Carlo exact test of the flat-table null for an equal-margin table.

    Samples the hypergeometric target from the observed table and estimates
    p = P(statistic >= observed), ties included, from the kernel's kept score
    at each thinned sample, the integer sum of squared entries.  With every
    margin r, sum (n*x - r)^2 = n^2 (sum x^2 - r^2), so it orders
    tables exactly as the statistic does, ties included, without any float
    comparison.  The standard error comes from batch means over the hits,
    which accounts for the autocorrelation an i.i.d. binomial formula would
    ignore.
    """
    if not isinstance(observed, ContingencyTable):
        observed = as_equal_margin_table(observed)
    statistic = chi_square_statistic(observed)
    config = replace(config, target=Target.HYPERGEOMETRIC)
    cells = observed.row_major()
    threshold = sum(map(mul, cells, cells))
    state = ChainState.from_table(observed, config)
    if not config.steps:
        return ExactTestResult(statistic, float("nan"), float("nan"), 0)
    advance(state, config, config.burn_in)
    steps = config.samples_expected * config.thinning
    hits = [score >= threshold for score in _chain(state, config, steps, config.thinning)]
    m = len(hits)
    p_hat = sum(hits) / m
    n_batches = min(100, m)
    batch_size = m // n_batches
    means = [
        sum(hits[b * batch_size : (b + 1) * batch_size]) / batch_size
        for b in range(n_batches)
    ]
    if n_batches > 1:
        center = sum(means) / n_batches
        var = sum((x - center) ** 2 for x in means) / (n_batches - 1)
        se = math.sqrt(var / n_batches)
    else:
        se = float("nan")
    return ExactTestResult(statistic, p_hat, se, m)
