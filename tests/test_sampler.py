from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fibergraphs import sampler
from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError
from fibergraphs.sampler import (
    ChainState,
    Target,
    VisitCounter,
    WalkConfig,
    advance,
    chi_square_statistic,
    exact_test,
    run_walk,
)
from fibergraphs.tables import as_equal_margin_table, move_cells, validate_table

from oracles import (acceptance_ratio, chi_square_fraction, hypergeometric_mass,
                     transition_probabilities)

T0 = validate_table(2, 2, [[0, 2], [2, 0]])
T1 = validate_table(2, 2, [[1, 1], [1, 1]])
T2 = validate_table(2, 2, [[2, 0], [0, 2]])
# a 5 x 5 margin-15 table on which many hypergeometric proposals are rejected
T5 = validate_table(5, 15, [[4, 3, 7, 0, 1], [5, 3, 3, 4, 0], [0, 2, 3, 4, 6],
                            [4, 4, 2, 2, 3], [2, 3, 0, 5, 5]])


def test_config_validation():
    with pytest.raises(FiberGraphsError, match="^burn_in must be smaller than steps$"):
        WalkConfig(steps=10, seed=1, burn_in=10)
    with pytest.raises(FiberGraphsError,
                       match="^thinning cannot exceed the post-burn-in step count$"):
        WalkConfig(steps=10, seed=1, thinning=11)
    with pytest.raises(FiberGraphsError, match="^steps must be >= 0, got -1$"):
        WalkConfig(steps=-1, seed=1)
    with pytest.raises(FiberGraphsError,
                       match="^seed must fit in an unsigned 64-bit integer$"):
        WalkConfig(steps=5, seed=2**64)
    WalkConfig(steps=0, seed=0)  # the empty walk is allowed


def test_degree_one_vertex_self_loop_probability():
    # 2 proposals at [[2,0],[0,2]], one valid: stay with probability 1/2
    probs = transition_probabilities(T2.entries, Target.UNIFORM)
    assert probs[T2.entries] == Fraction(1, 2)
    assert probs[T1.entries] == Fraction(1, 2)


def test_hypergeometric_acceptance_ratio():
    assert acceptance_ratio(T1.entries, T2.entries) == Fraction(1, 4)
    assert acceptance_ratio(T2.entries, T1.entries) == Fraction(4)


def test_detailed_balance_uniform():
    pi = {t.entries: Fraction(1, 3) for t in (T0, T1, T2)}
    _assert_detailed_balance(pi, Target.UNIFORM)


def test_detailed_balance_hypergeometric():
    pi = hypergeometric_mass([t.entries for t in (T0, T1, T2)])
    _assert_detailed_balance(pi, Target.HYPERGEOMETRIC)


def _assert_detailed_balance(pi, target):
    tables = (T0, T1, T2)
    rows = {t.entries: transition_probabilities(t.entries, target) for t in tables}
    for a in tables:
        assert sum(rows[a.entries].values()) == 1
        for b in tables:
            if a.entries == b.entries:
                continue
            lhs = pi[a.entries] * rows[a.entries].get(b.entries, Fraction(0))
            rhs = pi[b.entries] * rows[b.entries].get(a.entries, Fraction(0))
            assert lhs == rhs


def test_trajectories_bitwise_reproducible():
    config = WalkConfig(steps=4000, seed=99, target=Target.HYPERGEOMETRIC)
    _, first = run_walk(T2, config)
    _, second = run_walk(T2, config)
    assert first == second


def test_different_seeds_differ():
    a = run_walk(T2, WalkConfig(steps=500, seed=1))[1]
    b = run_walk(T2, WalkConfig(steps=500, seed=2))[1]
    assert a != b


def test_empty_walk():
    state, samples = run_walk(T2, WalkConfig(steps=0, seed=5))
    assert samples == []
    assert state.step_index == 0
    assert tuple(state.entries) == T2.row_major()


def test_an_empty_walk_runs_no_burn_in(monkeypatch):
    # steps = 0 accepts any burn-in and asks for no step, so no kernel runs
    def no_kernel(*args):
        raise AssertionError("a kernel run for an empty walk")
    monkeypatch.setattr(sampler, "_chain", no_kernel)
    config = WalkConfig(steps=0, seed=5, burn_in=5)
    state, samples = run_walk(T2, config)
    assert (samples, state.step_index, state.visits.seen) == ([], 0, set())
    result = exact_test(T1, config)
    assert result.samples_used == 0 and math.isnan(result.p_value_estimate)


def test_step_preserves_fiber_membership():
    config = WalkConfig(steps=0, seed=31, target=Target.HYPERGEOMETRIC)
    state = ChainState.from_table(T1, config)
    for _ in range(2000):
        advance(state, config, 1)
        validate_table(2, 2, [state.entries[:2], state.entries[2:]])
    assert state.accepted_count <= state.step_index


class _BlockReader:
    """Draws read from ``sampler._decode_block``'s blocks by the stream rule
    of the sampler's module docstring."""

    def __init__(self, seed: int, m: int):
        self.bitgen, self.m = np.random.PCG64(seed), m
        self.cursor, self.half = sampler._BLOCK, None

    def _word(self) -> int:
        if self.cursor == sampler._BLOCK:
            self.lows, self.highs, self.uniforms = sampler._decode_block(self.bitgen, self.m)
            self.cursor = 0
        self.cursor += 1
        return self.cursor - 1

    def index(self) -> int:
        k = -1
        while k < 0:
            if self.half is None:
                i = self._word()
                k, self.half = self.lows[i], self.highs[i]
            else:
                k, self.half = self.half, None
        return k

    def uniform(self) -> float:
        i = self._word()
        return self.uniforms[i]


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
@pytest.mark.parametrize("m", [2, 18, 72, 200, 3 * 2**30])
def test_raw_word_draws_match_numpy_generator(seed, m):
    # 2, 18, 72 and 200 are the move counts for n = 2..5; m = 3 * 2**30
    # rejects a quarter of its 32-bit draws, so only it reaches Lemire's
    # retry loop, which the walks almost never do
    reader = _BlockReader(seed, m)
    generator = np.random.Generator(np.random.PCG64(seed))
    order = random.Random(seed + m)
    for _ in range(10_000):
        if order.random() < 0.5:
            assert reader.index() == generator.integers(m)
        else:
            assert reader.uniform() == generator.random()


def test_buffered_half_survives_a_block_refill():
    reader = _BlockReader(5, 18)
    generator = np.random.Generator(np.random.PCG64(5))
    assert reader.index() == generator.integers(18)  # buffers the first word's high half
    for _ in range(sampler._BLOCK - 1):
        assert reader.uniform() == generator.random()
    assert reader.cursor == sampler._BLOCK and reader.half is not None
    assert reader.uniform() == generator.random()  # fetches and decodes the next block
    assert reader.cursor == 1
    assert reader.index() == generator.integers(18)  # the first block's buffered half


@pytest.mark.parametrize("target", ["uniform", "hypergeometric"])
def test_walk_draws_as_numpy_generator_does(target):
    # the same walk on Generator.integers() and Generator.random(), checked
    # at every post-burn-in step; it counts the hypergeometric uniforms that
    # start a new block while a high half is buffered
    config = WalkConfig(steps=30_000, seed=16, burn_in=1000, target=target)
    _, samples = run_walk(T5, config)
    generator = np.random.Generator(np.random.PCG64(16))
    moves, entries = move_cells(5), list(T5.row_major())
    words, buffered, refills_past_a_half = 0, False, 0
    for t in range(1, config.steps + 1):
        sub1, sub2, add1, add2 = moves[generator.integers(len(moves))]
        words += not buffered  # a fresh word, whose high half is then buffered
        buffered = not buffered
        a, b = entries[sub1], entries[sub2]
        accept = a >= 1 and b >= 1
        if accept and target == "hypergeometric":
            log_ratio = (math.log(a) + math.log(b)
                         - math.log(entries[add1] + 1) - math.log(entries[add2] + 1))
            if log_ratio < 0:
                refills_past_a_half += buffered and words % sampler._BLOCK == 0
                words += 1
                accept = generator.random() < math.exp(log_ratio)
        if accept:
            entries[sub1] -= 1
            entries[sub2] -= 1
            entries[add1] += 1
            entries[add2] += 1
        if t > config.burn_in:
            assert tuple(entries) == samples[t - config.burn_in - 1]
    assert refills_past_a_half > 0 or target == "uniform"


def test_log_memo_stays_bounded():
    logs = sampler._Logs()
    for k in range(1, 10_000):
        assert logs[k] == math.log(k)
    assert len(logs) <= 4096


def test_uniform_walk_visits_whole_fiber():
    fiber = enumerate_fiber(3, 2)
    state, _ = run_walk(fiber[0], WalkConfig(steps=100_000, seed=7))
    assert len(state.visits.seen) == 21


def test_uniform_walk_frequencies_near_stationary():
    # the lazy uniform chain on G(2,2) has uniform stationary distribution
    _, samples = run_walk(T2, WalkConfig(steps=300_000, seed=11))
    counts = Counter(samples)
    total = sum(counts.values())
    for count in counts.values():
        assert abs(count / total - 1 / 3) < 0.01  # seed-pinned regression


def test_uniform_walk_tv_shrinks_with_run_length():
    # seed-pinned regression: total-variation distance to uniform on the
    # 21-table fiber drops well under 0.05 by a million steps
    fiber = enumerate_fiber(3, 2)
    start = fiber[0]

    def tv(steps: int) -> float:
        _, samples = run_walk(start, WalkConfig(steps=steps, seed=7))
        counts = Counter(samples)
        total = sum(counts.values())
        return 0.5 * sum(
            abs(counts[t.row_major()] / total - 1 / 21)
            for t in fiber
        )

    short, long = tv(10_000), tv(1_000_000)
    assert long < short
    assert long < 0.05


def test_thinning_and_burn_in_sample_count():
    config = WalkConfig(steps=1000, seed=3, burn_in=100, thinning=9)
    _, samples = run_walk(T1, config)
    assert len(samples) == (1000 - 100) // 9 == config.samples_expected


def test_visit_counter_cap_degrades_to_sketch(monkeypatch):
    monkeypatch.setattr(sampler, "VISIT_COUNTER_CAP", 50)
    counter = VisitCounter()
    for x in range(50):
        counter.record((x,))
    assert not counter.approximate
    for x in range(50, 400):
        counter.record((x,))
    assert counter.approximate
    estimate = counter.distinct_estimate()
    assert 200 <= estimate <= 800  # sketch accuracy, not exactness


def test_visit_counter_sketch_takes_entries_past_64_bits(monkeypatch):
    monkeypatch.setattr(sampler, "VISIT_COUNTER_CAP", 10)
    counter = VisitCounter()
    keys = [(x, 2**64 - 1 - x) for x in range(200)] + [(2**70 + x, x) for x in range(200)]
    for key in keys:
        counter.record(key)
    hashes = {VisitCounter._hash(key) for key in keys}
    assert len(hashes) == len(keys)
    assert 200 <= counter.distinct_estimate() <= 800


@pytest.mark.parametrize("cap", [10, 300, 5_000])
@pytest.mark.parametrize("seed", [0, 1])
def test_visit_counter_sketch_matches_brute_force(monkeypatch, cap, seed):
    # the sketch holds the _KMV_SIZE least hashes of every distinct key recorded,
    # those admitted below the cap included, whatever order the keys come in
    monkeypatch.setattr(sampler, "VISIT_COUNTER_CAP", cap)
    rng = random.Random(seed)
    pool = [(rng.randrange(50), rng.choice([rng.randrange(2**63, 2**64), rng.randrange(9)]))
            for _ in range(3_000)]
    keys = [rng.choice(pool) for _ in range(6_000)]
    counter = VisitCounter()
    for key in keys:
        counter.record(key)
    least = sorted({VisitCounter._hash(key) for key in set(keys)})[:sampler._KMV_SIZE]
    distinct = len(set(keys))
    assert counter.approximate == (distinct > cap)
    if not counter.approximate:
        assert counter.distinct_estimate() == distinct
        return
    assert counter._kmv == least
    k = len(least)
    expected = (max(cap, k) if k < sampler._KMV_SIZE
                else max(cap, int((k - 1) * 2**64 / least[-1])))
    assert counter.distinct_estimate() == expected


def test_chi_square_statistic_values():
    assert chi_square_statistic(validate_table(3, 3, [[1, 1, 1]] * 3)) == 0.0
    assert chi_square_statistic(validate_table(3, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == 12.0


@pytest.mark.parametrize("tables", [
    pytest.param(lambda: enumerate_fiber(3, 3), id="G(3,3)"),
    pytest.param(lambda: enumerate_fiber(2, 5), id="G(2,5)"),
    pytest.param(lambda: [validate_table(2, 10**15, [[10**15 - 7, 7], [7, 10**15 - 7]]),
                          validate_table(2, 2**65, [[2**64] * 2] * 2)], id="huge-margins"),
])
def test_chi_square_statistic_is_the_rounded_fraction(tables):
    # one int / int division: the float nearest the exact sum, bit for bit
    for table in tables():
        expected = float(chi_square_fraction(table.entries))
        assert chi_square_statistic(table).hex() == expected.hex(), table.entries


def test_zero_margin_fails_before_the_walk(monkeypatch):
    # every expected count is 0, so the statistic is undefined
    zero = validate_table(2, 0, [[0, 0], [0, 0]])
    undefined = "^chi-square is undefined for r = 0: every expected count is 0$"
    with pytest.raises(FiberGraphsError, match=undefined):
        chi_square_statistic(zero)

    def no_walk(state, config, count, every):
        raise AssertionError("the walk started")

    monkeypatch.setattr(sampler, "_chain", no_walk)
    with pytest.raises(FiberGraphsError, match=undefined):
        exact_test([[0, 0], [0, 0]], WalkConfig(steps=3, seed=1))


MARGIN_CHECK_SCRIPT = """
from fibergraphs.errors import FiberGraphsError
from fibergraphs.sampler import ChainState, WalkConfig, advance
from fibergraphs.tables import validate_table

LEFT_THE_FIBER = "chain state left the fiber (corrupted margins)"
config = WalkConfig(steps=0, seed=5)
state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
advance(state, config, 1)
state.entries[0] += 1  # row 1 and column 1 now sum to 4
try:
    while state.step_index < 4096:
        advance(state, config, 1)
except AssertionError:
    print("assert", state.step_index)
except FiberGraphsError as exc:
    print("check" if str(exc) == LEFT_THE_FIBER else repr(exc), state.step_index)
"""


@pytest.mark.parametrize("flags, expected", [([], "assert 2"), (["-O"], "check 4096")])
def test_corrupted_margins_are_caught(flags, expected):
    # the per-step assert fires on the next step; under -O it is stripped and
    # the unconditional check catches the chain by step 4096
    env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, *flags, "-c", MARGIN_CHECK_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == expected.split()


BREAKING_MOVE_SCRIPT = """
from fibergraphs.errors import FiberGraphsError
from fibergraphs.sampler import ChainState, WalkConfig, advance
from fibergraphs.tables import validate_table

LEFT_THE_FIBER = "chain state left the fiber (corrupted margins)"
config = WalkConfig(steps=0, seed=7, target="hypergeometric")
state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
state.moves = ((0, 4, 1, 1),)  # cells 0 and 4 lose one: row 2 and column 1 then sum to 2
try:
    advance(state, config, 10_000)
except AssertionError:
    print("assert", state.step_index, state.accepted_count)
except FiberGraphsError as exc:
    print("check" if str(exc) == LEFT_THE_FIBER else repr(exc), state.step_index,
          state.accepted_count)
"""


def _first_accepted_step(seed: int, move=(0, 4, 1, 1)) -> int:
    """The step at which the breaking move is first accepted, one call per step."""
    config = WalkConfig(steps=0, seed=seed, target="hypergeometric")
    state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
    state.moves = (move,)
    while not state.accepted_count:
        advance(state, config, 1)
    return state.step_index


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_margins_are_checked_after_every_accepted_move(flags):
    # the move is accepted with probability 1/4, after rejected proposals, in
    # the middle of one advance call; it empties cells 0 and 4, so it is the
    # only move ever accepted
    accepted_at = _first_accepted_step(7)
    assert accepted_at > 1
    expected = f"assert {accepted_at + 1} 1" if not flags else "check 4096 1"
    env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, *flags, "-c", BREAKING_MOVE_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == expected.split()


def test_rejected_proposals_skip_the_margin_assert(monkeypatch):
    # run_walk and exact_test run the burn-in and then the sampled stretch as
    # two kernel runs, on the same stream as one advance call over all steps
    config = WalkConfig(steps=10_000, seed=16, burn_in=1000, thinning=10,
                        target="hypergeometric")
    accepted = advance(ChainState.from_table(T5, config), config, 10_000).accepted_count
    assert accepted < 9_000
    calls = 0
    margins_ok = sampler._margins_ok

    def counted(n, r, entries):
        nonlocal calls
        calls += 1
        return margins_ok(n, r, entries)

    monkeypatch.setattr(sampler, "_margins_ok", counted)
    for walk, runs in (("advance", 1), ("run_walk", 2), ("exact_test", 2)):
        calls = 0
        if walk == "advance":
            advance(ChainState.from_table(T5, config), config, 10_000)
        elif walk == "run_walk":
            assert run_walk(T5, config)[0].accepted_count == accepted
        else:
            exact_test(T5, config)
        assert calls <= runs + accepted + 10_000 // 4096, walk


@pytest.mark.parametrize("move", [
    pytest.param((0, 0, 1, 3), id="repeated-subtracted-cell"),
    pytest.param((1, 3, 0, 0), id="repeated-added-cell"),
    pytest.param((0, 0, 0, 0), id="one-cell-four-times"),  # only distinctness rejects it
    pytest.param((0, 4, -1, 8), id="negative-index"),  # -1 wraps to 8
    pytest.param((0, 4, 6, 7), id="row-mismatch"),
    pytest.param((0, 4, 2, 5), id="column-mismatch"),
])
def test_malformed_moves_are_caught_on_the_next_step(move):
    # each breaks the margins of the all-ones 3 x 3 table once accepted, so it
    # is not proven and the full assert runs on the following step
    assert not sampler._keeps_margins(3, move)
    accepted_at = _first_accepted_step(7, move)
    config = WalkConfig(steps=0, seed=7, target="hypergeometric")
    state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
    state.moves = (move,)
    with pytest.raises(AssertionError):
        advance(state, config, 10_000)
    assert (state.step_index, state.accepted_count) == (accepted_at + 1, 1)


@pytest.mark.parametrize("target", ["uniform", "hypergeometric"])
@pytest.mark.parametrize("table", [T5, T1], ids=["T5", "G(2,2)"])
def test_kept_score_is_the_sum_of_squares_at_every_yield(table, target):
    # steps 3,001 to 8,000: across block refills and the check at step 4,096; a run
    # yielding every 7 steps yields the per-step scores at its stride, then the last
    config = WalkConfig(steps=0, seed=16, target=target)
    runs = {}
    for every in (1, 7):
        state = ChainState.from_table(table, config)
        advance(state, config, 3000)
        runs[every] = []
        for score in sampler._chain(state, config, 5000, every):
            assert score == sum(x * x for x in state.entries)
            runs[every].append(score)
        assert state.step_index == 8000
    assert runs[7] == runs[1][6::7] + runs[1][-1:]
    assert len(set(runs[1])) > 1


def test_a_closed_kernel_run_leaves_its_last_completed_step():
    # a yield follows its stretch's last step, so a close there loses no step and
    # runs none twice: the rest of the walk matches an uninterrupted one
    config = WalkConfig(steps=0, seed=16, target="hypergeometric")
    state, whole = (ChainState.from_table(T5, config) for _ in range(2))
    chain = sampler._chain(state, config, 100, 7)
    for _ in range(3):
        next(chain)
    chain.close()
    assert state.step_index == 21
    advance(state, config, 79)
    advance(whole, config, 100)
    assert (state.step_index, state.accepted_count, state.entries) == (
        whole.step_index, whole.accepted_count, whole.entries)


KEPT_SCORE_SCRIPT = """
from fibergraphs import sampler
from fibergraphs.errors import FiberGraphsError
from fibergraphs.sampler import ChainState, WalkConfig
from fibergraphs.tables import validate_table

config = WalkConfig(steps=0, seed=7, target="hypergeometric")
state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
state.moves = ({move!r},)
wrong = 0
try:
    for score in sampler._chain(state, config, 10_000, 1):
        wrong += score != sum(x * x for x in state.entries)
except FiberGraphsError:
    pass
print(state.accepted_count, wrong)
"""


@pytest.mark.parametrize("move", [(0, 0, 1, 3), (1, 3, 0, 0), (0, 0, 0, 0), (0, 4, -1, 8),
                                  (0, 4, 6, 7), (0, 4, 2, 5), (0, 4, 1, 1)])
def test_kept_score_is_resummed_after_an_unproven_move(move):
    # under -O no assert stops the walk after the malformed move is accepted
    env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", KEPT_SCORE_SCRIPT.format(move=move)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    accepted, wrong = map(int, out.split())
    assert accepted >= 1 and wrong == 0


@pytest.mark.parametrize("r", [1, 15, 4096, 4097])
def test_log_terms_are_math_log_bit_for_bit(r):
    # a list of log(0..r) up to r = 4096, the bounded memo above
    config = WalkConfig(steps=0, seed=1, target="hypergeometric")
    chain = sampler._chain(ChainState.from_table(
        validate_table(2, r, [[r, 0], [0, r]]), config), config, 1, 1)
    next(chain)
    log = chain.gi_frame.f_locals["log"]
    chain.close()
    if r > 4096:
        assert isinstance(log, sampler._Logs)
        return
    assert len(log) == r + 1
    assert [x.hex() for x in log[1:]] == [math.log(k).hex() for k in range(1, r + 1)]


CORRUPTED_ENTRY_SCRIPT = """
from fibergraphs.sampler import ChainState, WalkConfig, advance
from fibergraphs.tables import validate_table

config = WalkConfig(steps=0, seed=5, target="hypergeometric")
state = ChainState.from_table(validate_table(3, 3, [[1, 1, 1]] * 3), config)
advance(state, config, 1)
state.entries[:] = {entries!r}
try:
    advance(state, config, 10)
except Exception as exc:
    print(type(exc).__name__, state.step_index, exc)
"""


@pytest.mark.parametrize("entries, step", [
    pytest.param([5] * 9, 2, id="past-the-end"),  # every entry past log 0..3
    pytest.param([-1, 2, 2, 2, -1, 2, 2, 2, -1], 3, id="log-0"),  # c = 0 would read 0.0
    pytest.param([-1] + [1] * 8, 4, id="log-0-margins"),
    pytest.param([-2] + [1] * 8, 4, id="wraps-to-log-3"),  # c = -1 would read log 3
])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_an_entry_outside_0_to_r_is_a_corrupted_state(flags, entries, step):
    # the assert on entry catches each; under -O the log read does, on the
    # first step that would read it, and never as an IndexError or a wrong term
    env = {**os.environ, "PYTHONPATH": str(Path(sampler.__file__).parents[1])}
    script = CORRUPTED_ENTRY_SCRIPT.format(entries=entries)
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, check=True,
    ).stdout
    expected = ("FiberGraphsError {} chain state left the fiber (corrupted margins)".format(step)
                if flags else "AssertionError 2 ")
    assert out == expected + "\n"


def test_proven_moves_skip_the_margin_assert(monkeypatch):
    # every move of move_cells(5) keeps the margins, so past the entry check of
    # each kernel run only the check every 4096 steps reads all n^2 entries
    config = WalkConfig(steps=10_000, seed=16, burn_in=1000, thinning=10,
                        target="hypergeometric")
    calls = 0
    margins_ok = sampler._margins_ok

    def counted(n, r, entries):
        nonlocal calls
        calls += 1
        return margins_ok(n, r, entries)

    monkeypatch.setattr(sampler, "_margins_ok", counted)
    for walk, runs in ((advance, 1), (run_walk, 2), (exact_test, 2)):
        calls = 0
        if walk is advance:
            advance(ChainState.from_table(T5, config), config, 10_000)
        else:
            walk(T5, config)
        assert calls <= runs + 10_000 // 4096, walk.__name__


def test_as_equal_margin_table_rejects_unequal():
    with pytest.raises(FiberGraphsError, match=r"^margins are not all equal: "
                       r"row sums \[1, 2\], column sums \[1, 2\]$"):
        as_equal_margin_table([[1, 0], [0, 2]])
    with pytest.raises(FiberGraphsError,
                       match=r"^row 1 has 3 entries, expected 2 \(the number of rows\)$"):
        as_equal_margin_table([[1, 0, 0], [0, 1, 0]])


def test_exact_test_flat_observed_p_one():
    flat = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    result = exact_test(flat, WalkConfig(steps=20_000, seed=17, thinning=5))
    assert result.observed_statistic == 0.0
    assert result.p_value_estimate == 1.0


def test_exact_test_extreme_observed_matches_enumeration():
    fiber = enumerate_fiber(3, 2)
    pi = hypergeometric_mass([t.entries for t in fiber])
    observed = validate_table(3, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    threshold = chi_square_statistic(observed)
    exact = sum(
        mass
        for entries, mass in pi.items()
        if chi_square_statistic(validate_table(3, 2, entries)) >= threshold
    )
    assert exact == Fraction(1, 15)
    result = exact_test(observed, WalkConfig(steps=400_000, seed=12345, thinning=10))
    assert abs(result.p_value_estimate - float(exact)) <= 3 * result.standard_error


def test_exact_test_monotone_in_threshold():
    fiber = enumerate_fiber(3, 2)
    config = WalkConfig(steps=50_000, seed=2024, thinning=10)
    flat_like = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    middle = validate_table(3, 2, [[2, 0, 0], [0, 1, 1], [0, 1, 1]])
    extreme = validate_table(3, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    ps = [exact_test(t, config).p_value_estimate for t in (flat_like, middle, extreme)]
    assert ps[0] == 1.0
    assert ps[0] >= ps[1] >= ps[2]
