from __future__ import annotations

import random
import resource
import subprocess
import sys

import numpy as np
import pytest

from fibergraphs import enumeration
from fibergraphs.enumeration import count_fiber, enumerate_fiber
from fibergraphs.errors import SizeLimitExceededError
from fibergraphs.tables import validate_table

from oracles import brute_fiber, permute, transpose


def test_fiber_2_2_explicit():
    fiber = enumerate_fiber(2, 2)
    assert [t.entries for t in fiber] == [
        ((0, 2), (2, 0)),
        ((1, 1), (1, 1)),
        ((2, 0), (0, 2)),
    ]


def test_fiber_3_1_is_permutations():
    fiber = enumerate_fiber(3, 1)
    assert len(fiber) == 6
    assert all(sorted(t.row_major()) == [0] * 6 + [1] * 3 for t in fiber)


def test_fiber_sizes_match_counting_oracle():
    for n in range(1, 5):
        for r in range(0, 5):
            assert len(enumerate_fiber(n, r)) == count_fiber(n, r)


@pytest.mark.parametrize(
    "n,r,size", [(3, 1, 6), (3, 2, 21), (3, 3, 55), (3, 4, 120), (4, 2, 282), (4, 3, 2008)]
)
def test_known_fiber_sizes(n, r, size):
    assert count_fiber(n, r) == size


def test_fiber_matches_product_brute_force():
    for n, r in [(2, 2), (3, 2), (2, 3)]:
        assert [t.entries for t in enumerate_fiber(n, r)] == brute_fiber(n, r)


def test_fiber_canonical_order_and_uniqueness():
    fiber = enumerate_fiber(3, 3)
    vectors = [t.row_major() for t in fiber]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)


def test_fiber_validates_members():
    for t in enumerate_fiber(3, 2):
        validate_table(t.n, t.r, t.entries)


def test_fiber_index_round_trip():
    fiber = enumerate_fiber(3, 2)
    for k, t in enumerate(fiber):
        assert fiber.index_of(t) == k


def test_object_dtype_fiber_lookups():
    # r >= 2**64 leaves Python ints in an object array, which has no byte view
    fiber = enumerate_fiber(1, 2**64)
    assert fiber.cells.dtype == object
    assert fiber.index_of(fiber[0]) == 0
    with pytest.raises(KeyError):
        fiber.ids_of(np.array([[2**64 + 1]], dtype=object))


@pytest.mark.parametrize("n, r, row", [
    (2, 255, [-1, 256, 256, -1]),  # the uint8 cast read this as table 255, [[255, 0], [0, 255]]
    (3, 2, [2, 0, 1, 0, 2, 0, 0, 0, 1]),  # the leading block of table [[2,0,0],[0,2,0],[0,0,2]]
    (3, 2, [2, 0, 0, 0, 2, 0, 1, 0, 1]),  # the same block, but another last row
    (2, 3, [2**70, -2**70, 0, 3]),  # no int64 holds these entries
], ids=["out-of-range", "last-column", "last-row", "huge"])
def test_ids_of_compares_every_cell_exactly(n, r, row):
    fiber = enumerate_fiber(n, r)
    with pytest.raises(KeyError) as caught:
        fiber.ids_of(np.array([fiber.cells[0].tolist(), row]))
    assert caught.value.args[0] == tuple(row)


def _reference_key(n, r, flat):
    """The key by its definition: the leading block's entries as base-(r+1) digits."""
    key = 0
    for i in range(n - 1):
        for j in range(n - 1):
            key = key * (r + 1) + flat[i * n + j]
    return key


@pytest.mark.parametrize("n, r", [*((n, r) for n in range(1, 5) for r in range(5)),
                                  (2, 70_000), (1, 2**64)], ids=str)
def test_keys_rise_strictly(n, r):
    fiber = enumerate_fiber(n, r)
    assert fiber.keys.dtype == np.int64
    assert fiber.keys.tolist() == [_reference_key(n, r, flat) for flat in fiber.cells.tolist()]
    assert (np.diff(fiber.keys) > 0).all()


def test_fiber_symmetry_invariance():
    fiber = enumerate_fiber(3, 2)
    entries = {t.entries for t in fiber}
    rng = random.Random(5)
    perm_r = list(range(3))
    perm_c = list(range(3))
    rng.shuffle(perm_r)
    rng.shuffle(perm_c)
    permuted = {permute(t, perm_r, perm_c) for t in entries}
    transposed = {transpose(t) for t in entries}
    assert permuted == entries
    assert transposed == entries


def test_enumeration_cap_trips():
    with pytest.raises(SizeLimitExceededError):
        enumerate_fiber(3, 3, cap=10)


def test_cap_is_the_largest_fiber_allowed():
    assert len(enumerate_fiber(4, 3, cap=2008)) == 2008
    with pytest.raises(SizeLimitExceededError):
        enumerate_fiber(4, 3, cap=2007)


@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("n, r", [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3)], ids=str)
def test_composition_runs_keep_the_fiber(monkeypatch, n, r, block):
    # fewer candidates a pass than row compositions: each partial table meets
    # the compositions a run at a time, the path of G(3, 4000)'s 8,006,001
    whole = enumerate_fiber(n, r)
    monkeypatch.setattr(enumeration, "FRONTIER_BLOCK", block)
    tiled = enumerate_fiber(n, r)
    assert tiled.cells.dtype == whole.cells.dtype
    assert np.array_equal(tiled.cells, whole.cells)
    assert len(enumerate_fiber(n, r, cap=len(whole))) == len(whole)
    with pytest.raises(SizeLimitExceededError):
        enumerate_fiber(n, r, cap=len(whole) - 1)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _guarded_run(code: str, seconds: float) -> subprocess.CompletedProcess:
    """code in a fresh interpreter held to 1 GiB of address space and a time limit,
    so a guard that fails to trip ends this test instead of filling memory."""
    return subprocess.run(
        [sys.executable, "-c", code], preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=seconds,
    )


_TRIPS = """
import sys
from fibergraphs.cli import main
from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import SizeLimitExceededError
try:
    enumerate_fiber({n}, {r})
except SizeLimitExceededError:
    sys.exit(main(["enumerate", "--n", "{n}", "--r", "{r}"]))
sys.exit("the cap did not trip")
"""


def test_cap_trips_before_the_rows_are_listed():
    # 40 x 40 tables with margins 40 outnumber the default cap many times over
    done = _guarded_run(_TRIPS.format(n=40, r=40), seconds=10)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "error: fiber enumeration exceeded the configured cap of 10000000\n"


@pytest.mark.long
def test_cap_trips_with_millions_of_row_compositions():
    # 8,006,001 row compositions fit under the cap; the second row's frontier does not
    done = _guarded_run(_TRIPS.format(n=3, r=4000), seconds=60)
    assert done.returncode == 3, done.stderr


def test_degenerate_fibers():
    assert len(enumerate_fiber(1, 5)) == 1
    assert len(enumerate_fiber(3, 0)) == 1
    assert count_fiber(1, 5) == 1
    assert count_fiber(3, 0) == 1
