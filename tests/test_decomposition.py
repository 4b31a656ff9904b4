from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fibergraphs.decomposition import decompose, decompose_tables, failed_tables
from fibergraphs import cli, decomposition, graphs
from fibergraphs.enumeration import DEFAULT_CAP, enumerate_fiber
from fibergraphs.errors import FiberGraphsError, SizeLimitExceededError
from fibergraphs.tables import validate_table

from oracles import decomposition_holds, satisfies_constraints


J3 = validate_table(3, 3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])


# the first part is the least perfect matching, through the first constraint cell

def test_perfect_matching_forced_cell():
    part = decompose(J3, [(1, 1)]).parts[0]
    assert part.entries[0][0] == 1
    assert part.r == 1


def test_perfect_matching_unique_support():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    assert decompose(t).parts[0].entries == ((1, 0), (0, 1))
    assert decompose(t, [(2, 2)]).parts[0].entries == ((1, 0), (0, 1))


def test_perfect_matching_forced_derived_case():
    # forcing (1,2) pins rows 2 and 3 onto columns 1 and 3; the support
    # admits exactly one completion
    t = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    part = decompose(t, [(1, 2)]).parts[0]
    assert part.entries == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_perfect_matching_lex_least():
    part = decompose(J3).parts[0]
    assert part.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_perfect_matching_forced_zero_cell_rejected():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    with pytest.raises(FiberGraphsError, match=r"cell \(1, 2\) holds 0"):
        decompose(t, [(1, 2)])
    # a round's search refuses a forced cell that the residual has used up
    with pytest.raises(FiberGraphsError, match=r"forced cell \(1, 2\) is outside"):
        decomposition._least_matchings(np.array([t.row_major()]), np.array([1]), 2)


def test_decompose_j3():
    dec = decompose(J3)
    assert len(dec.parts) == 3
    assert decomposition_holds(J3.entries, dec.matchings)


def test_decompose_scaled_identity():
    t = validate_table(3, 3, [[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    dec = decompose(t)
    assert all(p.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for p in dec.parts)


def test_decompose_deterministic():
    t = validate_table(4, 3, [[1, 1, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]])
    first = decompose(t)
    second = decompose(t)
    assert [p.entries for p in first.parts] == [p.entries for p in second.parts]


def test_decompose_whole_fibers_resum():
    for n, r in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        fiber = enumerate_fiber(n, r)
        parts = decompose_tables(fiber.cells, n, r)
        assert parts.shape == (len(fiber), r, n)
        for t, matchings in zip(fiber, parts.tolist()):
            assert decomposition_holds(t.entries, matchings)


@pytest.mark.parametrize("n,r", [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3)])
def test_konig_orbit_sweep_matches_the_per_table_sweep(n, r):
    # the reference decomposes every table, not one per orbit, and checks its
    # parts one table at a time
    fiber = enumerate_fiber(n, r)
    parts = decompose_tables(fiber.cells, n, r)
    assert parts.shape == (len(fiber), r, n)
    failures = sum(not decomposition_holds(t.entries, matchings)
                   for t, matchings in zip(fiber, parts.tolist()))
    assert failures == 0
    report = cli._check_konig(cli._VerifyContext(n, r, len(fiber)))
    assert report["computed"] == {"tables": len(fiber), "failures": failures}


def test_konig_check_builds_no_graph(monkeypatch, tmp_path):
    def refuse(fiber):
        raise AssertionError("the konig check built a graph")

    monkeypatch.setattr("fibergraphs.graphs.build_graph", refuse)
    out = tmp_path / "konig.json"
    assert cli.main(["verify", "--n", "4", "--r", "3", "--checks", "konig", "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert result["computed"] == {"tables": 2008, "failures": 0}


@pytest.mark.parametrize("checks", ["konig,commonchoices", "commonchoices,konig"])
def test_verify_labels_the_orbits_once_in_either_order(monkeypatch, tmp_path, checks):
    # konig reads the fiber's orbits; commonchoices reads the same labels,
    # built from the memoised generators once per fiber
    def report(*options):
        out = tmp_path / "report.json"
        argv = ["verify", "--n", "4", "--r", "3", *options, "--out", str(out)]
        assert cli.main(argv) == 0
        results = json.loads(out.read_text())["results"]
        return {r["name"]: {k: v for k, v in r.items() if k != "runtime_ms"} for r in results}

    default = report()
    calls: Counter = Counter()

    def counted(compute):
        def run(*args):
            calls[compute.__name__] += 1
            return compute(*args)
        return run

    generators = graphs.weakly_memoised(counted(graphs.symmetry_generators.__wrapped__))
    monkeypatch.setattr(graphs, "symmetry_generators", generators)
    monkeypatch.setattr(graphs, "_orbit_labels", counted(graphs._orbit_labels))
    ordered = report("--checks", checks)
    assert calls == {"symmetry_generators": 1, "_orbit_labels": 1}
    assert ordered == {name: default[name] for name in checks.split(",")}


def test_decompose_zero_table_has_no_parts():
    zero = validate_table(2, 0, [[0, 0], [0, 0]])
    for constraints in ((), []):
        with pytest.raises(FiberGraphsError,
                           match="^a table with margin 0 has no permutation parts$"):
            decompose(zero, constraints)


def test_residual_regularity():
    t = validate_table(3, 3, [[2, 1, 0], [1, 1, 1], [0, 1, 2]])
    residual = [row[:] for row in t.rows()]
    for l, part in enumerate(decompose(t).parts, start=1):
        for i in range(3):
            for j in range(3):
                residual[i][j] -= part.entries[i][j]
        validate_table(3, 3 - l, residual)


NEGATIVE_CELL_SCRIPT = """
import sys
import numpy as np
from fibergraphs import decomposition
from fibergraphs.errors import FiberGraphsError

# a search that returns the anti-diagonal cells of the second table, both 0
decomposition._least_matchings = lambda residual, forced, n: np.array([[0, 3], [1, 2]])
try:
    parts = decomposition.decompose_tables(np.array([[1, 0, 0, 1]] * 2), 2, 1)
    print("parts", sys.flags.optimize, parts.tolist())
except FiberGraphsError as exc:
    print("error", sys.flags.optimize, exc)
"""


def test_negative_residual_cell_is_caught_under_optimize():
    # the residual check is an if, not an assert, so -O keeps it
    env = {**os.environ, "PYTHONPATH": str(Path(decomposition.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", NEGATIVE_CELL_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "error 1 part 1 takes cell (1, 2) below 0\n"


def test_constrained_single_position():
    dec = decompose(J3, [(1, 1)])
    assert dec.parts[0].entries[0][0] == 1
    assert decomposition_holds(J3.entries, dec.matchings, dec.constraints)


def test_constrained_diagonal():
    dec = decompose(J3, [(1, 1), (2, 2), (3, 3)])
    assert decomposition_holds(J3.entries, dec.matchings, dec.constraints)


def test_constrained_forces_antidiagonal_first():
    # u1 must contain (1,2), leaving only the anti-diagonal matching; u2 is
    # then the identity, and the prefix inequalities pin the order
    t = validate_table(2, 2, [[1, 1], [1, 1]])
    dec = decompose(t, [(1, 2), (2, 2)])
    assert dec.parts[0].entries == ((0, 1), (1, 0))
    assert dec.parts[1].entries == ((1, 0), (0, 1))
    assert satisfies_constraints(dec.matchings, dec.constraints)


def test_constrained_duplicate_position():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    dec = decompose(t, [(1, 1), (1, 1)])
    assert decomposition_holds(t.entries, dec.matchings, dec.constraints)


@pytest.mark.parametrize("position", [(1.9, 2.2), (True, True), (1, 2.0), (1, True), ("1", 2),
                                      (1, np.float64(2)), (np.True_, 1), (1, 2, 3), (1,), 5])
def test_constraint_positions_are_integers(position):
    # int() read (1.9, 2.2) as (1, 2) and (True, True) as (1, 1); unpacking
    # (1, 2, 3), (1,) and 5 raised a bare ValueError or TypeError
    message = f"position {position} is not a pair of integers"
    with pytest.raises(FiberGraphsError, match=f"^{re.escape(message)}$"):
        decompose(J3, [position])


def test_constraint_positions_may_be_numpy_integers():
    dec = decompose(J3, [(np.int64(1), np.int32(2))])
    assert dec.constraints == ((1, 2),)
    assert {type(x) for pos in dec.constraints for x in pos} == {int}


def _cells(matchings, n):
    """The row-major cells that parts sum to, whether or not they are permutations."""
    cells = [0] * (n * n)
    for cols in matchings:
        for i, j in enumerate(cols):
            cells[i * n + j] += 1
    return cells


@pytest.mark.parametrize("matchings,constraints,holds", [
    # the first part must pass through the first constraint cell
    (((1, 0), (0, 1)), ((1, 1),), False),
    (((0, 1), (1, 0)), ((1, 1),), True),
    # a cell listed twice must be in two parts of the two-part prefix
    (((0, 1), (1, 0)), ((1, 1), (1, 1)), False),
    (((0, 1), (0, 1)), ((1, 1), (1, 1)), True),
    # more constraints than parts
    (((0, 1),), ((1, 1), (2, 2)), False),
    # two parts that sum to J2, each with a repeated column
    (((0, 0), (1, 1)), (), False),
])
def test_satisfies_constraints_checks_each_prefix(matchings, constraints, holds):
    # the table is the parts' sum, so only the parts and the prefixes can fail
    n = len(matchings[0])
    cells = _cells(matchings, n)
    entries = [cells[i:i + n] for i in range(0, n * n, n)]
    assert decomposition_holds(entries, matchings, constraints) is holds
    ids = [[(i - 1) * n + j - 1 for i, j in constraints]]
    assert failed_tables(np.array([cells]), np.array([matchings]), ids).tolist() == [not holds]


@pytest.mark.parametrize("n,r", [(3, 3), (4, 2)])
def test_checker_agrees_with_the_oracle_on_corrupted_decompositions(n, r):
    fiber = enumerate_fiber(n, r)
    rng = random.Random(20_240_000 + n * 100 + r)
    drawn = [_drawn_cells(rng, cells, r) for cells in fiber.cells.tolist()]
    constraints = _padded(drawn, r)
    parts = decompose_tables(fiber.cells, n, r, constraints)
    # one part with the columns of two rows swapped
    swapped = parts.copy()
    for b in range(len(fiber)):
        l, i, k = rng.randrange(r), *rng.sample(range(n), 2)
        swapped[b, l, [i, k]] = swapped[b, l, [k, i]]
    # the first part through one constraint's cell moved behind every other part
    uncovered = parts.copy()
    for b, cells in enumerate(drawn):
        if cells:
            q = rng.randrange(len(cells))
            i, j = divmod(cells[q], n)
            l = next(l for l in range(r) if parts[b, l, i] == j)
            uncovered[b] = parts[b, [x for x in range(r) if x != l] + [l]]
    verdicts = Counter()
    for corrupted in (parts, swapped, uncovered):
        failed = failed_tables(fiber.cells, corrupted, constraints).tolist()
        for t, cells, matchings, fails in zip(fiber, drawn, corrupted.tolist(), failed):
            positions = [(c // n + 1, c % n + 1) for c in cells]
            assert fails is not decomposition_holds(t.entries, matchings, positions)
            verdicts[fails] += 1
    assert verdicts[True] and verdicts[False]


def test_constrained_infeasible_entrywise():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    with pytest.raises(FiberGraphsError,
                       match=r"^cell \(1, 2\) holds 0 but the constraints require 1$"):
        decompose(t, [(1, 2)])
    with pytest.raises(FiberGraphsError, match="^3 constraints but only 2 parts$"):
        decompose(t, [(1, 1), (1, 1), (1, 1)])


def test_constrained_too_many_positions():
    with pytest.raises(FiberGraphsError, match="^4 constraints but only 3 parts$"):
        decompose(J3, [(1, 1)] * 4)


def test_constrained_random_instances():
    rng = random.Random(90125)
    fibers = {
        (n, r): enumerate_fiber(n, r)
        for n in (2, 3, 4)
        for r in (1, 2, 3)
    }
    for _ in range(500):
        n = rng.choice((2, 3, 4))
        r = rng.choice((1, 2, 3))
        fiber = fibers[(n, r)]
        t = fiber[rng.randrange(len(fiber))]
        k = rng.randint(0, r)
        budget = [row[:] for row in t.rows()]
        positions = []
        for _ in range(k):
            cells = [
                (i + 1, j + 1)
                for i in range(n)
                for j in range(n)
                if budget[i][j] > 0
            ]
            i, j = rng.choice(cells)
            budget[i - 1][j - 1] -= 1
            positions.append((i, j))
        dec = decompose(t, positions)
        assert decomposition_holds(t.entries, dec.matchings, dec.constraints)
        assert len(dec.parts) == r


# --- the batch kernel against the per-table augmenting-path greedy ---------


def _greedy_decomposition(cells, n, positions):
    """The per-table reference: r rounds, each the greedy's least matching
    through the first constraint left (0-based row-major cells), which then
    absorbs the later constraints it covers, greedily in order, one per row."""
    residual = [list(cells[i * n:(i + 1) * n]) for i in range(n)]
    remaining = [divmod(c, n) for c in positions]
    matchings = []
    for _ in range(sum(residual[0])):
        support = [[j for j, x in enumerate(row) if x > 0] for row in residual]
        cols = decomposition._greedy_matching(support, remaining[0] if remaining else None)
        for i, j in enumerate(cols):
            residual[i][j] -= 1
            assert residual[i][j] >= 0
        matchings.append(cols)
        covered, left = set(), []
        for i, j in remaining:
            if cols[i] == j and i not in covered:
                covered.add(i)
            else:
                left.append((i, j))
        remaining = left
    assert not remaining
    return matchings


def _drawn_cells(rng, cells, r):
    """Constraint cells drawn as verify's decomp-constrained check draws them."""
    budget = list(cells)
    drawn = []
    for _ in range(rng.randint(0, r)):
        cell = rng.choice([c for c, x in enumerate(budget) if x > 0])
        budget[cell] -= 1
        drawn.append(cell)
    return drawn


def _padded(lists, width):
    out = np.full((len(lists), width), -1)
    for b, cells in enumerate(lists):
        out[b, :len(cells)] = cells
    return out


@pytest.mark.parametrize("n,r", [(n, r) for n in (2, 3, 4) for r in (1, 2, 3)])
def test_kernel_matches_the_per_table_greedy_on_every_table(n, r):
    fiber = enumerate_fiber(n, r)
    rows = fiber.cells.tolist()
    rng = random.Random(20_240_000 + n * 100 + r)
    positions = [_drawn_cells(rng, cells, r) for cells in rows]
    plain = decompose_tables(fiber.cells, n, r).tolist()
    constrained = decompose_tables(fiber.cells, n, r, _padded(positions, r)).tolist()
    for cells, drawn, free, forced in zip(rows, positions, plain, constrained):
        assert free == _greedy_decomposition(cells, n, [])
        assert forced == _greedy_decomposition(cells, n, drawn)


@pytest.mark.parametrize("n,r", [(5, 2), (6, 1)])
def test_kernel_matches_the_per_table_greedy_on_drawn_trials(n, r):
    # n = 6 is the largest n read from the permutation table
    assert n <= decomposition.TABLE_MAX_N
    fiber = enumerate_fiber(n, r)
    rng = random.Random(20_240_000 + n * 100 + r)
    trials = [fiber.cells[rng.randrange(len(fiber))].tolist() for _ in range(200)]
    positions = [_drawn_cells(rng, cells, r) for cells in trials]
    parts = decompose_tables(np.array(trials), n, r, _padded(positions, r)).tolist()
    for cells, drawn, cols in zip(trials, positions, parts):
        assert cols == _greedy_decomposition(cells, n, drawn)


def test_each_side_of_the_table_size_runs_its_own_search(monkeypatch):
    calls = Counter()

    def counted(support, forced):
        calls[len(support)] += 1
        return greedy(support, forced)

    greedy = decomposition._greedy_matching
    monkeypatch.setattr(decomposition, "_greedy_matching", counted)
    # an 8 x 8 table with margin 3: the greedy fills all its matchings
    rng = random.Random(8)
    perms = [rng.sample(range(8), 8) for _ in range(3)]
    cells = [0] * 64
    for perm in perms:
        for i, j in enumerate(perm):
            cells[i * 8 + j] += 1
    drawn = [_drawn_cells(rng, cells, 3) for _ in range(4)]
    parts = decompose_tables(np.array([cells] * 4), 8, 3, _padded(drawn, 3)).tolist()
    assert calls == {8: 12}
    monkeypatch.setattr(decomposition, "_greedy_matching", greedy)
    assert parts == [_greedy_decomposition(cells, 8, d) for d in drawn]
    # up to TABLE_MAX_N the permutation table answers and the greedy never runs
    monkeypatch.setattr(decomposition, "_greedy_matching", counted)
    calls.clear()
    six = np.array([[3 if i == j else 0 for i in range(6) for j in range(6)]])
    decompose_tables(six, 6, 3, [[0, 7, 14]])
    assert not calls


def test_kernel_refuses_what_the_single_table_calls_refuse():
    j3 = np.array([J3.row_major()] * 2)
    with pytest.raises(FiberGraphsError, match="4 constraints but only 3 parts"):
        decompose_tables(j3, 3, 3, [[0, 0, 0, -1], [0, 1, 2, 3]])
    with pytest.raises(FiberGraphsError, match="cell 9 is outside the 3 x 3 table"):
        decompose_tables(j3, 3, 3, [[0, -1], [9, -1]])
    with pytest.raises(FiberGraphsError,
                       match=r"cell \(1, 2\) holds 1 but the constraints require 2"):
        decompose_tables(j3, 3, 3, [[0, -1], [1, 1]])
    with pytest.raises(FiberGraphsError, match="margin 0"):
        decompose_tables(np.zeros((2, 4)), 2, 0)
    # -1 pads a shorter list; a table without constraints decomposes freely
    parts = decompose_tables(j3, 3, 3, [[4, -1], [-1, -1]])
    assert [tuple(map(tuple, table)) for table in parts.tolist()] == [
        decompose(J3, [(2, 2)]).matchings, decompose(J3).matchings]


def test_kernel_refuses_a_margin_past_the_cap():
    # a margin r takes r parts and r rounds; past the cap it is a resource guard,
    # tripped before an entry of 2**63 or more would overflow the int64 cast
    past = DEFAULT_CAP + 1
    with pytest.raises(SizeLimitExceededError, match=f"^decomposition into {past} parts "):
        decompose_tables([[past]], 1, past)
    big = 2**70
    with pytest.raises(SizeLimitExceededError, match=f"^decomposition into {big} parts "):
        decompose(validate_table(2, big, [[big, 0], [0, big]]))


def test_decomp_constrained_counts_each_failing_trial(monkeypatch, tmp_path):
    # one trial's part breaks the resum and another's breaks a prefix
    decompose = decomposition.decompose_tables
    broken = {}

    def faulty(cells, n, r, constraints=None):
        parts = decompose(cells, n, r, constraints)
        # a trial without constraints gets a part that is no permutation
        broken["resum"] = int(np.argmax(constraints[:, 0] < 0))
        assert constraints[broken["resum"], 0] < 0
        parts[broken["resum"], 0] = 0
        # a trial with constraints swaps its first part for a later one that
        # misses the first constraint cell, which keeps the sum
        for b in np.flatnonzero(constraints[:, 0] >= 0).tolist():
            first = constraints[b, 0]
            misses = [l for l in range(1, r) if parts[b, l, first // n] != first % n]
            if misses:
                parts[b, [0, misses[0]]] = parts[b, [misses[0], 0]]
                broken["prefix"] = b
                return parts
        raise AssertionError("no trial can break a prefix")

    monkeypatch.setattr(decomposition, "decompose_tables", faulty)
    out = tmp_path / "report.json"
    argv = ["verify", "--n", "4", "--r", "3", "--checks", "decomp-constrained", "--out", str(out)]
    assert cli.main(argv) == 1
    (result,) = json.loads(out.read_text())["results"]
    assert result["computed"] == {"trials": 500, "failures": 2}
    assert result["pass"] is False
    assert broken["resum"] != broken["prefix"]
