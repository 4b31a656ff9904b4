from __future__ import annotations

from math import comb

import pytest

from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError
from fibergraphs.tables import (
    MarkovMove,
    apply_move,
    enumerate_basis_moves,
    is_valid_move,
    max_degree_value,
    move_cells,
    scaled_permutation,
    valid_moves,
    validate_table,
)

from oracles import degree_by_support_pairs


def degree(t):
    return len(valid_moves(t))


def test_validate_accepts_diagonal():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    assert t.entries == ((2, 0), (0, 2))


def test_validate_row_sum_mismatch_reports_row():
    with pytest.raises(FiberGraphsError, match="^row 1 sums to 3, expected 2$"):
        validate_table(2, 2, [[2, 1], [0, 1]])


def test_validate_column_sum_mismatch():
    # rows sum to 2 but columns don't
    with pytest.raises(FiberGraphsError, match="^column 1 sums to 4, expected 2$"):
        validate_table(2, 2, [[2, 0], [2, 0]])


def test_validate_negative_entry():
    with pytest.raises(FiberGraphsError, match="^negative entry -1 at row 1, column 2$"):
        validate_table(2, 2, [[3, -1], [-1, 3]])


def test_validate_non_integer_rejected():
    with pytest.raises(FiberGraphsError,
                       match=r"^entry at row 1, column 1 is not an integer: 1\.0$"):
        validate_table(2, 2, [[1.0, 1.0], [1.0, 1.0]])


def test_validate_hand_checked_3x3():
    t = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert t.n == 3 and t.r == 2


@pytest.mark.parametrize("n,count", [(2, 2), (3, 18), (4, 72)])
def test_basis_move_count(n, count):
    moves = enumerate_basis_moves(n)
    assert len(moves) == count
    assert len(set(moves)) == count


def test_basis_moves_need_two_rows():
    with pytest.raises(FiberGraphsError, match="^moves require n >= 2, got 1$"):
        enumerate_basis_moves(1)


def test_basis_moves_canonical_order_and_negation_closure():
    moves = enumerate_basis_moves(3)
    keyed = [(m.i1, m.j1, m.i2, m.j2, m.sign) for m in moves]
    assert keyed == sorted(keyed)
    assert {m.negate() for m in moves} == set(moves)


@pytest.mark.parametrize("n", range(1, 6))
def test_move_cells(n):
    """Row k is move k's subtracted then added cells, row-major; move k ^ 1 is
    move k's negation, so a CSR walk can undo a move by id."""
    cells = move_cells(n)
    if n == 1:
        assert cells == ()
        return
    moves = enumerate_basis_moves(n)
    assert len(cells) == len(moves)
    for k, m in enumerate(moves):
        flat = tuple(i * n + j for i, j in (*m.subtracted_cells(), *m.added_cells()))
        assert cells[k] == flat
        assert moves[k ^ 1] == m.negate()
        assert cells[k ^ 1] == cells[k][2:] + cells[k][:2]


def test_move_matrix_margins_are_zero():
    # each move adds 1 on the rows and on the columns it subtracts 1 from
    for n in range(2, 6):
        for cells in move_cells(n):
            sub, add = cells[:2], cells[2:]
            assert len(set(cells)) == 4
            assert sorted(c // n for c in sub) == sorted(c // n for c in add)
            assert sorted(c % n for c in sub) == sorted(c % n for c in add)


def test_move_requires_ordered_indices():
    with pytest.raises(FiberGraphsError, match=r"^need 1 <= i1 < i2 and 1 <= j1 < j2, got "
                       r"MarkovMove\(i1=2, j1=1, i2=1, j2=2, sign=1\)$"):
        MarkovMove(2, 1, 1, 2, 1)
    with pytest.raises(FiberGraphsError, match=r"^sign must be -1 or \+1, got 0$"):
        MarkovMove(1, 1, 2, 2, 0)


def test_move_validity_on_diagonal():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    subtract_diag = MarkovMove(1, 1, 2, 2, -1)
    subtract_off = MarkovMove(1, 1, 2, 2, 1)
    assert is_valid_move(t, subtract_diag)
    assert not is_valid_move(t, subtract_off)


def test_move_validity_zero_cell():
    t = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    # any move subtracting from the zero cell (1,3) is invalid
    for m in enumerate_basis_moves(3):
        if (0, 2) in m.subtracted_cells():
            assert not is_valid_move(t, m)


def test_apply_move_chain_and_round_trip():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    m = MarkovMove(1, 1, 2, 2, -1)
    u = apply_move(t, m)
    assert u.entries == ((1, 1), (1, 1))
    w = apply_move(u, m)
    assert w.entries == ((0, 2), (2, 0))
    assert apply_move(u, m.negate()).entries == t.entries


def test_apply_move_rejects_invalid():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    with pytest.raises(FiberGraphsError, match=r"^move MarkovMove\(i1=1, j1=1, i2=2, j2=2, "
                       r"sign=1\) subtracts from a zero entry of the table$"):
        apply_move(t, MarkovMove(1, 1, 2, 2, 1))


def test_degree_examples():
    assert degree(scaled_permutation(3, 3, [0, 1, 2])) == 3
    j3 = validate_table(3, 3, [[1, 1, 1]] * 3)
    assert degree(j3) == 18
    assert degree(validate_table(2, 2, [[2, 0], [0, 2]])) == 1


def test_degree_matches_support_pair_formula_across_fibers():
    for n, r in [(2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]:
        for t in enumerate_fiber(n, r):
            assert degree(t) == degree_by_support_pairs(t.entries)


def test_degree_floor_and_gap_lemma():
    # min degree C(n,2) attained exactly at r-scaled patterns, all other
    # vertices at least C(n,2) + n - 1
    for n, r in [(2, 2), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3), (4, 4)]:
        floor = comb(n, 2)
        for t in enumerate_fiber(n, r):
            d = degree(t)
            if all(x in (0, r) for x in t.row_major()):
                assert d == floor
            else:
                assert d >= floor + n - 1


def test_min_degree_value():
    # C(n, 2) at every permutation table, n = 1 (no moves at all) included
    least = [min(degree(t) for t in enumerate_fiber(n, 1)) for n in range(1, 5)]
    assert least == [comb(n, 2) for n in range(1, 5)] == [0, 1, 3, 6]


def test_max_degree_value_attained_cases():
    assert max_degree_value(3, 3) == (18, True)
    assert max_degree_value(3, 2) == (9, True)
    assert max_degree_value(4, 3) == (42, True)


def test_max_degree_value_upper_bound_only():
    bound = max_degree_value(2, 5)
    assert bound == (5, False)
    observed = max(degree(t) for t in enumerate_fiber(2, 5))
    assert observed < bound.value  # strict when n < r


def test_max_degree_attained_exactly_at_zero_one_tables():
    for n, r in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        bound = max_degree_value(n, r)
        assert bound.attained
        argmax = {t.entries for t in enumerate_fiber(n, r) if degree(t) == bound.value}
        zero_one = {
            t.entries
            for t in enumerate_fiber(n, r)
            if all(x in (0, 1) for x in t.row_major())
        }
        assert argmax == zero_one


def test_fiber_closure_under_moves():
    fiber = enumerate_fiber(3, 2)
    for t in fiber:
        for m in valid_moves(t):
            fiber.index_of(apply_move(t, m))  # KeyError outside the fiber


def test_table_immutability_and_hashing():
    t = validate_table(2, 2, [[1, 1], [1, 1]])
    assert t == validate_table(2, 2, [[1, 1], [1, 1]])
    assert hash(t) == hash(validate_table(2, 2, [[1, 1], [1, 1]]))
    with pytest.raises(Exception):
        t.n = 5
