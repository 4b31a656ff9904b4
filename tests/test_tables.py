from __future__ import annotations

import hashlib
import re
from math import comb

import numpy as np
import pytest

from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError
from fibergraphs.tables import (
    apply_move,
    max_degree_value,
    move_cells,
    scaled_permutation,
    valid_moves,
    validate_table,
)

from oracles import degree_by_support_pairs, move_rectangle


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


def test_validate_reads_numpy_integers_as_ints():
    t = validate_table(2, 1, [[np.int64(1), np.uint8(0)], [0, np.int32(1)]])
    assert t == validate_table(2, 1, [[1, 0], [0, 1]])
    assert all(type(x) is int for x in t.row_major())


@pytest.mark.parametrize("bad, shown", [(True, "True"), (np.float64(1.0), r"np\.float64\(1\.0\)")])
def test_validate_refuses_bools_and_floats(bad, shown):
    with pytest.raises(FiberGraphsError,
                       match=rf"^entry at row 1, column 1 is not an integer: {shown}$"):
        validate_table(2, 1, [[bad, 0], [0, 1]])


def test_validate_hand_checked_3x3():
    t = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert t.n == 3 and t.r == 2


# n -> sha256 of repr(move_cells(n)): the move ids every layer and report use
MOVE_CELLS_SHA256 = {
    1: "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    2: "941701f4929e222865acb3eed979fc1ed7f79d6b164956571fa3f5b5e2f1154f",
    3: "04d1a28a9a8e64241a9cbe20775c1a9ed7749b2833fc3df1fafc6cc056ce1cc6",
    4: "9711f9871dc109befa76c603848984fa172311b178ae23cc96a011000a6ca25d",
    5: "042356d91461b76478241d345120d9b0c8d8ccae99a67382d90a1c2e5dbc1d7f",
    6: "f05d0d634f01097f88dafd5b5af4221227e77681e5160b005ac811aa829db843",
    7: "ebe28fc18d35bcafdcd08510616062c87c4ae20a02d87eafb3d63e52005efee4",
    8: "826ae4b66adf14a7065114a8d7cc16825cefc0e5e9d0059822f7bc1dcf7e9f30",
}


@pytest.mark.parametrize("n,count", [(2, 2), (3, 18), (4, 72)])
def test_basis_move_count(n, count):
    moves = move_cells(n)
    assert len(moves) == count == 2 * comb(n, 2) ** 2
    assert len(set(moves)) == count


def test_basis_moves_need_two_rows():
    # a 1 x 1 table has no moves: no ids and none valid (applying one: [one-by-one] below)
    t = validate_table(1, 3, [[3]])
    assert move_cells(1) == ()
    assert valid_moves(t) == []


def test_basis_moves_canonical_order_and_negation_closure():
    decoded = [move_rectangle(3, cells) for cells in move_cells(3)]
    assert decoded == sorted(decoded) and len(set(decoded)) == 18
    assert {(*m[:4], -m[4]) for m in decoded} == set(decoded)


@pytest.mark.parametrize("n", range(1, 7))
def test_move_cells(n):
    """Row k is move k's subtracted then added cells, row-major: the
    rectangles in lex order of (i1, j1, i2, j2), each first with sign -1
    (subtracting from its diagonal); move k ^ 1 is move k's negation, so a
    CSR walk can undo a move by id."""
    cells = move_cells(n)
    pairs = [(i1, j1, i2, j2) for i1 in range(1, n + 1) for j1 in range(1, n + 1)
             for i2 in range(i1 + 1, n + 1) for j2 in range(j1 + 1, n + 1)]
    decoded = [move_rectangle(n, row) for row in cells]
    assert decoded == [(*p, sign) for p in pairs for sign in (-1, 1)]
    for k, row in enumerate(cells):
        assert decoded[k ^ 1] == (*decoded[k][:4], -decoded[k][4])
        assert cells[k ^ 1] == row[2:] + row[:2]


@pytest.mark.parametrize("n", sorted(MOVE_CELLS_SHA256))
def test_move_cells_are_pinned(n):
    assert hashlib.sha256(repr(move_cells(n)).encode()).hexdigest() == MOVE_CELLS_SHA256[n]


def test_move_matrix_margins_are_zero():
    # each move adds 1 on the rows and on the columns it subtracts 1 from
    for n in range(2, 6):
        for cells in move_cells(n):
            sub, add = cells[:2], cells[2:]
            assert len(set(cells)) == 4
            assert sorted(c // n for c in sub) == sorted(c // n for c in add)
            assert sorted(c % n for c in sub) == sorted(c % n for c in add)


def test_move_validity_on_diagonal():
    # move 0 subtracts from the diagonal, its negation 1 from the empty anti-diagonal
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    assert valid_moves(t) == [0]


def test_move_validity_zero_cell():
    t = validate_table(3, 2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    # a move is valid exactly when neither cell it subtracts from is the zero
    # cell (1,3) or (2,2) or (3,1), row-major 2, 4 and 6
    valid = valid_moves(t)
    assert valid == sorted(valid)
    assert valid == [k for k, cells in enumerate(move_cells(3)) if not {2, 4, 6} & set(cells[:2])]


def test_apply_move_chain_and_round_trip():
    t = validate_table(2, 2, [[2, 0], [0, 2]])
    u = apply_move(t, 0)
    assert u.entries == ((1, 1), (1, 1))
    w = apply_move(u, 0)
    assert w.entries == ((0, 2), (2, 0))
    assert apply_move(u, 1).entries == t.entries
    assert apply_move(t, np.int64(0)) == u  # a numpy integer is an id too
    for table in enumerate_fiber(3, 2):
        for k in valid_moves(table):
            assert apply_move(apply_move(table, k), k ^ 1) == table


DIAGONAL = validate_table(2, 2, [[2, 0], [0, 2]])


@pytest.mark.parametrize("table, move, message", [
    pytest.param(DIAGONAL, 1, "move 1 subtracts from a zero entry of the table",
                 id="zero-entry"),
    pytest.param(DIAGONAL, True, "move True is not one of the 2 move ids of 2x2 tables",
                 id="bool"),
    pytest.param(DIAGONAL, 1.0, "move 1.0 is not one of the 2 move ids of 2x2 tables",
                 id="float"),
    pytest.param(DIAGONAL, -1, "move -1 is not one of the 2 move ids of 2x2 tables",
                 id="negative"),
    pytest.param(DIAGONAL, 2, "move 2 is not one of the 2 move ids of 2x2 tables",
                 id="past-the-last"),
    pytest.param(validate_table(1, 3, [[3]]), 0,
                 "move 0 is not one of the 0 move ids of 1x1 tables", id="one-by-one"),
])
def test_apply_move_rejects_invalid(table, move, message):
    with pytest.raises(FiberGraphsError, match=f"^{re.escape(message)}$"):
        apply_move(table, move)


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
