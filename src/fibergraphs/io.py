"""File formats: table JSON/CSV and fiber exports.

``load_table`` is the one reader of a table file.  Table CSV is n lines of n
comma-separated integers, each line ended by "\\n" ("\\r\\n" and "\\r" are read
as "\\n").  Table JSON is an array of rows, or an object {"rows": [[int, ...],
...]} that may also state "n" and "r".  Where a file states no margin r,
``tables.as_equal_margin_table`` works it out and checks that every row and
column sums to it.  Malformed input is rejected with positional messages
(1-based lines and fields, rows and columns).

An export is a stream of ASCII byte blocks from ``format_rows``, each ending
at a row boundary, that the caller writes as they come: none is held whole.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .enumeration import Fiber
from .errors import FiberGraphsError
from .tables import ContingencyTable, as_equal_margin_table


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", exc)  # bytes that are not text have no strerror
        raise FiberGraphsError(f"cannot read {str(path)!r}: {reason}") from None


def _parse_json(text: str, what: str = "JSON") -> object:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
        raise FiberGraphsError(f"invalid {what}: {exc}") from None


def _integer(value: object, where: str) -> int:
    """value itself when it is an int; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FiberGraphsError(f"{where} is not an integer: {value!r}")
    return value


_ASCII_SPACE = " \t\n\r\f\v"  # the whitespace a CSV field may carry


def parse_rows_csv(text: str) -> list[list[int]]:
    """Raw integer rows from CSV text whose lines end at "\\n" only;
    positional errors on malformed fields."""
    rows: list[list[int]] = []
    # str.splitlines() would also end a line at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(_ASCII_SPACE):
            continue
        row = []
        for colno, cell in enumerate(line.split(","), start=1):
            # optional ASCII whitespace around an optional sign and ASCII digits:
            # int() alone also takes '1_0', non-ASCII digits and other whitespace
            field = cell.strip(_ASCII_SPACE)
            digits = field[1:] if field[:1] in ("+", "-") else field
            if not (digits.isascii() and digits.isdigit()):
                raise FiberGraphsError(
                    f"line {lineno}, field {colno}: {cell!r} is not an integer")
            try:
                row.append(int(field))
            except ValueError:  # the grammar holds, so only the digit limit is left
                raise FiberGraphsError(
                    f"line {lineno}, field {colno}: {len(digits)} digits exceed the integer "
                    f"string limit of {sys.get_int_max_str_digits()}") from None
        rows.append(row)
    if not rows:
        raise FiberGraphsError("CSV input contains no rows")
    return rows


def load_table(path: str | Path) -> ContingencyTable:
    """The table in a .json or .csv file; other extensions are refused.

    A JSON file holds the rows as an array of arrays of integers, either
    bare or as the ``rows`` of an object that may also state ``n`` and
    ``r``; those must be integers that fit the rows.  Where the file states
    no r, ``as_equal_margin_table`` works it out from the rows.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".json", ".csv"):
        raise FiberGraphsError(f"unrecognized table extension: {path.suffix!r}")
    text = _read_text(path)
    if suffix == ".csv":
        return as_equal_margin_table(parse_rows_csv(text))
    payload = _parse_json(text)
    stated = payload if isinstance(payload, dict) else {"rows": payload}
    rows = stated.get("rows")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FiberGraphsError("table JSON must hold its rows as an array of arrays")
    rows = [[_integer(x, f"entry at row {i}, column {j}") for j, x in enumerate(row, 1)]
            for i, row in enumerate(rows, 1)]
    n, r = (_integer(stated[k], k) if k in stated else None for k in ("n", "r"))
    return as_equal_margin_table(rows, n, r)


FORMAT_BLOCK = 1 << 14  # rows rendered at a time by format_rows


def format_rows(literals: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """Row i is literals[0], columns[0][i], literals[1], ..., columns[-1][i],
    literals[-1], each entry a non-negative integer in decimal.

    Yields FORMAT_BLOCK rows at a time as ASCII bytes, each block rendered
    column-major: a (width, rows) matrix of bytes, so each literal byte and
    each digit position is one contiguous row.  A column below 10 is its own
    digit row; a wider one is split by repeated % 10 and // 10 in its own
    dtype (an object array of Python ints included).  A block where every
    column's min and max have the same digit count is the transposed matrix
    as it stands.  Otherwise a mask is built over it, and only the columns
    whose digit count varies mark their leading zeros in it; the block is the
    kept bytes of the transposed matrix.
    """
    assert len(literals) == len(columns) + 1
    pieces = [np.frombuffer(lit.encode("ascii"), dtype=np.uint8) for lit in literals]
    for start in range(0, len(columns[0]), FORMAT_BLOCK):
        block = [col[start:start + FORMAT_BLOCK] for col in columns]
        widths = [len(str(col.max())) for col in block]
        text = np.empty((sum(map(len, pieces)) + sum(widths), len(block[0])), dtype=np.uint8)
        keep = None
        at = 0
        for piece, col, width in zip(pieces, block, widths):
            text[at:at + len(piece)] = piece[:, None]
            at += len(piece)
            varies = width > 1 and len(str(col.min())) < width
            for k in range(at + width - 1, at, -1):
                text[k] = col % 10
                col = col // 10
            text[at] = col
            if varies:
                if keep is None:
                    keep = np.ones(text.shape, dtype=bool)
                keep[at:at + width - 1] = np.logical_or.accumulate(text[at:at + width - 1] != 0)
            text[at:at + width] += ord("0")
            at += width
        text[at:] = pieces[-1][:, None]
        yield text.T.tobytes() if keep is None else text.T[keep.T].tobytes()


def json_row_separators(n: int) -> list[str]:
    """The literals between an n x n table's row-major entries as nested JSON rows."""
    return ["],[" if j % n == 0 else "," for j in range(1, n * n)]


def fiber_to_jsonl(fiber: Fiber) -> Iterator[bytes]:
    """One table per line, canonical order: {"id": k, "rows": [...]}, in blocks."""
    literals = ['{"id":', ',"rows":[[', *json_row_separators(fiber.n), "]]}\n"]
    return format_rows(literals, [np.arange(len(fiber)), *fiber.cells.T])


def fiber_to_csv(fiber: Fiber) -> Iterator[bytes]:
    """Vertex id column plus row-major entry columns, with a header line, in blocks."""
    n = fiber.n
    header = "id," + ",".join(f"r{i}c{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    yield (header + "\n").encode("ascii")
    yield from format_rows(["", *[","] * (n * n), "\n"], [np.arange(len(fiber)), *fiber.cells.T])


def parse_constraints(value: str) -> list[tuple[int, int]]:
    """Constraint list from inline JSON (a value that starts with [ or {) or
    from a JSON file path."""
    text = value
    if not value.lstrip().startswith(("[", "{")):
        text = _read_text(Path(value))
    payload = _parse_json(text, "constraint JSON")
    if not isinstance(payload, list):
        raise FiberGraphsError("constraints must be a JSON array of [i, j] pairs")
    out = []
    for k, pair in enumerate(payload, start=1):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FiberGraphsError(f"constraint {k} is not an [i, j] pair")
        out.append((_integer(pair[0], f"constraint {k} row"),
                    _integer(pair[1], f"constraint {k} column")))
    return out
