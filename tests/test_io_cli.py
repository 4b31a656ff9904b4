from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fibergraphs import cli, io
from fibergraphs.cli import main
from fibergraphs.enumeration import Fiber, enumerate_fiber
from fibergraphs.errors import FiberGraphsError
from fibergraphs.graphs import build_graph, export_graph, orient, vertex_map_json
from fibergraphs.sampler import WalkConfig, run_walk


def _table_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


TABLE_COMMANDS = ("test", "sample", "decompose")


def _table_argv(command, path):
    """The argv of one of TABLE_COMMANDS on the table file at path."""
    walk = [] if command == "decompose" else ["--steps", "3", "--seed", "1"]
    return [command, "--table", str(path), *walk]


def test_parse_table_json_round_trip(tmp_path):
    t = io.load_table(_table_file(tmp_path, "a.json", '{"n": 2, "r": 2, "rows": [[1, 1], [1, 1]]}'))
    text = json.dumps({"n": t.n, "r": t.r, "rows": t.rows()})
    assert io.load_table(_table_file(tmp_path, "b.json", text)) == t


def test_parse_table_json_missing_keys(tmp_path):
    # n and r may be left out, the rows may not
    with pytest.raises(FiberGraphsError,
                       match="^table JSON must hold its rows as an array of arrays$"):
        io.load_table(_table_file(tmp_path, "t.json", '{"n": 1, "r": 1}'))


def test_parse_table_csv_infers_margin(tmp_path):
    t = io.load_table(_table_file(tmp_path, "t.csv", "2,0,0\n0,2,0\n0,0,2\n"))
    assert t.n == 3 and t.r == 2


def test_parse_table_csv_positional_errors(tmp_path):
    with pytest.raises(FiberGraphsError, match="^line 1, field 2: 'x' is not an integer$"):
        io.load_table(_table_file(tmp_path, "a.csv", "1,x\n0,1\n"))
    with pytest.raises(FiberGraphsError, match=r"^margins are not all equal: "
                       r"row sums \[2, 1\], column sums \[3, 0\]$"):
        io.load_table(_table_file(tmp_path, "b.csv", "2,0\n1,0\n"))
    # a stated margin is checked row by row
    with pytest.raises(FiberGraphsError, match="^row 2 sums to 1, expected 2$"):
        io.load_table(_table_file(tmp_path, "c.json", '{"r": 2, "rows": [[2, 0], [1, 0]]}'))


@pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff11", "\u00a01", "1.0", "+ 1", ""])
def test_csv_fields_are_ascii_integers(tmp_path, field):
    # int() reads '1_0' as 10, the Arabic-Indic and the fullwidth digits as digits,
    # and a no-break space as whitespace
    path = _table_file(tmp_path, "t.csv", f"0,{field}\n1,0\n")
    with pytest.raises(FiberGraphsError,
                       match=f"^line 1, field 2: {re.escape(repr(field))} is not an integer$"):
        io.load_table(path)


# the file is read with universal newlines, so "\r\n" and "\r" reach the parser as "\n"
@pytest.mark.parametrize("text", [" 1 ,\t0\n0,+1\n", "1,0\n\n0, 1 \n", "1,0\r\n0,1\r\n", "1,0\r0,1\r"])
def test_csv_fields_take_ascii_whitespace_and_a_sign(tmp_path, text):
    assert io.load_table(_table_file(tmp_path, "t.csv", text)).rows() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("text, where, cell", [
    *((f"1,0{sep}0,1\n", "line 1, field 2", f"0{sep}0")
      for sep in ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]),
    ("1,0\n\u2028\n0,1\n", "line 2, field 1", "\u2028"),
], ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS", "line-of-LS"])
def test_csv_lines_end_only_at_newline(tmp_path, text, where, cell):
    # str.splitlines() ended a line at each of these, and dropped a line holding only \u2028
    message = f"{where}: {cell!r} is not an integer"
    with pytest.raises(FiberGraphsError, match=f"^{re.escape(message)}$"):
        io.load_table(_table_file(tmp_path, "t.csv", text))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no digit limit")
def test_csv_field_past_the_digit_limit_is_named_not_quoted(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = _table_file(tmp_path, "t.csv", "1" * (limit + 1) + ",0\n0,1\n")
    assert main(["decompose", "--table", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: line 1, field 1: {limit + 1} digits exceed the integer string "
                   f"limit of {limit}\n")


def _text(blocks) -> str:
    """An export's byte blocks joined into its text."""
    return b"".join(blocks).decode("ascii")


def test_fiber_jsonl_and_csv():
    fiber = enumerate_fiber(2, 2)
    lines = _text(io.fiber_to_jsonl(fiber)).splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"id": 0, "rows": [[0, 2], [2, 0]]}
    csv = _text(io.fiber_to_csv(fiber)).splitlines()
    assert csv[0] == "id,r1c1,r1c2,r2c1,r2c2"
    assert csv[1] == "0,0,2,2,0"


# --- the digit-array formatter, against the per-line rendering it replaced ---

def _jsonl_per_line(fiber):
    row = ",".join(["%d"] * fiber.n)
    line = '{"id":%d,"rows":[[' + "],[".join([row] * fiber.n) + "]]}\n"
    return "".join([line % (k, *cells) for k, cells in enumerate(fiber.cells.tolist())])


def _csv_per_line(fiber):
    n = fiber.n
    header = "id," + ",".join(f"r{i}c{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    lines = [header]
    for k, cells in enumerate(fiber.cells.tolist()):
        lines.append(f"{k}," + ",".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def _assert_per_line(fiber):
    assert _text(io.fiber_to_jsonl(fiber)) == _jsonl_per_line(fiber)
    assert _text(io.fiber_to_csv(fiber)) == _csv_per_line(fiber)


def test_formatter_digit_widths_of_a_uint64_fiber():
    entries = [0, 9, 10, 99, 100, 2**63 - 1, 2**64 - 1, 1, 2**32]
    cells = np.array([entries, entries[::-1]], dtype=">u8")
    fiber = Fiber(3, 0, cells)  # margins are not the formatter's concern
    _assert_per_line(fiber)
    assert "18446744073709551615" in _text(io.fiber_to_csv(fiber))


def test_formatter_object_entries():
    cells = np.array([[2**64], [0], [10**30], [2**64 - 1]], dtype=object)
    _assert_per_line(Fiber(1, 0, cells))


@pytest.mark.parametrize("n, r", [(2, 0), (1, 0), (1, 7), (1, 10), (1, 2**64)], ids=str)
def test_formatter_one_row_or_one_column(n, r):
    _assert_per_line(enumerate_fiber(n, r))


def _format_rows_reference(literals, columns):
    lines = []
    for values in zip(*columns):
        parts = [literals[0]]
        for value, literal in zip(values, literals[1:]):
            parts += [str(int(value)), literal]
        lines.append("".join(parts))
    return "".join(lines)


# In blocks of 4 rows the first column stays one digit wide, the second and third
# change width from block to block, and the fourth varies but stays two digits
# wide.  The second block has no column whose width varies: it needs no mask.
_MIXED_WIDTHS = [
    [3, 0, 9, 1, 0, 2, 5, 7, 8, 4, 6, 1, 0, 9, 2],
    [0, 10, 7, 255, 9, 1, 1, 0, 99, 5, 3, 250, 10, 1, 0],
    [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 42, 99, 100, 200, 255],
    [10, 99, 42, 57, 13, 88, 20, 31, 64, 75, 11, 90, 55, 23, 46],
]


@pytest.mark.parametrize("block", [4, io.FORMAT_BLOCK])
@pytest.mark.parametrize("dtype", [np.uint8, ">u2", np.int64, object], ids=str)
def test_formatter_matches_reference(monkeypatch, dtype, block):
    monkeypatch.setattr(io, "FORMAT_BLOCK", block)
    columns = [np.array(col, dtype=dtype) for col in _MIXED_WIDTHS]
    literals = ['{"a":', ',"b":[', ",", '],"c":', "}\n"]
    assert _text(io.format_rows(literals, columns)) == _format_rows_reference(literals, columns)


def test_formatter_one_column_without_literals():
    values = np.array([7, 0, 12, 305], dtype=np.uint16)
    assert _text(io.format_rows(["", ""], [values])) == "7012305"
    assert _text(io.format_rows(["", "", ""], [values[:1], values[2:3]])) == "712"


@pytest.mark.parametrize("n, r", [(3, 2), (2, 120)], ids=str)
def test_formatter_ids_gain_a_digit(n, r):
    fiber = enumerate_fiber(n, r)  # ids 0..20 and 0..120
    _assert_per_line(fiber)
    assert '{"id":10,' in _text(io.fiber_to_jsonl(fiber))


@pytest.mark.parametrize("fiber", [
    enumerate_fiber(3, 3),
    enumerate_fiber(2, 120),
    Fiber(1, 0, np.array([[10**k] for k in range(25)], dtype=object)),
], ids=["G(3,3)", "G(2,120)", "powers of ten"])
def test_formatter_blocks_join_up(monkeypatch, fiber):
    # the golden instances fit in one block, so shrink it: widths differ from block to block
    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    _assert_per_line(fiber)


@pytest.mark.parametrize("oriented", [False, True])
def test_edge_list_blocks_join_up(monkeypatch, oriented):
    graph = build_graph(enumerate_fiber(3, 3))
    target = orient(graph) if oriented else graph
    if oriented:
        tails = np.repeat(np.arange(graph.vertex_count), np.diff(target.indptr))
        pairs = zip(tails.tolist(), target.indices.tolist())
    else:
        pairs = graph.edges()
    expected = "".join(f"{u} {v}\n" for u, v in pairs)
    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    assert _text(export_graph(target, "edge-list")) == expected


# --- exports that span blocks: the one-block reference's bytes, cut at row ends ---

def _block_exports(fiber):
    """Each streamed export of fiber and of its graph: its blocks, the text the
    one-block reference renders, the length of its header and the bytes that end
    one of its rows."""
    n, ref = fiber.n, _format_rows_reference
    ids, cells = np.arange(len(fiber)), list(fiber.cells.T)
    graph = build_graph(fiber)
    edges = [np.array(side) for side in zip(*graph.edges())]
    entries = io.json_row_separators(n)
    csv_header = "id," + ",".join(f"r{i}c{j}" for i in range(1, n + 1)
                                  for j in range(1, n + 1)) + "\n"
    labels = ["\\n" if j % n == 0 else " " for j in range(1, n * n)]
    dot_header = "graph fiber {\n"
    dot = (ref(["  ", ' [label="', *labels, '"];\n'], [ids, *cells])
           + ref(["  ", " -- ", ";\n"], edges))
    sidecar = ref(['"', '":[[', *entries, "]],"], [ids, *cells])
    return {
        "jsonl": (io.fiber_to_jsonl(fiber),
                  ref(['{"id":', ',"rows":[[', *entries, "]]}\n"], [ids, *cells]), 0, "\n"),
        "csv": (io.fiber_to_csv(fiber),
                csv_header + ref(["", *[","] * (n * n), "\n"], [ids, *cells]),
                len(csv_header), "\n"),
        "edge-list": (export_graph(graph, "edge-list"), ref(["", " ", "\n"], edges), 0, "\n"),
        "dot": (export_graph(graph, "dot"), dot_header + dot + "}\n", len(dot_header), "\n"),
        "vertex-map": (vertex_map_json(graph), "{" + sidecar[:-1] + "}", 1, "]],"),
    }


@pytest.mark.parametrize("export", ["jsonl", "csv", "edge-list", "dot", "vertex-map"])
def test_exports_span_blocks_cut_at_row_ends(monkeypatch, export):
    # G(3,3) has 55 tables and 108 edges, so 7-row blocks cut each export 8 ways or more
    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    blocks, expected, header, row_end = _block_exports(enumerate_fiber(3, 3))[export]
    blocks = list(blocks)
    assert all(isinstance(block, bytes) for block in blocks)
    assert b"".join(blocks).decode("ascii") == expected
    assert len(blocks) >= 8
    assert max(block.decode("ascii").count(row_end) for block in blocks) <= 7
    row_ends = {m.end() for m in re.finditer(re.escape(row_end), expected)}
    cuts = set(np.cumsum([len(block) for block in blocks]).tolist())
    assert cuts <= row_ends | {header, len(expected)}


def test_vertex_map_trims_the_last_comma_of_the_last_block(monkeypatch):
    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    blocks = list(vertex_map_json(build_graph(enumerate_fiber(3, 2))))  # 21 tables
    assert blocks[0] == b"{" and len(blocks) == 4
    assert all(block.endswith(b"]],") for block in blocks[1:-1])
    assert blocks[-1].endswith(b"]]}")
    sidecar = json.loads(b"".join(blocks))
    assert len(sidecar) == 21 and sidecar["20"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]


@pytest.mark.parametrize("emit", [True, False], ids=["file", "stdout"])
def test_sample_stream_spans_blocks(monkeypatch, tmp_path, capsys, emit):
    table = _table_file(tmp_path, "t.csv", "2,0,1\n0,2,1\n1,1,1\n")
    write, written = cli._write_output, []

    def spy(blocks, out):
        write((written.append(block) or block for block in blocks), out)

    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    monkeypatch.setattr(cli, "_write_output", spy)
    out = tmp_path / "s.jsonl"
    argv = ["sample", "--table", str(table), "--steps", "100", "--seed", "3"]
    assert main(argv + (["--emit", str(out)] if emit else [])) == 0
    stream = out.read_text() if emit else capsys.readouterr().out
    _, samples = run_walk(io.load_table(table), WalkConfig(steps=100, seed=3))
    columns = list(np.array(samples).T)
    assert stream == _format_rows_reference(['{"rows":[[', *io.json_row_separators(3), "]]}\n"],
                                            columns)
    assert [block.count(b"\n") for block in written] == [7] * 14 + [2]
    assert all(block.endswith(b"]]}\n") for block in written)


def test_parse_constraints_inline_and_file(tmp_path):
    assert io.parse_constraints("[[1, 2], [2, 1]]") == [(1, 2), (2, 1)]
    path = tmp_path / "c.json"
    path.write_text("[[3, 3]]")
    assert io.parse_constraints(str(path)) == [(3, 3)]


@pytest.mark.parametrize("value", ['{"a": 1}', ' {"a":1}', "{}"])
def test_inline_constraint_object_is_refused_as_json(tmp_path, capsys, value):
    # an object used to be read as a file path: "cannot read ...: No such file"
    with pytest.raises(FiberGraphsError, match="must be a JSON array"):
        io.parse_constraints(value)
    table = tmp_path / "t.csv"
    table.write_text("1,1\n1,1\n")
    assert main(["decompose", "--table", str(table), "--constraints", value]) == 1
    err = capsys.readouterr().err
    assert err == "error: constraints must be a JSON array of [i, j] pairs\n"


def test_json_inputs_reject_non_integers(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"rows": [[1, 0], [0, true]]}')
    with pytest.raises(FiberGraphsError, match="row 2, column 2"):
        io.load_table(path)
    with pytest.raises(FiberGraphsError, match="constraint 2 row"):
        io.parse_constraints('[[1, 2], ["1.5", 1]]')
    with pytest.raises(FiberGraphsError, match="constraint 1 column"):
        io.parse_constraints("[[1, false]]")


# parse_table_json and load_rows read a table's JSON object and bare JSON array;
# io.load_table reads both now
@pytest.mark.parametrize("reader, label", [
    ("parse_table_json", "JSON"),
    ("load_rows", "JSON"),
    ("parse_constraints", "constraint JSON"),
])
def test_json_inputs_report_malformed_json(tmp_path, reader, label):
    text = '{"rows": [[1, 2],' if reader == "parse_table_json" else "[[1, 2],"
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    message = f"invalid {label}: {decode.value}"
    with pytest.raises(FiberGraphsError, match=f"^{re.escape(message)}$"):
        if reader == "parse_constraints":
            io.parse_constraints(text)
        else:
            io.load_table(_table_file(tmp_path, "bad.json", text))


@pytest.mark.parametrize("text, message", [
    # Python 3.10 bounds the digits of an int only from its 3.10.7 release on
    pytest.param("[[" + "1" * 5000 + "]]", "Exceeds the limit", id="too-many-digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no digit limit")),
    pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="nested-too-deep"),
])
def test_json_past_the_decoders_limits_is_a_data_error(tmp_path, capsys, text, message):
    # json.loads raises ValueError and RecursionError here, not JSONDecodeError
    path = _table_file(tmp_path, "t.json", text)
    assert main(["decompose", "--table", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON: {message}") and err.count("\n") == 1
    with pytest.raises(FiberGraphsError, match=f"^invalid constraint JSON: {message}"):
        io.parse_constraints(text)


# --- CLI ---

def test_cli_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "3", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "21 tables"
    assert main(["enumerate", "--n", "3", "--r", "3"]) == 0
    assert capsys.readouterr().out.strip() == "55 tables"
    assert main(["enumerate", "--n", "3", "--r", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6 tables"


def test_outputs_of_an_object_dtype_fiber(tmp_path):
    # r >= 2**64 does not fit a fixed-width entry, so the fiber holds Python ints
    fiber = enumerate_fiber(1, 2**64)
    assert fiber.cells.dtype == object
    assert _text(io.fiber_to_jsonl(fiber)) == '{"id":0,"rows":[[18446744073709551616]]}\n'
    assert _text(io.fiber_to_csv(fiber)) == "id,r1c1\n0,18446744073709551616\n"
    assert _text(vertex_map_json(build_graph(fiber))) == '{"0":[[18446744073709551616]]}'


def test_cli_enumerate_writes_fiber(tmp_path, capsys):
    out = tmp_path / "fiber.jsonl"
    assert main(["enumerate", "--n", "2", "--r", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 3


def test_cli_enumerate_csv_format(tmp_path, capsys):
    out = tmp_path / "fiber.csv"
    assert main([
        "enumerate", "--n", "2", "--r", "2", "--format", "csv", "--out", str(out)
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "id,r1c1,r1c2,r2c1,r2c2"
    assert len(lines) == 4


def test_cli_enumerate_cap_exit_code(capsys):
    assert main(["enumerate", "--n", "3", "--r", "3", "--cap", "10"]) == 3
    # a cap below 1 is a usage error, not a tripped guard
    for command in ("enumerate", "graph", "verify"):
        for cap in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--n", "2", "--r", "1", "--cap", cap])
            assert exc.value.code == 2
            assert f"--cap must be at least 1, got {cap}" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3"])
    assert exc.value.code == 2


def test_cli_graph_edge_list(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["graph", "--n", "2", "--r", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "3 vertices, 2 edges" in captured.err
    assert out.read_text() == "0 1\n1 2\n"
    sidecar = json.loads((tmp_path / "g.edges.vertices.json").read_text())
    assert sidecar["1"] == [[1, 1], [1, 1]]


def test_cli_graph_oriented_dot(capsys):
    assert main(["graph", "--n", "2", "--r", "2", "--format", "dot", "--oriented"]) == 0
    captured = capsys.readouterr()
    assert "digraph" in captured.out


def test_cli_verify_pass_and_fail_exit(capsys, tmp_path):
    out = tmp_path / "suite.json"
    assert main(["verify", "--n", "3", "--r", "3", "--out", str(out)]) == 0
    suite = json.loads(out.read_text())
    assert suite["pass"] is True
    assert {r["name"] for r in suite["results"]} == {
        "degrees", "connmax", "maxdeg", "commonchoices", "connectivity",
        "liu", "diameter", "sink", "dag", "konig", "decomp-constrained",
    }
    for result in suite["results"]:
        assert result["pass"] is True


def test_cli_verify_informational_below_hypothesis(capsys):
    assert main(["verify", "--n", "3", "--r", "2", "--checks", "connectivity,liu"]) == 0
    suite = json.loads(capsys.readouterr().out)
    for result in suite["results"]:
        assert result["hypothesis_met"] is False
        assert result["pass"] is True
        assert result["expected"] is None


@pytest.mark.parametrize("n, r", [(1, 2), (1, 0), (3, 0)])
def test_cli_verify_outside_hypotheses_reports(capsys, n, r):
    assert main(["verify", "--n", str(n), "--r", str(r)]) == 0
    suite = json.loads(capsys.readouterr().out)
    assert suite["pass"] is True
    assert [res["name"] for res in suite["results"]] == [
        "degrees", "connmax", "maxdeg", "commonchoices", "connectivity",
        "liu", "diameter", "sink", "dag", "konig", "decomp-constrained",
    ]
    for result in suite["results"]:
        assert result["hypothesis_met"] is False
        assert result["pass"] is True
        assert "n >= 2 and r >= 1" in result["reason"]


def test_cli_verify_unknown_check(capsys):
    assert main(["verify", "--n", "3", "--r", "2", "--checks", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown check 'nope'; valid: degrees, connmax, maxdeg, commonchoices, "
        "connectivity, liu, diameter, sink, dag, konig, decomp-constrained\n")


def test_cli_verify_expected_from_formulas(capsys):
    # expected values must track (n, r), not be hard-coded
    assert main(["verify", "--n", "2", "--r", "3", "--checks", "diameter,connectivity"]) == 0
    suite = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in suite["results"]}
    assert by_name["diameter"]["expected"]["diameter"] == 3
    assert by_name["connectivity"]["expected"]["kappa"] == 1


def test_cli_decompose(tmp_path, capsys):
    table = tmp_path / "j3.json"
    table.write_text('{"n": 3, "r": 3, "rows": [[1,1,1],[1,1,1],[1,1,1]]}')
    assert main(["decompose", "--table", str(table)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constraints_satisfied"] is True
    assert len(payload["parts"]) == 3
    totals = [
        [sum(part[i][j] for part in payload["parts"]) for j in range(3)]
        for i in range(3)
    ]
    assert totals == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


def test_cli_decompose_constrained(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("1,1\n1,1\n")
    assert main(["decompose", "--table", str(table), "--constraints", "[[1,2],[2,2]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parts"][0] == [[0, 1], [1, 0]]
    assert payload["constraints_satisfied"] is True


@pytest.mark.parametrize("constraints", [[], ["--constraints", "[]"]])
def test_cli_decompose_zero_table_is_a_data_error(tmp_path, capsys, constraints):
    # a margin-0 table has no permutation parts to list
    table = tmp_path / "z.csv"
    table.write_text("0,0\n0,0\n")
    assert main(["decompose", "--table", str(table), *constraints]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


MALFORMED_TABLE_JSON = {
    "n-string": '{"n": "2", "r": 2, "rows": [[1, 1], [1, 1]]}',
    "n-float": '{"n": 2.0, "r": 2, "rows": [[1, 1], [1, 1]]}',
    "rows-number": '{"n": 2, "r": 2, "rows": 5}',
    "row-number": '{"n": 2, "r": 2, "rows": [[1, 1], 5]}',
    "r-bool": '{"n": 2, "r": true, "rows": [[1, 0], [0, 1]]}',
    "r-float": '{"n": 2, "r": 2.0, "rows": [[1, 1], [1, 1]]}',
    "n-and-r-misfit": '{"n": 3, "r": 7, "rows": [[1, 2], [2, 1]]}',
    "n-misfit": '{"n": 3, "rows": [[1, 2], [2, 1]]}',
    "r-misfit": '{"r": 4, "rows": [[1, 2], [2, 1]]}',
}


@pytest.mark.parametrize("command", ["decompose", "sample", "test"])
@pytest.mark.parametrize("payload", sorted(MALFORMED_TABLE_JSON))
def test_cli_malformed_table_json_is_a_data_error(tmp_path, capsys, command, payload):
    # these used to end in a TypeError traceback or, for r, run with the margin True;
    # test read only the rows, so it printed a p-value for all but the two bad-rows payloads
    table = tmp_path / "t.json"
    table.write_text(MALFORMED_TABLE_JSON[payload])
    argv = [command, "--table", str(table)]
    if command != "decompose":
        argv += ["--steps", "3", "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(FiberGraphsError) as exc:
        io.load_table(table)
    assert err == f"error: {exc.value}\n"


def test_cli_sample_deterministic(tmp_path, capsys):
    table = tmp_path / "d.csv"
    table.write_text("2,0,0\n0,2,0\n0,0,2\n")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["sample", "--table", str(table), "--steps", "500", "--seed", "7"]
    assert main(args + ["--emit", str(a)]) == 0
    assert main(args + ["--emit", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 500


def test_cli_test_outputs_result(tmp_path, capsys):
    table = tmp_path / "d.csv"
    table.write_text("2,0,0\n0,2,0\n0,0,2\n")
    assert main([
        "test", "--table", str(table), "--steps", "20000",
        "--seed", "3", "--thin", "4",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == "chisq"
    assert payload["observed_statistic"] == 12.0
    assert payload["samples_used"] == 5000
    assert 0.0 <= payload["p_value_estimate"] <= 1.0


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("steps", ["0", "1"])
def test_cli_test_writes_null_for_undefined_estimates(tmp_path, capsys, steps):
    # with no sample the p-value is undefined, and with one the standard error
    table = tmp_path / "d.csv"
    table.write_text("2,0\n0,2\n")
    assert main(["test", "--table", str(table), "--steps", steps, "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["samples_used"] == int(steps)
    assert payload["standard_error"] is None
    assert (payload["p_value_estimate"] is None) == (steps == "0")


def test_cli_test_margin_mismatch(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("1,0\n0,2\n")
    assert main(["test", "--table", str(table), "--steps", "10", "--seed", "1"]) == 1


def test_cli_test_zero_margin_is_a_data_error(tmp_path, capsys):
    # every expected count is 0, so the statistic is undefined
    table = tmp_path / "z.csv"
    table.write_text("0,0\n0,0\n")
    assert main(["test", "--table", str(table), "--steps", "3", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_test_rejects_fractional_table(tmp_path, capsys):
    # int() used to truncate this to the identity table and exit 0
    table = tmp_path / "t.json"
    table.write_text("[[1.7, 0.3], [0.3, 1.7]]")
    assert main(["test", "--table", str(table), "--steps", "10", "--seed", "1"]) == 1
    assert "row 1, column 1 is not an integer: 1.7" in capsys.readouterr().err


def _malformed_json_message():
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads("[[1, 2],")
    return f"invalid JSON: {decode.value}"


# each table file, then the rows every command reads from it or the error line
# every command prints for it
TABLE_FILES = {
    "csv": ("t.csv", "1,2\n2,1\n", [[1, 2], [2, 1]]),
    "json-array": ("t.json", "[[1, 2], [2, 1]]", [[1, 2], [2, 1]]),
    "json-rows": ("t.json", '{"rows": [[1, 2], [2, 1]]}', [[1, 2], [2, 1]]),
    "json-n": ("t.json", '{"n": 2, "rows": [[1, 2], [2, 1]]}', [[1, 2], [2, 1]]),
    "json-n-r": ("t.json", '{"n": 2, "r": 3, "rows": [[1, 2], [2, 1]]}', [[1, 2], [2, 1]]),
    "csv-unequal-margins": ("t.csv", "3,0\n1,3\n",
                            "margins are not all equal: row sums [3, 4], column sums [4, 3]"),
    "csv-ragged": ("t.csv", "1,2,0\n2,1\n", "row 1 has 3 entries, expected 2 (the number of rows)"),
    "json-empty": ("t.json", "[]", "table dimension must be >= 1, got 0"),
    "json-empty-row": ("t.json", "[[]]", "row 1 has 0 entries, expected 1 (the number of rows)"),
    "json-n-misfit": ("t.json", '{"n": 3, "rows": [[1, 2], [2, 1]]}',
                      "expected shape 3x3"),
    "json-r-misfit": ("t.json", '{"r": 4, "rows": [[1, 2], [2, 1]]}',
                      "row 1 sums to 3, expected 4"),
    "json-n-r-misfit": ("t.json", '{"n": 3, "r": 7, "rows": [[1, 2], [2, 1]]}',
                        "expected shape 3x3"),
    "json-malformed": ("t.json", "[[1, 2],", _malformed_json_message()),
    "csv-empty": ("t.csv", "\n", "CSV input contains no rows"),
}


@pytest.mark.parametrize("kind", list(TABLE_FILES))
def test_every_command_reads_a_table_file_alike(tmp_path, capsys, monkeypatch, kind):
    # sample and decompose used to refuse a bare array, which test took, and
    # the three gave different lines for unequal margins and ragged rows
    name, text, expected = TABLE_FILES[kind]
    path = _table_file(tmp_path, name, text)
    load, read = io.load_table, []

    def load_table(path):
        read.append(load(path))
        return read[-1]

    monkeypatch.setattr(io, "load_table", load_table)
    outcomes = {}
    for command in TABLE_COMMANDS:
        outcomes[command] = main(_table_argv(command, path)), capsys.readouterr()
    if isinstance(expected, str):
        for code, captured in outcomes.values():
            assert (code, captured.err) == (1, f"error: {expected}\n")
        return
    assert [code for code, _ in outcomes.values()] == [0, 0, 0]
    assert [t.rows() for t in read] == [expected] * 3
    parts = json.loads(outcomes["decompose"][1].out)["parts"]
    assert np.sum(parts, axis=0).tolist() == expected


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_decompose_refuses_a_margin_past_the_cap(tmp_path, capsys, suffix):
    # one part and one round per unit of margin: this used to end in an OverflowError traceback
    big = 2**70
    rows = [[big, 0], [0, big]]
    text = json.dumps(rows) if suffix == ".json" else f"{big},0\n0,{big}\n"
    path = _table_file(tmp_path, "t" + suffix, text)
    assert main(["decompose", "--table", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: decomposition into {big} parts exceeded the configured cap of 10000000\n")


@pytest.mark.parametrize("command", ["test", "sample"])
def test_cli_refuses_an_unknown_table_extension(tmp_path, capsys, command):
    # test used to read every extension but .json as CSV
    table = tmp_path / "t.tsv"
    table.write_text("1,2\n2,1\n")
    argv = [command, "--table", str(table), "--steps", "10", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: unrecognized table extension: '.tsv'\n"
    with pytest.raises(FiberGraphsError, match="unrecognized table extension: '.tsv'"):
        io.load_table(table)


@pytest.mark.parametrize("command", ["test", "sample"])
def test_cli_missing_table_file(tmp_path, capsys, command):
    missing = tmp_path / "absent.json"
    argv = [command, "--table", str(missing), "--steps", "10", "--seed", "1"]
    assert main(argv) == 1
    assert str(missing) in capsys.readouterr().err


def test_table_file_that_is_not_text_is_a_data_error(tmp_path, capsys):
    # read_text used to raise UnicodeDecodeError, which ended in a traceback
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xff,1\n1,1\n")
    for command in TABLE_COMMANDS:
        assert main(_table_argv(command, path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {str(path)!r}: ") and err.count("\n") == 1
        assert "can't decode byte 0xff in position 0" in err


def test_cli_rejects_options_the_subcommand_ignores(tmp_path, capsys):
    table = tmp_path / "d.csv"
    table.write_text("1,0\n0,1\n")
    argv = ["sample", "--table", str(table), "--steps", "3", "--seed", "1"]
    out = tmp_path / "x.jsonl"
    for bad in (
        argv + ["--workers", "7", "--cap", "3"],
        argv + ["--out", str(out)],
        ["verify", "--n", "2", "--r", "1", "--workers", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert main(argv) == 0
    assert not out.exists()


def test_cli_hemmecke(capsys):
    assert main(["hemmecke", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "k": 2,
        "vertices": 8,
        "min_degree": 2,
        "kappa": 1,
        "conjecture_holds": False,
        "articulation_vertices": [0, 4],
    }


def test_cli_hemmecke_guard(capsys):
    assert main(["hemmecke", "--k", "13"]) == 3
    for k in ("0", "-1"):
        assert main(["hemmecke", "--k", k]) == 2
        assert "1 <= k <= 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "sample"])
@pytest.mark.parametrize("flags, message", [
    (["--thin", "0"], "thinning must be >= 1, got 0"),
    (["--steps", "-1"], "steps must be >= 0, got -1"),
    (["--burn-in", "-1"], "burn_in must be >= 0, got -1"),
    (["--burn-in", "10"], "burn_in must be smaller than steps"),
    (["--thin", "6", "--burn-in", "5"], "thinning cannot exceed the post-burn-in step count"),
    (["--seed", "-1"], "seed must fit in an unsigned 64-bit integer"),
])
def test_cli_walk_flags_out_of_range_are_usage_errors(tmp_path, capsys, command, flags, message):
    table = tmp_path / "t.csv"
    table.write_text("2,0\n0,2\n")
    walk = {"--steps": "10", "--seed": "1", **dict(zip(flags[::2], flags[1::2]))}
    argv = [command, "--table", str(table), *(x for pair in walk.items() for x in pair)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_empty_walk_with_a_burn_in(tmp_path, capsys):
    # --steps 0 accepts any --burn-in and runs no step, burn-in included
    table = tmp_path / "t.csv"
    table.write_text("2,0\n0,2\n")
    walk = ["--table", str(table), "--steps", "0", "--burn-in", "5", "--seed", "1"]
    assert main(["sample", *walk]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(err)
    assert out == ""
    assert (summary["steps"], summary["accepted"], summary["samples"]) == (0, 0, 0)
    assert main(["test", *walk]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples_used"] == 0 and report["p_value_estimate"] is None


_WRITERS = {
    "enumerate": ["enumerate", "--n", "3", "--r", "2", "--format", "csv", "--out"],
    "graph": ["graph", "--n", "2", "--r", "2", "--out"],
    "verify": ["verify", "--n", "2", "--r", "1", "--checks", "degrees", "--out"],
    "decompose": ["decompose", "--table", "{table}", "--out"],
    "sample": ["sample", "--table", "{table}", "--steps", "3", "--seed", "1", "--emit"],
    "test": ["test", "--table", "{table}", "--steps", "3", "--seed", "1", "--out"],
    "hemmecke": ["hemmecke", "--k", "2", "--out"],
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_cli_unwritable_output_is_an_error_line(tmp_path, capsys, command):
    table = tmp_path / "t.csv"
    table.write_text("2,1\n1,2\n")
    target = str(tmp_path / "missing" / "x.out")
    argv = [arg.format(table=table) for arg in _WRITERS[command]] + [target]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {target!r}: No such file or directory\n"


def test_cli_graph_unwritable_vertex_map(tmp_path, capsys):
    out = tmp_path / "g.txt"
    (tmp_path / "g.txt.vertices.json").mkdir()
    assert main(["graph", "--n", "2", "--r", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {str(out) + '.vertices.json'!r}: Is a directory\n"
    )


_CLI = [sys.executable, "-m", "fibergraphs.cli"]
_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(io.__file__))}


_FULL = "/dev/full"  # every write to it fails with ENOSPC
_NO_SPACE = f"error: cannot write {_FULL!r}: No space left on device\n"


@pytest.mark.skipif(not os.path.exists(_FULL), reason=f"no {_FULL}")
@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "4", "--r", "3", "--out", _FULL],
    ["sample", "--table", "{table}", "--steps", "3000", "--seed", "1", "--emit", _FULL],
], ids=["enumerate", "sample"])
def test_a_full_device_is_an_error_line(tmp_path, argv):
    table = _table_file(tmp_path, "t.csv", "1,1,0\n0,1,1\n1,0,1\n")
    argv = [arg.format(table=table) for arg in argv]
    proc = subprocess.run(_CLI + argv, env=_ENV, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, _NO_SPACE)


@pytest.mark.skipif(not os.path.exists(_FULL), reason=f"no {_FULL}")
@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--r", "5", "--out"],  # 7-row blocks fill the buffer mid-stream
    ["enumerate", "--n", "2", "--r", "1", "--out"],  # fits the buffer: the close fails
    ["graph", "--n", "3", "--r", "3", "--format", "dot", "--out"],
    ["verify", "--n", "2", "--r", "1", "--checks", "degrees", "--out"],
], ids=["mid-stream", "at-close", "dot", "json"])
def test_a_full_device_fails_any_write_or_the_close(monkeypatch, capsys, argv):
    monkeypatch.setattr(io, "FORMAT_BLOCK", 7)
    assert main(argv + [_FULL]) == 1
    assert capsys.readouterr().err == _NO_SPACE


# stdout is block-buffered, as it is by default, so a failed write leaves bytes
# behind for the interpreter's flush at exit
_BUFFERED_ENV = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
@pytest.mark.parametrize("argv", [
    ["graph", "--n", "4", "--r", "3"],  # an export of 200 kB
    ["verify", "--n", "3", "--r", "2"],
    ["enumerate", "--n", "3", "--r", "2"],  # its one line of count
], ids=lambda argv: argv[0])
def test_a_failed_write_to_stdout_is_an_error_line(argv, sink):
    if sink == "closed-pipe":
        read, stdout = os.pipe()
        os.close(read)  # no reader: every write fails with EPIPE
        reason = "Broken pipe"
    elif os.path.exists(_FULL):
        stdout = os.open(_FULL, os.O_WRONLY)
        reason = "No space left on device"
    else:
        pytest.skip(f"no {_FULL}")
    try:
        proc = subprocess.run(_CLI + argv, env=_BUFFERED_ENV, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(stdout)
    # no traceback, and no "Exception ignored" from the flush at exit
    assert (proc.returncode, proc.stderr) == (1, f"error: cannot write to standard output: {reason}\n")


def test_a_closed_stdout_is_no_error(tmp_path):
    # started with descriptor 1 closed, the process has no sys.stdout: the count line,
    # like print, is dropped
    out = tmp_path / "x.jsonl"
    argv = _CLI + ["enumerate", "--n", "3", "--r", "2", "--out", str(out)]
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=_BUFFERED_ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes().count(b"\n") == 21


def test_main_freezes_nothing():
    frozen = gc.get_freeze_count()
    assert main(["enumerate", "--n", "3", "--r", "2"]) == 0
    assert gc.get_freeze_count() == frozen


def test_the_entry_point_freezes_the_heap_before_main():
    code = ("import gc, sys\nfrom fibergraphs import cli\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 5\nsys.exit(cli.run())")
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 5, proc.stderr  # run returns main's exit code
    assert int(proc.stdout) > 1000  # numpy alone leaves thousands of tracked objects


# A child's peak RSS counts what its parent held when it was forked, so the command
# is started from a fresh interpreter, not from this one.
_PEAK_MB = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss / 1024)  # ru_maxrss is in kilobytes on Linux
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_an_export_is_written_as_it_is_rendered(tmp_path):
    # G(5,3)'s 12.6 MB of JSONL once sat in memory three times over, 27 MB above the
    # same run without --out; written block by block it adds about one block
    peaks = []
    for out in ([], ["--out", str(tmp_path / "x.jsonl")]):
        argv = _CLI + ["enumerate", "--n", "5", "--r", "3", *out]
        proc = subprocess.run([sys.executable, "-c", _PEAK_MB, *argv], env=_ENV,
                              capture_output=True, text=True, timeout=120, check=True)
        code, peak = proc.stdout.split()
        assert code == "0", proc.stderr
        peaks.append(float(peak))
    assert peaks[1] - peaks[0] < 10, peaks
