"""Each error's type, message, exit code and stderr line, pinned.

The package raises one type per non-zero exit code: ``FiberGraphsError``
(1), ``UsageError`` (2) and ``SizeLimitExceededError`` (3), and ``cli.main``
alone maps them.  Each row below is a representative input of one error: the
call that raises it, the exact type and message, and, where the CLI reaches
the input, the argv whose exit code and single stderr line ``main`` must
give.  ``{tmp}`` in an argv is a directory holding ``FILES``.
"""

from __future__ import annotations

import re

import pytest

from fibergraphs import cli
from fibergraphs.analysis import detour_paths, diameter, hemmecke_graph, local_connectivity
from fibergraphs.decomposition import decompose
from fibergraphs.enumeration import enumerate_fiber
from fibergraphs.errors import FiberGraphsError, SizeLimitExceededError, UsageError
from fibergraphs.graphs import CsrGraph, build_graph, export_graph
from fibergraphs.tables import apply_move, as_equal_margin_table, validate_table

FILES = {
    "negative.csv": "2,-1\n-1,2\n",
    "row.json": '{"r": 2, "rows": [[1, 0], [0, 1]]}',
    "column.json": '{"r": 2, "rows": [[2, 0], [2, 0]]}',
    "margins.csv": "1,2\n2,2\n",
    "identity.csv": "1,0\n0,1\n",
    "zero.csv": "0,0\n0,0\n",
}
IDENTITY = validate_table(2, 1, [[1, 0], [0, 1]])
VALID_CHECKS = ("degrees, connmax, maxdeg, commonchoices, connectivity, liu, diameter, sink, "
                "dag, konig, decomp-constrained")


ERRORS = [
    pytest.param(lambda: validate_table(2, 1, [[2, -1], [-1, 2]]), FiberGraphsError,
                 "negative entry -1 at row 1, column 2",
                 ["decompose", "--table", "{tmp}/negative.csv"], 1, id="negative-entry"),
    pytest.param(lambda: validate_table(2, 2, [[1, 0], [0, 1]]), FiberGraphsError,
                 "row 1 sums to 1, expected 2",
                 ["decompose", "--table", "{tmp}/row.json"], 1, id="row-sum"),
    pytest.param(lambda: validate_table(2, 2, [[2, 0], [2, 0]]), FiberGraphsError,
                 "column 1 sums to 4, expected 2",
                 ["sample", "--table", "{tmp}/column.json", "--steps", "3", "--seed", "1"], 1,
                 id="column-sum"),
    pytest.param(lambda: as_equal_margin_table([[1, 2], [2, 2]]), FiberGraphsError,
                 "margins are not all equal: row sums [3, 4], column sums [3, 4]",
                 ["test", "--table", "{tmp}/margins.csv", "--steps", "3", "--seed", "1"], 1,
                 id="unequal-margins"),
    pytest.param(lambda: apply_move(IDENTITY, 1), FiberGraphsError,
                 "move 1 subtracts from a zero entry of the table", None, None,
                 id="invalid-move"),
    pytest.param(lambda: export_graph(build_graph(enumerate_fiber(2, 2)), "gml"),
                 FiberGraphsError, "unknown graph format 'gml'", None, None,
                 id="unknown-graph-format"),
    pytest.param(lambda: decompose(IDENTITY, [(1, 2)]), FiberGraphsError,
                 "cell (1, 2) holds 0 but the constraints require 1",
                 ["decompose", "--table", "{tmp}/identity.csv", "--constraints", "[[1, 2]]"], 1,
                 id="infeasible-constraint"),
    pytest.param(lambda: decompose(validate_table(2, 0, [[0, 0], [0, 0]])), FiberGraphsError,
                 "a table with margin 0 has no permutation parts",
                 ["decompose", "--table", "{tmp}/zero.csv"], 1, id="no-perfect-matching"),
    pytest.param(lambda: detour_paths(build_graph(enumerate_fiber(3, 2)), 0, 0),
                 FiberGraphsError, "vertices 0 and 0 are not at distance 2", None, None,
                 id="not-distance-two"),
    pytest.param(lambda: detour_paths(hemmecke_graph(2)[0], 0, 3), FiberGraphsError,
                 "detour paths need a fiber graph's move labels", None, None,
                 id="detours-of-a-plain-graph"),
    pytest.param(lambda: local_connectivity(build_graph(enumerate_fiber(2, 2)), 0, 1),
                 FiberGraphsError, "vertices 0 and 1 are adjacent; the split-network "
                 "reduction does not define their local connectivity", None, None,
                 id="adjacent-pair"),
    pytest.param(lambda: diameter(CsrGraph.from_rows(((1,), (0,), ()))), FiberGraphsError,
                 "vertex 2 unreachable from 0", None, None, id="disconnected-diameter"),
    pytest.param(lambda: enumerate_fiber(0, 1), FiberGraphsError, "need n >= 1, got 0",
                 ["enumerate", "--n", "0", "--r", "1"], 1, id="bad-dimension"),
    pytest.param(None, SizeLimitExceededError, "hemmecke k=13 exceeded the configured cap of 12",
                 ["hemmecke", "--k", "13"], 3, id="hemmecke-k-past-the-cap"),
    pytest.param(None, UsageError, "hemmecke needs 1 <= k <= 12, got k=0",
                 ["hemmecke", "--k", "0"], 2, id="hemmecke-k-below-1"),
    pytest.param(None, UsageError, f"unknown check 'nope'; valid: {VALID_CHECKS}",
                 ["verify", "--n", "3", "--r", "2", "--checks", "nope"], 2, id="unknown-check"),
]


@pytest.mark.parametrize("call, kind, message, argv, code", ERRORS)
def test_each_error_keeps_its_message_and_exit_code(tmp_path, capsys, call, kind, message,
                                                    argv, code):
    calls = [] if call is None else [call]
    if argv is not None:
        for name, text in FILES.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # the subcommand's handler raises; main alone turns the type into the exit code
        args = cli.build_parser().parse_args(argv)
        calls.append(lambda: args.func(args))
    for raising in calls:
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as exc:
            raising()
        assert type(exc.value) is kind
