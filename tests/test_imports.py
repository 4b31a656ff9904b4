"""The package and each subcommand load only the modules they run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibergraphs

# the public names of the package, each resolved from its module on first use
EXPORTS = """
    ChainState ConnectivityReport ContingencyTable CsrGraph DetourPathReport ExactTestResult
    Fiber FiberGraph LiuCheckResult MatchingDecomposition MaxDegreeBound
    OrientedFiberGraph Target VisitCounter WalkConfig advance apply_move
    articulation_vertices as_equal_margin_table build_graph chi_square_statistic count_fiber
    decompose detour_paths diameter diameter_witness_pair
    distance_between distance_two_pairs enumerate_fiber exact_test
    export_graph find_sinks hemmecke_graph is_acyclic is_connected liu_check
    local_connectivity max_degree_value move_cells orient run_walk scaled_permutation
    valid_moves validate_table vertex_connectivity
""".split()

HEAVY = {"analysis", "graphs", "decomposition", "sampler"}


def _all_modules(code: str) -> set[str]:
    """Every module a fresh interpreter has loaded after running code."""
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(fibergraphs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_modules(code: str) -> set[str]:
    """The fibergraphs modules a fresh interpreter has loaded after running code."""
    return {m.split(".", 1)[1] for m in _all_modules(code) if m.startswith("fibergraphs.")}


def test_importing_the_package_loads_no_module():
    assert _loaded_modules("import fibergraphs") == set()


def _cli(*argv: str) -> str:
    return f"from fibergraphs.cli import main; assert main({list(argv)!r}) == 0"


# each command, with {tmp} its scratch directory, and the heavy modules it loads
COMMANDS = [
    pytest.param(["enumerate", "--n", "3", "--r", "2"], set(), id="enumerate"),
    pytest.param(["test", "--table", "{tmp}/t.csv", "--steps", "50", "--seed", "1",
                  "--out", "{tmp}/p.json"], {"sampler"}, id="test"),
    pytest.param(["decompose", "--table", "{tmp}/t.csv", "--constraints", "[[1,1]]",
                  "--out", "{tmp}/d.json"], {"decomposition"}, id="decompose"),
    pytest.param(["verify", "--n", "3", "--r", "2", "--out", "{tmp}/v.json"],
                 HEAVY - {"sampler"}, id="verify"),
    pytest.param(["verify", "--n", "3", "--r", "2", "--checks", "konig", "--out", "{tmp}/v.json"],
                 {"graphs", "decomposition"}, id="verify-konig"),
    pytest.param(["verify", "--n", "3", "--r", "2", "--checks", "decomp-constrained",
                  "--out", "{tmp}/v.json"], {"decomposition"}, id="verify-decomp-constrained"),
]


@pytest.mark.parametrize("argv,heavy", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, heavy):
    (tmp_path / "t.csv").write_text("3,1,0\n0,2,2\n1,1,2\n")
    code = _cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert _loaded_modules(code) & HEAVY == heavy


def test_the_test_command_loads_no_fractions(tmp_path):
    # the chi-square statistic is one integer division, not a Fraction sum
    (tmp_path / "t.csv").write_text("3,1,0\n0,2,2\n1,1,2\n")
    code = _cli("test", "--table", f"{tmp_path}/t.csv", "--steps", "50", "--seed", "1",
                "--out", f"{tmp_path}/p.json")
    assert "fractions" not in _all_modules(code)


def test_every_public_name_resolves_to_its_module_object():
    namespace: dict = {}
    exec(f"from fibergraphs import {', '.join(EXPORTS)}", namespace)
    for name in EXPORTS:
        value = namespace[name]
        assert value.__module__.startswith("fibergraphs."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_public_names_are_exactly_the_exports():
    assert sorted(fibergraphs.__all__) == sorted(EXPORTS)


def test_dir_lists_every_export_and_module():
    listed = dir(fibergraphs)
    modules = {"analysis", "cli", "decomposition", "enumeration", "errors", "graphs", "io",
               "sampler", "tables"}
    assert set(EXPORTS) | modules <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fibergraphs.no_such_name
    with pytest.raises(ImportError):
        exec("from fibergraphs import no_such_name", {})
