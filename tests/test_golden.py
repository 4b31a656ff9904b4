"""Byte-level regression of the CLI's file outputs on every G(n <= 4, r <= 3),
of seeded sample streams and exact-test reports, of detour-path families, and
of the ``verify --long`` reports.

Each digest is the sha256 of one output kind written for every instance in
``INSTANCES`` order, as version 0.1.0 of the package wrote them.  Any change
to vertex ids, ordering, orientation or formatting shows up here.  The walk
and detour digests were taken from the move-object implementations of the
sampler and of ``detour_paths``, so the array-indexed ones must reproduce
their random draws, sample streams and path families exactly.  The verify
digest was taken from the per-table König sweep and the Python loops over
distance-2 pairs, before they ran on arrays and vertex orbits.  The
huge-margin walk digests were taken from the kernel that drew through
numpy's ``Generator`` methods, before it decoded raw PCG64 words itself.
The verify-path and decomposition digests were taken from the verify code
that wrote each result's dict by hand and from the two separate loops of
``decompose`` and ``decompose_constrained``.  The fiber-array digests were
taken from the recursive enumeration that listed every cell in a Python list,
before the fiber was built as an array frontier.  The G(5,3) export digests
were taken from the writers that formatted one Python line per table, before
rows were rendered as digit arrays, block by block.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest

from fibergraphs.analysis import detour_paths, distance_two_pairs
from fibergraphs.cli import main
from fibergraphs.decomposition import decompose, decompose_tables
from fibergraphs.enumeration import count_fiber, enumerate_fiber
from fibergraphs.graphs import DOT_VERTEX_LIMIT, build_graph
from fibergraphs.sampler import ChainState, WalkConfig, advance
from fibergraphs.tables import move_cells, validate_table

from oracles import decomposition_holds, move_rectangle

INSTANCES = [(n, r) for n in range(1, 5) for r in range(4)]

# kind -> (subcommand and its flags, output file suffix, sha256)
GOLDEN = {
    "enumerate-jsonl": (
        ["enumerate"], "",
        "c8feb1bd6a3c9efc572fccd7f73ef243b3fe803ff77415301171545411a18781",
    ),
    "enumerate-csv": (
        ["enumerate", "--format", "csv"], "",
        "27e39ecf0a91561fcb64fac8dc6cb6764ca2492032b1c386dd25e13313842fc7",
    ),
    "edge-list": (
        ["graph"], "",
        "01c006fc226ba09307f897e8a946665e958d4b5da0df21ad91846a3acc10c4d9",
    ),
    "edge-list-oriented": (
        ["graph", "--oriented"], "",
        "bc1406af72dd9d84dcfa2c0d9e4e9e3dd6a0c4c10966b60b4c79c9ec8bc13380",
    ),
    "vertex-map": (
        ["graph"], ".vertices.json",
        "362de0d00f9760d9199c04103de67b124ecc45759a9148eb7d9219b1a6057c61",
    ),
    "dot": (
        ["graph", "--format", "dot"], "",
        "0b3c4a90eedd66ff8e63d7dff187f7d48988753e2a3d2c8446d5ee0f0a113056",
    ),
    "dot-oriented": (
        ["graph", "--format", "dot", "--oriented"], "",
        "e8fc11efb225bc19a478ba1f42dd729384861389cf293264661d036f16363082",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_cli_output_bytes_unchanged(kind, tmp_path, capsys):
    command, suffix, expected = GOLDEN[kind]
    digest = hashlib.sha256()
    out = tmp_path / "out"
    for n, r in INSTANCES:
        if kind.startswith("dot") and count_fiber(n, r) > DOT_VERTEX_LIMIT:
            continue
        argv = [command[0], "--n", str(n), "--r", str(r), *command[1:], "--out", str(out)]
        assert main(argv) == 0
        digest.update(f"{n},{r}\n".encode())
        digest.update((tmp_path / f"out{suffix}").read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == expected


# G(5,3)'s 153,040 tables span ten blocks of the row formatter; the files are
# the enumerate-n5r3 benchmark's output (12,591,210 bytes) and its CSV (8,612,298)
GOLDEN_G53 = {
    "jsonl": "1116ddae5b9b6af9fbe59f4129bf281749ef3fb9e40332baeac16517ddb0bc5c",
    "csv": "f1fb52dfa4e7c05c3e3988842799699a0e145976a6de0d29de88308117095ae5",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_G53))
def test_g53_export_bytes_unchanged(fmt, tmp_path, capsys):
    out = tmp_path / f"g53.{fmt}"
    assert main(["enumerate", "--n", "5", "--r", "3", "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "153040 tables\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_G53[fmt]


# --- the fiber arrays themselves ---

# (n, r) -> sha256 of the cells' dtype string and bytes (an object array: its tolist() repr)
GOLDEN_FIBERS = {
    (2, 0): "97aedb930f9941d164ee0e256112ce77089e577d81ba05125ff7f26dc23764e6",
    (2, 1): "6cdf4d7b499ff0213a8669abc5c3eb8942a4d73a793b63c5f255cb7450ea2485",
    (2, 2): "88e4f073344be0f7573992581336efc2e821c44386b7760232812cea9707b644",
    (2, 3): "b71a9615371cc52107218181bfafee2aaddfebd15a8391a182a129b6a736165f",
    (2, 4): "0631eab6249a3d6be5da08274030f24d4558422a40d8bd4f9754d99ab536157c",
    (3, 0): "a3999fedc7e3e54c579ec7f205ebbf4642975c233dcd812aa832a0b94264440a",
    (3, 1): "15703f7ce417860c5f3e3c6dfbf1b90f500f54a836bbd1720bb9b91f1b4c9ede",
    (3, 2): "ac59fa990d3b0152a88bdd1bab308902ed96d63835c78a197213091f20001f27",
    (3, 3): "0e3317bd958626e4f1731addeb931ca38c293a3d991815f69e059c0da92bc155",
    (3, 4): "0cbcd574315044fd9c10702db9413328a4b0a0f16bbe361ba2b919173b0812a4",
    (4, 0): "d07d670b5136fb56e679ccded9bc8cf40c4f65977c59e53a0ba6cf2fc47e6453",
    (4, 1): "b49fc8ecefb2d9c9dfeb7e17edba8b2d6f4bca3631305272bc2ea4851ef2aa1e",
    (4, 2): "be993f108f29fc16a33b06d4f9e65378062e655ce2b3000d99d0f223cc3e3cb3",
    (4, 3): "8175ceec9f811e8a1468564bc78bb83a43c73f267a298f0e86ee0d6b24132e00",
    (4, 4): "98e1a64dc0bf7ffbbe474842676ebb4140abb6022f4bf7f15429be3353a6a96a",
    (5, 1): "8dbf2ee5c7c5c3fdc68cbc90feef99e8e965652e13a1ac6af41d3f006488d4f3",
    (5, 2): "b8add271917496e7771073d7694ef2068260ad3ab7d5fbca0ce5bd8aa15b99a8",
    (5, 3): "ccbb404e9d190d70cda8d64d2d8a7553dc613d41571bd14bec710d9758ec1dc6",
    (6, 2): "b6fd4f1112e4deb04c8f5e6e56f098799a0b20c3b859cf3d87d5274065d9fc58",
    (2, 70000): "161d324e6d11310a845aeecedd09b7ccb5054fd7d72865fd84ff5c8530d5af2f",
    (1, 2**64): "a037d0983391eaa6c14fe597d418192bb4763b2fea020c5f9d4dcb2fe783f356",
}


@pytest.mark.parametrize("n, r", list(GOLDEN_FIBERS), ids=str)
def test_fiber_arrays_unchanged(n, r):
    cells = enumerate_fiber(n, r).cells
    digest = hashlib.sha256(cells.dtype.str.encode())
    digest.update(repr(cells.tolist()).encode() if cells.dtype == object else cells.tobytes())
    assert digest.hexdigest() == GOLDEN_FIBERS[n, r]


# every check, κ and Liu included, on each instance in this order
VERIFY_INSTANCES = [(n, r) for n in range(2, 5) for r in range(1, 4)] + [(3, r) for r in range(4, 8)]
GOLDEN_VERIFY = "8f9acf020db0e739c66b45a65f41b243cb7e052cc1e0e241c0d88f7249ec6876"


def _verify_report(flags, out) -> bytes:
    """The verify JSON for these flags, with each check's runtime_ms removed."""
    assert main(["verify", *flags, "--out", str(out)]) == 0
    suite = json.loads(out.read_text())
    for result in suite["results"]:
        del result["runtime_ms"]
    return (json.dumps(suite, indent=2) + "\n").encode()


def test_verify_reports_unchanged(tmp_path):
    digest = hashlib.sha256()
    for n, r in VERIFY_INSTANCES:
        digest.update(f"{n},{r}\n".encode())
        flags = ["--n", str(n), "--r", str(r), "--long"]
        digest.update(_verify_report(flags, tmp_path / "v.json"))
    assert digest.hexdigest() == GOLDEN_VERIFY


# verify paths the --long sweep above does not reach: (flag lists, sha256)
GOLDEN_VERIFY_PATHS = {
    "outside-hypotheses": (
        [["--n", "1", "--r", "2"], ["--n", "2", "--r", "0"]],
        "280f3ab784c165640c7e4c2103fdf4207ba5b3837ed685161d21cb8097479406",
    ),
    "repeated-checks": (
        [["--n", "3", "--r", "3", "--checks", "liu,degrees,liu"]],
        "0629c20c061f39d7efd55ec615c3bab5436279d33f9ff720850f60b18c287f47",
    ),
    # the swept pairs decide which get a max-flow: 2 on G(5,1) and G(6,1), 7 on G(5,2)
    "max-flows": (
        [["--n", "5", "--r", "1", "--long"], ["--n", "5", "--r", "2", "--long"],
         ["--n", "6", "--r", "1", "--long"]],
        "b8fe01f1f7cb5c61e894021081eab25f2f48375b7dcdd7cf79c8af20ae095d8b",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VERIFY_PATHS))
def test_verify_path_reports_unchanged(kind, tmp_path):
    runs, expected = GOLDEN_VERIFY_PATHS[kind]
    digest = hashlib.sha256()
    for flags in runs:
        digest.update((" ".join(flags) + "\n").encode())
        digest.update(_verify_report(flags, tmp_path / "v.json"))
    assert digest.hexdigest() == expected


def test_verify_without_long_runs_every_check(tmp_path):
    # --long is accepted and ignored: kappa and Liu run on G(4,3)'s 2,008 vertices either way
    flags = ["--n", "4", "--r", "3"]
    plain = _verify_report(flags, tmp_path / "v.json")
    assert plain == _verify_report([*flags, "--long"], tmp_path / "v.json")
    names = [result["name"] for result in json.loads(plain)["results"]]
    assert "connectivity" in names and "liu" in names


# --- permutation parts of every table, with and without prefix constraints ---

DECOMPOSE_INSTANCES = [(3, r) for r in range(1, 5)] + [(4, 1), (4, 2)]
GOLDEN_DECOMPOSE = {
    "decompose": "0930e84935cc4cbb9be6fe3d2c0f20fb9b55ceba7e25b25ef69f0e06f543a397",
    "decompose-constrained": "c14534795380d2ff33fa2ea3faefbf3b043b2e358a3b844e2612009ee78ac9b6",
}


def _drawn_positions(rng, t) -> list:
    """Constraint cells drawn as verify's decomp-constrained check draws them."""
    budget = [row[:] for row in t.rows()]
    positions = []
    for _ in range(rng.randint(0, t.r)):
        cells = [(i + 1, j + 1) for i in range(t.n) for j in range(t.n) if budget[i][j] > 0]
        i, j = rng.choice(cells)
        budget[i - 1][j - 1] -= 1
        positions.append((i, j))
    return positions


@pytest.mark.parametrize("kind", sorted(GOLDEN_DECOMPOSE))
def test_decomposition_parts_unchanged(kind):
    # the free parts come from one batch per fiber, each table's checked by the oracle
    digest = hashlib.sha256()
    for n, r in DECOMPOSE_INSTANCES:
        rng = random.Random(20_240_000 + n * 100 + r)
        digest.update(f"{n},{r}\n".encode())
        fiber = enumerate_fiber(n, r)
        if kind == "decompose":
            decompositions = [((), matchings)
                              for matchings in decompose_tables(fiber.cells, n, r).tolist()]
        else:
            decompositions = [(dec.constraints, dec.matchings) for dec in (
                decompose(t, _drawn_positions(rng, t)) for t in fiber)]
        for t, (positions, matchings) in zip(fiber, decompositions):
            assert decomposition_holds(t.entries, matchings, positions)
            parts = [[[int(j == c) for j in range(n)] for c in cols] for cols in matchings]
            digest.update(f"{positions} {parts}\n".encode())
    assert digest.hexdigest() == GOLDEN_DECOMPOSE[kind]


# --- sample streams, exact-test reports and detour-path families ---

WALK_TABLES = {
    "2x2": "3,1\n1,3\n",
    "3x3": "3,0,1\n1,2,1\n0,2,2\n",
    "5x5": "5,3,2,4,1\n2,6,3,1,3\n4,1,5,2,3\n1,4,2,5,3\n3,1,3,3,5\n",
}

# (subcommand flags after --table, sha256 over every WALK_TABLES entry)
GOLDEN_WALKS = {
    "sample-uniform": (
        ["sample", "--steps", "6000", "--burn-in", "500", "--thin", "7", "--seed", "41"],
        "b971247e0d04729548c291b2a2d9782b3bbd0cea45b39d94b952a51324f9fa54",
    ),
    "sample-hypergeometric": (
        ["sample", "--steps", "6000", "--burn-in", "500", "--thin", "7", "--seed", "42",
         "--target", "hypergeometric"],
        "666c0a7ef25283cb71ec404051332b04f497ec64963eccde2b632297cbdda16f",
    ),
    "test": (
        ["test", "--steps", "20000", "--burn-in", "1000", "--thin", "10", "--seed", "43"],
        "1439c69fcb9f15b5f6c1886e0268103ceda30410e5a76830463df8bef6c01603",
    ),
    "test-short": (
        ["test", "--steps", "257", "--seed", "44"],
        "cd3b2ea0d278d9f7a0128d96b2d949ca8107675c1d9a5b123a1eb0e2341d9a3a",
    ),
}


# a margin of 10**15 and entries of 2**64: no per-chain work may grow with r
HUGE_TABLES = {
    "margin-1e15": f"{10**15 - 7},7\n7,{10**15 - 7}\n",
    "entries-2^64": f"{2**64},{2**64}\n{2**64},{2**64}\n",
}

GOLDEN_HUGE_WALKS = {
    "sample": (
        ["sample", "--steps", "200", "--seed", "46"],
        "24b7a93db7be91b4aef2fc8f7c9e210d82ecc274e701fac9449cc7e4e4d72f71",
    ),
    "test": (
        ["test", "--steps", "3000", "--seed", "45"],
        "7ef62f8b33abbae4b23b6497748eac4d70ec65d57ce5b7957621bfda4af9bd05",
    ),
}


def _walk_digest(tables, flags, tmp_path, capsys) -> str:
    """sha256 of the emitted stream, the stderr summary and the test report of each table."""
    digest = hashlib.sha256()
    for name, text in sorted(tables.items()):
        table = tmp_path / f"{name}.csv"
        table.write_text(text)
        out = tmp_path / f"{name}.out"
        target = ["--emit", str(out)] if flags[0] == "sample" else ["--out", str(out)]
        assert main([flags[0], "--table", str(table), *flags[1:], *target]) == 0
        captured = capsys.readouterr()
        digest.update(f"{name}\n".encode())
        digest.update(out.read_bytes())
        digest.update(captured.err.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN_WALKS))
def test_walk_output_bytes_unchanged(kind, tmp_path, capsys):
    flags, expected = GOLDEN_WALKS[kind]
    assert _walk_digest(WALK_TABLES, flags, tmp_path, capsys) == expected


@pytest.mark.parametrize("kind", sorted(GOLDEN_HUGE_WALKS))
def test_huge_margin_walk_output_bytes_unchanged(kind, tmp_path, capsys):
    flags, expected = GOLDEN_HUGE_WALKS[kind]
    assert _walk_digest(HUGE_TABLES, flags, tmp_path, capsys) == expected


def test_sample_summary_past_the_visit_cap(tmp_path, capsys):
    # 150,000 post-burn-in steps on the CI 5 x 5 margin-15 table pass the
    # 100,000-table cap, so the summary's distinct count is the sketch's estimate
    table = tmp_path / "t5.csv"
    table.write_text("4,3,7,0,1\n5,3,3,4,0\n0,2,3,4,6\n4,4,2,2,3\n2,3,0,5,5\n")
    argv = ["sample", "--table", str(table), "--steps", "150000", "--thin", "1000",
            "--seed", "16", "--emit", str(tmp_path / "s.jsonl")]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        '{"steps":150000,"accepted":101656,"samples":150,'
        '"distinct_visited":104958,"visit_count_approximate":true}\n')


@pytest.mark.parametrize("target", ["uniform", "hypergeometric"])
def test_huge_margin_walk_memory_stays_flat(target):
    # the hypergeometric kernel memoises log(k) by value: a table of logs
    # sized by r = 10**15 would never fit, and the memo must stay small
    rows = [[int(x) for x in line.split(",")] for line in HUGE_TABLES["margin-1e15"].split()]
    table = validate_table(2, 10**15, rows)
    config = WalkConfig(steps=0, seed=46, target=target)
    advance(ChainState.from_table(table, config), config, 10)  # numpy's lazy imports
    tracemalloc.start()
    try:
        advance(ChainState.from_table(table, config), config, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# (n, r) -> sha256 of the detour report of every distance-2 pair, in order, each
# middle move written as its 1-based rectangle and sign (i1, j1, i2, j2, sign)
GOLDEN_DETOURS = {
    (3, 2): "47931867d92f3ad2252d1b27430cf91795015ad6d31690213d205232abb5eb17",
    (3, 3): "1ce3e3d6ea96e0cf1cfedc4397f4fc827d26c382a910e611bf3fed4bfce60198",
    (3, 4): "ddc866737862c94282b87ef7daf865fe5f9c12ca9f32df5f3f9e9f46098f7416",
    (4, 2): "56920bfb4b3fc5fd66636a39c71ae573a2634f017c024f2677bc095b70b5a8af",
}


@pytest.mark.parametrize("n, r", sorted(GOLDEN_DETOURS))
def test_detour_reports_unchanged(n, r):
    graph = build_graph(enumerate_fiber(n, r))
    digest = hashlib.sha256()
    for u, v in distance_two_pairs(graph).tolist():
        report = detour_paths(graph, u, v)
        d1, d2 = (move_rectangle(n, move_cells(n)[k]) for k in report.middle_moves)
        digest.update(
            f"{report.u} {report.v} {d1} {d2} {report.count_disjoint} "
            f"{report.decomposition_count} {report.paths!r}\n".encode()
        )
    assert digest.hexdigest() == GOLDEN_DETOURS[n, r]
