"""Byte-level regression of the CLI's file outputs on every G(n <= 4, r <= 3).

Each digest is the sha256 of one output kind written for every instance in
``INSTANCES`` order, as version 0.1.0 of the package wrote them.  Any change
to vertex ids, ordering, orientation or formatting shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

from fibergraphs.cli import main
from fibergraphs.enumeration import count_fiber
from fibergraphs.graphs import DOT_VERTEX_LIMIT

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
