"""Command-line entry point.

Subcommands: enumerate, graph, verify, decompose, sample, test, hemmecke.
All reports are JSON (streams are JSON lines) and every run is deterministic
given its flags, seeds included.

Exit codes: 0 success, 1 failed check or module error, 2 usage error,
3 resource guard tripped.  A command raises one of the three types of
``errors`` (``FiberGraphsError``, ``UsageError``, ``SizeLimitExceededError``)
and ``main`` alone maps it to its exit code and one ``error:`` line on stderr;
argparse reports its own parse errors, exit 2.  ``run`` is the process entry
point and owns what concerns the whole process: the frozen start-up heap and
the standard output left behind by a failed write.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from math import comb, isnan
from typing import Iterable

import numpy as np

# analysis, decomposition, graphs and sampler are reached as fg.<module> when
# a command runs, so that the lazy package loads only what that command needs
import fibergraphs as fg

from . import enumeration, io, tables
from .errors import FiberGraphsError, SizeLimitExceededError, UsageError

HEMMECKE_MAX_K = 12
CONSTRAINED_TRIALS = 500
_EXIT_CODES = {UsageError: 2, SizeLimitExceededError: 3}  # any other FiberGraphsError: 1


def _write_output(blocks: Iterable[bytes], out: str | None) -> None:
    """Write each block as it comes to the file out, or decoded to stdout and
    flushed; a failed open, write or close of out, or a failed write to
    stdout, is one error line."""
    if not out:
        try:
            # print, unlike sys.stdout, does nothing when the process has no stdout
            for block in blocks:
                print(block.decode(), end="")
            print(end="", flush=True)
        except OSError as exc:
            raise FiberGraphsError(f"cannot write to standard output: {exc.strerror}") from None
        return
    try:
        with open(out, "wb") as sink:
            for block in blocks:
                sink.write(block)
    except OSError as exc:
        raise FiberGraphsError(f"cannot write {out!r}: {exc.strerror}") from None


# ---------------------------------------------------------------- enumerate

def cmd_enumerate(args: argparse.Namespace) -> int:
    fiber = enumeration.enumerate_fiber(args.n, args.r, cap=args.cap)
    expected = enumeration.count_fiber(args.n, args.r)
    if len(fiber) != expected:
        raise FiberGraphsError(
            f"enumeration found {len(fiber)} tables but the counting oracle "
            f"says {expected}"
        )
    if args.out:
        blocks = io.fiber_to_csv(fiber) if args.format == "csv" else io.fiber_to_jsonl(fiber)
        _write_output(blocks, args.out)
    _write_output([f"{len(fiber)} tables\n".encode()], None)
    return 0


# ---------------------------------------------------------------- graph

def cmd_graph(args: argparse.Namespace) -> int:
    fiber = enumeration.enumerate_fiber(args.n, args.r, cap=args.cap)
    graph = fg.graphs.build_graph(fiber)
    target = fg.graphs.orient(graph) if args.oriented else graph
    _write_output(fg.graphs.export_graph(target, args.format), args.out)
    if args.out:
        _write_output(fg.graphs.vertex_map_json(graph), args.out + ".vertices.json")
    print(
        f"{graph.vertex_count} vertices, {graph.edge_count} edges",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- verify

@dataclass
class _VerifyContext:
    """The shared structures of the verify checks, each built on first use."""

    n: int
    r: int
    cap: int

    @cached_property
    def fiber(self) -> enumeration.Fiber:
        return enumeration.enumerate_fiber(self.n, self.r, cap=self.cap)

    @cached_property
    def graph(self) -> fg.graphs.FiberGraph:
        return fg.graphs.build_graph(self.fiber)

    @cached_property
    def oriented(self) -> fg.graphs.OrientedFiberGraph:
        return fg.graphs.orient(self.graph)


def _report(expected: object, computed: object, ok: bool, hypothesis_met: bool = True) -> dict:
    """One check's result; cmd_verify adds its runtime, name and parameters."""
    return {
        "expected": expected, "computed": computed, "pass": ok, "hypothesis_met": hypothesis_met,
    }


def _check_degrees(ctx: _VerifyContext) -> dict:
    n, r = ctx.n, ctx.r
    floor = comb(n, 2)
    raised_floor = floor + n - 1
    degrees = np.diff(ctx.graph.indptr)
    cells = ctx.fiber.cells
    pattern = ((cells == 0) | (cells == r)).all(axis=1)  # r-scaled permutation matrices
    computed = {
        "min_degree": int(degrees.min()),
        "patterns_at_floor": bool((degrees[pattern] == floor).all()),
        "others_raised": bool((degrees[~pattern] >= raised_floor).all()),
    }
    expected = {"min_degree": floor, "patterns_at_floor": True, "others_raised": True}
    return _report(expected, computed, computed == expected)


def _check_connmax(ctx: _VerifyContext) -> dict:
    # removing the neighborhood of a minimum-degree pattern vertex must
    # disconnect it from the rest, witnessing kappa <= C(n,2)
    bound = comb(ctx.n, 2)
    graph = ctx.graph
    if graph.vertex_count <= bound + 1:
        computed = {"upper_bound_holds": True, "reason": "|V| <= bound + 1"}
        return _report({"upper_bound": bound}, computed, True)
    vid = ctx.fiber.index_of(tables.scaled_permutation(ctx.n, ctx.r, list(range(ctx.n))))
    cut = frozenset(graph.neighbors(vid).tolist())
    disconnects = not fg.analysis.is_connected(graph, cut)
    return _report(
        {"cut_size": bound, "disconnects": True},
        {"cut_size": len(cut), "disconnects": disconnects},
        len(cut) == bound and disconnects,
    )


def _check_maxdeg(ctx: _VerifyContext) -> dict:
    bound = tables.max_degree_value(ctx.n, ctx.r)
    observed = max(ctx.graph.degrees())
    computed = {"max_degree": observed, "attained": bound.attained}
    if bound.attained:
        expected = {"max_degree": bound.value, "attained": True}
        return _report(expected, computed, observed == bound.value)
    return _report({"strict_upper_bound": bound.value}, computed, observed < bound.value, False)


def _check_commonchoices(ctx: _VerifyContext) -> dict:
    count, pair = fg.analysis.min_common_moves_over_close_pairs(ctx.graph)
    computed = {"min_common_moves": count, "pair": list(pair)}
    if ctx.r <= 2:
        return _report(None, computed, True, False)
    floor = comb(ctx.n, 2)
    return _report({"min_common_moves_at_least": floor}, computed, count >= floor)


def _check_connectivity(ctx: _VerifyContext) -> dict:
    report = fg.analysis.vertex_connectivity(ctx.graph)
    computed = {
        "kappa": report.kappa,
        "min_degree": report.min_degree,
        "conjecture_holds": report.conjecture_holds,
    }
    if ctx.r <= 2:
        return _report(None, computed, True, False)
    expected = comb(ctx.n, 2)
    return _report({"kappa": expected}, computed, report.kappa == expected)


def _check_liu(ctx: _VerifyContext) -> dict:
    k = comb(ctx.n, 2)
    result = fg.analysis.liu_check(ctx.graph, k)
    computed = {
        "min_disjoint_paths": result.min_value,
        "pair": list(result.min_pair) if result.min_pair else None,
    }
    if ctx.r <= 2:
        return _report(None, computed, True, False)
    return _report({"disjoint_paths_at_least": k}, computed, result.passed)


def _check_diameter(ctx: _VerifyContext) -> dict:
    expected = (ctx.n - 1) * ctx.r
    diam = fg.analysis.diameter(ctx.graph)
    a, b = fg.analysis.diameter_witness_pair(ctx.n, ctx.r)
    witness = fg.analysis.distance_between(ctx.graph, ctx.fiber.index_of(a), ctx.fiber.index_of(b))
    return _report(
        {"diameter": expected, "witness_distance": expected},
        {"diameter": diam, "witness_distance": witness},
        diam == expected and witness == expected,
    )


def _check_sink(ctx: _VerifyContext) -> dict:
    sinks = fg.graphs.find_sinks(ctx.oriented)
    computed = {"sinks": sinks}
    ok = len(sinks) == 1
    expected: dict = {"unique_sink": True}
    if ok:
        anti = tables.scaled_permutation(
            ctx.n, ctx.r, [ctx.n - 1 - i for i in range(ctx.n)]
        )
        computed["sink_is_antidiagonal"] = ctx.fiber[sinks[0]].entries == anti.entries
        if ctx.n == 3:
            expected["sink_is_antidiagonal"] = True
            ok = ok and computed["sink_is_antidiagonal"]
    return _report(expected, computed, ok)


def _check_dag(ctx: _VerifyContext) -> dict:
    acyclic = fg.graphs.is_acyclic(ctx.oriented)
    return _report({"acyclic": True}, {"acyclic": acyclic}, acyclic)


def _check_konig(ctx: _VerifyContext) -> dict:
    # if t = P_1 + ... + P_r, then s(t) = s(P_1) + ... + s(P_r) for every row,
    # column or transpose symmetry s, and each s(P_k) is again a permutation
    # matrix: one decomposition settles a table's whole orbit.  The fiber's
    # orbits are labelled once and shared with the graph's sweeps; no graph.
    fiber = ctx.fiber
    reps, orbit_sizes = np.unique(fg.graphs.vertex_orbits(fiber), return_counts=True)
    cells = fiber.cells[reps]
    failed = fg.decomposition.failed_tables(
        cells, fg.decomposition.decompose_tables(cells, ctx.n, ctx.r))
    failures = int(orbit_sizes[failed].sum())
    return _report({"failures": 0}, {"tables": len(fiber), "failures": failures}, failures == 0)


def _check_decomp_constrained(ctx: _VerifyContext) -> dict:
    # k <= r cells are drawn from a budget of n * r units, so one is always left
    rng = random.Random(20_240_000 + ctx.n * 100 + ctx.r)
    fiber_cells = ctx.fiber.cells
    drawn = []
    constraints = np.full((CONSTRAINED_TRIALS, ctx.r), -1)
    for trial in range(CONSTRAINED_TRIALS):
        drawn.append(rng.randrange(len(fiber_cells)))
        budget = fiber_cells[drawn[-1]].tolist()
        for k in range(rng.randint(0, ctx.r)):
            cell = rng.choice([c for c, x in enumerate(budget) if x > 0])
            budget[cell] -= 1
            constraints[trial, k] = cell
    cells = fiber_cells[drawn]
    matchings = fg.decomposition.decompose_tables(cells, ctx.n, ctx.r, constraints)
    failed = fg.decomposition.failed_tables(cells, matchings, constraints)
    computed = {"trials": CONSTRAINED_TRIALS, "failures": int(failed.sum())}
    return _report({"failures": 0}, computed, computed["failures"] == 0)


_CHECKS = {
    "degrees": _check_degrees,
    "connmax": _check_connmax,
    "maxdeg": _check_maxdeg,
    "commonchoices": _check_commonchoices,
    "connectivity": _check_connectivity,
    "liu": _check_liu,
    "diameter": _check_diameter,
    "sink": _check_sink,
    "dag": _check_dag,
    "konig": _check_konig,
    "decomp-constrained": _check_decomp_constrained,
}
CHECK_NAMES = tuple(_CHECKS)


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(CHECK_NAMES) if args.checks is None else args.checks.split(",")
    for name in names:
        if name not in _CHECKS:
            raise UsageError(f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}")
    enumeration.check_size(args.n, args.r)
    ctx = _VerifyContext(args.n, args.r, args.cap)
    results = []
    overall = True
    for name in names:
        start = time.perf_counter()
        if args.n >= 2 and args.r >= 1:
            outcome = _CHECKS[name](ctx)
        else:
            # every check's statement assumes n >= 2 and r >= 1
            outcome = _report(None, None, True, False)
            outcome["reason"] = (
                f"the checked statements need n >= 2 and r >= 1, got n={args.n}, r={args.r}"
            )
        outcome["runtime_ms"] = round((time.perf_counter() - start) * 1000, 3)
        outcome["name"] = name
        outcome["parameters"] = {"n": args.n, "r": args.r}
        results.append(outcome)
        overall &= bool(outcome["pass"])
    suite = {"n": args.n, "r": args.r, "pass": overall, "results": results}
    _write_output([json.dumps(suite, indent=2).encode() + b"\n"], args.out)
    return 0 if overall else 1


# ---------------------------------------------------------------- decompose

def cmd_decompose(args: argparse.Namespace) -> int:
    table = io.load_table(args.table)
    constraints = io.parse_constraints(args.constraints) if args.constraints else []
    dec = fg.decomposition.decompose(table, constraints)
    constraint_cells = [[(i - 1) * table.n + j - 1 for i, j in dec.constraints]]
    ok = not fg.decomposition.failed_tables(
        np.array([table.row_major()]), np.array([dec.matchings]), constraint_cells)[0]
    payload = {
        "parts": [p.rows() for p in dec.parts],
        "constraints_satisfied": ok,
    }
    _write_output([json.dumps(payload, indent=2).encode() + b"\n"], args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------- sample / test

def _walk_config(args: argparse.Namespace, target: str) -> fg.sampler.WalkConfig:
    return fg.sampler.WalkConfig(
        steps=args.steps,
        seed=args.seed,
        burn_in=args.burn_in,
        thinning=args.thin,
        target=fg.sampler.Target(target),
    )


def cmd_sample(args: argparse.Namespace) -> int:
    table = io.load_table(args.table)
    config = _walk_config(args, args.target)
    state, samples = fg.sampler.run_walk(table, config)
    n = table.n
    cells = np.array(samples, dtype=np.min_scalar_type(table.r)).reshape(-1, n * n)
    literals = ['{"rows":[[', *io.json_row_separators(n), "]]}\n"]
    _write_output(io.format_rows(literals, list(cells.T)), args.emit)
    summary = {
        "steps": state.step_index,
        "accepted": state.accepted_count,
        "samples": len(samples),
        "distinct_visited": state.visits.distinct_estimate(),
        "visit_count_approximate": state.visits.approximate,
    }
    print(json.dumps(summary, separators=(",", ":")), file=sys.stderr)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    observed = io.load_table(args.table)
    result = fg.sampler.exact_test(observed, _walk_config(args, "hypergeometric"))
    # too few samples leave the estimate or its error NaN, which JSON cannot hold
    p_value, se = (None if isnan(x) else x for x in (result.p_value_estimate, result.standard_error))
    payload = {
        "statistic": "chisq",
        "observed_statistic": result.observed_statistic,
        "p_value_estimate": p_value,
        "standard_error": se,
        "samples_used": result.samples_used,
    }
    _write_output([json.dumps(payload, indent=2).encode() + b"\n"], args.out)
    return 0


# ---------------------------------------------------------------- hemmecke

def cmd_hemmecke(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError(f"hemmecke needs 1 <= k <= {HEMMECKE_MAX_K}, got k={args.k}")
    if args.k > HEMMECKE_MAX_K:
        raise SizeLimitExceededError(HEMMECKE_MAX_K, context=f"hemmecke k={args.k}")
    graph, report = fg.analysis.hemmecke_graph(args.k)
    payload = {
        "k": args.k,
        "vertices": graph.vertex_count,
        "min_degree": report.min_degree,
        "kappa": report.kappa,
        "conjecture_holds": report.conjecture_holds,
        "articulation_vertices": fg.analysis.articulation_vertices(graph),
    }
    _write_output([json.dumps(payload, indent=2).encode() + b"\n"], args.out)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibergraphs",
        description="Fiber graphs of equal-margin contingency tables: "
        "enumeration, verification, decomposition, and sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the main output to this path")
    tabled = argparse.ArgumentParser(add_help=False)  # decompose, sample and test
    tabled.add_argument("--table", required=True, help="table file: .csv, or .json holding "
                        'an array of rows or an object with "rows" and optionally "n" and "r"')
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument(
        "--cap", type=int, default=enumeration.DEFAULT_CAP,
        help="vertex-count resource guard (default %(default)s)",
    )

    p = sub.add_parser("enumerate", parents=[common, sized], help="enumerate a fiber")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", parents=[common, sized], help="build and export a fiber graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("edge-list", "dot"), default="edge-list")
    p.add_argument("--oriented", action="store_true", help="orient edges by the (row + col)^2 weight")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", parents=[common, sized], help="run the theorem-instance checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--checks", help=f"comma-separated subset of: {','.join(CHECK_NAMES)}"
    )
    p.add_argument("--long", action="store_true",
                   help="accepted and ignored: every check always runs; --cap is the guard")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common, tabled],
                       help="decompose a table into permutation parts")
    p.add_argument("--constraints", help="JSON array of [i,j] 1-based pairs, inline or a file path")
    p.set_defaults(func=cmd_decompose)

    walk = argparse.ArgumentParser(add_help=False, parents=[tabled])
    walk.add_argument("--steps", type=int, required=True)
    walk.add_argument("--burn-in", dest="burn_in", type=int, default=0)
    walk.add_argument("--thin", type=int, default=1)
    walk.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sample", parents=[walk], help="random walk on a fiber")
    p.add_argument("--target", choices=("uniform", "hypergeometric"), default="uniform")
    p.add_argument("--emit", help="write the sample stream (JSON lines) to this path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("test", parents=[common, walk], help="Monte Carlo chi-square exact test")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("hemmecke", parents=[common], help="double-cube counterexample report")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_hemmecke)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 1) < 1:
        parser.error(f"--cap must be at least 1, got {args.cap}")
    try:
        return args.func(args)
    except FiberGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 1)


def run() -> int:
    """The process entry point of ``python -m fibergraphs.cli`` and the
    ``fibergraphs`` script: ``main`` in a process of its own.

    The heap the imports left (numpy's included, about 21,400 objects) holds
    no garbage worth finding, so it is frozen: neither the collections during
    the command nor the full one at exit walk it again.  ``main`` itself
    freezes nothing, as its in-process callers keep normal collection.  After
    a failed write to stdout, which ``main`` has reported, what is left in its
    buffer goes to os.devnull, so the interpreter's flush at exit cannot raise.
    """
    gc.freeze()
    code = main()
    try:
        print(end="", flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
