"""The traced run: spans recorded from outside the package, per-layer metrics.

``Recorder`` keeps spans in memory as ``[name, start, end, parent, run]``
rows; ``installed`` swaps the package's public functions for span-opening
wrappers in every ``fibergraphs`` module namespace that refers to them, so the
CLI's own calls (``cli.main`` run in-process) are traced unchanged.  A layer
is the first part of a span name.  Its self time is the time its spans cover
minus the time their child spans cover.  Spans are single-threaded and
properly nested, so a span's children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import Outcome

# Every layer but tables, which has no span under the CLI: its calls come from
# inside build_graph, so the traced run times it with a sweep of its own.
SELF_TIMED_LAYERS = ("enumeration", "io", "graphs", "analysis", "decomposition",
                     "sampler", "cli")
# fixed here, not read from the CLI, so that the metric names stay put
VERIFY_CHECKS = ("degrees", "connmax", "maxdeg", "commonchoices", "connectivity",
                 "liu", "diameter", "sink", "dag", "konig", "decomp-constrained")
WALK_TARGETS = ("hypergeometric", "uniform")


def _vertex_count(graph) -> int:
    return graph.vertex_count if hasattr(graph, "vertex_count") else len(graph)


def _note_graph(rec, args, result):
    rec.counts["graphs.edges"] += result.edge_count
    rec.graph_fibers.append(args[0])


def _largest(key):
    def hook(rec, args, result):
        rec.counts[key] = max(rec.counts[key], len(result))
    return hook


def _add(key, size):
    def hook(rec, args, result):
        rec.counts[key] += size(args, result)
    return hook


# (module, attribute, span name, hook called with (recorder, args, result))
TARGETS = (
    ("fibergraphs.enumeration", "enumerate_fiber", "enumeration.enumerate_fiber",
     _add("enumeration.tables", lambda a, res: len(res))),
    ("fibergraphs.enumeration", "count_fiber", "enumeration.count_fiber", None),
    ("fibergraphs.io", "fiber_to_jsonl", "io.fiber_to_jsonl", None),
    ("fibergraphs.io", "load_table", "io.load_table", None),
    ("fibergraphs.io", "load_rows", "io.load_rows", None),
    # the CLI writes every output file through Path.write_text
    ("pathlib", "Path.write_text", "io.write",
     _add("io.bytes_out", lambda a, res: len(a[1].encode()))),
    ("fibergraphs.graphs", "build_graph", "graphs.build_graph", _note_graph),
    ("fibergraphs.graphs", "orient", "graphs.orient", None),
    ("fibergraphs.graphs", "is_acyclic", "graphs.is_acyclic", None),
    ("fibergraphs.graphs", "find_sinks", "graphs.find_sinks", None),
    ("fibergraphs.analysis", "diameter", "analysis.diameter",
     _add("analysis.diameter.sources", lambda a, res: _vertex_count(a[0]))),
    ("fibergraphs.analysis", "min_common_moves_over_close_pairs",
     "analysis.min_common_moves", None),
    ("fibergraphs.analysis", "distance_two_pairs", "analysis.distance_two_pairs",
     _largest("analysis.d2_pairs")),
    ("fibergraphs.analysis", "vertex_connectivity", "analysis.vertex_connectivity", None),
    ("fibergraphs.analysis", "liu_check", "analysis.liu_check", None),
    ("fibergraphs.analysis", "SplitNetwork.max_flow", "analysis.max_flow", None),
    ("fibergraphs.decomposition", "decompose", "decomposition.decompose",
     _add("decomposition.tables", lambda a, res: 1)),
    ("fibergraphs.decomposition", "decompose_constrained",
     "decomposition.decompose_constrained", None),
    ("fibergraphs.sampler", "exact_test", "sampler.exact_test", None),
)


@contextlib.contextmanager
def tolerant(what: str):
    """Skip a count or probe whose package API has changed shape; its metrics read 0.

    The benchmark must keep running on later versions of the package, which
    may return other types from the functions it wraps or probes.
    """
    try:
        yield
    except (AttributeError, TypeError, ValueError) as exc:
        print(f"# skipped {what}: {exc!r}", file=sys.stderr)


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run = 0
        self.graph_fibers: list = []
        self.walks: dict[str, list[tuple[int, int, int, float]]] = {
            t: [] for t in WALK_TARGETS
        }
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        row = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self.run]
        self._open.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with tolerant(f"counting {name}"):
                    hook(self, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        undo = []
        try:
            for module_name, attr, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                *classes, attr = attr.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # gone from the package: its metrics read 0
                wrapper = self.wrap(name, original, hook)
                homes = [owner] if classes else [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name == "fibergraphs" or mod_name.startswith("fibergraphs.")
                ]
                for home in homes:
                    for key, value in list(vars(home).items()):
                        if value is original:
                            setattr(home, key, wrapper)
                            undo.append((home, key, original))
            yield self
        finally:
            for home, key, original in reversed(undo):
                setattr(home, key, original)


def run_cli_inprocess(rec: Recorder, fg, argv: list[str]) -> Outcome:
    """``fibergraphs <argv>`` in this process, under one ``cli.<command>`` span."""
    buf = io.StringIO()
    with rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
        try:
            code = fg.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
    return Outcome(code, buf.getvalue())


def probe(rec: Recorder, fg, jobs) -> None:
    """The benchmark's own calls into layers the CLI reaches only indirectly.

    * one ``tables.valid_moves`` sweep over every fiber a graph was built on,
      then every valid move applied, as ``build_graph`` does;
    * each exact-test table loaded with ``io.load_table`` and walked with
      both targets, same steps, seed, burn-in and thinning as the CLI run.
    """
    with rec.span("bench.probe"):
        for fiber in rec.graph_fibers:
            with tolerant("the tables sweep"):
                _sweep_moves(rec, fg, fiber)
        for workload, job in jobs:
            if job.table_path is not None:
                with tolerant("the sampler walks"):
                    _walk_both_targets(rec, fg, workload, job)


def _sweep_moves(rec: Recorder, fg, fiber) -> None:
    with rec.span("tables.valid_moves"):
        moves = [fg.tables.valid_moves(t) for t in fiber]
    with rec.span("tables.apply_move"):
        for t, valid in zip(fiber, moves):
            for m in valid:
                fg.tables.apply_move(t, m)
            rec.counts["tables.moves_applied"] += len(valid)


def _walk_both_targets(rec: Recorder, fg, workload, job) -> None:
    table = fg.io.load_table(job.table_path)
    for target in WALK_TARGETS:
        config = fg.sampler.WalkConfig(
            steps=workload.steps, seed=job.walk_seed, burn_in=workload.burn_in,
            thinning=workload.thin, target=target)
        with rec.span(f"sampler.run_walk.{target}") as row:
            state, _ = fg.sampler.run_walk(table, config)
        rec.walks[target].append((
            state.step_index, state.accepted_count,
            state.visits.distinct_estimate(), row[2] - row[1]))


def _self_times(spans: list[list]) -> Counter:
    """Self seconds per layer over the spans under ``cli.*`` roots."""
    covered = [0.0] * len(spans)
    root_of: list[str] = []
    for name, start, end, parent, _ in spans:
        root_of.append(name if parent is None else root_of[parent])
        if parent is not None:
            covered[parent] += end - start
    out: Counter = Counter()
    for k, (name, start, end, _, _) in enumerate(spans):
        if root_of[k].startswith("cli."):
            out[name.split(".")[0]] += end - start - covered[k]
    return out


def layer_metrics(rec: Recorder, verify_reports: list[dict],
                  untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass (see ``PER_LAYER_UNITS``).

    ``untraced_s`` is the untraced CLI solve's wall time less set-up; the
    first CLI span (run 0) against it gives the tracing overhead.
    """
    busy: Counter = Counter()
    flows_under: Counter = Counter()
    for name, start, end, parent, _ in rec.spans:
        busy[name] += end - start
    for name, start, end, parent, _ in rec.spans:
        if name == "analysis.max_flow":
            while parent is not None and rec.spans[parent][0] != "analysis.vertex_connectivity":
                parent = rec.spans[parent][3]
            flows_under["kappa" if parent is not None else "other"] += 1
    flows = sum(flows_under.values())

    m: dict[str, float] = {}
    for name in ("enumeration.enumerate_fiber", "enumeration.count_fiber",
                 "io.fiber_to_jsonl", "io.write", "io.load_table", "io.load_rows",
                 "tables.valid_moves", "tables.apply_move", "graphs.build_graph",
                 "graphs.orient", "graphs.is_acyclic", "graphs.find_sinks",
                 "analysis.diameter", "analysis.min_common_moves",
                 "analysis.distance_two_pairs", "analysis.vertex_connectivity",
                 "analysis.liu_check", "decomposition.decompose",
                 "decomposition.decompose_constrained", "sampler.exact_test"):
        m[f"{name}.s"] = busy[name]
    for key in ("enumeration.tables", "io.bytes_out", "tables.moves_applied",
                "graphs.edges", "analysis.diameter.sources", "analysis.d2_pairs",
                "decomposition.tables"):
        m[key] = rec.counts[key]
    m["analysis.kappa_pairs"] = flows_under["kappa"]
    m["analysis.ms_per_flow_pair"] = 1000 * busy["analysis.max_flow"] / flows if flows else 0.0
    for target in WALK_TARGETS:
        walks = rec.walks[target]
        steps = sum(w[0] for w in walks)
        m[f"sampler.{target}.steps_per_s"] = steps / sum(w[3] for w in walks) if walks else 0.0
        m[f"sampler.accept_frac.{target}"] = sum(w[1] for w in walks) / steps if steps else 0.0
    m["sampler.visits_distinct"] = max((w[2] for w in rec.walks["hypergeometric"]), default=0)
    for check in VERIFY_CHECKS:
        m[f"cli.verify.{check}.s"] = sum(
            res.get("runtime_ms", 0.0) / 1000
            for report in verify_reports for res in report.get("results", [])
            if res.get("name") == check)
    self_times = _self_times(rec.spans)
    for layer in SELF_TIMED_LAYERS:
        m[f"{layer}.self_s"] = self_times[layer]
    m["trace.spans"] = len(rec.spans)
    heavy = next((s for s in rec.spans if s[4] == 0 and s[3] is None), None)
    m["trace.overhead_ratio"] = (heavy[2] - heavy[1]) / untraced_s if heavy else 0.0
    return m


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the CLI's traced self time, dominant first."""
    self_times = {layer: metrics[f"{layer}.self_s"] for layer in SELF_TIMED_LAYERS}
    total = sum(self_times.values())
    return {layer: t / total for layer, t in
            sorted(self_times.items(), key=lambda kv: -kv[1])} if total else {}


def _unit(name: str) -> str:
    if name.endswith(".s") or (name.endswith("_s") and not name.endswith("per_s")):
        return "s"
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("ms_per_flow_pair"):
        return "ms"
    if ".accept_frac." in name or name == "trace.overhead_ratio":
        return "ratio"
    return "count"


PER_LAYER_UNITS = {name: _unit(name) for name in layer_metrics(Recorder(), [], 1.0)}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the passes; the lower middle value, so always one measured."""
    return {key: statistics.median_low(p[key] for p in passes) for key in passes[0]}


def import_package(src: Path):
    """Import ``fibergraphs`` from ``src`` and refuse any other copy."""
    sys.path.insert(0, str(src))
    fg = importlib.import_module("fibergraphs")
    for sub in ("cli", "tables", "io", "sampler"):
        importlib.import_module(f"fibergraphs.{sub}")
    where = Path(fg.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"fibergraphs was imported from {where}, not from {src}")
    return fg
