"""Benchmark of the fibergraphs command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the package under ``src/`` of the checkout that holds this directory,
and exits 2 without a result when that is missing.  Workloads are listed in ``workloads.py``.

``--trace 0`` is the timed run.  The load is a closed loop with one client:
the CLI runs as a subprocess, one at a time, the next starting when the last
has exited, for ``--seconds`` seconds.  It reports medians over those solves
of wall time, child CPU time and child peak RSS, and the median of several
interpreter-plus-import set-ups; it prints work per second alongside.

The times are given at a reference core speed.  On a shared host the speed
of one core drifts by half over seconds to minutes, as other tenants load
it.  So the run pins itself and the CLI to one core, and while the CLI runs
it times a fixed piece of work on that same core every few milliseconds (the
speed probe).  Each solve's times are scaled by ``PROBE_REF_S`` over the mean
speed-probe time during that solve: seconds on a core where it takes 1 ms.
The unscaled times are printed as ``raw.*`` lines.

``--trace 1`` is the traced run.  It runs the same CLI call in this process
with every public call into the package wrapped in a span (``spans.py``),
then the smoke-size instances, then the benchmark's own probes, and reports
per-layer busy time and counts, medians over the passes that fit in
``--seconds``.  It also makes one untimed subprocess solve to report the
tracing overhead.

Every output is checked; a solve that exits non-zero or fails its gate counts
in ``failed``.  The last line of standard output is the JSON result; every
run also appends a record with its seed and environment to
``.perfbench/results.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from spans import (PER_LAYER_UNITS, Recorder, import_package, layer_metrics,
                   layer_shares, median_metrics, probe, run_cli_inprocess)
from workloads import SMOKE, WORKLOADS, Outcome, VerifyWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 11
RUN_LIMIT_S = 165.0  # every run must exit within 180 s
SETUP_ARGV = ["-c", "import fibergraphs.cli"]
CLI_ARGV = ["-m", "fibergraphs.cli"]
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PROBE_REF_S = 0.001  # the speed probe's CPU time on the reference core
PROBE_PERIOD_S = 0.03  # pause between speed probes, which take ~4% of the core


@dataclass(frozen=True)
class Solve:
    wall_s: float  # as measured, spawn to exit
    cpu_s: float  # as measured, the child's user + sys
    peak_rss_mb: float
    probe_s: float  # mean CPU time of the probe loop while the child ran
    outcome: Outcome

    @property
    def scale(self) -> float:
        """Factor from this solve's core speed to the reference core speed."""
        return PROBE_REF_S / self.probe_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pin_to_one_core() -> None:
    """Run this thread, and the threads and children it starts, on one core,
    so that the speed probe measures the core the CLI runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """A fixed piece of interpreter work whose CPU time grows as other tenants
    slow the core: integer arithmetic, which mostly feels contention for the
    core's execution units, and reads scattered over a 3 MB heap, which
    mostly feel contention for its caches.  Either part alone tracks some
    workloads' slow-down less than 1:1; together they track all four about
    1:1 (see README.md)."""

    INTS = 10_000
    READS = 3_000
    HEAP = 1 << 17  # float objects, 24 bytes each

    def __init__(self) -> None:
        rng = random.Random(0)
        self.floats = [float(i) for i in range(self.HEAP)]
        rng.shuffle(self.floats)
        self.reads = [rng.randrange(self.HEAP) for _ in range(self.READS)]

    def __call__(self) -> float:
        start = time.thread_time()
        total = 0
        for i in range(self.INTS):
            total += i * i
        acc = 0.0
        floats = self.floats
        for j in self.reads:
            acc += floats[j]
        return time.thread_time() - start


def spawn(args: list[str], workdir: Path, deadline: float, speed: SpeedProbe) -> Solve:
    """Run ``python <args>`` to completion, probing the core until it exits;
    wall from spawn to exit, rusage of the child."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    reaped: dict = {}
    done = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)

        def reap() -> None:
            _, reaped["status"], reaped["usage"] = os.wait4(proc.pid, 0)
            reaped["wall"] = time.perf_counter() - start
            done.set()

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        probes = []
        try:
            while True:
                probes.append(speed())
                if done.wait(PROBE_PERIOD_S):
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
        finally:
            if not done.is_set():
                proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    usage = reaped["usage"]
    return Solve(reaped["wall"], usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 statistics.fmean(probes),
                 Outcome(proc.returncode, out_path.read_text(errors="replace")))


def measure_setup(workdir: Path, deadline: float, speed: SpeedProbe) -> list[Solve]:
    """Repeated runs of starting the interpreter and importing the CLI."""
    solves = []
    for _ in range(SETUP_REPEATS):
        solve = spawn(SETUP_ARGV, workdir, deadline, speed)
        if solve.outcome.returncode != 0:
            raise SystemExit(f"cannot import fibergraphs from {SRC}")
        solves.append(solve)
    return solves


def fits(start: float, seconds: float, durations: list[float]) -> bool:
    """True before the first repeat, then while a typical one ends inside the window."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


class Tally:
    """Attempted and failed solves, with the first few problems for the record."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems][: 10 - len(self.problems)]
            print(f"# FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


def timed_run(workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    pin_to_one_core()
    speed = SpeedProbe()
    setups = measure_setup(workdir, deadline, speed)
    job = workload.prepare(seed, workdir)
    solves: list[Solve] = []
    start = time.perf_counter()
    while fits(start, seconds, [s.wall_s for s in solves]):
        solve = spawn(CLI_ARGV + job.argv, workdir, deadline, speed)
        tally.add(workload.name, workload.check(job, solve.outcome))
        solves.append(solve)
    setup_s = statistics.median(s.wall_s * s.scale for s in setups)
    metrics = {
        "wall_s": statistics.median(s.wall_s * s.scale for s in solves),
        "cpu_s": statistics.median(s.cpu_s * s.scale for s in solves),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in solves),
        "setup_s": setup_s,
    }
    for name, values in (("wall_s", [s.wall_s for s in solves]),
                         ("cpu_s", [s.cpu_s for s in solves]),
                         ("setup_s", [s.wall_s for s in setups])):
        print(f"raw.{name} {statistics.median(values)} s")
    print(f"speed_probe_ms {statistics.median(s.probe_s for s in solves) * 1e3} ms")
    # throughput is printed, not a metric: it is wall_s again, only noisier
    rate = statistics.median(job.items / (s.wall_s * s.scale - setup_s) for s in solves)
    print(f"{workload.item_name}_per_s {rate} 1/s")
    print(f"# solves {len(solves)}; work per solve: {job.items} {workload.item_name}")
    return {"metrics": metrics, "units": END_TO_END_UNITS, "walk_seed": job.walk_seed,
            "solves": [[s.wall_s, s.cpu_s, s.peak_rss_mb, s.probe_s] for s in solves]}


def traced_run(workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    fg = import_package(SRC)
    speed = SpeedProbe()
    setup_s = statistics.median(s.wall_s for s in measure_setup(workdir, deadline, speed))
    job = workload.prepare(seed, workdir)
    untraced = spawn(CLI_ARGV + job.argv, workdir, deadline, speed)
    tally.add(workload.name, workload.check(job, untraced.outcome))
    jobs = [(workload, job)] + [(w, w.prepare(seed, workdir)) for w in SMOKE]
    passes, durations = [], []
    while fits(start, seconds, durations):
        pass_start = time.perf_counter()
        rec = Recorder()
        reports = []
        with rec.installed():
            for run_id, (w, j) in enumerate(jobs):
                rec.run = run_id
                outcome = run_cli_inprocess(rec, fg, j.argv)
                tally.add(f"{w.name} (traced)", w.check(j, outcome))
                if isinstance(w, VerifyWorkload):
                    with contextlib.suppress(json.JSONDecodeError):
                        reports.append(json.loads(outcome.stdout))
            rec.run = len(jobs)
            probe(rec, fg, jobs)
        passes.append(layer_metrics(rec, reports, untraced.wall_s - setup_s))
        durations.append(time.perf_counter() - pass_start)
    metrics = median_metrics(passes)
    shares = layer_shares(metrics)
    for layer, frac in shares.items():
        print(f"share.{layer} {frac:.4f}")
    print(f"# dominant layer: {next(iter(shares), 'none')}; passes {len(passes)}")
    return {"metrics": metrics, "units": PER_LAYER_UNITS,
            "walk_seed": job.walk_seed, "shares": shares}


def environment() -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        # the ceiling keeps git from answering for a repository around the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "loadavg": os.getloadavg(), "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fibergraphs" / "cli.py").is_file():
        print(f"error: no fibergraphs sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    workload = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": value, "unit": result["units"][name]}
               for name, value in result["metrics"].items()}
    print(f"failed_frac {tally.failed / tally.attempted} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    record = {"workload": workload.name, "seed": args.seed, "walk_seed": result["walk_seed"],
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "metrics": result["metrics"],
              "shares": result.get("shares"), "solves": result.get("solves")}
    with open(STATE / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
