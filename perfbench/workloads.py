"""The benchmark's workloads: CLI arguments, seeded inputs and correctness gates.

Each workload turns a seed into a ``Job`` (the ``fibergraphs`` arguments plus
what its gate needs) and checks one CLI outcome against expected values.  A
verify expectation is ``(path, op, value)``: ``path`` is ``"pass"`` or
``"<check>.<computed key>"`` in the report, ``op`` is ``==``, ``>=`` or
``len``.  The self-test swaps one expected value to show that a gate fires.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation produced."""

    returncode: int | None  # None when the in-process CLI raised
    stdout: str


@dataclass
class Job:
    """One seeded instance of a workload, ready to hand to the CLI."""

    argv: list[str]  # arguments after ``fibergraphs``
    items: int  # units of work per solve, the base of the printed throughput
    out_path: Path | None = None
    table_path: Path | None = None
    walk_seed: int | None = None
    statistic: float | None = None
    first_stdout: str | None = field(default=None, repr=False)


def _compare(label: str, got, op: str, want) -> list[str]:
    if op == "==":
        ok = got == want
    elif op == ">=":
        ok = isinstance(got, (int, float)) and got >= want
    elif op == "len":
        ok = isinstance(got, list) and len(got) == want
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return [] if ok else [f"{label}: got {got!r}, want {op} {want!r}"]


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    n: int
    r: int
    tables: int  # |fiber(n, r)|, the work unit of the printed throughput
    checks: tuple[str, ...] | None  # None runs every check
    expect: tuple[tuple[str, str, object], ...]
    item_name: str = "tables"

    def prepare(self, seed: int, workdir: Path) -> Job:
        # G(n, r) is fixed by (n, r); the seed is recorded but changes nothing
        argv = ["verify", "--n", str(self.n), "--r", str(self.r), "--long"]
        if self.checks is not None:
            argv += ["--checks", ",".join(self.checks)]
        return Job(argv, self.tables)

    def check(self, job: Job, outcome: Outcome) -> list[str]:
        if outcome.returncode != 0:
            return [f"exit code {outcome.returncode}"]
        try:
            report = json.loads(outcome.stdout)
        except json.JSONDecodeError as exc:
            return [f"verify report is not JSON: {exc}"]
        by_name = {res.get("name"): res for res in report.get("results", [])}
        problems = []
        for path, op, want in self.expect:
            if path == "pass":
                got = report.get("pass")
            else:
                check, key = path.split(".", 1)
                got = (by_name.get(check, {}).get("computed") or {}).get(key)
            problems += _compare(path, got, op, want)
        return problems


@dataclass(frozen=True)
class EnumerateWorkload:
    name: str
    n: int
    r: int
    tables: int
    sha256: str  # digest of the canonical-order JSONL export
    item_name: str = "tables"

    def prepare(self, seed: int, workdir: Path) -> Job:
        out = workdir / f"fiber-{self.n}-{self.r}.jsonl"
        argv = ["enumerate", "--n", str(self.n), "--r", str(self.r), "--out", str(out)]
        return Job(argv, self.tables, out_path=out)

    def check(self, job: Job, outcome: Outcome) -> list[str]:
        try:
            data = job.out_path.read_bytes() if outcome.returncode == 0 else None
        except OSError as exc:
            return [f"output file: {exc}"]
        finally:
            job.out_path.unlink(missing_ok=True)  # each solve must write it afresh
        if data is None:
            return [f"exit code {outcome.returncode}"]
        problems = _compare("stdout", outcome.stdout.strip(), "==", f"{self.tables} tables")
        problems += _compare("lines", data.count(b"\n"), "==", self.tables)
        problems += _compare("sha256", hashlib.sha256(data).hexdigest(), "==", self.sha256)
        return problems


def random_table(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """Sum of r uniformly random n x n permutation matrices."""
    rows = [[0] * n for _ in range(n)]
    for _ in range(r):
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] += 1
    return rows


def chi_square(rows: list[list[int]]) -> float:
    """Pearson statistic against the flat expectation r/n, computed exactly."""
    n, r = len(rows), sum(rows[0])
    expected = Fraction(r, n)
    return float(sum((x - expected) ** 2 / expected for row in rows for x in row))


@dataclass(frozen=True)
class ExactTestWorkload:
    name: str
    n: int
    r: int
    steps: int
    burn_in: int = 1000
    thin: int = 10
    item_name: str = "steps"

    def prepare(self, seed: int, workdir: Path) -> Job:
        # the table and the walk seed both come from the workload seed; the
        # CLI sees only the table file and the flags
        rng = random.Random(seed)
        rows = random_table(rng, self.n, self.r)
        walk_seed = rng.getrandbits(64)
        path = workdir / f"table-{self.n}-{self.r}-{seed}.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        argv = ["test", "--table", str(path), "--steps", str(self.steps),
                "--seed", str(walk_seed), "--thin", str(self.thin),
                "--burn-in", str(self.burn_in)]
        return Job(argv, self.steps, table_path=path, walk_seed=walk_seed,
                   statistic=chi_square(rows))

    def check(self, job: Job, outcome: Outcome) -> list[str]:
        if outcome.returncode != 0:
            return [f"exit code {outcome.returncode}"]
        # the walk is seeded, so every solve of one job must print the same bytes
        if job.first_stdout is None:
            job.first_stdout = outcome.stdout
        elif outcome.stdout != job.first_stdout:
            return ["output differs from the first solve with the same seed"]
        try:
            result = json.loads(outcome.stdout)
        except json.JSONDecodeError as exc:
            return [f"test report is not JSON: {exc}"]
        p, se = result.get("p_value_estimate"), result.get("standard_error")
        problems = _compare("samples_used", result.get("samples_used"), "==",
                            (self.steps - self.burn_in) // self.thin)
        problems += _compare("observed_statistic", result.get("observed_statistic"),
                             "==", job.statistic)
        if not (isinstance(p, (int, float)) and 0 <= p <= 1):
            return problems + [f"p_value_estimate {p!r} is not in [0, 1]"]
        # at p = 0 or 1 every batch mean equals p, so the standard error is 0;
        # an extreme table (about 0.15% of seeds) lands there
        if not (isinstance(se, (int, float)) and math.isfinite(se)
                and (se > 0 if 0 < p < 1 else se == 0)):
            problems.append(f"standard_error {se!r} does not fit p = {p!r}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        # Each workload loads one layer heavily and the others lightly.
        # Max-flow sweeps in analysis: kappa over the certifying pairs, then
        # Liu's criterion over 16,224 distance-2 pairs, on a 666-table fiber
        # (G(4,3) takes an hour here, far too long to repeat).
        VerifyWorkload(
            "verify-n3r7", 3, 7, 666, None,
            (("pass", "==", True), ("connectivity.kappa", "==", 3),
             ("liu.min_disjoint_paths", ">=", 3), ("diameter.diameter", "==", 14),
             ("diameter.witness_distance", "==", 14)),
        ),
        # Every check but the two max-flow sweeps: graph build and orientation,
        # the all-sources BFS diameter and the Konig decompositions.
        VerifyWorkload(
            "verify-n4r3", 4, 3, 2008,
            ("degrees", "connmax", "maxdeg", "commonchoices", "diameter", "sink",
             "dag", "konig", "decomp-constrained"),
            (("pass", "==", True), ("diameter.diameter", "==", 9),
             ("diameter.witness_distance", "==", 9), ("degrees.min_degree", "==", 6),
             ("maxdeg.max_degree", "==", 42), ("maxdeg.attained", "==", True),
             ("sink.sinks", "len", 1), ("konig.failures", "==", 0)),
        ),
        # Enumeration and the JSONL write path, no graph; elsewhere neither
        # layer reaches 1% of the time.  The only bulk output (12.6 MB).
        EnumerateWorkload(
            "enumerate-n5r3", 5, 3, 153040,
            "1116ddae5b9b6af9fbe59f4129bf281749ef3fb9e40332baeac16517ddb0bc5c",
        ),
        # The hypergeometric Metropolis-Hastings kernel, visit counter and
        # batch means on a seeded table; no fiber is enumerated.
        ExactTestWorkload("exact-test", 5, 15, 200_000),
    )
}

# Smoke-size instances.  Every traced run also runs these, so that each layer
# is measured on every workload; the self-test runs them with their gates.
SMOKE = (
    VerifyWorkload(
        "smoke-verify-n3r3", 3, 3, 55, None,
        (("pass", "==", True), ("connectivity.kappa", "==", 3),
         ("liu.min_disjoint_paths", ">=", 3), ("diameter.diameter", "==", 6)),
    ),
    EnumerateWorkload(
        "smoke-enumerate-n4r2", 4, 2, 282,
        "990bd991b947db3d143eb85c579c52b23d954b22e165500ebbc207d03c7f4b90",
    ),
    ExactTestWorkload("smoke-exact-test", 5, 15, 5_000),
)
