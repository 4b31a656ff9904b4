"""Self-test of the benchmark at smoke size (about half a minute).

    python3 perfbench/selftest.py

Checks that:

* a timed and a traced run of each smoke instance print every metric that
  ``BENCHMARK.json`` names, with its unit, in a last line of the agreed shape,
  and pass their gates;
* a deliberately wrong expected value makes the run count as failed, once
  for each kind of gate;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Exits 1 and names the first broken check, or prints ``selftest ok``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import SMOKE, WORKLOADS, ExactTestWorkload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class WrongStatistic(ExactTestWorkload):
    """The smoke exact test, expecting a chi-square that is off by one."""

    def prepare(self, seed, workdir):
        job = super().prepare(seed, workdir)
        job.statistic += 1
        return job


def run_once(workload, trace: int) -> tuple[list[str], dict]:
    WORKLOADS[workload.name] = workload
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload.name, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0, f"{workload.name}: exit code {code}"
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_shape(workload, trace: int) -> None:
    lines, result = run_once(workload, trace)
    label = f"{workload.name} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{label}: {result['failed']} of {result['attempted']} failed"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        f"{label}: metric names differ from BENCHMARK.json"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), \
            f"{label}: {m['name']} is {got}"
        assert f"{m['name']} {got['value']} {m['unit']}" in lines, \
            f"{label}: {m['name']} is not printed with its unit"


def check_gate_fires(workload) -> None:
    _, result = run_once(workload, 0)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, \
        f"{workload.name}: a wrong expected value was not caught"


def check_refuses_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "exact-test", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "ran without the package sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the package sources"


def main() -> int:
    verify, enumerate_, exact = SMOKE
    try:
        for workload in SMOKE:
            for trace in (0, 1):
                check_shape(workload, trace)
        check_gate_fires(dataclasses.replace(
            verify, name="wrong-diameter",
            expect=tuple(("diameter.diameter", "==", 7) if e[0] == "diameter.diameter"
                         else e for e in verify.expect)))
        check_gate_fires(dataclasses.replace(enumerate_, name="wrong-digest", sha256="0" * 64))
        check_gate_fires(WrongStatistic(**{
            **dataclasses.asdict(exact), "name": "wrong-statistic"}))
        check_refuses_bare_directory()
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
