#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` with ``--trace 0`` and with
``--trace 1`` and checks that the last output line is the result object, that
it passes its checks, and that it prints every metric of the matching
BENCHMARK.json section with that section's unit and a finite value.  On traced
runs it checks that the self times plus ``trace.unattributed_s`` add up to
``trace.wall_s``.  It checks in-process that a traced repetition leaves every
attribute of every gpei module as it found it, also when the repetition
raises, and that run.py exits with code 2 and prints nothing in a directory
holding only BENCHMARK.json and the benchmark.  Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench_out"


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result}")
    section = spec["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in section), f"{what}: metric names differ")
    for m in section:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']!r}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), f"{what}: {m['name']}")
    if trace:
        vals = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in vals.items() if k.endswith(".self_s")) + vals["trace.unattributed_s"]
        check(math.isclose(total, vals["trace.wall_s"], rel_tol=1e-9), f"{what}: self times do not sum to wall")
    print(f"ok {what}")


def check_restore() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import tracer
    import workloads

    wl = workloads.build("campaign_default", 7, tiny=True)
    before = tracer.snapshot()
    tr = tracer.Tracer()
    with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
        with tr.active():
            check(tracer.snapshot() != before, "no attribute was wrapped")
            workloads.run_rep(wl, out)
    check(tr.totals["harness.run_trial.calls"] == 4, "traced calls were not recorded")
    check(tracer.snapshot() == before, "attributes not restored after a traced repetition")
    try:
        with tr.active():
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    check(tracer.snapshot() == before, "attributes not restored after an exception")
    print("ok restore")


def check_bare_dir() -> None:
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "campaign_default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode == 2 and proc.stdout == "", f"bare dir: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare dir")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(exist_ok=True)
    check_bare_dir()
    check_restore()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()  # run.py removes it when it is empty
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
