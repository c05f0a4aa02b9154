#!/usr/bin/env python3
"""gpei benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload campaign_default --seed 42 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
measuring is split over several fresh worker processes (worker.py), one after
another, so that one run averages over several memory layouts.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the environment, the sha256 of each
repetition's output directory and the check counts.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the program is missing.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads; see README.md, "BLAS threads".
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPS = 5

# Worker processes per run.  Each fresh process gets its own address-space
# layout; on a 2-core box the same work took up to 1.6 times as long in one
# process as in another while staying steady within each, so a run averages
# over five layouts.
WORKERS = 5

_SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')"
)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, via the library numpy has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import worker

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": worker.sha256_tree(SRC / "gpei", "*.py"),
        "seed": seed,
    }


def time_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median wall time for a fresh interpreter to import gpei and build the workload."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed), str(int(tiny))],
            cwd=ROOT, check=True, timeout=120,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_workers(args) -> list[dict]:
    """Run the worker processes one after another; each gets an equal time share."""
    results = []
    for _ in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
             str(args.seconds / WORKERS), str(args.trace), str(int(args.tiny))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=150,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def end_to_end(reps: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    # Runs over the summed repetition wall times.  On a shared 2-core box the
    # machine's speed drifts by up to a third for tens of seconds at a time;
    # across sets of five runs this rate spread less than the median or the
    # fastest repetition did.
    return {
        "runs_per_s": sum(r["runs"] for r in reps) / sum(r["wall_s"] for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tot: Counter, trial_ms: list[float], reps: list[dict]) -> dict:
    """Per-repetition means over the traced repetitions, plus derived ratios."""
    import numpy
    from tracer import TARGETS

    traced = [r["wall_s"] for r in reps if r["traced"]]
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    n = len(traced)
    values = {}
    for mod, attr in TARGETS:
        for stat in ("calls", "self_s"):
            key = f"{mod}.{attr}.{stat}"
            values[key] = tot[key] / n
    for key in ("kernels.gram.entries", "gp.chol_with_jitter.flops", "gp.chol_with_jitter.escalations",
                "gp.posterior_batch.flops", "harness.write_trace_csv.bytes", "eiopt.steps"):
        values[key] = tot[key] / n
    values["eiopt.repeat_frac"] = tot["eiopt.repeats"] / tot["eiopt.steps"]
    # verify_fmu_t makes no bound checks
    values["bounds.vacuous_frac"] = tot["bounds.vacuous"] / max(tot["bounds.empirical_bound_check.calls"], 1)
    p50, p90 = numpy.percentile(trial_ms, [50, 90])
    values["harness.run_trial.p50_ms"] = float(p50)
    values["harness.run_trial.p90_ms"] = float(p90)
    values["trace.wall_s"] = sum(traced) / n
    values["trace.unattributed_s"] = values["trace.wall_s"] - sum(values[f"{m}.{a}.self_s"] for m, a in TARGETS)
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(plain) / len(plain)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workload sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "gpei" / "__init__.py").is_file():
        print(f"error: the gpei sources are missing: {SRC / 'gpei'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_s = None if args.trace else time_setup(args.workload, args.seed, args.tiny)

    out_base = ROOT / ".perfbench_out"
    out_base.mkdir(exist_ok=True)
    try:
        workers = run_workers(args)
    finally:
        try:
            out_base.rmdir()
        except OSError:
            pass  # another run still has its outputs there
    reps = [r for w in workers for r in w["reps"]]

    checks = sum(r["checks"] for r in reps)
    check_failed = sum(r["failed"] for r in reps)
    mismatches = sum(r["sha256"] != reps[0]["sha256"] for r in reps[1:])
    unrestored = sum(not w["restored"] for w in workers)
    # one check per program verdict, per repetition compared with the first,
    # and per worker for the traced functions being restored
    attempted = checks + (len(reps) - 1) + len(workers)
    failed = check_failed + mismatches + unrestored

    if args.trace:
        totals = sum((Counter(w["totals"]) for w in workers), Counter())
        trial_ms = [ms for w in workers for ms in w["trial_ms"]]
        values, section = per_layer(totals, trial_ms, reps), "per_layer"
    else:
        values = end_to_end(reps, setup_s, max(w["peak_rss_mb"] for w in workers))
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    print(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": environment(args.seed),
        "reps": reps,
        "outputs_sha256": reps[0]["sha256"],
        "check_fail_frac": check_failed / checks,
        "rerun_mismatch_frac": mismatches / (len(reps) - 1),
        "attributes_restored": unrestored == 0,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
