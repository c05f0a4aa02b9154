"""One measuring process of a benchmark run; started by run.py, not by hand.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <tiny 0|1>

Imports gpei from ``src/``, warms up, repeats the workload for about
``seconds`` (at least once), and prints one JSON line with the repetitions,
the process's peak resident memory and, when tracing, the tracer's totals.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def sha256_tree(path: Path, pattern: str = "*") -> str:
    """Digest of every file's relative path and bytes under ``path``, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file() and "__pycache__" not in p.parts):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def measure(wl, seed: int, seconds: float, tr, out_root: str) -> list[dict]:
    """Repeat the workload until ``seconds`` would be exceeded, at least once.

    With a tracer, an untraced and a traced repetition alternate, so the
    traced run also measures the untraced wall time of the same work.
    """
    # Untimed warm-up: the first campaign in a process pays for lazy imports and
    # first-call set-up in numpy, scipy and BLAS (~0.2-0.7 s on a 2-core box).
    warm_dir = tempfile.mkdtemp(dir=out_root)
    workloads.run_rep(workloads.build("campaign_default", seed, tiny=True), warm_dir)
    shutil.rmtree(warm_dir)

    modes = (False, True) if tr is not None else (False,)
    reps: list[dict] = []
    cycles: list[float] = []
    start = perf_counter()
    while True:
        c0 = perf_counter()
        for traced in modes:
            rep_dir = tempfile.mkdtemp(dir=out_root)
            with tr.active() if traced else nullcontext():
                t0 = perf_counter()
                res = workloads.run_rep(wl, rep_dir)
                wall = perf_counter() - t0
            reps.append({"traced": traced, "wall_s": wall, "runs": res.runs, "checks": res.checks,
                         "failed": res.failed, "sha256": sha256_tree(Path(rep_dir))})
            shutil.rmtree(rep_dir)
        cycles.append(perf_counter() - c0)
        if perf_counter() - start + statistics.median(cycles) > seconds:
            return reps


def main() -> int:
    name, seed, seconds, trace, tiny = sys.argv[1:6]
    seed = int(seed)
    wl = workloads.build(name, seed, tiny == "1")
    tr = tracer.Tracer() if trace == "1" else None
    before = tracer.snapshot()
    out_root = tempfile.mkdtemp(dir=ROOT / ".perfbench_out")
    try:
        reps = measure(wl, seed, float(seconds), tr, out_root)
    finally:
        shutil.rmtree(out_root)
    print(json.dumps({
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "restored": tracer.snapshot() == before,
        "totals": dict(tr.totals) if tr else {},
        "trial_ms": tr.trial_ms if tr else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
