"""The benchmark's hooks into gpei, checked without changing the benchmark.

``perfbench/tracer.py`` wraps the functions its TARGETS name, and
``perfbench/workloads.py`` runs each workload through the CLI's entry points.
A rename or deletion in gpei would break only ``perfbench/selftest.py``; these
tests import both files as they are and fail on it in the tier-1 suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")
workloads = load_bench_module("workloads")


@pytest.mark.parametrize("module,attr", tracer.TARGETS)
def test_target_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"gpei.{module}"), attr, None))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_repetition_reaches_run_trial_and_restores(name, tmp_path):
    wl = workloads.build(name, 7, tiny=True)
    before = tracer.snapshot()
    tr = tracer.Tracer()
    with tr.active():
        rep = workloads.run_rep(wl, str(tmp_path))
    assert tr.totals["harness.run_trial.calls"] >= 1
    assert rep.failed == 0
    assert tracer.snapshot() == before
