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

import numpy as np
import pytest

from gpei import gp, harness
from gpei.config import ExperimentConfig

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


@pytest.mark.parametrize("overrides", [dict(noise_sd=0.05), dict(noise_sd=0.0, kappa=1e-3, theorem="thm42")])
def test_step_and_repeat_counts_equal_the_trace_columns(overrides):
    # the tracer counts eiopt.steps and eiopt.repeats from each traced
    # run_trial's Trace.rows and init_indices; the columns give the same counts
    cfg = ExperimentConfig(grid_per_dim=40, T=30, trials=6, seed=7, **overrides)
    tr = tracer.Tracer()
    with tr.active():
        result = harness.run_campaign(cfg)
    assert tr.totals["harness.run_trial.calls"] == cfg.trials
    steps = sum(trace.t.size for trace in result.traces)
    fresh = sum(np.setdiff1d(trace.x_next_idx, trace.init_indices).size for trace in result.traces)
    assert tr.totals["eiopt.steps"] == steps
    assert tr.totals["eiopt.repeats"] == steps - fresh > 0


@pytest.mark.parametrize("name", ["campaign_default", "campaign_grid4096"])
def test_tiny_campaign_evaluates_one_kernel_row_per_prior(name, tmp_path, monkeypatch):
    # both tiny grids (200 and 144 points) are embedded: each prior build
    # evaluates the kernel once, at its lattice offsets, and reads the
    # embedding check's kernel row from them, so neither it nor the loop
    # calls cross_matrix or assembles a Gram matrix
    wl = workloads.build(name, 7, tiny=True)
    builds = []
    original = gp.GridPrior.build
    monkeypatch.setattr(gp.GridPrior, "build", lambda config: (builds.append(config.grid_size), original(config))[1])
    tr = tracer.Tracer()
    with tr.active():
        workloads.run_rep(wl, str(tmp_path))
    n = wl.configs[0][1].grid_size
    assert builds and set(builds) == {n}
    assert tr.totals["kernels.gram.calls"] == tr.totals["kernels.gram.entries"] == 0
    assert tr.totals["kernels.cross_matrix.calls"] == 0


def test_grid_cap_campaign_evaluates_one_kernel_row_and_no_gram(tmp_path):
    # a full campaign_grid4096 repetition (64x64 grid, T=60) reads every
    # kernel row, the embedding check's and the loop's, from the prior's
    # lattice offsets
    wl = workloads.build("campaign_grid4096", 7)
    assert gp.GridPrior.build(wl.configs[0][1]).L is None
    tr = tracer.Tracer()
    with tr.active():
        rep = workloads.run_rep(wl, str(tmp_path))
    assert rep.failed == 0 and tr.totals["harness.run_trial.calls"] == 1
    assert tr.totals["kernels.gram.calls"] == 0
    assert tr.totals["kernels.cross_matrix.calls"] == 0
