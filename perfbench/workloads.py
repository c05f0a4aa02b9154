"""The benchmark's workloads: configs derived from the seed, and one repetition of each.

A repetition runs a workload once through the same public entry points the
CLI uses (``harness.run_experiment`` for campaigns; ``harness.verify_lemma``
plus ``harness.write_lemma_report`` for lemmas), serially with ``workers=1``,
and writes its outputs under a given directory.  Every check the program
itself makes is counted: one per coverage row, one per variance check, one
per lemma verdict.  No config is relaxed to make a check pass.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from gpei import harness
from gpei.config import ExperimentConfig
from gpei.kernels import MATERN, KernelSpec

NAMES = ("campaign_default", "campaign_grid4096", "verify_fmu_t")

# Trials per flavour in one campaign_default repetition: four flavours of
# five trials take ~0.6 s on a 2-core box, so a run holds dozens of
# repetitions, each one the acceptance campaign in miniature.
_DEFAULT_TRIALS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[tuple[str, ExperimentConfig], ...]  # (output subdir, config)
    lemma: str | None = None  # set for lemma workloads, None for campaigns


@dataclass(frozen=True)
class RepResult:
    runs: int  # optimizer runs completed: campaign trials or lemma full runs
    checks: int
    failed: int


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Build and validate the workload's configs and candidate grids.

    ``tiny`` shrinks each workload to seconds for the self-test while keeping
    the code path; the lemma keeps its fixed draw count and shrinks the grid.
    """
    if name == "campaign_default":
        base = ExperimentConfig(seed=seed, trials=1 if tiny else _DEFAULT_TRIALS)
        wl = Workload(name, tuple(
            (f"{theorem}_{'noisy' if noise_sd > 0 else 'noiseless'}",
             dataclasses.replace(base, noise_sd=noise_sd, theorem=theorem))
            for noise_sd in (0.05, 0.0)
            for theorem in ("thm42", "thm46")
        ))
    elif name == "campaign_grid4096":
        cfg = ExperimentConfig(
            d=2,
            grid_per_dim=12 if tiny else 64,
            kernel=KernelSpec(MATERN, 0.2, 2.5),
            noise_sd=0.05,
            T=20 if tiny else 60,
            trials=1,
            seed=seed,
            theorem="thm46",
        )
        wl = Workload(name, (("matern52_thm46_noisy", cfg),))
    elif name == "verify_fmu_t":
        cfg = ExperimentConfig(seed=seed, grid_per_dim=40, T=30) if tiny else ExperimentConfig(seed=seed)
        wl = Workload(name, (("fmu_t", cfg),), lemma="fmu_t")
    else:
        raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
    for _, cfg in wl.configs:
        cfg.validate()
        cfg.grid_points()
    return wl


def run_rep(wl: Workload, out_dir: str) -> RepResult:
    """Run the workload once, writing every output under ``out_dir``."""
    runs = checks = failed = 0
    for tag, cfg in wl.configs:
        sub = os.path.join(out_dir, tag)
        if wl.lemma is not None:
            report = harness.verify_lemma(wl.lemma, cfg)
            harness.write_lemma_report(sub, report, cfg)
            runs += int(report.metric("n"))
            checks += 1
            failed += int(not report.passed)
        else:
            result = harness.run_experiment(cfg, sub, workers=1)
            runs += len(result.traces)
            checks += len(result.coverage) + int(result.variance_checked)
            failed += sum(not row.passed for row in result.coverage)
            failed += int(result.variance_violations > 0)
    return RepResult(runs, checks, failed)
