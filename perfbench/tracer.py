"""Per-layer tracing from outside the program.

While active, a ``Tracer`` replaces each traced function of ``gpei`` with a
timing wrapper in every ``gpei`` module that holds a reference to it (so
``from .stdnormal import tau`` aliases are traced too), and puts the original
objects back when it exits.  A wrapper's self time is its duration minus the
durations of traced calls made inside it.

Operation counts are computed here from call arguments and return values,
not read from the program: a Cholesky factorization of an n-by-n matrix
counts n^3/3 flops, a posterior over n queries with t observations counts
t^2*n flops for its triangular solve, a Gram matrix counts n^2 entries, and a
trace CSV counts the bytes of the file written.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections import Counter
from time import perf_counter

from gpei import gp

# (module, function) pairs traced, one span each.
TARGETS = (
    ("kernels", "gram"),
    ("kernels", "cross_matrix"),
    ("gp", "chol_with_jitter"),
    ("gp", "sample_prior"),
    ("gp", "fit"),
    ("gp", "update"),
    ("gp", "posterior_batch"),
    ("eiopt", "ei_batch"),
    ("stdnormal", "tau"),
    ("bounds", "empirical_bound_check"),
    ("bounds", "window_sigma"),
    ("harness", "write_trace_csv"),
    ("harness", "run_campaign"),
    ("harness", "run_trial"),
)


def gpei_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gpei" or name.startswith("gpei.")]


def snapshot() -> dict:
    """Identity of every attribute of every loaded gpei module."""
    return {(m.__name__, k): id(v) for m in gpei_modules() for k, v in vars(m).items()}


def _gram(tot, args, out):
    tot["kernels.gram.entries"] += len(args[1]) ** 2


def _chol(tot, args, out):
    tot["gp.chol_with_jitter.flops"] += args[0].shape[0] ** 3 / 3.0
    tot["gp.chol_with_jitter.escalations"] += round(math.log10(out[1] / gp.JITTER_START))


def _posterior(tot, args, out):
    tot["gp.posterior_batch.flops"] += args[0].t ** 2 * len(args[1])


def _bound_check(tot, args, out):
    tot["bounds.vacuous"] += int(out[1] <= 0)


def _trace_csv(tot, args, out):
    tot["harness.write_trace_csv.bytes"] += os.path.getsize(args[0])


def _run_trial(tot, args, out):
    seen = set(out.init_indices)
    for row in out.rows:
        tot["eiopt.repeats"] += int(row.x_next_idx in seen)
        seen.add(row.x_next_idx)
    tot["eiopt.steps"] += len(out.rows)


_COUNTERS = {
    "kernels.gram": _gram,
    "gp.chol_with_jitter": _chol,
    "gp.posterior_batch": _posterior,
    "bounds.empirical_bound_check": _bound_check,
    "harness.write_trace_csv": _trace_csv,
    "harness.run_trial": _run_trial,
}


class Tracer:
    """Accumulates calls, self seconds and computed counts over traced calls."""

    def __init__(self):
        self.totals: Counter = Counter()
        self.trial_ms: list[float] = []
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        stack, totals = self._stack, self.totals
        count = _COUNTERS.get(label)
        record_ms = self.trial_ms if label == "harness.run_trial" else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                totals[f"{label}.calls"] += 1
                totals[f"{label}.self_s"] += dt - frame[0]
            if count is not None:
                count(totals, args, out)
            if record_ms is not None:
                record_ms.append(dt * 1e3)
            return out

        return traced

    @contextlib.contextmanager
    def active(self):
        """Trace every target for the duration of the block, then restore."""
        modules = gpei_modules()
        try:
            for mod_name, attr in TARGETS:
                original = getattr(sys.modules[f"gpei.{mod_name}"], attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            setattr(m, k, wrapper)
                            self._patched.append((m, k, original))
            yield self
        finally:
            for m, k, original in reversed(self._patched):
                setattr(m, k, original)
            self._patched.clear()
