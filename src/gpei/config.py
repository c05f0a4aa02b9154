"""Experiment configuration: dataclass, flat key-value file format, and hashing.

The config file is a flat ``key = value`` text format (one per line, ``#``
comments allowed) whose keys match the field names below; the kernel is
flattened to ``kernel_family`` / ``kernel_lengthscale`` / ``kernel_nu``.
The canonical flat rendering is what gets hashed and echoed into outputs, so
identical configs reproduce identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .kernels import SQUARED_EXPONENTIAL, KernelSpec

THEOREMS = ("thm42", "thm46")

MAX_GRID_SIZE = 4096
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 1
    r: float = 1.0
    grid_per_dim: int = 200
    kernel: KernelSpec = KernelSpec(SQUARED_EXPONENTIAL, 0.2)
    noise_sd: float = 0.05
    delta: float = 0.1
    T: int = 60
    T0: int = 1
    trials: int = 200
    seed: int = 42
    theorem: str = "thm46"
    kappa: float | None = None

    @property
    def grid_size(self) -> int:
        return self.grid_per_dim**self.d

    @property
    def noise_var(self) -> float:
        return self.noise_sd * self.noise_sd

    def validate(self) -> None:
        """Raise ValueError on any violated invariant (desk-scale caps included)."""
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be > 0, got {self.r!r}")
        if not (isinstance(self.grid_per_dim, int) and self.grid_per_dim >= 1):
            raise ValueError(f"grid_per_dim must be an integer >= 1, got {self.grid_per_dim!r}")
        if self.grid_size > MAX_GRID_SIZE:
            raise ValueError(f"grid size {self.grid_size} exceeds the desk-scale cap {MAX_GRID_SIZE}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (isinstance(self.T, int) and isinstance(self.T0, int) and 1 <= self.T0 <= self.T):
            raise ValueError(f"need 1 <= T0 <= T, got T0={self.T0!r}, T={self.T!r}")
        # Degenerate 1-point grids are exempt: they are used as smoke tests
        # where every iterate revisits the single candidate.
        if self.grid_size > 1 and self.T > self.grid_size:
            raise ValueError(f"T={self.T} exceeds grid size {self.grid_size}")
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed <= _U64_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {THEOREMS}, got {self.theorem!r}")
        if self.kappa is not None and not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be > 0 when set, got {self.kappa!r}")

    def grid_points(self) -> np.ndarray:
        """Uniform grid over [0, r]^d, grid_per_dim points per axis, shape (n, d)."""
        axis = np.linspace(0.0, self.r, self.grid_per_dim)
        if self.d == 1:
            return axis[:, None]
        mesh = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def to_flat(self) -> dict[str, str]:
        flat = {
            "d": str(self.d),
            "r": repr(float(self.r)),
            "grid_per_dim": str(self.grid_per_dim),
            "kernel_family": self.kernel.family,
            "kernel_lengthscale": repr(float(self.kernel.lengthscale)),
            "kernel_nu": "" if self.kernel.nu is None else repr(float(self.kernel.nu)),
            "noise_sd": repr(float(self.noise_sd)),
            "delta": repr(float(self.delta)),
            "T": str(self.T),
            "T0": str(self.T0),
            "trials": str(self.trials),
            "seed": str(self.seed),
            "theorem": self.theorem,
            "kappa": "" if self.kappa is None else repr(float(self.kappa)),
        }
        return flat

    def flat_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.to_flat().items())


def config_hash(config: ExperimentConfig) -> str:
    """Stable 12-hex-digit digest of the canonical flat rendering."""
    return hashlib.sha256(config.flat_text().encode("utf-8")).hexdigest()[:12]


_INT_FIELDS = {"d", "grid_per_dim", "T", "T0", "trials", "seed"}
_FLOAT_FIELDS = {"r", "noise_sd", "delta"}
_KNOWN_KEYS = _INT_FIELDS | _FLOAT_FIELDS | {
    "kernel_family",
    "kernel_lengthscale",
    "kernel_nu",
    "theorem",
    "kappa",
}


def _number(key: str, raw: str, kind: type):
    """``kind(raw)`` for kind int or float; the ValueError names the key."""
    try:
        return kind(raw)
    except ValueError as e:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key!r} must be {what}, got {raw!r}") from e


def _optional_number(key: str, raw: str) -> float | None:
    """None for an empty or ``none`` value, else the number."""
    raw = raw.strip()
    return None if raw in ("", "none") else _number(key, raw, float)


def from_flat(flat: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from flat string key-values, overriding ``base`` (defaults
    when omitted).  Unset kernel_lengthscale defaults to 0.2*r so desk-scale
    grids resolve the prior's variation."""
    base = base if base is not None else ExperimentConfig()
    unknown = set(flat) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    updates: dict = {key: _number(key, flat[key], int) for key in _INT_FIELDS & set(flat)}
    updates.update({key: _number(key, flat[key], float) for key in _FLOAT_FIELDS & set(flat)})
    if "theorem" in flat:
        updates["theorem"] = flat["theorem"].strip().lower()
    if "kappa" in flat:
        updates["kappa"] = _optional_number("kappa", flat["kappa"])

    family = flat.get("kernel_family", base.kernel.family).strip().lower()
    r_eff = updates.get("r", base.r)
    if "kernel_lengthscale" in flat:
        lengthscale = _number("kernel_lengthscale", flat["kernel_lengthscale"], float)
    elif "r" in updates or "kernel_family" in flat:
        lengthscale = 0.2 * r_eff
    else:
        lengthscale = base.kernel.lengthscale
    nu: float | None
    if "kernel_nu" in flat:
        nu = _optional_number("kernel_nu", flat["kernel_nu"])
    else:
        nu = base.kernel.nu if family == base.kernel.family else None
    if family == SQUARED_EXPONENTIAL:
        nu = None
    updates["kernel"] = KernelSpec(family, lengthscale, nu)

    return dataclasses.replace(base, **updates)


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value file; blank lines and # comments are skipped."""
    flat: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = stripped.partition("=")
            flat[key.strip()] = value.strip()
    return flat


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Config-file values layered over defaults, then CLI overrides on top."""
    cfg = ExperimentConfig()
    if path is not None:
        cfg = from_flat(parse_config_file(path), base=cfg)
    if overrides:
        cfg = from_flat(overrides, base=cfg)
    cfg.validate()
    return cfg
