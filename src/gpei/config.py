"""Experiment configuration: dataclass, flat key-value file format, and hashing.

The config file is a flat ``key = value`` text format (one per line, ``#``
comments allowed) whose keys match the field names below; the kernel is
flattened to ``kernel_family`` / ``kernel_lengthscale`` / ``kernel_nu``.
The canonical flat rendering is what gets hashed and echoed into outputs, so
identical configs reproduce identical files.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import SQUARED_EXPONENTIAL, KernelSpec

THEOREMS = ("thm42", "thm46")

MAX_GRID_SIZE = 4096
_U64_MAX = 2**64 - 1

# The longest lattice offset, in units of r, at which the prior's torus search
# (gp._circulant_eigenvalues) can evaluate the kernel on a grid within the cap:
# its FFT-cost cap stops at a 354294-point torus for 4041 points on one axis,
# offsets up to 177147 spacings = 43.85 r, and on d axes the squared offsets
# sum to at most 1922.7 r^2 < 44^2 r^2.
_MAX_LATTICE_OFFSET = 44.0

# Every flat key, in file order: its kind (int, float or str), the config
# attribute it holds, and whether it may be None (written as an empty value,
# read from an empty or ``none`` one).  A float is written as repr(float(v)),
# also when it holds an int, so the hashed text does not depend on typing.
_FLAT_KEYS = {
    "d": (int, "d", False),
    "r": (float, "r", False),
    "grid_per_dim": (int, "grid_per_dim", False),
    "kernel_family": (str, "kernel.family", False),
    "kernel_lengthscale": (float, "kernel.lengthscale", False),
    "kernel_nu": (float, "kernel.nu", True),
    "noise_sd": (float, "noise_sd", False),
    "delta": (float, "delta", False),
    "T": (int, "T", False),
    "T0": (int, "T0", False),
    "trials": (int, "trials", False),
    "seed": (int, "seed", False),
    "theorem": (str, "theorem", False),
    "kappa": (float, "kappa", True),
}


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
        """Raise ValueError on any violated invariant (desk-scale caps included).
        An integer field holds an int, not a bool, which config.txt would
        write as ``True`` and ``load_config`` would refuse."""
        if not (type(self.d) is int and self.d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        if not (type(self.grid_per_dim) is int and self.grid_per_dim >= 1):
            raise ValueError(f"grid_per_dim must be an integer >= 1, got {self.grid_per_dim!r}")
        if self.grid_size > MAX_GRID_SIZE:
            raise ValueError(f"grid size {self.grid_size} exceeds the desk-scale cap {MAX_GRID_SIZE}")
        # every squared lattice offset the prior evaluates must be finite, and
        # every nonzero one, at least the squared spacing, a normal float
        r_min = (self.grid_per_dim - 1) * math.sqrt(sys.float_info.min)
        r_max = math.sqrt(sys.float_info.max) / _MAX_LATTICE_OFFSET
        if not (self.r > 0 and r_min <= self.r <= r_max):
            raise ValueError(f"r must be > 0 and lie in [{r_min!r}, {r_max!r}], got r={self.r!r}: the squared spacing "
                             f"(r / (grid_per_dim - 1))^2 must be a normal float and every squared lattice offset "
                             f"the prior evaluates, up to ({_MAX_LATTICE_OFFSET:g} r)^2, finite")
        # rho = offset / lengthscale must keep the Matern-5/2 term rho * (5/3) * rho,
        # the first of any family's terms to overflow, finite up to the longest offset
        lengthscale_min = _MAX_LATTICE_OFFSET * self.r / math.sqrt(0.6 * sys.float_info.max)
        if not self.kernel.lengthscale >= lengthscale_min:
            raise ValueError(f"kernel_lengthscale must be >= {lengthscale_min!r} = {_MAX_LATTICE_OFFSET:g} r / "
                             f"sqrt(0.6 * float max), got kernel_lengthscale={self.kernel.lengthscale!r}: the kernel "
                             f"must be finite at every lattice offset the prior evaluates, up to {_MAX_LATTICE_OFFSET:g} r")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if self.noise_sd > 0 and not sys.float_info.min <= self.noise_var < math.inf:
            raise ValueError(f"noise_sd must be 0 or have a finite normal float variance (>= {sys.float_info.min!r}), "
                             f"got noise_sd={self.noise_sd!r} with variance {self.noise_var!r}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (type(self.T) is int and type(self.T0) is int and 1 <= self.T0 <= self.T):
            raise ValueError(f"need 1 <= T0 <= T, got T0={self.T0!r}, T={self.T!r}")
        # Degenerate 1-point grids are exempt: they are used as smoke tests
        # where every iterate revisits the single candidate.
        if self.grid_size > 1 and self.T > self.grid_size:
            raise ValueError(f"T={self.T} exceeds grid size {self.grid_size}")
        if not (type(self.trials) is int and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (type(self.seed) is int and 0 <= self.seed <= _U64_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.theorem not in THEOREMS:
            raise ValueError(f"theorem must be one of {THEOREMS}, got {self.theorem!r}")
        if self.kappa is not None and not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be > 0 when set, got {self.kappa!r}")

    def grid_points(self) -> np.ndarray:
        """Uniform grid over [0, r]^d, grid_per_dim points per axis, shape (n, d)."""
        axis = np.linspace(0.0, self.r, self.grid_per_dim)
        mesh = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def to_flat(self) -> dict[str, str]:
        flat = {}
        for key, (kind, path, _) in _FLAT_KEYS.items():
            value = operator.attrgetter(path)(self)
            flat[key] = "" if value is None else repr(float(value)) if kind is float else str(value)
        return flat

    def flat_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.to_flat().items())


def config_hash(config: ExperimentConfig) -> str:
    """Stable 12-hex-digit digest of the canonical flat rendering."""
    # imported here: hashlib loads OpenSSL's _hashlib (~4-5 ms of start-up),
    # and a process that builds and validates configs need not hash one
    import hashlib

    return hashlib.sha256(config.flat_text().encode("utf-8")).hexdigest()[:12]


def _parse(key: str, raw: str):
    """``raw`` read as ``key``'s kind: a str lower-cased, None for an optional
    key's empty or ``none`` value, else ``kind(raw)``; the ValueError names the key."""
    kind, _, optional = _FLAT_KEYS[key]
    if kind is str:
        return raw.strip().lower()
    if optional:
        raw = raw.strip()
        if raw in ("", "none"):
            return None
    try:
        return kind(raw)
    except ValueError as e:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key!r} must be {what}, got {raw!r}") from e


def from_flat(flat: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from flat string key-values, overriding ``base`` (defaults
    when omitted).  Unset kernel_lengthscale defaults to 0.2*r so desk-scale
    grids resolve the prior's variation.  Unset kernel_nu keeps ``base``'s
    while the family is unchanged and is None otherwise; a kernel_nu set for
    the se family is refused by ``KernelSpec``."""
    base = base if base is not None else ExperimentConfig()
    unknown = set(flat) - _FLAT_KEYS.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    updates = {key: _parse(key, raw) for key, raw in flat.items()}
    family = updates.pop("kernel_family", base.kernel.family)
    rescaled = "r" in flat or "kernel_family" in flat
    unset_lengthscale = 0.2 * updates.get("r", base.r) if rescaled else base.kernel.lengthscale
    lengthscale = updates.pop("kernel_lengthscale", unset_lengthscale)
    nu = updates.pop("kernel_nu", base.kernel.nu if family == base.kernel.family else None)
    try:
        updates["kernel"] = KernelSpec(family, lengthscale, nu)
    except ValueError as e:  # KernelSpec names the refused field first; its flat key is kernel_<field>
        raise ValueError(f"config key 'kernel_{str(e).split()[0]}': {e}") from e
    return dataclasses.replace(base, **updates)


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value file; a # starts a comment anywhere on a line, and
    blank lines are skipped."""
    flat: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
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
