"""Run configuration: key=value parsing, validation, canonical echo, hashing."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .lattice import WavenumberLattice
from . import symbols as _symbols


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


PRESETS = ("taylor-green-2d", "taylor-green-3d", "random")


@dataclass
class SimConfig:
    """Physical and numerical parameters of one run.

    ``symbol`` is "power", "kernel:PATH" or "table:PATH"; ``ic`` is a
    preset name, "random" or "snapshot:PATH".
    """

    nu: float
    eps: float
    symbol: str
    n: int
    dim: int
    dt: float
    t_end: float
    ic: str
    alpha: float = float("nan")
    mu: float = 1.0
    box_length: float = 2.0 * math.pi
    output_every: int = 10
    seed: int = 0
    sigma: float = 2.0
    k_c: float = 3.0
    amplitude: float = 0.5
    eta: float = 0.5

    def __post_init__(self):
        for key, val in vars(self).items():
            # an unset alpha is NaN: only power symbols need one
            if isinstance(val, float) and not math.isfinite(val) and not (
                    key == "alpha" and math.isnan(val)):
                raise ConfigError(f"{key} must be finite, got {val}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.k_c > 0:
            raise ConfigError(f"k_c must be positive, got {self.k_c}")
        if not self.amplitude > 0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude}")
        if not self.nu > 0:
            raise ConfigError(f"nu must be positive, got {self.nu}")
        if self.eps < 0:
            raise ConfigError(f"eps must be nonnegative, got {self.eps}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"n must be even and >= 4, got {self.n}")
        if self.dim not in (2, 3):
            raise ConfigError(f"dim must be 2 or 3, got {self.dim}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(f"t_end / dt = {steps:g} must round to a "
                              "finite step count of at least 1")
        if not self.box_length > 0:
            raise ConfigError(f"box_length must be positive, got {self.box_length}")
        if self.output_every < 1:
            raise ConfigError("output_every must be a positive integer")
        if not 0 < self.eta < 1:
            raise ConfigError(f"eta must lie in (0,1), got {self.eta}")
        kind = self.symbol.split(":", 1)[0]
        if kind not in ("power", "kernel", "table"):
            raise ConfigError(f"unknown symbol kind {self.symbol!r}")
        if kind == "power":
            if math.isnan(self.alpha):
                raise ConfigError("symbol=power requires alpha")
            if not self.alpha > 1:
                raise ConfigError(
                    f"alpha must exceed 1 for power symbols (got {self.alpha}); "
                    "use plain viscosity nu for Laplacian-order dissipation")
            if not self.mu > 0:
                raise ConfigError(f"mu must be positive, got {self.mu}")
        elif ":" not in self.symbol:
            raise ConfigError(f"symbol {self.symbol!r} needs a :PATH argument")
        ic_kind = self.ic.split(":", 1)[0]
        if ic_kind not in PRESETS and ic_kind != "snapshot":
            raise ConfigError(f"unknown initial condition {self.ic!r}")

    def build_lattice(self) -> WavenumberLattice:
        return WavenumberLattice(self.n, self.dim, self.box_length)

    def build_symbol(self, lattice: WavenumberLattice | None = None):
        lattice = lattice or self.build_lattice()
        kind, _, arg = self.symbol.partition(":")
        if kind == "power":
            return _symbols.power_symbol(lattice, self.mu, self.alpha)
        if kind == "table":
            return _symbols.tabulated_symbol(lattice, arg)
        # kernel:PATH tabulates c_hat (same CSV layout), shared by all directions
        c_hat = _symbols.load_symbol_table(lattice, arg)
        return _symbols.kernel_symbol(lattice, [c_hat] * lattice.dim)


_KEY_TYPES = {
    "nu": float, "eps": float, "alpha": float, "mu": float,
    "symbol": str, "n": int, "dim": int, "box_length": float,
    "dt": float, "t_end": float, "output_every": int, "ic": str,
    "seed": int, "sigma": float, "k_c": float, "amplitude": float,
    "eta": float,
}
_REQUIRED = ("nu", "eps", "symbol", "n", "dim", "dt", "t_end", "ic")


def parse_config(text: str) -> SimConfig:
    """Parse UTF-8 key=value lines with '#' comments into a SimConfig.

    Unknown and duplicate keys are errors; error messages name the line.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {val!r} as "
                f"{_KEY_TYPES[key].__name__} for key {key!r}") from None
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    # a preset names its dimension; a SimConfig built in code may still
    # pair them otherwise, and initial_condition then refuses it
    preset_dim = {"taylor-green-2d": 2, "taylor-green-3d": 3}.get(values["ic"])
    if preset_dim not in (None, values["dim"]):
        raise ConfigError(f"ic = {values['ic']} needs dim = {preset_dim}, "
                          f"got dim = {values['dim']}")
    return SimConfig(**values)


def canonical_text(cfg: SimConfig) -> str:
    """Canonical key=value echo; re-parsing it reproduces an identical config."""
    lines = []
    for key in sorted(_KEY_TYPES):
        val = getattr(cfg, key)
        if isinstance(val, float):
            if math.isnan(val):
                continue
            lines.append(f"{key}={val:.17g}")
        else:
            lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: SimConfig) -> str:
    """Stable content hash of the canonicalized config text."""
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
