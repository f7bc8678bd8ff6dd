"""Run configuration: key=value parsing, validation, canonical echo, hashing."""
from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import MISSING, dataclass, fields

from .lattice import WavenumberLattice
from . import symbols as _symbols


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# each Taylor-Green preset names the dimension it needs
PRESET_DIMS = {"taylor-green-2d": 2, "taylor-green-3d": 3}
PRESETS = (*PRESET_DIMS, "random")


def check_preset_dim(ic: str, dim: int) -> None:
    """ConfigError if ``ic`` is a preset of another dimension than ``dim``."""
    need = PRESET_DIMS.get(ic)
    if need not in (None, dim):
        raise ConfigError(f"ic = {ic} needs dim = {need}, got dim = {dim}")


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
        check_preset_dim(self.ic, self.dim)
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
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(f"t_end / dt = {steps:g} must round to a "
                              "finite step count of at least 1")
        if self.output_every < 1:
            raise ConfigError("output_every must be a positive integer")
        if not 0 < self.eta < 1:
            raise ConfigError(f"eta must lie in (0,1), got {self.eta}")
        kind = self.symbol.split(":", 1)[0]
        if kind not in ("power", "kernel", "table"):
            raise ConfigError(f"unknown symbol kind {self.symbol!r}")
        if kind == "power" and math.isnan(self.alpha):
            raise ConfigError("symbol=power requires alpha")
        if kind != "power" and ":" not in self.symbol:
            raise ConfigError(f"symbol {self.symbol!r} needs a :PATH argument")
        ic_kind = self.ic.split(":", 1)[0]
        if ic_kind not in PRESETS and ic_kind != "snapshot":
            raise ConfigError(f"unknown initial condition {self.ic!r}")
        # the lattice and the power law state their own rules
        try:
            self.build_lattice()
            if kind == "power":
                _symbols.check_power_law(self.mu, self.alpha)
        except ValueError as err:
            raise ConfigError(str(err)) from None

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


# the config keys are SimConfig's fields; the required ones have no default
_KEY_TYPES = typing.get_type_hints(SimConfig)
_REQUIRED = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)


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
