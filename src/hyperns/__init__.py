"""Pseudospectral solver and diagnostics for incompressible Navier-Stokes
with an additional nonlocal dissipative Fourier-multiplier term."""

__version__ = "0.1.0"

from .lattice import (SobolevIndex, SpectralVelocity, WavenumberLattice,
                      dealias, inner_product, leray_project, sobolev_norm)
from .symbols import (MultiplierSymbol, SymbolClass, apply_multiplier,
                      classify, first_order_symbol, kernel_symbol,
                      power_symbol, tabulated_symbol)
from .config import ConfigError, SimConfig, canonical_text, config_hash, parse_config
from .dynamics import (CFLError, NumericalError, Stepper, TrajectoryState,
                       linear_propagator, nonlinear_term, run, smallness_probe)
from .diagnostics import (DefectSplit, DefectSplitSink, DiagnosticsRecord,
                          crossover_frequency, defect_split, energy_budget,
                          linear_damping_curve, mode_decay_curve,
                          shell_spectrum)
from .experiments import (SweepResult, alpha_comparison, dilate,
                          dilation_norm_exponent, kernel_interpolation_study,
                          scaling_covariance_residual, vanishing_eps_sweep)
from .snapshot import SnapshotError, read_snapshot, write_snapshot
