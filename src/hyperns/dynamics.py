"""Galerkin-truncated hyperdissipative Navier-Stokes dynamics.

Time stepping is integrating-factor RK4: the stiff diagonal linear part
exp(-(nu k^2 + eps m(k)) t) is applied exactly, classical RK4 handles the
dealiased pseudospectral nonlinear term.  A step runs on raw coefficient
arrays in the two-thirds band layout (see :mod:`hyperns.lattice` and
:class:`Stepper`).  A trajectory is its projected band array from its
start to its end.  A sample reads the state's ``t``, ``band``, ``mag2``
and ``lattice``; the full-layout field ``u`` exists at the start and at
the final state only, which :func:`run` asks the last step to build.  A
start with content off the band is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import SimConfig
from .diagnostics import DiagnosticsRecord, make_record
from .lattice import (SobolevIndex, SpectralVelocity, WavenumberLattice,
                      _sobolev_norm, dealias, leray_project)
from .symbols import MultiplierSymbol

CFL_LIMIT = 1.5
_PAIRS = {dim: tuple((i, j) for i in range(dim) for j in range(i, dim))
          for dim in (2, 3)}


class NumericalError(RuntimeError):
    """Runtime failure of the integrator (NaN, CFL breach).

    Carries the last good state and any records collected so far.
    """

    def __init__(self, msg, state=None, records=None):
        super().__init__(msg)
        self.state = state
        self.records = records or []


class CFLError(NumericalError):
    def __init__(self, cfl, dt_admissible, state=None):
        super().__init__(
            f"advective CFL {cfl:.3f} exceeds {CFL_LIMIT}; "
            f"admissible dt <= {dt_admissible:.6e}", state=state)
        self.dt_admissible = dt_admissible


@dataclass
class TrajectoryState:
    """A state of a trajectory at time ``t``, after ``step_index`` steps.

    ``band`` holds the field's band-layout coefficients, all that a step
    reads; the field is zero off the band.  A sink reads ``t``, ``band``,
    ``mag2`` and ``lattice``.  ``u``, the full-layout field, exists at the
    start and at the final state of a run only; everywhere else it is
    None.  A state built from a field takes the field's lattice.  A
    trajectory's state gets its band from a field in :meth:`start` only;
    a state made just to be recorded (:func:`make_record`) needs none.
    """

    u: SpectralVelocity | None
    t: float
    step_index: int
    cfl_estimate: float = 0.0
    band: np.ndarray | None = None
    lattice: WavenumberLattice | None = None

    def __post_init__(self):
        if self.lattice is None:
            self.lattice = self.u.lattice

    @classmethod
    def start(cls, u: SpectralVelocity) -> "TrajectoryState":
        """The state a trajectory starts from: ``u``, unmodified, at its own
        time tag, with its band; ``WavenumberLattice.band_of`` refuses, with
        a ValueError, a ``u`` with anything off the band."""
        return cls(u=u, t=u.t, step_index=0, band=u.lattice.band_of(u.coeffs))

    @cached_property
    def mag2(self) -> np.ndarray:
        """The field's per-mode |u_hat|^2 in the full layout, computed on
        first use and kept: ``u.mag2()`` where there is a ``u``, else
        ``lattice.mag2_of_band(band)``, the same floats.

        :func:`run` samples a shallow copy of the state, so the array is
        shared by the record and the sinks of one sample and dies with it.
        """
        if self.u is not None:
            return self.u.mag2()
        return self.lattice.mag2_of_band(self.band)


def _band_nonlinear(lat: WavenumberLattice, b: np.ndarray):
    """Dealiased, projected div(u tensor u) / i of band-layout coefficients.

    Returns (d, phys): B(u) = i d in the band layout, and the physical
    velocity field of u.  One inverse transform of the field, scattered
    into the half layout, and one forward transform, straight to the band,
    of each product u_i u_j, which enters rows i and j.
    """
    d = np.zeros_like(b)
    # the array stays positional: the benchmark's tracer counts the points
    # of args[1]
    phys = lat.inverse(lat.scatter_band(b))
    pairs = _PAIRS[lat.dim]
    prod = np.empty((len(pairs),) + lat.grid_shape)
    for p, (i, j) in enumerate(pairs):
        np.multiply(phys[i], phys[j], out=prod[p])
    t = lat.forward(prod)
    k = lat.band_k
    for p, (i, j) in enumerate(pairs):
        d[i] += k[j] * t[p]
        if i != j:
            d[j] += k[i] * t[p]
    # Leray projection d - k (k.d) / |k|^2
    d -= lat.band_leray * np.sum(k * d, axis=0)
    return d, phys


def nonlinear_term(u: SpectralVelocity) -> SpectralVelocity:
    """B(u) = dealias(P(div(u tensor u))), computed pseudospectrally.

    Only the two-thirds band of the input is read, so ``nonlinear_term(u)``
    is B(dealias(u)).  The input is expected divergence-free and Hermitian;
    the output is dealiased, both of those, and exactly energy-neutral
    under the two-thirds rule.  This is the kernel the time stepper runs.
    """
    lat = u.lattice
    d, _ = _band_nonlinear(lat, lat.gather_band(u.coeffs))
    d *= 1j
    return SpectralVelocity.from_band(lat, d, u.t)


def _decay(k_sq: np.ndarray, m: np.ndarray, nu: float, eps: float,
           dt: float) -> np.ndarray:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return np.exp(-(nu * k_sq + eps * m) * dt)


def linear_propagator(sym: MultiplierSymbol, nu: float, eps: float,
                      dt: float) -> np.ndarray:
    """Pointwise decay factors exp(-(nu k^2 + eps m(k)) dt)."""
    return _decay(sym.lattice.k_sq, sym.m, nu, eps, dt)


class Stepper:
    """One-trajectory integrator on its symbol's lattice, with precomputed
    propagators.

    A step reads only the band of its state (the band layout of
    :mod:`hyperns.lattice`) and runs the four nonlinear stages, their RK
    combinations and the Leray projection on band arrays.  A stage scatters
    its input into the half layout only for the inverse transform; the
    forward transform of the products gives the band.  The new band is
    the band times the full-step propagator plus the stages' RK increment.

    Every step returns the new band projected.  A step that is not a
    run's final one, sampled or not, projects it by
    :meth:`~hyperns.lattice.WavenumberLattice.project_band` and builds no
    full-layout field.  The final step also returns the full-layout field,
    projected by :func:`~hyperns.lattice.leray_project`, and gathers its
    band from that field; the two projections agree bit for bit on the
    band.  So a sink reads a state's ``t``, ``band``, ``mag2`` and
    ``lattice``, and ``u`` exists at the start and the final state only.
    """

    def __init__(self, sym: MultiplierSymbol, nu: float, eps: float,
                 dt: float):
        self.lattice = lattice = sym.lattice
        self.dt = dt
        k_sq = lattice.gather_band(lattice.k_sq)
        m = lattice.gather_band(sym.m)
        self.e_full_band = _decay(k_sq, m, nu, eps, dt)
        self.e_half_band = _decay(k_sq, m, nu, eps, dt / 2.0)

    def _rhs(self, b: np.ndarray):
        """-B of band-layout coefficients, and the physical velocity."""
        d, phys = _band_nonlinear(self.lattice, b)
        d *= -1j
        return d, phys

    def cfl(self, phys: np.ndarray) -> float:
        """Advective CFL number of a physical velocity field."""
        # sqrt is monotone and correctly rounded: the root of the maximum
        # is the maximum of the roots
        vmax = math.sqrt(float(np.max(np.sum(phys ** 2, axis=0))))
        return self.dt * vmax * self.lattice.k_dealias

    def step(self, state: TrajectoryState,
             final: bool = True) -> TrajectoryState:
        """The state one step on from ``state.band``: a projected band
        array, and the full-layout field ``u`` too if ``final``.  Either way
        a sink can read its ``t``, ``band``, ``mag2`` and ``lattice``."""
        dt = self.dt
        lat = self.lattice
        b0 = state.band
        e1, e2 = self.e_half_band, self.e_full_band
        n1, phys = self._rhs(b0)
        # the first stage's physical field is the state's own
        cfl = self.cfl(phys)
        # read for the CFL number only: freed, it is not held through the
        # other three stages
        del phys
        if cfl > CFL_LIMIT:
            raise CFLError(cfl, dt * CFL_LIMIT / cfl, state=state)
        n2 = self._rhs(e1 * (b0 + 0.5 * dt * n1))[0]
        n3 = self._rhs(e1 * b0 + 0.5 * dt * n2)[0]
        n4 = self._rhs(e2 * b0 + dt * e1 * n3)[0]
        c1 = e2 * b0 + (dt / 6.0) * (e2 * n1 + 2.0 * e1 * (n2 + n3) + n4)
        if not np.all(np.isfinite(c1)):
            raise NumericalError("NaN/Inf in solution after step",
                                 state=state)
        t1 = state.t + dt
        # the projections guard against roundoff drift of the analytic
        # invariants
        if final:
            u = leray_project(SpectralVelocity.from_band(lat, c1, t1))
            band = lat.gather_band(u.coeffs)
        else:
            u, band = None, lat.project_band(c1)
        return TrajectoryState(u, t1, state.step_index + 1, cfl, band, lat)


def taylor_green(lattice: WavenumberLattice, t: float = 0.0) -> SpectralVelocity:
    """Classical Taylor-Green vortex on the box (2-D or 3-D), projected on
    the band: ``leray_project(from_physical(...))`` bit for bit."""
    ku, n = lattice.k_unit, lattice.n_per_dim
    ax = np.arange(n) * (lattice.box_length / n)
    x = np.meshgrid(*([ax] * lattice.dim), indexing="ij", sparse=True)
    phys = np.zeros((lattice.dim,) + lattice.grid_shape)
    if lattice.dim == 2:
        phys[0] = np.sin(ku * x[0]) * np.cos(ku * x[1])
        phys[1] = -np.cos(ku * x[0]) * np.sin(ku * x[1])
    else:
        phys[0] = np.sin(ku * x[0]) * np.cos(ku * x[1]) * np.cos(ku * x[2])
        phys[1] = -np.cos(ku * x[0]) * np.sin(ku * x[1]) * np.cos(ku * x[2])
    b = lattice.project_band(lattice.forward(phys))
    return SpectralVelocity.from_band(lattice, b, t)


def random_field(lattice: WavenumberLattice, seed: int, sigma: float,
                 k_c: float, amplitude: float) -> SpectralVelocity:
    """Divergence-free Gaussian field with |u_hat| ~ |k|^sigma exp(-|k|^2/k_c^2).

    Seeded and zero-mean; the band of the noise's transform, weighed by the
    profile, is projected on the band and scaled to the requested L^2 norm
    (``amplitude``): the full-layout construction's floats.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((lattice.dim,) + lattice.grid_shape)
    b = lattice.gather_band(SpectralVelocity.from_physical(lattice,
                                                           noise).coeffs)
    r = lattice.gather_band(lattice.k_mag)  # |k| on the band
    # a k_c so small that k_c**2 underflows weighs every mode exp(-inf) = 0;
    # a non-finite weight is refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        profile = np.where(r > 0, r ** sigma * np.exp(-r ** 2 / k_c ** 2), 0.0)
    if not np.all(np.isfinite(profile)):
        raise NumericalError("degenerate random field: spectral profile "
                             f"overflows (sigma={sigma:g}, k_c={k_c:g})")
    u = SpectralVelocity.from_band(lattice, lattice.project_band(b * profile))
    norm = u.l2_norm()
    if not (norm > 0 and math.isfinite(amplitude / norm)):
        raise NumericalError(f"degenerate random field: L2 norm {norm:.3e} "
                             f"cannot be scaled to amplitude {amplitude:g}")
    u.coeffs *= amplitude / norm
    return u


def initial_condition(cfg: SimConfig,
                      lattice: WavenumberLattice) -> SpectralVelocity:
    """A generated start projected on the band, or a snapshot dealiased."""
    kind, _, arg = cfg.ic.partition(":")
    if kind == "random":
        return random_field(lattice, cfg.seed, cfg.sigma, cfg.k_c,
                            cfg.amplitude)
    if kind == "snapshot":
        from .snapshot import read_snapshot
        u, _ = read_snapshot(arg, lattice)
        return dealias(u)  # a snapshot may hold modes off the band
    # SimConfig has refused an unknown ic and a preset of another dimension
    return taylor_green(lattice)


def run(cfg: SimConfig, sinks=(), *, symbol: MultiplierSymbol | None = None,
        u0: SpectralVelocity | None = None):
    """Integrate from t0 (0 or the start's time tag) to t0 + t_end.

    Returns (final state, records).  ``symbol`` and ``u0``, if given,
    replace the configured symbol and initial condition: a study builds
    once what all its runs share.  Both must lie on the config's lattice,
    and ``u0`` is not modified.  ``sinks`` are callables invoked as
    sink(state, record) at every sample (every ``output_every`` steps, plus
    the initial and final states).  The record and the sinks of one sample
    share that state's ``mag2``, computed once.  The trajectory is a band
    array (:meth:`Stepper.step`): a sink reads a state's ``t``, ``band``,
    ``mag2`` and ``lattice``, and ``u`` exists at the start and at the
    final state only, which the last step builds.  A start with content
    off the band is refused with a ValueError
    (:meth:`TrajectoryState.start`) before any step or sink call.  On a
    numerical failure the partial series is attached to the raised
    :class:`NumericalError`, whose state may be a band state with no
    ``u``.  A series' budget residual is ``energy_budget(records)``.
    """
    sym = cfg.build_symbol() if symbol is None else symbol
    # the symbol's lattice already holds the cached wavevector arrays
    lattice = sym.lattice
    for what, given in (("symbol", sym), ("u0", u0)):
        if given is not None and given.lattice != cfg.build_lattice():
            raise ValueError(f"{what} lattice {given.lattice} does not "
                             "match config lattice")
    if u0 is None:
        u0 = initial_condition(cfg, lattice)
    # the stepper's arrays come before the start's band: this order of
    # allocations keeps glibc's heap trimmed after 3-D samples, which the
    # time of the final snapshot write follows (CHANGES.md)
    stepper = Stepper(sym, cfg.nu, cfg.eps, cfg.dt)
    n_steps = int(round(cfg.t_end / cfg.dt))
    # snapshot initial conditions resume from their stored time tag
    state = TrajectoryState.start(u0)
    records: list[DiagnosticsRecord] = []

    def sample(st):
        # a copy: its cached mag2 must not ride on into the next step
        st = replace(st)
        rec = make_record(st, cfg.nu, cfg.eps, sym)
        records.append(rec)
        for sink in sinks:
            sink(st, rec)

    sample(state)
    for i in range(n_steps):
        final = i + 1 == n_steps
        try:
            state = stepper.step(state, final)
        except NumericalError as err:
            err.records = records
            raise
        if final or (i + 1) % cfg.output_every == 0:
            sample(state)
    return state, records


@dataclass
class SmallnessReport:
    """Runtime probe of the small-data regime."""

    s: float
    h_s_initial: float
    max_ratio: float
    small_data: bool


def smallness_probe(cfg: SimConfig, s: float) -> SmallnessReport:
    """Monitor ||u(t)||_{H^s} / ||u0||_{H^s} over a run.

    Flags the small-data regime when the ratio never exceeds 2.  Requires
    s > 5/2 for dim=3 (s > 2 for 2-D desk runs).
    """
    s_min = 2.5 if cfg.dim == 3 else 2.0
    if not s > s_min:
        raise ValueError(f"smallness probe needs s > {s_min} for dim={cfg.dim}")
    idx = SobolevIndex(s, "inhomogeneous")
    norms = []

    def sink(state, rec):
        norms.append(_sobolev_norm(state.lattice, state.mag2, idx))

    run(cfg, sinks=(sink,))
    h0 = norms[0]
    if h0 == 0:
        return SmallnessReport(s, 0.0, 0.0, True)
    ratio = max(n / h0 for n in norms)
    return SmallnessReport(s, h0, ratio, ratio <= 2.0)
