"""Galerkin-truncated hyperdissipative Navier-Stokes dynamics.

Time stepping is integrating-factor RK4: the stiff diagonal linear part
exp(-(nu k^2 + eps m(k)) t) is applied exactly, classical RK4 handles the
dealiased pseudospectral nonlinear term.  A step runs on raw coefficient
arrays in the rfftn half layout (see :mod:`hyperns.lattice`) and returns
the new state in the full layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import SimConfig
from .diagnostics import DiagnosticsRecord, attach_budget_residuals, make_record
from .lattice import (SobolevIndex, SpectralVelocity, WavenumberLattice,
                      _sobolev_norm, dealias, leray_project)
from .symbols import MultiplierSymbol

CFL_LIMIT = 1.5


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
    u: SpectralVelocity
    t: float
    step_index: int
    cfl_estimate: float = 0.0

    @cached_property
    def mag2(self) -> np.ndarray:
        """The field's per-mode |u_hat|^2, computed on first use and kept.

        :func:`run` samples a shallow copy of the state, so the array is
        shared by the record and the sinks of one sample and dies with it.
        """
        return self.u.mag2()


def _half_nonlinear(lat: WavenumberLattice, h: np.ndarray):
    """Dealiased, projected div(u tensor u) / i of half-layout coefficients.

    Returns (d, phys): B(dealias(u)) = i d, and the physical velocity field
    of dealias(u).  One band inverse transform of the field and one band
    forward transform of each product u_i u_j, whose transform enters rows
    i and j: only the two-thirds band of ``h`` is read, and only the band
    of the products is computed.
    """
    dim = lat.dim
    # the array stays positional: the benchmark's tracer counts the points
    # of args[1]
    phys = lat.inverse(h, dealiased=True)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    prod = np.empty((len(pairs),) + lat.grid_shape)
    for p, (i, j) in enumerate(pairs):
        np.multiply(phys[i], phys[j], out=prod[p])
    t = lat.forward(prod, dealiased=True)
    k = lat.half_dealias_k
    d = np.zeros_like(h)
    for p, (i, j) in enumerate(pairs):
        d[i] += k[j] * t[p]
        if i != j:
            d[j] += k[i] * t[p]
    # Leray projection d - k (k.d) / |k|^2
    d -= lat.half_leray * np.sum(lat.half_k * d, axis=0)
    return d, phys


def nonlinear_term(u: SpectralVelocity) -> SpectralVelocity:
    """B(u) = dealias(P(div(u tensor u))), computed pseudospectrally.

    Only the two-thirds band of the input's half layout is read, so
    ``nonlinear_term(u)`` is B(dealias(u)).  The input is expected
    divergence-free and Hermitian; the output is dealiased, both of those,
    and exactly energy-neutral under the two-thirds rule.  This is the
    kernel the time stepper runs.
    """
    lat = u.lattice
    d, _ = _half_nonlinear(lat, lat.half(u.coeffs))
    d *= 1j
    return SpectralVelocity(lat, lat.full_layout(d), u.t)


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
    half-layout propagators.

    The nonlinear stages read only the two-thirds band of their input, as
    :func:`nonlinear_term` does: a state that is not dealiased is advected
    as dealias(u), while the propagator decays every mode.
    """

    def __init__(self, sym: MultiplierSymbol, nu: float, eps: float,
                 dt: float, nonlinear: bool = True):
        self.lattice = lattice = sym.lattice
        self.sym = sym
        self.nu = nu
        self.eps = eps
        self.dt = dt
        self.nonlinear = nonlinear
        m = lattice.half(sym.m)
        self.e_half = _decay(lattice.half_k_sq, m, nu, eps, dt / 2.0)
        self.e_full = _decay(lattice.half_k_sq, m, nu, eps, dt)
        self.k_max = lattice.k_unit * lattice.dealias_limit

    def _rhs(self, h: np.ndarray):
        """-B of half-layout coefficients, and the physical velocity."""
        if not self.nonlinear:
            return np.zeros_like(h), None
        d, phys = _half_nonlinear(self.lattice, h)
        d *= -1j
        return d, phys

    def cfl(self, phys: np.ndarray) -> float:
        """Advective CFL number of a physical velocity field."""
        vmax = float(np.max(np.sqrt(np.sum(phys ** 2, axis=0))))
        return self.dt * vmax * self.k_max

    def step(self, state: TrajectoryState) -> TrajectoryState:
        dt = self.dt
        lat = self.lattice
        c0 = lat.half(state.u.coeffs)
        e1, e2 = self.e_half, self.e_full
        n1, phys = self._rhs(c0)
        cfl = 0.0
        if self.nonlinear:
            # the first stage's physical field is the state's own
            cfl = self.cfl(phys)
            if cfl > CFL_LIMIT:
                raise CFLError(cfl, dt * CFL_LIMIT / cfl, state=state)
        n2 = self._rhs(e1 * (c0 + 0.5 * dt * n1))[0]
        n3 = self._rhs(e1 * c0 + 0.5 * dt * n2)[0]
        n4 = self._rhs(e2 * c0 + dt * e1 * n3)[0]
        c1 = e2 * c0 + (dt / 6.0) * (e2 * n1 + 2.0 * e1 * (n2 + n3) + n4)
        if not np.all(np.isfinite(c1)):
            raise NumericalError("NaN/Inf in solution after step",
                                 state=state)
        # guard against roundoff drift of the analytic invariants
        t1 = state.t + dt
        u1 = leray_project(SpectralVelocity(lat, lat.full_layout(c1), t1))
        return TrajectoryState(u=u1, t=t1, step_index=state.step_index + 1,
                               cfl_estimate=cfl)


def taylor_green(lattice: WavenumberLattice, t: float = 0.0) -> SpectralVelocity:
    """Classical Taylor-Green vortex on the box (2-D or 3-D)."""
    ku = lattice.k_unit
    x = lattice.x
    phys = np.zeros((lattice.dim,) + lattice.grid_shape)
    if lattice.dim == 2:
        phys[0] = np.sin(ku * x[0]) * np.cos(ku * x[1])
        phys[1] = -np.cos(ku * x[0]) * np.sin(ku * x[1])
    else:
        phys[0] = np.sin(ku * x[0]) * np.cos(ku * x[1]) * np.cos(ku * x[2])
        phys[1] = -np.cos(ku * x[0]) * np.sin(ku * x[1]) * np.cos(ku * x[2])
    return SpectralVelocity.from_physical(lattice, phys, t)


def random_field(lattice: WavenumberLattice, seed: int, sigma: float,
                 k_c: float, amplitude: float) -> SpectralVelocity:
    """Divergence-free Gaussian field with |u_hat| ~ |k|^sigma exp(-|k|^2/k_c^2).

    Bandlimited, zero-mean, seeded; the result is scaled to the requested
    L^2 norm (``amplitude``).
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((lattice.dim,) + lattice.grid_shape)
    coeffs = lattice.full_layout(lattice.forward(noise))
    kmag = lattice.k_mag
    profile = np.zeros(lattice.grid_shape)
    nz = kmag > 0
    # a k_c so small that k_c**2 underflows weighs every mode exp(-inf) = 0;
    # a non-finite weight is refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        profile[nz] = kmag[nz] ** sigma * np.exp(-kmag[nz] ** 2 / k_c ** 2)
    if not np.all(np.isfinite(profile)):
        raise NumericalError("degenerate random field: spectral profile "
                             f"overflows (sigma={sigma:g}, k_c={k_c:g})")
    u = SpectralVelocity(lattice, coeffs * profile)
    u = dealias(leray_project(u))
    norm = u.l2_norm()
    if not (norm > 0 and math.isfinite(amplitude / norm)):
        raise NumericalError(f"degenerate random field: L2 norm {norm:.3e} "
                             f"cannot be scaled to amplitude {amplitude:g}")
    u.coeffs *= amplitude / norm
    return u


def initial_condition(cfg: SimConfig,
                      lattice: WavenumberLattice) -> SpectralVelocity:
    kind, _, arg = cfg.ic.partition(":")
    if kind == "taylor-green-2d":
        if lattice.dim != 2:
            raise ValueError("taylor-green-2d needs dim=2")
        u = taylor_green(lattice)
    elif kind == "taylor-green-3d":
        if lattice.dim != 3:
            raise ValueError("taylor-green-3d needs dim=3")
        u = taylor_green(lattice)
    elif kind == "random":
        u = random_field(lattice, cfg.seed, cfg.sigma, cfg.k_c, cfg.amplitude)
    elif kind == "snapshot":
        from .snapshot import read_snapshot
        u, _ = read_snapshot(arg, lattice)
        return dealias(u)
    else:
        raise ValueError(f"unknown initial condition {cfg.ic!r}")
    return dealias(leray_project(u))


def run(cfg: SimConfig, sinks=(), *, symbol: MultiplierSymbol | None = None):
    """Integrate from t0 (0 or a snapshot's time tag) to t0 + t_end.

    Returns (final state, records).  ``symbol``, if given, replaces the
    configured one.  ``sinks`` are callables invoked as sink(state, record)
    at every sample (every ``output_every`` steps, plus the initial and
    final states).  The record and the sinks of one sample share that
    state's ``mag2``, computed once.  Budget residuals are attached to the
    records after the loop.  On a numerical failure the partial series is
    attached to the raised :class:`NumericalError`.
    """
    sym = cfg.build_symbol() if symbol is None else symbol
    # the symbol's lattice already holds the cached wavevector arrays
    lattice = sym.lattice
    if lattice != cfg.build_lattice():
        raise ValueError(
            f"symbol lattice {lattice} does not match config lattice")
    u0 = initial_condition(cfg, lattice)
    stepper = Stepper(sym, cfg.nu, cfg.eps, cfg.dt)
    n_steps = int(round(cfg.t_end / cfg.dt))
    # snapshot initial conditions resume from their stored time tag
    state = TrajectoryState(u=u0, t=u0.t, step_index=0)
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
        try:
            state = stepper.step(state)
        except NumericalError as err:
            attach_budget_residuals(records)
            err.records = records
            raise
        if (i + 1) % cfg.output_every == 0 or i + 1 == n_steps:
            sample(state)
    attach_budget_residuals(records)
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
        norms.append(_sobolev_norm(state.u.lattice, state.mag2, idx))

    run(cfg, sinks=(sink,))
    h0 = norms[0]
    if h0 == 0:
        return SmallnessReport(s, 0.0, 0.0, True)
    ratio = max(n / h0 for n in norms)
    return SmallnessReport(s, h0, ratio, ratio <= 2.0)
