"""Energy accounting, spectra, crossover and dissipation-defect analysis."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SpectralVelocity
from .symbols import MultiplierSymbol, classify


@dataclass
class DiagnosticsRecord:
    """One sample's energy accounting; a series' residual is energy_budget's."""

    t: float
    energy: float
    enstrophy: float
    visc_dissipation_rate: float
    hyper_dissipation_rate: float
    shell_spectrum: np.ndarray  # E(k_s) per integer shell, index = shell


def make_record(state, nu: float, eps: float,
                sym: MultiplierSymbol) -> DiagnosticsRecord:
    """Energy accounting of one sampled state.

    ``state`` is a :class:`hyperns.dynamics.TrajectoryState`; only its
    ``t``, ``mag2`` and ``lattice`` are read, never its full-layout field
    ``u``, which a run's states have at the start and the final state
    only.  Every sum here, the shell spectrum included, is taken over its
    ``mag2``.
    """
    lat = state.lattice
    vol = lat.volume
    mag2 = state.mag2
    energy = 0.5 * vol * float(np.sum(mag2))
    grad_sq = vol * float(np.sum(lat.k_sq * mag2))
    hyper = vol * float(np.sum(sym.m * mag2))
    return DiagnosticsRecord(
        t=state.t,
        energy=energy,
        enstrophy=0.5 * grad_sq,
        visc_dissipation_rate=nu * grad_sq,
        hyper_dissipation_rate=eps * hyper,
        shell_spectrum=_shell_energies(lat, mag2),
    )


def _shell_energies(lat, mag2: np.ndarray) -> np.ndarray:
    """E(k_s) per integer shell of a per-mode |u_hat|^2 array."""
    shells = lat.shell_index
    n_shell = int(shells.max()) + 1
    return np.bincount(shells.ravel(),
                       weights=(0.5 * lat.volume * mag2).ravel(),
                       minlength=n_shell)


def shell_spectrum(u: SpectralVelocity):
    """Shell-averaged spectrum: E(k_s) over integer shells.

    Shell s collects modes with s-1/2 < |k|/k_unit <= s+1/2; the shells
    partition all modes, so sum_s E(k_s) equals the total energy exactly.
    """
    e = _shell_energies(u.lattice, u.mag2())
    return np.arange(e.size, dtype=float), e


def energy_budget(records: list) -> np.ndarray:
    """Cumulative budget residual per sample, relative to E(0).

    residual(t0, t_i) = |E(t_i) - E(t0) + int (nu ||grad u||^2
    + eps <Mu,u>) dt| / E(0), trapezoid rule on the recorded samples,
    undivided if E(0) = 0.  ValueError unless the time stamps are finite
    and strictly increasing and no energy or dissipation rate is negative.
    """
    t = np.array([r.t for r in records])
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite time stamp in diagnostics series")
    if not np.all(np.diff(t) > 0):
        raise ValueError("non-monotone time stamps in diagnostics series")
    cols = np.array([(r.energy, r.visc_dissipation_rate,
                      r.hyper_dissipation_rate) for r in records])
    if np.any(cols < 0):
        raise ValueError("negative energy or dissipation rate in "
                         "diagnostics series")
    e, rate = cols[:, 0], cols[:, 1] + cols[:, 2]
    integral = np.zeros_like(rate)
    integral[1:] = np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t))
    residual = np.abs(e - e[0] + integral)
    return residual / e[0] if e[0] > 0 else residual


def crossover_frequency(nu: float, eps: float, alpha: float) -> float:
    """R_eps = (nu/eps)^(1/(2 alpha - 2)); infinite for eps = 0."""
    if eps == 0:
        return math.inf
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return (nu / eps) ** (1.0 / (2.0 * alpha - 2.0))


@dataclass
class DefectSplit:
    """Low/high split of the time-integrated weighted hyperdissipation."""

    eta: float
    crossover: float
    low: float
    high: float
    bound_rhs: float
    bound_constant: float
    bound_origin: str  # "exact-power" or "envelope-derived"


class DefectSplitSink:
    """Run sink splitting eps * int <Mu,u> dt at the frequency eta * R_eps.

    Keeps each sample's low and high sums and the record's ||grad u||^2,
    not its state; :meth:`result` integrates them by the trapezoid rule.
    The certified bound uses C = mu for power symbols; otherwise the
    envelope constant c1_hat from the classifier, flagged
    "envelope-derived".
    """

    def __init__(self, sym: MultiplierSymbol, nu: float, eps: float,
                 eta: float):
        if not 0 < eta < 1:
            raise ValueError(f"eta must lie in (0,1), got {eta}")
        if eps <= 0:
            raise ValueError("defect split requires eps > 0")
        lat = sym.lattice
        if sym.kind == "power":
            alpha, const, origin = sym.alpha, sym.mu, "exact-power"
        else:
            cls = classify(sym, (lat.k_unit, lat.k_dealias))
            if cls.tag != "hyperdissipative":
                raise ValueError(f"defect split needs a hyperdissipative "
                                 f"symbol, got {cls.tag}")
            alpha, const, origin = cls.alpha_hat, cls.c1_hat, "envelope-derived"
        self.sym, self.eps, self.eta = sym, eps, eta
        self.const, self.origin = const, origin
        self.bound_scale = const * eta ** (2.0 * alpha - 2.0) * nu
        self.crossover = crossover_frequency(nu, eps, alpha)
        self.low_mask = lat.k_mag <= eta * self.crossover
        self.rows = []  # (t, low, high, ||grad u||^2) per sample

    def __call__(self, state, record: DiagnosticsRecord) -> None:
        vol = self.sym.lattice.volume
        wm = self.sym.m * state.mag2
        # 2 * enstrophy undoes an exact scaling by 0.5: it is ||grad u||^2
        self.rows.append((float(state.t), vol * float(np.sum(wm[self.low_mask])),
                          vol * float(np.sum(wm[~self.low_mask])),
                          2.0 * record.enstrophy))

    def result(self) -> DefectSplit:
        ts, lo, hi, grad = np.array(self.rows).reshape(-1, 4).T
        bound = self.bound_scale * float(np.trapezoid(grad, ts))
        return DefectSplit(eta=self.eta, crossover=self.crossover,
                           low=self.eps * float(np.trapezoid(lo, ts)),
                           high=self.eps * float(np.trapezoid(hi, ts)),
                           bound_rhs=bound, bound_constant=self.const,
                           bound_origin=self.origin)


def defect_split(times, states, sym: MultiplierSymbol, nu: float, eps: float,
                 eta: float) -> DefectSplit:
    """:class:`DefectSplitSink` over SpectralVelocity samples at ``times``."""
    from .dynamics import TrajectoryState
    sink = DefectSplitSink(sym, nu, eps, eta)
    for i, (t, u) in enumerate(zip(times, states)):
        state = TrajectoryState(u=u, t=t, step_index=i)
        sink(state, make_record(state, nu, eps, sym))
    return sink.result()


def linear_damping_curve(nu: float, mu: float, alpha: float, k_list):
    """lambda_alpha(k) = nu k^2 + mu k^(2 alpha), one entry at a time.

    Each entry is ``nu * k**2 + mu * k**(2 alpha)`` in Python floats, so the
    power is the scalar libm ``pow`` and does not depend on numpy's SIMD
    dispatch (whose vector ``pow`` can be 1 ulp off, e.g. on AVX-512).
    The result has the shape of ``k_list``, including the 0-d case.
    ValueError on a negative or non-finite wavenumber, and on a non-finite
    nu, mu, alpha or rate.
    """
    k = np.asarray(k_list, dtype=float)
    if not np.all((k >= 0) & np.isfinite(k)):
        raise ValueError("wavenumbers must be nonnegative and finite")
    nu, mu, p = float(nu), float(mu), 2.0 * float(alpha)
    try:
        lam = [nu * x ** 2 + mu * x ** p for x in k.ravel().tolist()]
    except OverflowError:  # a power of Python floats raises, not inf
        lam = [math.inf]
    if not all(map(math.isfinite, [nu, mu, p] + lam)):
        raise ValueError(f"nu, mu, alpha and the rates must be finite, got "
                         f"nu={nu:g}, mu={mu:g}, alpha={alpha:g}")
    return np.array(lam, dtype=float).reshape(k.shape)


def mode_decay_curve(nu: float, mu: float, alpha: float, k0: float, t_list):
    """E_alpha(t; k0) = exp(-2 lambda_alpha(k0) t), with the damping rate
    and the argument checks of :func:`linear_damping_curve`."""
    t = np.asarray(t_list, dtype=float)
    if not np.all((t >= 0) & np.isfinite(t)):
        raise ValueError("times must be nonnegative and finite")
    rate = float(linear_damping_curve(nu, mu, alpha, k0))
    # np.exp, not math.exp: the two differ by an ulp at some t, and the
    # criterion-9 oracle is element-wise np.exp.
    return np.exp(-2.0 * rate * t)
