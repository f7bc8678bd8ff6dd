"""Prepackaged studies: scaling symmetry, vanishing-hyperdissipation sweeps,
exponent comparisons, and kernel-family classification."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig
from .diagnostics import DefectSplitSink, energy_budget
from .dynamics import NumericalError, initial_condition, nonlinear_term, run
from .lattice import (SobolevIndex, SpectralVelocity, WavenumberLattice,
                      sobolev_norm)
from .symbols import apply_multiplier, classify, kernel_symbol, power_symbol

TAIL_FRACTION_LIMIT = 1e-8


@dataclass
class SweepResult:
    """Outcome table of a one-parameter sweep."""

    parameter: str
    values: np.ndarray
    outcomes: dict
    slope: float | None = None
    intercept: float | None = None
    rms: float | None = None


def _dilate_modes(u: SpectralVelocity, lam: int, factor: float,
                  drop_tol: float = 0.0) -> SpectralVelocity:
    """Map mode kappa -> lam*kappa (same lattice) with an amplitude factor.

    Coefficients whose dilated index leaves the representable range raise,
    unless they fall below drop_tol relative to the largest coefficient
    (used to ignore FFT roundoff junk outside an exact support).
    """
    if lam < 1 or int(lam) != lam:
        raise ValueError(f"dilation factor must be a positive integer, got {lam}")
    lam = int(lam)
    lat = u.lattice
    n = lat.n_per_dim
    kap = lat.kappa
    in_range = np.all(np.abs(lam * kap) <= n // 2 - 1, axis=0)
    floor = drop_tol * np.max(np.abs(u.coeffs))
    support = np.any(np.abs(u.coeffs) > floor, axis=0)
    if np.any(support & ~in_range):
        raise ValueError(
            f"dilation by {lam} pushes occupied modes outside the lattice")
    new = np.zeros_like(u.coeffs)
    src = tuple((kap[d] % n)[in_range] for d in range(lat.dim))
    dst = tuple(((lam * kap[d]) % n)[in_range] for d in range(lat.dim))
    for c in range(lat.dim):
        new[c][dst] = factor * u.coeffs[c][src]
    return SpectralVelocity(lat, new, u.t)


def dilate(u: SpectralVelocity, lam: int, alpha: float) -> SpectralVelocity:
    """Spectral dilation u_hat(kappa) -> lam^{2 alpha - 1} u_hat at lam*kappa.

    The dilation maps the torus to itself lam-fold, so the returned field
    lives on the rescaled box of length L/lam; with that volume the L^2
    norm transforms exactly by the lattice-sum identity
    ``||dilate(u)||^2 = lam^(4 alpha - 2 - dim) ||u||^2``
    (dim=3 reproduces the continuum lam^(4 alpha - 5)).
    """
    lat = u.lattice
    shifted = _dilate_modes(u, lam, float(lam) ** (2.0 * alpha - 1.0))
    small = type(lat)(lat.n_per_dim, lat.dim, lat.box_length / lam)
    return SpectralVelocity(small, shifted.coeffs, u.t)


def dilation_norm_exponent(alpha: float, dim: int) -> float:
    """Exponent e with ||dilate(u)||_L2^2 = lam^e ||u||_L2^2."""
    return 4.0 * alpha - 2.0 - dim


def scaling_covariance_residual(u: SpectralVelocity, lam: int, alpha: float,
                                mu: float) -> float:
    """Discrete covariance check of the pure-power right-hand side.

    F(v) = -B(v) - mu M v with nu = 0; the residual compares F(dilate(u))
    against lam^{4 alpha - 1} times the plain dilation of F(u).  Requires
    the doubled, dilated frequency support to respect the dealias band.
    """
    lat = u.lattice
    sym = power_symbol(lat, mu, alpha)

    def rhs(v: SpectralVelocity) -> SpectralVelocity:
        b = nonlinear_term(v)
        mv = apply_multiplier(sym, v)
        return SpectralVelocity(lat, -b.coeffs - mv.coeffs, v.t)

    lim = lat.dealias_limit
    floor = 1e-13 * np.max(np.abs(u.coeffs))
    support = np.any(np.abs(u.coeffs) > floor, axis=0)
    kmax = int(np.max(np.abs(lat.kappa[:, support]))) if support.any() else 0
    if 2 * lam * kmax > lim:
        raise ValueError(
            f"doubled dilated support 2*{lam}*{kmax} exceeds dealias band {lim}")

    # both sides evaluated on u's lattice: the identity is stated in the
    # original frequency units, so only the mode relabeling enters here
    lhs = rhs(_dilate_modes(u, lam, float(lam) ** (2.0 * alpha - 1.0),
                            drop_tol=1e-13))
    ref = _dilate_modes(rhs(u), lam, 1.0, drop_tol=1e-13)
    scale = float(lam) ** (4.0 * alpha - 1.0)
    num = np.sqrt(np.sum(np.abs(lhs.coeffs - scale * ref.coeffs) ** 2))
    den = np.sqrt(np.sum(np.abs(lhs.coeffs) ** 2))
    if den == 0:
        return float(num)
    return float(num / den)


def spectral_tail_fraction(spectrum: np.ndarray,
                           lattice: WavenumberLattice) -> float:
    """Energy fraction in the top third of resolved shells.

    ``spectrum`` is E(k_s) per integer shell on ``lattice``, as in a
    record's ``shell_spectrum``.
    """
    total = float(np.sum(spectrum))
    if total == 0:
        return 0.0
    radii = np.arange(spectrum.size, dtype=float)
    cut = 2.0 * lattice.dealias_limit / 3.0
    return float(np.sum(spectrum[radii > cut]) / total)


def sweep_eps_values(eps_list) -> list:
    """Sorted eps values for a rate fit: >= 4, positive, two decades wide."""
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 4:
        raise ValueError(f"need >= 4 eps values for a rate fit, got {len(eps_list)}")
    if not all(0.0 < e < np.inf for e in eps_list):
        raise ValueError("eps values must be positive and finite")
    if eps_list[-1] / eps_list[0] < 100.0:
        raise ValueError("eps_list must span at least two decades")
    return eps_list


def sweep_eps_inputs(base_cfg: SimConfig, eps_list, s: float, T: float):
    """The checked arguments of a sweep, built before any run.

    Returns (the eps values of sweep_eps_values, the config with t_end = T,
    the inhomogeneous H^{s-1} index); ValueError on a bad argument, an s
    whose H^{s-1} weight overflows or underflows to 0 on the lattice too.
    """
    eps_values, cfg_T = sweep_eps_values(eps_list), replace(base_cfg, t_end=T)
    idx, lat = SobolevIndex(s - 1.0, "inhomogeneous"), cfg_T.build_lattice()
    # sobolev_norm's weight: 1 at k = 0, most extreme where all kappa_i = -n/2
    k_sq_max = lat.dim * (lat.k_unit * lat.n_per_dim / 2) ** 2
    with np.errstate(over="ignore", under="ignore"):
        w = (1.0 + np.float64(k_sq_max)) ** idx.s
    if not 0 < w < np.inf:
        raise ValueError(f"s = {s:g}: the weight (1+|k|^2)^(s-1) overflows "
                         "or underflows to 0 on this lattice")
    return eps_values, cfg_T, idx


def _check_resolved(state, record) -> None:
    """Run sink: NumericalError at the first under-resolved sample."""
    tail = spectral_tail_fraction(record.shell_spectrum, state.u.lattice)
    if tail > TAIL_FRACTION_LIMIT:
        raise NumericalError(
            f"reference run loses resolution at t={state.t:.4f}: "
            f"tail fraction {tail:.3e} > {TAIL_FRACTION_LIMIT}", state=state)


def vanishing_eps_sweep(base_cfg: SimConfig, eps_list, s: float, T: float,
                        max_workers: int | None = None) -> SweepResult:
    """Fit the convergence rate of u^eps toward the eps=0 reference.

    Checks its arguments (sweep_eps_inputs), builds the symbol and the
    initial condition all runs share, runs the eps=0 reference, then each
    eps of sweep_eps_values(eps_list); err(eps) = sup over samples of the
    inhomogeneous H^{s-1} distance.  All runs share dt and output_every,
    so their samples align by index; the reference keeps the band of each
    sample, and a distance is that of the field of the band difference.
    NumericalError if the reference's spectral tail fraction exceeds 1e-8,
    the discrete stand-in for smoothness on [0, T], or at the first err(eps)
    that is 0 or not finite, which the log-log fit cannot take.
    ``max_workers`` is ignored: the runs go one by one in the calling thread.
    """
    eps_list, cfg_T, idx = sweep_eps_inputs(base_cfg, eps_list, s, T)
    sym = cfg_T.build_symbol()
    lat = sym.lattice
    u0 = initial_condition(cfg_T, lat)
    ref = []
    run(replace(cfg_T, eps=0.0),
        sinks=(_check_resolved, lambda st, rec: ref.append(st.band)),
        symbol=sym, u0=u0)

    def one(eps):
        errs = []

        def distance(state, record):
            # summed over the full layout: a sum over the band or the half
            # layout can be an ulp off the full-layout sum
            errs.append(sobolev_norm(SpectralVelocity.from_band(
                lat, state.band - ref[len(errs)], state.t), idx))

        run(replace(cfg_T, eps=eps), sinks=(distance,), symbol=sym, u0=u0)
        err = float(np.max(errs))
        if not 0 < err < np.inf:
            raise NumericalError(f"sup_error {err!r} at eps={eps!r} is not "
                                 "positive and finite, as the rate fit needs")
        return err

    errors = [one(eps) for eps in eps_list]
    log_e, log_err = np.log(eps_list), np.log(errors)
    slope, intercept = np.polyfit(log_e, log_err, 1)
    rms = float(np.sqrt(np.mean((log_err - (slope * log_e + intercept)) ** 2)))
    return SweepResult(
        parameter="eps", values=np.asarray(eps_list),
        outcomes={"sup_error": np.asarray(errors)},
        slope=float(slope), intercept=float(intercept), rms=rms)


def alpha_comparison(base_cfg: SimConfig, alpha_list,
                     eps: float) -> SweepResult:
    """Run identical data across dissipation orders and tabulate outcomes.

    Per alpha, in the given order: sup_t enstrophy, time-integrated
    hyperdissipation, final shell spectrum, and the defect split at the
    configured eta.  The initial condition all alphas share is built once,
    first, and its failure is raised; per-alpha failures are reported
    without aborting.
    """
    alpha_list = [float(a) for a in alpha_list]
    u0 = initial_condition(base_cfg, base_cfg.build_lattice())

    def one(alpha):
        try:
            cfg = replace(base_cfg, symbol="power", alpha=alpha, eps=eps)
            sym = cfg.build_symbol()
            sinks = ()
            if eps > 0:
                sinks = (DefectSplitSink(sym, cfg.nu, eps, cfg.eta),)
            _, records = run(cfg, sinks=sinks, symbol=sym, u0=u0)
        except (NumericalError, ValueError) as err:  # report, keep going
            return {"error": f"{type(err).__name__}: {err}"}
        times = np.array([r.t for r in records])
        hyper = np.array([r.hyper_dissipation_rate for r in records])
        out = {
            "sup_enstrophy": float(max(r.enstrophy for r in records)),
            "total_hyperdissipation": float(np.trapezoid(hyper, times)),
            "final_spectrum": records[-1].shell_spectrum,
            "error": None,
        }
        if sinks:
            out["defect"] = sinks[0].result()
        return out

    results = [one(a) for a in alpha_list]
    outcomes: dict = {key: [r.get(key) for r in results]
                      for key in ("sup_enstrophy", "total_hyperdissipation",
                                  "final_spectrum", "defect", "error")}
    return SweepResult(parameter="alpha", values=np.asarray(alpha_list),
                       outcomes=outcomes)


def kernel_interpolation_study(base_cfg: SimConfig, families) -> list:
    """Classify a family of kernel-induced symbols; run the admissible ones.

    ``families`` is a list of (name, builder) pairs, builder(lattice) ->
    list of c_hat arrays (one per direction).  Inadmissible kernels are
    reported as refused, not fatal.  Hyperdissipative members get a short
    run whose budget residual demonstrates end-to-end pluggability.
    """
    if len(families) < 3:
        raise ValueError("need a family of >= 3 kernels")
    lattice = base_cfg.build_lattice()
    band = (lattice.k_unit, lattice.k_dealias)
    u0 = initial_condition(base_cfg, lattice)
    report = []
    for name, builder in families:
        entry = {"name": name, "refused": False, "classification": None,
                 "budget_residual": None}
        try:
            sym = kernel_symbol(lattice, builder(lattice))
        except ValueError as err:
            entry.update(refused=True, reason=str(err))
        else:
            cls = entry["classification"] = classify(sym, band)
            if cls.tag == "hyperdissipative":
                # sampled every step: the residual is a trapezoid over samples
                _, records = run(replace(base_cfg, output_every=1), symbol=sym,
                                 u0=u0)
                entry["budget_residual"] = float(np.max(energy_budget(records)))
        report.append(entry)
    return report
