"""Nonlocal dissipation symbols: constructors, classification, application.

A multiplier is stored as the raw symbol ell(k) of the extra linear term.
:class:`MultiplierSymbol` derives its dissipative part m(k) = Re(-ell(k))
and is the one place a symbol is refused: a non-finite ell, an m that goes
negative, or an m that is not even in k.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .lattice import SpectralVelocity, WavenumberLattice, negate_kappa

NEGATIVITY_TOL = 1e-12


@dataclass(frozen=True)
class MultiplierSymbol:
    """Fourier multiplier of the extra dissipative term.

    ``ell`` is the raw symbol (the operator acts as ell(k) * u_hat(k)), kept
    as the constructor built it; ``m = max(Re(-ell), 0)`` is the
    nonnegative dissipative part, derived on construction.  ``kind``
    records the constructor ("power", "kernel", "first-order",
    "tabulated") and ``params`` its arguments.
    """

    lattice: WavenumberLattice
    ell: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)
    m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.ell)):
            raise ValueError("non-finite symbol: NaN or Inf in ell")
        m = np.negative(self.ell.real)
        if np.min(m) < -NEGATIVITY_TOL:
            raise ValueError(f"non-dissipative symbol: negative dissipative "
                             f"part, min m = {np.min(m):.3e}")
        np.maximum(m, 0.0, out=m)
        defect = np.max(np.abs(m - negate_kappa(m, self.lattice.dim)))
        if defect > 1e-10 * max(np.max(m), 1.0):
            raise ValueError("dissipative part is not even in k")
        object.__setattr__(self, "m", m)

    @property
    def mu(self):
        return self.params.get("mu")

    @property
    def alpha(self):
        return self.params.get("alpha")


def check_power_law(mu: float, alpha: float) -> None:
    """The arguments of :func:`power_symbol`: mu > 0 and alpha > 1."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1 (got {alpha}); use plain "
                         "viscosity nu for Laplacian-order dissipation")


def power_symbol(lattice: WavenumberLattice, mu: float,
                 alpha: float) -> MultiplierSymbol:
    """m(k) = mu * |k|^{2 alpha}; requires mu > 0 and alpha > 1."""
    check_power_law(mu, alpha)
    # built in place, as m is below: grid-sized temporaries at set-up raised
    # the peak RSS of 3-D runs.  An overflow to inf is refused by the symbol.
    with np.errstate(over="ignore"):
        ell = lattice.k_mag ** (2.0 * alpha)
        ell *= -mu
    return MultiplierSymbol(lattice, ell, "power", {"mu": mu, "alpha": alpha})


def kernel_symbol(lattice: WavenumberLattice,
                  c_hats: list) -> MultiplierSymbol:
    """Symbol of a second-derivative convolution term.

    ``c_hats`` gives one transform array per direction; the raw symbol is
    ell(k) = -sum_j k_j^2 c_hat_j(k), so m(k) = sum_j k_j^2 Re c_hat_j(k).
    """
    if len(c_hats) != lattice.dim:
        raise ValueError(
            f"expected {lattice.dim} kernel transforms, got {len(c_hats)}")
    ell = np.zeros(lattice.grid_shape, dtype=np.complex128)
    for j, c_hat in enumerate(c_hats):
        c_hat = np.asarray(c_hat)
        if c_hat.shape != lattice.grid_shape:
            raise ValueError("kernel transform shape does not match lattice")
        ell -= lattice.k[j] ** 2 * c_hat
    return MultiplierSymbol(lattice, ell, "kernel", {})


def first_order_symbol(lattice: WavenumberLattice, b_hat: np.ndarray,
                       direction: int) -> MultiplierSymbol:
    """Raw multiplier ell(k) = i k_j b_hat(k) of a first-order convolution.

    ``b_hat`` must be real and even (the real-even kernel case); the
    dissipative part is identically zero.
    """
    b_hat = np.asarray(b_hat)
    if b_hat.shape != lattice.grid_shape:
        raise ValueError("b_hat shape does not match lattice")
    if np.iscomplexobj(b_hat) and np.max(np.abs(b_hat.imag)) > 1e-12:
        raise ValueError("b_hat must be real")
    b_hat = b_hat.real.astype(np.float64)
    scale = max(np.max(np.abs(b_hat)), 1.0)
    if np.max(np.abs(b_hat - negate_kappa(b_hat, lattice.dim))) > 1e-12 * scale:
        raise ValueError("b_hat must be even: b_hat(-k) = b_hat(k)")
    if not 0 <= direction < lattice.dim:
        raise ValueError(f"direction {direction} out of range")
    ell = 1j * lattice.k[direction] * b_hat
    return MultiplierSymbol(lattice, ell, "first-order",
                            {"direction": direction})


def load_symbol_table(lattice: WavenumberLattice, path) -> np.ndarray:
    """Read a CSV table (header k1,k2,k3,re_ell,im_ell) onto the lattice.

    A table whose rows all have k2 = k3 = 0 is per-shell: one row per
    shell, with k1 the radius, and each mode picks the nearest shell.  Any
    other table is per-mode: one row per lattice mode, matched by integer
    kappa, every mode exactly once.  Wavenumbers, and the radius of a
    per-shell row, must be finite; on a 2-D lattice every k3 must be zero.
    Returns the raw complex values per mode with no sign validation.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
                "k1", "k2", "k3", "re_ell", "im_ell"]:
            raise ValueError(
                f"{path}: expected header k1,k2,k3,re_ell,im_ell")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no symbol rows")
    if any(len(row) != 5 for row in rows):
        raise ValueError(f"{path}: every row needs 5 fields")
    data = np.asarray(rows)
    if not np.all(np.isfinite(data[:, :3])):
        raise ValueError(f"{path}: non-finite wavenumber")
    if lattice.dim == 2 and np.any(data[:, 2] != 0):
        raise ValueError(f"{path}: nonzero k3 on a 2-D lattice")
    k = data[:, :lattice.dim]
    # complex(re, im), not re + 1j * im: 1j * inf has a NaN real part
    ell_vals = np.vectorize(complex)(data[:, 3], data[:, 4])
    if np.any(data[:, 1:3] != 0):
        ell = np.zeros(lattice.grid_shape, dtype=np.complex128)
        n = lattice.n_per_dim
        # an overflow to inf lies outside the lattice, refused below
        with np.errstate(over="ignore"):
            kap = np.rint(k / lattice.k_unit)
        if np.any(np.abs(kap) > n // 2):
            raise ValueError(f"{path}: mode outside the lattice")
        idx = tuple(kap.T.astype(np.int64) % n)
        modes = np.unique(np.ravel_multi_index(idx, lattice.grid_shape))
        if len(rows) != lattice.n_modes or modes.size != lattice.n_modes:
            raise ValueError(
                f"{path}: rows do not cover every lattice mode exactly once "
                "(a table with a nonzero k2 or k3 is per-mode)")
        ell[idx] = ell_vals
    else:
        # a huge finite wavenumber overflows its radius, refused below
        with np.errstate(over="ignore"):
            radii = np.sqrt(np.sum(k ** 2, axis=1)) / lattice.k_unit
        if not np.all(np.isfinite(radii)):
            raise ValueError(f"{path}: wavenumber radius overflows")
        order = np.argsort(radii)
        radii, ell_vals = radii[order], ell_vals[order]
        shell_r = lattice.k_mag.ravel() / lattice.k_unit
        pos = np.searchsorted(radii, shell_r)
        pos = np.clip(pos, 1, len(radii) - 1)
        left, right = radii[pos - 1], radii[pos]
        nearest = np.where(shell_r - left <= right - shell_r, pos - 1, pos)
        ell = ell_vals[nearest].reshape(lattice.grid_shape)
    return ell


def tabulated_symbol(lattice: WavenumberLattice, path) -> MultiplierSymbol:
    """Load a raw multiplier ell(k) from CSV (see :func:`load_symbol_table`)."""
    return MultiplierSymbol(lattice, load_symbol_table(lattice, path),
                            "tabulated", {"path": str(path)})


@dataclass(frozen=True)
class SymbolClass:
    """Classification of a raw multiplier over a wavenumber band."""

    tag: str  # order_zero | first_order_imaginary | hyperdissipative | unclassified
    alpha_hat: float | None = None
    c0_hat: float | None = None
    c1_hat: float | None = None
    fit_residual: float = float("nan")


def _loglog_fit(k_vals, y_vals):
    """Least-squares slope of log y vs log k; returns (slope, rms)."""
    lk, ly = np.log(k_vals), np.log(y_vals)
    slope, intercept = np.polyfit(lk, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lk + intercept)) ** 2)))
    return float(slope), rms


def classify(sym: MultiplierSymbol, band: tuple) -> SymbolClass:
    """Classify a multiplier by its shell-extremum growth over a band.

    ``band`` is (k_min, k_max) in physical wavenumber.  Requires >= 8
    distinct shells inside the dealias band.
    """
    ell, m, lattice = sym.ell, sym.m, sym.lattice
    k_min, k_max = band
    if not k_min < k_max:
        raise ValueError(f"empty band ({k_min}, {k_max})")

    shells = lattice.shell_index
    in_band = (lattice.dealias_mask
               & (lattice.k_mag >= k_min) & (lattice.k_mag <= k_max)
               & (shells > 0))
    shell_ids = np.unique(shells[in_band])
    if len(shell_ids) < 8:
        raise ValueError(
            f"band ({k_min}, {k_max}) holds only {len(shell_ids)} shells; need >= 8")

    abs_ell = np.abs(ell)
    # per-shell extrema paired with the |k| attaining them, so an exact
    # power law regresses to its exponent exactly
    abs_max, abs_k = [], []
    m_max, m_k = [], []
    for s in shell_ids:
        sel = in_band & (shells == s)
        kk = lattice.k_mag[sel]
        ia = np.argmax(abs_ell[sel])
        im = np.argmax(m[sel])
        abs_max.append(abs_ell[sel][ia])
        abs_k.append(kk[ia])
        m_max.append(m[sel][im])
        m_k.append(kk[im])
    abs_max, abs_k = np.asarray(abs_max), np.asarray(abs_k)
    m_max, m_k = np.asarray(m_max), np.asarray(m_k)

    re_max = float(np.max(np.abs(ell[in_band].real)))
    if re_max <= 1e-12 and np.all(abs_max > 0):
        slope, rms = _loglog_fit(abs_k, abs_max)
        if abs(slope - 1.0) <= 0.1:
            return SymbolClass("first_order_imaginary", fit_residual=rms)

    if np.min(m[in_band]) > 0:
        slope, rms = _loglog_fit(m_k, m_max)
        alpha_hat = slope / 2.0
        # margin above the Laplacian order, mirroring the 0.1 slope
        # tolerance used for the order-zero / first-order calls
        if alpha_hat > 1.05:
            kk = lattice.k_mag[in_band]
            mm = m[in_band]
            c0_hat = float(np.min(mm / kk ** (2.0 * alpha_hat)))
            c1_hat = float(np.max(mm / (1.0 + kk ** (2.0 * alpha_hat))))
            return SymbolClass("hyperdissipative", alpha_hat=alpha_hat,
                               c0_hat=c0_hat, c1_hat=c1_hat, fit_residual=rms)

    if np.all(abs_max > 0):
        slope, rms = _loglog_fit(abs_k, abs_max)
        if slope < 0.1:
            return SymbolClass("order_zero", fit_residual=rms)
        return SymbolClass("unclassified", fit_residual=rms)
    return SymbolClass("order_zero" if np.max(abs_max) == 0 else "unclassified")


def apply_multiplier(sym: MultiplierSymbol,
                     u: SpectralVelocity) -> SpectralVelocity:
    """Apply M: each component is multiplied pointwise by m(k)."""
    if sym.lattice != u.lattice:
        raise ValueError("symbol and field live on different lattices")
    return SpectralVelocity(u.lattice, u.coeffs * sym.m, u.t)
