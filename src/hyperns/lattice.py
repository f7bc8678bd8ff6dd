"""Spectral substrate: wavenumber lattice, transforms, projection, norms.

Conventions fixed here and used by every other module:

* forward transform: ``u_hat(kappa) = (1/n^dim) * sum_x u(x) exp(-i k.x)``,
  so a unit-amplitude cosine carries coefficient 1/2 at +/-kappa; the one
  transform pair is ``forward``/``inverse`` (``rfftn``/``irfftn``);
* Parseval: ``||u||_L2^2 = L^dim * sum_k |u_hat(k)|^2``;
* the mean mode u_hat(0) is pinned to zero;
* Nyquist rows (kappa_i = -n/2) are zeroed on construction of any
  velocity field;
* dealiasing keeps |kappa_i| < n/3 (Orszag's two-thirds rule); with
  ``dealiased=True`` the transforms skip the 1-D FFTs whose lines lie
  outside that band, in numpy's own axis order, so they match the full
  ``rfftn``/``irfftn`` bit for bit on the band.

Velocity fields, snapshots and every public function use the full layout:
coefficients of shape (dim, n, ..., n) in ``numpy.fft.fftn`` order.  The
transforms and the time stepper work in the ``rfftn`` half layout, which
keeps only the modes 0 <= kappa_last <= n/2 of the last axis (n/2 + 1
entries, ``numpy.fft.rfftfreq`` order); the other half follows from
Hermitian symmetry u_hat(-kappa) = conj(u_hat(kappa)).  Only this module
relates the layouts (:func:`negate_kappa`, ``half``, ``full_layout``,
``pinned_modes``) or calls ``numpy.fft``; it also holds the half layout's
arrays (``half_*``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DIV_TOL = 1e-12
HERMITIAN_TOL = 1e-12


def negate_kappa(a: np.ndarray, dim: int) -> np.ndarray:
    """a(-kappa) on the last ``dim`` >= 1 axes (fftfreq order), in one copy:
    index 0 maps to itself, 1..n-1 to n-1..1.  Leading axes ride along."""
    out = np.empty_like(a)
    parts = ((slice(0, 1),) * 2, (slice(1, None), slice(None, 0, -1)))
    for combo in itertools.product(parts, repeat=dim):
        dst, src = zip(*combo)
        out[(...,) + dst] = a[(...,) + src]
    return out


@dataclass(frozen=True)
class WavenumberLattice:
    """Discrete frequency grid of the periodic box [0, L)^dim.

    Integer modes kappa have components in [-n/2, n/2); the physical
    wavenumber is k = (2*pi/L) * kappa.
    """

    n_per_dim: int
    dim: int
    box_length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n_per_dim < 4 or self.n_per_dim % 2 != 0:
            raise ValueError(
                f"n_per_dim must be even and >= 4, got {self.n_per_dim}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def k_unit(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def grid_shape(self) -> tuple:
        return (self.n_per_dim,) * self.dim

    @property
    def n_modes(self) -> int:
        return self.n_per_dim ** self.dim

    @cached_property
    def kappa(self) -> np.ndarray:
        """Integer wavevectors, shape (dim, n, ..., n)."""
        n = self.n_per_dim
        per_axis = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        grids = np.meshgrid(*([per_axis] * self.dim), indexing="ij")
        return np.stack(grids)

    @cached_property
    def k(self) -> np.ndarray:
        """Physical wavevectors k = k_unit * kappa."""
        return self.k_unit * self.kappa

    @cached_property
    def k_sq(self) -> np.ndarray:
        return np.sum(self.k ** 2, axis=0)

    @cached_property
    def k_sq_pinned(self) -> np.ndarray:
        """|k|^2 with the (pinned) mean mode set to 1, a Leray divisor."""
        ksq = self.k_sq.copy()
        ksq[(0,) * self.dim] = 1.0
        return ksq

    @cached_property
    def k_mag(self) -> np.ndarray:
        return np.sqrt(self.k_sq)

    @property
    def dealias_limit(self) -> int:
        """Largest kept |kappa_i| under the two-thirds rule |kappa_i| < n/3:
        the sum of two kept modes then never aliases into the band."""
        return (self.n_per_dim - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        lim = self.dealias_limit
        return np.all(np.abs(self.kappa) <= lim, axis=0)

    @cached_property
    def pinned_modes(self) -> dict:
        """Name -> grid index of the modes velocity fields hold at zero:
        the mean mode and each Nyquist row kappa_i = -n/2."""
        rows = {f"Nyquist row kappa_{ax + 1} = -n/2":
                (slice(None),) * ax + (self.n_per_dim // 2,)
                for ax in range(self.dim)}
        return {"mean mode": (0,) * self.dim, **rows}

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Integer shell of each mode: shell s holds s-1/2 < |kappa| <= s+1/2."""
        r = self.k_mag / self.k_unit
        return np.ceil(r - 0.5).astype(np.int64)

    # -- rfftn half layout --------------------------------------------------

    @property
    def half_modes(self) -> int:
        """Entries n/2 + 1 of the last axis in the half layout."""
        return self.n_per_dim // 2 + 1

    def half(self, a: np.ndarray) -> np.ndarray:
        """The half-layout view of a full-layout array (any leading axes)."""
        return a[..., :self.half_modes]

    def full_layout(self, h: np.ndarray) -> np.ndarray:
        """Full layout of half-layout coefficients (any leading axes): the
        kappa_last = 0 plane, which holds both kappa and -kappa, is
        symmetrized, and the omitted half is filled by conjugation
        u_hat(-kappa) = conj(u_hat(kappa)).  Hermitian by construction when
        the pinned kappa_last = n/2 plane is zero, as in velocity fields."""
        m = self.half_modes
        out = np.empty(h.shape[:-1] + (self.n_per_dim,), dtype=np.complex128)
        out[..., :m] = h
        plane = out[..., 0]
        plane += np.conj(negate_kappa(plane, self.dim - 1))
        plane *= 0.5
        # full modes n/2+1..n-1 of the last axis are the negatives of
        # 1..n/2-1; that axis moves in front of the ones negated
        pos = np.moveaxis(h[..., m - 2:0:-1], -1, 0)
        np.conjugate(negate_kappa(pos, self.dim - 1),
                     out=np.moveaxis(out[..., m:], -1, 0))
        return out

    @cached_property
    def half_k(self) -> np.ndarray:
        return np.ascontiguousarray(self.half(self.k))

    @cached_property
    def half_k_sq(self) -> np.ndarray:
        return np.ascontiguousarray(self.half(self.k_sq))

    @cached_property
    def half_leray(self) -> np.ndarray:
        """k / |k|^2 in the half layout, zero at the mean mode."""
        return self.half_k / self.half(self.k_sq_pinned)

    @cached_property
    def half_dealias_k(self) -> np.ndarray:
        """k on the kept modes of the two-thirds rule, zero elsewhere."""
        return self.half_k * self.half(self.dealias_mask)

    @cached_property
    def x(self) -> np.ndarray:
        """Physical grid coordinates, shape (dim, n, ..., n)."""
        n = self.n_per_dim
        ax = np.arange(n) * (self.box_length / n)
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack(grids)

    # -- transforms -------------------------------------------------------

    def _grid_axes(self, a: np.ndarray, shape: tuple) -> tuple:
        if a.shape[-self.dim:] != shape:
            raise ValueError(
                f"array shape {a.shape} does not match lattice grid {shape}")
        return tuple(range(-self.dim, 0))

    @property
    def _band_rows(self) -> tuple:
        """The kept rows of a full-layout axis under the two-thirds rule, as
        two basic slices: kappa = 0..lim and kappa = -lim..-1."""
        n, lim = self.n_per_dim, self.dealias_limit
        return slice(0, lim + 1), slice(n - lim, n)

    def forward(self, phys: np.ndarray, *, dealiased: bool = False
                ) -> np.ndarray:
        """Real field -> half-layout coefficients (1/n^dim normalization).

        ``dealiased=True`` transforms only what the two-thirds rule keeps:
        equal to the full transform bit for bit on the band, +0.0 elsewhere.
        """
        axes = self._grid_axes(phys, self.grid_shape)
        if not dealiased:
            return np.fft.rfftn(phys, axes=axes, norm="forward")
        # rfftn's own axis order, last axis first, on the kept lines only
        n, lim = self.n_per_dim, self.dealias_limit
        h = np.fft.rfft(phys, axis=-1, norm="forward")
        kept = h[..., :lim + 1]
        np.fft.fft(kept, axis=-2, norm="forward", out=kept)
        if self.dim == 3:
            for rows in self._band_rows:
                lines = h[..., rows, :lim + 1]
                np.fft.fft(lines, axis=-3, norm="forward", out=lines)
        h[..., lim + 1:] = 0.0
        cut = slice(lim + 1, n - lim)
        for after in range(1, self.dim):
            h[(..., cut) + (slice(None),) * after] = 0.0
        return h

    def inverse(self, h: np.ndarray, *, dealiased: bool = False
                ) -> np.ndarray:
        """Half-layout coefficients -> real field (leading axes ride along).

        ``dealiased=True`` reads only the modes the two-thirds rule keeps:
        the result is that of ``h`` times the dealias mask, and equal to the
        full transform bit for bit when ``h`` is zero off the band.
        """
        axes = self._grid_axes(h, self.grid_shape[:-1] + (self.half_modes,))
        if not dealiased:
            return np.fft.irfftn(h, s=self.grid_shape, axes=axes,
                                 norm="forward")
        # irfftn's own axis order, first axis first, on the kept lines only
        lim = self.dealias_limit
        band = self._band_rows
        work = np.zeros(h.shape, dtype=np.complex128)
        for rows in itertools.product(band, repeat=self.dim - 1):
            idx = (...,) + rows + (slice(0, lim + 1),)
            work[idx] = h[idx]
        if self.dim == 3:
            for rows in band:
                lines = work[..., rows, :lim + 1]
                np.fft.ifft(lines, axis=-3, norm="forward", out=lines)
        kept = work[..., :lim + 1]
        np.fft.ifft(kept, axis=-2, norm="forward", out=kept)
        return np.fft.irfft(work, n=self.n_per_dim, axis=-1, norm="forward")


def hermitian_defect(coeffs: np.ndarray, dim: int) -> float:
    """Max deviation from u_hat(-kappa) = conj(u_hat(kappa)), relative."""
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        return 0.0
    d = np.max(np.abs(coeffs - np.conj(negate_kappa(coeffs, dim))))
    return float(d / scale)


@dataclass
class SpectralVelocity:
    """Divergence-free velocity field stored as Fourier coefficients.

    ``coeffs`` has shape (dim, n, ..., n).  Construction pins the mean
    mode to zero and zeroes the Nyquist rows; it does not project, so
    divergence-freeness is the caller's responsibility (checked by
    :meth:`divergence_max`).
    """

    lattice: WavenumberLattice
    coeffs: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        lat = self.lattice
        expected = (lat.dim,) + lat.grid_shape
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != expected:
            raise ValueError(
                f"coefficient shape {c.shape} does not match lattice {expected}")
        if c is self.coeffs:
            c = c.copy()
        for idx in lat.pinned_modes.values():
            c[(slice(None),) + idx] = 0.0
        self.coeffs = c

    def copy(self) -> "SpectralVelocity":
        # construction copies the array it is given
        return SpectralVelocity(self.lattice, self.coeffs, self.t)

    def to_physical(self) -> np.ndarray:
        """The real field; raises on a Hermitian defect above HERMITIAN_TOL."""
        defect = self.hermitian_defect()
        if defect > HERMITIAN_TOL:
            raise ValueError(f"non-Hermitian spectral input: defect "
                             f"{defect:.3e} relative")
        return self.lattice.inverse(self.lattice.half(self.coeffs))

    @classmethod
    def from_physical(cls, lattice: WavenumberLattice, phys: np.ndarray,
                      t: float = 0.0) -> "SpectralVelocity":
        return cls(lattice, lattice.full_layout(lattice.forward(phys)), t)

    def l2_norm(self) -> float:
        lat = self.lattice
        return float(np.sqrt(
            lat.box_length ** lat.dim * np.sum(np.abs(self.coeffs) ** 2)))

    def energy(self) -> float:
        return 0.5 * self.l2_norm() ** 2

    def mag2(self) -> np.ndarray:
        """Sum over components of |u_hat|^2 per mode, shape (n, ..., n).

        The one per-mode reduction the energy, spectrum, defect, Sobolev and
        divergence sums are taken over; computed anew on every call.
        """
        return np.sum(np.abs(self.coeffs) ** 2, axis=0)

    def divergence_max(self) -> float:
        """Relative divergence ||k.u_hat||_2 / || |k| u_hat ||_2.

        A ratio of sums over all modes, so modes at roundoff level weigh
        by their size, and a field that is divergence-free in closed form
        but transformed in floating point reads at roundoff.
        """
        lat = self.lattice
        num = np.sum(np.abs(np.sum(lat.k * self.coeffs, axis=0)) ** 2)
        den = np.sum(lat.k_sq * self.mag2())
        if den == 0:
            return 0.0
        return float(np.sqrt(num / den))

    def hermitian_defect(self) -> float:
        return hermitian_defect(self.coeffs, self.lattice.dim)


@dataclass(frozen=True)
class SobolevIndex:
    """Regularity order for discrete Sobolev norms."""

    s: float
    variant: str = "homogeneous"

    def __post_init__(self):
        if self.variant not in ("homogeneous", "inhomogeneous"):
            raise ValueError(f"unknown Sobolev variant {self.variant!r}")
        if not np.isfinite(self.s):
            raise ValueError("Sobolev order must be finite")


def build_lattice(n_per_dim: int, dim: int,
                  box_length: float = 2.0 * np.pi) -> WavenumberLattice:
    return WavenumberLattice(n_per_dim, dim, box_length)


def leray_project(v: SpectralVelocity) -> SpectralVelocity:
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    lat = v.lattice
    k = lat.k
    kdotu = np.sum(k * v.coeffs, axis=0)
    out = v.coeffs - k * (kdotu / lat.k_sq_pinned)
    return SpectralVelocity(lat, out, v.t)


def dealias(v: SpectralVelocity) -> SpectralVelocity:
    """Zero all modes with any |kappa_i| >= n/3."""
    return SpectralVelocity(v.lattice, v.coeffs * v.lattice.dealias_mask, v.t)


def sobolev_norm(u: SpectralVelocity, index: SobolevIndex) -> float:
    """Discrete H^s norm with the Parseval L^dim weight.

    homogeneous:   (sum_k |k|^{2s} |u_hat|^2 L^dim)^{1/2}, k=0 skipped;
    inhomogeneous: same with weight (1+|k|^2)^s.
    """
    return _sobolev_norm(u.lattice, u.mag2(), index)


def _sobolev_norm(lat: WavenumberLattice, mag2: np.ndarray,
                  index: SobolevIndex) -> float:
    """:func:`sobolev_norm` of a field given its per-mode |u_hat|^2."""
    if index.variant == "homogeneous":
        w = np.zeros(lat.grid_shape)
        nz = lat.k_sq > 0
        w[nz] = lat.k_sq[nz] ** index.s
    else:
        w = (1.0 + lat.k_sq) ** index.s
    return float(np.sqrt(lat.box_length ** lat.dim * np.sum(w * mag2)))


def inner_product(u: SpectralVelocity, v: SpectralVelocity) -> float:
    """L^2 inner product in the spectral Parseval convention."""
    if u.lattice != v.lattice:
        raise ValueError("lattice mismatch in inner product")
    lat = u.lattice
    return float(lat.box_length ** lat.dim
                 * np.sum((u.coeffs * np.conj(v.coeffs)).real))
