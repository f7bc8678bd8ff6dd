"""Spectral substrate: wavenumber lattice, transforms, projection, norms.

Conventions fixed here and used by every other module:

* forward transform: ``u_hat(kappa) = (1/n^dim) * sum_x u(x) exp(-i k.x)``,
  so a unit-amplitude cosine carries coefficient 1/2 at +/-kappa; the one
  transform pair is ``forward``/``inverse``, numpy's ``rfftn``/``irfftn``
  pruned to the band below;
* Parseval: ``||u||_L2^2 = L^dim * sum_k |u_hat(k)|^2``, with the weight
  L^dim given by ``WavenumberLattice.volume``;
* the mean mode u_hat(0) and the Nyquist rows (kappa_i = -n/2) are zeroed
  on construction of any velocity field;
* dealiasing keeps |kappa_i| < n/3 (Orszag's two-thirds rule); the
  transforms skip the 1-D FFTs whose lines lie outside that band, in
  numpy's own axis order, so they match the full ``rfftn``/``irfftn`` bit
  for bit on the band.

Velocity fields, snapshots and every public function use the full layout:
coefficients of shape (dim, n, ..., n) in ``numpy.fft.fftn`` order.  The
``rfftn`` half layout keeps only the modes 0 <= kappa_last <= n/2 of the
last axis (n/2 + 1 entries, ``numpy.fft.rfftfreq`` order); the other half
follows from Hermitian symmetry u_hat(-kappa) = conj(u_hat(kappa)).  The
time stepper works in the band layout, the modes the two-thirds rule
keeps, |kappa_i| <= lim = ``dealias_limit``: shape (dim, 2 lim + 1, ...,
lim + 1), rows kappa = 0..lim then -lim..-1 on every axis but the last,
kappa_last = 0..lim on the last.  ``forward`` returns it; ``inverse``
reads it in the half layout, which ``scatter_band`` writes it into;
``gather_band`` copies it out of the half or the full layout.
``SpectralVelocity.from_physical`` is ``from_band`` of ``forward``, and
``to_physical`` refuses content off the band.  Only this module relates
layouts (:func:`negate_kappa`, ``half``, ``full_layout``, ``gather_band``,
``scatter_band``, ``band_of``, ``SpectralVelocity.from_band``,
``mag2_of_band``, ``pinned_modes``) or calls ``numpy.fft``; it holds the
band's arrays (``band_k``, ``band_k_sq_pinned``, ``band_leray``),
``project_band`` makes a band array what a projected field's band holds,
bit for bit, and ``mag2_of_band`` gives that field's per-mode |u_hat|^2.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

DIV_TOL = 1e-12
HERMITIAN_TOL = 1e-12


@cache
def _negation_blocks(dim: int) -> tuple:
    """(destination, source) index of each block negate_kappa copies."""
    parts = ((slice(0, 1),) * 2, (slice(1, None), slice(None, 0, -1)))
    return tuple(tuple((...,) + axes for axes in zip(*combo))
                 for combo in itertools.product(parts, repeat=dim))


def negate_kappa(a: np.ndarray, dim: int) -> np.ndarray:
    """a(-kappa) on the last ``dim`` >= 1 axes (fftfreq order), in one copy:
    index 0 maps to itself, 1..n-1 to n-1..1.  Leading axes ride along."""
    out = np.empty_like(a)
    for dst, src in _negation_blocks(dim):
        out[dst] = a[src]
    return out


def _symmetrize_zero_plane(a: np.ndarray, dim: int) -> None:
    """In place, a(kappa) -> (a(kappa) + conj(a(-kappa))) / 2 on the
    kappa_last = 0 plane of ``a``, which holds both kappa and -kappa.  The
    other axes of the plane are in fftfreq order, as in the full, half and
    band layouts."""
    plane = a[..., 0]
    plane += np.conj(negate_kappa(plane, dim - 1))
    plane *= 0.5


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
    def volume(self) -> float:
        """L^dim, the Parseval weight: ||u||^2 = L^dim sum_k |u_hat(k)|^2."""
        return self.box_length ** self.dim

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

    @property
    def k_dealias(self) -> float:
        """Physical wavenumber of the resolved band's edge, k_unit * lim: the
        CFL scale and the top of the classifier's band."""
        return self.k_unit * self.dealias_limit

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
        _symmetrize_zero_plane(out, self.dim)
        self._mirror_half(h, out)
        return out

    def _mirror_half(self, h: np.ndarray, out: np.ndarray) -> None:
        """Fill the omitted half of full-layout ``out`` from half-layout
        ``h`` by conjugation (a copy for real arrays)."""
        m = self.half_modes
        # full modes n/2+1..n-1 of the last axis are the negatives of
        # 1..n/2-1; that axis moves in front of the ones negated
        pos = np.moveaxis(h[..., m - 2:0:-1], -1, 0)
        np.conjugate(negate_kappa(pos, self.dim - 1),
                     out=np.moveaxis(out[..., m:], -1, 0))

    # -- two-thirds band layout ---------------------------------------------

    @property
    def band_shape(self) -> tuple:
        """Grid shape of the band layout: 2 lim + 1 rows on every axis but
        the last, which keeps its lim + 1 entries kappa = 0..lim."""
        lim = self.dealias_limit
        return (2 * lim + 1,) * (self.dim - 1) + (lim + 1,)

    @cached_property
    def _band_blocks(self) -> tuple:
        """(band index, half- or full-layout index) of each band block: per
        axis but the last, the rows kappa = 0..lim, then -lim..-1."""
        lim = self.dealias_limit
        dst = (slice(0, lim + 1), slice(lim + 1, 2 * lim + 1))
        last = (slice(0, lim + 1),)
        return tuple(tuple((...,) + axes + last for axes in zip(*combo))
                     for combo in itertools.product(zip(dst, self._band_rows),
                                                    repeat=self.dim - 1))

    def gather_band(self, a: np.ndarray) -> np.ndarray:
        """The band layout of half- or full-layout ``a`` (any leading axes):
        a contiguous copy of the modes the two-thirds rule keeps."""
        out = np.empty(a.shape[:-self.dim] + self.band_shape, dtype=a.dtype)
        for band, half in self._band_blocks:
            out[band] = a[half]
        return out

    def band_of(self, a: np.ndarray) -> np.ndarray:
        """``gather_band(a)``; ValueError if the half layout of ``a`` has
        more nonzeros (NaN counts, -0.0 does not) than the band."""
        band = self.gather_band(a)
        if np.count_nonzero(self.half(a)) != np.count_nonzero(band):
            raise ValueError("coefficients hold modes off the two-thirds "
                             "band |kappa_i| < n/3; dealias them first")
        return band

    def scatter_band(self, b: np.ndarray) -> np.ndarray:
        """Half-layout array holding band-layout ``b`` on the band and +0.0
        everywhere else (any leading axes)."""
        shape = b.shape[:-self.dim] + self.grid_shape[:-1] + (self.half_modes,)
        out = np.zeros(shape, dtype=b.dtype)
        for band, half in self._band_blocks:
            out[half] = b[band]
        return out

    @cached_property
    def band_k(self) -> np.ndarray:
        """k in the band layout."""
        return self.gather_band(self.k)

    @cached_property
    def band_k_sq_pinned(self) -> np.ndarray:
        """``k_sq_pinned`` in the band layout."""
        return self.gather_band(self.k_sq_pinned)

    @cached_property
    def band_leray(self) -> np.ndarray:
        """k / |k|^2 in the band layout, zero at the mean mode."""
        return self.band_k / self.band_k_sq_pinned

    def project_band(self, b: np.ndarray) -> np.ndarray:
        """Band-layout velocity coefficients ``b`` made a field's band, in
        place: the kappa_last = 0 plane symmetrized, the mean mode pinned
        and the field Leray-projected, in the order and by the formulas of
        ``full_layout``, :class:`SpectralVelocity` and
        :func:`leray_project`.  The result is the band of
        ``leray_project(SpectralVelocity(self, full_layout(scatter_band(b))))``
        bit for bit; returns ``b``."""
        _symmetrize_zero_plane(b, self.dim)
        b[(slice(None),) + (0,) * self.dim] = 0.0
        k = self.band_k
        b -= k * (np.sum(k * b, axis=0) / self.band_k_sq_pinned)
        return b

    def mag2_of_band(self, b: np.ndarray) -> np.ndarray:
        """Per-mode |u_hat|^2 summed over components, shape (n, ..., n), of
        the field of a projected band ``b`` (as ``project_band`` returns
        it), without building the field: ``SpectralVelocity.from_band(self,
        b).mag2()`` bit for bit.  |conj z| = |z|, and the kappa_last = 0
        plane of such a band is Hermitian already, so ``full_layout``'s
        symmetrization would leave its moduli as they are."""
        h = self.scatter_band(np.sum(np.abs(b) ** 2, axis=0))
        out = np.empty(self.grid_shape)
        out[..., :self.half_modes] = h
        self._mirror_half(h, out)
        return out

    @cached_property
    def x(self) -> np.ndarray:
        """Physical grid coordinates, shape (dim, n, ..., n)."""
        n = self.n_per_dim
        ax = np.arange(n) * (self.box_length / n)
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack(grids)

    # -- transforms -------------------------------------------------------

    def _check_grid(self, a: np.ndarray, shape: tuple) -> None:
        if a.shape[-self.dim:] != shape:
            raise ValueError(
                f"array shape {a.shape} does not match lattice grid {shape}")

    @cached_property
    def _band_rows(self) -> tuple:
        """The kept rows of an axis, kappa = 0..lim and -lim..-1, as slices."""
        n, lim = self.n_per_dim, self.dealias_limit
        return slice(0, lim + 1), slice(n - lim, n)

    def forward(self, phys: np.ndarray) -> np.ndarray:
        """Real field -> band-layout coefficients (1/n^dim normalization):
        ``gather_band`` of ``numpy.fft.rfftn(phys, norm="forward")`` bit for
        bit, transforming only the lines the two-thirds rule keeps."""
        self._check_grid(phys, self.grid_shape)
        # rfftn's own axis order, last axis first, on the kept lines only
        lim = self.dealias_limit
        h = np.fft.rfft(phys, axis=-1, norm="forward")
        kept = h[..., :lim + 1]
        np.fft.fft(kept, axis=-2, norm="forward", out=kept)
        if self.dim == 3:
            for rows in self._band_rows:
                lines = h[..., rows, :lim + 1]
                np.fft.fft(lines, axis=-3, norm="forward", out=lines)
        return self.gather_band(h)

    def inverse(self, h: np.ndarray) -> np.ndarray:
        """Half-layout coefficients -> real field (leading axes ride along).

        Only the modes the two-thirds rule keeps are read: the result
        equals ``numpy.fft.irfftn`` (``norm="forward"``) of ``h`` times the
        half of ``dealias_mask``.
        """
        self._check_grid(h, self.grid_shape[:-1] + (self.half_modes,))
        # irfftn's own axis order, first axis first, on the kept lines only
        lim = self.dealias_limit
        work = np.zeros(h.shape, dtype=np.complex128)
        for _, half in self._band_blocks:
            work[half] = h[half]
        if self.dim == 3:
            for rows in self._band_rows:
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
        self.coeffs = c
        self._pin()

    def _pin(self) -> None:
        """Zero the pinned modes of ``coeffs`` in place."""
        for idx in self.lattice.pinned_modes.values():
            self.coeffs[(slice(None),) + idx] = 0.0

    def copy(self) -> "SpectralVelocity":
        # construction copies the array it is given
        return SpectralVelocity(self.lattice, self.coeffs, self.t)

    def to_physical(self) -> np.ndarray:
        """The real field; ValueError on a Hermitian defect above
        HERMITIAN_TOL, and (from ``band_of``) on content off the band."""
        defect = self.hermitian_defect()
        if defect > HERMITIAN_TOL:
            raise ValueError(f"non-Hermitian spectral input: defect "
                             f"{defect:.3e} relative")
        lat = self.lattice
        return lat.inverse(lat.scatter_band(lat.band_of(self.coeffs)))

    @classmethod
    def from_physical(cls, lattice: WavenumberLattice, phys: np.ndarray,
                      t: float = 0.0) -> "SpectralVelocity":
        """The field of real ``phys``, dealiased: ``from_band`` of its
        band-layout transform."""
        return cls.from_band(lattice, lattice.forward(phys), t)

    @classmethod
    def from_band(cls, lattice: WavenumberLattice, b: np.ndarray,
                  t: float = 0.0) -> "SpectralVelocity":
        """The field of band-layout coefficients ``b``, zero off the band:
        ``full_layout(scatter_band(b))`` with its modes pinned in place.
        Unlike the constructor it does not copy the array, which it has
        just built (12.6 MB at 3-D n=64)."""
        expected = (lattice.dim,) + lattice.band_shape
        if b.shape != expected:
            raise ValueError(f"band-layout shape {b.shape} does not match "
                             f"lattice {expected}")
        v = cls.__new__(cls)
        v.lattice, v.coeffs, v.t = (
            lattice, lattice.full_layout(lattice.scatter_band(b)), t)
        v._pin()
        return v

    def l2_norm(self) -> float:
        lat = self.lattice
        return float(np.sqrt(lat.volume * np.sum(np.abs(self.coeffs) ** 2)))

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


def leray_project(v: SpectralVelocity) -> SpectralVelocity:
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    lat = v.lattice
    k = lat.k
    # the result is the field's copy, and the gradient part is subtracted
    # from it in place
    out = SpectralVelocity(lat, v.coeffs, v.t)
    kdotu = np.sum(k * v.coeffs, axis=0)
    out.coeffs -= k * (kdotu / lat.k_sq_pinned)
    return out


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
    return float(np.sqrt(lat.volume * np.sum(w * mag2)))


def inner_product(u: SpectralVelocity, v: SpectralVelocity) -> float:
    """L^2 inner product in the spectral Parseval convention."""
    if u.lattice != v.lattice:
        raise ValueError("lattice mismatch in inner product")
    lat = u.lattice
    return float(lat.volume * np.sum((u.coeffs * np.conj(v.coeffs)).real))
