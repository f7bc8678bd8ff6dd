"""Shared helpers for the test suite: field constructors, numpy's full
transforms as the reference for the lattice's pruned ones, the brute-force
nonlinear-term oracle (direct summation, no FFT) and a call counter."""
import numpy as np

from hyperns.dynamics import random_field
from hyperns.lattice import SpectralVelocity, leray_project


def full_rfftn(lat, a):
    """numpy's full ``rfftn`` of real ``a`` on the grid of ``lat`` (any
    leading axes), in the lattice's normalization."""
    return np.fft.rfftn(a, axes=tuple(range(-lat.dim, 0)), norm="forward")


def full_irfftn(lat, h):
    """numpy's full ``irfftn`` of half-layout ``h`` on the grid of ``lat``
    (any leading axes), in the lattice's normalization."""
    return np.fft.irfftn(h, s=lat.grid_shape, axes=tuple(range(-lat.dim, 0)),
                         norm="forward")


def off_band_field(lattice, seed):
    """The field of random noise's full transform: exactly Hermitian, and
    with content off the two-thirds band."""
    noise = np.random.default_rng(seed).standard_normal(
        (lattice.dim,) + lattice.grid_shape)
    return SpectralVelocity(lattice,
                            lattice.full_layout(full_rfftn(lattice, noise)))


def shear_field(lattice, seed, amplitude=1.0):
    """Shear flow u = (f(x_2, ...), 0, ...) with a random f, on the band and
    scaled to L2 norm ``amplitude``.  It is divergence-free and (u.grad)u
    = 0, so the step's nonlinear term vanishes on it."""
    rng = np.random.default_rng(seed)
    phys = np.zeros((lattice.dim,) + lattice.grid_shape)
    phys[0] = rng.standard_normal(lattice.grid_shape[1:])
    u = SpectralVelocity.from_physical(lattice, phys)
    u.coeffs *= amplitude / u.l2_norm()
    return u


def bandlimited_field(lattice, seed, kmax, amplitude=1.0):
    """Random divergence-free field supported on |kappa_i| <= kmax."""
    u = random_field(lattice, seed, 2.0, 3.0, amplitude)
    mask = np.all(np.abs(lattice.kappa) <= kmax, axis=0)
    return leray_project(SpectralVelocity(lattice, u.coeffs * mask))


def brute_force_nonlinear(u):
    """B(u) by direct summation over dealias-band mode pairs.

    Accumulates i k_j * u_hat_i(p) u_hat_j(q) over all pairs p + q = k
    with p, q, k inside the dealias band, then Leray-projects.  This is
    an independent oracle for the pseudospectral nonlinear term.
    """
    lat = u.lattice
    n, dim, lim = lat.n_per_dim, lat.dim, lat.dealias_limit
    axes = [np.arange(-lim, lim + 1)] * dim
    band = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    idx = tuple((band[:, d] % n) for d in range(dim))
    coef = np.stack([u.coeffs[c][idx] for c in range(dim)])
    out = np.zeros_like(u.coeffs)
    for a in range(band.shape[0]):
        ks = band[a] + band
        keep = np.all(np.abs(ks) <= lim, axis=1)
        ks = ks[keep]
        tgt = tuple((ks[:, d] % n) for d in range(dim))
        cq = coef[:, keep]
        f = 1j * lat.k_unit * np.einsum("md,dm->m", ks, cq)
        for i in range(dim):
            np.add.at(out[i], tgt, coef[i, a] * f)
    return leray_project(SpectralVelocity(lat, out, u.t))


def calls_of(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list of the argument
    tuples it is called with."""
    calls = []
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
