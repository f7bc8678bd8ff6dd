"""Shared helpers for the test suite: field constructors and the
brute-force nonlinear-term oracle (direct summation, no FFT)."""
import numpy as np

from hyperns.dynamics import random_field
from hyperns.lattice import (SpectralVelocity, WavenumberLattice, dealias,
                             leray_project)


def stream_function_field(lattice, seed):
    """2-D field u = (d_y psi, -d_x psi) whose divergence is exactly zero
    in floating point (k1*k2 - k2*k1 = 0 mode by mode)."""
    assert lattice.dim == 2
    rng = np.random.default_rng(seed)
    psi = lattice.full_layout(
        lattice.forward(rng.standard_normal(lattice.grid_shape)))
    coeffs = np.stack([1j * lattice.k[1] * psi, -1j * lattice.k[0] * psi])
    return dealias(SpectralVelocity(lattice, coeffs))


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
