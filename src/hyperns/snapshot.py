"""Snapshot persistence.

Snapshot layout (all integers and floats little-endian):

    bytes 0..3   magic "HYPF"
    bytes 4..7   format version (uint32)
    bytes 8..11  header length H (uint32)
    H bytes      UTF-8 key=value header lines
    payload      complex coefficients as float64 (re, im) pairs,
                 components in order, modes in row-major kappa order
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .lattice import DIV_TOL, SpectralVelocity, WavenumberLattice

MAGIC = b"HYPF"
VERSION = 1


class SnapshotError(ValueError):
    """Corrupt or invalid snapshot file; names the violated invariant."""


def write_snapshot(u: SpectralVelocity, path, nu: float = 0.0,
                   eps: float = 0.0, symbol_spec: str = "") -> None:
    lat = u.lattice
    header = (
        f"dim={lat.dim}\n"
        f"n_per_dim={lat.n_per_dim}\n"
        f"box_length={lat.box_length:.17g}\n"
        f"t={u.t:.17g}\n"
        f"nu={nu:.17g}\n"
        f"eps={eps:.17g}\n"
        f"symbol={symbol_spec}\n"
    ).encode("utf-8")
    # written from the array's own buffer: a 3-D n=64 field is 12.6 MB
    payload = np.ascontiguousarray(u.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload.data)


def read_snapshot(path, lattice: WavenumberLattice | None = None):
    """Read and validate a snapshot; returns (SpectralVelocity, header dict).

    With ``lattice`` the header must describe that lattice, and the field
    is built on it; otherwise on a lattice built from the header.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise SnapshotError(f"{path}: missing HYPF magic tag")
    version, = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported format version {version}")
    hlen, = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + hlen:
        raise SnapshotError(f"{path}: truncated header")
    try:
        text = blob[12:12 + hlen].decode("utf-8")
    except UnicodeDecodeError as err:
        raise SnapshotError(f"{path}: header is not UTF-8 ({err})") from None
    header = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        header[key] = val
    try:
        dim = int(header["dim"])
        n = int(header["n_per_dim"])
        box = float(header["box_length"])
        t = float(header["t"])
    except (KeyError, ValueError) as err:
        raise SnapshotError(f"{path}: malformed header ({err})") from None
    if not (math.isfinite(box) and math.isfinite(t)):
        raise SnapshotError(
            f"{path}: malformed header (box_length={box!r}, t={t!r})")
    if lattice is None:
        try:
            lattice = WavenumberLattice(n, dim, box)
        except ValueError as err:
            raise SnapshotError(f"{path}: invalid lattice ({err})") from None
    elif (dim, n, box) != (lattice.dim, lattice.n_per_dim,
                           lattice.box_length):
        raise SnapshotError(
            f"{path}: snapshot lattice (dim={dim}, n={n}, box_length={box!r})"
            f" does not match the run lattice (dim={lattice.dim}, "
            f"n={lattice.n_per_dim}, box_length={lattice.box_length!r})")
    expected = dim * n ** dim * 16
    payload = memoryview(blob)[12 + hlen:]
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    # SpectralVelocity copies the read-only view into a complex128 array
    coeffs = np.frombuffer(payload, dtype="<c16").reshape((dim,) + (n,) * dim)
    if not np.all(np.isfinite(coeffs)):
        raise SnapshotError(f"{path}: non-finite (NaN/Inf) coefficients")
    u = SpectralVelocity(lattice, coeffs, t)
    # finite coefficients near the float64 limit can still overflow the
    # sums below; an overflowed or NaN ratio fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        defect = u.hermitian_defect()
        div = u.divergence_max()
    if not defect <= 1e-12:
        raise SnapshotError(
            f"{path}: Hermitian symmetry violated ({defect:.3e} relative)")
    if not div <= DIV_TOL:
        raise SnapshotError(
            f"{path}: divergence tolerance violated ({div:.3e} relative)")
    return u, header

