"""Correctness checks on the files a workload leaves behind.

Every check is computed here from the written files, with numpy and the
standard library only: nothing is imported from hyperns, and nothing is
compared against a stored copy of earlier output.  Each check returns a
list of failure messages; an empty list means the output is correct.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

BUDGET_TOL = 1e-6        # energy identity, relative to E(0) (criterion 2)
SPECTRUM_TOL = 1e-12     # sum of shell energies against the final energy
DEFECT_TOL = 1e-10       # low + high against the integrated hyperdissipation
HERMITIAN_TOL = 1e-12
DIVERGENCE_TOL = 1e-12
SLOPE_RANGE = (0.9, 1.1)  # the paper's O(eps) rate (criterion 6)


def read_csv(path) -> dict:
    """Columns of a numeric CSV with a header row, keyed by column name."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def read_hypf(path):
    """Parse a .hypf snapshot from its documented layout.

    Layout: "HYPF", uint32 version, uint32 header length H, H bytes of
    key=value lines, then little-endian complex128 coefficients of shape
    (dim, n, ..., n).  Returns (header dict, coefficient array).
    """
    blob = Path(path).read_bytes()
    if blob[:4] != b"HYPF":
        raise ValueError(f"{path}: no HYPF magic")
    hlen, = struct.unpack_from("<I", blob, 8)
    header = dict(line.split("=", 1) for line in
                  blob[12:12 + hlen].decode("utf-8").splitlines())
    dim, n = int(header["dim"]), int(header["n_per_dim"])
    payload = blob[12 + hlen:]
    if len(payload) != 16 * dim * n ** dim:
        raise ValueError(f"{path}: payload of {len(payload)} bytes does not "
                         f"hold a ({dim},{n}^{dim}) complex128 field")
    coeffs = np.frombuffer(payload, dtype="<c16").reshape((dim,) + (n,) * dim)
    return header, coeffs


def _negate_modes(a: np.ndarray, dim: int) -> np.ndarray:
    """a(kappa) -> a(-kappa) on the last `dim` axes in FFT index order."""
    idx = tuple(slice(None) for _ in range(a.ndim - dim))
    n = a.shape[-1]
    neg = (-np.arange(n)) % n
    return a[idx + np.ix_(*([neg] * dim))]


def snapshot_invariants(path) -> list:
    """Hermitian symmetry and divergence-freedom of a written snapshot."""
    header, c = read_hypf(path)
    dim, n = int(header["dim"]), int(header["n_per_dim"])
    box = float(header["box_length"])
    fails = []
    scale = np.max(np.abs(c))
    herm = np.max(np.abs(c - np.conj(_negate_modes(c, dim)))) / scale
    if not herm <= HERMITIAN_TOL:
        fails.append(f"{Path(path).name}: Hermitian defect {herm:.3e} "
                     f"> {HERMITIAN_TOL:g}")
    kappa = np.fft.fftfreq(n, d=1.0 / n)
    k = np.stack(np.meshgrid(*([kappa * (2.0 * np.pi / box)] * dim),
                             indexing="ij"))
    kdotu = np.abs(np.sum(k * c, axis=0))
    den = np.sqrt(np.sum(k * k, axis=0) * np.sum(np.abs(c) ** 2, axis=0))
    nz = den > 0
    div = float(np.max(kdotu[nz] / den[nz])) if nz.any() else 0.0
    if not div <= DIVERGENCE_TOL:
        fails.append(f"{Path(path).name}: divergence {div:.3e} "
                     f"> {DIVERGENCE_TOL:g}")
    return fails


def _trapezoid_cumulative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    for i in range(1, len(y)):
        out[i] = out[i - 1] + 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1])
    return out


def energy_identity(diag: dict) -> list:
    """E(t) - E(0) + int_0^t (nu|grad u|^2 + eps<Mu,u>) = 0 to BUDGET_TOL."""
    t, e = diag["t"], diag["energy"]
    rate = diag["visc_dissipation_rate"] + diag["hyper_dissipation_rate"]
    fails = []
    if not np.all(np.diff(t) > 0):
        return ["diagnostics.csv: sample times are not increasing"]
    res = np.abs(e - e[0] + _trapezoid_cumulative(rate, t)) / e[0]
    worst = float(np.max(res))
    if not worst <= BUDGET_TOL:
        fails.append(f"energy identity residual {worst:.3e} of E(0) "
                     f"> {BUDGET_TOL:g}")
    rises = np.flatnonzero(np.diff(e) > 0)
    if rises.size:
        i = int(rises[0])
        fails.append(f"energy rises between samples {i} and {i + 1} "
                     f"({e[i]!r} -> {e[i + 1]!r})")
    return fails


def spectrum_sum(spec: dict, final_energy: float) -> list:
    total = float(np.sum(spec["energy"]))
    err = abs(total - final_energy) / final_energy
    if not err <= SPECTRUM_TOL:
        return [f"spectrum.csv sums to {total!r}, final energy is "
                f"{final_energy!r} (relative {err:.3e})"]
    return []


def defect_consistency(defect: dict, diag: dict) -> list:
    """low + high equals eps int <Mu,u> dt; low respects its a-priori bound."""
    low, high = float(defect["low"][0]), float(defect["high"][0])
    bound = float(defect["bound_rhs"][0])
    hyper = diag["hyper_dissipation_rate"]
    total = float(_trapezoid_cumulative(hyper, diag["t"])[-1])
    fails = []
    err = abs(low + high - total) / total
    if not err <= DEFECT_TOL:
        fails.append(f"defect.csv low + high = {low + high!r}, integrated "
                     f"hyperdissipation {total!r} (relative {err:.3e})")
    if not low <= bound:
        fails.append(f"defect.csv low {low!r} exceeds bound_rhs {bound!r}")
    return fails


def run_directory(run_dir, t0: float | None = None,
                  defect: bool = True) -> list:
    """All checks on one `hyperns run` directory.

    ``t0`` is the time tag of the snapshot the run resumed from, which the
    first sample must carry; ``defect`` selects the defect.csv checks.
    """
    run_dir = Path(run_dir)
    diag = read_csv(run_dir / "diagnostics.csv")
    fails = energy_identity(diag)
    fails += spectrum_sum(read_csv(run_dir / "spectrum.csv"),
                          float(diag["energy"][-1]))
    fails += snapshot_invariants(run_dir / "final.hypf")
    if defect:
        fails += defect_consistency(read_csv(run_dir / "defect.csv"), diag)
    if t0 is not None and float(diag["t"][0]) != t0:
        fails.append(f"first sample at t={float(diag['t'][0])!r}, snapshot "
                     f"time tag is {t0!r}")
    return fails


def sweep_table(path, eps_list) -> list:
    """The eps sweep table: all eps present, errors rising, O(eps) slope."""
    table = read_csv(path)
    eps, err = table["eps"], table["sup_error"]
    if not np.array_equal(eps, np.sort(np.asarray(eps_list, dtype=float))):
        return [f"{Path(path).name}: eps column {eps.tolist()} is not the "
                f"sorted sweep list"]
    fails = []
    if not np.all(np.diff(err) > 0):
        fails.append(f"{Path(path).name}: sup errors do not increase with "
                     f"eps: {err.tolist()}")
    x, y = np.log(eps), np.log(err)
    slope = float(np.sum((x - x.mean()) * (y - y.mean()))
                  / np.sum((x - x.mean()) ** 2))
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        fails.append(f"{Path(path).name}: fitted slope {slope:.4f} outside "
                     f"[{lo}, {hi}]")
    return fails
