"""Each correctness check of the benchmark passes on real output and fails
on a deliberately corrupted copy of it; the tracer restores what it wraps.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""
from pathlib import Path

import numpy as np
import pytest

import checks
from hyperns import cli, lattice

CONFIG = """\
nu = 1e-2
eps = 4e-3
symbol = power
alpha = 1.25
n = 16
dim = 2
dt = 1e-3
t_end = 0.01
ic = random
seed = 3
output_every = 1
"""


@pytest.fixture
def run_dir(tmp_path) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (out,) = (tmp_path / "out").iterdir()
    return out


def rewrite_column(path: Path, column: str, edit) -> None:
    table = checks.read_csv(path)
    edit(table[column])
    names = list(table)
    rows = zip(*(table[n] for n in names))
    path.write_text(",".join(names) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))


def rewrite_payload(path: Path, edit) -> None:
    blob = bytearray(path.read_bytes())
    hlen = int.from_bytes(blob[8:12], "little")
    _, coeffs = checks.read_hypf(path)
    c = coeffs.copy()
    edit(c)
    blob[12 + hlen:] = c.astype("<c16").tobytes()
    path.write_bytes(bytes(blob))


def test_real_output_passes(run_dir):
    defect = checks.read_csv(run_dir / "defect.csv")
    assert defect["low"][0] > 0 and defect["high"][0] > 0
    assert checks.run_directory(run_dir, t0=0.0) == []


def test_perturbed_energy_breaks_identity(run_dir):
    def bump(e):
        e[4] *= 1.0 + 1e-5
    rewrite_column(run_dir / "diagnostics.csv", "energy", bump)
    fails = checks.run_directory(run_dir)
    assert any("energy identity" in f for f in fails)


def test_energy_rise_is_caught(run_dir):
    def rise(e):
        e[6] = e[5] * (1.0 + 1e-13)
    rewrite_column(run_dir / "diagnostics.csv", "energy", rise)
    fails = checks.run_directory(run_dir)
    assert any("energy rises" in f for f in fails)


def test_spectrum_must_sum_to_final_energy(run_dir):
    def scale(e):
        e *= 1.0 + 1e-9
    rewrite_column(run_dir / "spectrum.csv", "energy", scale)
    assert any("spectrum.csv" in f for f in checks.run_directory(run_dir))


def test_non_hermitian_payload(run_dir):
    def break_symmetry(c):
        c[0, 1, 2] += 1e-6 * np.max(np.abs(c))
    rewrite_payload(run_dir / "final.hypf", break_symmetry)
    fails = checks.run_directory(run_dir)
    assert any("Hermitian" in f for f in fails)


def test_divergent_payload(run_dir):
    lat = lattice.WavenumberLattice(16, 2)

    def add_gradient(c):
        # i*a*k at +-kappa = (1, 2): a Hermitian pair parallel to k
        amp = 1e-3 * np.max(np.abs(c))
        for sign in (1, -1):
            idx = (sign * 1 % 16, sign * 2 % 16)
            c[0][idx] += 1j * amp * lat.k[0][idx]
            c[1][idx] += 1j * amp * lat.k[1][idx]
    rewrite_payload(run_dir / "final.hypf", add_gradient)
    fails = checks.run_directory(run_dir)
    assert any("divergence" in f for f in fails)
    assert not any("Hermitian" in f for f in fails)


def test_defect_split_consistency(run_dir):
    def bump(v):
        v[0] *= 1.0 + 1e-8
    rewrite_column(run_dir / "defect.csv", "high", bump)
    assert any("low + high" in f for f in checks.run_directory(run_dir))


def test_defect_bound(run_dir):
    defect = checks.read_csv(run_dir / "defect.csv")
    low = float(defect["low"][0])

    def shrink(v):
        v[0] = 0.5 * low
    rewrite_column(run_dir / "defect.csv", "bound_rhs", shrink)
    assert any("exceeds bound_rhs" in f for f in checks.run_directory(run_dir))


def test_first_sample_time_tag(run_dir):
    fails = checks.run_directory(run_dir, t0=0.5)
    assert any("time tag" in f for f in fails)


EPS = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]


def write_table(path, eps, err):
    path.write_text("eps,sup_error\n" + "".join(
        f"{e:.17g},{r:.17g}\n" for e, r in zip(eps, err)))


def test_sweep_table(tmp_path):
    path = tmp_path / "sweep_eps.csv"
    eps = sorted(EPS)
    write_table(path, eps, [11.0 * e for e in eps])
    assert checks.sweep_table(path, EPS) == []
    rng = np.random.default_rng(0)
    order = rng.permutation(len(eps))
    write_table(path, [eps[i] for i in order], [11.0 * eps[i] for i in order])
    assert checks.sweep_table(path, EPS) != []
    write_table(path, eps, [11.0 * e ** 2 for e in eps])
    assert any("slope" in f for f in checks.sweep_table(path, EPS))
    flat = [11.0 * e for e in eps]
    flat[2] = flat[1]
    write_table(path, eps, flat)
    assert any("increase" in f for f in checks.sweep_table(path, EPS))


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    from hyperns import dynamics
    from spans import STEP_SPAN, Tracer
    originals = (dynamics.leray_project, lattice.leray_project,
                 lattice.SpectralVelocity.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.leray_project is lattice.leray_project
        assert dynamics.leray_project is not originals[0]
        tracer.enabled = True
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        tracer.enabled = False
        tot = tracer.totals()
        assert tot[STEP_SPAN]["count"] == 10
        assert tot["lattice.leray_project"]["step_count"] > 0
        # self times partition the outermost span
        (root,) = [i for i, p in enumerate(tracer.parent) if p < 0]
        assert tracer.self_times().sum() == pytest.approx(
            tracer.end[root] - tracer.start[root])
    finally:
        tracer.uninstall()
    assert (dynamics.leray_project, lattice.leray_project,
            lattice.SpectralVelocity.__post_init__) == originals
