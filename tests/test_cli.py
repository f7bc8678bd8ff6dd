"""Command-line surface: subcommands, artifacts, exit-code contract."""
import functools
import json
import math
import struct

import numpy as np
import pytest

from conftest import calls_of
from hyperns import dynamics, experiments, snapshot
from hyperns.cli import _read_diagnostics, main
from hyperns.config import config_hash, parse_config
from hyperns.diagnostics import energy_budget
from hyperns.dynamics import random_field
from hyperns.lattice import SpectralVelocity, WavenumberLattice
from hyperns.snapshot import write_snapshot

CONFIG = """\
nu = 1e-2
eps = 1e-3
symbol = power
alpha = 1.25
mu = 1
n = 32
dim = 2
dt = 5e-3
t_end = 0.1
ic = random
amplitude = 0.5
seed = 3
output_every = 2
"""


def nan_table(tmp_path):
    """A per-shell symbol table with a NaN dissipative value."""
    path = tmp_path / "nan.csv"
    path.write_text("k1,k2,k3,re_ell,im_ell\n0,0,0,0,0\n1,0,0,-1,0\n"
                    "2,0,0,nan,0\n3,0,0,-9,0\n")
    return path


def per_mode_table(tmp_path, lat, defect):
    """A per-mode table of ell = -|k|^2 on ``lat`` whose wavenumber columns
    carry ``defect``: a NaN k1, a k1 of 1e308, or the mean mode's row naming
    the next row's mode, which leaves the mean mode unlisted."""
    k = lat.k.reshape(lat.dim, lat.n_modes)
    ell = -np.sum(k ** 2, axis=0)
    k = k.copy()
    if defect == "nan-wavenumber":
        k[0, 1] = np.nan
    elif defect == "huge-mode":
        k[0, 1] = 1e308
    else:
        k[:, 0] = k[:, 1]
    rows = ["k1,k2,k3,re_ell,im_ell"] + [
        ",".join(repr(float(v)) for v in (k1, k2, 0.0, e, 0.0))
        for k1, k2, e in zip(k[0], k[1], ell)]
    path = tmp_path / f"{defect}.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def write_config(tmp_path, text=CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_dir_of(out_root):
    dirs = [p for p in out_root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def fail_third_cfl_check(monkeypatch):
    """Make the third step's CFL check of every run fail."""
    cfl, calls = dynamics.Stepper.cfl, []

    def faulty(self, phys):
        calls.append(None)
        return 10.0 if len(calls) == 3 else cfl(self, phys)

    monkeypatch.setattr(dynamics.Stepper, "cfl", faulty)


def failed_manifest(out_root, exception):
    """The manifest of a failed run: finalized, its failure named."""
    manifest = json.loads((run_dir_of(out_root) / "manifest.json").read_text())
    assert manifest["finalized"]
    assert manifest["failure"]["exception"] == exception
    return manifest


class TestRunCommand:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rd = run_dir_of(out)
        names = {p.name for p in rd.iterdir()}
        assert {"manifest.json", "diagnostics.csv", "spectrum.csv",
                "final.hypf", "defect.csv"} <= names
        manifest = json.loads((rd / "manifest.json").read_text())
        assert manifest["finalized"] and manifest["failure"] is None
        assert manifest["files"] == ["defect.csv", "diagnostics.csv",
                                     "final.hypf", "spectrum.csv"]
        assert manifest["config_hash"] == rd.name + manifest["config_hash"][12:]
        lines = (rd / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("t,energy,enstrophy")
        # header + initial record + one sample per output_every=2 of 20 steps
        assert len(lines) == 1 + 11

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("alpha = 1.25",
                                                    "alpha = 0.9"))
        assert main(["run", str(cfg)]) == 2

    def test_preset_dimension_mismatch_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG.replace("ic = random",
                                                    "ic = taylor-green-2d")
                           .replace("dim = 2", "dim = 3"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 4

    @pytest.mark.parametrize("flags", [
        ["run"],
        ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3", "--T", "0.1"],
        ["compare-alpha", "--alpha", "1.25,1.5"]], ids=lambda f: f[0])
    def test_config_not_utf8_is_config_error(self, tmp_path, capsys, flags):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
        out = tmp_path / "out"
        command, *rest = flags
        assert main([command, str(cfg), *rest, "--out", str(out)]) == 2
        err = assert_one_error_line(capsys, "config")
        assert str(cfg) in err and "utf-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["run"],
        ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3", "--T",
         "0.02"],
        ["compare-alpha", "--alpha", "1.25,1.5"]], ids=lambda f: f[0])
    def test_config_with_byte_order_mark_is_read(self, tmp_path, flags):
        # some editors start a UTF-8 file with a byte-order mark; it is not
        # part of the first key, and the run is the run of the plain file
        text = (CONFIG + "k_c = 1.5\n").encode()
        command, *rest = flags
        run_dirs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            out = tmp_path / name
            assert main([command, str(cfg), *rest, "--out", str(out)]) == 0
            run_dirs.append(run_dir_of(out).name)
        assert run_dirs[0] == run_dirs[1]

    def test_kernel_symbol_run(self, tmp_path):
        # a per-shell kernel table c_hat(k) = |k|^(1/2), so m = |k|^(5/2):
        # the run dissipates through it, and splits no defect, which is
        # written for power symbols only
        table = tmp_path / "kernel.csv"
        table.write_text("k1,k2,k3,re_ell,im_ell\n" + "".join(
            f"{k},0,0,{k ** 0.5!r},0\n" for k in range(24)))
        cfg = write_config(tmp_path, CONFIG.replace(
            "symbol = power", f"symbol = kernel:{table}"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rd = run_dir_of(out)
        manifest = json.loads((rd / "manifest.json").read_text())
        assert manifest["files"] == ["diagnostics.csv", "final.hypf",
                                     "spectrum.csv"]
        assert not (rd / "defect.csv").exists()
        hyper = read_columns(rd / "diagnostics.csv")["hyper_dissipation_rate"]
        assert np.all(hyper > 0)

    @pytest.mark.parametrize("kind", ["table", "kernel"])
    def test_malformed_symbol_table_is_config_error(self, tmp_path, capsys,
                                                    kind):
        table = tmp_path / "t.csv"
        table.write_text("k,re_ell,im_ell\n1,-1,0\n")
        cfg = write_config(tmp_path, CONFIG.replace(
            "symbol = power", f"symbol = {kind}:{table}"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "header" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("symbol", ["alpha = 150", "nan-table"])
    def test_non_finite_symbol_is_config_error(self, tmp_path, capsys,
                                               symbol):
        # alpha = 150 overflows |k|^{2 alpha} on n = 16; a NaN table entry
        text = CONFIG.replace("n = 32", "n = 16")
        if symbol == "nan-table":
            text = text.replace("symbol = power",
                                f"symbol = table:{nan_table(tmp_path)}")
        else:
            text = text.replace("alpha = 1.25", symbol)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = assert_one_error_line(capsys, "config")
        assert "bad symbol" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["nan-wavenumber", "duplicate-mode",
                                        "huge-mode", "huge-shell"])
    def test_bad_table_wavenumbers_are_config_error(self, tmp_path, capsys,
                                                    defect):
        # on a box of 4 pi, a k1 of 1e308 overflows kappa = k1 / k_unit;
        # a per-shell k1 of 1e200 overflows the squared radius
        box = 4 * math.pi if defect == "huge-mode" else 2 * math.pi
        if defect == "huge-shell":
            table = tmp_path / "huge-shell.csv"
            table.write_text("k1,k2,k3,re_ell,im_ell\n0,0,0,0,0\n"
                             "1e200,0,0,-1,0\n")
        else:
            table = per_mode_table(tmp_path, WavenumberLattice(16, 2, box),
                                   defect)
        text = CONFIG.replace("n = 32", f"n = 16\nbox_length = {box!r}"
                              ).replace("symbol = power",
                                        f"symbol = table:{table}")
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = assert_one_error_line(capsys, "config")
        assert "bad symbol" in err and str(table) in err
        assert {"nan-wavenumber": "non-finite wavenumber",
                "duplicate-mode": "every lattice mode exactly once",
                "huge-mode": "mode outside the lattice",
                "huge-shell": "radius overflows"}[defect] in err
        assert not out.exists()

    def test_2d_table_with_nonzero_k3_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "k3.csv"
        table.write_text("k1,k2,k3,re_ell,im_ell\n" + "".join(
            f"{k},0,3,{-float(k) ** 2.5!r},0\n" for k in range(12)))
        cfg = write_config(tmp_path, CONFIG.replace(
            "symbol = power", f"symbol = table:{table}"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = assert_one_error_line(capsys, "config")
        assert "nonzero k3" in err and str(table) in err
        assert not out.exists()

    def test_missing_symbol_table_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG.replace(
            "symbol = power", f"symbol = table:{tmp_path / 'absent.csv'}"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: io: ")
        assert not out.exists()

    def test_cfl_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG.replace("amplitude = 0.5",
                                                    "amplitude = 100"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert_one_error_line(capsys, "numerical")
        manifest = failed_manifest(out, "CFLError")
        assert manifest["files"] == ["diagnostics.csv"]
        assert isinstance(manifest["failure"]["step_index"], int)
        assert isinstance(manifest["failure"]["t"], float)

    def test_failure_between_samples_names_the_last_state(
            self, tmp_path, capsys, monkeypatch):
        # the third step's CFL check fails; samples fall every 5 steps, so
        # the last good state is a band state with no full-layout field
        fail_third_cfl_check(monkeypatch)
        cfg = write_config(tmp_path, CONFIG.replace("output_every = 2",
                                                    "output_every = 5"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert_one_error_line(capsys, "numerical")
        failure = failed_manifest(out, "CFLError")["failure"]
        assert (failure["step_index"], failure["t"]) == (2, 5e-3 + 5e-3)

    def test_failed_run_writes_the_budget_of_its_own_rows(
            self, tmp_path, capsys, monkeypatch):
        # sampled every step, the run fails after its third sample
        fail_third_cfl_check(monkeypatch)
        cfg = write_config(tmp_path, CONFIG.replace("output_every = 2",
                                                    "output_every = 1"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert_one_error_line(capsys, "numerical")
        path = run_dir_of(out) / "diagnostics.csv"
        header, *rows = path.read_text().splitlines()
        col = header.split(",").index("budget_residual")
        written = [float(row.split(",")[col]) for row in rows]
        assert len(written) == 3
        assert written == energy_budget(_read_diagnostics(path)).tolist()

    def test_failed_output_write_finalizes_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_dir = out / config_hash(parse_config(CONFIG))[:12]
        (run_dir / "final.hypf").mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert_one_error_line(capsys, "io")
        manifest = failed_manifest(out, "IsADirectoryError")
        assert manifest["files"] == ["diagnostics.csv", "spectrum.csv"]
        assert manifest["failure"]["step_index"] is None

    @pytest.mark.parametrize("line", [
        "t_end = inf", "dt = inf", "t_end = 2e-3", "seed = -1", "k_c = 0",
        "eps = nan", "amplitude = nan", "amplitude = 0", "mu = inf",
        "nu = 0", "nu = -1e-2", "symbol = kernel", "symbol = table",
        "nu 1e-2"])
    def test_degenerate_config_is_config_error(self, tmp_path, capsys, line):
        key = line.split()[0]
        text = "".join(l + "\n" for l in CONFIG.splitlines()
                       if not l.startswith(key + " ")) + line + "\n"
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert key in assert_one_error_line(capsys, "config")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, k_c", [
        (["run"], "1e-200"), (["run"], "1e-160"),
        (["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3", "--T",
          "0.02"], "1e-200"),
        (["compare-alpha", "--alpha", "1.25,1.5"], "1e-200")],
        ids=["1e-200", "1e-160", "sweep-eps", "compare-alpha"])
    def test_degenerate_random_field_exit_code(self, tmp_path, capsys,
                                               command, k_c):
        # k_c > 0 passes the config check, but the spectrum underflows to 0;
        # the field is the start every run of a study shares
        text = CONFIG.replace("n = 32", "n = 16") + f"k_c = {k_c}\n"
        out = tmp_path / "out"
        assert main([command[0], str(write_config(tmp_path, text)),
                     *command[1:], "--out", str(out)]) == 3
        assert "degenerate" in assert_one_error_line(capsys, "numerical")
        manifest = failed_manifest(out, "NumericalError")
        assert manifest["files"] == []
        assert manifest["failure"]["step_index"] is None
        assert [p.name for p in run_dir_of(out).iterdir()] == ["manifest.json"]


def read_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","),
                    np.array([[float(v) for v in r.split(",")] for r in rows]).T))


class TestResumedRun:
    # t0 >= t_end, and 0 < t0 < t_end: the split must cover [t0, t0 + t_end]
    @pytest.mark.parametrize("t0", [0.5, 1.0 / 512.0])
    def test_defect_split_covers_the_resumed_run(self, tmp_path, t0):
        u = random_field(WavenumberLattice(16, 3), 5, 2.0, 3.0, 0.5)
        u.t = t0
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap, nu=1e-2, eps=1e-3, symbol_spec="power")
        cfg = write_config(tmp_path, "nu = 1e-2\neps = 1e-3\nsymbol = power\n"
                           "alpha = 1.25\nn = 16\ndim = 3\ndt = 1e-3\n"
                           f"t_end = 0.004\nic = snapshot:{snap}\n"
                           "output_every = 2\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rd = run_dir_of(out)
        diag = read_columns(rd / "diagnostics.csv")
        assert diag["t"][0] == t0
        total = float(np.trapezoid(diag["hyper_dissipation_rate"], diag["t"]))
        defect = {k: float(v[0])
                  for k, v in read_columns(rd / "defect.csv").items()}
        assert total > 0
        assert abs(defect["low"] + defect["high"] - total) <= 1e-10 * total
        assert defect["low"] <= defect["bound_rhs"]

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_resumed_run_continues_bit_for_bit(self, tmp_path, dim, n):
        # 0 -> 0.2 in one run, against 0 -> 0.1 resumed from its own
        # final.hypf for another 0.1
        def run_to(name, t_end, ic="random"):
            cfg = write_config(tmp_path, "nu = 1e-2\neps = 1e-3\n"
                               "symbol = power\nalpha = 1.25\n"
                               f"n = {n}\ndim = {dim}\ndt = 5e-3\n"
                               f"t_end = {t_end}\nic = {ic}\nseed = 9\n"
                               "output_every = 2\n", name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            rd = run_dir_of(out)
            rows = (rd / "diagnostics.csv").read_text().splitlines()
            header = rows[0].split(",")
            assert header[-1] == "budget_residual"
            final, _ = snapshot.read_snapshot(rd / "final.hypf")
            return (rd, [r.rsplit(",", 1)[0] for r in rows[1:]], final)

        _, whole, u_whole = run_to("whole", 0.2)
        first, _, _ = run_to("first", 0.1)
        _, second, u_second = run_to("second", 0.1,
                                     f"snapshot:{first / 'final.hypf'}")
        assert u_second.coeffs.tobytes() == u_whole.coeffs.tobytes()
        assert u_second.t == u_whole.t
        # 40 steps sampled every 2: the second half is the long run's
        # rows from step 20 on
        assert len(whole) == 21 and second == whole[10:]

    def resume_config(self, tmp_path, snap, n=16, dim=3):
        return write_config(tmp_path, "nu = 1e-2\neps = 1e-3\nsymbol = power\n"
                            f"alpha = 1.25\nn = {n}\ndim = {dim}\ndt = 1e-3\n"
                            f"t_end = 0.004\nic = snapshot:{snap}\n"
                            "output_every = 2\n")

    def test_wavevectors_built_on_one_lattice(self, tmp_path, monkeypatch):
        u = random_field(WavenumberLattice(16, 3), 5, 2.0, 3.0, 0.5)
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap)
        cfg = self.resume_config(tmp_path, snap)
        built = []
        plain = WavenumberLattice.kappa

        def counted(lat):
            built.append(lat)
            return plain.func(lat)

        kappa = functools.cached_property(counted)
        kappa.__set_name__(WavenumberLattice, "kappa")
        monkeypatch.setattr(WavenumberLattice, "kappa", kappa)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3",
                  "--T", "0.004"],
        ["compare-alpha", "--alpha", "1.25,1.5"]], ids=lambda c: c[0])
    def test_mismatched_snapshot_exit_code(self, tmp_path, capsys, command):
        u = random_field(WavenumberLattice(16, 2), 5, 2.0, 3.0, 0.5)
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap)
        cfg = self.resume_config(tmp_path, snap)
        out = tmp_path / "out"
        argv = [command[0], str(cfg), *command[1:], "--out", str(out)]
        assert main(argv) == 4
        assert "lattice" in assert_one_error_line(capsys, "io")
        manifest = failed_manifest(out, "SnapshotError")
        assert manifest["files"] == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_snapshot_exit_code(self, tmp_path, capsys, value):
        u = random_field(WavenumberLattice(16, 2), 5, 2.0, 3.0, 0.5)
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap)
        blob = bytearray(snap.read_bytes())
        struct.pack_into("<d", blob, len(blob) - 16, value)
        snap.write_bytes(bytes(blob))
        cfg = self.resume_config(tmp_path, snap, dim=2)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert "non-finite" in assert_one_error_line(capsys, "io")
        assert failed_manifest(out, "SnapshotError")["files"] == []

    @pytest.mark.parametrize("key, value", [
        ("box_length", "nan"), ("box_length", "inf"), ("t", "inf"),
        ("t", "-inf"), ("t", "nan")])
    def test_non_finite_snapshot_header_exit_code(self, tmp_path, capsys,
                                                  key, value):
        u = random_field(WavenumberLattice(16, 2), 5, 2.0, 3.0, 0.5)
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap)
        blob = snap.read_bytes()
        hlen, = struct.unpack_from("<I", blob, 8)
        header = "".join(
            (f"{key}={value}" if line.startswith(key + "=") else line) + "\n"
            for line in blob[12:12 + hlen].decode().splitlines()).encode()
        snap.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                         + blob[12 + hlen:])
        cfg = self.resume_config(tmp_path, snap, dim=2)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert "malformed header" in assert_one_error_line(capsys, "io")
        assert failed_manifest(out, "SnapshotError")["files"] == []

    def test_divergent_snapshot_exit_code(self, tmp_path, capsys):
        # u = (cos x_1, 0): Hermitian, finite, mean-free, but div u != 0
        lat = WavenumberLattice(16, 2)
        coeffs = np.zeros((2,) + lat.grid_shape, dtype=complex)
        coeffs[0, 1, 0] = coeffs[0, -1, 0] = 0.5
        snap = tmp_path / "start.hypf"
        write_snapshot(SpectralVelocity(lat, coeffs), snap)
        cfg = self.resume_config(tmp_path, snap, dim=2)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert "divergence" in assert_one_error_line(capsys, "io")
        assert failed_manifest(out, "SnapshotError")["files"] == []

    def test_non_zero_mean_mode_snapshot_exit_code(self, tmp_path, capsys):
        u = random_field(WavenumberLattice(16, 2), 5, 2.0, 3.0, 0.5)
        snap = tmp_path / "start.hypf"
        write_snapshot(u, snap)
        blob = bytearray(snap.read_bytes())
        # the real part of component 1's mean mode
        struct.pack_into("<d", blob, len(blob) - 16 * 16 * 16, 0.7)
        snap.write_bytes(bytes(blob))
        cfg = self.resume_config(tmp_path, snap, dim=2)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 4
        assert "mean mode" in assert_one_error_line(capsys, "io")
        assert failed_manifest(out, "SnapshotError")["files"] == []


class TestEnergyAudit:
    def test_audit_passes_on_finished_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        rd = run_dir_of(out)
        assert main(["energy-audit", str(rd), "--tol", "1e-6"]) == 0
        assert "max budget residual" in capsys.readouterr().out

    def test_audit_fails_on_tiny_tolerance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        assert main(["energy-audit", str(run_dir_of(out)),
                     "--tol", "1e-30"]) == 3

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_bad_tolerance_is_config_error(self, tmp_path, capsys, tol):
        # refused before the table is read: the run directory is absent
        assert main(["energy-audit", str(tmp_path / "absent"),
                     f"--tol={tol}"]) == 2
        assert "--tol" in assert_one_error_line(capsys, "config")

    def test_nan_residual_fails(self, tmp_path):
        (tmp_path / "diagnostics.csv").write_text(
            "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
            "budget_residual\n0,1,1,1,1,0\n0.1,nan,1,1,1,0\n")
        assert main(["energy-audit", str(tmp_path)]) == 3

    @pytest.mark.parametrize("rows", [
        "0,0,0,0,0,0\n0.1,5,0,0,0,0\n",
        "0,0,0,0,0,0\n0.1,0,0,nan,0,0\n",
    ], ids=["energy-from-zero", "nan-rate-from-zero"])
    def test_zero_start_energy_keeps_the_residual(self, tmp_path, capsys,
                                                   rows):
        # with E(0) = 0 the residual is absolute, not zero
        (tmp_path / "diagnostics.csv").write_text(
            "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
            "budget_residual\n" + rows)
        assert main(["energy-audit", str(tmp_path)]) == 3
        assert_one_error_line(capsys, "numerical")

    @pytest.mark.parametrize("table", [
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n0,1,1,1,1,0\n0.1,abc,1,1,1,0\n",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n0,1,1,1,1,0\n0.1,1,1,1\n",
        "t,energy,enstrophy,visc_dissipation_rate,budget_residual\n"
        "0,1,1,1,0\n0.1,1,1,1,0\n",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n",
        "",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n0,1,1,1,1,0\n0.1,1,1,1,1,0\n0.1,1,1,1,1,0\n",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n0,1,1,1,1,0\nnan,1,1,1,1,0\n",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\nnan,1,1,1,1,0\n",
        "t,energy,enstrophy,visc_dissipation_rate,hyper_dissipation_rate,"
        "budget_residual\n0,-1,0,0,0,0\n0.1,-100,0,0,0,0\n",
    ], ids=["non-numeric", "ragged", "missing-column", "no-rows", "empty",
            "repeated-t", "nan-t", "one-row-nan-t", "negative-energy"])
    def test_malformed_table_is_io_error(self, tmp_path, capsys, table):
        (tmp_path / "diagnostics.csv").write_text(table)
        assert main(["energy-audit", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: io: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestClassifyCommand:
    def test_power_symbol(self, capsys):
        assert main(["classify", "--symbol", "power:1:1.25", "--n", "64",
                     "--dim", "2", "--band", "1:21"]) == 0
        out = capsys.readouterr().out
        assert "tag=hyperdissipative" in out
        assert "alpha_hat=1.25" in out

    def test_bad_spec_is_config_error(self):
        assert main(["classify", "--symbol", "power:1", "--n", "64",
                     "--dim", "2", "--band", "1:21"]) == 2

    def test_bad_table_header_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("k,re_ell,im_ell\n1,-1,0\n")
        assert main(["classify", "--symbol", f"table:{table}", "--n", "16",
                     "--dim", "2", "--band", "1:5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "header" in err

    def test_nan_table_blames_the_table(self, tmp_path, capsys):
        assert main(["classify", "--symbol", f"table:{nan_table(tmp_path)}",
                     "--n", "16", "--dim", "2", "--band", "1:5"]) == 2
        err = assert_one_error_line(capsys, "config")
        assert "bad symbol table" in err and "NaN" in err
        assert "--band" not in err

    def test_bad_band_is_config_error(self):
        assert main(["classify", "--symbol", "power:1:1.25", "--n", "64",
                     "--dim", "2", "--band", "nonsense"]) == 2

    @pytest.mark.parametrize("args", [
        ["--n", "7", "--band", "1:3"],
        ["--n", "8", "--dim", "4", "--band", "1:3"],
        ["--n", "16", "--band", "1:2"]], ids=["odd-n", "dim-4", "few-shells"])
    def test_bad_lattice_or_band_is_config_error(self, capsys, args):
        assert main(["classify", "--symbol", "power:1:1.25", *args]) == 2
        assert_one_error_line(capsys, "config")


class TestLinearSpectra:
    def test_damping_and_decay_tables(self, tmp_path):
        assert main(["linear-spectra", "--nu", "1", "--mu", "1",
                     "--alpha", "1,1.25,1.5", "--kmax", "16",
                     "--k0", "8", "--out", str(tmp_path)]) == 0
        damping = (tmp_path / "damping_rates.csv").read_text().splitlines()
        assert damping[0] == "k,lambda_alpha_1,lambda_alpha_1.25,lambda_alpha_1.5"
        row = dict(zip(damping[0].split(","), damping[3].split(",")))
        assert float(row["k"]) == 2.0
        assert float(row["lambda_alpha_1.25"]) == 4.0 + 2.0 ** 2.5
        decay = (tmp_path / "mode_decay.csv").read_text().splitlines()
        assert decay[0].startswith("t,E_alpha_1")
        first = decay[1].split(",")
        assert float(first[0]) == 0.0
        assert all(float(v) == 1.0 for v in first[1:])

    @pytest.mark.parametrize("args", [
        ["--alpha", "x"],
        ["--alpha", "1.25", "--k0", "2", "--tmax", "-1"],
        ["--alpha", "1.25", "--k0", "2", "--tmax", "nan"],
        ["--alpha", "1.25", "--k0", "2", "--tmax", "inf"],
        ["--alpha", "1.25", "--k0", "-2"],     # (-2) ** 2.5 is complex
        ["--alpha", "1.25", "--k0", "nan"],
        ["--alpha", "1.25", "--nu", "nan"],
        ["--alpha", "1.25", "--mu", "inf"],
        ["--alpha", "nan"],
        ["--alpha", "1000"],                   # 4.0 ** 2000 overflows
        ["--alpha", "1.25", "--nu", "1e308"],  # an infinite rate
        ["--alpha", "1.25", "--kmax", "-1"],
        ["--alpha", "1.25", "--k0", "2", "--points", "0"]],
        ids=["alpha", "negative-tmax", "nan-tmax", "inf-tmax", "negative-k0",
             "nan-k0", "nan-nu", "inf-mu", "nan-alpha", "overflowing-alpha",
             "overflowing-nu", "negative-kmax", "no-points"])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "tables"
        # a --nu, --mu or --kmax in args replaces the one given here
        assert main(["linear-spectra", "--nu", "1", "--mu", "1",
                     "--kmax", "4", *args, "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config")
        assert not out.exists()


class TestSweepCommands:
    def test_sweep_eps_emits_table(self, tmp_path, capsys):
        text = CONFIG.replace("alpha = 1.25", "alpha = 1.5")
        text += "k_c = 1.5\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["sweep-eps", str(cfg), "--eps", "1e-2,3e-3,1e-3,1e-4",
                     "--s", "3.0", "--T", "0.1", "--out", str(out)])
        assert code == 0
        rd = run_dir_of(out)
        lines = (rd / "sweep_eps.csv").read_text().splitlines()
        assert lines[0] == "eps,sup_error"
        assert len(lines) == 5
        assert "slope=" in capsys.readouterr().out

    def test_compare_alpha_emits_table(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["compare-alpha", str(cfg), "--alpha", "1.25,1.5",
                     "--eps", "1e-3", "--out", str(out)])
        assert code == 0
        rd = run_dir_of(out)
        lines = (rd / "compare_alpha.csv").read_text().splitlines()
        assert lines[0].startswith("alpha,")
        assert len(lines) == 3

    @pytest.mark.parametrize("ic", ["random", "snapshot"])
    @pytest.mark.parametrize("command", [
        ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3", "--T",
         "0.02"],
        ["compare-alpha", "--alpha", "1.25,1.5,2"]], ids=lambda c: c[0])
    def test_study_builds_its_start_once(self, tmp_path, monkeypatch, command,
                                         ic):
        text = CONFIG + "k_c = 1.5\n"
        if ic == "snapshot":
            snap = tmp_path / "start.hypf"
            write_snapshot(random_field(WavenumberLattice(32, 2), 3, 2.0, 1.5,
                                        0.5), snap)
            text = text.replace("ic = random", f"ic = snapshot:{snap}")
        reads = calls_of(monkeypatch, snapshot, "read_snapshot")
        fields = calls_of(monkeypatch, dynamics, "random_field")
        assert main([command[0], str(write_config(tmp_path, text)),
                     *command[1:], "--out", str(tmp_path / "out")]) == 0
        assert (len(reads), len(fields)) == ((1, 0) if ic == "snapshot"
                                             else (0, 1))

    @pytest.mark.parametrize("s, code", [("3", 3), ("1e6", 2), ("-1e6", 2)],
                             ids=["zero-error", "weight-overflows",
                                  "weight-underflows"])
    def test_sweep_without_a_fittable_error_is_refused(self, tmp_path,
                                                       capsys, s, code):
        # each eps run equals the reference bit for bit, so every error is
        # 0; an s this large or small makes the H^(s-1) weight inf or 0
        text = ("nu = 0.1\neps = 0\nsymbol = power\nalpha = 1.5\nmu = 1\n"
                "n = 64\ndim = 2\ndt = 2e-3\nt_end = 0.02\nic = random\n"
                "k_c = 1.5\namplitude = 0.5\nseed = 1\noutput_every = 2\n")
        out = tmp_path / "out"
        assert main(["sweep-eps", str(write_config(tmp_path, text)), "--eps",
                     "1e-300,1e-299,1e-298,1e-297", f"--s={s}", "--T", "0.02",
                     "--out", str(out)]) == code
        if code == 2:
            assert "--s" in assert_one_error_line(capsys, "config")
            assert not out.exists()
        else:
            assert "eps=1e-300" in assert_one_error_line(capsys, "numerical")
            assert failed_manifest(out, "NumericalError")["files"] == []

    def test_under_resolved_reference_exit_code(self, tmp_path, capsys):
        text = CONFIG + "k_c = 12\n"
        cfg = write_config(tmp_path, text.replace("amplitude = 0.5",
                                                  "amplitude = 5"))
        out = tmp_path / "out"
        code = main(["sweep-eps", str(cfg), "--eps", "1e-2,3e-3,1e-3,1e-4",
                     "--s", "3.0", "--T", "0.1", "--out", str(out)])
        assert code == 3
        assert "resolution" in assert_one_error_line(capsys, "numerical")
        manifest = failed_manifest(out, "NumericalError")
        assert manifest["files"] == []
        assert manifest["failure"]["t"] >= 0

    @pytest.mark.parametrize("table", ["nan", "header"])
    def test_bad_symbol_table_is_config_error(self, tmp_path, capsys, table):
        path = nan_table(tmp_path)
        if table == "header":
            path.write_text("k,re_ell,im_ell\n1,-1,0\n")
        cfg = write_config(tmp_path, CONFIG.replace(
            "symbol = power", f"symbol = table:{path}"))
        out = tmp_path / "out"
        code = main(["sweep-eps", str(cfg), "--eps", "1e-2,3e-3,1e-3,1e-4",
                     "--s", "3.0", "--T", "0.1", "--out", str(out)])
        assert code == 2
        err = assert_one_error_line(capsys, "config")
        assert err.startswith(f"error: config: bad symbol 'table:{path}': ")
        assert not out.exists()

    @pytest.mark.parametrize("eps", [
        "abc", "1e-2,1e-3,1e-4", "1e-2,1e-3,0,1e-4", "1e-2,8e-3,6e-3,4e-3"])
    def test_bad_eps_list_is_config_error(self, tmp_path, capsys, eps):
        out = tmp_path / "out"
        code = main(["sweep-eps", str(write_config(tmp_path)), "--eps", eps,
                     "--s", "3.0", "--T", "0.1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: --eps: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_bad_alpha_list_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["compare-alpha", str(write_config(tmp_path)),
                     "--alpha", "1.25,x", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: --alpha: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "3", "--T", "-1"],
        ["sweep-eps", "--eps", "1e-2,3e-3,1e-3,1e-4", "--s", "nan",
         "--T", "0.1"],
        ["compare-alpha", "--alpha", "1.25,1.5", "--eps", "-1"],
        ["compare-alpha", "--alpha", "0.5,1.25"]],
        ids=["negative-T", "nan-s", "negative-eps", "alpha-below-1"])
    def test_bad_study_argument_runs_nothing(self, tmp_path, capsys,
                                             monkeypatch, args):
        calls = []
        monkeypatch.setattr(experiments, "run",
                            lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        command, *flags = args
        code = main([command, str(write_config(tmp_path)), *flags,
                     "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys, "config")
        assert not out.exists() and calls == []
