"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every test prints ``criterion N (name): PASS/FAIL (metric)`` before
asserting, so a ``pytest -s`` run doubles as a sign-off report.
"""
from dataclasses import replace

import numpy as np
import pytest

from conftest import bandlimited_field, brute_force_nonlinear, shear_field
from hyperns.cli import main
from hyperns.config import SimConfig
from hyperns.diagnostics import DefectSplitSink, energy_budget
from hyperns.dynamics import nonlinear_term, run
from hyperns.experiments import (dilate, dilation_norm_exponent,
                                 scaling_covariance_residual,
                                 vanishing_eps_sweep)
from hyperns.lattice import (SobolevIndex, WavenumberLattice, inner_product,
                             sobolev_norm)
from hyperns.symbols import classify, first_order_symbol, power_symbol


def report(number, name, ok, metric):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({metric})")


# ---------------------------------------------------------------- criterion 2/7
# The n=128 nonlinear run is shared between the budget criterion and the
# defect criterion; one streaming defect split per eta rides along.

REFERENCE_CFG = SimConfig(nu=1e-2, eps=1e-4, symbol="power", alpha=1.25,
                          n=128, dim=2, dt=1e-3, t_end=1.0, ic="random",
                          amplitude=1.0, seed=11, output_every=1)


def defect_sinks(cfg, sym):
    """One DefectSplitSink per eta of criterion 7."""
    return tuple(DefectSplitSink(sym, cfg.nu, cfg.eps, eta)
                 for eta in (0.25, 0.5))


@pytest.fixture(scope="module")
def reference_run():
    sym = REFERENCE_CFG.build_symbol()
    sinks = defect_sinks(REFERENCE_CFG, sym)
    final, records = run(REFERENCE_CFG, sinks=sinks, symbol=sym)
    return final, records, sinks


class TestCriterion1:
    def test_linear_exactness(self):
        # the nonlinear term is exactly 0 on a shear flow u = (f(x_2), 0),
        # so the integrating-factor step must reproduce the exact decay at t=1
        cfg = SimConfig(nu=0.5, eps=0.1, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=0.05, t_end=1.0, ic="random",
                        output_every=20)
        lat = WavenumberLattice(32, 2)
        u0 = shear_field(lat, 1)
        sym = power_symbol(lat, 1.0, 1.25)
        decay = np.exp(-(cfg.nu * lat.k_sq + cfg.eps * sym.m) * cfg.t_end)
        exact = u0.coeffs * decay

        from hyperns.dynamics import Stepper, TrajectoryState
        stepper = Stepper(sym, cfg.nu, cfg.eps, cfg.dt)
        st = TrajectoryState.start(u0.copy())
        for _ in range(20):
            st = stepper.step(st)
        err = (np.sqrt(np.sum(np.abs(st.u.coeffs - exact) ** 2))
               / np.sqrt(np.sum(np.abs(exact) ** 2)))
        ok = err <= 1e-12
        report(1, "linear exactness", ok, f"relative error {err:.3e}")
        assert ok


class TestCriterion2:
    def test_energy_budget_residual(self, reference_run):
        final, records, _ = reference_run
        residual = float(np.max(energy_budget(records)))
        ok = residual <= 1e-6
        report(2, "energy budget", ok, f"max residual {residual:.3e} of E(0)")
        assert ok


class TestCriterion3:
    def test_nonlinear_energy_neutrality(self):
        worst = 0.0
        for seed in range(100):
            n = 16 if seed % 2 else 32
            dim = 3 if n == 16 and seed % 4 == 1 else 2
            lat = WavenumberLattice(n, dim)
            u = bandlimited_field(lat, seed, lat.dealias_limit)
            b = nonlinear_term(u)
            grad = sobolev_norm(u, SobolevIndex(1.0, "homogeneous"))
            worst = max(worst, abs(inner_product(b, u))
                        / (u.l2_norm() ** 2 * grad))
        ok = worst <= 1e-12
        report(3, "energy neutrality", ok, f"worst normalized pairing {worst:.3e}")
        assert ok


class TestCriterion4:
    def test_nonlinear_oracle(self):
        worst = 0.0
        for seed in range(10):
            for n, dim in ((8, 3), (16, 2)):
                lat = WavenumberLattice(n, dim)
                u = bandlimited_field(lat, seed, lat.dealias_limit)
                fast = nonlinear_term(u)
                slow = brute_force_nonlinear(u)
                num = np.sqrt(np.sum(np.abs(fast.coeffs - slow.coeffs) ** 2))
                den = max(np.sqrt(np.sum(np.abs(slow.coeffs) ** 2)), 1e-300)
                worst = max(worst, float(num / den))
        ok = worst <= 1e-12
        report(4, "nonlinear oracle", ok, f"worst relative error {worst:.3e}")
        assert ok


class TestCriterion5:
    def test_scaling_symmetry(self):
        worst_norm = 0.0
        for dim in (2, 3):
            lat = WavenumberLattice(64 if dim == 2 else 32, dim)
            for lam in (2, 3):
                u = bandlimited_field(lat, 5, 5 if lam == 2 else 3)
                for alpha in (1.125, 1.25, 1.5):
                    d = dilate(u, lam, alpha)
                    expect = float(lam) ** dilation_norm_exponent(alpha, dim)
                    rel = abs(d.l2_norm() ** 2 / u.l2_norm() ** 2 / expect - 1)
                    worst_norm = max(worst_norm, rel)

        lat = WavenumberLattice(64, 2)
        worst_cov = 0.0
        for lam in (2, 3):
            u = bandlimited_field(lat, 6, 5 if lam == 2 else 3)
            for alpha in (1.125, 1.25, 1.5):
                worst_cov = max(worst_cov,
                                scaling_covariance_residual(u, lam, alpha, 1.0))

        lat3 = WavenumberLattice(32, 3)
        u3 = bandlimited_field(lat3, 7, 5)
        d3 = dilate(u3, 2, 1.25)
        invariance = abs(d3.l2_norm() / u3.l2_norm() - 1.0)

        ok = worst_norm <= 1e-13 and worst_cov <= 1e-12 and invariance <= 1e-13
        report(5, "scaling symmetry", ok,
               f"norm law {worst_norm:.3e}, covariance {worst_cov:.3e}, "
               f"critical invariance {invariance:.3e}")
        assert ok


class TestCriterion6:
    def test_vanishing_eps_rate(self):
        cfg = SimConfig(nu=0.1, eps=0.0, symbol="power", alpha=1.5,
                        n=64, dim=2, dt=2e-3, t_end=0.5, ic="random",
                        k_c=1.5, amplitude=0.5, seed=7, output_every=10)
        eps_list = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
        res = vanishing_eps_sweep(cfg, eps_list, s=3.0, T=0.5)
        ok = 0.9 <= res.slope <= 1.1
        report(6, "vanishing-eps rate", ok,
               f"fitted slope {res.slope:.4f}, rms {res.rms:.3e}")
        assert ok


class TestCriterion7:
    def test_defect_split_bounds(self, reference_run):
        _, records, sinks = reference_run
        checks = []

        def check(sinks, records, alpha):
            hyper = np.array([r.hyper_dissipation_rate for r in records])
            ts = np.array([r.t for r in records])
            total = float(np.trapezoid(hyper, ts))
            for split in (sink.result() for sink in sinks):
                eta = split.eta
                grad_int = split.bound_rhs / (split.bound_constant
                                              * eta ** (2 * alpha - 2))
                bound = eta ** (2 * alpha - 2) * grad_int  # C = 1 for mu = 1
                checks.append((split.low <= bound * (1 + 1e-12),
                               abs(split.low + split.high - total)
                               / max(total, 1e-300)))

        check(sinks, records, REFERENCE_CFG.alpha)

        sweep_cfg = SimConfig(nu=0.1, eps=0.0, symbol="power", alpha=1.5,
                              n=64, dim=2, dt=2e-3, t_end=0.5, ic="random",
                              k_c=1.5, amplitude=0.5, seed=7, output_every=5)
        sym = sweep_cfg.build_symbol()
        for eps in (1e-2, 1e-3):
            cfg = replace(sweep_cfg, eps=eps)
            sinks = defect_sinks(cfg, sym)
            _, recs = run(cfg, sinks=sinks, symbol=sym)
            check(sinks, recs, sweep_cfg.alpha)

        bound_ok = all(c[0] for c in checks)
        worst_add = max(c[1] for c in checks)
        ok = bound_ok and worst_add <= 1e-10
        report(7, "defect bounds", ok,
               f"all bounds hold: {bound_ok}, worst additivity {worst_add:.3e}")
        assert ok


class TestCriterion8:
    def test_symbol_classifier(self):
        lat = WavenumberLattice(64, 2)
        band = (lat.k_unit, lat.dealias_limit * lat.k_unit)
        worst = 0.0
        for mu in (0.5, 1.0, 2.0):
            for alpha in (1.125, 1.25, 1.5, 1.75):
                cls = classify(power_symbol(lat, mu, alpha), band)
                assert cls.tag == "hyperdissipative"
                worst = max(worst, abs(cls.alpha_hat - alpha))

        from hyperns.symbols import MultiplierSymbol
        lat32 = WavenumberLattice(32, 2)
        g = np.exp(-lat32.k_sq)
        gauss = classify(MultiplierSymbol(lat32, -g, "tabulated", {}),
                         (lat32.k_unit, lat32.dealias_limit * lat32.k_unit))
        first = classify(first_order_symbol(
            lat32, np.ones(lat32.grid_shape), 0),
            (lat32.k_unit, lat32.dealias_limit * lat32.k_unit))

        ok = (worst <= 0.02 and gauss.tag == "order_zero"
              and first.tag == "first_order_imaginary")
        report(8, "symbol classifier", ok,
               f"max |alpha_hat - alpha| {worst:.3e}, gauss={gauss.tag}, "
               f"first-order={first.tag}")
        assert ok


class TestCriterion9:
    def test_linear_spectra_tables(self, tmp_path):
        assert main(["linear-spectra", "--nu", "1", "--mu", "1",
                     "--alpha", "1,1.25,1.5", "--kmax", "64",
                     "--k0", "8", "--out", str(tmp_path)]) == 0
        damping = (tmp_path / "damping_rates.csv").read_text().splitlines()
        worst = 0.0
        for row in damping[1:]:
            vals = [float(v) for v in row.split(",")]
            k = vals[0]
            for alpha, got in zip((1.0, 1.25, 1.5), vals[1:]):
                expect = k ** 2 + k ** (2 * alpha)
                worst = max(worst, abs(got - expect))
        decay = (tmp_path / "mode_decay.csv").read_text().splitlines()
        k0 = 8.0
        for row in decay[1:]:
            vals = [float(v) for v in row.split(",")]
            t = vals[0]
            for alpha, got in zip((1.0, 1.25, 1.5), vals[1:]):
                rate = k0 ** 2 + k0 ** (2 * alpha)
                worst = max(worst, abs(got - np.exp(-2.0 * rate * t)))
        ok = worst == 0.0
        report(9, "linear spectra tables", ok,
               f"worst deviation from closed form {worst:.3e}")
        assert ok


class TestCriterion10:
    """Two runs give byte-identical diagnostics, and the final snapshot
    survives a read/write round trip exactly; in 2-D and in 3-D."""

    CFG = ("nu = 1e-2\neps = 1e-3\nsymbol = power\nalpha = 1.25\n"
           "mu = 1\nn = {n}\ndim = {dim}\ndt = 5e-3\nt_end = 0.1\n"
           "ic = random\namplitude = 0.5\nseed = 9\noutput_every = 2\n")

    def check(self, tmp_path, n, dim):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CFG.format(n=n, dim=dim))
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0
            rd = next(p for p in out.iterdir() if p.is_dir())
            blobs.append((rd / "diagnostics.csv").read_bytes())
            snap = rd / "final.hypf"
        identical = blobs[0] == blobs[1]

        from hyperns.snapshot import read_snapshot, write_snapshot
        u, _ = read_snapshot(snap)
        again = tmp_path / "again.hypf"
        write_snapshot(u, again, nu=1e-2, eps=1e-3, symbol_spec="power")
        v, _ = read_snapshot(again)
        round_trip = np.array_equal(u.coeffs, v.coeffs) and u.t == v.t

        ok = identical and round_trip
        report(10, f"determinism and snapshots, {dim}-D n={n}", ok,
               f"diagnostics bit-identical: {identical}, "
               f"snapshot round trip exact: {round_trip}")
        assert ok

    def test_determinism_and_round_trip(self, tmp_path):
        self.check(tmp_path, 32, 2)

    def test_determinism_and_round_trip_3d(self, tmp_path):
        self.check(tmp_path, 16, 3)
