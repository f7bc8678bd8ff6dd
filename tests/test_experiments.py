"""Scaling symmetry, vanishing-hyperdissipation sweeps, exponent and
kernel-family studies."""
import inspect
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import bandlimited_field, calls_of
from hyperns import dynamics, experiments
from hyperns.config import ConfigError, SimConfig
from hyperns.diagnostics import shell_spectrum
from hyperns.dynamics import NumericalError, run, taylor_green
from hyperns.experiments import (alpha_comparison, dilate,
                                 dilation_norm_exponent,
                                 kernel_interpolation_study,
                                 scaling_covariance_residual,
                                 spectral_tail_fraction, sweep_eps_values,
                                 vanishing_eps_sweep)
from hyperns.lattice import (SobolevIndex, SpectralVelocity, WavenumberLattice,
                             sobolev_norm)


def base_config(**kw):
    defaults = dict(nu=5e-2, eps=1e-3, symbol="power", alpha=1.25, mu=1.0,
                    n=32, dim=2, dt=5e-3, t_end=0.2, ic="random",
                    amplitude=0.5, seed=0, output_every=5)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDilate:
    def test_critical_exponent_is_invariant(self):
        # alpha = 5/4 in three dimensions: the L2 norm is exactly preserved
        lat = WavenumberLattice(32, 3)
        u = bandlimited_field(lat, 1, 5)
        d = dilate(u, 2, 1.25)
        assert abs(d.l2_norm() / u.l2_norm() - 1.0) <= 1e-13

    def test_printed_ratio_3d(self):
        lat = WavenumberLattice(32, 3)
        u = bandlimited_field(lat, 2, 5)
        d = dilate(u, 2, 1.5)
        assert d.l2_norm() / u.l2_norm() == pytest.approx(np.sqrt(2.0),
                                                          rel=1e-13)

    @pytest.mark.parametrize("dim,lam,alpha", [
        (2, 2, 1.125), (2, 3, 1.5), (3, 2, 1.25), (3, 3, 1.125)])
    def test_norm_law(self, dim, lam, alpha):
        lat = WavenumberLattice(64 if dim == 2 else 32, dim)
        u = bandlimited_field(lat, 3, 5 if lam == 2 else 3)
        d = dilate(u, lam, alpha)
        expect = float(lam) ** dilation_norm_exponent(alpha, dim)
        assert d.l2_norm() ** 2 / u.l2_norm() ** 2 == pytest.approx(
            expect, rel=1e-13)

    def test_identity_dilation(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 4, 5)
        d = dilate(u, 1, 1.5)
        assert np.array_equal(d.coeffs, u.coeffs)
        assert d.lattice == lat

    def test_support_overflow_raises(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 5, 10)
        with pytest.raises(ValueError, match="outside the lattice"):
            dilate(u, 2, 1.5)

    def test_non_integer_lambda_rejected(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 6, 5)
        with pytest.raises(ValueError, match="integer"):
            dilate(u, 1.5, 1.25)


class TestScalingCovariance:
    def test_single_mode_reduces_to_symbol_scaling(self):
        lat = WavenumberLattice(64, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[1, 2, 0] = 0.5
        c[1, -2, 0] = 0.5
        u = SpectralVelocity(lat, c)
        assert scaling_covariance_residual(u, 2, 1.25, 1.0) <= 1e-14

    def test_taylor_green(self):
        lat = WavenumberLattice(64, 2)
        u = taylor_green(lat)
        # snap FFT roundoff to the exact four-mode support
        u.coeffs[np.abs(u.coeffs) < 1e-12 * np.max(np.abs(u.coeffs))] = 0.0
        assert scaling_covariance_residual(u, 2, 1.5, 1.0) <= 1e-13

    @pytest.mark.parametrize("lam,alpha", [(2, 1.25), (2, 1.5), (3, 1.125)])
    def test_random_bandlimited(self, lam, alpha):
        lat = WavenumberLattice(64, 2)
        u = bandlimited_field(lat, 7, 5 if lam == 2 else 3)
        assert scaling_covariance_residual(u, lam, alpha, 1.0) <= 1e-12

    def test_band_overflow_raises(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 8, 5)
        with pytest.raises(ValueError, match="dealias band"):
            scaling_covariance_residual(u, 2, 1.25, 1.0)


class TestVanishingEpsSweep:
    def test_rejects_short_lists(self):
        cfg = base_config()
        with pytest.raises(ValueError, match=">= 4"):
            vanishing_eps_sweep(cfg, [1e-3], s=3.0, T=0.1)

    def test_rejects_narrow_span(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="decades"):
            vanishing_eps_sweep(cfg, [1e-3, 2e-3, 4e-3, 8e-3], s=3.0, T=0.1)

    def test_rejects_nonpositive_eps(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="positive"):
            vanishing_eps_sweep(cfg, [0.0, 1e-3, 1e-2, 1e-1], s=3.0, T=0.1)

    def test_linear_rate_small_case(self):
        cfg = base_config(n=32, nu=0.1, alpha=1.5, k_c=1.5, dt=5e-3,
                          amplitude=0.5, seed=7, output_every=10)
        res = vanishing_eps_sweep(cfg, [1e-2, 3e-3, 1e-3, 1e-4], s=3.0, T=0.2)
        assert res.parameter == "eps"
        assert np.all(np.diff(res.values) > 0)
        assert np.all(np.diff(res.outcomes["sup_error"]) > 0)
        assert 0.85 <= res.slope <= 1.15

    def test_deterministic(self):
        cfg = base_config(n=32, nu=0.1, alpha=1.5, k_c=1.5, output_every=10)
        eps = [1e-2, 3e-3, 1e-3, 1e-4]
        a = vanishing_eps_sweep(cfg, eps, s=3.0, T=0.1)
        b = vanishing_eps_sweep(cfg, eps, s=3.0, T=0.1)
        assert np.array_equal(a.outcomes["sup_error"], b.outcomes["sup_error"])
        assert a.slope == b.slope


def calls_of_run(monkeypatch):
    """Wrap experiments.run; returns the list of (thread id, cfg) it sees."""
    calls = []
    plain = experiments.run

    def traced(cfg, *args, **kwargs):
        calls.append((threading.get_ident(), cfg))
        return plain(cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "run", traced)
    return calls


class TestStreamingSweep:
    CFG = dict(n=32, nu=0.1, alpha=1.5, k_c=1.5, output_every=10)
    EPS = [1e-3, 1e-2, 1e-4, 3e-3]   # deliberately unsorted

    @pytest.mark.parametrize("kw, T", [
        (CFG, 0.1),
        (dict(n=16, dim=3, nu=0.1, alpha=1.5, dt=2e-3, ic="taylor-green-3d",
              output_every=2), 0.04)], ids=["2d-n32", "3d-n16-taylor-green"])
    def test_sup_error_equals_recorded_post_pass(self, kw, T):
        # the sweep's streaming distances against the record-then-compare
        # algorithm on full-layout fields: the same floats
        cfg = replace(base_config(**kw), t_end=T)
        res = vanishing_eps_sweep(cfg, self.EPS, s=3.0, T=T)

        def recorded(eps):
            fields = []
            run(replace(cfg, eps=eps),
                sinks=(lambda st, rec: fields.append(st.u),))
            return fields

        ref = recorded(0.0)
        idx = SobolevIndex(2.0, "inhomogeneous")
        expect = []
        for eps in sorted(self.EPS):
            fields = recorded(eps)
            assert len(fields) == len(ref)
            expect.append(float(max(
                sobolev_norm(SpectralVelocity(uref.lattice,
                                              ueps.coeffs - uref.coeffs,
                                              uref.t), idx)
                for uref, ueps in zip(ref, fields))))
        assert res.outcomes["sup_error"].tolist() == expect

    def test_runs_in_calling_thread_reference_first(self, monkeypatch):
        calls = calls_of_run(monkeypatch)
        vanishing_eps_sweep(base_config(**self.CFG), self.EPS, s=3.0,
                            T=0.05, max_workers=4)
        assert [t for t, _ in calls] == [threading.get_ident()] * 5
        assert [c.eps for _, c in calls] == [0.0] + sorted(self.EPS)

    def test_alpha_comparison_runs_in_order_in_calling_thread(
            self, monkeypatch):
        calls = calls_of_run(monkeypatch)
        alphas = [1.5, 1.125, 1.25]
        alpha_comparison(base_config(t_end=0.02), alphas, eps=1e-3)
        assert [t for t, _ in calls] == [threading.get_ident()] * 3
        assert [c.alpha for _, c in calls] == alphas
        assert "max_workers" not in inspect.signature(
            alpha_comparison).parameters

    def test_under_resolved_reference_stops_before_eps_runs(
            self, monkeypatch):
        calls = calls_of_run(monkeypatch)
        cfg = base_config(n=32, k_c=12.0, amplitude=5.0)
        with pytest.raises(NumericalError, match="loses resolution") as err:
            vanishing_eps_sweep(cfg, self.EPS, s=3.0, T=0.1)
        assert isinstance(err.value, RuntimeError)
        assert [c.eps for _, c in calls] == [0.0]

    @pytest.mark.parametrize("s, T, error", [
        (float("nan"), 0.1, ValueError), (3.0, -1.0, ConfigError),
        (3.0, float("inf"), ConfigError), (1e6, 0.1, ValueError),
        (-1e6, 0.1, ValueError)])
    def test_bad_s_or_T_stops_before_the_reference(self, monkeypatch, s, T,
                                                   error):
        calls = calls_of_run(monkeypatch)
        fields = calls_of(monkeypatch, dynamics, "random_field")
        with pytest.raises(error):
            vanishing_eps_sweep(base_config(**self.CFG), self.EPS, s=s, T=T)
        assert calls == [] and fields == []

    def test_zero_error_stops_the_sweep_naming_its_eps(self, monkeypatch):
        # eps this small leaves each eps run equal to the reference
        calls = calls_of_run(monkeypatch)
        with pytest.raises(NumericalError, match="eps=1e-300 "):
            vanishing_eps_sweep(base_config(**self.CFG),
                                [1e-297, 1e-298, 1e-299, 1e-300], s=3.0,
                                T=0.05)
        assert [c.eps for _, c in calls] == [0.0, 1e-300]

    def test_eps_values_checked_and_sorted(self):
        assert sweep_eps_values(self.EPS) == sorted(self.EPS)
        for bad in ([1e-1, 1e-2, 1e-3, float("nan")],
                    [1e-1, 1e-2, 1e-3, float("inf")]):
            with pytest.raises(ValueError, match="positive"):
                sweep_eps_values(bad)


class TestAlphaComparison:
    def test_monotone_dissipation_in_alpha(self):
        # all modes have |k| >= 1, so m is pointwise monotone in alpha
        dissipated = []
        for alpha in (1.125, 1.25, 1.5):
            cfg = base_config(alpha=alpha, eps=1e-2, seed=2)
            _, records = run(cfg)
            dissipated.append(records[0].energy - records[-1].energy)
        assert dissipated[0] <= dissipated[1] <= dissipated[2]

    def test_tabulated_outcomes(self):
        cfg = base_config(t_end=0.1)
        res = alpha_comparison(cfg, [1.25, 1.5], eps=1e-3)
        assert len(res.values) == 2
        assert res.outcomes["error"] == [None, None]
        sup = res.outcomes["sup_enstrophy"]
        assert sup[1] <= sup[0] * (1 + 1e-9)
        for split in res.outcomes["defect"]:
            assert split.low >= 0 and split.high >= 0

    def test_single_entry_report(self):
        cfg = base_config(t_end=0.05)
        res = alpha_comparison(cfg, [1.25], eps=1e-3)
        assert len(res.values) == 1
        assert res.outcomes["error"] == [None]

    def test_per_alpha_failure_is_contained(self):
        cfg = base_config(t_end=0.05)
        res = alpha_comparison(cfg, [0.5, 1.25], eps=1e-3)
        assert res.outcomes["error"][0] is not None
        assert res.outcomes["error"][1] is None


class TestKernelStudy:
    def test_interpolating_family(self, monkeypatch):
        cfg = base_config(n=32, t_end=0.05, output_every=1)
        fields = calls_of(monkeypatch, dynamics, "random_field")

        def gaussian(lat):
            return [np.exp(-lat.k_sq)] * lat.dim

        def constant(lat):
            return [np.ones(lat.grid_shape)] * lat.dim

        def riesz(power):
            def builder(lat):
                c = np.zeros(lat.grid_shape)
                nz = lat.k_mag > 0
                c[nz] = lat.k_mag[nz] ** power
                return [c] * lat.dim
            return builder

        def negative(lat):
            return [-np.ones(lat.grid_shape)] * lat.dim

        report = kernel_interpolation_study(
            cfg, [("gaussian", gaussian), ("constant", constant),
                  ("riesz-1.25", riesz(0.5)), ("riesz-1.5", riesz(1.0)),
                  ("negative", negative)])
        by_name = {e["name"]: e for e in report}
        assert by_name["gaussian"]["classification"].tag == "order_zero"
        assert by_name["constant"]["classification"].tag == "unclassified"
        for name, alpha in (("riesz-1.25", 1.25), ("riesz-1.5", 1.5)):
            cls = by_name[name]["classification"]
            assert cls.tag == "hyperdissipative"
            assert cls.alpha_hat == pytest.approx(alpha, abs=0.02)
            assert by_name[name]["budget_residual"] <= 1e-6
        assert by_name["negative"]["refused"]
        # the two runs share one initial condition
        assert len(fields) == 1

    def test_requires_three_kernels(self):
        cfg = base_config()
        with pytest.raises(ValueError, match=">= 3"):
            kernel_interpolation_study(cfg, [("a", None), ("b", None)])


class TestTailFraction:
    def test_bandlimited_field_has_no_tail(self):
        lat = WavenumberLattice(64, 2)
        u = bandlimited_field(lat, 1, 5)
        assert spectral_tail_fraction(shell_spectrum(u)[1], lat) == 0.0

    def test_high_mode_registers(self):
        lat = WavenumberLattice(32, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[1, 9, 0] = 1.0
        c[1, -9, 0] = 1.0
        u = SpectralVelocity(lat, c)
        assert spectral_tail_fraction(shell_spectrum(u)[1],
                                      lat) == pytest.approx(1.0)
