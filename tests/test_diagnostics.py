"""Energy accounting, spectra, crossover and defect analysis, linear curves."""
import itertools
import math

import numpy as np
import pytest

from conftest import bandlimited_field, shear_field
from hyperns import experiments
from hyperns.cli import main
from hyperns.config import SimConfig
from hyperns.diagnostics import (DefectSplitSink, crossover_frequency,
                                 defect_split, energy_budget,
                                 linear_damping_curve, make_record,
                                 mode_decay_curve, shell_spectrum)
from hyperns.dynamics import (Stepper, TrajectoryState, initial_condition,
                              run, smallness_probe)
from hyperns.lattice import (SobolevIndex, SpectralVelocity,
                             WavenumberLattice, sobolev_norm)
from hyperns.symbols import (MultiplierSymbol, classify, kernel_symbol,
                             power_symbol)


class TestShellSpectrum:
    def test_single_mode_pair(self):
        lat = WavenumberLattice(16, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        amp = 1.0 / np.sqrt(2.0 * (2 * np.pi) ** 2)  # unit L2 norm
        c[1, 2, 0] = amp
        c[1, -2, 0] = amp
        u = SpectralVelocity(lat, c)
        radii, e = shell_spectrum(u)
        assert e[2] == pytest.approx(0.5, rel=1e-12)
        assert np.sum(e) - e[2] <= 1e-15

    def test_partition_sums_to_energy(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 1, 10)
        _, e = shell_spectrum(u)
        assert np.sum(e) == pytest.approx(u.energy(), rel=1e-12)

    def test_brute_force_oracle(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 2, 5)
        _, e = shell_spectrum(u)
        n = lat.n_per_dim
        vol = lat.box_length ** 2
        direct = np.zeros_like(e)
        for i1 in range(n):
            for i2 in range(n):
                kap = [((i + n // 2) % n) - n // 2 for i in (i1, i2)]
                r = math.sqrt(kap[0] ** 2 + kap[1] ** 2)
                s = math.ceil(r - 0.5)
                mag2 = sum(abs(u.coeffs[c, i1, i2]) ** 2 for c in range(2))
                direct[s] += 0.5 * vol * mag2
        assert np.max(np.abs(e - direct)) <= 1e-12 * max(np.max(e), 1e-300)


class TestEnergyBudget:
    def _linear_records(self, nu, eps, dt, n_steps, sample_every=1):
        lat = WavenumberLattice(32, 2)
        sym = power_symbol(lat, 1.0, 1.25)
        u = shear_field(lat, 4, amplitude=0.5)
        stp = Stepper(sym, nu, eps, dt)
        st = TrajectoryState.start(u)
        records = [make_record(st, nu, eps, sym)]
        for i in range(n_steps):
            st = stp.step(st)
            if (i + 1) % sample_every == 0:
                records.append(make_record(st, nu, eps, sym))
        return records

    def test_zero_field(self):
        lat = WavenumberLattice(16, 2)
        sym = power_symbol(lat, 1.0, 1.25)
        z = SpectralVelocity(lat, np.zeros((2,) + lat.grid_shape, dtype=complex))
        records = [make_record(TrajectoryState(u=z, t=0.0, step_index=0),
                               1.0, 1.0, sym) for _ in range(3)]
        for i, r in enumerate(records):
            r.t = float(i)
        assert np.max(energy_budget(records)) == 0.0

    def test_zero_start_energy_gives_the_absolute_residual(self):
        records = self._linear_records(1e-2, 1e-4, 1e-3, 2)
        for r in records:
            r.energy, r.visc_dissipation_rate = 0.0, 2.0
            r.hyper_dissipation_rate = 0.0
        records[2].energy = 5.0
        dt = records[1].t - records[0].t
        assert energy_budget(records).tolist() == [0.0, 2.0 * dt,
                                                   5.0 + 4.0 * dt]

    @pytest.mark.parametrize("column", ["energy", "visc_dissipation_rate",
                                        "hyper_dissipation_rate"])
    def test_rejects_negative_energy_or_rate(self, column):
        records = self._linear_records(1e-2, 1e-4, 1e-3, 2)
        setattr(records[1], column, -1e-300)
        with pytest.raises(ValueError, match="negative"):
            energy_budget(records)

    def test_linear_run_quadrature_limited(self):
        # exact propagator: the only residual is trapezoid quadrature error
        res_coarse = np.max(energy_budget(
            self._linear_records(1e-2, 1e-4, 1e-3, 400, sample_every=4)))
        res_fine = np.max(energy_budget(
            self._linear_records(1e-2, 1e-4, 1e-3, 400, sample_every=1)))
        assert res_fine <= 1e-6
        # halving the sample interval divides the residual by ~4 (O(h^2))
        assert res_coarse / res_fine == pytest.approx(16.0, rel=0.3)

    def test_rejects_non_monotone_times(self):
        records = self._linear_records(1e-2, 0.0, 1e-3, 3)
        records[2].t = records[1].t
        with pytest.raises(ValueError, match="monotone"):
            energy_budget(records)

    def test_record_invariants(self):
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.1, ic="random",
                        amplitude=0.5, output_every=5)
        _, records = run(cfg)
        for r in records:
            assert r.energy >= 0 and r.enstrophy >= 0
            assert r.visc_dissipation_rate >= 0
            assert r.hyper_dissipation_rate >= 0
            assert np.sum(r.shell_spectrum) == pytest.approx(r.energy,
                                                             rel=1e-10)


class TestCrossover:
    def test_equal_coefficients(self):
        for alpha in (1.125, 1.25, 1.5):
            assert crossover_frequency(0.3, 0.3, alpha) == pytest.approx(1.0)

    def test_closed_form_values(self):
        assert crossover_frequency(1.0, 1e-4, 1.5) == pytest.approx(1e4, rel=1e-12)
        assert crossover_frequency(1.0, 1e-2, 1.25) == pytest.approx(1e4, rel=1e-12)

    def test_eps_zero_is_infinite(self):
        assert crossover_frequency(1.0, 0.0, 1.5) == math.inf

    def test_homogeneous_in_scaling(self):
        a = crossover_frequency(1e-2, 1e-5, 1.25)
        b = crossover_frequency(3e-2, 3e-5, 1.25)
        assert a == pytest.approx(b, rel=1e-12)


class TestDefectSplit:
    def _single_mode_run(self, nu, eps, alpha, kappa0):
        lat = WavenumberLattice(32, 2)
        sym = power_symbol(lat, 1.0, alpha)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[1, kappa0, 0] = 0.5
        c[1, -kappa0, 0] = 0.5
        u = SpectralVelocity(lat, c)
        stp = Stepper(sym, nu, eps, 1e-2)
        st = TrajectoryState.start(u)
        times, states = [0.0], [st.u.copy()]
        for _ in range(20):
            st = stp.step(st)
            times.append(st.t)
            states.append(st.u.copy())
        return times, states, sym

    def test_one_mode_closed_form(self):
        # mode at |k| = eta R/2: D_low / (nu int ||grad u||^2) = (eta/2)^{2a-2}
        nu, eps, alpha, eta = 0.16, 0.01, 1.5, 0.5
        times, states, sym = self._single_mode_run(nu, eps, alpha, 4)
        split = defect_split(times, states, sym, nu, eps, eta)
        assert split.crossover == pytest.approx(16.0, rel=1e-12)
        visc = split.bound_rhs / (split.bound_constant
                                  * eta ** (2 * alpha - 2))
        assert split.low / visc == pytest.approx((eta / 2.0) ** (2 * alpha - 2),
                                                 rel=1e-12)
        assert split.high == 0.0
        assert split.bound_origin == "exact-power"

    def test_all_energy_above_cut(self):
        nu, eps, alpha = 1e-4, 0.1, 1.5  # crossover R = 1e-3, cut below k=1
        times, states, sym = self._single_mode_run(nu, eps, alpha, 5)
        split = defect_split(times, states, sym, nu, eps, 0.5)
        assert split.low == 0.0
        assert split.high > 0.0

    def test_additivity_and_bound(self):
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.2, ic="random",
                        amplitude=0.5, output_every=1)
        times, states = [], []

        def sink(st, rec):
            times.append(st.t)
            states.append(SpectralVelocity.from_band(st.lattice, st.band,
                                                     st.t))

        _, records = run(cfg, sinks=(sink,))
        sym = cfg.build_symbol()
        for eta in (0.25, 0.5):
            split = defect_split(times, states, sym, cfg.nu, cfg.eps, eta)
            hyper = np.array([r.hyper_dissipation_rate for r in records])
            ts = np.array([r.t for r in records])
            total = float(np.trapezoid(hyper, ts))
            assert split.low + split.high == pytest.approx(total, rel=1e-10)
            assert split.low <= split.bound_rhs * (1 + 1e-12)

    def test_sink_matches_split_over_recorded_states(self):
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.1, ic="random",
                        amplitude=0.5, output_every=3)
        sym = cfg.build_symbol()
        sink = DefectSplitSink(sym, cfg.nu, cfg.eps, cfg.eta)
        times, fields = [], []

        def record(st, rec):
            times.append(st.t)
            fields.append(SpectralVelocity.from_band(st.lattice, st.band,
                                                     st.t))

        run(cfg, sinks=(sink, record), symbol=sym)
        assert not hasattr(sink, "states")
        assert sink.result() == defect_split(times, fields, sym, cfg.nu,
                                             cfg.eps, cfg.eta)

    def test_envelope_bound_of_a_kernel_symbol(self):
        # m = sum_j k_j^2 |k|^{2 alpha - 2} = |k|^{2 alpha}, alpha = 5/4,
        # built as a kernel: the bound constant comes from the classifier
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.2, ic="random",
                        amplitude=0.5, output_every=1)
        lat = cfg.build_lattice()
        sym = kernel_symbol(lat, [lat.k_mag ** 0.5] * lat.dim)
        sink = DefectSplitSink(sym, cfg.nu, cfg.eps, cfg.eta)
        _, records = run(cfg, sinks=(sink,), symbol=sym)
        split = sink.result()
        assert split.bound_origin == "envelope-derived"
        assert split.bound_constant == classify(
            sym, (lat.k_unit, lat.k_dealias)).c1_hat
        hyper = np.array([r.hyper_dissipation_rate for r in records])
        ts = np.array([r.t for r in records])
        total = float(np.trapezoid(hyper, ts))
        assert split.low + split.high == pytest.approx(total, rel=1e-10)
        assert split.low <= split.bound_rhs

    def test_refuses_a_symbol_that_is_not_hyperdissipative(self):
        lat = WavenumberLattice(32, 2)
        order_zero = MultiplierSymbol(lat, -np.ones(lat.grid_shape),
                                      "tabulated")
        assert classify(order_zero, (lat.k_unit, lat.k_dealias)
                        ).tag == "order_zero"
        with pytest.raises(ValueError, match="hyperdissipative"):
            DefectSplitSink(order_zero, 1e-2, 1e-3, 0.5)

    def test_eta_validation(self):
        times, states, sym = self._single_mode_run(0.1, 0.01, 1.5, 4)
        for eta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="eta"):
                defect_split(times, states, sym, 0.1, 0.01, eta)


class TestOnePassPerSample:
    """Per sampled state, |u_hat|^2 is summed over components once."""

    CFG = dict(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25, n=32, dim=2,
               dt=1e-3, t_end=3e-3, ic="random", k_c=1.5, amplitude=0.5,
               seed=2, output_every=1)
    SAMPLES = 1 + 3

    @pytest.fixture
    def calls(self, monkeypatch):
        """Times of the fields SpectralVelocity.mag2 and of the stepped
        bands WavenumberLattice.mag2_of_band ran on, in call order; every
        step asserts that its input state carries no cached mag2."""
        times, stepped = [], []
        mag2, of_band = SpectralVelocity.mag2, WavenumberLattice.mag2_of_band
        step = Stepper.step

        def counted(u):
            times.append(u.t)
            return mag2(u)

        def counted_band(lat, b):
            times.append(next(st.t for st in stepped if st.band is b))
            return of_band(lat, b)

        def checked(self, state, *args):
            assert "mag2" not in vars(state)
            stepped.append(step(self, state, *args))
            return stepped[-1]

        monkeypatch.setattr(SpectralVelocity, "mag2", counted)
        monkeypatch.setattr(WavenumberLattice, "mag2_of_band", counted_band)
        monkeypatch.setattr(Stepper, "step", checked)
        return times

    @pytest.fixture
    def per_run(self, monkeypatch, calls):
        """(eps, mag2 calls, samples) of each run a study makes."""
        runs, plain = [], experiments.run

        def counted(cfg, *args, **kwargs):
            before = len(calls)
            out = plain(cfg, *args, **kwargs)
            runs.append((cfg.eps, len(calls) - before, len(out[1])))
            return out

        monkeypatch.setattr(experiments, "run", counted)
        return runs

    def test_run_with_defect_split(self, tmp_path, calls):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in self.CFG.items()))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run_dir, = (tmp_path / "out").iterdir()
        assert (run_dir / "defect.csv").is_file()
        assert calls == pytest.approx([i * 1e-3 for i in range(self.SAMPLES)],
                                      abs=1e-15)

    def test_alpha_comparison_with_defect_split(self, per_run):
        res = experiments.alpha_comparison(SimConfig(**self.CFG),
                                           [1.25, 1.5], 1e-3)
        assert all(d is not None for d in res.outcomes["defect"])
        assert per_run == [(1e-3, self.SAMPLES, self.SAMPLES)] * 2

    def test_sweep_reference_run(self, per_run):
        eps = [1e-2, 3e-3, 1e-3, 1e-4]
        experiments.vanishing_eps_sweep(SimConfig(**self.CFG), eps, s=3.0,
                                        T=3e-3)
        assert per_run[0] == (0.0, self.SAMPLES, self.SAMPLES)
        # an eps run adds the Sobolev norm of its distance to the reference
        assert per_run[1:] == [(e, 2 * self.SAMPLES, self.SAMPLES)
                               for e in sorted(eps)]

    def test_smallness_probe(self, calls):
        cfg = SimConfig(**self.CFG)
        report = smallness_probe(cfg, 3.0)
        assert calls == pytest.approx([i * 1e-3 for i in range(self.SAMPLES)],
                                      abs=1e-15)
        # the sink sums the sample's |u_hat|^2 as sobolev_norm does
        u0 = initial_condition(cfg, cfg.build_lattice())
        assert report.h_s_initial == sobolev_norm(
            u0, SobolevIndex(3.0, "inhomogeneous"))


class TestLinearCurves:
    def test_damping_value(self):
        lam = linear_damping_curve(1.0, 1.0, 1.25, [2.0])
        assert lam[0] == pytest.approx(9.65685, abs=1e-5)

    def test_alpha_one_collapses(self):
        k = np.arange(1.0, 9.0)
        lam = linear_damping_curve(0.3, 0.7, 1.0, k)
        assert np.max(np.abs(lam - k ** 2)) <= 1e-12

    def test_zero_wavenumber(self):
        lam = linear_damping_curve(1.0, 1.0, 1.5, [0.0])
        assert lam[0] == 0.0

    def test_decay_value(self):
        e = mode_decay_curve(1.0, 1.0, 1.0, 8.0, [0.0, 1e-2])
        assert e[0] == 1.0
        assert e[1] == pytest.approx(math.exp(-2.56), rel=1e-12)

    def test_tables_match_scalar_libm_bit_for_bit(self):
        # Criterion 9 compares the tables with == against scalar closed forms;
        # numpy's SIMD pow (e.g. AVX-512) is 1 ulp off at k = 10, 34, 40, 50
        # for alpha = 1.25, so the damping rate must not depend on it.
        k0 = 8.0
        k = np.arange(0.0, 65.0)
        t = np.linspace(0.0, 0.1, 201)
        for nu, mu, alpha in itertools.product((1.0, 0.3), (1.0, 0.7),
                                               (1.0, 1.25, 1.5)):
            case = f"nu={nu} mu={mu} alpha={alpha}"
            lam = linear_damping_curve(nu, mu, alpha, k)
            off = [int(x) for x, got in zip(k.tolist(), lam.tolist())
                   if got != nu * math.pow(x, 2.0)
                   + mu * math.pow(x, 2.0 * alpha)]
            assert off == [], f"{case}: damping off at k={off}"
            rate = nu * math.pow(k0, 2.0) + mu * math.pow(k0, 2.0 * alpha)
            e = mode_decay_curve(nu, mu, alpha, k0, t)
            off = [s for s, got in zip(t.tolist(), e.tolist())
                   if got != float(np.exp(-2.0 * rate * s))]
            assert off == [], f"{case}: decay off at t={off}"

    def test_damping_input_contract(self):
        lam = linear_damping_curve(0.3, 0.7, 1.25, 10.0)
        assert lam.shape == ()
        assert float(lam) == 0.3 * 100.0 + 0.7 * math.pow(10.0, 2.5)
        k = np.arange(6.0).reshape(2, 3)
        lam = linear_damping_curve(0.3, 0.7, 1.25, k)
        assert lam.shape == (2, 3)
        assert lam[1, 1] == 0.3 * 16.0 + 0.7 * math.pow(4.0, 2.5)
        with pytest.raises(ValueError):
            linear_damping_curve(1.0, 1.0, 1.25, [1.0, -1.0])
        for bad in ([math.inf], [math.nan]):
            with pytest.raises(ValueError, match="wavenumbers"):
                linear_damping_curve(1.0, 1.0, 1.25, bad)
            with pytest.raises(ValueError, match="times"):
                mode_decay_curve(1.0, 1.0, 1.25, 8.0, bad)
        # 1 ** nan is 1 in Python floats, so a NaN alpha needs its own check
        with pytest.raises(ValueError, match="alpha"):
            mode_decay_curve(1.0, 1.0, math.nan, 1.0, [0.0])

    def test_decay_monotone_in_alpha(self):
        vals = [mode_decay_curve(1.0, 1.0, a, 8.0, [0.05])[0]
                for a in (1.0, 1.25, 1.5)]
        assert vals[0] > vals[1] > vals[2]
