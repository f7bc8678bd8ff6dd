"""Galerkin dynamics: nonlinear term, integrating-factor stepping, runner."""
import numpy as np
import pytest

from conftest import bandlimited_field, brute_force_nonlinear, stream_function_field
from hyperns.config import SimConfig
from hyperns.dynamics import (CFLError, Stepper, TrajectoryState,
                              initial_condition, linear_propagator,
                              nonlinear_term, random_field, run,
                              smallness_probe, taylor_green)
from hyperns.lattice import (SpectralVelocity, WavenumberLattice, dealias,
                             inner_product, leray_project)
from hyperns.symbols import power_symbol


def base_config(**kw):
    defaults = dict(nu=1e-2, eps=1e-4, symbol="power", alpha=1.25, mu=1.0,
                    n=32, dim=2, dt=5e-3, t_end=0.1, ic="random",
                    amplitude=0.5, seed=0, output_every=5)
    defaults.update(kw)
    return SimConfig(**defaults)


def make_stepper(cfg, sym=None):
    lat = cfg.build_lattice()
    return Stepper(sym or cfg.build_symbol(lat), cfg.nu, cfg.eps, cfg.dt)


class TestNonlinearTerm:
    def test_single_mode_vanishes(self):
        # u = A cos(k.x) with A.k = 0: self-advection of one mode is zero
        lat = WavenumberLattice(16, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        c[1, 2, 0, 0] = 0.5
        c[1, -2, 0, 0] = 0.5
        u = SpectralVelocity(lat, c)
        b = nonlinear_term(u)
        assert np.max(np.abs(b.coeffs)) <= 1e-15

    def test_taylor_green_is_pure_gradient(self):
        lat = WavenumberLattice(16, 2)
        u = taylor_green(lat)
        b = nonlinear_term(u)
        assert np.max(np.abs(b.coeffs)) <= 1e-13 * np.max(np.abs(u.coeffs))

    @pytest.mark.parametrize("n,dim", [(8, 3), (16, 2)])
    def test_brute_force_oracle(self, n, dim):
        lat = WavenumberLattice(n, dim)
        for seed in range(3):
            u = bandlimited_field(lat, seed, lat.dealias_limit)
            fast = nonlinear_term(u).coeffs
            slow = brute_force_nonlinear(u).coeffs
            scale = np.max(np.abs(slow))
            assert np.max(np.abs(fast - slow)) <= 1e-12 * scale

    def test_energy_neutrality(self):
        lat = WavenumberLattice(32, 2)
        from hyperns.lattice import SobolevIndex, sobolev_norm
        for seed in range(5):
            u = bandlimited_field(lat, seed, lat.dealias_limit)
            b = nonlinear_term(u)
            grad = sobolev_norm(u, SobolevIndex(1.0, "homogeneous"))
            assert abs(inner_product(b, u)) <= 1e-12 * u.l2_norm() ** 2 * grad

    def test_output_dealiased_and_divergence_free(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 9, lat.dealias_limit)
        b = nonlinear_term(u)
        assert np.all(b.coeffs[:, ~lat.dealias_mask] == 0.0)
        assert b.divergence_max() <= 1e-12

    def test_reads_only_the_band(self):
        lat = WavenumberLattice(12, 3)
        noise = np.random.default_rng(4).standard_normal(
            (lat.dim,) + lat.grid_shape)
        u = SpectralVelocity.from_physical(lat, noise)
        assert np.any(u.coeffs[:, ~lat.dealias_mask] != 0)
        assert np.array_equal(nonlinear_term(u).coeffs,
                              nonlinear_term(dealias(u)).coeffs)


class TestLinearPropagator:
    def test_viscous_value(self):
        lat = WavenumberLattice(16, 2)
        sym = power_symbol(lat, 1.0, 1.25)
        e = linear_propagator(sym, 1.0, 0.0, 0.1)
        assert e[2, 0] == pytest.approx(0.670320, abs=1e-6)

    def test_hyperdissipative_value(self):
        lat = WavenumberLattice(16, 2)
        sym = power_symbol(lat, 1.0, 1.25)
        e = linear_propagator(sym, 1.0, 1.0, 0.1)
        assert e[2, 0] == pytest.approx(0.380722, abs=1e-6)

    def test_small_dt_limit(self):
        lat = WavenumberLattice(16, 2)
        sym = power_symbol(lat, 1.0, 1.5)
        e = linear_propagator(sym, 1.0, 1.0, 1e-12)
        assert np.min(e) > 1.0 - 1e-8

    def test_rejects_nonpositive_dt(self):
        lat = WavenumberLattice(16, 2)
        sym = power_symbol(lat, 1.0, 1.5)
        with pytest.raises(ValueError, match="dt"):
            linear_propagator(sym, 1.0, 0.0, 0.0)


class TestStep:
    def test_linear_step_is_exact(self):
        cfg = base_config(nu=0.5, eps=0.1, dt=0.05)
        lat = cfg.build_lattice()
        sym = cfg.build_symbol(lat)
        u0 = stream_function_field(lat, 2)
        stepper = Stepper(sym, cfg.nu, cfg.eps, cfg.dt, nonlinear=False)
        st = stepper.step(TrajectoryState(u=u0.copy(), t=0.0, step_index=0))
        expect = u0.coeffs * linear_propagator(sym, cfg.nu, cfg.eps, cfg.dt)
        occ = np.abs(expect) > 0
        err = np.max(np.abs(st.u.coeffs[occ] - expect[occ]) / np.abs(expect[occ]))
        assert err < 1e-14

    @pytest.mark.parametrize("n,dim", [(32, 2), (16, 3)])
    def test_matches_full_layout_formula(self, n, dim):
        # the half-layout step against IF-RK4 written on full-layout fields
        cfg = base_config(n=n, dim=dim, amplitude=1.0, dt=2e-3)
        lat = cfg.build_lattice()
        sym = cfg.build_symbol(lat)
        u0 = initial_condition(cfg, lat)
        e1, e2 = (linear_propagator(sym, cfg.nu, cfg.eps, h)
                  for h in (cfg.dt / 2, cfg.dt))

        def rhs(c):
            return -nonlinear_term(SpectralVelocity(lat, c)).coeffs

        dt, c0 = cfg.dt, u0.coeffs
        n1 = rhs(c0)
        n2 = rhs(e1 * (c0 + 0.5 * dt * n1))
        n3 = rhs(e1 * c0 + 0.5 * dt * n2)
        n4 = rhs(e2 * c0 + dt * e1 * n3)
        c1 = e2 * c0 + (dt / 6) * (e2 * n1 + 2 * e1 * (n2 + n3) + n4)
        expect = leray_project(SpectralVelocity(lat, c1)).coeffs
        st = make_stepper(cfg, sym).step(
            TrajectoryState(u=u0, t=0.0, step_index=0))
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(st.u.coeffs - expect)) <= 1e-13 * scale
        assert st.u.hermitian_defect() == 0.0

    def test_zero_field_stays_zero(self):
        cfg = base_config()
        lat = cfg.build_lattice()
        u0 = SpectralVelocity(lat, np.zeros((2,) + lat.grid_shape, dtype=complex))
        st = make_stepper(cfg).step(TrajectoryState(u=u0, t=0.0, step_index=0))
        assert np.max(np.abs(st.u.coeffs)) == 0.0

    def test_fourth_order_convergence(self):
        # error vs a dt/8 reference shrinks 16x when dt halves
        def final_state(dt):
            cfg = base_config(n=32, nu=2e-3, eps=1e-4, alpha=1.25,
                              amplitude=3.0, dt=dt, t_end=0.4, seed=1,
                              output_every=10 ** 9)
            final, _ = run(cfg)
            return final.u.coeffs

        ref = final_state(2.5e-3)
        err_coarse = np.max(np.abs(final_state(2e-2) - ref))
        err_fine = np.max(np.abs(final_state(1e-2) - ref))
        ratio = err_coarse / err_fine
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_cfl_refusal_reports_admissible_dt(self):
        cfg = base_config(amplitude=50.0, dt=0.1)
        lat = cfg.build_lattice()
        u0 = initial_condition(cfg, lat)
        with pytest.raises(CFLError) as err:
            make_stepper(cfg).step(
                TrajectoryState(u=u0, t=0.0, step_index=0))
        assert err.value.dt_admissible < cfg.dt

    def test_step_preserves_invariants(self):
        cfg = base_config()
        lat = cfg.build_lattice()
        st = TrajectoryState(u=initial_condition(cfg, lat), t=0.0, step_index=0)
        stepper = make_stepper(cfg)
        for _ in range(5):
            st = stepper.step(st)
        assert st.u.divergence_max() <= 1e-12
        assert st.u.hermitian_defect() <= 1e-12


class TestRun:
    def test_taylor_green_decay(self):
        cfg = base_config(eps=0.0, nu=1.0, n=16, dt=1e-3, t_end=1.0,
                          ic="taylor-green-2d", output_every=100)
        lat = cfg.build_lattice()
        u0 = initial_condition(cfg, lat)
        final, _ = run(cfg)
        expect = u0.coeffs * np.exp(-2.0 * cfg.nu * cfg.t_end)
        occ = np.abs(expect) > 1e-3 * np.max(np.abs(expect))
        err = np.max(np.abs(final.u.coeffs[occ] - expect[occ])
                     / np.abs(expect[occ]))
        assert err < 1e-6

    def test_monotone_energy_decay(self):
        cfg = base_config(t_end=0.2, output_every=1)
        _, records = run(cfg)
        e = [r.energy for r in records]
        assert all(e[i + 1] <= e[i] + 1e-12 * e[0] for i in range(len(e) - 1))

    def test_determinism(self):
        cfg = base_config(seed=5)
        final_a, rec_a = run(cfg)
        final_b, rec_b = run(cfg)
        assert np.array_equal(final_a.u.coeffs, final_b.u.coeffs)
        assert [r.energy for r in rec_a] == [r.energy for r in rec_b]

    def test_eps_monotone_dissipation(self):
        # total dissipated energy is non-decreasing in eps at fixed data
        dissipated = []
        for eps in (0.0, 1e-3, 1e-2):
            cfg = base_config(eps=eps, t_end=0.2, seed=2)
            _, records = run(cfg)
            dissipated.append(records[0].energy - records[-1].energy)
        assert dissipated[0] <= dissipated[1] <= dissipated[2]

    def test_truncation_consistency(self):
        # same smooth data on n and 2n lattices agree on shared modes
        lat_s = WavenumberLattice(32, 2)
        lat_b = WavenumberLattice(64, 2)
        u0 = random_field(lat_s, 5, 2.0, 3.0, 1.0)
        kap = lat_s.kappa
        src_all = tuple((kap[d] % 32) for d in range(2))
        dst_all = tuple((kap[d] % 64) for d in range(2))
        big = np.zeros((2,) + lat_b.grid_shape, dtype=complex)
        for c in range(2):
            big[c][dst_all] = u0.coeffs[c][src_all]
        u0b = SpectralVelocity(lat_b, big)

        def integrate(lat, u):
            stp = Stepper(power_symbol(lat, 1.0, 1.25), 2e-2, 1e-4, 2e-3)
            st = TrajectoryState(u=u, t=0.0, step_index=0)
            for _ in range(250):
                st = stp.step(st)
            return st.u

        us, ub = integrate(lat_s, u0), integrate(lat_b, u0b)
        band = np.all(np.abs(kap) <= lat_s.dealias_limit, axis=0)
        src = tuple((kap[d] % 32)[band] for d in range(2))
        dst = tuple((kap[d] % 64)[band] for d in range(2))
        diff = max(np.max(np.abs(us.coeffs[c][src] - ub.coeffs[c][dst]))
                   for c in range(2))
        assert diff <= 1e-3 * np.max(np.abs(us.coeffs))

    def test_sinks_called_on_samples(self):
        calls = []
        cfg = base_config(t_end=0.05, dt=5e-3, output_every=2)
        run(cfg, sinks=(lambda st, rec: calls.append(st.t),))
        assert len(calls) == 6  # initial + every 2nd of 10 steps

    def test_given_symbol_replaces_the_configured_one(self):
        cfg = base_config(t_end=0.02, seed=5)
        lat = cfg.build_lattice()
        _, plain = run(cfg)
        _, same = run(cfg, symbol=power_symbol(lat, cfg.mu, cfg.alpha))
        assert [r.energy for r in same] == [r.energy for r in plain]
        _, double = run(cfg, symbol=power_symbol(lat, 2 * cfg.mu, cfg.alpha))
        assert (double[0].hyper_dissipation_rate
                == 2 * plain[0].hyper_dissipation_rate)
        with pytest.raises(ValueError, match="lattice"):
            run(cfg, symbol=power_symbol(WavenumberLattice(16, 2), 1.0, 1.25))

    def test_ic_validation(self):
        cfg = base_config(ic="taylor-green-3d")
        with pytest.raises(ValueError, match="dim"):
            initial_condition(cfg, cfg.build_lattice())


class TestSmallnessProbe:
    def test_small_data_regime(self):
        cfg = base_config(nu=0.1, eps=1e-4, alpha=1.125, amplitude=0.05,
                          dt=1e-2, t_end=2.0, seed=3, output_every=10)
        rep = smallness_probe(cfg, 3.0)
        assert rep.small_data
        assert rep.max_ratio <= 2.0

    def test_regime_exit_reported(self):
        cfg = base_config(n=64, nu=2e-3, eps=1e-6, alpha=1.125,
                          amplitude=3.0, k_c=2.0, dt=2e-3, t_end=2.0,
                          seed=3, output_every=10)
        rep = smallness_probe(cfg, 3.0)
        assert not rep.small_data
        assert rep.max_ratio > 2.0

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="s >"):
            smallness_probe(base_config(), 1.5)
