"""Galerkin dynamics: nonlinear term, integrating-factor stepping, runner."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import (bandlimited_field, brute_force_nonlinear, calls_of,
                      off_band_field, shear_field)
from hyperns.config import SimConfig
from hyperns.dynamics import (CFLError, NumericalError, Stepper,
                              TrajectoryState, initial_condition,
                              linear_propagator, nonlinear_term,
                              random_field, run, smallness_probe,
                              taylor_green)
from hyperns.lattice import (SpectralVelocity, WavenumberLattice, dealias,
                             inner_product, leray_project, negate_kappa)
from hyperns.symbols import power_symbol


def base_config(**kw):
    defaults = dict(nu=1e-2, eps=1e-4, symbol="power", alpha=1.25, mu=1.0,
                    n=32, dim=2, dt=5e-3, t_end=0.1, ic="random",
                    amplitude=0.5, seed=0, output_every=5)
    defaults.update(kw)
    return SimConfig(**defaults)


def make_stepper(cfg, sym=None):
    return Stepper(sym or cfg.build_symbol(), cfg.nu, cfg.eps, cfg.dt)


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

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n,rel", [(12, 0.0), (16, 0.0), (32, 0.0),
                                       (10, 1e-15)])
    def test_shear_flow_has_no_nonlinearity(self, n, dim, rel):
        # u_1 = f(x_2, ...), u_j = 0 otherwise: (u.grad)u = 0, which the
        # transforms keep exactly; radix-5 ones (n = 10) leave ~5e-18
        lat = WavenumberLattice(n, dim)
        u = shear_field(lat, n)
        b = nonlinear_term(u)
        assert np.max(np.abs(b.coeffs)) <= rel * np.max(np.abs(u.coeffs))

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
        u = off_band_field(lat, 4)
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
        sym = cfg.build_symbol()
        u0 = shear_field(lat, 2)
        stepper = Stepper(sym, cfg.nu, cfg.eps, cfg.dt)
        st = stepper.step(TrajectoryState.start(u0.copy()))
        expect = u0.coeffs * linear_propagator(sym, cfg.nu, cfg.eps, cfg.dt)
        occ = np.abs(expect) > 0
        err = np.max(np.abs(st.u.coeffs[occ] - expect[occ]) / np.abs(expect[occ]))
        assert err < 1e-14

    @pytest.mark.parametrize("n,dim", [(32, 2), (16, 3)])
    def test_matches_full_layout_formula(self, n, dim):
        # the half-layout step against IF-RK4 written on full-layout fields
        cfg = base_config(n=n, dim=dim, amplitude=1.0, dt=2e-3)
        lat = cfg.build_lattice()
        sym = cfg.build_symbol()
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
            TrajectoryState.start(u0))
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(st.u.coeffs - expect)) <= 1e-13 * scale
        assert st.u.hermitian_defect() == 0.0

    def test_zero_field_stays_zero(self):
        cfg = base_config()
        lat = cfg.build_lattice()
        u0 = SpectralVelocity(lat, np.zeros((2,) + lat.grid_shape, dtype=complex))
        st = make_stepper(cfg).step(TrajectoryState.start(u0))
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
                TrajectoryState.start(u0))
        assert err.value.dt_admissible < cfg.dt

    def test_step_preserves_invariants(self):
        cfg = base_config()
        lat = cfg.build_lattice()
        st = TrajectoryState.start(initial_condition(cfg, lat))
        stepper = make_stepper(cfg)
        for _ in range(5):
            st = stepper.step(st)
        assert st.u.divergence_max() <= 1e-12
        assert st.u.hermitian_defect() <= 1e-12

    # a step of an isotropic symbol commutes with the cube's symmetries up
    # to roundoff, since the FFTs run their axes in another order: one step
    # from 100 random fields at each n read at most 1.7e-16 of max |u_hat|
    EQUIVARIANCE_BOUND = 1e-15

    @staticmethod
    def permute(c, perm):
        """The field u'_j(y) = u_perm[j](x), y_j = x_perm[j]: components and
        kappa axes permuted alike."""
        return c[list(perm)].transpose((0,) + tuple(1 + p for p in perm))

    @staticmethod
    def reflect(c, axis):
        """The field mirrored in x_axis: kappa_axis -> -kappa_axis, and
        component ``axis`` negated."""
        out = np.take(c, -np.arange(c.shape[1]) % c.shape[1], axis=1 + axis)
        out[axis] *= -1.0
        return out

    @pytest.mark.parametrize("sym", [
        ("permute", (0, 2, 1)), ("permute", (1, 0, 2)), ("permute", (1, 2, 0)),
        ("permute", (2, 0, 1)), ("permute", (2, 1, 0)), ("reflect", 0),
        ("reflect", 1), ("reflect", 2)], ids=str)
    @pytest.mark.parametrize("n", [12, 16])
    def test_step_is_cubic_equivariant(self, n, sym):
        lat = WavenumberLattice(n, 3)
        stepper = Stepper(power_symbol(lat, 1.0, 1.25), 1e-2, 1e-4, 1e-3)
        u = random_field(lat, n, 2.0, 3.0, 1.0)
        kind, arg = sym

        def transform(c):
            return getattr(self, kind)(c, arg)

        u1 = stepper.step(TrajectoryState.start(u)).u.coeffs
        v1 = stepper.step(TrajectoryState.start(
            SpectralVelocity(lat, transform(u.coeffs)))).u.coeffs
        scale = np.max(np.abs(u1))
        assert np.max(np.abs(v1 - transform(u1))) <= (
            self.EQUIVARIANCE_BOUND * scale)


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

    # FFT roundoff of the start puts 4.1e-32 to 5.3e-32 of the energy
    # outside the class (3-D n=16, 400 steps; 2.7e-32 to 3.6e-32 at n=32),
    # about eps_mach^2 = 4.9e-32, with no growth
    PARITY_BOUND = 1e-30

    def test_taylor_green_keeps_its_parity_class(self):
        # the start excites only modes whose kappa components are all even
        # or all odd, and the nonlinear term keeps that class
        cfg = base_config(dim=3, n=16, dt=5e-3, t_end=0.5,
                          ic="taylor-green-3d", output_every=5)
        lat = cfg.build_lattice()
        parity = lat.kappa % 2
        outside = ~np.all(parity == parity[0], axis=0)
        fractions = []

        def sink(st, rec):
            fractions.append(np.sum(st.mag2[outside]) / np.sum(st.mag2))

        run(cfg, sinks=(sink,))
        assert len(fractions) == 21
        assert max(fractions) <= self.PARITY_BOUND

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
            st = TrajectoryState.start(u)
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

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_given_start_replaces_the_configured_one(self, dim, n):
        cfg = base_config(dim=dim, n=n, t_end=0.02, seed=5)
        final, plain = run(cfg)
        u0 = initial_condition(cfg, cfg.build_lattice())
        u0.t = 0.25
        before = u0.coeffs.tobytes()
        for _ in range(2):
            shifted, records = run(cfg, u0=u0)
            assert u0.coeffs.tobytes() == before and u0.t == 0.25
        assert np.array_equal(shifted.u.coeffs, final.u.coeffs)
        assert records[0].t == 0.25
        assert [r.energy for r in records] == [r.energy for r in plain]
        other = replace(cfg, box_length=np.pi)
        with pytest.raises(ValueError, match="u0 lattice"):
            run(cfg, u0=initial_condition(other, other.build_lattice()))

    def test_ic_validation(self):
        with pytest.raises(ValueError, match="dim"):
            base_config(ic="taylor-green-3d")


def sampled_loop(cfg, u0):
    """(sampled states, final state) of ``run(cfg, u0=u0)``, integrated by
    a loop that takes the field-building result of every step."""
    stepper = make_stepper(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    st = TrajectoryState.start(u0)
    states = [st]
    for i in range(n_steps):
        st = stepper.step(st, True)
        if (i + 1) % cfg.output_every == 0 or i + 1 == n_steps:
            states.append(st)
    return states, st


def assert_same_states(got, expect):
    """Equal bands and |u_hat|^2 bit for bit; the full fields too where
    ``got`` has one."""
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert (a.step_index, a.t, a.cfl_estimate) == (
            b.step_index, b.t, b.cfl_estimate)
        assert a.lattice == b.lattice
        assert a.band.tobytes() == b.band.tobytes()
        assert a.mag2.tobytes() == b.mag2.tobytes()
        if a.u is not None:
            assert a.u.coeffs.tobytes() == b.u.coeffs.tobytes()


class TestBandTrajectory:
    """Between samples the state stays a projected band array."""

    @pytest.mark.parametrize("every", [1, 3, 7])
    @pytest.mark.parametrize("ic", ["random", "taylor-green"])
    @pytest.mark.parametrize("dim,n", [(2, 10), (2, 64), (3, 12), (3, 32)])
    def test_run_is_the_sampled_step_bit_for_bit(self, dim, n, ic, every):
        ic = f"taylor-green-{dim}d" if ic == "taylor-green" else ic
        cfg = base_config(dim=dim, n=n, ic=ic, amplitude=1.0, dt=2e-3,
                          t_end=1.6e-2, output_every=every)
        u0 = initial_condition(cfg, cfg.build_lattice())
        sampled = []
        final, _ = run(cfg, sinks=(lambda st, rec: sampled.append(st),),
                       u0=u0)
        states, last = sampled_loop(cfg, u0)
        # a field at the start and the final state only
        assert [st.u is not None for st in sampled] == (
            [True] + [False] * (len(sampled) - 2) + [True])
        assert_same_states(sampled, states)
        assert final.u is not None
        assert_same_states([final], [last])

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 12)])
    def test_start_off_the_band_is_refused(self, monkeypatch, dim, n):
        cfg = base_config(dim=dim, n=n, t_end=4e-2, output_every=3)
        u0 = leray_project(off_band_field(cfg.build_lattice(), 7))
        u0.coeffs *= 0.5 / u0.l2_norm()
        before = u0.coeffs.tobytes()
        steps = calls_of(monkeypatch, Stepper, "step")
        sunk = []
        with pytest.raises(ValueError, match="off the two-thirds band"):
            run(cfg, sinks=(lambda st, rec: sunk.append(st),), u0=u0)
        assert steps == [] and sunk == []
        assert u0.coeffs.tobytes() == before and u0.t == 0.0
        # the dealiased start runs
        run(cfg, u0=dealias(u0))
        assert len(steps) == 8

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 12)])
    def test_only_sampled_steps_build_the_field(self, monkeypatch, dim, n):
        cfg = base_config(dim=dim, n=n, t_end=4e-2, output_every=3)
        u0 = initial_condition(cfg, cfg.build_lattice())
        # every full-layout field is made by from_band or the constructor
        built = calls_of(monkeypatch, SpectralVelocity, "from_band")
        made = calls_of(monkeypatch, SpectralVelocity, "__post_init__")
        sampled = []
        run(cfg, sinks=(lambda st, rec: sampled.append(st),), u0=u0)
        # 8 steps: the start, steps 3 and 6 and the final step are sampled;
        # the final step alone builds a field, which leray_project copies
        assert [st.step_index for st in sampled] == [0, 3, 6, 8]
        assert [args[2] for args in built] == [sampled[-1].t]
        assert [args[0].t for args in made] == [sampled[-1].t]
        assert [st.u is None for st in sampled] == [False, True, True, False]

    @pytest.mark.parametrize("dim,n", [(2, 10), (2, 64), (3, 12), (3, 32)])
    def test_unsampled_step_is_the_band_of_the_sampled_one(self, dim, n):
        cfg = base_config(dim=dim, n=n, amplitude=1.0, dt=2e-3)
        lat = cfg.build_lattice()
        stepper = make_stepper(cfg)
        st = TrajectoryState.start(initial_condition(cfg, lat))
        for _ in range(2):  # from the start, then from a band state
            band = stepper.step(st, False)
            full = stepper.step(st, True)
            assert band.u is None
            assert full.band.tobytes() == band.band.tobytes()
            assert (band.step_index, band.t, band.cfl_estimate) == (
                full.step_index, full.t, full.cfl_estimate)
            assert band.band.tobytes() == lat.gather_band(
                lat.half(full.u.coeffs)).tobytes()
            st = band
        b = st.band
        # the mean mode pinned, the kappa_last = 0 plane Hermitian and the
        # field divergence-free at roundoff
        assert np.all(b[(slice(None),) + (0,) * dim] == 0)
        plane = b[..., 0]
        assert np.array_equal(plane, np.conj(negate_kappa(plane, dim - 1)))
        k = lat.band_k
        div = np.sum(np.abs(np.sum(k * b, axis=0)) ** 2)
        grad = np.sum(np.sum(k ** 2, axis=0) * np.sum(np.abs(b) ** 2, axis=0))
        assert np.sqrt(div / grad) <= 1e-15

    @pytest.mark.parametrize("ic", ["random", "taylor-green"])
    @pytest.mark.parametrize("dim,n", [(2, 10), (2, 64), (2, 128), (3, 12),
                                       (3, 32)])
    def test_mag2_of_band_is_the_mag2_of_its_field(self, dim, n, ic):
        ic = f"taylor-green-{dim}d" if ic == "taylor-green" else ic
        cfg = base_config(dim=dim, n=n, ic=ic, amplitude=1.0, dt=2e-3)
        lat = cfg.build_lattice()
        stepper = make_stepper(cfg)
        st = TrajectoryState.start(initial_condition(cfg, lat))
        for _ in range(6):
            st = stepper.step(st, False)
            assert st.u is None
            got = lat.mag2_of_band(st.band)
            assert got.shape == lat.grid_shape
            assert got.tobytes() == SpectralVelocity.from_band(
                lat, st.band).mag2().tobytes()
            assert st.mag2.tobytes() == got.tobytes()

    @pytest.mark.parametrize("fault", ["cfl", "nan"])
    def test_failure_between_samples_carries_the_last_state(
            self, monkeypatch, fault):
        # the third step fails; the last good state is a band state
        cfg = base_config(output_every=5)
        if fault == "cfl":
            cfl, calls = Stepper.cfl, []

            def faulty(self, phys):
                calls.append(None)
                return 10.0 if len(calls) == 3 else cfl(self, phys)

            monkeypatch.setattr(Stepper, "cfl", faulty)
        else:
            rhs, calls = Stepper._rhs, []

            def faulty(self, b):
                calls.append(None)
                d, phys = rhs(self, b)
                if len(calls) == 9:  # the third step's first stage
                    d[...] = np.nan
                return d, phys

            monkeypatch.setattr(Stepper, "_rhs", faulty)
        with pytest.raises(NumericalError) as err:
            run(cfg)
        assert isinstance(err.value, CFLError) == (fault == "cfl")
        st = err.value.state
        assert st.u is None and st.band is not None
        assert (st.step_index, st.t) == (2, 0.0 + cfg.dt + cfg.dt)
        assert [r.t for r in err.value.records] == [0.0]


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
