"""Spectral substrate: lattice construction, transforms, projection,
dealiasing, and Sobolev norms."""
import re
from pathlib import Path

import numpy as np
import pytest

import hyperns
from conftest import (bandlimited_field, full_irfftn, full_rfftn,
                      off_band_field)
from hyperns.dynamics import random_field, taylor_green
from hyperns.lattice import (DIV_TOL, SobolevIndex, SpectralVelocity,
                             WavenumberLattice, dealias, hermitian_defect,
                             inner_product, leray_project, negate_kappa,
                             sobolev_norm)


class TestBuildLattice:
    def test_small_2d(self):
        lat = WavenumberLattice(4, 2, 2.0 * np.pi)
        assert sorted(np.unique(lat.kappa)) == [-2, -1, 0, 1]
        assert lat.k_unit == pytest.approx(1.0)

    def test_3d_mode_count(self):
        lat = WavenumberLattice(8, 3, 2.0 * np.pi)
        assert lat.n_modes == 512
        assert np.max(np.abs(lat.kappa)) == 4  # Nyquist row

    def test_half_box(self):
        lat = WavenumberLattice(6, 2, np.pi)
        assert lat.k_unit == pytest.approx(2.0)
        # mode kappa=(1,0) has |k| = 2
        assert lat.k_mag[1, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("dim,ns", [
        (2, (4, 6, 10, 12, 30, 64, 66, 130)), (3, (4, 8, 12, 18, 32, 66))])
    def test_cached_arrays_match_the_integer_grid(self, dim, ns):
        # the arrays are built from an integer kappa grid here, and the
        # lattice caches none of kappa's own
        for n in ns:
            idx = np.arange(n)
            per_axis = np.where(idx < n // 2, idx, idx - n)
            kappa = np.stack(np.meshgrid(*([per_axis] * dim), indexing="ij"))
            mask = np.all(np.abs(kappa) <= (n - 1) // 3, axis=0)
            for box in (2 * np.pi, 1.0, 4 * np.pi, 0.3, 7.7e-3, 1e5, 123.456):
                lat = WavenumberLattice(n, dim, box)
                k = lat.k_unit * kappa
                k_sq = np.sum(k ** 2, axis=0)
                shell = np.ceil(np.sqrt(k_sq) / lat.k_unit - 0.5)
                assert lat.dealias_mask.tobytes() == mask.tobytes()
                assert lat.k.tobytes() == k.tobytes()
                assert lat.k_sq.tobytes() == k_sq.tobytes()
                assert (lat.shell_index.tobytes()
                        == shell.astype(np.int64).tobytes())
                assert lat.kappa.tobytes() == kappa.tobytes()
                assert "kappa" not in vars(lat) and not hasattr(lat, "x")

    @pytest.mark.parametrize("n,dim,box", [
        (5, 2, 2 * np.pi), (2, 2, 2 * np.pi), (8, 4, 2 * np.pi),
        (8, 2, 0.0), (8, 2, -1.0)])
    def test_rejects_bad_arguments(self, n, dim, box):
        with pytest.raises(ValueError):
            WavenumberLattice(n, dim, box)


class TestTransforms:
    def test_cosine_coefficients(self):
        lat = WavenumberLattice(16, 2)
        x = np.arange(16) * (lat.box_length / 16)
        phys = np.cos(np.meshgrid(x, x, indexing="ij")[0])
        c = lat.forward(phys)
        assert c[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-1, 0] == pytest.approx(0.5, abs=1e-14)
        c[1, 0] = c[-1, 0] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_constant_field(self):
        lat = WavenumberLattice(8, 2)
        c = lat.forward(np.full(lat.grid_shape, 3.0))
        assert c[0, 0] == pytest.approx(3.0)
        c[0, 0] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    @pytest.mark.parametrize("n,dim", [(16, 2), (8, 3)])
    def test_round_trip(self, n, dim):
        # a real field on the band comes back from the pair
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(0)
        h = full_rfftn(lat, rng.standard_normal(lat.grid_shape))
        phys = full_irfftn(lat, h * lat.half(lat.dealias_mask))
        back = lat.inverse(lat.scatter_band(lat.forward(phys)))
        assert np.max(np.abs(back - phys)) <= 1e-12 * np.max(np.abs(phys))

    def test_inverse_rejects_non_hermitian(self):
        lat = WavenumberLattice(8, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[0, 1, 0] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            SpectralVelocity(lat, c).to_physical()

    @pytest.mark.parametrize("n,dim", [(16, 2), (8, 3)])
    def test_to_physical_refuses_content_off_the_band(self, n, dim):
        lat = WavenumberLattice(n, dim)
        u = off_band_field(lat, n)
        assert u.hermitian_defect() == 0.0
        with pytest.raises(ValueError, match="off the two-thirds band"):
            u.to_physical()
        # the Hermitian check comes first, on the band or off it
        for v in (u, dealias(u)):
            v.coeffs[(0,) + (1,) * dim] += 1.0
            with pytest.raises(ValueError, match="Hermitian"):
                v.to_physical()
        # a NaN coefficient makes the defect NaN, which is refused too
        v = random_field(lat, 3, 2.0, 3.0, 1.0)
        v.coeffs[(0,) + (1,) * dim] = np.nan
        assert np.isnan(v.hermitian_defect())
        with pytest.raises(ValueError, match="Hermitian"):
            v.to_physical()
        # a field on the band: the full inverse transform of its half
        w = random_field(lat, n, 2.0, 3.0, 1.0)
        assert (w.to_physical().tobytes()
                == full_irfftn(lat, lat.half(w.coeffs)).tobytes())

    def test_shape_mismatch(self):
        lat = WavenumberLattice(8, 2)
        with pytest.raises(ValueError, match="shape"):
            lat.forward(np.zeros((4, 4)))

    def test_inverse_takes_the_half_layout(self):
        lat = WavenumberLattice(8, 2)
        with pytest.raises(ValueError, match="shape"):
            lat.inverse(np.zeros((8, 8), dtype=complex))

    @pytest.mark.parametrize("lead", [(), (3,), (6,)])
    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_band_forward_is_the_full_transform_on_the_band(self, dim, n,
                                                            lead):
        # the band forward gives the band layout, the full transform's band
        # bit for bit
        lat = WavenumberLattice(n, dim)
        x = np.random.default_rng(n).standard_normal(lead + lat.grid_shape)
        band = lat.forward(x)
        assert band.shape == lead + lat.band_shape
        assert band.tobytes() == lat.gather_band(full_rfftn(lat, x)).tobytes()

    @pytest.mark.parametrize("lead", [(), (3,), (6,)])
    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_band_inverse_reads_only_the_band(self, dim, n, lead):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(n)
        h = full_rfftn(lat, rng.standard_normal(lead + lat.grid_shape))
        limited = h * lat.half(lat.dealias_mask)
        assert (lat.inverse(limited).tobytes()
                == full_irfftn(lat, limited).tobytes())
        assert np.array_equal(lat.inverse(h), full_irfftn(lat, limited))

    @pytest.mark.parametrize("n,dim", [(16, 2), (12, 3)])
    def test_from_physical_enters_through_the_band(self, n, dim):
        lat = WavenumberLattice(n, dim)
        noise = np.random.default_rng(n).standard_normal(
            (dim,) + lat.grid_shape)
        u = SpectralVelocity.from_physical(lat, noise, 0.25)
        expect = SpectralVelocity.from_band(
            lat, lat.gather_band(full_rfftn(lat, noise)), 0.25)
        assert u.coeffs.tobytes() == expect.coeffs.tobytes() and u.t == 0.25

    def test_only_the_lattice_calls_numpy_fft(self):
        src = Path(hyperns.__file__).parent
        callers = [p.name for p in sorted(src.glob("*.py"))
                   if p.name != "lattice.py"
                   and ("np.fft." in p.read_text()
                        or "numpy.fft" in p.read_text())]
        assert callers == []

    def test_only_the_lattice_states_its_weight_and_band_edge(self):
        # the Parseval weight L^dim and the band edge k_unit * dealias_limit
        # are the properties volume and k_dealias
        src = Path(hyperns.__file__).parent
        rules = (r"box_length\s*\*\*",
                 r"dealias_limit\s*\*\s*[\w.]*k_unit",
                 r"k_unit\s*\*\s*[\w.]*dealias_limit")
        restating = [p.name for p in sorted(src.glob("*.py"))
                     if p.name != "lattice.py"
                     and any(re.search(r, p.read_text()) for r in rules)]
        assert restating == []

    def test_parseval(self):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 1, 8)
        phys = u.to_physical()
        dx = lat.box_length / lat.n_per_dim
        phys_norm = np.sqrt(np.sum(phys ** 2) * dx ** lat.dim)
        assert u.l2_norm() == pytest.approx(phys_norm, rel=1e-12)


class TestLerayProjection:
    def test_parallel_mode_killed(self):
        lat = WavenumberLattice(8, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        c[0, 1, 0, 0] = 1.0  # u_hat parallel to k = (k_unit, 0, 0)
        c[0, -1, 0, 0] = 1.0
        out = leray_project(SpectralVelocity(lat, c))
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_orthogonal_mode_unchanged(self):
        lat = WavenumberLattice(8, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        c[1, 1, 0, 0] = 1.0
        c[1, -1, 0, 0] = 1.0
        out = leray_project(SpectralVelocity(lat, c))
        assert np.max(np.abs(out.coeffs - SpectralVelocity(lat, c).coeffs)) < 1e-15

    @pytest.mark.parametrize("n,dim", [(16, 2), (8, 3)])
    def test_idempotent_and_divergence_free(self, n, dim):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(7)
        c = (rng.standard_normal((dim,) + lat.grid_shape)
             + 1j * rng.standard_normal((dim,) + lat.grid_shape))
        v = SpectralVelocity(lat, 0.5 * (c + np.conj(negate_kappa(c, dim))))
        once = leray_project(v)
        twice = leray_project(once)
        scale = np.max(np.abs(once.coeffs))
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-14 * scale
        assert once.divergence_max() <= 1e-13


class TestDealias:
    def test_n8_band(self):
        lat = WavenumberLattice(8, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        c[0, 3, 0, 0] = 1.0
        c[0, -3, 0, 0] = 1.0
        c[1, 2, 1, 0] = 1.0
        c[1, -2, -1, 0] = 1.0
        out = dealias(SpectralVelocity(lat, c))
        assert out.coeffs[0, 3, 0, 0] == 0.0  # |kappa| < 8/3 keeps 2
        assert out.coeffs[1, 2, 1, 0] == 1.0

    def test_n12_band(self):
        lat = WavenumberLattice(12, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[0, 3, 0] = 1.0
        c[0, -3, 0] = 1.0
        c[1, 4, 0] = 1.0
        c[1, -4, 0] = 1.0
        out = dealias(SpectralVelocity(lat, c))
        assert out.coeffs[0, 3, 0] == 1.0  # |kappa| < 12/3 keeps 3
        assert out.coeffs[1, 4, 0] == 0.0

    def test_idempotent(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 3, 5)
        once = dealias(u)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestSobolevNorm:
    def test_single_mode_pair(self):
        # u_hat = 1/2 at +/-kappa with |k| = 2: H^1 norm is 2 * L2 norm
        lat = WavenumberLattice(16, 2)
        c = np.zeros((2,) + lat.grid_shape, dtype=complex)
        c[1, 2, 0] = 0.5
        c[1, -2, 0] = 0.5
        u = SpectralVelocity(lat, c)
        l2 = np.sqrt((2 * np.pi) ** 2 * 0.5)
        assert u.l2_norm() == pytest.approx(l2, rel=1e-13)
        h1 = sobolev_norm(u, SobolevIndex(1.0, "homogeneous"))
        assert h1 == pytest.approx(2.0 * l2, rel=1e-13)

    def test_s_zero_equals_l2(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 4, 5)
        for variant in ("homogeneous", "inhomogeneous"):
            assert sobolev_norm(u, SobolevIndex(0.0, variant)) == pytest.approx(
                u.l2_norm(), rel=1e-12)

    def test_brute_force_oracle(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 5, 5)
        n = lat.n_per_dim
        total_h = 0.0
        total_i = 0.0
        for i1 in range(n):
            for i2 in range(n):
                kap = np.array([((i + n // 2) % n) - n // 2
                                for i in (i1, i2)])
                ksq = float(lat.k_unit ** 2 * np.sum(kap ** 2))
                mag2 = sum(abs(u.coeffs[c, i1, i2]) ** 2 for c in range(2))
                if ksq > 0:
                    total_h += ksq ** 2 * mag2
                total_i += (1.0 + ksq) ** 2 * mag2
        vol = lat.box_length ** 2
        assert sobolev_norm(u, SobolevIndex(2.0, "homogeneous")) == \
            pytest.approx(np.sqrt(vol * total_h), rel=1e-12)
        assert sobolev_norm(u, SobolevIndex(2.0, "inhomogeneous")) == \
            pytest.approx(np.sqrt(vol * total_i), rel=1e-12)


class TestInvariants:
    def test_hermitian_preserved(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 6, 5)
        for out in (leray_project(u), dealias(u)):
            assert out.hermitian_defect() <= 1e-12

    def test_mean_and_nyquist_pinned(self):
        lat = WavenumberLattice(8, 2)
        c = np.ones((2,) + lat.grid_shape, dtype=complex)
        u = SpectralVelocity(lat, c)
        assert u.coeffs[0, 0, 0] == 0.0
        assert np.all(u.coeffs[:, -4, :] == 0.0)
        assert np.all(u.coeffs[:, :, -4] == 0.0)

    def test_mean_and_nyquist_pinned_3d(self):
        lat = WavenumberLattice(8, 3)
        c = np.ones((3,) + lat.grid_shape, dtype=complex)
        u = SpectralVelocity(lat, c)
        assert np.all(u.coeffs[:, 0, 0, 0] == 0.0)
        for row in (u.coeffs[:, -4], u.coeffs[:, :, -4], u.coeffs[:, ..., -4]):
            assert np.all(row == 0.0)
        # exactly those: every mode with no kappa_i = -4 outside the mean
        kept = ~np.any(lat.kappa == -4, axis=0)
        kept[0, 0, 0] = False
        assert np.all(u.coeffs[:, kept] == 1.0)
        assert np.count_nonzero(u.coeffs) == 3 * (7 ** 3 - 1)

    @pytest.mark.parametrize("n,dim", [(16, 2), (32, 2), (16, 3)])
    def test_divergence_measure_is_scale_relative(self, n, dim):
        # modes at roundoff level do not count at full weight
        lat = WavenumberLattice(n, dim)
        u = taylor_green(lat)
        assert u.divergence_max() <= 1e-14
        # a divergent part of 1e-9 of the field is still caught
        c = u.coeffs.copy()
        c[:, 1, 1] += 1e-9 * np.max(np.abs(c)) * lat.k[:, 1, 1]
        assert SpectralVelocity(lat, c).divergence_max() > DIV_TOL

    def test_half_layout_arrays(self):
        lat = WavenumberLattice(8, 3)
        assert lat.half_modes == 5
        assert lat.band_shape == (5, 5, 3)
        assert np.array_equal(lat.band_k, band_modes(lat, lat.k))
        # the two-thirds mask is all ones on the band: band_k is the band of
        # the masked k bit for bit, and scattered it is zero off the band
        kept = lat.dealias_mask[..., :5]
        masked_k = lat.half(lat.k) * kept
        assert lat.band_k.tobytes() == lat.gather_band(masked_k).tobytes()
        assert np.all(lat.scatter_band(lat.band_k)[:, ~kept] == 0.0)
        leray = band_modes(lat, lat.k / lat.k_sq_pinned)
        assert lat.band_leray.tobytes() == leray.tobytes()
        assert np.all(lat.band_leray[(slice(None),) + (0,) * 3] == 0.0)

    def test_inner_product_consistency(self):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 8, 5)
        assert inner_product(u, u) == pytest.approx(u.l2_norm() ** 2, rel=1e-12)


def band_modes(lat, a):
    """``a`` at the band's modes, by an index of their kappa: on every axis
    but the last the rows 0..lim, then -lim..-1; on the last 0..lim."""
    lim = lat.dealias_limit
    rows = np.r_[0:lim + 1, -lim:0] % lat.n_per_dim
    return a[(...,) + np.ix_(*[rows] * (lat.dim - 1), np.arange(lim + 1))]


class TestBandLayout:
    """Gathering the two-thirds band from the half layout and scattering it
    back."""

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_scatter_of_gather_is_the_masked_half(self, dim, n, lead):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(n + dim)
        h = full_rfftn(lat, rng.standard_normal(
            (dim,) * lead + lat.grid_shape))
        b = lat.gather_band(h)
        assert b.shape == (dim,) * lead + lat.band_shape
        assert b.tobytes() == band_modes(lat, h).tobytes()
        # "+ 0.0": the product with the mask leaves -0.0 where h is
        # negative off the band; the scatter writes +0.0 there
        masked = h * lat.half(lat.dealias_mask) + 0.0
        assert lat.scatter_band(b).tobytes() == masked.tobytes()

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gather_is_exact_on_band_limited_arrays(self, dim, n, lead):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(n * dim)
        h = lat.scatter_band(lat.forward(
            rng.standard_normal((dim,) * lead + lat.grid_shape)))
        assert lat.scatter_band(lat.gather_band(h)).tobytes() == h.tobytes()
        # a full-layout array holds its band at the same indices; whatever
        # its other half holds is not read
        full = rng.standard_normal(h.shape[:-1] + (n,)).astype(complex)
        full[..., :lat.half_modes] = h
        assert lat.scatter_band(lat.gather_band(full)).tobytes() == h.tobytes()

    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_off_band_sees_every_mode_off_the_band(self, dim, n):
        # band_of refuses content at any mode off the band, in the half
        # layout and in the full layout, whose first half it reads
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(n - dim)
        h = lat.scatter_band(lat.forward(
            rng.standard_normal((dim,) + lat.grid_shape)))
        outside = ~lat.half(lat.dealias_mask)
        h[:, outside] = -0.0  # a zero of either sign is no content
        for a in (h, lat.full_layout(h)):
            half = lat.half(a)  # a view: writes to it reach a
            assert lat.band_of(a).tobytes() == lat.gather_band(a).tobytes()
            for idx in zip(*np.nonzero(outside)):
                for value in (1e-300, np.nan):
                    half[(dim - 1,) + idx] = value
                    with pytest.raises(ValueError, match="off the two-thirds"):
                        lat.band_of(a)
                half[(dim - 1,) + idx] = 0.0
            assert lat.band_of(a).tobytes() == lat.gather_band(a).tobytes()

    @pytest.mark.parametrize("n", [10, 12, 16])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_project_band_is_the_full_projection_on_the_band(self, dim, n):
        # random coefficients: neither Hermitian, pinned nor projected
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(n + 10 * dim)
        shape = (dim,) + lat.band_shape
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = leray_project(SpectralVelocity(
            lat, lat.full_layout(lat.scatter_band(b))))
        expect = lat.gather_band(lat.half(full.coeffs))
        copy = b.copy()
        assert lat.project_band(copy) is copy
        assert copy.tobytes() == expect.tobytes()


class TestLayouts:
    """The kappa -> -kappa map and the half -> full conversion."""

    CASES = [(16, 2), (12, 2), (8, 3), (6, 3)]

    @staticmethod
    def brute_negate(a, dim, n):
        idx = (-np.arange(n)) % n
        for ax in range(-dim, 0):
            a = np.take(a, idx, axis=ax)
        return a

    @pytest.mark.parametrize("n,dim", CASES)
    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_negate_kappa_matches_brute_force_index(self, n, dim, lead, kind):
        rng = np.random.default_rng(n + dim)
        shape = (dim,) * lead + (n,) * dim
        a = rng.standard_normal(shape)
        if kind is complex:
            a = a + 1j * rng.standard_normal(shape)
        out = negate_kappa(a, dim)
        assert out.dtype == a.dtype and out.shape == a.shape
        assert np.array_equal(out, self.brute_negate(a, dim, n))

    @pytest.mark.parametrize("n,dim", CASES)
    def test_full_layout_is_exactly_hermitian(self, n, dim):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(3)
        shape = (dim,) + lat.half(lat.k_sq).shape
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h[..., n // 2] = 0.0  # the kappa_last Nyquist plane is pinned
        full = lat.full_layout(h)
        assert hermitian_defect(full, dim) == 0.0
        assert np.array_equal(lat.half(full)[..., 1:], h[..., 1:])

    @pytest.mark.parametrize("n,dim", CASES)
    def test_full_layout_inverts_half_on_hermitian_fields(self, n, dim):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(4)
        c = (rng.standard_normal((dim,) + lat.grid_shape)
             + 1j * rng.standard_normal((dim,) + lat.grid_shape))
        u = SpectralVelocity(lat, 0.5 * (c + np.conj(negate_kappa(c, dim))))
        full = lat.full_layout(lat.half(u.coeffs))
        assert np.array_equal(full.view(float), u.coeffs.view(float))

    @pytest.mark.parametrize("n,dim", CASES)
    def test_from_band_is_the_constructor_without_its_copy(self, n, dim):
        lat = WavenumberLattice(n, dim)
        rng = np.random.default_rng(5)
        shape = (dim,) + lat.band_shape
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = SpectralVelocity.from_band(lat, b, 0.5)
        expect = SpectralVelocity(lat, lat.full_layout(lat.scatter_band(b)),
                                  0.5)
        assert u.coeffs.tobytes() == expect.coeffs.tobytes() and u.t == 0.5
        # too few components, or the half layout of the right ones
        for bad in (b[1:], b[:1], lat.scatter_band(b)):
            with pytest.raises(ValueError, match="band-layout shape"):
                SpectralVelocity.from_band(lat, bad, 0.5)

    def test_half_is_a_view(self):
        lat = WavenumberLattice(8, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        assert np.shares_memory(lat.half(c), c)
        assert lat.half(c).shape == (3, 8, 8, 5)
