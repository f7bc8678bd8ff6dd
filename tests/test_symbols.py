"""Multiplier symbols: constructors, classification, application."""
import numpy as np
import pytest

from conftest import bandlimited_field
from hyperns.lattice import SobolevIndex, build_lattice, inner_product, sobolev_norm
from hyperns.symbols import (MultiplierSymbol, apply_multiplier, classify,
                             first_order_symbol, kernel_symbol, power_symbol,
                             tabulated_symbol)


def full_band(lat):
    return (lat.k_unit, lat.dealias_limit * lat.k_unit)


class TestPowerSymbol:
    def test_direct_values(self):
        lat = build_lattice(16, 2)
        sym = power_symbol(lat, 2.0, 1.25)
        assert sym.m[2, 0] == pytest.approx(2.0 * 2.0 ** 2.5, rel=1e-12)
        assert sym.m[0, 0] == 0.0
        sym = power_symbol(lat, 1.0, 1.5)
        assert sym.m[3, 0] == pytest.approx(27.0, rel=1e-12)

    @pytest.mark.parametrize("mu,alpha", [(0.0, 1.5), (-1.0, 1.5),
                                          (1.0, 1.0), (1.0, 0.5)])
    def test_rejects_bad_parameters(self, mu, alpha):
        lat = build_lattice(8, 2)
        with pytest.raises(ValueError):
            power_symbol(lat, mu, alpha)

    def test_overflowing_power_refused(self):
        # 11.3^300 overflows float64: the symbol would put inf into m
        lat = build_lattice(16, 2)
        with pytest.raises(ValueError, match="non-finite"):
            power_symbol(lat, 1.0, 150.0)

    def test_even(self):
        lat = build_lattice(16, 3)
        sym = power_symbol(lat, 1.3, 1.25)
        assert sym.m[2, 3, 1] == sym.m[-2, -3, -1]

    @pytest.mark.parametrize("n,dim", [(16, 2), (8, 3)])
    def test_odd_dissipative_part_refused(self, n, dim):
        # m = |k|^2 + k_1 >= 0 on the integer lattice, but not even in k
        lat = build_lattice(n, dim)
        m = lat.k_sq + lat.k[0]
        with pytest.raises(ValueError, match="not even"):
            MultiplierSymbol(lat, -m.astype(complex), "tabulated")


class TestKernelSymbol:
    def test_riesz_equals_power(self):
        # c_hat_j = |k|^{2 alpha - 2} for all j gives m = |k|^{2 alpha}
        lat = build_lattice(16, 3)
        alpha = 1.25
        c_hat = np.zeros(lat.grid_shape)
        nz = lat.k_mag > 0
        c_hat[nz] = lat.k_mag[nz] ** (2 * alpha - 2)
        sym = kernel_symbol(lat, [c_hat] * 3)
        ref = power_symbol(lat, 1.0, alpha)
        scale = np.max(ref.m)
        assert np.max(np.abs(sym.m - ref.m)) <= 1e-13 * scale

    def test_constant_kernel_is_laplacian_order(self):
        lat = build_lattice(16, 2)
        sym = kernel_symbol(lat, [np.ones(lat.grid_shape)] * 2)
        assert np.max(np.abs(sym.m - lat.k_sq)) <= 1e-13 * np.max(lat.k_sq)

    def test_negative_kernel_refused(self):
        lat = build_lattice(16, 3)
        c1 = -np.ones(lat.grid_shape)
        zero = np.zeros(lat.grid_shape)
        with pytest.raises(ValueError, match="non-dissipative"):
            kernel_symbol(lat, [c1, zero, zero])

    def test_wrong_count(self):
        lat = build_lattice(8, 2)
        with pytest.raises(ValueError, match="kernel transforms"):
            kernel_symbol(lat, [np.ones(lat.grid_shape)])


class TestFirstOrderSymbol:
    def test_constant_b(self):
        lat = build_lattice(16, 3)
        sym = first_order_symbol(lat, np.ones(lat.grid_shape), 0)
        assert sym.ell[2, 0, 0] == pytest.approx(2j * lat.k_unit)
        assert np.max(sym.m) == 0.0

    def test_even_gaussian_b(self):
        lat = build_lattice(16, 2)
        sym = first_order_symbol(lat, np.exp(-lat.k_sq), 1)
        assert np.max(np.abs(sym.ell.real)) == 0.0

    def test_rejects_odd_b(self):
        lat = build_lattice(16, 2)
        b = lat.k[0]  # odd in k
        with pytest.raises(ValueError, match="even"):
            first_order_symbol(lat, b, 0)


class TestTabulated:
    def _write_per_mode(self, lat, path, func):
        rows = ["k1,k2,k3,re_ell,im_ell"]
        it = np.ndindex(lat.grid_shape)
        for idx in it:
            k = [float(lat.k[d][idx]) for d in range(lat.dim)]
            while len(k) < 3:
                k.append(0.0)
            val = func(np.sqrt(sum(v * v for v in k[:lat.dim])))
            rows.append(",".join(f"{v:.17g}" for v in (*k, -val, 0.0)))
        path.write_text("\n".join(rows) + "\n")

    def test_per_mode_round_trip(self, tmp_path):
        lat = build_lattice(8, 2)
        path = tmp_path / "sym.csv"
        self._write_per_mode(lat, path, lambda r: r ** 2.5)
        sym = tabulated_symbol(lat, path)
        ref = power_symbol(lat, 1.0, 1.25)
        assert np.max(np.abs(sym.m - ref.m)) <= 1e-12 * np.max(ref.m)

    def test_per_shell_nearest(self, tmp_path):
        lat = build_lattice(16, 2)
        path = tmp_path / "shells.csv"
        rows = ["k1,k2,k3,re_ell,im_ell"]
        for s in range(1, 9):
            rows.append(f"{float(s):.17g},0,0,{-float(s) ** 2.5:.17g},0")
        path.write_text("\n".join(rows) + "\n")
        sym = tabulated_symbol(lat, path)
        # mode (2,0) sits exactly on shell radius 2
        assert sym.m[2, 0] == pytest.approx(2.0 ** 2.5, rel=1e-12)

    def test_bad_header(self, tmp_path):
        lat = build_lattice(8, 2)
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            tabulated_symbol(lat, path)

    def test_short_row_refused(self, tmp_path):
        lat = build_lattice(8, 2)
        path = tmp_path / "short.csv"
        path.write_text("k1,k2,k3,re_ell,im_ell\n1,0,0\n2,0,0\n")
        with pytest.raises(ValueError, match="5 fields"):
            tabulated_symbol(lat, path)

    def test_negative_refused(self, tmp_path):
        lat = build_lattice(8, 2)
        path = tmp_path / "neg.csv"
        self._write_per_mode(lat, path, lambda r: -1.0)
        with pytest.raises(ValueError, match="negative"):
            tabulated_symbol(lat, path)


class TestClassify:
    def test_power_recovery(self):
        lat = build_lattice(64, 2)
        cls = classify(power_symbol(lat, 1.0, 1.25), full_band(lat))
        assert cls.tag == "hyperdissipative"
        assert cls.alpha_hat == pytest.approx(1.25, abs=0.02)
        assert cls.c0_hat == pytest.approx(1.0, abs=1e-6)
        assert cls.c1_hat == pytest.approx(1.0, abs=1e-2)
        assert cls.c0_hat >= cls.c1_hat * 0.99

    def test_gaussian_bounded_symbol(self):
        lat = build_lattice(32, 2)
        g = np.exp(-lat.k_sq)
        sym = MultiplierSymbol(lat, -(g.astype(complex)), "tabulated", {})
        assert classify(sym, full_band(lat)).tag == "order_zero"

    def test_first_order_imaginary(self):
        lat = build_lattice(32, 2)
        sym = first_order_symbol(lat, np.ones(lat.grid_shape), 0)
        assert classify(sym, full_band(lat)).tag == "first_order_imaginary"

    def test_laplacian_order_not_hyperdissipative(self):
        lat = build_lattice(32, 2)
        sym = kernel_symbol(lat, [np.ones(lat.grid_shape)] * 2)
        cls = classify(sym, full_band(lat))
        assert cls.tag == "unclassified"

    def test_band_too_small(self):
        lat = build_lattice(16, 2)
        with pytest.raises(ValueError, match="shells"):
            classify(power_symbol(lat, 1.0, 1.5), (1.0, 3.0))

    def test_empty_band(self):
        lat = build_lattice(16, 2)
        with pytest.raises(ValueError, match="band"):
            classify(power_symbol(lat, 1.0, 1.5), (3.0, 1.0))

    def test_nan_rejected(self):
        lat = build_lattice(32, 2)
        ell = np.zeros(lat.grid_shape, dtype=complex)
        ell[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            MultiplierSymbol(lat, ell, "tabulated")


class TestApplyMultiplier:
    def test_zero_symbol(self):
        lat = build_lattice(16, 2)
        u = bandlimited_field(lat, 1, 5)
        sym = first_order_symbol(lat, np.zeros(lat.grid_shape), 0)
        out = apply_multiplier(sym, u)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_single_mode_scale(self):
        lat = build_lattice(16, 3)
        c = np.zeros((3,) + lat.grid_shape, dtype=complex)
        c[1, 2, 0, 0] = 1.0
        c[1, -2, 0, 0] = 1.0
        from hyperns.lattice import SpectralVelocity
        u = SpectralVelocity(lat, c)
        out = apply_multiplier(power_symbol(lat, 1.0, 1.25), u)
        assert out.coeffs[1, 2, 0, 0] == pytest.approx(2.0 ** 2.5, rel=1e-6)

    def test_quadratic_form_two_ways(self):
        lat = build_lattice(16, 2)
        u = bandlimited_field(lat, 2, 5)
        sym = power_symbol(lat, 1.0, 1.25)
        mu_u = apply_multiplier(sym, u)
        direct = lat.box_length ** 2 * float(
            np.sum(sym.m * np.sum(np.abs(u.coeffs) ** 2, axis=0)))
        assert inner_product(mu_u, u) == pytest.approx(direct, rel=1e-13)

    def test_coercivity(self):
        # <Mu, u> >= c0_hat ||Lambda^alpha_hat u||^2 for divergence-free u
        lat = build_lattice(64, 2)
        sym = power_symbol(lat, 1.0, 1.25)
        cls = classify(sym, full_band(lat))
        u = bandlimited_field(lat, 3, lat.dealias_limit)
        quad = inner_product(apply_multiplier(sym, u), u)
        lam = sobolev_norm(u, SobolevIndex(cls.alpha_hat, "homogeneous"))
        assert quad >= cls.c0_hat * lam ** 2 - 1e-10

    def test_divergence_preserved(self):
        lat = build_lattice(16, 2)
        u = bandlimited_field(lat, 4, 5)
        out = apply_multiplier(power_symbol(lat, 1.0, 1.5), u)
        assert out.divergence_max() <= 1e-12

    def test_lattice_mismatch(self):
        lat_a, lat_b = build_lattice(16, 2), build_lattice(8, 2)
        u = bandlimited_field(lat_a, 5, 5)
        with pytest.raises(ValueError, match="lattice"):
            apply_multiplier(power_symbol(lat_b, 1.0, 1.5), u)
