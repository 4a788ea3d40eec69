"""Kernel tests: series/direct consistency, frozen spot values (50-digit
mpmath), sign behaviour on the classification bands, and the sign of
Im G_z for non-real z.
"""
import cmath
import math

import numpy as np
import pytest

from lerchzeta import DomainError, WrongPathError, kernel_G, kernel_Gz, kernel_H
from lerchzeta.kernels import gz_taylor_coeffs, h_series_coeffs

B2M = (3.0 - math.sqrt(3.0)) / 6.0
B2P = (3.0 + math.sqrt(3.0)) / 6.0


# x that is not finite, as a float and inside an array of valid x
NON_FINITE_X = [bad for v in (math.nan, math.inf, -math.inf)
                for bad in (v, np.array([0.25, v, 2.0]))]


class TestKernelH:
    def test_limit_at_zero(self):
        # H(a, 0+) = 1/2 - a
        assert kernel_H(1.0, 1e-12) == pytest.approx(-0.5, abs=1e-12)
        assert kernel_H(0.5, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_spot_values(self):
        assert kernel_H(0.5, 1.0) == pytest.approx(-0.04048262433252814, abs=1e-15)
        assert kernel_H(0.25, 2.0) == pytest.approx(0.20146340882625441, abs=1e-15)

    def test_series_direct_straddle(self):
        # both forms are valid on [0.4, 0.6] and must agree to 1e-12
        # absolute: below the switch at 0.5 kernel_H (the series) is checked
        # against the direct formula, above it against the Bernoulli series
        xs = np.linspace(0.4, 0.6, 41)
        lo, hi = xs[xs < 0.5], xs[xs >= 0.5]
        for a in (0.1, 0.35, 0.5, 0.8, 1.0):
            direct = np.exp(-a * lo) / (-np.expm1(-lo)) - 1.0 / lo
            assert np.max(np.abs(kernel_H(a, lo) - direct)) <= 1e-12
            series = np.polynomial.polynomial.polyval(hi, h_series_coeffs(a))
            assert np.max(np.abs(kernel_H(a, hi) - series)) <= 1e-12

    # 40-digit mpmath references across both evaluation paths
    H_REFS = {
        (0.3, 1e-06): 0.199999978333326333,
        (0.3, 0.01): 0.199782633783845064,
        (0.3, 0.25): 0.194153574368375253,
        (0.3, 0.499): 0.187512462079608543,
        (0.3, 0.5): 0.187484228876506498,
        (0.3, 2.0): 0.134710339689050773,
        (0.3, 10.0): -0.0502106712001056206,
        (0.3, 50.0): -0.0199996940976794982,
        (0.85, 1e-06): -0.349999980416659229,
        (0.85, 0.01): -0.349803423629923635,
        (0.85, 0.25): -0.344651090774601733,
        (0.85, 0.499): -0.338474361737708669,
        (0.85, 0.5): -0.33844795975113906,
        (0.85, 2.0): -0.288723281393329476,
        (0.85, 10.0): -0.0997965223931202952,
        (0.85, 50.0): -0.0199999999999999997,
    }

    def test_absolute_accuracy_contract(self):
        # <= 1e-14 absolute on (0, 50]
        for (a, x), want in self.H_REFS.items():
            assert abs(kernel_H(a, x) - want) <= 1e-14, (a, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_H(0.5, 0.0)
        with pytest.raises(DomainError):
            kernel_H(1.5, 1.0)

    @pytest.mark.parametrize("x", NON_FINITE_X)
    def test_non_finite_x(self, x):
        with pytest.raises(DomainError):
            kernel_H(0.4, x)

    def test_array_input(self):
        xs = np.array([0.1, 1.0, 10.0])
        out = kernel_H(0.4, xs)
        assert out.shape == xs.shape
        assert out[1] == pytest.approx(kernel_H(0.4, 1.0), abs=1e-16)


class TestKernelG:
    @pytest.mark.parametrize("x", NON_FINITE_X)
    def test_non_finite_x(self, x):
        with pytest.raises(DomainError):
            kernel_G(0.3, x)

    def test_quadratic_vanishing_at_b2_root(self):
        # at a = b2^- the linear term B_2(a) x/2 vanishes: G = O(x^2)
        for x in (1e-4, 1e-3, 1e-2):
            assert abs(kernel_G(B2M, x)) <= 0.02 * x * x

    def test_relation_to_h(self):
        assert kernel_G(0.5, 1.0) == pytest.approx(kernel_H(0.5, 1.0), abs=1e-16)
        assert kernel_G(0.25, 2.0) == pytest.approx(-0.04853659117374559, abs=1e-15)

    def test_sign_on_lower_band(self):
        xs = np.geomspace(1e-3, 60.0, 200)
        for a in np.linspace(B2M, 0.5, 20):
            assert np.all(kernel_G(float(a), xs) < 0.0)

    def test_sign_on_upper_band(self):
        xs = np.geomspace(1e-3, 60.0, 200)
        for a in np.linspace(B2P, 1.0, 20):
            assert np.all(kernel_G(float(a), xs) > 0.0)

    def test_sign_change_outside_bands(self):
        xs = np.geomspace(1e-3, 60.0, 400)
        for a in (0.05, 0.6):
            vals = kernel_G(a, xs)
            assert np.any(vals > 0.0) and np.any(vals < 0.0)


class TestKernelGz:
    @pytest.mark.parametrize("x", NON_FINITE_X)
    def test_non_finite_x(self, x):
        with pytest.raises(DomainError):
            kernel_Gz(0.3, -1.0, x)

    def test_limit_zero(self):
        for a, z in ((0.3, -1.0 + 0j), (1.0, 1j), (0.7, 0.5 + 0j)):
            assert abs(kernel_Gz(a, z, 1e-10)) <= 1e-9

    def test_spot_values(self):
        got = kernel_Gz(1.0, -1.0 + 0j, 1.0)
        assert got == pytest.approx(1.0 / (math.e + 1.0) - 0.5, abs=1e-15)
        assert got == pytest.approx(-0.23105857863000488, abs=1e-15)
        got = kernel_Gz(0.5, 1j, 1.0)
        want = complex(0.03423043277888486, -0.30346760693252605)
        assert abs(got - want) <= 1e-15

    def test_real_z_gives_exactly_real_values(self):
        for x in (1e-6, 0.3, 1.0, 7.0):
            assert kernel_Gz(0.4, -0.8 + 0j, x).imag == 0.0

    def test_wrong_kernel_for_z_equal_one(self):
        with pytest.raises(WrongPathError):
            kernel_Gz(0.5, 1.0 + 0j, 1.0)

    def test_taylor_coeffs_match_kernel(self):
        for z in (-1.0 + 0j, 1j, 0.5 + 0j):
            c = gz_taylor_coeffs(0.3, z)
            x = 0.05
            series = sum(c[k] * x ** k for k in range(1, 37))
            assert abs(series - kernel_Gz(0.3, z, x)) <= 1e-14

    def test_case3_imaginary_part_sign(self):
        # the kernel fact behind case III: for non-real z = r e^{i theta},
        # Im G_z(a,x) / sin(theta) < 0 at every x > 0
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.05, 0.999))
            r = min(1.0, float(rng.uniform(0.05, 1.1)))   # r = 1 about 1 in 10
            theta = float(rng.uniform(0.1, math.pi - 0.1) * rng.choice((-1, 1)))
            xs = rng.uniform(0.01, 10.0, size=100)
            im = kernel_Gz(a, r * cmath.exp(1j * theta), xs).imag
            assert np.all(im * math.sin(theta) < 0.0), (a, r, theta)

    def test_monotone_numerator_condition(self):
        # d/dx[(1-z)e^{(1-a)x} - e^x + z] < 0 whenever (1-a)(1-z) <= 1
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = float(rng.uniform(-1.0, 0.999))
            a = float(rng.uniform(0.0, 1.0))
            if (1.0 - a) * (1.0 - z) > 1.0:
                continue
            for x in rng.uniform(0.01, 20.0, size=10):
                deriv = (1.0 - z) * (1.0 - a) * math.exp((1.0 - a) * x) - math.exp(x)
                assert deriv < 0.0
