"""Kernel tests: series/direct consistency, frozen spot values (50-digit
mpmath), sign behaviour on the classification bands, and the non-real-z
comparison functions.
"""
import math

import numpy as np
import pytest

from lerchzeta import (DomainError, WrongPathError, case3_kernels, kernel_G,
                       kernel_Gz, kernel_H, sign_fn_g)
from lerchzeta.kernels import gz_taylor_coeffs, h_direct, h_series

B2M = (3.0 - math.sqrt(3.0)) / 6.0
B2P = (3.0 + math.sqrt(3.0)) / 6.0


class TestKernelH:
    def test_limit_at_zero(self):
        # H(a, 0+) = 1/2 - a
        assert kernel_H(1.0, 1e-12) == pytest.approx(-0.5, abs=1e-12)
        assert kernel_H(0.5, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_spot_values(self):
        assert kernel_H(0.5, 1.0) == pytest.approx(-0.04048262433252814, abs=1e-15)
        assert kernel_H(0.25, 2.0) == pytest.approx(0.20146340882625441, abs=1e-15)

    def test_series_direct_straddle(self):
        # both paths valid on [0.4, 0.6]; must agree to 1e-12 absolute
        xs = np.linspace(0.4, 0.6, 41)
        for a in (0.1, 0.35, 0.5, 0.8, 1.0):
            assert np.max(np.abs(h_series(a, xs) - h_direct(a, xs))) <= 1e-12

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

    def test_array_input(self):
        xs = np.array([0.1, 1.0, 10.0])
        out = kernel_H(0.4, xs)
        assert out.shape == xs.shape
        assert out[1] == pytest.approx(kernel_H(0.4, 1.0), abs=1e-16)


class TestKernelG:
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
            c = gz_taylor_coeffs(0.3, z, 36)
            x = 0.05
            series = sum(c[k] * x ** k for k in range(1, 37))
            assert abs(series - kernel_Gz(0.3, z, x)) <= 1e-14

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


class TestSignFnG:
    def test_exact_zeros_at_origin(self):
        for a in (0.1, 0.5, 1.0):
            for order in (0, 1, 2):
                assert sign_fn_g(a, 0.0, order) == 0.0

    def test_spot_values(self):
        # a = 1/2 kills the (1/2 - a) term: g = e^{1/2} - e + 1
        assert sign_fn_g(0.5, 1.0, 0) == pytest.approx(
            math.exp(0.5) - math.e + 1.0, abs=1e-15)
        assert sign_fn_g(0.5, 1.0, 0) == pytest.approx(-0.06956055775891709, abs=1e-15)
        assert sign_fn_g(1.0, 1.0, 0) == pytest.approx(0.14085908577047738, abs=1e-15)

    def test_derivative_consistency(self):
        # g' and g'' match finite differences of g and g'
        h = 1e-6
        for a in (0.3, 0.9):
            for x in (0.5, 2.0):
                fd1 = (sign_fn_g(a, x + h, 0) - sign_fn_g(a, x - h, 0)) / (2 * h)
                assert fd1 == pytest.approx(sign_fn_g(a, x, 1), rel=1e-8)
                fd2 = (sign_fn_g(a, x + h, 1) - sign_fn_g(a, x - h, 1)) / (2 * h)
                assert fd2 == pytest.approx(sign_fn_g(a, x, 2), rel=1e-8)

    def test_band_signs(self):
        # numerator sign matches the G bands (g = x(e^x-1) G)
        for x in (0.5, 5.0, 30.0):
            assert sign_fn_g(0.3, x, 0) < 0.0       # inside [b-, 1/2]
            assert sign_fn_g(0.9, x, 0) > 0.0       # inside [b+, 1]

    def test_domain(self):
        with pytest.raises(DomainError):
            sign_fn_g(0.5, -1.0, 0)
        with pytest.raises(DomainError):
            sign_fn_g(0.5, 1.0, 3)


class TestCase3Kernels:
    def test_ordering(self):
        flat, sharp, natural, _ = case3_kernels(0.5, 1.0, math.pi / 2, 1.0)
        assert flat < natural < sharp

    def test_ordering_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = float(rng.uniform(0.05, 0.999))
            r = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            if rng.uniform() < 0.5:
                theta += math.pi
            x = float(rng.uniform(0.01, 10.0))
            flat, sharp, natural, im_g = case3_kernels(a, r, theta, x)
            assert flat < natural < sharp
            # Im(G)/sin(theta) < 0 for all x > 0
            assert im_g * math.sin(theta) < 0.0

    def test_imaginary_part_spot(self):
        _, _, _, im_g = case3_kernels(1.0, 1.0, math.pi / 2, 1.0)
        want = 1.0 / (math.e ** 2 + 1.0) - 0.5
        assert im_g == pytest.approx(want, abs=1e-15)

    def test_real_theta_rejected(self):
        for theta in (0.0, math.pi, 2 * math.pi):
            with pytest.raises(DomainError):
                case3_kernels(0.5, 1.0, theta, 1.0)

