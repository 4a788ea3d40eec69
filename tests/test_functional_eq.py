"""Functional-equation sums vs the integral/series paths and the
expansion/contour identity checks.
"""
import cmath
import math

import numpy as np
import pytest

from lerchzeta import (DomainError, Method, hurwitz_em, phi_fe_rhs,
                       phi_integral, phi_series, verify_kernel_expansion_z1,
                       verify_kernel_expansion_zne1, verify_mellin_identity,
                       zeta_fe_rhs)
from lerchzeta.kernels import kernel_G, kernel_Gz


class TestZetaFE:
    def test_matches_integral_path(self):
        lhs = phi_integral(-0.5, 0.5, 1.0).value
        rhs = zeta_fe_rhs(-0.5, 0.5).value
        assert abs(lhs - rhs) <= 1e-6

    def test_matches_euler_maclaurin(self):
        rhs = zeta_fe_rhs(-0.5, 0.25).value
        assert abs(rhs - hurwitz_em(-0.5, 0.25).value) <= 1e-6
        # the Abel-corrected sum is far better than the contract requires
        assert abs(rhs - hurwitz_em(-0.5, 0.25).value) <= 1e-12

    def test_result_is_real_up_to_roundoff(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sigma = float(rng.uniform(-0.95, -0.05))
            a = float(rng.uniform(0.05, 0.95))
            res = zeta_fe_rhs(sigma, a)
            assert abs(res.value.imag) <= 1e-10
            assert res.method is Method.FUNCTIONAL_EQ

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zeta_fe_rhs(-0.5, 1.0)
        with pytest.raises(DomainError):
            zeta_fe_rhs(0.5, 0.5)

    def test_reported_error_estimate_is_honest(self):
        for sigma, a in ((-0.5, 0.3), (-0.2, 0.7), (-0.8, 0.9)):
            res = zeta_fe_rhs(sigma, a)
            true_err = abs(res.value.real - hurwitz_em(sigma, a).value.real)
            assert true_err <= max(res.abs_err_estimate, 1e-12)

    def test_error_estimate_bounds_mpmath(self):
        # the rounding term grows with sum |terms|, not with |sum|: on
        # cancelling sums an estimate of 16 eps |sum| falls short of the
        # true error by up to 4x
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        for _ in range(300):
            sigma = float(rng.uniform(-0.98, -0.02))
            a = float(rng.uniform(0.02, 0.98))
            res = zeta_fe_rhs(sigma, a)
            with mp.workdps(30):
                want = complex(mp.zeta(sigma, a))
            assert abs(res.value - want) <= res.abs_err_estimate, (sigma, a)


class TestPhiFE:
    def test_matches_integral_path_minus_one(self):
        lhs = phi_integral(-0.5, 0.5, -1.0 + 0j).value
        rhs = phi_fe_rhs(-0.5, 0.5, -1.0 + 0j).value
        assert abs(lhs - rhs) <= 1e-6

    def test_matches_series_inside_disk(self):
        lhs = phi_series(-0.5, 0.5, 0.5, tol=1e-13).value
        rhs = phi_fe_rhs(-0.5, 0.5, 0.5 + 0j).value
        assert abs(lhs - rhs) <= 1e-6

    def test_matches_integral_path_i(self):
        lhs = phi_integral(-0.5, 0.3, 1j).value
        rhs = phi_fe_rhs(-0.5, 0.3, 1j).value
        assert abs(lhs - rhs) <= 1e-6

    def test_conjugation_symmetry(self):
        for (sigma, a, z) in ((-0.5, 0.3, 1j),
                              (-0.7, 0.6, cmath.exp(2j * math.pi / 3)),
                              (-0.2, 0.45, complex(0.3, -0.8))):
            v = phi_fe_rhs(sigma, a, z).value
            vc = phi_fe_rhs(sigma, a, z.conjugate()).value
            assert abs(vc - v.conjugate()) <= 1e-10

    def test_against_mpmath(self):
        # seeded (sigma, a, z) over z = -1, real z in (-1, 1), non-real
        # |z| = 1 and non-real |z| < 1
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        for i in range(16):
            sigma = float(rng.uniform(-0.98, -0.02))
            a = float(rng.uniform(0.02, 0.98))
            theta = float(rng.uniform(0.01, math.pi)) * rng.choice((-1, 1))
            z = (complex(-1.0), complex(rng.uniform(-0.99, 0.99)),
                 cmath.exp(1j * theta),
                 float(rng.uniform(0.05, 0.99)) * cmath.exp(1j * theta))[i % 4]
            with mp.workdps(20):
                want = complex(mp.lerchphi(z, sigma, a))
            got = phi_fe_rhs(sigma, a, z).value
            assert abs(got - want) <= 1e-11 * abs(want), (sigma, a, z)

    def test_error_estimate_bounds_mpmath(self):
        # seeded (sigma, a) at the roots of unity z = e^{2 pi i p/q},
        # q = 2..6, where Phi = q^{-s} sum_j z^j zeta(s, (a + j)/q) gives a
        # 30-digit oracle at the cost of q Hurwitz zeta values
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for _ in range(120):
            sigma = float(rng.uniform(-0.98, -0.02))
            a = float(rng.uniform(0.02, 0.98))
            q = int(rng.integers(2, 7))
            p = int(rng.integers(1, q))
            res = phi_fe_rhs(sigma, a, cmath.exp(2j * math.pi * p / q))
            with mp.workdps(30):
                want = complex(mp.mpf(q) ** -sigma * mp.fsum(
                    mp.expjpi(mp.mpf(2 * p * j) / q)
                    * mp.zeta(sigma, (a + mp.mpf(j)) / q) for j in range(q)))
            assert abs(res.value - want) <= res.abs_err_estimate, \
                (sigma, a, p, q)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_fe_rhs(-0.5, 0.5, 1.0 + 0j)
        with pytest.raises(DomainError):
            phi_fe_rhs(-1.5, 0.5, -1.0 + 0j)


class TestKernelExpansionZ1:
    def test_truncated_sum_close_at_n_1e4(self):
        s, ref = verify_kernel_expansion_z1(0.5, 1.0, 10 ** 4)
        assert abs(s - ref) <= 5e-4

    def test_same_envelope_at_small_x(self):
        s, ref = verify_kernel_expansion_z1(0.25, 0.1, 10 ** 4)
        assert abs(s - ref) <= 5e-4

    def test_pairing_is_real(self):
        # the n and -n terms are conjugates: each pair is real
        n, a, x = 7.0, 0.3, 1.2
        first = x * cmath.exp(-2j * math.pi * n * a) \
            / (2j * math.pi * n * (x - 2j * math.pi * n))
        pair = first + first.conjugate()
        assert pair.imag == 0.0
        s, _ = verify_kernel_expansion_z1(a, x, 100)
        assert isinstance(s, float)

    def test_reference_is_kernel_g(self):
        _, ref = verify_kernel_expansion_z1(0.4, 0.8, 16)
        assert ref == pytest.approx(kernel_G(0.4, 0.8), abs=1e-16)


class TestKernelExpansionZne1:
    def test_convergence_minus_one(self):
        s, ref = verify_kernel_expansion_zne1(0.5, -1.0 + 0j, 1.0, 10 ** 4)
        assert abs(s - ref) <= 5e-4

    def test_convergence_i(self):
        s, ref = verify_kernel_expansion_zne1(0.5, 1j, 1.0, 10 ** 4)
        assert abs(s - ref) <= 5e-4

    def test_small_x_termwise_factor(self):
        # every term carries a factor x, so the sum vanishes with x
        s, ref = verify_kernel_expansion_zne1(0.5, -1.0 + 0j, 1e-12, 256)
        assert abs(s) <= 1e-11 and abs(ref) <= 1e-11

    def test_reference_is_kernel_gz(self):
        _, ref = verify_kernel_expansion_zne1(0.4, 1j, 0.8, 16)
        assert ref == pytest.approx(complex(kernel_Gz(0.4, 1j, 0.8)), abs=1e-16)


class TestMellinIdentity:
    @pytest.mark.parametrize("w", [2j * math.pi, -2j * math.pi,
                                   2j * math.pi + math.log(0.5)])
    def test_three_reference_points(self, w):
        lhs, rhs = verify_mellin_identity(-0.5, w)
        assert abs(lhs - rhs) <= 1e-6

    def test_conjugate_w_conjugates_value(self):
        lhs_p, rhs_p = verify_mellin_identity(-0.5, 2j * math.pi)
        lhs_m, rhs_m = verify_mellin_identity(-0.5, -2j * math.pi)
        assert abs(rhs_m - rhs_p.conjugate()) <= 1e-14
        assert abs(lhs_m - lhs_p.conjugate()) <= 1e-10

    def test_principal_branch_would_fail_below_axis(self):
        # for Im w < 0 the cut branch (arg in (0,2pi)) differs from the
        # principal power by e^{2 pi i sigma}; the integral follows the cut
        sigma, w = -0.5, -2j * math.pi
        lhs, rhs = verify_mellin_identity(sigma, w)
        principal = 2j * math.pi * w ** sigma \
            / (1.0 - cmath.exp(2j * math.pi * sigma))
        assert abs(lhs - rhs) <= 1e-10
        assert abs(lhs - principal) > 1e-1

    def test_positive_real_w_rejected(self):
        for w in (1.0, 0.0, 2.5 + 0j):
            with pytest.raises(DomainError):
                verify_mellin_identity(-0.5, w)
