"""Bernoulli table, real gamma, and principal-branch logarithm tests.

Reference values were frozen from 50-digit mpmath computations.
"""
import math

import numpy as np
import pytest

from lerchzeta import (DegreeOverflowError, DomainError, PoleError,
                       bernoulli_number, bernoulli_numbers, bernoulli_poly,
                       gamma_real, principal_log)
from lerchzeta.special import _COEFFS

B2_ROOT_LOWER = (3.0 - math.sqrt(3.0)) / 6.0


class TestBernoulli:
    def test_low_degree_closed_forms(self):
        for x in (-1.5, 0.0, 0.3, 1.0, 2.0):
            assert bernoulli_poly(0, x) == 1.0
            assert bernoulli_poly(1, x) == pytest.approx(x - 0.5, abs=1e-16)
            assert bernoulli_poly(2, x) == pytest.approx(x * x - x + 1.0 / 6.0,
                                                         rel=1e-14, abs=1e-15)

    def test_b2_vanishes_at_its_lower_root(self):
        assert abs(bernoulli_poly(2, B2_ROOT_LOWER)) <= 1e-15

    def test_b1_midpoint_and_b2_at_one(self):
        assert bernoulli_poly(1, 0.5) == 0.0
        assert abs(bernoulli_poly(2, 1.0) - 1.0 / 6.0) <= 1e-16

    def test_numbers_match_known_values(self):
        from fractions import Fraction
        bn = bernoulli_numbers(12)
        assert bn[0] == 1
        assert bn[1] == Fraction(-1, 2)
        assert bn[2] == Fraction(1, 6)
        assert bn[3] == 0
        assert bn[4] == Fraction(-1, 30)
        assert bn[12] == Fraction(-691, 2730)
        assert bernoulli_number(16) == pytest.approx(-3617.0 / 510.0, rel=1e-15)

    def test_endpoint_symmetry(self):
        # B_n(0) = B_n(1) for n >= 2, to roundoff in the coefficient scale
        # (B_n(1) sums all coefficients, which reach ~1e10 at n = 32)
        eps = np.finfo(float).eps
        for n in range(2, 33):
            lhs, rhs = bernoulli_poly(n, 0.0), bernoulli_poly(n, 1.0)
            scale = max(1.0, sum(abs(c) for c in _COEFFS[n]))
            assert abs(lhs - rhs) <= 8.0 * eps * scale

    def test_reflection_symmetry(self):
        # |B_n(1-x) - (-1)^n B_n(x)| small.  The literal 1e-12 absolute bound
        # is attainable only while the coefficient scale stays O(1); at
        # n = 32 the central coefficients reach ~1e10, so the check switches
        # to a backward-error scale of sum_k |c_k| x^k beyond n = 16.
        rng = np.random.default_rng(42)
        for n in range(2, 33):
            abs_coeff_poly = np.polynomial.Polynomial(
                [abs(c) for c in _COEFFS[n]])
            for x in rng.uniform(0.0, 1.0, size=100):
                diff = abs(bernoulli_poly(n, 1.0 - x)
                           - (-1.0) ** n * bernoulli_poly(n, x))
                if n <= 16:
                    assert diff <= 1e-12
                else:
                    assert diff <= 1e-12 * max(1.0, abs_coeff_poly(x))

    def test_derivative_recurrence_finite_differences(self):
        # d/dx B_n = n B_{n-1} under finite differences; meaningful at 1e-12
        # only while truncation f^(5) h^4 and the coefficient-scale roundoff
        # stay tiny, i.e. for moderate degree
        h = 3e-4
        for n in range(2, 9):
            for x in (0.15, 0.5, 0.85):
                fd = (8.0 * (bernoulli_poly(n, x + h) - bernoulli_poly(n, x - h))
                      - (bernoulli_poly(n, x + 2 * h) - bernoulli_poly(n, x - 2 * h))
                      ) / (12.0 * h)
                want = n * bernoulli_poly(n - 1, x)
                assert abs(fd - want) <= 1e-12 * max(1.0, abs(want))

    def test_derivative_recurrence_coefficients(self):
        # the same identity checked exactly on the stored coefficients:
        # (k+1) c^{(n)}_{k+1} = n c^{(n-1)}_k for every k
        for n in range(1, 33):
            cn = _COEFFS[n]
            cm = _COEFFS[n - 1]
            for k in range(n):
                lhs = (k + 1) * cn[k + 1]
                rhs = n * cm[k]
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x(self, x):
        with pytest.raises(DomainError):
            bernoulli_poly(3, x)

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflowError):
            bernoulli_poly(33, 0.5)
        with pytest.raises(DomainError):
            bernoulli_poly(-1, 0.5)


class TestGammaReal:
    def test_half_integer_values(self):
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma_real(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        assert gamma_real(3.0) == pytest.approx(2.0, rel=1e-14)

    def test_negative_on_unit_interval(self):
        for sigma in np.linspace(-0.95, -0.05, 19):
            assert gamma_real(float(sigma)) < 0.0

    def test_recurrence_on_grid(self):
        for sigma in np.arange(-0.9, 5.0, 0.2):
            sigma = float(round(sigma, 10))
            if sigma == 0.0:
                continue
            lhs = gamma_real(sigma + 1.0)
            rhs = sigma * gamma_real(sigma)
            assert abs(lhs - rhs) / abs(lhs) <= 1e-12

    def test_poles_raise(self):
        for bad in (0.0, -1.0, -2.5):
            with pytest.raises(PoleError):
                gamma_real(bad)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(DomainError):
            gamma_real(sigma)


class TestComplexPow:
    def test_principal_log_branch(self):
        assert principal_log(-1.0).imag == pytest.approx(math.pi, abs=1e-16)
        assert principal_log(complex(-2.0, -0.0)).imag == pytest.approx(
            math.pi, abs=1e-16)
