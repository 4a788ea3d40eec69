"""Evaluator tests: series, closed forms, Euler-Maclaurin oracle, integral
representations and the dispatcher.  Frozen references come from 50-digit
mpmath runs (zeta/lerchphi); classical constants are written as formulas.
"""
import math

import numpy as np
import pytest

from lerchzeta import (ConditioningError, DomainError, Method, PoleError,
                       SeriesDivergenceError, builtin_characters, check_case3,
                       dirichlet_L, evaluate, hurwitz_em, lerch_from_hurwitz,
                       phi_fe_rhs, phi_integral, phi_series, scan_zeros,
                       special_value, zeta_fe_rhs)

PI2_6 = math.pi ** 2 / 6.0
PI2_12 = math.pi ** 2 / 12.0

ZETA_HALF = -1.4603545088095868          # zeta(1/2)
ZETA_MHALF = -0.20788622497735457        # zeta(-1/2)
ZETA_HALF_HALF = -0.6048986434216304     # zeta(1/2, 1/2)
ZETA_MHALF_HALF = 0.06088846558059492    # zeta(-1/2, 1/2)
ZETA_MHALF_QUARTER = 0.09032225876124624  # zeta(-1/2, 1/4)
ZETA_HALF_07 = -1.0105365599351245       # zeta(1/2, 0.7)
PHI_M05_05_05 = 2.2397398735796863       # Phi(-1/2, 1/2, 1/2)
PHI_M05_05_M1 = 0.19458146106805817      # Phi(-1/2, 1/2, -1)
PHI_M05_01_M1 = -0.09321636600463976     # Phi(-1/2, 0.1, -1)
PHI_05_03_05 = 2.5533374707827289        # Phi(1/2, 0.3, 1/2)
PHI_05_03_I = complex(1.4340270805640672, 0.5634837545254683)
PHI_M05_05_I = complex(0.07005115902666270, 0.42072083782045383)
PHI_M05_03_I = complex(-0.05117794831360994, 0.36695201140560064)


class TestPhiSeries:
    def test_zeta_two(self):
        res = phi_series(2.0, 1.0, 1.0)
        assert res.method is Method.SERIES
        # plain truncation: the honest estimate is the integral tail bound
        assert abs(res.value.real - PI2_6) <= res.abs_err_estimate
        assert res.abs_err_estimate <= 1e-5

    def test_eta_two(self):
        # alternating series: true error is below the first omitted term
        res = phi_series(2.0, 1.0, -1.0)
        assert abs(res.value.real - PI2_12) <= 1e-9
        assert res.value.imag == 0.0

    def test_geometric_regime_negative_sigma(self):
        res = phi_series(-0.5, 0.5, 0.5, tol=1e-13)
        assert abs(res.value.real - PHI_M05_05_05) <= 1e-12
        assert res.abs_err_estimate <= 1e-12

    def test_divergent_combination_rejected(self):
        with pytest.raises(SeriesDivergenceError):
            phi_series(0.5, 0.5, -1.0)
        with pytest.raises(SeriesDivergenceError):
            phi_series(1.0, 1.0, 1.0)

    def test_no_honest_bound_raises(self):
        # |z| just inside the unit tolerance with sigma < 0: terms still grow
        # at the cap, so no finite tail estimate exists
        with pytest.raises(SeriesDivergenceError):
            phi_series(-0.5, 0.5, 1.0 - 1e-11)

    def test_complex_z(self):
        res = phi_series(1.5, 0.3, 0.6j, tol=1e-13)
        # reference: explicit partial sum in float with generous margin
        n = np.arange(0, 400)
        ref = np.sum((0.6j) ** n * (n + 0.3) ** (-1.5))
        assert abs(res.value - ref) <= 1e-12

    def test_real_z_imag_exactly_zero(self):
        assert phi_series(1.7, 0.4, -0.9).value.imag == 0.0

    def test_rounding_bound_covers_cancellation(self):
        # the terms alternate and the sum cancels to ~1e-2 of their scale:
        # 8 eps |value| claimed 1.5e-17 against a true error of 2.2e-15
        res = evaluate(-0.8471437932331646, 0.3792152452093227,
                       -0.8288606893530732)
        assert res.method is Method.SERIES
        ref = 0.0086128891459196101275
        assert abs(res.value.real - ref) <= res.abs_err_estimate


class TestSpecialValue:
    def test_zeta_closed_forms(self):
        assert abs(special_value(0, 0.3, 1.0) - 0.2) <= 1e-15
        assert special_value(0, 0.3, 1.0).imag == 0.0
        assert abs(special_value(-1, 1.0, 1.0) - (-1.0 / 12.0)) <= 1e-15

    def test_phi_closed_forms(self):
        assert special_value(0, 0.7, -1.0) == pytest.approx(0.5, abs=1e-16)
        # boundary case (1-a)(1-z) = 1: exact cancellation
        assert special_value(-1, 0.5, -1.0) == 0.0
        got = special_value(-1, 0.25, 0.5j)
        want = 0.25 / (1.0 - 0.5j) + 0.5j / (1.0 - 0.5j) ** 2
        assert abs(got - want) <= 1e-16

    def test_bad_order(self):
        with pytest.raises(DomainError):
            special_value(1, 0.5, 1.0)


class TestHurwitzEM:
    def test_validated_against_series_at_large_sigma(self):
        # the EM oracle must agree with plain partial sums where those work
        for sigma in (2.0, 3.0, 4.0):
            em = hurwitz_em(sigma, 1.0)
            series = phi_series(sigma, 1.0, 1.0)
            assert abs(em.value.real - series.value.real) <= series.abs_err_estimate
        assert abs(hurwitz_em(2.0, 1.0).value.real - PI2_6) <= 1e-13

    def test_frozen_references(self):
        assert hurwitz_em(-0.5, 1.0).value.real == pytest.approx(ZETA_MHALF, abs=1e-13)
        assert hurwitz_em(0.5, 1.0).value.real == pytest.approx(ZETA_HALF, abs=1e-13)
        assert hurwitz_em(0.5, 0.5).value.real == pytest.approx(ZETA_HALF_HALF, abs=1e-13)
        assert hurwitz_em(2.0, 0.25).value.real == pytest.approx(
            17.197329154507111, abs=1e-12)

    def test_closed_form_at_zero(self):
        assert hurwitz_em(0.0, 0.25).value.real == pytest.approx(0.25, abs=1e-13)

    def test_shift_identity(self):
        # zeta(s,a) - zeta(s,a+1) = a^{-s}
        for sigma in (-0.7, -0.2, 0.4, 2.3):
            for a in (0.25, 0.6, 1.0):
                lhs = (hurwitz_em(sigma, a).value.real
                       - hurwitz_em(sigma, a + 1.0).value.real)
                assert abs(lhs - a ** (-sigma)) <= 1e-10

    def test_pole_residue(self):
        # (s-1) zeta(s,a) -> 1 as s -> 1+ (residue 1; the offset at distance
        # d from the pole is ~ d |psi(a)|)
        prev = math.inf
        for sigma, ceiling in ((1.1, 0.5), (1.01, 0.05), (1.001, 0.005)):
            val = (sigma - 1.0) * hurwitz_em(sigma, 0.4).value.real
            assert abs(val - 1.0) < min(prev, ceiling)
            prev = abs(val - 1.0)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            hurwitz_em(1.0, 0.5)


class TestHurwitzIntegrals:
    def test_pos_matches_em(self):
        assert phi_integral(0.5, 1.0, 1.0).value.real == pytest.approx(
            ZETA_HALF, abs=1e-11)
        got = phi_integral(0.5, 0.5, 1.0).value.real
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        assert got == pytest.approx((2 ** 0.5 - 1.0) * ZETA_HALF, abs=1e-11)
        assert got == pytest.approx(ZETA_HALF_HALF, abs=1e-11)
        assert phi_integral(0.5, 0.7, 1.0).value.real == pytest.approx(
            ZETA_HALF_07, abs=1e-11)
        # shift identity against the oracle: zeta(s,1) - zeta(s,2) = 1
        diff = (phi_integral(0.5, 1.0, 1.0).value.real
                - hurwitz_em(0.5, 2.0).value.real)
        assert diff == pytest.approx(1.0, abs=1e-10)

    def test_neg_matches_em(self):
        assert phi_integral(-0.5, 1.0, 1.0).value.real == pytest.approx(
            ZETA_MHALF, abs=1e-11)
        assert phi_integral(-0.5, 0.25, 1.0).value.real == pytest.approx(
            ZETA_MHALF_QUARTER, abs=1e-11)

    def test_neg_sign_on_lower_band(self):
        res = phi_integral(-0.5, 0.5, 1.0)
        assert res.value.real > 0.0
        assert res.value.real == pytest.approx(ZETA_MHALF_HALF, abs=1e-11)

    def test_extrapolation_to_closed_form(self):
        # zeta(sigma,a) -> -B_2(a)/2 as sigma -> -1+
        a = 0.3
        want = -0.5 * (a * a - a + 1.0 / 6.0)
        got = phi_integral(-0.999, a, 1.0).value.real
        assert abs(got - want) <= 5e-3
        got_closer = phi_integral(-0.9999, a, 1.0).value.real
        assert abs(got_closer - want) < abs(got - want)

    def test_oracle_agreement_sample(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            a = float(rng.uniform(0.05, 1.0))
            sigma = float(rng.uniform(0.02, 0.98))
            d1 = abs(phi_integral(sigma, a, 1.0).value.real
                     - hurwitz_em(sigma, a).value.real)
            d2 = abs(phi_integral(-sigma, a, 1.0).value.real
                     - hurwitz_em(-sigma, a).value.real)
            assert max(d1, d2) <= 1e-10

    def test_real_output(self):
        assert phi_integral(-0.5, 0.5, 1.0).value.imag == 0.0
        assert phi_integral(0.5, 0.5, 1.0).value.imag == 0.0

    def test_domains(self):
        with pytest.raises(DomainError):
            phi_integral(1.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            phi_integral(-0.5, 1.5, 1.0)


class TestPhiIntegrals:
    def test_pos_known_values(self):
        assert phi_integral(2.0, 1.0, -1.0 + 0j).value.real == pytest.approx(
            PI2_12, abs=1e-11)
        res = phi_integral(0.5, 0.3, 0.5 + 0j)
        assert res.value.real == pytest.approx(PHI_05_03_05, abs=1e-10)
        got = phi_integral(0.5, 0.3, 1j).value
        assert abs(got - PHI_05_03_I) <= 1e-10

    def test_neg_known_values(self):
        res = phi_integral(-0.5, 0.5, 0.5 + 0j)
        assert res.value.real == pytest.approx(PHI_M05_05_05, abs=1e-10)
        res = phi_integral(-0.5, 0.5, -1.0 + 0j)
        assert res.value.real == pytest.approx(PHI_M05_05_M1, abs=1e-10)
        assert res.value.real > 0.0      # (1-a)(1-z) = 1 boundary: positive
        res = phi_integral(-0.5, 0.1, -1.0 + 0j)
        assert res.value.real == pytest.approx(PHI_M05_01_M1, abs=1e-10)
        assert res.value.real < 0.0      # participates in a sign change

    def test_series_overlap_sample(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            a = float(rng.uniform(0.05, 1.0))
            radius = float(rng.uniform(0.1, 0.9))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            z = complex(radius * math.cos(theta), radius * math.sin(theta))
            if abs(1.0 - z) < 2e-3:
                continue
            sp = float(rng.uniform(0.05, 0.95))
            ref_p = phi_series(sp, a, z, tol=1e-13).value
            assert abs(phi_integral(sp, a, z).value - ref_p) <= 1e-10
            sn = -float(rng.uniform(0.05, 0.95))
            ref_n = phi_series(sn, a, z, tol=1e-13).value
            assert abs(phi_integral(sn, a, z).value - ref_n) <= 1e-10

    def test_conjugate_symmetry(self):
        for (s, a, z) in ((-0.5, 0.5, 1j), (0.5, 0.3, complex(0.2, 0.95)),
                          (-0.3, 0.8, complex(-0.6, 0.7))):
            v = phi_integral(s, a, z).value
            vc = phi_integral(s, a, z.conjugate()).value
            assert abs(vc - v.conjugate()) <= 1e-12

    def test_real_z_exactly_real(self):
        assert phi_integral(-0.5, 0.5, -1.0 + 0j).value.imag == 0.0
        assert phi_integral(0.5, 0.5, -1.0 + 0j).value.imag == 0.0

    def test_wrong_path_and_conditioning(self):
        with pytest.raises(ConditioningError):
            phi_integral(-0.5, 0.5, complex(1.0 - 1e-4, 0.0))

    @pytest.mark.filterwarnings("error")
    def test_outside_binary64_refused(self):
        # the quadrature overflows to inf (with a NaN estimate), and past
        # sigma ~ 171.6 Gamma(sigma) itself overflows; neither may warn
        with pytest.raises(DomainError):
            phi_integral(100.0, 0.01, -1.0)
        with pytest.raises(DomainError):
            phi_integral(200.0, 0.5, -1.0)


class TestDispatcher:
    def test_series_route(self):
        res = evaluate(2.0, 1.0, 1.0)
        assert res.method is Method.EULER_MACLAURIN
        assert abs(res.value.real - PI2_6) <= res.abs_err_estimate

    @pytest.mark.parametrize("sigma, ref", [
        (1.5, 6.5171275560280610475),
        (2.2, 9.7938612298006229783),
        (3.0, 20.26516349878869358),
    ])
    def test_zeta_above_one_meets_tol(self, sigma, ref):
        # every z = 1, sigma > 1 call takes Euler-Maclaurin; the 2e6-term
        # series missed tol = 1e-10 here by 1.4e-3 (1.5) and 2.3e-8 (2.2)
        tol = 1e-10
        res = evaluate(sigma, 0.37, 1.0)
        assert res.method is Method.EULER_MACLAURIN
        assert abs(res.value.real - ref) <= res.abs_err_estimate
        assert res.abs_err_estimate <= max(tol, tol * abs(ref))

    def test_zeta_at_extreme_sigma(self):
        # a^-sigma past the binary64 range is a typed refusal (the series
        # returned inf); far past the underflow of (N+a)^-sigma the
        # Euler-Maclaurin corrections vanish instead of turning into inf * 0
        with pytest.raises(DomainError):
            evaluate(400.0, 0.01, 1.0)
        res = evaluate(1e20, 1.0, 1.0)
        assert res.value == 1.0 and res.abs_err_estimate < 1e-14

    def test_special_value_routes(self):
        res = evaluate(0.0, 0.3, 1.0)
        assert res.method is Method.SPECIAL_VALUE
        assert res.value.real == pytest.approx(0.2, abs=1e-15)
        assert res.abs_err_estimate == 0.0
        res = evaluate(-1.0, 1.0, 1.0)
        assert res.value.real == pytest.approx(-1.0 / 12.0, abs=1e-15)

    def test_negative_band_value(self):
        # upper-band point: zeta(-1/2, 0.8) < 0
        res = evaluate(-0.5, 0.8, 1.0)
        assert res.method is Method.INTEGRAL_NEG
        assert res.value.real < 0.0

    def test_case3_imaginary_part(self):
        res = evaluate(-0.5, 0.5, 1j)
        assert res.method is Method.INTEGRAL_UNIT
        assert abs(res.value - PHI_M05_05_I) <= 1e-10
        assert res.value.imag != 0.0

    def test_geometric_series_route(self):
        res = evaluate(-0.5, 0.5, 0.5)
        assert res.method is Method.SERIES
        assert abs(res.value.real - PHI_M05_05_05) <= 1e-9

    def test_near_pole_unit_circle_reroutes(self):
        res = evaluate(1.2, 0.7, 1.0)
        assert res.method is Method.EULER_MACLAURIN
        res = evaluate(1.2, 0.7, -1.0)
        assert res.method is Method.INTEGRAL_UNIT

    def test_pole_and_range_errors(self):
        with pytest.raises(PoleError):
            evaluate(1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            evaluate(-1.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            evaluate(0.5, 0.5, 0.0)

    def test_config_validation(self):
        # tol is the one accuracy input; every route that takes it refuses
        # a tol that is not positive
        for tol in (0.0, -1e-9, math.nan):
            for call in (lambda: evaluate(-0.5, 0.5, 1.0, tol),
                         lambda: evaluate(0.0, 0.5, 1.0, tol),
                         lambda: phi_series(2.0, 0.5, 0.5, tol),
                         lambda: phi_integral(0.5, 0.5, 1.0, tol),
                         lambda: phi_integral(-0.5, 0.5, 1.0, tol),
                         lambda: phi_integral(0.5, 0.5, -1.0, tol),
                         lambda: phi_integral(-0.5, 0.5, -1.0, tol),
                         lambda: scan_zeros(0.5, 1.0, tol=tol),
                         lambda: check_case3(0.5, 1.0, 1.0, tol=tol)):
                with pytest.raises(DomainError):
                    call()

    @pytest.mark.parametrize("sigma, z", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (math.nan, 0.5), (math.inf, 0.5), (math.inf, 1j),
        (-0.5, complex(math.nan)), (0.5, complex(math.nan, 0.5)),
        (-0.5, complex(math.inf)), (0.5, complex(0.5, -math.inf)),
    ])
    def test_non_finite_input_rejected(self, sigma, z):
        with pytest.raises(DomainError):
            evaluate(sigma, 0.5, z)

    @pytest.mark.parametrize("route, args", [
        (phi_series, (math.nan, 0.5, -1.0)), (phi_series, (math.inf, 0.5, -1.0)),
        (hurwitz_em, (math.nan, 0.5)), (hurwitz_em, (math.inf, 0.5)),
        (hurwitz_em, (2.0, math.inf)),
    ], ids=["series_nan", "series_inf", "em_nan", "em_inf", "em_a_inf"])
    def test_non_finite_input_rejected_direct(self, route, args):
        # these returned nan, inf or 0 instead of refusing
        with pytest.raises(DomainError):
            route(*args)


_CHI4 = builtin_characters(4)[1]


@pytest.mark.parametrize("route", [
    lambda: evaluate(0.0, 0.3, 1j),
    lambda: phi_series(2.0, 0.3, 1j),
    lambda: phi_series(-0.5, 0.3, 0.5),
    lambda: hurwitz_em(-0.5, 0.3),
    lambda: phi_integral(0.5, 0.3, 1.0),
    lambda: phi_integral(-0.5, 0.3, 1.0),
    lambda: phi_integral(0.5, 0.3, 1j),
    lambda: phi_integral(0.5, 0.3, -1.0),
    lambda: phi_integral(-0.5, 0.3, 1j),
    lambda: phi_integral(-0.5, 0.3, 0.5),
    lambda: zeta_fe_rhs(-0.5, 0.3),
    lambda: phi_fe_rhs(-0.5, 0.3, 1j),
    lambda: dirichlet_L(-0.5, _CHI4),
    lambda: lerch_from_hurwitz(2.5, 1, 4),
], ids=["special", "series_unit", "series_disk", "em", "hurwitz_pos",
        "hurwitz_neg", "phi_pos_unit", "phi_pos_real", "phi_neg_unit",
        "phi_neg_real", "zeta_fe", "phi_fe", "dirichlet_L", "lerch_from_hurwitz"])
def test_results_hold_plain_python_scalars(route):
    r = route()
    assert type(r.value) is complex
    assert type(r.abs_err_estimate) is float
