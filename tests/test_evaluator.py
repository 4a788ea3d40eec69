"""Evaluator tests: series, closed forms, Euler-Maclaurin oracle, integral
representations and the dispatcher.  Frozen references come from 50-digit
mpmath runs (zeta/lerchphi); classical constants are written as formulas.
"""
import cmath
import functools
import importlib
import math
import time

import numpy as np
import pytest

from lerchzeta import (ConditioningError, DomainError, LerchZetaError,
                       Method, PoleError, SeriesDivergenceError, builtin_characters, check_case3,
                       dirichlet_L, evaluate, hurwitz_em, lerch_from_hurwitz,
                       phi_fe_rhs, phi_integral, phi_series, scan_zeros,
                       special_value, zeta_fe_rhs)

_EVALUATE = importlib.import_module("lerchzeta.evaluate")   # the module
_QUADRATURE = importlib.import_module("lerchzeta.quadrature")
# the process-wide caches of node tables, prefix exponentials and sigma terms
_CACHES = (_QUADRATURE._ts_table, _QUADRATURE._es_table,
           _EVALUATE._prefix_exp, _EVALUATE._sigma_table)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()

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
        res = phi_series(2.0, 1.0, 1.0, tol=1e-5)
        assert res.method is Method.SERIES
        # plain truncation: the honest estimate is the integral tail bound
        assert abs(res.value.real - PI2_6) <= res.abs_err_estimate
        assert res.abs_err_estimate <= 1e-5

    def test_eta_two(self):
        # alternating series: true error is below the first omitted term
        res = phi_series(2.0, 1.0, -1.0, tol=1e-6)
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

    def test_cap_short_of_tol_raises(self):
        # the 2e6-term cap leaves the integral tail bound at 1.4e-3; this
        # returned that claim against tol = 1e-10 instead of refusing
        with pytest.raises(SeriesDivergenceError, match="tail bound 1.41e-03"):
            phi_series(1.5, 0.3, -1.0)

    def test_cap_refusal_sums_nothing(self):
        # for sigma > 1 the tail bound at the term cap is known up front, so
        # a refusal costs no summation (2 M terms take 0.3-0.7 s)
        start = time.process_time()
        with pytest.raises(SeriesDivergenceError, match="after 2000896 terms"):
            phi_series(1.5, 0.3, cmath.exp(1e-4j))
        assert time.process_time() - start < 0.05

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
            series = phi_series(sigma, 1.0, 1.0, tol=1e-6)
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

    @pytest.mark.filterwarnings("error")
    def test_far_exp_sinh_nodes_past_sigma_11(self):
        # the exp-sinh nodes reach x ~ e^{70.7}: from sigma = 11 on,
        # x^{sigma-1} overflows there while K underflows, and the level sums
        # apply x^{sigma-1} to K as three powers in turn; the route agrees
        # with the series on both sides of that switch and far past it
        for a, z in ((1.0, 0.95), (0.01, -1.0), (0.3, 1j), (1.0, -0.6)):
            for sigma in (10.99, 11.0, 40.0) + ((150.0,) if a == 1.0 else ()):
                res = phi_integral(sigma, a, z)
                ref = phi_series(sigma, a, z, tol=1e-16 * a ** -sigma)
                assert abs(res.value - ref.value) <= (
                    res.abs_err_estimate + ref.abs_err_estimate), (a, z, sigma)
                assert res.abs_err_estimate <= 1e-13 * abs(res.value)


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

    @pytest.mark.parametrize("sigma, z, ref", [
        (1.6, cmath.exp(1j),
         complex(6.9690070593155410401, 0.70530879350914680343)),
        (2.0, -1.0, 10.649637352132546512),
        (1.5, -0.9999999, 5.5965319276165248423),
    ], ids=["unit_circle", "minus_one", "inside_circle"])
    def test_annulus_below_sigma_four_meets_tol(self, sigma, z, ref):
        # the series stopped at its term cap here and claimed 2.8e-4, 5e-7
        # and 2.9e-3 against tol = 1e-10
        tol = 1e-10
        res = evaluate(sigma, 0.3, z, tol)
        assert res.method in (Method.INTEGRAL_POS, Method.INTEGRAL_UNIT)
        assert abs(res.value - ref) <= res.abs_err_estimate
        assert res.abs_err_estimate <= max(tol, tol * abs(ref))

    def test_near_one_series_clause(self):
        # |1 - z| < 1e-3 with sigma >= 1.5 stays on the series, which the
        # integral refuses there; on the circle the cap cannot meet tol
        res = evaluate(2.0, 0.5, 0.9995)
        assert res.method is Method.SERIES
        ref = 4.9310403926066042122
        assert abs(res.value.real - ref) <= res.abs_err_estimate
        with pytest.raises(SeriesDivergenceError):
            evaluate(1.5, 0.3, cmath.exp(1e-4j))

    def test_pole_and_range_errors(self):
        with pytest.raises(PoleError):
            evaluate(1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            evaluate(-1.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            evaluate(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("sigma, a, z, tol", [
        (-0.5, 0.3, 1.0, 1e-20), (-0.5, 0.3, 0.5, 1e-25), (2.5, 0.3, 1.0, 1e-22),
    ], ids=["integral", "series", "euler_maclaurin"])
    def test_estimate_above_tol_refused(self, sigma, a, z, tol):
        # evaluate and the batch meet max(tol, tol |value|) or raise; the
        # direct routes keep returning their estimates
        with pytest.raises(ConditioningError):
            evaluate(sigma, a, z, tol)
        with pytest.raises(ConditioningError):
            _EVALUATE._Cell(a, z, tol).batch([sigma])
        route = hurwitz_em(sigma, a) if sigma > 1.0 else (
            phi_integral(sigma, a, z, tol) if z == 1 else phi_series(sigma, a, z, tol))
        assert route.abs_err_estimate > tol * max(1.0, abs(route.value))

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


def _hex(call):
    """(value, abs_err_estimate, method) in hex, or the error's type and
    message."""
    try:
        r = call()
    except LerchZetaError as exc:
        return type(exc), str(exc)
    return (r.value.real.hex(), r.value.imag.hex(), r.abs_err_estimate.hex(),
            r.method)


def _batch_hex(batch):
    """(value, estimate) of each sigma of a batch, in hex."""
    values, estimates = batch
    return [(v.real.hex(), v.imag.hex(), e.hex())
            for v, e in zip(values.tolist(), estimates.tolist())]


class TestCellReuse:
    @pytest.mark.parametrize("z, a", [
        (1.0, 0.1), (-1.0, 0.37), (0.95, 0.62), (0.5, 0.9), (-0.3, 0.05),
        (cmath.exp(1j), 0.43),
    ], ids=["one", "minus_one", "z0.95", "z0.5", "z-0.3", "unit"])
    def test_reuse_matches_fresh_calls_bit_for_bit(self, z, a):
        # one object across a seeded sigma sequence that alternates signs,
        # so kernel levels are built by one call and reused out of order by
        # the next, against a fresh evaluate per sigma; the tail of the list
        # covers the closed forms, the pole and refusals
        rng = np.random.default_rng(2026)
        sigmas = []
        for neg, pos in zip(rng.uniform(-1.0, 0.0, 20), rng.uniform(0.0, 4.5, 20)):
            sigmas += [float(neg), float(pos)]
        sigmas += [-1e-9, 1e-9, 0.0, -1.0, 1.0, -1.5, math.nan, 171.7]
        for tol in (1e-10, 1e-6):
            cell = _EVALUATE._Cell(a, z, tol)
            for sigma in sigmas:
                assert _hex(lambda: cell(sigma)) == _hex(
                    lambda: evaluate(sigma, a, z, tol)), (sigma, tol)

    @pytest.mark.parametrize("z, a", [
        (1.0, 0.1), (-1.0, 0.37), (0.95, 0.62), (0.5, 0.9), (-0.3, 0.05),
        (cmath.exp(1j), 0.43),
    ], ids=["one", "minus_one", "z0.95", "z0.5", "z-0.3", "unit"])
    def test_batch_agrees_with_scalar_calls(self, z, a):
        # the vector pass against one scalar call per sigma, next to both
        # ends of (-1, 0) included; the closed forms and a refusal outside
        # (-1, 0) go through the scalar call unchanged
        rng = np.random.default_rng(12)
        sigmas = np.concatenate([[-1.0 + 1e-9, -1e-9],
                                 rng.uniform(-1.0, 0.0, 30)])
        for tol in (1e-10, 1e-6):
            cell = _EVALUATE._Cell(a, z, tol)
            values, estimates = cell.batch(sigmas)
            assert values.dtype == complex and estimates.dtype == float
            assert values.shape == estimates.shape == sigmas.shape
            for sigma, value, est in zip(sigmas.tolist(), values.tolist(),
                                         estimates.tolist()):
                ref = evaluate(sigma, a, z, tol)
                assert abs(value - ref.value) <= est + ref.abs_err_estimate, (sigma, tol)
                # batch sends (-1, 0) down one route, picked at sigma = -0.5
                assert cell._takes_series(-0.5) == (ref.method is Method.SERIES), sigma
                if isinstance(z, float):
                    assert value.imag == 0.0
            assert _batch_hex(cell.batch([0.0, -1.0])) == [
                _hex(lambda: evaluate(s, a, z, tol))[:3] for s in (0.0, -1.0)]
            with pytest.raises(DomainError):
                cell.batch([-0.5, -1.5])

    @pytest.mark.parametrize("z", [1.0, -1.0, 0.95, 0.5, cmath.exp(1j),
                                   complex(0.6, 0.7)],
                             ids=["one", "minus_one", "z0.95", "z0.5", "unit",
                                  "z0.6+0.7i"])
    def test_batch_built_levels_give_scalar_bits(self, z):
        # a batch builds the prefix levels of each rule (tanh-sinh 0-4,
        # exp-sinh 0-5) in one kernel call on their joined nodes, a fresh
        # scalar call one level at a time: the scalar calls that then find
        # the batch's levels give a fresh call's bits
        rng = np.random.default_rng(20)
        for a in (0.1, 0.37, 0.62, 0.9):
            cell = _EVALUATE._Cell(a, z, 1e-10)
            cell.batch(np.linspace(-0.95, -0.05, 15))
            sigmas = np.concatenate([rng.uniform(-1.0, 0.0, 14),
                                     rng.uniform(0.0, 1.0, 14)])
            for sigma in sigmas.tolist():
                assert _hex(lambda: cell(sigma)) == _hex(
                    lambda: evaluate(sigma, a, z)), (a, sigma)

    @pytest.mark.parametrize("z", [1.0, -1.0, cmath.exp(1j)],
                             ids=["one", "minus_one", "unit"])
    def test_later_batch_matches_fresh_batch_bit_for_bit(self, z):
        # a batch on an object that already keeps levels, from an earlier
        # batch or built one at a time by scalar calls, sums the levels it
        # asks for and no others: it gives the bits of a fresh object's batch
        first, later = np.linspace(-0.95, -0.05, 15), np.linspace(-0.9, -0.1, 9)
        for a in (0.1, 0.43):
            fresh = _batch_hex(_EVALUATE._Cell(a, z, 1e-10).batch(later))
            after_batch = _EVALUATE._Cell(a, z, 1e-10)
            after_batch.batch(first)
            after_scalar = _EVALUATE._Cell(a, z, 1e-10)
            for sigma in (-0.3, 0.4, -0.8):
                after_scalar(sigma)
            for cell in (after_batch, after_scalar):
                assert min(len(rule.kept) for rule in cell._rules) >= 4
                assert _batch_hex(cell.batch(later)) == fresh, a

    @pytest.mark.parametrize("z, a", [(1.0, 0.1), (-1.0, 0.37), (cmath.exp(1j), 0.43)],
                             ids=["one", "minus_one", "unit"])
    def test_one_table_per_level_for_both_signs(self, monkeypatch, z, a):
        # sigma < 0 then sigma > 0 on one object: both sample the one kernel
        # on [delta, 1], so each tanh-sinh level is built once
        fresh = [_hex(lambda: evaluate(sigma, a, z)) for sigma in (-0.5, 0.5)]
        built = []
        _ts_table = _EVALUATE._ts_table

        def counted(lo, hi, level):
            built.append(level)
            return _ts_table(lo, hi, level)

        monkeypatch.setattr(_EVALUATE, "_ts_table", counted)
        cell = _EVALUATE._Cell(a, z, 1e-10)
        assert [_hex(lambda: cell(sigma)) for sigma in (-0.5, 0.5)] == fresh
        assert built and sorted(built) == sorted(set(built))

    @pytest.mark.parametrize("z", [1.0, -1.0, 0.95, cmath.exp(1j)],
                             ids=["one", "minus_one", "z0.95", "unit"])
    def test_batch_bits_do_not_depend_on_the_caches(self, z):
        # the node tables, the prefix matrices of exponentials and the
        # sigma-only terms are kept process-wide and filled by the same
        # expressions, so a batch has the same bits with the caches cleared
        # and warm
        runs = [(a, sigmas) for a in (0.1, 0.62)
                for sigmas in (np.linspace(-0.95, -0.05, 15),
                               np.linspace(-0.9, -0.1, 9),
                               np.linspace(-0.97, -0.03, 15))]

        def batch(a, sigmas):
            return _batch_hex(_EVALUATE._Cell(a, z, 1e-10).batch(sigmas))

        cold = []
        for a, sigmas in runs:
            _clear_caches()
            cold.append(batch(a, sigmas))
        for _ in range(2):
            assert [batch(a, sigmas) for a, sigmas in runs] == cold

    def test_caches_stay_within_their_bounds(self):
        # cells at 100 distinct delta = 0.35 |log z| each put new tanh-sinh
        # tables and prefix matrices in the caches; none grows past its
        # bound, and the exp-sinh matrix of their sigma is built once for all
        sigmas = np.linspace(-0.95, -0.05, 15)
        _clear_caches()
        _EVALUATE._prefix_exp(("es",), sigmas.tobytes())
        es_misses = _EVALUATE._prefix_exp.cache_info().misses
        for theta in np.linspace(0.05, 0.7, 100).tolist():
            cell = _EVALUATE._Cell(0.3, cmath.exp(1j * theta), 1e-10)
            cell.batch(sigmas)
            cell(0.5)
        for cache in _CACHES:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize, cache
        assert _QUADRATURE._ts_table.cache_info().currsize == _QUADRATURE._TABLES
        assert _EVALUATE._prefix_exp.cache_info().currsize == _EVALUATE._MEMO
        # one tanh-sinh miss per cell: the exp-sinh matrix stays in the cache
        assert _EVALUATE._prefix_exp.cache_info().misses - es_misses == 100

    def test_cached_arrays_are_read_only(self):
        sigmas = np.linspace(-0.95, -0.05, 15)
        arrays = [*_QUADRATURE._ts_level_nodes(3), *_QUADRATURE._es_level_nodes(3),
                  *_QUADRATURE._ts_table(0.25, 1.0, 3), *_QUADRATURE._es_table(1.0, 3),
                  *_EVALUATE._prefix_exp(("ts", 0.25), sigmas.tobytes()),
                  *_EVALUATE._prefix_exp(("es",), sigmas.tobytes()),
                  *_EVALUATE._sigma_table(sigmas.tobytes(), 0.25, 30)]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("z", [1.0, -1.0, cmath.exp(1j)],
                             ids=["one", "minus_one", "unit"])
    def test_columns_continue_past_the_prefix(self, z):
        # at tol = 1e-13 the exp-sinh columns of small a run past the prefix
        # (levels 0-5): every column of both rules stops at the level of the
        # scalar level loop and of a batch of its sigma alone, with the
        # value of the latter within 4 ulps, and the batch agrees with the
        # scalar calls within their estimates
        tol, sigmas = 1e-13, np.linspace(-0.95, -0.05, 15)
        past = 0
        for a in (0.05, 0.1, 0.62):
            cell = _EVALUATE._Cell(a, z, tol)
            scales = (0.5 * (1.0 - cell._head[1]), 1.0)
            both = cell._columns(sigmas, scales, 0.25 * tol)
            alones = [cell._columns(sigmas[i:i + 1], scales, 0.25 * tol)
                      for i in range(sigmas.size)]
            for r, (rule, scale, res) in enumerate(zip(cell._rules, scales, both)):
                for i, sigma in enumerate(sigmas.tolist()):
                    alone = alones[i][r]
                    scalar = _QUADRATURE._refine(
                        functools.partial(rule.sum, sigma), scale, 0.25 * tol,
                        _EVALUATE._MAX_LEVELS)
                    assert res.levels[i] == alone.levels[0] == scalar.levels, (a, sigma)
                    assert (abs(res.value[i] - alone.value[0])
                            <= 4.0 * np.spacing(abs(alone.value[0]))), (a, sigma)
                past += np.count_nonzero(res.levels >= _EVALUATE._PREFIX[rule.key[0]])
            values, estimates = cell.batch(sigmas)
            for sigma, value, est in zip(sigmas.tolist(), values.tolist(),
                                         estimates.tolist()):
                ref = evaluate(sigma, a, z, tol)
                assert abs(value - ref.value) <= est + ref.abs_err_estimate, (a, sigma)
        assert past >= 10

    def test_batch_refuses_where_scalar_refuses(self):
        cell = _EVALUATE._Cell(0.3, 0.9995, 1e-10)
        with pytest.raises(ConditioningError):
            cell(-0.5)
        with pytest.raises(ConditioningError):
            cell.batch([-0.9, -0.5, -0.1])


_CHI4 = builtin_characters(4)[1]


@pytest.mark.parametrize("route", [
    lambda: evaluate(0.0, 0.3, 1j),
    lambda: phi_series(2.0, 0.3, 1j, tol=1e-5),
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
