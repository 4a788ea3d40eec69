"""Region classifier and real-zero scanner tests."""
import importlib
import math
from collections import Counter

import numpy as np
import pytest

from lerchzeta import (B2_ROOT_LOWER, B2_ROOT_UPPER, DomainError,
                       Region, SignConstancyError, WrongPathError, check_case3,
                       classify, evaluate, run_suite, scan_zeros)

FAST = 1e-8


class TestClassify:
    def test_case1_bands(self):
        assert classify(0.5, 1.0).tag is Region.CASE_I
        assert classify(0.3, 1.0).tag is Region.CASE_I      # inside [b-, 1/2]
        assert classify(0.9, 1.0).tag is Region.CASE_I
        assert classify(0.6, 1.0).tag is Region.ZERO_EXISTS  # between bands
        assert classify(0.1, 1.0).tag is Region.ZERO_EXISTS  # below b-

    def test_case1_boundaries_included(self):
        for a in (B2_ROOT_LOWER, 0.5, B2_ROOT_UPPER, 1.0):
            assert classify(a, 1.0).tag is Region.CASE_I

    def test_case2(self):
        v = classify(0.3, -1.0)
        assert v.tag is Region.ZERO_EXISTS      # (1-z)(1-a) = 1.4 > 1
        assert classify(0.5, -1.0).tag is Region.CASE_II   # product exactly 1
        assert classify(0.75, -1.0).tag is Region.CASE_II
        assert classify(0.1, 0.5).tag is Region.CASE_II    # 0.5*0.9 <= 1

    def test_case3(self):
        assert classify(0.2, 1j).tag is Region.CASE_III
        assert classify(1.0, complex(0.1, -0.05)).tag is Region.CASE_III

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify(0.5, 0.0)
        with pytest.raises(DomainError):
            classify(0.5, 1.5)
        with pytest.raises(DomainError):
            classify(0.5, complex(1.2, 0.3))
        with pytest.raises(DomainError):
            classify(1.2, 1.0)


class TestScanZeros:
    def test_zero_exists_below_lower_root(self):
        # endpoint anchors: value 0.3 > 0 at sigma = 0, -B_2(0.2)/2 < 0 at -1
        rep = scan_zeros(0.2, 1.0, tol=FAST)
        assert rep.value_at_zero == pytest.approx(0.3, abs=1e-15)
        assert rep.value_at_neg_one == pytest.approx(-1.0 / 300.0, abs=1e-15)
        assert rep.n_brackets >= 1
        assert len(rep.roots) == rep.n_brackets

    def test_no_zero_on_lower_band(self):
        rep = scan_zeros(0.5, 1.0, tol=FAST)
        assert rep.n_brackets == 0
        assert rep.roots == ()

    def test_zero_for_z_minus_one_small_a(self):
        rep = scan_zeros(0.1, -1.0, tol=FAST)
        assert rep.n_brackets >= 1
        for root, (lo, hi), res in zip(rep.roots, rep.brackets, rep.residuals):
            assert lo <= root <= hi
            assert -1.0 < root < 0.0
            assert res <= max(1e-8, 10.0 * FAST)

    def test_boundary_case_endpoint_zero_no_interior_bracket(self):
        # (1-z)(1-a) = 1 exactly: Phi(-1, 1/2, -1) = 0 but no interior zero
        rep = scan_zeros(0.5, -1.0, tol=FAST)
        assert rep.value_at_neg_one == 0.0
        assert rep.n_brackets == 0

    def test_series_cell(self):
        rep = scan_zeros(0.3, 0.5, tol=FAST)
        assert rep.n_brackets == 0      # (1-0.5)(1-0.3) = 0.35 <= 1

    def test_agrees_with_classifier_spot(self):
        for a, z in ((0.15, 1.0), (0.45, 1.0), (0.65, 1.0), (0.85, 1.0),
                     (0.3, -1.0), (0.7, -1.0), (0.4, -0.5), (0.9, 0.9)):
            verdict = classify(a, z)
            rep = scan_zeros(a, z, tol=FAST)
            if verdict.tag is Region.ZERO_EXISTS:
                assert rep.n_brackets >= 1, (a, z)
            else:
                assert rep.n_brackets == 0, (a, z)

    def test_root_location_is_a_sign_change(self):
        rep = scan_zeros(0.1, -1.0, tol=FAST)
        root = rep.roots[0]
        left = evaluate(root - 1e-4, 0.1, -1.0, FAST).value.real
        right = evaluate(root + 1e-4, 0.1, -1.0, FAST).value.real
        assert left * right < 0.0

    def test_coefficients_built_once_per_cell(self, monkeypatch):
        # one per-(a, z) object per cell: the head table once, and at z = 1
        # one more h_series_coeffs per tanh-sinh level that kernel_G samples
        evaluate_mod = importlib.import_module("lerchzeta.evaluate")
        kernels = importlib.import_module("lerchzeta.kernels")
        calls = Counter()
        for name in ("h_series_coeffs", "gz_taylor_coeffs"):
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            for mod in (evaluate_mod, kernels):
                monkeypatch.setattr(mod, name, counted)
        # and the node mapping of each quadrature level once per cell, where
        # a rebuild per sigma would reach every level once per grid point
        quadrature = importlib.import_module("lerchzeta.quadrature")
        levels = {name: Counter() for name in ("_ts_level_nodes", "_es_level_nodes")}
        for name, seen in levels.items():
            def counted_level(level, _fn=getattr(quadrature, name), _seen=seen):
                _seen[level] += 1
                return _fn(level)
            for mod in (evaluate_mod, quadrature):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted_level)
        scan_zeros(0.1, 1.0)
        assert 1 <= calls["h_series_coeffs"] <= 1 + evaluate_mod._MAX_LEVELS + 1
        assert calls["gz_taylor_coeffs"] == 0
        # one tanh-sinh table per (sign of sigma, level), one exp-sinh table
        # per level
        for name, per_level in (("_ts_level_nodes", 2), ("_es_level_nodes", 1)):
            seen = levels[name]
            assert sorted(seen) == list(range(len(seen))) != [], seen
            assert max(seen.values()) <= per_level, seen
        calls.clear()
        scan_zeros(0.1, -1.0)
        assert calls == Counter(gz_taylor_coeffs=1)

    def test_domain_errors(self):
        with pytest.raises(WrongPathError):
            scan_zeros(0.5, 1j)
        with pytest.raises(DomainError):
            scan_zeros(0.5, 0.0)

    def test_classifier_scan_agreement_series_cells(self):
        # full a sweep for the |z| < 1 columns of the agreement grid (the
        # z = 1, -1 columns are the acceptance census); boundary cells where
        # (1-z)(1-a) = 1 sits within 0.01 are excluded as ill-conditioned
        for z in (-0.5, 0.5, 0.9):
            boundary = 1.0 - 1.0 / (1.0 - z) if z < 0 else None
            for k in range(1, 101):
                a = round(0.01 * k, 2)
                if boundary is not None and abs(a - boundary) <= 0.0101:
                    continue
                verdict = classify(a, z)
                rep = scan_zeros(a, z, tol=FAST)
                expect = verdict.tag is Region.ZERO_EXISTS
                assert (rep.n_brackets >= 1) == expect, (a, z, verdict)


class TestCase3:
    def test_quarter_turn(self):
        m = check_case3(0.5, 1.0, math.pi / 2, tol=FAST)
        assert m > 0.0

    def test_lower_half_plane(self):
        m = check_case3(1.0, 0.5, 4.0 * math.pi / 3.0, tol=FAST)
        assert m > 0.0

    def test_conjugate_thetas_negate_imaginary_part(self):
        theta = 2.0
        z = complex(math.cos(theta), math.sin(theta))
        for sig in (-0.7, -0.3):
            v = evaluate(sig, 0.4, z, FAST).value
            vc = evaluate(sig, 0.4, z.conjugate(), FAST).value
            assert vc.imag == pytest.approx(-v.imag, rel=1e-9, abs=1e-12)

    def test_real_theta_rejected(self):
        with pytest.raises(DomainError):
            check_case3(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            check_case3(0.5, 1.0, math.pi)


@pytest.fixture(scope="module")
def sign_checks():
    # the "signs" suite: one check per band (sign kept above the error
    # estimate on a 10x10 grid) and one for both signs between the bands
    results = run_suite("signs")
    assert len(results) == 3
    return results


def _band_check(results, band):
    (r,) = [r for r in results if f"{band} band" in r.name]
    return r


class TestSignConstancy:
    def test_lower_band(self, sign_checks):
        r = _band_check(sign_checks, "lower")
        assert r.passed, r.line()

    def test_upper_band(self, sign_checks):
        r = _band_check(sign_checks, "upper")
        assert r.passed, r.line()

    def test_band_between_shows_both_signs(self):
        # a = 0.6 sits between the bands: zeta(0, a) < 0 while
        # zeta(-1, a) = -B_2(a)/2 > 0, so the sign flips across (-1,0)
        a = 0.6
        assert 0.5 - a < 0.0
        assert -0.5 * (a * a - a + 1.0 / 6.0) > 0.0
        vals = [evaluate(s, a, 1.0, FAST).value.real
                for s in np.linspace(-0.95, -0.05, 10)]
        vals += [0.5 - a, -0.5 * (a * a - a + 1.0 / 6.0)]
        assert min(vals) < 0.0 < max(vals)
