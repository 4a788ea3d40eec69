"""Region classifier and real-zero scanner tests."""
import importlib
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from lerchzeta import (B2_ROOT_LOWER, B2_ROOT_UPPER, DomainError,
                       Region, SignConstancyError, WrongPathError, check_case3,
                       classify, evaluate, run_suite, scan_zeros)
from lerchzeta.evaluate import _Cell, special_value

FAST = 1e-8
zeros_mod = importlib.import_module("lerchzeta.zeros")


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
        # real z below -1, which scan_zeros refuses too
        for z in (-1.0000000000001, -1.5):
            with pytest.raises(DomainError):
                classify(0.3, z)
            with pytest.raises(DomainError):
                scan_zeros(0.3, z)


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
        # one more h_series_coeffs per kernel_G call, which samples the
        # tanh-sinh prefix, levels 0-4, in one call and each deeper level in
        # its own
        evaluate_mod = importlib.import_module("lerchzeta.evaluate")
        kernels = importlib.import_module("lerchzeta.kernels")
        calls = Counter()
        for name in ("h_series_coeffs", "gz_taylor_coeffs", "_gz_near"):
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            for mod in (evaluate_mod, kernels):
                monkeypatch.setattr(mod, name, counted)
        # and the node mapping of each quadrature level once per process and
        # interval, not once per cell or per sigma: the node tables are kept
        # process-wide, so a cell maps the nodes of a level only when no
        # earlier cell has
        quadrature = importlib.import_module("lerchzeta.quadrature")
        levels = {name: Counter() for name in ("_ts_level_nodes", "_es_level_nodes")}
        for name, seen in levels.items():
            def counted_level(level, _fn=getattr(quadrature, name), _seen=seen):
                _seen[level] += 1
                return _fn(level)
            monkeypatch.setattr(quadrature, name, counted_level)

        def past_prefix():   # tanh-sinh levels sampled one by one
            return max(levels["_ts_level_nodes"]) - 4

        for z, expected in (
                (1.0, lambda past: Counter(h_series_coeffs=1 + 1 + past)),
                (-1.0, lambda past: Counter(gz_taylor_coeffs=1, _gz_near=1 + past))):
            quadrature._ts_table.cache_clear()
            quadrature._es_table.cache_clear()
            calls.clear()
            for seen in levels.values():
                seen.clear()
            scan_zeros(0.1, z)
            past = past_prefix()
            assert past >= 0
            assert calls == expected(past)
            # one tanh-sinh table and one exp-sinh table per level
            for name in levels:
                seen = levels[name]
                assert sorted(seen) == list(range(len(seen))) != [], seen
                assert max(seen.values()) == 1, seen
            # the same cell again samples its kernel as often and maps no node
            calls.clear()
            for seen in levels.values():
                seen.clear()
            scan_zeros(0.1, z)
            assert calls == expected(past)
            assert not any(levels.values()), levels

    def test_call_budget(self, monkeypatch):
        # the proxy's nodes take at most two vector calls (degree 16, then
        # 32 if its coefficients ask); each root takes two scalar calls, at
        # the proxy's crossing and tol/2 from it, when those bracket it
        cell_cls = importlib.import_module("lerchzeta.evaluate")._Cell
        calls = Counter()
        for name in ("__call__", "batch"):
            def counted(self, sigma, _fn=getattr(cell_cls, name), _name=name):
                calls[_name] += 1
                return _fn(self, sigma)
            monkeypatch.setattr(cell_cls, name, counted)
        for a, z in ((0.1, 1.0), (0.1, -1.0), (0.6, 1.0), (0.02, -0.7),
                     (0.3, 0.5)):
            calls.clear()
            rep = scan_zeros(a, z, tol=1e-10)
            assert 1 <= calls["batch"] <= 2, (a, z, calls)
            assert calls["__call__"] == 2 * len(rep.roots), (a, z, calls)
            for root, (lo, hi) in zip(rep.roots, rep.brackets):
                assert root in (lo, hi) and hi - lo < 1e-10, (a, z, lo, hi)
        # 1e-4 below boundary [II] the root sits at sigma = -0.9998 where
        # |Phi'| is about 0.3 against error estimates of 7.5e-11: the proxy's
        # crossing is more than tol/2 from Phi's root, and the polish falls
        # back to the widened bracket and bisection
        calls.clear()
        rep = scan_zeros(1.0 / 3.0 - 1e-4, -0.5, tol=1e-10)
        assert len(rep.roots) == 1
        assert 2 < calls["__call__"] <= 12, calls

    def test_fallback_starts_beyond_the_first_pair(self, monkeypatch):
        # 1e-4 below boundary [II] Phi(r) and Phi(r +- tol/2) keep one sign,
        # which puts the root beyond r +- tol/2: the widened bracket starts
        # there, so the root takes fewer scalar calls than the 10 of a
        # bracket about r, and the evaluated points next to it on either
        # side still differ in sign less than tol apart
        cell_cls = importlib.import_module("lerchzeta.evaluate")._Cell
        values = []

        def counted(self, sigma, _fn=cell_cls.__call__):
            res = _fn(self, sigma)
            values.append((sigma, res.value.real))
            return res

        monkeypatch.setattr(cell_cls, "__call__", counted)
        tol = 1e-10
        rep = scan_zeros(1.0 / 3.0 - 1e-4, -0.5, tol=tol)
        assert len(rep.roots) == 1 and 2 < len(values) < 10, values
        root, seen = rep.roots[0], dict(values)
        lo = max(sigma for sigma in seen if sigma < root)
        hi = min(sigma for sigma in seen if sigma > root)
        assert hi - lo < tol and seen[lo] * seen[hi] < 0.0, (lo, hi)
        assert rep.brackets[0][0] <= lo < hi <= rep.brackets[0][1]

    def test_falls_back_when_first_bracket_misses(self, monkeypatch):
        # the vector values are 1e-6 sin(pi sigma) off the scalar ones,
        # inside their error estimate: the proxy's crossing then sits about
        # 1.5e-6 left of Phi's root, no sign change lies within tol/2 of it,
        # and the root comes from the widened bracket, bisected
        r0 = -0.41237

        def phi(sigma):
            return (sigma - r0) * math.exp(sigma)
        class Offset:
            def __init__(self, a, z, tol):
                self.tol = tol

            def __call__(self, sigma):
                scalar_calls.append(sigma)
                return SimpleNamespace(value=complex(phi(sigma)),
                                       abs_err_estimate=1e-12)

            def batch(self, sigmas):
                s = np.asarray(sigmas).tolist()
                return (np.array([complex(phi(x) - 1e-6 * math.sin(math.pi * x))
                                  for x in s]),
                        np.full(len(s), 2e-6))

        scalar_calls = []
        monkeypatch.setattr(zeros_mod, "_Cell", Offset)
        monkeypatch.setattr(zeros_mod, "special_value",
                            lambda order, a, z: complex(phi(float(order))))
        rep = scan_zeros(0.3, 0.5, tol=1e-10)
        assert len(rep.roots) == 1
        (lo, hi), root = rep.brackets[0], rep.roots[0]
        assert abs(root - r0) <= 1e-10
        assert lo <= root <= hi and phi(lo) < 0.0 < phi(hi)
        assert hi - lo > 1e-6     # the widened bracket, not the first one
        assert len(scalar_calls) > 2

    def test_scan_clenshaw_has_the_scalar_bits(self):
        # the in-place sign scan repeats the scalar recurrence's operations
        # in its order, so every one of the 2049 values has its bits
        rng = np.random.default_rng(19)
        for degree in (16, 32, 128):
            c = (rng.standard_normal(degree + 1)
                 * 0.5 ** np.arange(degree + 1)).tolist()
            scan = zeros_mod._clenshaw_scan(c)
            assert scan.tolist() == [zeros_mod._clenshaw(c, x)
                                     for x in zeros_mod._SCAN_X.tolist()]

    def test_report_holds_plain_floats(self):
        for z in (1.0, -1.0, 0.5):
            rep = scan_zeros(0.1, z, tol=FAST)
            values = [*rep.roots, *rep.residuals,
                      *(end for bracket in rep.brackets for end in bracket),
                      rep.value_at_neg_one, rep.value_at_zero, rep.a, rep.z]
            assert rep.roots or z == 0.5
            for x in values:
                assert type(x) is float, (z, x, type(x))

    def test_keeps_two_roots_1e_3_apart(self, monkeypatch):
        # Phi replaced by (sigma - r1)(sigma - r2) e^sigma: the proxy's sign
        # scan must see the dip between the roots and polish both
        r1, r2 = -0.41237, -0.41137

        def phi(sigma):
            return (sigma - r1) * (sigma - r2) * math.exp(sigma)

        class TwoRoots:
            def __init__(self, a, z, tol):
                self.tol = tol

            def __call__(self, sigma):
                return SimpleNamespace(value=complex(phi(sigma)),
                                       abs_err_estimate=0.0)

            def batch(self, sigmas):
                s = np.asarray(sigmas).tolist()
                return np.array([complex(phi(x)) for x in s]), np.zeros(len(s))

        monkeypatch.setattr(zeros_mod, "_Cell", TwoRoots)
        monkeypatch.setattr(zeros_mod, "special_value",
                            lambda order, a, z: complex(phi(float(order))))
        rep = scan_zeros(0.3, 0.5, tol=1e-10)
        assert len(rep.roots) == 2
        assert rep.roots[0] == pytest.approx(r1, abs=1e-10)
        assert rep.roots[1] == pytest.approx(r2, abs=1e-10)
        for (lo, hi), root in zip(rep.brackets, rep.roots):
            assert lo <= root <= hi and phi(lo) * phi(hi) < 0.0

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


def _grid_roots(a, z, tol):
    """The census before the proxy, kept as the reference: Phi at 199
    equally spaced sigma in one vector call, the closed forms at sigma = -1
    and 0 as end signs, and zeros._bisect on each sign change."""
    cell = _Cell(a, z, tol)
    interior = -1.0 + 0.0025 + 0.005 * np.arange(199)
    sigmas = [-1.0] + interior.tolist() + [0.0]
    values = ([special_value(-1, a, z).real]
              + cell.batch(interior)[0].real.tolist()
              + [special_value(0, a, z).real])
    roots = []
    prev = None
    for sigma, value in zip(sigmas, values):
        if value == 0.0:
            continue
        if prev is not None and (value < 0.0) != (prev[1] < 0.0):
            roots.append(zeros_mod._bisect(lambda s: cell(s).value.real,
                                           prev[0], sigma,
                                           math.copysign(1.0, prev[1]), tol))
        prev = (sigma, value)
    return roots


def _reference_cells(kind):
    if kind == "acceptance":
        return [(round(0.01 * k, 2), z) for z in (1.0, -1.0)
                for k in range(1, 101)]
    if kind == "seeded":
        rng = random.Random(15)
        return [(1.0 - rng.random(), rng.uniform(-1.0, 0.99))
                for _ in range(100)]
    # 1e-4, 1e-7 and 1e-10 either side of each boundary, where a root sits
    # next to sigma = -1 or 0
    return [(edge + side * d, z)
            for edge, z in ((B2_ROOT_LOWER, 1.0), (0.5, 1.0),
                            (B2_ROOT_UPPER, 1.0), (0.5, -1.0))
            for d in (1e-4, 1e-7, 1e-10) for side in (-1.0, 1.0)]


@pytest.mark.parametrize("kind", ["acceptance", "seeded", "boundaries"])
def test_proxy_matches_grid_census(kind):
    # the proxy finds the roots the 199-point grid and bisection found,
    # each within 1e-10, at tol = 1e-10
    for a, z in _reference_cells(kind):
        expected = _grid_roots(a, z, 1e-10)
        rep = scan_zeros(a, z, tol=1e-10)
        assert len(rep.roots) == len(expected), (a, z, rep.roots, expected)
        for root, ref in zip(rep.roots, expected):
            assert abs(root - ref) <= 1e-10, (a, z, root, ref)


def test_proxy_of_degree_32_matches_grid_census(monkeypatch):
    # at tol = 1e-12 these proxies double to degree 32, so the second
    # vector call finds the cell keeping levels from the first
    batches = Counter()
    batch = _Cell.batch

    def counted(self, sigma):
        batches[a, z] += 1
        return batch(self, sigma)

    monkeypatch.setattr(_Cell, "batch", counted)
    for a, z in ((0.1, 1.0), (0.6, 1.0), (0.01, -1.0)):
        rep = scan_zeros(a, z, tol=1e-12)
        assert batches[a, z] == 2, (a, z)
        expected = _grid_roots(a, z, 1e-12)
        assert len(rep.roots) == len(expected) >= 1, (a, z, rep.roots, expected)
        for root, ref in zip(rep.roots, expected):
            assert abs(root - ref) <= 1e-12, (a, z, root, ref)


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

    def test_nonfinite_theta_rejected(self):
        for theta in (math.inf, math.nan):
            with pytest.raises(DomainError):
                check_case3(0.3, 0.5, theta)


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
