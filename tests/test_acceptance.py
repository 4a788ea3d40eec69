"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured figure and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import math
import time

import numpy as np
import pytest

from lerchzeta import (B2_ROOT_LOWER, B2_ROOT_UPPER, Region, check_case3,
                       classify, hurwitz_em, phi_integral, phi_series,
                       scan_zeros, special_value)
from lerchzeta.verify import suite_fe, suite_identities, suite_kernels

SCAN_CFG = 1e-8


def _report(criterion: int, ok: bool, elapsed: float, limit: float,
            detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")


class TestAcceptance:
    def test_criterion_1_special_value_exactness(self):
        t0 = time.perf_counter()
        checks = []
        # closed forms across a parameter sweep
        for a in np.linspace(0.05, 1.0, 20):
            a = float(a)
            checks.append(abs(special_value(0, a, 1.0).real - (0.5 - a)))
            b2 = a * a - a + 1.0 / 6.0
            checks.append(abs(special_value(-1, a, 1.0).real - (-0.5 * b2)))
            for z in (-1.0 + 0j, 0.5 + 0j, 1j, complex(-0.3, 0.4)):
                checks.append(abs(special_value(0, a, z) - 1.0 / (1.0 - z)))
                want = a / (1.0 - z) + z / (1.0 - z) ** 2
                checks.append(abs(special_value(-1, a, z) - want))
        # pinned spot values
        checks.append(abs(special_value(0, 0.3, 1.0).real - 0.2))
        checks.append(abs(special_value(-1, 1.0, 1.0).real - (-1.0 / 12.0)))
        checks.append(abs(special_value(-1, 0.5, -1.0 + 0j)))
        worst = max(checks)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-15 and elapsed < 1.0
        _report(1, ok, elapsed, 1, f"max deviation {worst:.2e} <= 1e-15")
        assert worst <= 1e-15
        assert elapsed < 1.0

    def test_criterion_2_oracle_agreement(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260810)
        worst_h = 0.0
        for _ in range(100):
            a = float(rng.uniform(0.02, 1.0))
            s = float(rng.uniform(0.02, 0.98))
            em_pos = hurwitz_em(s, a).value.real
            em_neg = hurwitz_em(-s, a).value.real
            worst_h = max(worst_h,
                          abs(phi_integral(s, a, 1.0).value.real - em_pos),
                          abs(phi_integral(-s, a, 1.0).value.real - em_neg))
        worst_p = 0.0
        n_done = 0
        while n_done < 100:
            a = float(rng.uniform(0.02, 1.0))
            radius = float(rng.uniform(0.05, 0.9))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            z = complex(radius * math.cos(theta), radius * math.sin(theta))
            if abs(1.0 - z) < 2e-3:
                continue   # integral paths refuse the ill-conditioned sliver
            n_done += 1
            s = float(rng.uniform(0.02, 0.98))
            ref = phi_series(s, a, z, tol=1e-13).value
            worst_p = max(worst_p, abs(phi_integral(s, a, z).value - ref))
            ref = phi_series(-s, a, z, tol=1e-13).value
            worst_p = max(worst_p, abs(phi_integral(-s, a, z).value - ref))
        elapsed = time.perf_counter() - t0
        ok = worst_h <= 1e-9 and worst_p <= 1e-9 and elapsed < 30.0
        _report(2, ok, elapsed, 30,
                f"hurwitz max |d| {worst_h:.2e}, phi max |d| {worst_p:.2e} <= 1e-9")
        assert worst_h <= 1e-9
        assert worst_p <= 1e-9
        assert elapsed < 30.0

    def test_criterion_3_functional_equations(self):
        t0 = time.perf_counter()
        results = suite_fe()
        elapsed = time.perf_counter() - t0
        grid_checks = [r for r in results if r.name.startswith("functional equation,")]
        worst = max(r.measured for r in grid_checks)
        ok = all(r.passed for r in grid_checks) and elapsed < 120.0
        _report(3, ok, elapsed, 120,
                f"max |integral - FE| {worst:.2e} <= 1e-6 over 5x9x5 grid")
        assert all(r.passed for r in grid_checks), [r.line() for r in results]
        assert elapsed < 120.0

    def test_criterion_4_region_census(self):
        t0 = time.perf_counter()
        a_grid = [round(0.01 * k, 2) for k in range(1, 101)]

        def excluded(a, bounds):
            return any(abs(a - b) <= 0.01 + 1e-12 for b in bounds)

        mismatches = []
        n_cells = 0
        for a in a_grid:
            if excluded(a, (B2_ROOT_LOWER, 0.5, B2_ROOT_UPPER)):
                continue
            n_cells += 1
            rep = scan_zeros(a, 1.0, tol=SCAN_CFG)
            verdict = classify(a, 1.0)
            expect_zero = a < B2_ROOT_LOWER or 0.5 < a < B2_ROOT_UPPER
            if (rep.n_brackets >= 1) != expect_zero:
                mismatches.append(("z=1", a, "bracket vs band"))
            if (verdict.tag is Region.ZERO_EXISTS) != (rep.n_brackets >= 1):
                mismatches.append(("z=1", a, "classify vs scan"))
        for a in a_grid:
            if excluded(a, (0.5,)):
                continue
            n_cells += 1
            rep = scan_zeros(a, -1.0, tol=SCAN_CFG)
            verdict = classify(a, -1.0)
            expect_zero = a < 0.5
            if (rep.n_brackets >= 1) != expect_zero:
                mismatches.append(("z=-1", a, "bracket vs threshold"))
            if (verdict.tag is Region.ZERO_EXISTS) != (rep.n_brackets >= 1):
                mismatches.append(("z=-1", a, "classify vs scan"))
        elapsed = time.perf_counter() - t0
        ok = not mismatches and elapsed < 300.0
        _report(4, ok, elapsed, 300,
                f"{n_cells} cells, {len(mismatches)} mismatches")
        assert not mismatches, mismatches
        assert elapsed < 300.0

    def test_criterion_5_sign_constancy(self):
        t0 = time.perf_counter()
        sig_grid = np.linspace(-0.95, -0.05, 10)
        min_margin = math.inf
        for band, a_lo, a_hi, want in (("lower", B2_ROOT_LOWER, 0.5, 1.0),
                                       ("upper", B2_ROOT_UPPER, 1.0, -1.0)):
            for a in np.linspace(a_lo, a_hi, 10):
                for s in sig_grid:
                    res = phi_integral(s, a, 1.0)
                    margin = want * res.value.real - res.abs_err_estimate
                    min_margin = min(min_margin, margin)
        elapsed = time.perf_counter() - t0
        ok = min_margin > 0.0 and elapsed < 60.0
        _report(5, ok, elapsed, 60,
                f"min (sign*value - err) over both 10x10 bands: {min_margin:.2e} > 0")
        assert min_margin > 0.0
        assert elapsed < 60.0

    def test_criterion_6_case3_nonvanishing(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31415)
        worst_min = math.inf
        for _ in range(20):
            a = float(rng.uniform(0.02, 1.0))
            radius = float(rng.uniform(0.3, 1.0))
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            if rng.uniform() < 0.5:
                theta += math.pi
            # check_case3 raises if Im Phi dips below its error estimate or
            # changes sign anywhere on the sigma grid
            m = check_case3(a, radius, theta, tol=SCAN_CFG)
            worst_min = min(worst_min, m)
        elapsed = time.perf_counter() - t0
        ok = worst_min > 0.0 and elapsed < 120.0
        _report(6, ok, elapsed, 120,
                f"20 random non-real z: min |Im Phi| {worst_min:.2e} > 0, constant sign")
        assert worst_min > 0.0
        assert elapsed < 120.0

    def test_criterion_7_expansions_and_mellin(self):
        t0 = time.perf_counter()
        results = suite_kernels()
        elapsed = time.perf_counter() - t0
        ok = all(r.passed for r in results) and elapsed < 60.0
        detail = "; ".join(f"{r.name}: {r.measured:.2e}" for r in results)
        _report(7, ok, elapsed, 60, detail)
        assert all(r.passed for r in results), [r.line() for r in results]
        assert elapsed < 60.0

    def test_criterion_8_identities(self):
        t0 = time.perf_counter()
        results = suite_identities()
        elapsed = time.perf_counter() - t0
        ok = all(r.passed for r in results) and elapsed < 30.0
        detail = "; ".join(f"{r.name}: {r.measured:.2e}" for r in results)
        _report(8, ok, elapsed, 30, detail)
        assert all(r.passed for r in results), [r.line() for r in results]
        assert elapsed < 30.0
