"""Double-exponential quadrature sanity on known integrals."""
import math

import numpy as np
import pytest

from lerchzeta import exp_sinh, tanh_sinh
from lerchzeta.quadrature import _refine


class TestTanhSinh:
    def test_polynomial(self):
        res = tanh_sinh(lambda x: x * x, 0.0, 1.0, tol=1e-13)
        assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_sine(self):
        res = tanh_sinh(np.sin, 0.0, math.pi, tol=1e-13)
        assert res.value.real == pytest.approx(2.0, abs=1e-13)

    def test_inverse_sqrt_endpoint_singularity(self):
        res = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12)
        assert res.value.real == pytest.approx(2.0, abs=1e-12)

    def test_log_singularity(self):
        res = tanh_sinh(np.log, 0.0, 1.0, tol=1e-12)
        assert res.value.real == pytest.approx(-1.0, abs=1e-12)

    def test_singularity_at_right_endpoint(self):
        # singular endpoint at 0 approached from the left: fully resolved
        res = tanh_sinh(lambda x: 1.0 / np.sqrt(-x), -1.0, 0.0, tol=1e-12)
        assert res.value.real == pytest.approx(2.0, abs=1e-12)

    def test_singularity_at_nonzero_endpoint(self):
        # binary64 cannot represent points closer than ulp(1) to 1, so a
        # x^{-1/2}-type singularity there is resolved only to ~sqrt(ulp)
        res = tanh_sinh(lambda x: np.where(x < 1.0, 1.0 / np.sqrt(1.0 - x), 0.0),
                        0.0, 1.0, tol=1e-12)
        assert res.value.real == pytest.approx(2.0, abs=1e-7)

    def test_complex_integrand(self):
        res = tanh_sinh(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-13)
        want = (np.exp(1j) - 1.0) / 1j
        assert abs(res.value - want) <= 1e-13

    def test_error_estimate_reported(self):
        res = tanh_sinh(lambda x: np.cos(x), 0.0, 2.0, tol=1e-12)
        assert math.isfinite(res.err) and res.err >= 0.0
        assert abs(res.value.real - math.sin(2.0)) <= max(res.err * 50, 1e-13)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            tanh_sinh(np.sin, 1.0, 1.0)


class TestExpSinh:
    def test_plain_exponential(self):
        res = exp_sinh(lambda x: np.exp(-x), 0.0, tol=1e-13)
        assert res.value.real == pytest.approx(1.0, abs=1e-13)

    def test_shifted_scaled_exponential(self):
        res = exp_sinh(lambda x: np.exp(-2.0 * x), 1.0, tol=1e-13)
        assert res.value.real == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)

    def test_slow_exponential_decay(self):
        # decay scale 1/0.02 = 50: the node ladder must reach x ~ 2000
        res = exp_sinh(lambda x: np.exp(-0.02 * x), 1.0, tol=1e-12)
        assert res.value.real == pytest.approx(math.exp(-0.02) / 0.02, rel=1e-11)

    def test_gamma_like_integrand(self):
        res = exp_sinh(lambda x: np.exp(2.5 * np.log(x) - x), 0.0, tol=1e-12)
        assert res.value.real == pytest.approx(math.gamma(3.5), rel=1e-11)


class TestRefine:
    # the shared level loop: each level from 0 up is summed once until tol
    # or the cap stops it, and the eval count is that of the nodes summed
    def test_levels_in_order_once_each(self):
        for tol, max_levels in ((1e-3, 11), (0.0, 6)):
            seen = []

            def level_sum(level):
                seen.append(level)
                return 2.0 ** -level, 1, 0.0

            res = _refine(level_sum, 1.0, tol, max_levels)
            assert seen == list(range(res.levels + 1))
        assert res.levels == max_levels      # tol = 0 runs to the cap

    def test_one_integrand_call_per_level(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        for rule in (lambda: tanh_sinh(f, 0.0, 1.0, tol=1e-13),
                     lambda: exp_sinh(f, 1.0, tol=1e-13)):
            calls.clear()
            res = rule()
            assert len(calls) == res.levels + 1
            assert sum(calls) == res.evals
