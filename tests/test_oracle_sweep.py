"""Seeded oracle sweep of evaluate on and next to the unit circle.

Each point either raises a typed LerchZetaError or meets the contract
|value - oracle| <= abs_err_estimate <= max(tol, tol |Phi|), with mpmath's
lerchphi at 30 digits as the oracle.  The strata are the places where a
route can run out of reach: |z| = 1, 1 - |z| in [1e-8, 1e-2] (real z
included), and arg z in [1e-6, 1e-3] next to z = 1, all with 1 < sigma < 4.5.
"""
import cmath
import math
import random

import pytest

from lerchzeta import LerchZetaError, evaluate

mp = pytest.importorskip("mpmath")

TOL = 1e-10


def _points(seed, n):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        sigma = rng.uniform(1.0, 4.5)
        a = rng.uniform(0.01, 1.0)
        stratum = (0, 0, 1, 1, 2)[i % 5]
        if stratum == 0:      # the unit circle
            z = cmath.exp(1j * rng.uniform(1e-3, math.pi))
        elif stratum == 1:    # just inside it; a quarter of them real
            r = 1.0 - 10.0 ** rng.uniform(-8.0, -2.0)
            z = (rng.choice((r, -r)) if rng.random() < 0.25
                 else cmath.rect(r, rng.uniform(0.0, math.pi)))
        else:                 # next to z = 1, on or inside the circle
            r = rng.choice((1.0, 1.0 - 10.0 ** rng.uniform(-8.0, -2.0)))
            z = cmath.rect(r, 10.0 ** rng.uniform(-6.0, -3.0))
        out.append((sigma, a, complex(z)))
    return out


def test_meets_tol_or_refuses():
    misses = []
    for sigma, a, z in _points(20261018, 48):
        try:
            res = evaluate(sigma, a, z, TOL)
        except LerchZetaError:
            continue
        with mp.workdps(30):
            ref = complex(mp.lerchphi(mp.mpc(z), sigma, a))
        err = abs(res.value - ref)
        if not err <= res.abs_err_estimate <= max(TOL, TOL * abs(ref)):
            misses.append((sigma, a, z, str(res.method), err,
                           res.abs_err_estimate))
    assert misses == []
