"""Seeded oracle sweep of evaluate on and next to the unit circle.

Each point either raises a typed LerchZetaError or meets the contract
|value - oracle| <= abs_err_estimate <= max(tol, tol |Phi|), with mpmath's
lerchphi at 30 digits as the oracle.  The strata are the places where a
route can run out of reach: |z| = 1, 1 - |z| in [1e-8, 1e-2] (real z
included), and arg z in [1e-6, 1e-3] next to z = 1, all with 1 < sigma < 4.5.
A second stratum holds five scan cells: the vector pass over sigma in
(-1, 0), and evaluate at the same sigma and at four sigma in (0, 1).  A
third holds sigma > 0 next to z = 1: |1 - z| in [1e-3, 1e-2] with sigma in
(0, 1.5), sigma -> 1- at z = 0.999, and sigma -> 0+.  A fourth calls
phi_integral directly past sigma = 10.5, where evaluate takes the series:
there only the estimate's bound is checked, as the route returns the
estimate it reaches.
"""
import cmath
import importlib
import math
import random

import pytest

from lerchzeta import LerchZetaError, evaluate, phi_integral

_Cell = importlib.import_module("lerchzeta.evaluate")._Cell

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


def _phi_root_of_unity(sigma, a, q, j):
    """Phi(sigma, a, e^{2 pi i j/q}) = q^{-sigma} sum_r e^{2 pi i j r/q}
    zeta(sigma, (r+a)/q), from mpmath's Hurwitz zeta (faster than lerchphi)."""
    return mp.power(q, -sigma) * mp.fsum(
        mp.expjpi(mp.mpf(2 * j * r) / q) * mp.zeta(sigma, (r + mp.mpf(a)) / q)
        for r in range(q))


def _phi_disk(sigma, a, z):
    """Phi(sigma, a, z) for |z| < 1 by the series, summed past 1e-25."""
    zz = mp.mpc(z)
    n = int(60.0 / -math.log(abs(z))) + 2
    return mp.fsum(zz ** k * mp.power(k + mp.mpf(a), -sigma) for k in range(n))


@pytest.mark.parametrize("a, z, oracle", [
    (0.3, 1.0, lambda s, a: _phi_root_of_unity(s, a, 1, 0)),
    (0.15, -1.0, lambda s, a: _phi_root_of_unity(s, a, 2, 1)),
    (0.43, 1j, lambda s, a: _phi_root_of_unity(s, a, 4, 1)),
    (0.7, 0.95, lambda s, a: _phi_disk(s, a, 0.95)),
    (0.6, 0.6 + 0.5j, lambda s, a: _phi_disk(s, a, 0.6 + 0.5j)),
], ids=["one", "minus_one", "i", "z0.95", "disk"])
def test_batch_meets_tol(a, z, oracle):
    # the cell's vector pass, then one evaluate per sigma at the same sigma
    # and at four sigma in (0, 1)
    sigmas = [-1.0 + 1e-9, -0.93, -0.71, -0.5, -0.37, -0.2, -0.05, -1e-9]
    values, estimates = _Cell(a, z, TOL).batch(sigmas)
    runs = [("batch", sigma, value, est) for sigma, value, est
            in zip(sigmas, values.tolist(), estimates.tolist())]
    for sigma in sigmas + [1e-9, 0.3, 0.62, 1.0 - 1e-9]:
        res = evaluate(sigma, a, z, TOL)
        runs.append((str(res.method), sigma, res.value, res.abs_err_estimate))
    refs = {}
    misses = []
    for call, sigma, value, est in runs:
        if sigma not in refs:
            with mp.workdps(30):
                refs[sigma] = complex(oracle(sigma, a))
        ref = refs[sigma]
        err = abs(value - ref)
        if not err <= est <= max(TOL, TOL * abs(ref)):
            misses.append((call, sigma, err, est))
    assert misses == []


def _next_to_one(seed, n):
    """n seeded (sigma, a, z) with |1 - z| in [1e-3, 1e-2], |z| <= 1 and
    sigma in (0, 1.5)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        d = 10.0 ** rng.uniform(-3.0, -2.0)
        # 1 - d e^{i t} with |t| < pi/3 stays inside the unit circle
        z = 1.0 - d * cmath.exp(1j * rng.uniform(-1.0, 1.0))
        out.append((rng.uniform(0.0, 1.5), rng.uniform(0.01, 1.0), z))
    return out


@pytest.mark.parametrize("sigma, a, z", [
    # once an under-claim: error 1.131e-13 against an estimate of 1.096e-13
    (0.7350442318693943, 0.06288227080559683,
     0.9999994174929512 - 0.0010793580306587098j),
    *_next_to_one(20261019, 4),
    (1.0 - 1e-9, 0.3, 0.999), (1.0 - 1e-3, 0.7, 0.999),
    (1e-9, 0.4, 0.999), (1e-9, 0.85, 1.0), (1e-6, 0.2, -1.0),
])
def test_positive_sigma_next_to_one(sigma, a, z):
    # sigma > 0 on the integral route, where the kernel is G or G_z on
    # [delta, 1] and C/sigma comes back in closed form
    res = evaluate(sigma, a, z, TOL)
    with mp.workdps(30):
        ref = complex(mp.zeta(sigma, a) if z == 1
                      else mp.lerchphi(mp.mpc(z), sigma, a))
    err = abs(res.value - ref)
    assert err <= res.abs_err_estimate <= max(TOL, TOL * abs(ref)), (
        str(res.method), err, res.abs_err_estimate)


def _phi_far(sigma, a, z):
    """Phi(sigma, a, z) for sigma > 10 and |z| <= 1 by the series, summed
    until sum_{m>=n} (m+a)^{-sigma} <= (n+a)^{-sigma} (1 + (n+a)/(sigma-1))
    is below 1e-25 of the first term, which is above |Phi|/2 there."""
    s, aa, zz = mp.mpf(sigma), mp.mpf(a), mp.mpc(z)
    first = mp.power(aa, -s)
    terms, n, zn = [], 0, mp.mpc(1)
    while True:
        terms.append(zn * mp.power(n + aa, -s))
        n, zn = n + 1, zn * zz
        if mp.power(n + aa, -s) * (1 + (n + aa) / (s - 1)) < first * mp.mpf(10) ** -25:
            return mp.fsum(terms)


def test_integral_past_sigma_11_bounds_its_error():
    # from sigma = 11 on the exp-sinh level sums split x^{sigma-1} into
    # three powers (evaluate._Rule.sum); in logs they lost about
    # eps |(sigma - 1) log x| per term, which the estimate did not count
    rng = random.Random(20261020)
    served, misses = 0, []
    for _ in range(150):
        sigma, a = rng.uniform(10.5, 160.0), rng.uniform(0.01, 1.0)
        z = cmath.rect(math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
        try:
            res = phi_integral(sigma, a, z)
        except LerchZetaError:
            continue
        served += 1
        with mp.workdps(30):
            ref = complex(_phi_far(sigma, a, z))
        err = abs(res.value - ref)
        if not err <= res.abs_err_estimate:
            misses.append((sigma, a, z, err, res.abs_err_estimate))
    assert served >= 100 and misses == []
