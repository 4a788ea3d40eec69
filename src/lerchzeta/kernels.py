"""Integrand kernels for the Mellin-type representations of zeta(s,a) and
Phi(s,a,z).

    H(a,x)   = e^{(1-a)x}/(e^x - 1) - 1/x
    G(a,x)   = H(a,x) - (1/2 - a)
    G_z(a,x) = e^{(1-a)x}/(e^x - z) - 1/(1-z)          (z != 1)

All three are finite for every x > 0.  Near x = 0 the defining formulas
cancel catastrophically, so H and G switch to their Bernoulli series

    H(a,x) = sum_{n>=1} B_n(1-a) x^{n-1} / n!

below x0 = 0.5, and G_z uses an expm1-stabilised rewrite of the exact
formula below x = 1 (see kernel_Gz; the naive 4-term Taylor fallback is not
accurate enough for z close to the unit, where the nearest kernel pole sits
at distance |log z| from the origin).  That rewrite is the private _gz_near,
which the evaluator's per-(a, z) object also samples on (0, 1) with a and z
checked once.

The x arguments of the kernel functions may be numpy arrays.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, WrongPathError
from .special import bernoulli_poly

__all__ = [
    "h_series_coeffs",
    "kernel_H",
    "kernel_G",
    "kernel_Gz",
    "gz_taylor_coeffs",
]

_SERIES_CROSSOVER = 0.5  # series/direct switch for H and G
_SERIES_TERMS = 30       # truncation error ~ (x/2pi)^31 / x  <= 1e-33 at x = 0.5
_GZ_TERMS = 36           # Taylor terms of G_z for the integral head series
_Z_TOL = 1e-12          # slack of |z| = 1: z checks and the unit circle


def _check_a(a: float) -> float:
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"shift parameter a must lie in (0,1], got {a}")
    return a


def _check_z(z: complex) -> complex:
    z = complex(z)
    az = abs(z)
    if not 0.0 < az <= 1.0 + _Z_TOL:   # also rejects NaN
        raise DomainError(f"z must satisfy 0 < |z| <= 1, got |z| = {az}")
    return z


def _is_unit(z: complex) -> bool:
    return abs(abs(z) - 1.0) <= _Z_TOL


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not tol > 0.0:   # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    return tol


def _finite_positive(xa: np.ndarray) -> bool:
    """Every entry of xa in (0, inf): two reductions, min and max, which
    propagate NaN; an empty array passes."""
    return bool(0.0 < xa.min(initial=1.0) and xa.max(initial=1.0) < math.inf)


def h_series_coeffs(a: float) -> np.ndarray:
    """Coefficients B_n(1-a)/n! of the series H(a,x) = sum c_n x^{n-1},
    n = 1..30."""
    a = _check_a(a)
    return np.array([bernoulli_poly(n, 1.0 - a) / math.factorial(n)
                     for n in range(1, _SERIES_TERMS + 1)])


def _h_or_g(a: float, x, g: bool):
    """H(a,x), or G(a,x) when g, for x > 0.  Below x = 0.5: Horner over
    the series coefficients c_2..c_30, times x, plus c_1 for H only; above:
    the direct formula e^{-ax}/(1 - e^{-x}) - 1/x, less 1/2 - a for G."""
    a = _check_a(a)
    xa = np.asarray(x, dtype=float)
    if not _finite_positive(xa):
        raise DomainError(f"kernel_{'G' if g else 'H'} requires finite x > 0")
    out = np.empty_like(xa)
    small = xa < _SERIES_CROSSOVER
    if small.any():
        c = h_series_coeffs(a)
        xs = xa[small]
        v = np.zeros_like(xs)
        for cn in c[:0:-1]:
            v = v * xs + cn
        out[small] = v * xs if g else v * xs + c[0]
    big = ~small
    if big.any():
        xb = xa[big]
        v = np.exp(-a * xb) / (-np.expm1(-xb)) - 1.0 / xb
        out[big] = v - (0.5 - a) if g else v
    return out if isinstance(x, np.ndarray) else float(out)


def kernel_H(a: float, x):
    """H(a,x) for finite x > 0, absolute error <= 1e-14 on (0, 50].

    Uses the Bernoulli series below x = 0.5 and the direct formula above.
    """
    return _h_or_g(a, x, False)


def kernel_G(a: float, x):
    """G(a,x) = H(a,x) - (1/2 - a); near 0, G(a,x) = (B_2(a)/2) x + O(x^2).

    The series branch starts at the n = 2 term, so the constant B_1(1-a)
    cancels exactly and tiny x keeps full relative accuracy.
    """
    return _h_or_g(a, x, True)


def _gz_near(a: float, zz: float | complex, x: np.ndarray) -> np.ndarray:
    """G_z(a,x) on an array x in (0, 1), for a checked a and z != 1 (zz is
    z, or its real part for real z): kernel_Gz's expm1 form."""
    one_minus_z = 1.0 - zz
    return ((one_minus_z * np.expm1((1.0 - a) * x) - np.expm1(x))
            / (one_minus_z * (np.exp(x) - zz)))


def kernel_Gz(a: float, z: complex, x):
    """G_z(a,x) = e^{(1-a)x}/(e^x - z) - 1/(1-z) for z != 1, x > 0.

    For x < 1 the value is computed as

        [(1-z) expm1((1-a)x) - expm1(x)] / [(1-z)(e^x - z)],

    which is exact algebra and removes the cancellation of the two O(1/(1-z))
    terms near x = 0 (the limit as x -> 0+ is 0).  For x >= 1 the overflow-free
    form e^{-ax}/(1 - z e^{-x}) - 1/(1-z) is used.  Real z gives a result with
    imaginary part exactly 0.
    """
    a = _check_a(a)
    z = _check_z(z)
    if z == 1:
        raise WrongPathError("kernel_Gz requires z != 1; use kernel_G for z = 1")
    zz: complex | float = z.real if z.imag == 0.0 else z
    xa = np.asarray(x, dtype=float)
    if not _finite_positive(xa):
        raise DomainError("kernel_Gz requires finite x > 0")
    dtype = float if isinstance(zz, float) else complex
    out = np.empty(xa.shape, dtype=dtype)
    small = xa < 1.0
    out[small] = _gz_near(a, zz, xa[small])
    xb = xa[~small]
    out[~small] = np.exp(-a * xb) / (1.0 - zz * np.exp(-xb)) - 1.0 / (1.0 - zz)
    return out if isinstance(x, np.ndarray) else complex(out)


def gz_taylor_coeffs(a: float, z: complex) -> np.ndarray:
    """Taylor coefficients c_1..c_36 of G_z(a,x) = sum_{k>=1} c_k x^k.

    Solved from G_z * (e^x - z) = e^{(1-a)x} - (e^x - z)/(1-z) by matching
    powers.  Radius of convergence is |log z| (nearest pole of
    1/(e^x - z)), so callers must keep x well inside that.  Returns complex
    c[0..36] with c[0] = 0; for real z the imaginary parts are exactly 0.
    """
    a = _check_a(a)
    z = _check_z(z)
    if z == 1:
        raise WrongPathError("gz_taylor_coeffs requires z != 1")
    one_minus_z = 1.0 - z
    inv_fact = [1.0 / math.factorial(k) for k in range(_GZ_TERMS + 1)]
    nk = [(1.0 - a) ** k * inv_fact[k] for k in range(_GZ_TERMS + 1)]
    c = np.zeros(_GZ_TERMS + 1, dtype=complex)
    for k in range(1, _GZ_TERMS + 1):
        conv = 0.0 + 0.0j
        for j in range(1, k):
            conv += c[j] * inv_fact[k - j]
        c[k] = (nk[k] - inv_fact[k] / one_minus_z - conv) / one_minus_z
    return c
