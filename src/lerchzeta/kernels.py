"""Integrand kernels for the Mellin-type representations of zeta(s,a) and
Phi(s,a,z), together with their sign-analysis companions.

    H(a,x)   = e^{(1-a)x}/(e^x - 1) - 1/x
    G(a,x)   = H(a,x) - (1/2 - a)
    G_z(a,x) = e^{(1-a)x}/(e^x - z) - 1/(1-z)          (z != 1)

All three are finite for every x > 0.  Near x = 0 the defining formulas
cancel catastrophically, so H and G switch to their Bernoulli series

    H(a,x) = sum_{n>=1} B_n(1-a) x^{n-1} / n!

below x0 = 0.5, and G_z uses an expm1-stabilised rewrite of the exact
formula (see kernel_Gz; the naive 4-term Taylor fallback is not accurate
enough for z close to the unit, where the nearest kernel pole sits at
distance |log z| from the origin).

The x arguments of the kernel functions may be numpy arrays; the sign
functions are scalar.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, WrongPathError
from .special import bernoulli_poly

__all__ = [
    "SERIES_CROSSOVER",
    "SERIES_TERMS",
    "h_series_coeffs",
    "h_series",
    "h_direct",
    "kernel_H",
    "kernel_G",
    "kernel_Gz",
    "gz_taylor_coeffs",
    "sign_fn_g",
    "case3_kernels",
]

SERIES_CROSSOVER = 0.5   # series/direct switch for H and G
SERIES_TERMS = 30        # truncation error ~ (x/2pi)^31 / x  <= 1e-33 at x = 0.5
_GZ_TERMS = 36           # Taylor terms of G_z for the integral head series
_Z_TOL = 1e-12


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


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not tol > 0.0:   # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    return tol


def h_series_coeffs(a: float) -> np.ndarray:
    """Coefficients B_n(1-a)/n! of the series H(a,x) = sum c_n x^{n-1},
    n = 1..SERIES_TERMS."""
    a = _check_a(a)
    return np.array([bernoulli_poly(n, 1.0 - a) / math.factorial(n)
                     for n in range(1, SERIES_TERMS + 1)])


def h_series(a: float, x):
    """Bernoulli-series evaluation of H(a,x); accurate for |x| <= ~0.7."""
    c = h_series_coeffs(a)
    xa = np.asarray(x, dtype=float)
    v = np.zeros_like(xa)
    for cn in c[::-1]:
        v = v * xa + cn
    return v if isinstance(x, np.ndarray) else float(v)


def h_direct(a: float, x):
    """Direct formula e^{-ax}/(1 - e^{-x}) - 1/x; accurate for x >= ~0.3."""
    a = _check_a(a)
    xa = np.asarray(x, dtype=float)
    v = np.exp(-a * xa) / (-np.expm1(-xa)) - 1.0 / xa
    return v if isinstance(x, np.ndarray) else float(v)


def kernel_H(a: float, x):
    """H(a,x) for x > 0, absolute error <= 1e-14 on (0, 50].

    Uses the Bernoulli series below x = 0.5 and the direct formula above.
    """
    a = _check_a(a)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("kernel_H requires x > 0")
    out = np.empty_like(xa)
    small = xa < SERIES_CROSSOVER
    if small.any():
        out[small] = h_series(a, xa[small])
    big = ~small
    if big.any():
        out[big] = h_direct(a, xa[big])
    return out if isinstance(x, np.ndarray) else float(out)


def kernel_G(a: float, x):
    """G(a,x) = H(a,x) - (1/2 - a); near 0, G(a,x) = (B_2(a)/2) x + O(x^2).

    The series branch starts at the n = 2 term, so the constant B_1(1-a)
    cancels exactly and tiny x keeps full relative accuracy.
    """
    a = _check_a(a)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("kernel_G requires x > 0")
    out = np.empty_like(xa)
    small = xa < SERIES_CROSSOVER
    if small.any():
        c = h_series_coeffs(a)
        xs = xa[small]
        v = np.zeros_like(xs)
        for cn in c[:0:-1]:   # terms n = 2.., i.e. drop the constant c[0]
            v = v * xs + cn
        out[small] = v * xs
    big = ~small
    if big.any():
        out[big] = h_direct(a, xa[big]) - (0.5 - a)
    return out if isinstance(x, np.ndarray) else float(out)


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
    if np.any(xa <= 0.0):
        raise DomainError("kernel_Gz requires x > 0")
    dtype = float if isinstance(zz, float) else complex
    out = np.empty(xa.shape, dtype=dtype)
    one_minus_z = 1.0 - zz
    small = xa < 1.0
    if small.any():
        xs = xa[small]
        num = one_minus_z * np.expm1((1.0 - a) * xs) - np.expm1(xs)
        out[small] = num / (one_minus_z * (np.exp(xs) - zz))
    big = ~small
    if big.any():
        xb = xa[big]
        out[big] = np.exp(-a * xb) / (1.0 - zz * np.exp(-xb)) - 1.0 / one_minus_z
    if isinstance(x, np.ndarray):
        return out
    return complex(out)


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


def sign_fn_g(a: float, x: float, order: int = 0) -> float:
    """g(a,x) = x(e^x - 1) G(a,x) and its first two derivatives.

    g(a,x)   = x e^{(1-a)x} - e^x + 1 - (1/2 - a) x (e^x - 1)
    g'(a,x)  = (1-a) x e^{(1-a)x} + e^{(1-a)x} - e^x - (1/2 - a)(x e^x + e^x - 1)
    g''(a,x) = ((1-a)^2 x + 2(1-a)) e^{(1-a)x} - e^x - (1/2 - a)(x e^x + 2 e^x)

    All three vanish at x = 0 (returned exactly as 0.0).
    """
    a = _check_a(a)
    x = float(x)
    if x < 0.0:
        raise DomainError("sign_fn_g requires x >= 0")
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    if x == 0.0:
        return 0.0
    half = 0.5 - a
    eb = math.exp((1.0 - a) * x)
    ex = math.exp(x)
    if order == 0:
        return x * eb - ex + 1.0 - half * x * (ex - 1.0)
    if order == 1:
        return (1.0 - a) * x * eb + eb - ex - half * (x * ex + ex - 1.0)
    return ((1.0 - a) ** 2 * x + 2.0 * (1.0 - a)) * eb - ex - half * (x * ex + 2.0 * ex)


def case3_kernels(a: float, r: float, theta: float, x: float
                  ) -> tuple[float, float, float, float]:
    """The three comparison functions and Im G_{r,theta} for non-real
    z = r e^{i theta}.

    Returns (g_flat, g_sharp, g_natural, im_G) where

        g_flat    = e^{(1-a)x} (1 + r^2 - 2 r cos t)
        g_sharp   = e^{2x} + r^2 - 2 e^x r cos t
        g_natural = e^{2(1-a)x} + r^2 - 2 e^{(1-a)x} r cos t
        im_G      = e^{(1-a)x} r sin t / g_sharp - r sin t / (1 + r^2 - 2 r cos t)

    and g_flat <= g_natural < g_sharp for all x > 0 (strict on the left for
    a < 1), which forces im_G / sin t < 0.
    """
    a = _check_a(a)
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"radius r must lie in (0,1], got {r}")
    x = float(x)
    if x <= 0.0:
        raise DomainError("case3_kernels requires x > 0")
    st = math.sin(theta)
    if abs(st) < 1e-12:
        raise DomainError("theta corresponds to real z; use the real-z kernels")
    ct = math.cos(theta)
    eb = math.exp((1.0 - a) * x)
    ex = math.exp(x)
    base = 1.0 + r * r - 2.0 * r * ct          # |1 - r e^{i theta}|^2
    g_flat = eb * base
    g_sharp = ex * ex + r * r - 2.0 * ex * r * ct
    g_natural = eb * eb + r * r - 2.0 * eb * r * ct
    im_g = eb * r * st / g_sharp - r * st / base
    return g_flat, g_sharp, g_natural, im_g
