"""Evaluation of Phi(sigma, a, z) = sum_{n>=0} z^n (n+a)^{-sigma} for real
sigma, 0 < a <= 1 and 0 < |z| <= 1, including its analytic continuation.

Routes:

  * phi_series            -- the defining Dirichlet series (sigma > 1, or any
                             sigma when |z| < 1), plain truncation with an
                             honest tail and rounding bound.
  * phi_integral          -- the analytic continuation on -1 < sigma < 0
                             and 0 < sigma (below 1 when z = 1, where the
                             value is zeta(sigma,a)) from a Mellin integral.
  * special_value         -- closed forms at sigma = 0 and sigma = -1.
  * hurwitz_em            -- Euler-Maclaurin for zeta(sigma,a), any real
                             sigma != 1; the z = 1 route for sigma > 1, and
                             independent of the kernels and quadrature, so
                             also the cross-check for the zeta integrals.
  * evaluate              -- dispatcher over all of the above.

The series and integral routes take one accuracy input, the absolute
target tol (default 1e-10, must be positive); the rest are fixed.

phi_integral evaluates Gamma(sigma) Phi = int_0^inf K(x) x^{sigma-1} dx
with the kernel K picked from (z == 1, sign of sigma), split at x = 1:

  int_0^1   near x = 0 the factor x^{sigma-1} is too singular for a binary64
            node ladder when sigma approaches 0 or -1, so the leading piece
            int_0^delta K x^{sigma-1} dx is summed analytically term by
            term from the kernel's power series (exact integrals of
            c_k x^{k+sigma-1}); the remainder [delta, 1] goes to tanh-sinh.
  int_1^inf the exponentially decaying part e^{-ax}/(1 - z e^{-x}) goes to
            exp-sinh; the algebraic parts of the kernels (1/x and the
            constants) are integrated in closed form:
              int_1^inf x^{sigma-2} dx = 1/(1-sigma)   (sigma < 1)
              int_1^inf x^{sigma-1} dx = -1/sigma      (sigma < 0)

Accumulation uses math.fsum for the handful of combined pieces and numpy's
pairwise reduction inside the quadrature rules.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum

import numpy as np

from .errors import (ConditioningError, DomainError, PoleError,
                     SeriesDivergenceError)
from .kernels import (_check_a, _check_tol, _check_z, gz_taylor_coeffs,
                      h_series_coeffs, kernel_G, kernel_Gz, kernel_H)
from .quadrature import exp_sinh, tanh_sinh
from .special import bernoulli_number, bernoulli_poly, gamma_real

__all__ = [
    "Method",
    "EvalResult",
    "phi_series",
    "special_value",
    "hurwitz_em",
    "phi_integral",
    "evaluate",
]

_EPS = float(np.finfo(float).eps)
_SPLIT = 1.0                # int_0^inf is split here (the kernel analysis splits at 1)
_HEAD_DELTA = 0.25          # head-series reach for the H/G kernels
_MIN_ONE_MINUS_Z = 1e-3     # conditioning cap on the integral paths
_UNIT_TOL = 1e-12
_SERIES_MAX_TERMS = 2_000_000   # term cap of phi_series
_EM_TERMS = 24              # hurwitz_em: terms summed directly
_EM_CORRECTIONS = 8         # hurwitz_em: Bernoulli corrections, B_2..B_16
_MAX_LEVELS = 11            # tanh-sinh / exp-sinh refinement cap (nodes ~ 2^levels)


class Method(str, Enum):
    SERIES = "Series"
    INTEGRAL_POS = "IntegralPos"
    INTEGRAL_NEG = "IntegralNeg"
    INTEGRAL_UNIT = "IntegralUnit"
    SPECIAL_VALUE = "SpecialValue"
    FUNCTIONAL_EQ = "FunctionalEq"
    EULER_MACLAURIN = "EulerMaclaurin"

    def __str__(self) -> str:  # plain tag in CLI output
        return self.value


@dataclass(frozen=True)
class EvalResult:
    """A value with an absolute-error estimate and the route that produced it.

    For real z the Series/SpecialValue routes return an imaginary part that
    is exactly 0.0; the integral routes run in real arithmetic for real z,
    so their imaginary part is 0.0 as well.
    """

    value: complex
    abs_err_estimate: float
    method: Method


def _is_unit(z: complex) -> bool:
    return abs(abs(z) - 1.0) <= _UNIT_TOL


# --------------------------------------------------------------------------
# series route
# --------------------------------------------------------------------------

def _add_chunk(zz: float | complex, sigma: float, a: float, lo: int, hi: int,
               sums: tuple[list, list, list]) -> None:
    """Append the sums of Re, Im (complex z only) and |.| of
    z^n (n+a)^{-sigma} over n = lo..hi-1 to the three lists in sums."""
    # in place: a unit-circle chunk has 2^19 terms, and new arrays fault pages
    n = np.arange(lo, hi, dtype=float)
    terms = np.power(zz, n)
    n += a
    terms *= n ** (-sigma)
    sums[0].append(float(terms.real.sum()))
    if isinstance(zz, complex):
        sums[1].append(float(terms.imag.sum()))
    sums[2].append(float(np.abs(terms, out=n).sum()))


def _series_result(sums: tuple[list, list, list], err: float) -> EvalResult:
    # the rounding term scales with sum |terms|, not |value|: a cancelling
    # sum keeps the rounding error of its largest terms
    value = complex(fsum(sums[0]), fsum(sums[1]))
    return EvalResult(value, err + 8.0 * _EPS * fsum(sums[2]), Method.SERIES)


def phi_series(sigma: float, a: float, z: complex,
               tol: float = 1e-10) -> EvalResult:
    """Direct summation of sum_{n>=0} z^n (n+a)^{-sigma}, at most 2e6 terms.

    Requires sigma > 1 on the unit circle; converges geometrically for
    |z| < 1 at any real sigma.  The recorded error estimate is the geometric
    next-term bound (|z| < 1) or the integral tail bound (|z| = 1), plus
    8 eps times the sum of the term magnitudes for rounding; summation is
    chunked numpy with pairwise reduction.  tol is the absolute target.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    a = _check_a(a)
    z = _check_z(z)
    tol = _check_tol(tol)
    az = abs(z)
    zz: float | complex = z.real if z.imag == 0.0 else z
    sums: tuple[list, list, list] = ([], [], [])

    if _is_unit(z):
        if sigma <= 1.0:
            raise SeriesDivergenceError(
                "the series diverges for |z| = 1 and sigma <= 1; use an integral path")
        # choose N from the integral tail bound (N+a)^{1-sigma}/(sigma-1)
        want = (tol * (sigma - 1.0)) ** (-1.0 / (sigma - 1.0)) if sigma < 60 else 64.0
        n_used = int(min(_SERIES_MAX_TERMS, max(64.0, want) + 1.0))
        for lo in range(0, n_used, 1 << 19):
            _add_chunk(zz, sigma, a, lo, min(n_used, lo + (1 << 19)), sums)
        # tail <= int_{n_used-1+a}^inf x^-sigma dx, a true upper bound
        return _series_result(
            sums, (n_used - 1 + a) ** (1.0 - sigma) / (sigma - 1.0))

    # geometric regime
    chunk = 2048
    n0 = 0
    err = math.inf
    while n0 < _SERIES_MAX_TERMS:
        _add_chunk(zz, sigma, a, n0, n0 + chunk, sums)
        n0 += chunk
        t_last = az ** (n0 - 1) * (n0 - 1 + a) ** (-sigma)
        eff_r = az * math.exp(max(0.0, -sigma) / (n0 + a))
        if eff_r < 1.0:
            err = t_last * eff_r / (1.0 - eff_r)
            if err <= tol:
                break
    if not math.isfinite(err):
        # |z| a hair inside the unit circle with sigma < 0: the terms are
        # still growing at the term cap, so no honest bound exists
        raise SeriesDivergenceError(
            f"series tail not yet decaying after {_SERIES_MAX_TERMS} terms "
            f"(|z| = {az}, sigma = {sigma}); use an integral path")
    return _series_result(sums, err)


# --------------------------------------------------------------------------
# closed forms at sigma = 0, -1
# --------------------------------------------------------------------------

def special_value(order: int, a: float, z: complex) -> complex:
    """Exact closed forms: Phi(0,a,z) = 1/(1-z), Phi(-1,a,z) = a/(1-z) +
    z/(1-z)^2, and for z = 1 the zeta values zeta(0,a) = 1/2 - a,
    zeta(-1,a) = -B_2(a)/2."""
    if order not in (0, -1):
        raise DomainError("special_value supports orders 0 and -1 only")
    a = _check_a(a)
    z = _check_z(z)
    if z == 1:
        if order == 0:
            return complex(0.5 - a, 0.0)
        return complex(-0.5 * bernoulli_poly(2, a), 0.0)
    if z.imag == 0.0:
        zr = z.real
        if order == 0:
            return complex(1.0 / (1.0 - zr), 0.0)
        return complex(a / (1.0 - zr) + zr / (1.0 - zr) ** 2, 0.0)
    if order == 0:
        return 1.0 / (1.0 - z)
    return a / (1.0 - z) + z / (1.0 - z) ** 2


# --------------------------------------------------------------------------
# Euler-Maclaurin oracle
# --------------------------------------------------------------------------

def hurwitz_em(sigma: float, a: float) -> EvalResult:
    """zeta(sigma, a) by Euler-Maclaurin summation.

    sum_{k<N} (k+a)^{-s} + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
      + sum_{j<=J} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * (N+a)^{-s-2j+1}

    with N = 24 and corrections through B_16 (J = 8).  The recorded
    error is the magnitude of the first omitted correction term (a valid
    bound for real sigma).  This route never touches the kernel/quadrature
    machinery, so it serves as the independent cross-check for them.
    Accepts any a > 0 (the shift identity zeta(s,a) - zeta(s,a+1) = a^{-s}
    needs evaluations beyond a = 1).
    """
    sigma = float(sigma)
    a = float(a)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"hurwitz_em requires finite a > 0, got {a}")
    if sigma == 1.0:
        raise PoleError("zeta(s,a) has its pole at sigma = 1")
    if sigma <= -(2 * _EM_CORRECTIONS):
        raise DomainError("sigma too negative for the Euler-Maclaurin corrections")
    N, J = _EM_TERMS, _EM_CORRECTIONS
    try:
        pieces = [(k + a) ** (-sigma) for k in range(N)]
    except OverflowError:
        raise DomainError(f"zeta({sigma}, {a}) exceeds the binary64 range") from None
    Na = N + a
    pieces.append(Na ** (1.0 - sigma) / (sigma - 1.0))
    pieces.append(0.5 * Na ** (-sigma))
    rising = sigma
    power = Na ** (-sigma - 1.0)
    for j in range(1, J + 1):
        if power == 0.0:   # the rest are 0, and rising may reach inf
            break
        pieces.append(bernoulli_number(2 * j) / math.factorial(2 * j)
                      * rising * power)
        rising *= (sigma + 2 * j - 1.0) * (sigma + 2 * j)
        power /= Na * Na
    remainder = abs(bernoulli_number(2 * J + 2) / math.factorial(2 * J + 2)
                    * rising * power)
    value = fsum(pieces)
    err = remainder + 8.0 * _EPS * fsum(abs(p) for p in pieces)
    return EvalResult(complex(value, 0.0), err, Method.EULER_MACLAURIN)


# --------------------------------------------------------------------------
# integral routes
# --------------------------------------------------------------------------

def phi_integral(sigma: float, a: float, z: complex,
                 tol: float = 1e-10) -> EvalResult:
    """Phi(sigma, a, z) from Gamma(sigma) Phi = int_0^inf K(x) x^{sigma-1} dx
    on -1 < sigma < 0 and on 0 < sigma (below 1 when z = 1).

    K is e^{(1-a)x}/(e^x - z) less the algebraic part that the integral
    cannot carry at x = 0: 1/x for z = 1, and for sigma < 0 also the
    constant C = K(0+), which is 1/2 - a for z = 1 and 1/(1-z) otherwise.
    That gives the kernels H (z = 1, sigma > 0), G (z = 1, sigma < 0), G_z
    (z != 1, sigma < 0) and the bare e^{(1-a)x}/(e^x - z) (z != 1,
    sigma > 0).  The subtracted parts come back in closed form over
    [1, inf); the layout is the one in the module docstring.  tol is the
    absolute target.  0 < |1 - z| < 1e-3 is ConditioningError; a value or
    estimate outside binary64 is DomainError.
    """
    sigma = float(sigma)
    a = _check_a(a)
    z = _check_z(z)
    tol = _check_tol(tol)
    top = 1.0 if z == 1 else math.inf
    if not (-1.0 < sigma < 0.0 or 0.0 < sigma < top):
        raise DomainError(f"the integral route needs sigma in (-1,0) u "
                          f"(0,{top:g}) at z = {z}, got {sigma}")
    if z != 1 and abs(1.0 - z) < _MIN_ONE_MINUS_Z:
        raise ConditioningError(
            f"|1 - z| = {abs(1.0 - z):.2e} < {_MIN_ONE_MINUS_Z}: the kernel "
            "magnitude ~ 1/|1-z| makes the integral paths ill-conditioned")
    gam = gamma_real(sigma)   # refuses sigma past ~171.6 before any work
    neg = sigma < 0.0
    real_z = z.imag == 0.0
    zz: float | complex = z.real if real_z else z
    s = _SPLIT
    if z == 1:
        const = 0.5 - a
        delta = _HEAD_DELTA
        # Bernoulli series of H; G drops its constant term B_1(1-a) = C
        c = h_series_coeffs(a)
        first = 1 if neg else 0
        # |B_n(y)|/n! <= 2.01 (2pi)^{-n}: geometric truncation bound
        ratio = delta / (2.0 * math.pi)
        head_err = (2.01 * ratio ** (c.size + 1) / delta * delta ** sigma
                    / (1.0 - ratio))
        kernel = (lambda x: kernel_G(a, x)) if neg else (lambda x: kernel_H(a, x))
        tail_den = lambda x: -np.expm1(-x)
        corr = -s ** (sigma - 1.0) / (1.0 - sigma)   # the 1/x part
    else:
        const = 1.0 / (1.0 - z)
        # keep the head strictly inside the Taylor radius |log z| of G_z
        delta = min(_HEAD_DELTA, 0.35 * abs(np.log(complex(z))))
        c = gz_taylor_coeffs(a, z)
        first = 1
        head_err = 2.0 * abs(c[-1]) * delta ** (c.size - 1 + sigma)
        if neg:
            kernel = lambda x: kernel_Gz(a, zz, x)
        else:   # G_z + C: nothing is subtracted
            kernel = lambda x: np.exp((1.0 - a) * x) / (np.exp(x) - zz)
        tail_den = lambda x: 1.0 - zz * np.exp(-x)
        corr = 0.0
    if neg:
        corr += const * s ** sigma / sigma
    # int_0^delta kernel * x^{sigma-1} dx, term by term from its power series
    terms = [c[k] * delta ** (k + sigma) / (k + sigma)
             for k in range(first, c.size)]
    if z != 1 and not neg:
        terms.append(const * delta ** sigma / sigma)
    head = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
    qtol = 0.25 * tol
    # an overflow ends as inf or nan, which the finiteness check below refuses
    with np.errstate(over="ignore"):
        mid = tanh_sinh(lambda x: kernel(x) * x ** (sigma - 1.0),
                        delta, s, tol=qtol, max_levels=_MAX_LEVELS)
        tail = exp_sinh(lambda x: np.exp((sigma - 1.0) * np.log(x) - a * x)
                        / tail_den(x),
                        s, tol=qtol, max_levels=_MAX_LEVELS)
    pieces = (head, mid.value, tail.value, corr)
    re = fsum(p.real for p in pieces) / gam
    im = fsum(p.imag for p in pieces) / gam
    value = complex(re, 0.0) if real_z else complex(re, im)
    err = (head_err + mid.err + tail.err) / abs(gam) + 8.0 * _EPS * abs(value)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"Phi({sigma}, {a}, {z}) by the integral route "
                          "exceeds the binary64 range")
    if z != 1 and _is_unit(z):
        method = Method.INTEGRAL_UNIT
    else:
        method = Method.INTEGRAL_NEG if neg else Method.INTEGRAL_POS
    return EvalResult(value, float(err), method)


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------

def evaluate(sigma: float, a: float, z: complex,
             tol: float = 1e-10) -> EvalResult:
    """Evaluate Phi(sigma, a, z), dispatching on (sigma, z).

    sigma in {0,-1} -> closed forms; z = 1 and sigma > 1 -> Euler-Maclaurin;
    z = 1 otherwise -> the zeta integrals; z != 1 with |z| <= 0.9 or
    sigma >= 1.5 -> the series; otherwise the integral representations (for
    1 < sigma < 1.5 on the unit circle the series tail decays too slowly
    for a sensible term count, so z != 1 takes the sigma > 0 integral).
    sigma = 1 with z = 1 is the zeta pole; sigma below -1 and non-finite
    sigma are outside the supported range.  tol is the absolute target of
    the series and integral routes; it must be positive.
    """
    sigma = float(sigma)
    a = _check_a(a)
    z = _check_z(z)
    tol = _check_tol(tol)
    if not -1.0 <= sigma < math.inf:
        raise DomainError(f"sigma must be finite and >= -1, got {sigma}")
    if sigma == 0.0 or sigma == -1.0:
        return EvalResult(special_value(int(sigma), a, z), 0.0,
                          Method.SPECIAL_VALUE)
    if z == 1:
        if sigma == 1.0:
            raise PoleError("zeta(s,a) has a simple pole at s = 1")
        if sigma > 1.0:
            return hurwitz_em(sigma, a)
    elif abs(z) <= 0.9 or sigma >= 1.5:
        return phi_series(sigma, a, z, tol=tol)
    return phi_integral(sigma, a, z, tol)
