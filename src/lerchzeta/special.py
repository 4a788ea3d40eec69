"""Bernoulli polynomials, the real gamma function, and the principal-branch
complex logarithm.

The Bernoulli coefficient table is built once at import from exact
rationals (Akiyama-Tanigawa recurrence for the numbers, binomial expansion
for the polynomial coefficients) and then rounded to binary64, so every
stored coefficient is correct to 1/2 ulp.  Degree 32 is enough for the
kernel series used elsewhere, which needs B_n up to n = 30 for 1e-15
truncation at |x| <= 1/2.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb

from .errors import DegreeOverflowError, DomainError, PoleError

__all__ = [
    "bernoulli_numbers",
    "bernoulli_number",
    "bernoulli_poly",
    "gamma_real",
    "principal_log",
]

MAX_DEGREE = 32


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n as exact Fractions (B_1 = -1/2 convention,
    the one matching the Bernoulli polynomials B_n(0) = B_n)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    A = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])  # Akiyama-Tanigawa gives B_m with B_1 = +1/2
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return out


# Coefficients of B_0(x)..B_MAX_DEGREE(x), ascending powers, rounded to
# binary64 from B_n(x) = sum_k C(n,k) B_{n-k} x^k in Fraction arithmetic
_NUMBERS = bernoulli_numbers(MAX_DEGREE)
_COEFFS = tuple(tuple(float(comb(n, k) * _NUMBERS[n - k]) for k in range(n + 1))
                for n in range(MAX_DEGREE + 1))


def bernoulli_poly(n: int, x: float) -> float:
    """Evaluate the n-th Bernoulli polynomial B_n(x) by Horner's rule.

    Relative error <= 1e-13 for |x| <= 2 and n <= 32.  Raises
    DegreeOverflowError for n beyond the table and DomainError for x not
    finite.  The table satisfies B_n(0) = B_n(1) for n >= 2,
    d/dx B_n = n B_{n-1} and B_n(1-x) = (-1)^n B_n(x); the test suite
    checks all three.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    if n > MAX_DEGREE:
        raise DegreeOverflowError(f"B_{n} exceeds table degree {MAX_DEGREE}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bernoulli_poly requires finite x, got {x}")
    c = _COEFFS[n]
    v = 0.0
    for k in range(n, -1, -1):
        v = v * x + c[k]
    return v


def bernoulli_number(n: int) -> float:
    """B_n = B_n(0), from the same binary64 table."""
    if n > MAX_DEGREE:
        raise DegreeOverflowError(f"B_{n} exceeds table degree {MAX_DEGREE}")
    return _COEFFS[n][0] if n > 0 else 1.0


def gamma_real(sigma: float) -> float:
    """Gamma(sigma) for real sigma in (-1,0) u (0,inf).

    On (-1,0) the value is computed through the recurrence
    Gamma(sigma) = Gamma(sigma+1)/sigma, which keeps full accuracy next to
    the pole at 0 and makes the negativity of Gamma on (-1,0) explicit.
    Past sigma ~ 171.6 Gamma exceeds the binary64 range, and sigma not
    finite is outside the domain: DomainError.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise DomainError(f"gamma_real requires finite sigma, got {sigma}")
    if sigma <= -1.0 or sigma == 0.0:
        raise PoleError(f"gamma_real requires sigma in (-1,0) u (0,inf), got {sigma}")
    if sigma < 0.0:
        return math.gamma(sigma + 1.0) / sigma
    try:
        return math.gamma(sigma)
    except OverflowError:
        raise DomainError(f"Gamma({sigma}) exceeds the binary64 range") from None


def principal_log(z: complex) -> complex:
    """Complex logarithm with argument in (-pi, pi].

    A signed imaginary zero is normalised to +0.0 first, so negative real
    inputs land on the +pi side of the branch cut.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("log of zero")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.log(z)

