"""Evaluation of Phi(sigma, a, z) = sum_{n>=0} z^n (n+a)^{-sigma} for real
sigma, 0 < a <= 1 and 0 < |z| <= 1, including its analytic continuation.

Routes:

  * phi_series            -- the defining Dirichlet series (sigma > 1, or any
                             sigma when |z| < 1), plain truncation with an
                             honest tail and rounding bound; refuses when
                             its term cap cannot meet tol.  evaluate sends
                             it |z| <= 0.9, sigma >= 4, and sigma >= 1.5
                             with |1 - z| < 1e-3.
  * phi_integral          -- the analytic continuation on -1 < sigma < 0
                             and 0 < sigma (below 1 when z = 1, where the
                             value is zeta(sigma,a)) from a Mellin integral;
                             for z != 1 it serves the annulus |z| > 0.9
                             below sigma = 4.
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

Reuse per (a, z): the series, integral and dispatch live on one private
object per (a, z) and tol (_Cell), which checks a, z and tol once and keeps
what does not depend on sigma once built: the head coefficients
(h_series_coeffs(a) or gz_taylor_coeffs(a, z)) with delta; per tanh-sinh
level on [delta, 1] and sign of sigma, the nodes, weights and kernel
samples; per exp-sinh level on [1, inf), the weights, log x, a x and tail
denominator; and z^n over the first 2048-term series chunk.  quadrature's
level loop asks for a level by its number, and the object builds that
level's arrays from quadrature's node tables on first request.  What
depends on sigma is computed on every call: x^{sigma-1}, the exp-sinh
exponential, the head terms, Gamma(sigma), the tail bounds and the pieces
with their error sums.  The expressions and their order are those of a
fresh object, so a reused object returns the same bits.  evaluate,
phi_series and phi_integral build one object and call it once;
zeros.scan_zeros and zeros.check_case3 keep one for all the sigma of their
(a, z).  The object lives as long as its caller holds it: nothing is cached
across (a, z).
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum

import numpy as np

from .errors import (ConditioningError, DomainError, PoleError,
                     SeriesDivergenceError)
from .kernels import (_check_a, _check_tol, _check_z, _is_unit,
                      gz_taylor_coeffs, h_series_coeffs, kernel_G, kernel_Gz,
                      kernel_H)
from .quadrature import _es_level_nodes, _refine, _ts_table
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
_SERIES_MAX_TERMS = 2_000_000   # term cap of phi_series
_SERIES_CHUNK = 2048        # terms per numpy reduction in phi_series
# n0 after the last chunk of phi_series, 2000896
_SERIES_END = math.ceil(_SERIES_MAX_TERMS / _SERIES_CHUNK) * _SERIES_CHUNK
_SERIES_MIN_SIGMA = 4.0     # evaluate: the series for |z| > 0.9 from here
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
# one (a, z): the series and integral routes and the dispatch
# --------------------------------------------------------------------------

class _Cell:
    """Phi(., a, z) for one (a, z) and tol, which are checked once; what
    depends on (a, z) alone is built on first use and kept (the module
    docstring, "Reuse per (a, z)").  Calling it is evaluate's dispatch."""

    def __init__(self, a: float, z: complex, tol: float):
        self.a = _check_a(a)
        self.z = _check_z(z)
        self.tol = _check_tol(tol)
        self._zz: float | complex = self.z.real if self.z.imag == 0.0 else self.z
        self._mid: dict[tuple[bool, int], tuple] = {}
        self._tail: dict[int, tuple] = {}

    # -- series ------------------------------------------------------------

    @functools.cached_property
    def _first_chunk(self) -> tuple[np.ndarray, np.ndarray]:
        """(z^n, n + a) for the first series chunk, n = 0..2047."""
        n = np.arange(0, _SERIES_CHUNK, dtype=float)
        return np.power(self._zz, n), n + self.a

    def series(self, sigma: float) -> EvalResult:
        """phi_series, for a finite float sigma."""
        a, z, tol = self.a, self.z, self.tol
        if _is_unit(z) and sigma <= 1.0:
            raise SeriesDivergenceError(
                "the series diverges for |z| = 1 and sigma <= 1; use an integral path")
        az = abs(z)

        def tail_bound(n0: int, err: float) -> float:
            """The tail bound after n0 terms; err is the bound before."""
            eff_r = az * math.exp(max(0.0, -sigma) / (n0 + a))
            if eff_r < 1.0:
                err = (az ** (n0 - 1) * (n0 - 1 + a) ** (-sigma)
                       * eff_r / (1.0 - eff_r))
            if sigma > 1.0:
                # tail <= int_{n0-1+a}^inf x^-sigma dx, for any |z| <= 1
                err = min(err, (n0 - 1 + a) ** (1.0 - sigma) / (sigma - 1.0))
            return err

        re: list[float] = []
        im: list[float] = []
        mag: list[float] = []
        n0 = 0
        err = math.inf
        if sigma > 1.0:
            # both bounds fall as n0 grows, so the bound after the last chunk
            # decides a refusal before any term is summed
            end_err = tail_bound(_SERIES_END, math.inf)
            if not end_err <= tol:
                n0, err = _SERIES_END, end_err
        while n0 < _SERIES_MAX_TERMS and not err <= tol:
            if n0:
                n = np.arange(n0, n0 + _SERIES_CHUNK, dtype=float)
                zn, na = np.power(self._zz, n), n + a
            else:
                zn, na = self._first_chunk
            terms = zn * na ** (-sigma)
            re.append(float(terms.real.sum()))
            im.append(float(terms.imag.sum()))
            mag.append(float(np.abs(terms).sum()))
            n0 += _SERIES_CHUNK
            err = tail_bound(n0, err)
        if not err <= tol:
            raise SeriesDivergenceError(
                f"series tail bound {err:.2e} above tol = {tol:g} after {n0} "
                f"terms (|z| = {az}, sigma = {sigma}); use an integral path")
        # the rounding term scales with sum |terms|, not |value|: a cancelling
        # sum keeps the rounding error of its largest terms
        return EvalResult(complex(fsum(re), fsum(im)),
                          err + 8.0 * _EPS * fsum(mag), Method.SERIES)

    # -- integral ----------------------------------------------------------

    @functools.cached_property
    def _head(self) -> tuple[np.ndarray, float]:
        """(c, delta): the power series of the kernel near 0 and its reach."""
        if self.z == 1:
            # Bernoulli series of H; G drops its constant term B_1(1-a) = C
            return h_series_coeffs(self.a), _HEAD_DELTA
        # keep the head strictly inside the Taylor radius |log z| of G_z
        delta = min(_HEAD_DELTA, 0.35 * abs(np.log(complex(self.z))))
        return gz_taylor_coeffs(self.a, self.z), delta

    def _mid_sum(self, neg: bool, sigma: float, level: int) -> tuple[complex, int]:
        """tanh-sinh level `level` on [delta, 1]: its x, w and kernel samples
        k are kept per (sign of sigma, level), and only x^{sigma-1} is new."""
        if (neg, level) not in self._mid:
            x, w = _ts_table(self._head[1], _SPLIT, level)
            if self.z == 1:
                k = kernel_G(self.a, x) if neg else kernel_H(self.a, x)
            elif neg:
                k = kernel_Gz(self.a, self._zz, x)
            else:   # G_z + C: nothing is subtracted
                k = np.exp((1.0 - self.a) * x) / (np.exp(x) - self._zz)
            self._mid[neg, level] = x, w, k
        x, w, k = self._mid[neg, level]
        return (k * x ** (sigma - 1.0) * w).sum(), x.size

    def _tail_sum(self, sigma: float, level: int) -> tuple[complex, int]:
        """exp-sinh level `level` on [1, inf): its w, log x, a x and tail
        denominator are kept per level, and only the exponential is new."""
        if level not in self._tail:
            offset, w = _es_level_nodes(level)
            x = _SPLIT + offset
            den = -np.expm1(-x) if self.z == 1 else 1.0 - self._zz * np.exp(-x)
            self._tail[level] = w, np.log(x), self.a * x, den
        w, log_x, ax, den = self._tail[level]
        return (np.exp((sigma - 1.0) * log_x - ax) / den * w).sum(), w.size

    def integral(self, sigma: float) -> EvalResult:
        """phi_integral, for a float sigma."""
        a, z = self.a, self.z
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
        s = _SPLIT
        c, delta = self._head
        if z == 1:
            const = 0.5 - a
            first = 1 if neg else 0
            # |B_n(y)|/n! <= 2.01 (2pi)^{-n}: geometric truncation bound
            ratio = delta / (2.0 * math.pi)
            head_err = (2.01 * ratio ** (c.size + 1) / delta * delta ** sigma
                        / (1.0 - ratio))
            corr = -s ** (sigma - 1.0) / (1.0 - sigma)   # the 1/x part
        else:
            const = 1.0 / (1.0 - z)
            first = 1
            head_err = 2.0 * abs(c[-1]) * delta ** (c.size - 1 + sigma)
            corr = 0.0
        if neg:
            corr += const * s ** sigma / sigma
        # int_0^delta kernel * x^{sigma-1} dx, term by term from its power series
        terms = [c[k] * delta ** (k + sigma) / (k + sigma)
                 for k in range(first, c.size)]
        if z != 1 and not neg:
            terms.append(const * delta ** sigma / sigma)
        head = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
        qtol = 0.25 * self.tol
        # an overflow ends as inf or nan, which the finiteness check below refuses
        with np.errstate(over="ignore"):
            # the level loops of tanh_sinh on [delta, 1] and exp_sinh on [1, inf)
            mid = _refine(functools.partial(self._mid_sum, neg, sigma),
                          0.5 * (s - delta), qtol, _MAX_LEVELS)
            tail = _refine(functools.partial(self._tail_sum, sigma), 1.0, qtol,
                           _MAX_LEVELS)
        pieces = (head, mid.value, tail.value, corr)
        re = fsum(p.real for p in pieces) / gam
        im = fsum(p.imag for p in pieces) / gam
        value = complex(re, 0.0) if z.imag == 0.0 else complex(re, im)
        err = (head_err + mid.err + tail.err) / abs(gam) + 8.0 * _EPS * abs(value)
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise DomainError(f"Phi({sigma}, {a}, {z}) by the integral route "
                              "exceeds the binary64 range")
        if z != 1 and _is_unit(z):
            method = Method.INTEGRAL_UNIT
        else:
            method = Method.INTEGRAL_NEG if neg else Method.INTEGRAL_POS
        return EvalResult(value, float(err), method)

    # -- dispatch ----------------------------------------------------------

    def __call__(self, sigma: float) -> EvalResult:
        """evaluate's dispatch, for a float sigma."""
        a, z = self.a, self.z
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
        elif (abs(z) <= 0.9 or sigma >= _SERIES_MIN_SIGMA
              or (sigma >= 1.5 and abs(1.0 - z) < _MIN_ONE_MINUS_Z)):
            return self.series(sigma)
        return self.integral(sigma)


# --------------------------------------------------------------------------
# public routes: one (a, z), called once
# --------------------------------------------------------------------------

def phi_series(sigma: float, a: float, z: complex,
               tol: float = 1e-10) -> EvalResult:
    """Direct summation of sum_{n>=0} z^n (n+a)^{-sigma}, up to ~2e6 terms.

    Requires sigma > 1 on the unit circle; converges geometrically for
    |z| < 1 at any real sigma.  Terms are summed in chunks of 2048 with
    numpy's pairwise reduction until the tail bound meets tol.  The tail
    bound is the smaller of the geometric next-term bound (|z| < 1) and,
    for sigma > 1, the integral bound (n0-1+a)^{1-sigma}/(sigma-1); the
    recorded error adds 8 eps times the sum of the term magnitudes for
    rounding.  tol is the absolute target; a tail bound still above it at
    the term cap is SeriesDivergenceError, raised before any term is summed
    when sigma > 1.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma}")
    return _Cell(a, z, tol).series(sigma)


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
    return _Cell(a, z, tol).integral(sigma)


def evaluate(sigma: float, a: float, z: complex,
             tol: float = 1e-10) -> EvalResult:
    """Evaluate Phi(sigma, a, z), dispatching on (sigma, z).

    sigma in {0,-1} -> closed forms; z = 1 and sigma > 1 -> Euler-Maclaurin;
    z = 1 otherwise -> the zeta integrals.  z != 1 goes to the series when
    |z| <= 0.9, when sigma >= 4 (about 1.5e3 terms on the unit circle), or
    when sigma >= 1.5 and |1 - z| < 1e-3, where the integral refuses; all
    other z != 1 take the integral representations.  sigma = 1 with z = 1
    is the zeta pole; sigma below -1 and non-finite sigma are outside the
    supported range.  tol is the absolute target of the series and
    integral routes; it must be positive.  The series raises
    SeriesDivergenceError when its term cap cannot meet tol.
    """
    sigma = float(sigma)
    return _Cell(a, z, tol)(sigma)
