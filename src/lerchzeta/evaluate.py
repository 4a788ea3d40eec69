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
  * evaluate              -- dispatcher over all of the above; it returns
                             an estimate of at most max(tol, tol |value|)
                             or raises ConditioningError.

The series and integral routes take one accuracy input, the absolute
target tol (default 1e-10, must be positive); the rest are fixed.

phi_integral evaluates Gamma(sigma) Phi = int_0^inf K(x) x^{sigma-1} dx,
K = e^{(1-a)x}/(e^x - z), with one split at x = 1 for both signs of sigma:

  Gamma(sigma) Phi = int_0^1 G x^{sigma-1} dx + int_1^inf K x^{sigma-1} dx
                     + C/sigma - [z = 1]/(1 - sigma)

on -1 < sigma < 0 and on 0 < sigma (below 1 when z = 1).  C is the
constant term of K at x = 0, 1/2 - a at z = 1 and 1/(1-z) otherwise, and
G, the kernel G (z = 1) or G_z of kernels.py, is K less C and less 1/x
at z = 1.  The last two terms integrate what G drops in closed form: C
over [0, 1] for sigma > 0 and over [1, inf) for sigma < 0 gives C/sigma
either way, and 1/x over [1, inf) gives -1/(1 - sigma).

  int_0^1   near x = 0 the factor x^{sigma-1} is too singular for a binary64
            node ladder when sigma approaches 0 or -1, so the leading piece
            int_0^delta G x^{sigma-1} dx is summed analytically term by
            term from the power series of G (exact integrals of
            c_k x^{k+sigma-1}, k >= 1); the remainder [delta, 1] goes to
            tanh-sinh.
  int_1^inf K = e^{-ax}/(1 - z e^{-x}) decays exponentially and goes to
            exp-sinh, whose nodes reach x ~ e^{70.7}: from sigma = 11 on,
            x^{sigma-1} overflows there while K underflows, and the
            level sums multiply the two in logs.

The integral route adds its pieces (head, [delta, 1], [1, inf), closed
forms) with plain sums and adds 4 eps times the sum of their magnitudes to
its estimate; the series and Euler-Maclaurin routes combine their partial
sums with math.fsum; numpy's pairwise reduction runs inside each
quadrature level.

Reuse per (a, z): the series, integral and dispatch live on one private
object per (a, z) and tol (_Cell), which checks a, z and tol once and keeps
what does not depend on sigma once built: the head coefficients
(h_series_coeffs(a) or gz_taylor_coeffs(a, z)) with delta; z^n over the
first series chunk, which holds the smallest number of terms (at most
2048) whose tail bound at sigma = -1 meets tol; and per level of each
quadrature rule, for both signs of sigma, the nodes x and v = w f(x), where
f is G or G_z for tanh-sinh on [delta, 1] and K = e^{-ax}/(1 - z e^{-x})
for exp-sinh on [1, inf).  Both rules are then one sum, of x^{sigma-1} v
over the nodes, and one object type (_Rule) holds either.  quadrature's
level loop asks for levels by number, from 0 up, so a rule keeps levels
0..n-1 and builds the missing ones of a request from quadrature's node
tables in one path: one f call on their joined nodes, kept as per-level
views.  A level's samples are the same bits however it was built.

One body, _Cell.integral, computes what depends on sigma, for one float
sigma or for an array of sigma of one sign: the domain and conditioning
checks, Gamma(sigma), the head terms, the closed forms, the value with its
estimate and the finiteness rule are one expression each, applied to a
float or to the array.  Only the level sum is two.  For one sigma,
_Rule.sum weights x^{sigma-1} against the kept v (in logs from sigma = 11
on, where x^{sigma-1} overflows on the far exp-sinh nodes) and
quadrature's level loop runs once, one level at a time; for many, the
level loop runs every sigma as a column that stops at its own level, and
asks first for levels 0-3 together, which no column can stop before.
_Rule.sums forms one (sigma x nodes) matrix of exponentials
exp((sigma - 1) log x) over the joined nodes of a request, in blocks of a
bounded size, and reduces it against v per level; so a z = 1 cell calls
kernel_G, and with it h_series_coeffs, once for levels 0-3 and once per
deeper level.  The two stay apart because the column loop's numpy
dispatch does not pay for one sigma: on a 2-core host a batch of one
costs 230-260 us against 70-95 us for a warm scalar call (a = 0.1, z in
{1, -1, 0.95}), and single sigma sent through the column loop made fresh
evaluate calls 10-50 % slower.  The expressions and their order do not
depend on what the object holds, so a reused object returns the bits of a
fresh one.  evaluate, phi_series and phi_integral build one object and
call it once.

_Cell.batch takes many sigma of (-1, 0) through the array form of that
body, or of the series' first chunk as a (sigma x terms) matrix where the
series is evaluate's route.  Summed in another order, its values agree
with the scalar calls within their estimates, not bit for bit; a sigma
whose vector value is not finite or misses tol takes the scalar call, so a
batch raises only where a scalar call raises.  zeros.scan_zeros evaluates
the nodes of its Chebyshev proxy and zeros.check_case3 its 9 sigma with one
batch per (a, z); the polish and residuals of scan_zeros stay on the scalar
call.  The object lives as long as its caller holds it: nothing is cached
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
from .kernels import (_check_a, _check_tol, _check_z, _gz_near, _is_unit,
                      gz_taylor_coeffs, h_series_coeffs, kernel_G)
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
_POW_TOP = 11.0             # below it x^{sigma-1} is finite on every quadrature node
_SERIES_MAX_TERMS = 2_000_000   # term cap of phi_series
_SERIES_CHUNK = 2048        # terms per numpy reduction in phi_series
_SERIES_MIN_SIGMA = 4.0     # evaluate: the series for |z| > 0.9 from here
_EM_TERMS = 24              # hurwitz_em: terms summed directly
_EM_CORRECTIONS = 8         # hurwitz_em: Bernoulli corrections, B_2..B_16
_MAX_LEVELS = 11            # tanh-sinh / exp-sinh refinement cap (nodes ~ 2^levels)
_TILE = 1 << 12             # entries of one (sigma x nodes) block of _Cell.batch


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

def _dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product of a real matrix m of shape (rows, nodes) with a real or
    complex v of shape (nodes,) or (k, nodes), as (rows,) or (k, rows), by
    einsum: numpy's mixed real-complex matmul is two orders of magnitude
    slower, and BLAS buffers would add to peak memory.  With the nodes last
    in v, einsum runs its inner loop along them in both operands."""
    if np.iscomplexobj(v):
        return _dot(m, v.real) + 1j * _dot(m, v.imag)
    return np.einsum("ij,...j->...i", m, v)


def _exp_rows(p: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j exp(p_i u_j) v_j for every row i: the (rows x nodes) matrix of
    exponentials reduced by _dot, built in blocks of at most _TILE entries,
    so the working set grows with neither the rows nor the level.  v is
    (nodes,) or (k, nodes), real or complex, and the result (rows,) or
    (k, rows)."""
    out = 0.0
    step = max(1, _TILE // p.size)
    for j in range(0, u.size, step):
        e = np.multiply.outer(p, u[j:j + step])
        out = out + _dot(np.exp(e, out=e), v[..., j:j + step])
    return out


def _cuts(tables: list[tuple]) -> list[slice]:
    """The slice of each level's nodes in the joined nodes of the levels,
    for per-level tuples whose first array has one entry per node."""
    cuts, start = [], 0
    for table in tables:
        cuts.append(slice(start, start + table[0].size))
        start += table[0].size
    return cuts


def _join(parts: list[tuple]) -> tuple:
    """Per-level tuples of arrays joined field by field over the levels."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(field) for field in zip(*parts))


def _by_level(v: np.ndarray, cuts: list[slice]) -> np.ndarray:
    """The (levels, nodes) matrix whose row l holds the nodes cuts[l] of
    the joined v and 0 elsewhere: a product with it sums each level
    apart."""
    if len(cuts) == 1:
        return v[None]
    out = np.zeros((len(cuts), v.size), v.dtype)
    for row, cut in enumerate(cuts):
        out[row, cut] = v[cut]
    return out


class _Rule:
    """One quadrature rule of the integral for one (a, z): table(level)
    gives the (x, w) of a level and f the integrand.  It keeps levels
    0..n-1 as (x, v = w f(x)), so the sum of a level at sigma is that of
    x^{sigma-1} v, whichever the rule."""

    def __init__(self, table, f):
        self.table, self.f = table, f
        self.kept: list[tuple[np.ndarray, np.ndarray]] = []

    def levels(self, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every kept level, after building those of levels 0..stop-1 not
        kept yet: a table per missing level, then one f call on their
        joined nodes, kept as per-level views.  A level's samples are the
        same bits however it was built.  Deeper levels may be kept from an
        earlier request, so a caller indexes the levels it asks for."""
        kept = self.kept
        if len(kept) < stop:
            tables = list(map(self.table, range(len(kept), stop)))
            x, w = _join(tables)
            v = w * self.f(x)
            end = 0
            for level_x, _ in tables:
                start, end = end, end + level_x.size
                kept.append((x[start:end], v[start:end]))
        return kept

    def sum(self, sigma: float, level: int) -> tuple[complex, int]:
        """The level's sum at one sigma: only x^{sigma-1} is new.  From
        sigma = _POW_TOP on, x^{sigma-1} overflows on the far exp-sinh
        nodes while v underflows, so there the product is taken in logs
        over the nodes with v != 0."""
        x, v = self.levels(level + 1)[level]
        if sigma < _POW_TOP:
            return (x ** (sigma - 1.0) * v).sum(), x.size
        nz = v != 0.0
        logs = (sigma - 1.0) * np.log(x[nz]) + np.log(v[nz] + 0j)
        return np.exp(logs).sum(), x.size

    def sums(self, sig: np.ndarray, levels: range,
             cols: np.ndarray) -> tuple[np.ndarray, int]:
        """sum for the columns cols of the array sig at each level of
        levels, as a (levels x cols) array: one exponential over the
        joined nodes of the levels, reduced per level."""
        parts = self.levels(levels.stop)[levels.start:levels.stop]
        x, v = _join(parts)
        return (_exp_rows(sig[cols] - 1.0, np.log(x), _by_level(v, _cuts(parts))),
                x.size)


class _Cell:
    """Phi(., a, z) for one (a, z) and tol, which are checked once; what
    depends on (a, z) alone is built on first use and kept: the head, the
    series' first chunk, and _rules, a _Rule per quadrature rule, whose
    levels are (x, w f(x)) pairs (the module docstring, "Reuse per
    (a, z)").  Calling it is evaluate's dispatch."""

    def __init__(self, a: float, z: complex, tol: float):
        self.a = _check_a(a)
        self.z = _check_z(z)
        self.tol = _check_tol(tol)
        self._zz: float | complex = self.z.real if self.z.imag == 0.0 else self.z

    # -- series ------------------------------------------------------------

    def _tail_bound(self, sigma: float, n0: int, err: float = math.inf) -> float:
        """The series tail bound after n0 terms; err is the bound before.
        Each term from n0 on is at most eff_r times the one before, since
        ((n+a)/(n-1+a))^{-sigma} <= e^{-sigma/(n0-1+a)} for n >= n0."""
        a, az = self.a, abs(self.z)
        eff_r = az * math.exp(max(0.0, -sigma) / (n0 - 1 + a))
        if eff_r < 1.0:
            err = (az ** (n0 - 1) * (n0 - 1 + a) ** (-sigma)
                   * eff_r / (1.0 - eff_r))
        if sigma > 1.0:
            # tail <= int_{n0-1+a}^inf x^-sigma dx, for any |z| <= 1
            err = min(err, (n0 - 1 + a) ** (1.0 - sigma) / (sigma - 1.0))
        return err

    @functools.cached_property
    def _first_chunk(self) -> tuple[np.ndarray, np.ndarray]:
        """(z^n, n + a) for the first series chunk, n = 0..m-1.  m is the
        smallest n >= 2 whose tail bound at sigma = -1 meets tol, capped at
        2048; that bound is above the bound of every sigma >= -1 (n - 1 + a
        >= 1), so past sigma = -1 the first chunk ends the series."""
        m = _SERIES_CHUNK
        rate = -math.log(abs(self.z))
        if rate > 0.0:
            # the geometric bound exists once |z| e^{1/(n-1+a)} < 1, and from
            # there it falls with n: bisect for the first n that meets tol
            lo = max(1, math.ceil(1.0 / rate - self.a))
            if lo < m and self._tail_bound(-1.0, m) <= self.tol:
                while m - lo > 1:
                    mid = (lo + m) // 2
                    if self._tail_bound(-1.0, mid) <= self.tol:
                        m = mid
                    else:
                        lo = mid
        n = np.arange(0, m, dtype=float)
        return np.power(self._zz, n), n + self.a

    def series(self, sigma: float) -> EvalResult:
        """phi_series, for a finite float sigma."""
        a, z, tol = self.a, self.z, self.tol
        if _is_unit(z) and sigma <= 1.0:
            raise SeriesDivergenceError(
                "the series diverges for |z| = 1 and sigma <= 1; use an integral path")
        m = self._first_chunk[0].size
        # n0 after the last chunk: the first, then chunks of 2048 to the cap
        end = m + math.ceil((_SERIES_MAX_TERMS - m) / _SERIES_CHUNK) * _SERIES_CHUNK
        re: list[float] = []
        im: list[float] = []
        mag: list[float] = []
        n0 = 0
        err = math.inf
        if sigma > 1.0:
            # both bounds fall as n0 grows, so the bound after the last chunk
            # decides a refusal before any term is summed
            end_err = self._tail_bound(sigma, end)
            if not end_err <= tol:
                n0, err = end, end_err
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
            n0 += na.size
            err = self._tail_bound(sigma, n0, err)
        if not err <= tol:
            raise SeriesDivergenceError(
                f"series tail bound {err:.2e} above tol = {tol:g} after {n0} "
                f"terms (|z| = {abs(z)}, sigma = {sigma}); use an integral path")
        # the rounding term scales with sum |terms|, not |value|: a cancelling
        # sum keeps the rounding error of its largest terms
        return EvalResult(complex(fsum(re), fsum(im)),
                          err + 8.0 * _EPS * fsum(mag), Method.SERIES)

    def _series_batch(self, sig: np.ndarray) -> list[EvalResult | None]:
        """series for sigma in (-1, 0), the first chunk's terms as one
        (sigma x n) matrix; None throughout when that chunk misses tol."""
        zn, na = self._first_chunk
        bound = self._tail_bound(-1.0, na.size)   # >= the bound of each sigma
        if not bound <= self.tol:
            return [None] * sig.size
        v = np.stack((zn.real, zn.imag, np.abs(zn)))
        re, im, mag = _exp_rows(-sig, np.log(na), v)
        err = bound + 8.0 * _EPS * mag
        return [EvalResult(complex(r, i), e, Method.SERIES)
                for r, i, e in zip(re.tolist(), im.tolist(), err.tolist())]

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

    @functools.cached_property
    def _rules(self) -> tuple[_Rule, _Rule]:
        """tanh-sinh on [delta, 1] with f = G (z = 1) or G_z, and exp-sinh
        on [1, inf) with f = K = e^{-ax}/(1 - z e^{-x}), whose denominator
        does not cancel there, z = 1 included."""
        a, zz, delta = self.a, self._zz, self._head[1]

        def es_table(level: int) -> tuple[np.ndarray, np.ndarray]:
            offset, w = _es_level_nodes(level)
            return _SPLIT + offset, w

        return (_Rule(lambda level: _ts_table(delta, _SPLIT, level),
                      (lambda x: kernel_G(a, x)) if self.z == 1
                      else lambda x: _gz_near(a, zz, x)),
                _Rule(es_table, lambda x: np.exp(-a * x) / (1.0 - zz * np.exp(-x))))

    def integral(self, sigma: float | np.ndarray
                 ) -> EvalResult | list[EvalResult | None]:
        """phi_integral, for a float sigma.  sigma may also be an array of
        sigma of one sign: then the level sums run as columns, each
        stopping at its own level, and the result is a list with one
        EvalResult per sigma, None where a value or estimate is not finite.
        Everything else is one expression for both."""
        a, z, s = self.a, self.z, _SPLIT
        many = isinstance(sigma, np.ndarray)
        lo, hi = (sigma.min(), sigma.max()) if many else (sigma, sigma)
        top = 1.0 if z == 1 else math.inf
        if not (-1.0 < lo <= hi < 0.0 or 0.0 < lo <= hi < top):
            raise DomainError(f"the integral route needs sigma in (-1,0) u "
                              f"(0,{top:g}) at z = {z}, got {sigma}")
        if z != 1 and abs(1.0 - z) < _MIN_ONE_MINUS_Z:
            raise ConditioningError(
                f"|1 - z| = {abs(1.0 - z):.2e} < {_MIN_ONE_MINUS_Z}: the kernel "
                "magnitude ~ 1/|1-z| makes the integral paths ill-conditioned")
        # refuses sigma past ~171.6 before any work
        gam = (np.array([gamma_real(x) for x in sigma.tolist()]) if many
               else gamma_real(sigma))
        c, delta = self._head
        qtol = 0.25 * self.tol
        # an overflow ends as inf or nan, which the finiteness check refuses
        with np.errstate(over="ignore", invalid="ignore"):
            # the constant C, the head truncation bound and the closed forms
            # of what G drops, -[z = 1]/(1 - sigma) + C/sigma
            if z == 1:
                const = 0.5 - a
                # |B_n(y)|/n! <= 2.01 (2pi)^{-n}: geometric truncation bound
                ratio = delta / (2.0 * math.pi)
                head_err = (2.01 * ratio ** (c.size + 1) / delta * delta ** sigma
                            / (1.0 - ratio))
                corr = -s ** (sigma - 1.0) / (1.0 - sigma)   # the 1/x part
            else:
                const = 1.0 / (1.0 - z)
                head_err = 2.0 * abs(c[-1]) * delta ** (c.size - 1 + sigma)
                corr = 0.0
            corr = corr + const * s ** sigma / sigma
            # int_0^delta G x^{sigma-1} dx, term by term from the power series
            # of G from its x^1 term: (terms,) or (sigma x terms) exponents
            k = np.add.outer(sigma, np.arange(1, c.size))
            head = np.einsum("...j,j->...", delta ** k / k, c[1:])
            # the level loops of tanh_sinh on [delta, 1] and exp_sinh on [1, inf)
            # (the only two-way step: one sigma, or the columns of many)
            mid, tail = (
                _refine(functools.partial(rule.sums if many else rule.sum, sigma),
                        scale, qtol, _MAX_LEVELS, sigma.size if many else None)
                for rule, scale in zip(self._rules, (0.5 * (s - delta), 1.0)))
            value = (head + mid.value + tail.value + corr) / gam
            if z.imag == 0.0:
                value = value.real + 0.0j
            # plain sums: their rounding joins the estimate
            rounding = 4.0 * _EPS * (abs(head) + abs(mid.value)
                                     + abs(tail.value) + abs(corr))
            err = ((head_err + mid.err + tail.err + rounding) / abs(gam)
                   + 8.0 * _EPS * abs(value))
        method = (Method.INTEGRAL_UNIT if z != 1 and _is_unit(z) else
                  Method.INTEGRAL_NEG if hi < 0.0 else Method.INTEGRAL_POS)
        if many:
            return [EvalResult(v, e, method)
                    if cmath.isfinite(v) and math.isfinite(e) else None
                    for v, e in zip(value.tolist(), err.tolist())]
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise DomainError(f"Phi({sigma}, {a}, {z}) by the integral route "
                              "exceeds the binary64 range")
        return EvalResult(complex(value), float(err), method)

    # -- dispatch ----------------------------------------------------------

    def _takes_series(self, sigma: float | np.ndarray) -> bool | np.ndarray:
        """evaluate's rule between the series and the integral, for a float
        sigma or elementwise for an array: the series for z != 1 when |z| <=
        0.9, when sigma >= 4, or when sigma >= 1.5 and |1 - z| < 1e-3, where
        the integral refuses."""
        z = self.z
        return (z != 1) & ((abs(z) <= 0.9) | (sigma >= _SERIES_MIN_SIGMA)
                           | ((sigma >= 1.5) & (abs(1.0 - z) < _MIN_ONE_MINUS_Z)))

    def _meets_tol(self, res: EvalResult) -> bool:
        """abs_err_estimate <= max(tol, tol |value|), |value| only if needed."""
        err, tol = res.abs_err_estimate, self.tol
        return err <= tol or err <= tol * abs(res.value)

    def __call__(self, sigma: float) -> EvalResult:
        """evaluate's dispatch, for a float sigma.  A result whose estimate
        is above max(tol, tol |value|) is ConditioningError."""
        a, z = self.a, self.z
        if not -1.0 <= sigma < math.inf:
            raise DomainError(f"sigma must be finite and >= -1, got {sigma}")
        if sigma == 0.0 or sigma == -1.0:
            return EvalResult(special_value(int(sigma), a, z), 0.0,
                              Method.SPECIAL_VALUE)
        if z == 1 and sigma >= 1.0:
            if sigma == 1.0:
                raise PoleError("zeta(s,a) has a simple pole at s = 1")
            res = hurwitz_em(sigma, a)
        elif self._takes_series(sigma):
            res = self.series(sigma)
        else:
            res = self.integral(sigma)
        if not self._meets_tol(res):
            raise ConditioningError(
                f"the {res.method} estimate {res.abs_err_estimate:.2e} of "
                f"Phi({sigma}, {a}, {z}) misses tol = {self.tol:g}")
        return res

    def batch(self, sigmas) -> list[EvalResult]:
        """[self(s) for s in sigmas], with the sigma in (-1, 0) in one vector
        pass of the route that evaluate's rule (_takes_series) picks for
        them.  Any other sigma, and a sigma whose vector value or estimate
        is not finite or misses tol, or whose series first chunk misses tol,
        takes the scalar call, so a batch raises only what a scalar call of
        one of its sigma raises.  The values agree with the scalar calls
        within their estimates, not bit for bit (module docstring, "Reuse
        per (a, z)")."""
        sig = np.asarray(sigmas, dtype=float)
        out: list[EvalResult | None] = [None] * sig.size
        inner = np.flatnonzero((-1.0 < sig) & (sig < 0.0))
        series = self._takes_series(sig[inner])
        for pick, route in ((series, self._series_batch), (~series, self.integral)):
            if pick.any():
                for i, res in zip(inner[pick].tolist(), route(sig[inner[pick]])):
                    out[i] = res
        return [res if res is not None and self._meets_tol(res) else self(s)
                for s, res in zip(sig.tolist(), out)]


# --------------------------------------------------------------------------
# public routes: one (a, z), called once
# --------------------------------------------------------------------------

def phi_series(sigma: float, a: float, z: complex,
               tol: float = 1e-10) -> EvalResult:
    """Direct summation of sum_{n>=0} z^n (n+a)^{-sigma}, up to ~2e6 terms.

    Requires sigma > 1 on the unit circle; converges geometrically for
    |z| < 1 at any real sigma.  Terms are summed in chunks with numpy's
    pairwise reduction until the tail bound meets tol: a first chunk of the
    fewest terms whose tail bound at sigma = -1 meets tol (at most 2048),
    then chunks of 2048.  The tail
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

    For both signs the integrand on [0, 1] is G (z = 1) or G_z (z != 1):
    K = e^{(1-a)x}/(e^x - z) less 1/x for z = 1 and less the constant
    C = K(0+) of what is left, 1/2 - a for z = 1 and 1/(1-z) otherwise.
    [1, inf) takes K itself, and C/sigma - [z = 1]/(1 - sigma) adds the
    subtracted parts back in closed form; the layout is the one in the
    module docstring.  tol is the absolute target, and the estimate is
    returned as reached: evaluate, not this route, refuses one above tol.
    0 < |1 - z| < 1e-3 is ConditioningError; a value or estimate outside
    binary64 is DomainError.
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
    SeriesDivergenceError when its term cap cannot meet tol, and a result
    whose estimate is above max(tol, tol |value|) is ConditioningError.
    """
    sigma = float(sigma)
    return _Cell(a, z, tol)(sigma)
