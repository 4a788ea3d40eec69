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
            level sums take x^{sigma-1} as three powers, each applied to
            K in turn.

The integral route adds its pieces (head, [delta, 1], [1, inf), closed
forms) with plain sums and adds 4 eps times the sum of their magnitudes to
its estimate; the series and Euler-Maclaurin routes combine their partial
sums with math.fsum; numpy's pairwise reduction runs inside each
quadrature level.

Reuse per (a, z): the series, integral and dispatch live on one private
object per (a, z) and tol (_Cell), which checks a, z and tol once and keeps
what depends on (a, z) but not on sigma once built: the head coefficients
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
views.  The array form asks first for a rule's prefix, tanh-sinh levels
0-4 and exp-sinh levels 0-5 (_PREFIX), so a cell's first vector call
samples each rule with one f call.  A level's samples are the same bits
however it was built.

Kept process-wide: what depends on neither a nor z, bounded, read-only,
keyed by the exact values it is built from and filled by the same
expressions whatever is kept, so no value depends on what is kept:
  * quadrature's node tables: the nodes of a level in the transformed
    variable, one per level; their image (x, w) on [delta, 1], keyed by
    (delta, 1, level), and on [1, inf), keyed by (1, level), at most
    quadrature._TABLES (32) of each.  A rule is named by its nodes, ("ts",
    delta) or ("es",), and takes each level's table by that name (_table).
  * for the array form, per rule name and bytes of the sigma array, the
    (sigma x nodes) matrix exp((sigma - 1) log x) over the joined nodes of
    the rule's prefix levels, with the index of each level's first node
    (_prefix_exp).  A sigma array of more rows than _TILE (4096) entries
    allow is kept in row blocks of at most _TILE entries; at most _MEMO
    (32) blocks, 1 MB.  The exp-sinh entry of a sigma array is shared by
    every cell and used by each of its batches, so cells with new delta,
    which bring new tanh-sinh entries, do not evict it.
  * for the array form, per bytes of the sigma array, delta and head
    length: Gamma(sigma), the head's delta^k/k and delta^sigma
    (_sigma_table), at most _MEMO (32).
At z = +-1 delta is 1/4, so every cell of a census over a at those z
shares its node tables, and every batch of the same sigma its matrices;
the kernel samples and the head coefficients stay per (a, z).  Levels
past the prefix keep no matrix: few columns reach them.

One body, _Cell.integral, computes what depends on sigma, for one float
sigma or for an array of sigma of one sign: the domain and conditioning
checks, Gamma(sigma), the head terms, the closed forms, the value with its
estimate and the finiteness rule are one expression each, applied to a
float or to the array.  Only the level sum is two.  For one sigma,
_Rule.sum weights x^{sigma-1} against the kept v (from sigma = 11 on, where
x^{sigma-1} overflows on the far exp-sinh nodes, as three powers applied
in turn) and quadrature's level loop runs once, one level at a time; for
many, _Cell._columns applies that loop's rule to every (rule, sigma) as a
column.  Each rule's joined prefix v times its kept matrix of
exponentials, reduced per level (np.add.reduceat) and summed over the
levels, gives every estimate of the prefix at once, and the estimates of
both rules are one array, so each column's stop is read off after the
fact in one pass for both rules; only the columns without one go on, a
level at a time, with exponentials built for them alone in blocks of at
most _TILE entries (_exp_rows).  So a z = 1 cell calls kernel_G, and with
it h_series_coeffs, once for the prefix and once per deeper level.  The
two stay apart because the array form's numpy dispatch does not pay for
one sigma: on a 2-core host a batch of one costs 70-75 us against 43-47 us for a warm scalar call (a = 0.1,
z in {1, -1, 0.95}).
The expressions and their order do not depend on what the object holds,
so a reused object returns the bits of a fresh one.  evaluate, phi_series
and phi_integral build one object and call it once.

_Cell.batch takes many sigma of (-1, 0) through the array form of that
body, or of the series' first chunk as a (sigma x terms) matrix where the
series is evaluate's route, and returns their values and estimates as two
arrays.  Summed in another order, its values agree
with the scalar calls within their estimates, not bit for bit; a sigma
whose vector value is not finite or misses tol takes the scalar call, so a
batch raises only where a scalar call raises.  zeros.scan_zeros evaluates
the nodes of its Chebyshev proxy and zeros.check_case3 its 9 sigma with one
batch per (a, z); the polish and residuals of scan_zeros stay on the scalar
call.  The object lives as long as its caller holds it; across (a, z) only
the process-wide entries above are kept.
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
from .quadrature import (_FIRST_TEST, QuadResult, _es_table, _frozen,
                         _refine, _ts_table)
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
_TILE = 1 << 12             # entries of a kept (sigma x nodes) matrix, or of a block of _exp_rows
_MEMO = 32                  # entries of each sigma cache (_prefix_exp, _sigma_table)
# levels of each rule's prefix, sampled and summed as one block by the array
# form: tanh-sinh levels 0-4 and exp-sinh levels 0-5, the deepest that census
# columns at tol 1e-10 mostly reach
_PREFIX = {"ts": 5, "es": 6}


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


def _join(parts: list[tuple]) -> tuple:
    """Per-level tuples of arrays joined field by field over the levels."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(field) for field in zip(*parts))


def _table(key: tuple, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, w) of a level of the rule named key: ("ts", delta) for
    tanh-sinh on [delta, _SPLIT], ("es",) for exp-sinh on [_SPLIT, inf)."""
    if key[0] == "ts":
        return _ts_table(key[1], _SPLIT, level)
    return _es_table(_SPLIT, level)


@functools.lru_cache(maxsize=_MEMO)
def _prefix_exp(key: tuple, sig: bytes) -> tuple[np.ndarray, np.ndarray]:
    """exp((sigma - 1) log x), the (sigma x nodes) matrix over the joined
    nodes x of the prefix levels of the rule named key, for the sigma array
    whose bytes are sig, with the index of each level's first node;
    read-only, as every cell whose rule has that key shares them."""
    nodes = [_table(key, level)[0] for level in range(_PREFIX[key[0]])]
    e = np.multiply.outer(np.frombuffer(sig) - 1.0, np.log(np.concatenate(nodes)))
    return _frozen(np.exp(e, out=e), np.cumsum([0] + [x.size for x in nodes[:-1]]))


def _sigma_terms(sigma: float | np.ndarray, delta: float, terms: int) -> tuple:
    """What the integral needs of sigma and delta alone, for a float sigma
    or elementwise for an array: Gamma(sigma), which refuses sigma past
    ~171.6; delta^k/k for the exponents k = sigma + 1, ..., sigma + terms -
    1 of the head series, as (terms - 1,) or (sigma x terms - 1); and
    delta^sigma."""
    gam = (np.array([gamma_real(x) for x in sigma.tolist()])
           if isinstance(sigma, np.ndarray) else gamma_real(sigma))
    k = np.add.outer(sigma, np.arange(1, terms))
    return gam, delta ** k / k, delta ** sigma


@functools.lru_cache(maxsize=_MEMO)
def _sigma_table(sig: bytes, delta: float, terms: int) -> tuple:
    """_sigma_terms for the sigma array whose bytes are sig, read-only."""
    return _frozen(*_sigma_terms(np.frombuffer(sig), delta, terms))


class _Rule:
    """One quadrature rule of the integral for one (a, z): key names its
    nodes (_table) and f is its integrand.  It keeps levels 0..n-1 as (x,
    v = w f(x)), so the sum of a level at sigma is that of x^{sigma-1} v,
    whichever the rule."""

    def __init__(self, key: tuple, f):
        self.key, self.f = key, f
        self.kept: list[tuple[np.ndarray, np.ndarray]] = []

    def levels(self, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every kept level, after building those of levels 0..stop-1 not
        kept yet: a table per missing level, then one f call on their
        joined nodes, kept as per-level views.  A level's samples are the
        same bits however it was built.  Deeper levels may be kept from an
        earlier request, so a caller indexes the levels it asks for."""
        kept = self.kept
        if len(kept) < stop:
            tables = [_table(self.key, level) for level in range(len(kept), stop)]
            x, w = _join(tables)
            v = w * self.f(x)
            end = 0
            for level_x, _ in tables:
                start, end = end, end + level_x.size
                kept.append((x[start:end], v[start:end]))
        return kept

    def sum(self, sigma: float, level: int) -> tuple[complex, int, float]:
        """The level's sum at one sigma, its count and a bound on the
        rounding of its terms for _refine: only x^{sigma-1} is new.  From
        sigma = _POW_TOP on, x^{sigma-1} overflows on the far exp-sinh nodes
        while v underflows, so there each term over the nodes with v != 0 is
        v x^r x^q x^q, with q = (sigma - 1)/3 and r = sigma - 1 - 2q exact:
        no factor overflows unless the term does (a factor x^q is at most
        e^{(sigma-1) log x / 3}, and v >= e^{-745}).  Three powers within an
        ulp and three products put that term within 5 eps of its value, and
        that is the bound; below _POW_TOP it is 0.0.  (exp((sigma - 1) log x
        + log v) would lose about eps |(sigma - 1) log x|, 600 eps at
        sigma = 150.)"""
        x, v = self.levels(level + 1)[level]
        if sigma < _POW_TOP:
            return (x ** (sigma - 1.0) * v).sum(), x.size, 0.0
        nz = v != 0.0
        xn, q = x[nz], (sigma - 1.0) / 3.0
        terms = v[nz] * xn ** (sigma - 1.0 - 2.0 * q) * xn ** q * xn ** q
        return terms.sum(), x.size, 5.0 * _EPS * np.abs(terms).sum()


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

    def _series_batch(self, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """series for sigma in (-1, 0), the first chunk's terms as one
        (sigma x n) matrix: the values and estimates as arrays, or None
        when that chunk misses tol."""
        zn, na = self._first_chunk
        bound = self._tail_bound(-1.0, na.size)   # >= the bound of each sigma
        if not bound <= self.tol:
            return None
        v = np.stack((zn.real, zn.imag, np.abs(zn)))
        re, im, mag = _exp_rows(-sig, np.log(na), v)
        value = re.astype(complex)
        value.imag = im
        return value, bound + 8.0 * _EPS * mag

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
        return (_Rule(("ts", delta), (lambda x: kernel_G(a, x)) if self.z == 1
                      else lambda x: _gz_near(a, zz, x)),
                _Rule(("es",), lambda x: np.exp(-a * x) / (1.0 - zz * np.exp(-x))))

    def _columns(self, sig: np.ndarray, scales: tuple[float, float],
                 tol: float) -> list[QuadResult]:
        """_refine's level loop for every sigma of the array sig and both
        rules, with scales their step factors: a column per (rule, sigma),
        and per rule a QuadResult whose value, err and levels are arrays
        over sig.  Each rule's prefix levels are one product: their joined
        v times the kept matrix of exponentials (_prefix_exp), reduced per
        level and summed over the levels, so every estimate of the prefix
        is at hand.  The estimates of both rules are one (rule, sigma,
        level) array, the shorter tanh-sinh prefix padded with nan, which
        passes no test, and each column's stop, the first level from
        _FIRST_TEST on whose estimate is within tol of the one before, is
        read off after the fact.  Only the columns without one go on, one
        level at a time (_exp_rows), up to _MAX_LEVELS.  The running sums
        add the levels in order, as _refine does, and err has _refine's
        floor of 4 eps |value|."""
        n, depth = sig.size, max(_PREFIX.values())
        prefixes = [rule.levels(_PREFIX[rule.key[0]])[:_PREFIX[rule.key[0]]]
                    for rule in self._rules]
        vs = [np.concatenate([v for _, v in levels]) for levels in prefixes]
        running = np.full((2, n, depth), math.nan, dtype=np.result_type(*vs))
        for r, (rule, v) in enumerate(zip(self._rules, vs)):
            step = max(1, _TILE // v.size)
            for i in range(0, n, step):
                e, starts = _prefix_exp(rule.key, sig[i:i + step].tobytes())
                np.add.reduceat(e * v, starts, axis=1,
                                out=running[r, i:i + step, :starts.size])
        np.add.accumulate(running, axis=2, out=running)
        est = running * np.multiply.outer(scales, 0.5 ** np.arange(depth))[:, None]
        # each column stops at its first level from _FIRST_TEST on that passes
        # the test; where none does, the levels past the prefix give its
        # value, err and level
        diff = np.abs(est[..., 1:] - est[..., :-1])
        passes = diff[..., _FIRST_TEST - 1:] <= tol
        first, at = passes.argmax(axis=2), (np.arange(2)[:, None], np.arange(n))
        levels = first + _FIRST_TEST
        value, err = est[(*at, levels)], diff[(*at, levels - 1)]
        going = ~passes[(*at, first)]
        evals = [v.size for v in vs]
        for r, rule in enumerate(self._rules if going.any() else ()):
            top, cols = _PREFIX[rule.key[0]] - 1, np.flatnonzero(going[r])
            run, prev = running[r, cols, top], est[r, cols, top]
            for level in range(top + 1, _MAX_LEVELS + 1):
                if not cols.size:
                    break
                x, level_v = rule.levels(level + 1)[level]
                evals[r] += x.size
                run = run + _exp_rows(sig[cols] - 1.0, np.log(x), level_v)
                cur = run * (scales[r] * 0.5 ** level)
                value[r, cols], err[r, cols], levels[r, cols] = cur, np.abs(cur - prev), level
                on = ~(err[r, cols] <= tol)
                cols, run, prev = cols[on], run[on], cur[on]
        err = np.maximum(err, 4.0 * _EPS * np.abs(value))
        return [QuadResult(value=value[r], err=err[r], levels=levels[r], evals=evals[r])
                for r in (0, 1)]

    def integral(self, sigma: float | np.ndarray
                 ) -> EvalResult | tuple[np.ndarray, np.ndarray]:
        """phi_integral, for a float sigma.  sigma may also be an array of
        sigma of one sign: then the level sums run as columns, each
        stopping at its own level (_columns), and the result is the
        values and estimates as arrays, unchecked for finiteness.
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
        c, delta = self._head
        qtol = 0.25 * self.tol
        # an overflow ends as inf or nan, which the finiteness check refuses
        with np.errstate(over="ignore", invalid="ignore"):
            # the sigma-only terms, kept process-wide for an array
            gam, powers, delta_sigma = (
                _sigma_table(sigma.tobytes(), delta, c.size) if many
                else _sigma_terms(sigma, delta, c.size))
            # the constant C, the head truncation bound and the closed forms
            # of what G drops, -[z = 1]/(1 - sigma) + C/sigma
            if z == 1:
                const = 0.5 - a
                # |B_n(y)|/n! <= 2.01 (2pi)^{-n}: geometric truncation bound
                ratio = delta / (2.0 * math.pi)
                head_err = (2.01 * ratio ** (c.size + 1) / delta * delta_sigma
                            / (1.0 - ratio))
                corr = -s ** (sigma - 1.0) / (1.0 - sigma)   # the 1/x part
            else:
                const = 1.0 / (1.0 - z)
                head_err = 2.0 * abs(c[-1]) * delta ** (c.size - 1 + sigma)
                corr = 0.0
            corr = corr + const * s ** sigma / sigma
            # int_0^delta G x^{sigma-1} dx, term by term from the power series
            # of G from its x^1 term: (terms,) or (sigma x terms) exponents
            head = np.einsum("...j,j->...", powers, c[1:])
            # the level loops of tanh_sinh on [delta, 1] and exp_sinh on [1, inf)
            # (the only two-way step: one sigma, or the columns of many)
            scales = (0.5 * (s - delta), 1.0)
            mid, tail = (
                self._columns(sigma, scales, qtol) if many else
                [_refine(functools.partial(rule.sum, sigma), scale, qtol, _MAX_LEVELS)
                 for rule, scale in zip(self._rules, scales)])
            value = (head + mid.value + tail.value + corr) / gam
            if z.imag == 0.0:
                value = value.real + 0.0j
            # plain sums: their rounding joins the estimate
            rounding = 4.0 * _EPS * (abs(head) + abs(mid.value)
                                     + abs(tail.value) + abs(corr))
            err = ((head_err + mid.err + tail.err + rounding) / abs(gam)
                   + 8.0 * _EPS * abs(value))
        if many:
            return value, err
        method = (Method.INTEGRAL_UNIT if z != 1 and _is_unit(z) else
                  Method.INTEGRAL_NEG if hi < 0.0 else Method.INTEGRAL_POS)
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

    def batch(self, sigmas) -> tuple[np.ndarray, np.ndarray]:
        """The values and estimates of [self(s) for s in sigmas], as a
        complex and a float array, with the sigma in (-1, 0) in one vector
        pass of the route that evaluate's rule (_takes_series) picks for
        them, which there depends on z alone.  Any other sigma, and a sigma
        whose vector value or estimate is not finite or misses tol, or whose
        series first chunk misses tol, takes the scalar call, so a batch
        raises only what a scalar call of one of its sigma raises.  The
        values agree with the scalar calls within their estimates, not bit
        for bit (module docstring, "Reuse per (a, z)")."""
        sig = np.asarray(sigmas, dtype=float)
        inner = (-1.0 < sig) & (sig < 0.0)
        # on (-1, 0) evaluate's rule depends on z alone: one route for all
        route = self._series_batch if self._takes_series(-0.5) else self.integral
        out = route(sig[inner]) if inner.any() else None
        if out is not None and inner.all():
            value, err = out
        else:
            value = np.full(sig.size, complex(math.nan))
            err = np.full(sig.size, math.nan)
            if out is not None:
                value[inner], err[inner] = out
        # _meets_tol: err <= max(tol, tol |value|)
        served = np.isfinite(value) & (err <= self.tol * np.maximum(1.0, np.abs(value)))
        for i in np.flatnonzero(~served).tolist():
            res = self(sig[i].item())
            value[i], err[i] = res.value, res.abs_err_estimate
        return value, err


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
