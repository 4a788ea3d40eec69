"""Classification of (a, z) by non-vanishing of sigma -> Phi(sigma,a,z) on
(-1,0), and location of its real zeros.

Non-vanishing holds exactly when

  [CaseI]   z = 1       and  b- <= a <= 1/2  or  b+ <= a <= 1,
            where b-+ = (3 -+ sqrt 3)/6 are the roots of x^2 - x + 1/6
  [CaseII]  z in [-1,1) and  (1-z)(1-a) <= 1
  [CaseIII] z non-real, 0 < a <= 1  (the imaginary part never vanishes)

with boundaries included.  Everywhere else a zero exists in (-1,0).  The
scanner replaces sigma -> Phi(sigma,a,z) on [-1,0] by a Chebyshev proxy
with an error bound E, sampled at Chebyshev-Lobatto points whose two ends
are the exact closed forms at sigma = -1 and sigma = 0 (what forces a
crossing whenever the endpoint values disagree in sign, even if the
interior zero sits close to an endpoint).  It scans the proxy's sign,
refines each crossing on the proxy, and polishes it on Phi itself: Phi at
the crossing and tol/2 from it, or else bisection on Phi.

The census is as complete as E is a bound: E bounds the proxy's error
when the error estimates of the sampled values are true bounds and the
proxy's coefficients keep falling off past the last ones computed
(scan_zeros).  Phi then has the proxy's sign wherever the proxy exceeds
E in size.  A zero pair closer than the spacing of the proxy's sign scan
(1/2048) could still evade it.

Each scan_zeros cell and each check_case3 call evaluates through one
per-(a, z) object of the evaluate module, so the coefficient tables, the
kernel samples and the series powers of its (a, z) are built once for all
its sigma.  The proxy's nodes of a cell, and the nine sigma of
check_case3, go through that object's vector call in one pass, which
samples the quadrature levels 0-3 in one kernel call and sums them as one
block before it goes on level by level; those values agree with a fresh
evaluate per sigma within the error estimates, not bit for bit.  The
polish and the residuals evaluate one sigma at a time through the scalar
call, which finds the levels the vector call kept and gives the bits of a
fresh evaluate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SignConstancyError, WrongPathError
from .evaluate import _Cell, special_value
# not called here: perfbench/selftest.py checks that its tracer patches this
# binding of evaluate in a module that imported it
from .evaluate import evaluate  # noqa: F401
from .kernels import _check_a, _check_z

__all__ = [
    "B2_ROOT_LOWER",
    "B2_ROOT_UPPER",
    "Region",
    "RegionVerdict",
    "ZeroReport",
    "classify",
    "scan_zeros",
    "check_case3",
]

B2_ROOT_LOWER = (3.0 - math.sqrt(3.0)) / 6.0   # 0.21132...
B2_ROOT_UPPER = (3.0 + math.sqrt(3.0)) / 6.0   # 0.78867...
_CASE3_SIGMAS = np.linspace(-0.9, -0.1, 9)
_PROXY_MIN = 16             # first Chebyshev-Lobatto degree of the sigma proxy
_PROXY_MAX = 128            # its cap; the degree doubles up to it
_SCAN_X = np.linspace(-1.0, 1.0, 2049)   # the proxy's sign scan, x = 2 sigma + 1
_SCAN_X2 = _SCAN_X + _SCAN_X
_SCAN_SIGMAS = 0.5 * (_SCAN_X - 1.0)


class Region(str, Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CASE_III = "CaseIII"
    ZERO_EXISTS = "ZeroExists"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegionVerdict:
    tag: Region
    detail: str


def _check_real_z(zr: float) -> float:
    """zr, the real part of a real z that _check_z passed, held to [-1, 1]:
    _check_z lets |z| exceed 1 by its rounding slack."""
    if zr > 1.0 or zr < -1.0:
        raise DomainError("real z must lie in [-1, 1]")
    return zr


def classify(a: float, z: complex) -> RegionVerdict:
    """Decide whether Phi(sigma,a,z) can vanish on (-1,0).

    Boundary comparisons are exact (<=), matching the closed-region
    statements: the bands [b-,1/2], [b+,1] and the set (1-z)(1-a) <= 1 are
    non-vanishing regions inclusive of their edges.
    """
    a = _check_a(a)
    z = _check_z(z)
    if z.imag != 0.0:
        return RegionVerdict(Region.CASE_III, "z is non-real")
    zr = _check_real_z(z.real)
    if zr == 1.0:
        if B2_ROOT_LOWER <= a <= 0.5:
            return RegionVerdict(Region.CASE_I, "z = 1 and a in [b-, 1/2]")
        if B2_ROOT_UPPER <= a <= 1.0:
            return RegionVerdict(Region.CASE_I, "z = 1 and a in [b+, 1]")
        return RegionVerdict(Region.ZERO_EXISTS,
                             "z = 1 and a outside [b-, 1/2] u [b+, 1]")
    prod = (1.0 - zr) * (1.0 - a)
    if prod <= 1.0:
        return RegionVerdict(Region.CASE_II,
                             f"z in [-1,1) and (1-z)(1-a) = {prod:.6g} <= 1")
    return RegionVerdict(Region.ZERO_EXISTS,
                         f"z in [-1,1) and (1-z)(1-a) = {prod:.6g} > 1")


@dataclass(frozen=True)
class ZeroReport:
    """Sign-change census of sigma -> Phi(sigma,a,z) on (-1,0) for real z."""

    a: float
    z: float
    brackets: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    value_at_neg_one: float    # Phi(-1,a,z), closed form
    value_at_zero: float       # Phi(0,a,z), closed form

    @property
    def n_brackets(self) -> int:
        return len(self.brackets)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def _bisect(f, lo: float, hi: float, sign_lo: float, tol: float) -> float:
    """Bisection on a sign-change bracket; midpoints only, so the (possibly
    closed-form) endpoints are never re-evaluated."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:   # step below float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def _cheb_table(n: int) -> np.ndarray:
    """The (n+1) x (n+1) matrix that takes values at x_k = cos(pi k/n) to
    the Chebyshev coefficients of their degree-n interpolant (a type-I
    cosine transform with halved end terms); built once per degree."""
    k = np.arange(n + 1)
    table = np.cos(np.outer(k, k) * (np.pi / n)) * (2.0 / n)
    table[:, [0, n]] *= 0.5
    table[[0, n]] *= 0.5
    return table


def _clenshaw(c, x: float) -> float:
    """sum_j c_j T_j(x)."""
    b1 = b2 = 0.0
    x2 = x + x
    for cj in c[:0:-1]:
        b1, b2 = cj + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def _clenshaw_scan(c) -> np.ndarray:
    """sum_j c_j T_j at the points of _SCAN_X: _clenshaw's operations in
    its order, on three buffers updated in place, so the values have its
    bits without a temporary array per operation."""
    n = _SCAN_X.size
    b1, b2, t = np.zeros(n), np.zeros(n), np.empty(n)
    for cj in c[:0:-1]:
        np.multiply(_SCAN_X2, b1, out=t)
        t += cj
        t -= b2
        b1, b2, t = t, b1, b2
    np.multiply(_SCAN_X, b1, out=t)
    t += c[0]
    t -= b2
    return t


def _cheb_deriv(c: list[float]) -> list[float]:
    """Chebyshev coefficients of d/dx sum_j c_j T_j(x)."""
    n = len(c) - 1
    d = [0.0] * (n + 2)
    for k in range(n, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    return d[:n]


def _proxy(cell: _Cell, phi_m1: float, phi_0: float) -> tuple[list[float], float]:
    """Chebyshev coefficients, in x = 2 sigma + 1, of the interpolant of
    Phi(., a, z) on [-1, 0] at sigma_k = (cos(pi k/n) - 1)/2, k = 0..n, and
    its error bound E.

    The ends are the closed forms; the interior nodes take one vector call.
    n starts at _PROXY_MIN and doubles, so the nodes nest and only the new
    ones are evaluated, while the last two coefficients are above the
    accuracy every value meets (max(tol, tol |Phi|)), up to _PROXY_MAX.
    E is those two coefficients plus a bound on the Lebesgue constant of
    the nodes, 1 + (2/pi) log(n + 1), times the largest abs_err_estimate.
    """
    vals, err, n = np.array([phi_0, phi_m1]), 0.0, _PROXY_MIN
    while True:
        k = np.arange(n + 1)
        new = k % (n // (vals.size - 1)) != 0
        res = cell.batch(0.5 * (np.cos(k[new] * (np.pi / n)) - 1.0))
        full = np.empty(n + 1)
        full[~new] = vals
        full[new] = [r.value.real for r in res]
        vals = full
        err = max([err] + [r.abs_err_estimate for r in res])
        c = np.einsum("jk,k->j", _cheb_table(n), vals)
        tail = abs(c[-2]) + abs(c[-1])
        if n == _PROXY_MAX or tail <= cell.tol * max(1.0, np.abs(vals).max()):
            break
        n *= 2
    lebesgue = 1.0 + 2.0 / math.pi * math.log(n + 1)
    return c.tolist(), float(tail + lebesgue * err)


def scan_zeros(a: float, z: float, tol: float = 1e-10) -> ZeroReport:
    """Locate the real zeros of sigma -> Phi(sigma,a,z) on (-1,0).

    tol is one tolerance for both the values and the roots: each value
    is evaluated to it, and each root is bisected until its bracket, a
    sign change of the computed Phi, is narrower.  Where |Phi'| is small
    against the error estimates, as next to boundary [II], that sign
    change can sit up to about abs_err_estimate/|Phi'| from Phi's root:
    about 2.5e-10 at a = 1/3 - 1e-4, z = -0.5.

    z must be real (Phi is real-valued there); non-real z never has real
    zeros on (-1,0) and belongs to check_case3.  Phi(., a, z) is replaced
    by a Chebyshev proxy p on [-1, 0] (_proxy: degree 16 unless its
    coefficients ask for more, the 15 nodes inside (-1, 0) in one vector
    call) with error bound E.
    The sign of p is scanned on 2049 equally spaced sigma, with the exact
    closed forms at sigma = -1 and 0 as the end signs, so a crossing is
    forced whenever they disagree; exact zeros (possible only for the
    closed forms, e.g. Phi(-1, 1/2, -1) = 0) carry no sign.  Each crossing
    r is refined on p to tol/4, then polished on the true Phi.  First Phi
    is evaluated at r and at r + tol/2 or r - tol/2, on the side where the
    sign of Phi(r) puts the root; when the two differ in sign, r is the
    root, the two points its bracket and |Phi(r)| its residual.  Otherwise
    (or when Phi(r) = 0, or the second point leaves r's share of (-1, 0),
    which ends half way to a neighbouring crossing) a bracket of
    half-width max(tol/2, 2E/|p'|) about r, widened within that share
    until its ends differ in sign, is bisected to tol, and Phi is
    evaluated at the midpoint for its residual.  A crossing whose bracket
    never changes sign is dropped.  The brackets reported are those
    sign-change brackets of the computed Phi; nothing is reported from p
    alone.

    E bounds |Phi - p| on [-1, 0] if the abs_err_estimates bound the true
    errors and the coefficients past the last two fall off at least as
    fast as those two did (they decay geometrically, Phi being entire in
    sigma for z != 1 and analytic past sigma = 1 for z = 1).  Then Phi has
    the sign of p wherever |p| > E, and every zero of Phi lies where
    |p| <= E.  The scan can still miss a pair of crossings of p closer
    than its spacing, 1/2048.

    The proxy, the polish and the residuals share one per-(a, z) object,
    so what does not depend on sigma is built once per cell.  The polish
    and the residuals make scalar calls: two per root when the first
    bracket holds, as it did for every root of 900 census cells and of
    the 190-cell acceptance census at tol = 1e-10; 3 to 10 where the
    polish falls back, as next to boundary [II], where |Phi'| is small
    against the error estimates.
    """
    a = _check_a(a)
    zc = complex(z)
    if zc.imag != 0.0:
        raise WrongPathError("scan_zeros requires real z; use check_case3")
    _check_z(zc)
    zr = _check_real_z(zc.real)

    cell = _Cell(a, zr, tol)
    phi_m1 = special_value(-1, a, zr).real
    phi_0 = special_value(0, a, zr).real
    ends = {-1.0: phi_m1, 0.0: phi_0}

    def f(sig: float) -> float:   # the closed forms at the ends
        return ends[sig] if sig in ends else cell(sig).value.real

    c, bound = _proxy(cell, phi_m1, phi_0)

    def p(sig: float) -> float:
        return _clenshaw(c, 2.0 * sig + 1.0)

    # crossings of p on the scan grid, refined on p
    scan = _clenshaw_scan(c)
    scan[0], scan[-1] = phi_m1, phi_0
    signed = np.flatnonzero(scan)
    signs = np.sign(scan[signed])
    flip = np.flatnonzero(signs[1:] != signs[:-1])
    crossings = [(_bisect(p, lo, hi, sign_lo, 0.25 * tol), sign_lo)
                 for lo, hi, sign_lo in zip(_SCAN_SIGMAS[signed[flip]].tolist(),
                                            _SCAN_SIGMAS[signed[flip + 1]].tolist(),
                                            signs[flip].tolist())]

    # each crossing polished on Phi inside its share of (-1, 0)
    brackets: list[tuple[float, float]] = []
    roots: list[float] = []
    residuals: list[float] = []
    for i, (r, sign_lo) in enumerate(crossings):
        left = 0.5 * (crossings[i - 1][0] + r) if i else -1.0
        right = 0.5 * (r + crossings[i + 1][0]) if i + 1 < len(crossings) else 0.0
        # first r and the point tol/2 from it on the side where the sign of
        # Phi(r) puts the root: a sign change there brackets the root
        f_r = f(r)
        s = r + math.copysign(0.5 * tol, f_r * sign_lo)
        if f_r != 0.0 and left <= s <= right:
            f_s = f(s)
            if f_s != 0.0 and (f_s < 0.0) != (f_r < 0.0):
                brackets.append((min(r, s), max(r, s)))
                roots.append(r)
                residuals.append(abs(f_r))
                continue
        # else a bracket sized by the proxy's bound, widened and bisected
        slope = abs(2.0 * _clenshaw(_cheb_deriv(c), 2.0 * r + 1.0))
        half = max(0.5 * tol, 2.0 * bound / slope) if slope > 0.0 else 1.0
        while True:
            lo, hi = max(left, r - half), min(right, r + half)
            f_lo, f_hi = f(lo), f(hi)
            changes = f_lo != 0.0 != f_hi and (f_lo < 0.0) != (f_hi < 0.0)
            if changes or (lo, hi) == (left, right):
                break
            half *= 2.0
        if changes:
            root = _bisect(f, lo, hi, math.copysign(1.0, f_lo), tol)
            brackets.append((lo, hi))
            roots.append(root)
            residuals.append(abs(f(root)))

    return ZeroReport(a=a, z=zr, brackets=tuple(brackets), roots=tuple(roots),
                      residuals=tuple(residuals),
                      value_at_neg_one=phi_m1, value_at_zero=phi_0)


def check_case3(a: float, r: float, theta: float,
                tol: float = 1e-10) -> float:
    """Non-vanishing evidence for non-real z = r e^{i theta}: evaluates
    Phi at sigma = -0.9, -0.8, ..., -0.1 and demands that Im Phi keeps one
    sign and exceeds its error estimate everywhere.  Returns min |Im Phi|;
    raises SignConstancyError on any violation.  Each value is evaluated
    to tol, all nine in one vector call of one per-(a, z) object.
    """
    a = _check_a(a)
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"radius must lie in (0,1], got {r}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    if abs(math.sin(theta)) < 1e-12:
        raise DomainError("theta gives a real z; use scan_zeros")
    z = complex(r * math.cos(theta), r * math.sin(theta))
    cell = _Cell(a, z, tol)
    ims: list[float] = []
    for sig, res in zip(_CASE3_SIGMAS, cell.batch(_CASE3_SIGMAS)):
        im = res.value.imag
        if abs(im) <= res.abs_err_estimate:
            raise SignConstancyError(
                f"|Im Phi({sig},{a},{z})| = {abs(im):.3e} does not exceed "
                f"its error estimate {res.abs_err_estimate:.3e}")
        ims.append(im)
    signs = {math.copysign(1.0, v) for v in ims}
    if len(signs) != 1:
        raise SignConstancyError(
            f"Im Phi changes sign over the sigma grid for a={a}, z={z}")
    return min(abs(v) for v in ims)

