"""Classification of (a, z) by non-vanishing of sigma -> Phi(sigma,a,z) on
(-1,0), and location of its real zeros.

Non-vanishing holds exactly when

  [CaseI]   z = 1       and  b- <= a <= 1/2  or  b+ <= a <= 1,
            where b-+ = (3 -+ sqrt 3)/6 are the roots of x^2 - x + 1/6
  [CaseII]  z in [-1,1) and  (1-z)(1-a) <= 1
  [CaseIII] z non-real, 0 < a <= 1  (the imaginary part never vanishes)

with boundaries included.  Everywhere else a zero exists in (-1,0); the
scanner locates sign changes on a sigma grid augmented by the exact closed
forms at sigma = 0 and sigma = -1 (which is what forces a bracket whenever
the endpoint values disagree in sign, even if the interior zero sits close
to an endpoint), then refines each bracket by bisection.

The scan is a census at grid resolution: it reports what it finds and does
not assert completeness (a zero pair closer than the grid step could evade
it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SignConstancyError, WrongPathError
from .evaluate import QuadConfig, evaluate, special_value
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
    zr = z.real
    if zr == 1.0:
        if B2_ROOT_LOWER <= a <= 0.5:
            return RegionVerdict(Region.CASE_I, "z = 1 and a in [b-, 1/2]")
        if B2_ROOT_UPPER <= a <= 1.0:
            return RegionVerdict(Region.CASE_I, "z = 1 and a in [b+, 1]")
        return RegionVerdict(Region.ZERO_EXISTS,
                             "z = 1 and a outside [b-, 1/2] u [b+, 1]")
    if zr > 1.0:
        raise DomainError("real z must lie in [-1, 1]")
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
    grid_step: float
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


def scan_zeros(a: float, z: float, grid_step: float = 0.005,
               cfg: QuadConfig | None = None) -> ZeroReport:
    """Bracket and refine the real zeros of sigma -> Phi(sigma,a,z) on (-1,0).

    cfg.tol is one tolerance for both the values and the roots: each value
    is evaluated to it, and bisection stops once a bracket is narrower.

    z must be real (Phi is real-valued there); non-real z never has real
    zeros on (-1,0) and belongs to check_case3.  The interior grid runs from
    -1 + grid_step/2 to -grid_step/2; the exact closed forms at sigma = -1
    and sigma = 0 are prepended/appended as sign anchors.  Exact zeros
    (possible only for the closed forms, e.g. Phi(-1, 1/2, -1) = 0) carry no
    sign and never seed a bracket.
    """
    a = _check_a(a)
    zc = complex(z)
    if zc.imag != 0.0:
        raise WrongPathError("scan_zeros requires real z; use check_case3")
    zr = zc.real
    _check_z(zc)
    if zr > 1.0 or zr < -1.0:
        raise DomainError("real z must lie in [-1, 1]")
    grid_step = float(grid_step)
    if not 0.0 < grid_step <= 0.01:
        raise DomainError("grid_step must lie in (0, 0.01]")
    cfg = cfg or QuadConfig()

    eps = 0.5 * grid_step
    count = int(round((1.0 - grid_step) / grid_step)) + 1
    interior = -1.0 + eps + grid_step * np.arange(count)
    # steps that do not divide the interval can overshoot -eps; stay interior
    interior = interior[interior < -1e-9]

    def f(sig: float) -> float:
        return evaluate(sig, a, zr, cfg).value.real

    phi_m1 = special_value(-1, a, zr).real
    phi_0 = special_value(0, a, zr).real
    sig_pts = [-1.0] + [float(s) for s in interior] + [0.0]
    vals = [phi_m1] + [f(s) for s in interior] + [phi_0]

    brackets: list[tuple[float, float]] = []
    bracket_signs: list[float] = []
    prev_i = None
    for i, v in enumerate(vals):
        if v == 0.0:
            continue
        if prev_i is not None and math.copysign(1.0, v) != math.copysign(1.0, vals[prev_i]):
            brackets.append((sig_pts[prev_i], sig_pts[i]))
            bracket_signs.append(math.copysign(1.0, vals[prev_i]))
        prev_i = i

    roots: list[float] = []
    residuals: list[float] = []
    for (lo, hi), sign_lo in zip(brackets, bracket_signs):
        root = _bisect(f, lo, hi, sign_lo, cfg.tol)
        roots.append(root)
        residuals.append(abs(f(root)))

    return ZeroReport(a=a, z=zr, grid_step=grid_step,
                      brackets=tuple(brackets), roots=tuple(roots),
                      residuals=tuple(residuals),
                      value_at_neg_one=phi_m1, value_at_zero=phi_0)


def check_case3(a: float, r: float, theta: float,
                cfg: QuadConfig | None = None) -> float:
    """Non-vanishing evidence for non-real z = r e^{i theta}: evaluates
    Phi at sigma = -0.9, -0.8, ..., -0.1 and demands that Im Phi keeps one
    sign and exceeds its error estimate everywhere.  Returns min |Im Phi|;
    raises SignConstancyError on any violation.
    """
    a = _check_a(a)
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"radius must lie in (0,1], got {r}")
    if abs(math.sin(theta)) < 1e-12:
        raise DomainError("theta gives a real z; use scan_zeros")
    z = complex(r * math.cos(theta), r * math.sin(theta))
    cfg = cfg or QuadConfig()
    ims: list[float] = []
    for sig in _CASE3_SIGMAS:
        res = evaluate(float(sig), a, z, cfg)
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

