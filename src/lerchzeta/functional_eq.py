"""Exponential-sum sides of the functional equations, plus numeric checks
of the partial-fraction kernel expansions and the power/Mellin contour
identity they rest on.

For -1 < sigma < 0 and 0 < a < 1:

  zeta(s,a) = (-pi i)(2pi)^{s-1} / (Gamma(s) sin pi s)
              * [ e^{pi i s/2} sum_{n>=1} e^{2pi i n a} n^{s-1}
                - e^{-pi i s/2} sum_{n>=1} e^{-2pi i n a} n^{s-1} ]

  Phi(s,a,z) = z^{-a} Gamma(1-s)
               * sum_{n=-inf}^{inf} (-log z + 2pi i n)^{s-1} e^{2pi i n a}

with every power on the principal branch (all bases have Re >= 0 for
|z| <= 1, so the branch is continuous there).  The bilateral sum is taken
as the symmetric limit.

The raw sums converge like N^sigma, far too slowly on their own, so the
tails are summed by iterated Abel summation: with q on the unit circle and
g smooth,

  sum_{n>N} q^n g(n) = [q^{N+1} g(N+1) + sum_{n>N+1} q^n (g(n)-g(n-1))]/(1-q),

applied _TAIL_DEPTH = 6 times past N = _N_MAX = 4096 terms (bilateral
sums run over -N..N).  Each application shrinks the tail by roughly
|g'/g| / |1-q| ~ 1/(N |1-q|), so a handful of terms reaches near machine
accuracy for a away from the integers.

The 2N + 1 terms of the bilateral core are summed in real polar form:
|base|^{s-1} times the cosine and the sine of (s-1) arg(base) + 2 pi n a.
That takes one real power, one arctan2, one cosine and one sine per term
instead of a complex power and a complex exponential.
"""
from __future__ import annotations

import cmath
import math
from math import comb, fsum

import numpy as np

from .errors import DomainError
from .evaluate import EvalResult, Method
from .kernels import _check_a, _check_z, kernel_G, kernel_Gz
from .quadrature import tanh_sinh
from .special import gamma_real, principal_log

__all__ = [
    "zeta_fe_rhs",
    "phi_fe_rhs",
    "verify_kernel_expansion_z1",
    "verify_kernel_expansion_zne1",
    "verify_mellin_identity",
]

_TWO_PI = 2.0 * math.pi
_N_MAX = 4096       # one-sided term count of the sums
_TAIL_DEPTH = 6     # Abel iterations on the tail: error ~ (N |1-q|)^-6


def _abel_tail(q: complex, g) -> tuple[complex, float]:
    """sum_{n > _N_MAX} q^n g(n) for |q| = 1, q != 1, by iterated Abel
    summation.  g maps a float array of indices to complex values.  Returns
    (tail, error_bound); the bound comes from the last difference."""
    vals = g(np.arange(_N_MAX + 1, _N_MAX + _TAIL_DEPTH + 2, dtype=float))
    inv = 1.0 / (1.0 - q)
    total = 0.0 + 0.0j
    qpow = q ** (_N_MAX + 1)
    fac = inv
    for j in range(_TAIL_DEPTH + 1):
        dj = 0.0 + 0.0j
        for i in range(j + 1):
            dj += (-1) ** i * comb(j, i) * vals[j - i]
        if j < _TAIL_DEPTH:
            total += qpow * dj * fac
            qpow *= q
            fac *= inv
    err = 2.0 * abs(dj) * abs(inv) ** (_TAIL_DEPTH + 1)
    return total, err


def _check_open_a(a: float) -> float:
    a = _check_a(a)
    if a == 1.0:
        raise DomainError("the functional-equation sums require 0 < a < 1")
    return a


def _check_sigma_neg(sigma: float) -> float:
    sigma = float(sigma)
    if not -1.0 < sigma < 0.0:
        raise DomainError(f"sigma must lie in (-1,0), got {sigma}")
    return sigma


def zeta_fe_rhs(sigma: float, a: float) -> EvalResult:
    """Exponential-sum side of the zeta functional equation on (-1,0).

    The two sums are complex conjugates for real sigma, so only one is
    computed; the result is real up to roundoff and returned with its
    residual imaginary part intact (callers may check it).  The error
    estimate adds the Abel-tail bound and 16 eps sum_n n^{sigma-1}, the
    rounding of the terms, which does not shrink when the sum cancels.
    """
    sigma = _check_sigma_neg(sigma)
    a = _check_open_a(a)
    n = np.arange(1, _N_MAX + 1, dtype=float)
    mag = n ** (sigma - 1.0)
    s_plus = complex(np.sum(np.exp(2j * math.pi * a * n) * mag))
    q = cmath.exp(2j * math.pi * a)
    tail, tail_err = _abel_tail(q, lambda m: m ** (sigma - 1.0))
    s_plus += tail
    s_minus = s_plus.conjugate()
    pref = (-math.pi * 1j) * _TWO_PI ** (sigma - 1.0) \
        / (gamma_real(sigma) * math.sin(math.pi * sigma))
    value = pref * (cmath.exp(0.5j * math.pi * sigma) * s_plus
                    - cmath.exp(-0.5j * math.pi * sigma) * s_minus)
    err = 2.0 * abs(pref) * (tail_err
                             + 16.0 * np.finfo(float).eps * float(np.sum(mag)))
    return EvalResult(value, float(err), Method.FUNCTIONAL_EQ)


def phi_fe_rhs(sigma: float, a: float, z: complex) -> EvalResult:
    """Bilateral exponential-sum side of the Phi functional equation.

    z^{-a} Gamma(1-s) sum_{|n| <= 4096} (-log z + 2pi i n)^{s-1} e^{2pi i n a},
    principal branch throughout, symmetric truncation, Abel-corrected tails
    on both sides.  The core is summed in real polar form.  The error
    estimate adds the two Abel-tail bounds and 16 eps times the sum of the
    term magnitudes.
    """
    sigma = _check_sigma_neg(sigma)
    a = _check_open_a(a)
    z = _check_z(z)
    if z == 1:
        raise DomainError("z = 1 makes the n = 0 term singular; use zeta_fe_rhs")
    log_z = principal_log(z)
    n = np.arange(-_N_MAX, _N_MAX + 1, dtype=float)
    # (-log z + 2 pi i n)^{s-1} e^{2 pi i n a} in real polar form: the
    # bases have Re = -log|z| >= 0, so arctan2 is the principal argument;
    # a n is taken mod 1 first, so the two angles add without the rounding
    # of a sum near 2 pi a N
    re = -log_z.real
    im = _TWO_PI * n - log_z.imag
    mag = (re * re + im * im) ** (0.5 * (sigma - 1.0))
    turns = a * n
    turns -= np.rint(turns)
    phase = (sigma - 1.0) * np.arctan2(im, re) + _TWO_PI * turns
    core = complex(float(np.sum(mag * np.cos(phase))),
                   float(np.sum(mag * np.sin(phase))))
    q_pos = cmath.exp(2j * math.pi * a)
    q_neg = q_pos.conjugate()
    t_pos, e_pos = _abel_tail(
        q_pos, lambda m: (2j * math.pi * m - log_z) ** (sigma - 1.0))
    t_neg, e_neg = _abel_tail(
        q_neg, lambda m: (-2j * math.pi * m - log_z) ** (sigma - 1.0))
    core += t_pos + t_neg
    za = cmath.exp(-a * log_z)
    gam = math.gamma(1.0 - sigma)
    value = za * gam * core
    err = abs(za) * gam * (e_pos + e_neg
                           + 16.0 * np.finfo(float).eps * float(np.sum(mag)))
    return EvalResult(complex(value), float(err), Method.FUNCTIONAL_EQ)


# --------------------------------------------------------------------------
# expansion / contour-identity checks
# --------------------------------------------------------------------------

def verify_kernel_expansion_z1(a: float, x: float, n_max: int
                               ) -> tuple[float, float]:
    """Symmetric truncation of the partial-fraction expansion of G(a,x),

        sum_{n=1}^{N} [ x e^{-2pi i n a} / (2pi i n (x - 2pi i n))
                      - x e^{2pi i n a} / (2pi i n (x + 2pi i n)) ],

    against kernel_G(a,x).  The +-n terms are conjugate, so each pair is
    real; the truncation error oscillates under an O(1/N) envelope.
    Returns (truncated_sum, reference)."""
    a = _check_a(a)
    x = float(x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    n = np.arange(1, int(n_max) + 1, dtype=float)
    first = x * np.exp(-2j * math.pi * n * a) / (2j * math.pi * n * (x - 2j * math.pi * n))
    total = 2.0 * float(np.sum(first.real))
    return total, float(kernel_G(a, x))


def verify_kernel_expansion_zne1(a: float, z: complex, x: float, n_max: int
                                 ) -> tuple[complex, complex]:
    """Symmetric truncation of

        sum_{|n| <= N} x z^{-a} e^{-2pi i n a}
                       / ((2pi i n + log z)(x - 2pi i n - log z))

    against kernel_Gz(a,z,x).  Returns (truncated_sum, reference)."""
    a = _check_a(a)
    z = _check_z(z)
    if z == 1:
        raise DomainError("z = 1 belongs to verify_kernel_expansion_z1")
    x = float(x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    log_z = principal_log(z)
    n = np.arange(-int(n_max), int(n_max) + 1, dtype=float)
    den = (2j * math.pi * n + log_z) * (x - 2j * math.pi * n - log_z)
    za = cmath.exp(-a * log_z)
    terms = x * za * np.exp(-2j * math.pi * n * a) / den
    return complex(np.sum(terms)), complex(kernel_Gz(a, z, x))


def verify_mellin_identity(sigma: float, w: complex
                           ) -> tuple[complex, complex]:
    """Both sides of  int_0^inf x^sigma/(x - w) dx
                        = 2 pi i w^sigma / (1 - e^{2 pi i sigma})
    for -1 < sigma < 0 and w off the nonnegative real axis.

    The left side is quadrature: a geometric head series on (0, |w|/2],
    tanh-sinh on [|w|/2, 2|w|], and a geometric tail series on [2|w|, inf).
    The right side uses the branch arg w in (0, 2pi) -- the branch cut lies
    along the integration ray, so for Im w < 0 this differs from the
    principal value by e^{2 pi i sigma}.
    Returns (lhs, rhs)."""
    sigma = _check_sigma_neg(sigma)
    w = complex(w)
    if w == 0 or (w.imag == 0.0 and w.real >= 0.0):
        raise DomainError("w on the nonnegative real axis puts a "
                          "non-integrable pole on the contour")
    r = abs(w)
    delta, big = 0.5 * r, 2.0 * r
    n_geo = 80
    # head: 1/(x-w) = -sum_k x^k / w^{k+1} for |x| < |w|
    head_terms = []
    wpow = w
    for k in range(n_geo):
        head_terms.append(-delta ** (sigma + k + 1.0) / ((sigma + k + 1.0) * wpow))
        wpow *= w
    head = complex(fsum(t.real for t in head_terms),
                   fsum(t.imag for t in head_terms))
    mid = tanh_sinh(lambda x: x ** sigma / (x - w), delta, big,
                    tol=1e-13, max_levels=12)
    # tail: 1/(x-w) = sum_k w^k / x^{k+1} for |x| > |w|
    tail_terms = []
    wpow = 1.0 + 0.0j
    for k in range(n_geo):
        tail_terms.append(wpow * big ** (sigma - k) / (k - sigma))
        wpow *= w
    tail = complex(fsum(t.real for t in tail_terms),
                   fsum(t.imag for t in tail_terms))
    lhs = head + mid.value + tail
    theta = math.atan2(w.imag, w.real)
    if theta <= 0.0:
        theta += _TWO_PI
    w_pow_cut = cmath.exp(sigma * complex(math.log(r), theta))
    rhs = 2j * math.pi * w_pow_cut / (1.0 - cmath.exp(2j * math.pi * sigma))
    return lhs, rhs
