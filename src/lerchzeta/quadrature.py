"""Double-exponential quadrature: tanh-sinh on finite intervals and
exp-sinh on half-infinite ones.

Both rules refine by halving the trapezoidal step h in the transformed
variable; the node set at level L contains every earlier level, so each
refinement only evaluates the integrand at the new (odd-index) abscissas.
The reported error is the difference of the last two levels, floored at a
few ulps of the result, and is an estimate rather than a rigorous bound.

Each rule is a node table per level (_ts_table, _es_level_nodes) and the
level loop _refine, which asks for the weighted sum of a level by number; a
caller with many integrands on one interval keeps per-level arrays of its own.

Integrands are called with a numpy array of abscissas and must return an
array (real or complex).  Endpoint singularities are never evaluated: the
finite-interval abscissas are computed as offsets from the endpoints, so
they stay strictly inside the interval for the level range used here.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadResult", "tanh_sinh", "exp_sinh"]

_HALF_PI = 0.5 * math.pi
_EPS = float(np.finfo(float).eps)

# Transformed-variable cutoffs.  tanh-sinh at |t| = 4 puts nodes within
# exp(-pi*sinh(4)) ~ 1e-37 of the endpoints with weights below 1e-35;
# exp-sinh at t = 4.5 reaches x - a ~ 5e30, far past any exponential decay
# scale used in this package.
_TS_TMAX = 4.0
_ES_TNEG = 4.0
_ES_TPOS = 4.5


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err: float
    levels: int
    evals: int


def _sigmoid(y: np.ndarray) -> np.ndarray:
    # 1/(1+e^-y) without overflow on either side
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


@functools.cache
def _ts_level_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New tanh-sinh nodes at this level: (sig, one_minus_sig, weight) where
    x = a + (b-a)*sig and sig = (1 + tanh((pi/2) sinh t))/2."""
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(-int(_TS_TMAX / h), int(_TS_TMAX / h) + 1) * h
    else:
        k = np.arange(1, int(_TS_TMAX / h) + 1, 2)
        t = np.concatenate([-k[::-1] * h, k * h])
    v = _HALF_PI * np.sinh(t)
    sig = _sigmoid(2.0 * v)
    # complementary sigmoid computed directly: 1.0 - sig would round at
    # ulp(1) and lose the double-exponential approach to the right endpoint
    om_sig = _sigmoid(-2.0 * v)
    w = _HALF_PI * np.cosh(t) / np.cosh(v) ** 2
    return sig, om_sig, w


@functools.cache
def _es_level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """New exp-sinh nodes at this level: (offset, weight), x = a + offset on
    [a, inf) for any a."""
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(-int(_ES_TNEG / h), int(_ES_TPOS / h) + 1) * h
    else:
        kneg = np.arange(1, int(_ES_TNEG / h) + 1, 2)
        kpos = np.arange(1, int(_ES_TPOS / h) + 1, 2)
        t = np.concatenate([-kneg[::-1] * h, kpos * h])
    v = _HALF_PI * np.sinh(t)
    offset = np.exp(v)
    w = _HALF_PI * np.cosh(t) * offset
    return offset, w


def _ts_table(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """New tanh-sinh nodes at this level on [a, b]: (x, weight)."""
    sig, om_sig, w = _ts_level_nodes(level)
    # each abscissa from its nearer endpoint (exact when that endpoint is 0);
    # nodes that still round onto an endpoint are dropped, not evaluated
    x = np.where(sig <= 0.5, a + (b - a) * sig, b - (b - a) * om_sig)
    keep = (x > a) & (x < b)
    return x[keep], w[keep]


def _refine(level_sum: Callable[[int], tuple[complex, int]], scale: float,
            tol: float, max_levels: int) -> QuadResult:
    """The level loop both rules share.  level_sum(level) returns the
    weighted integrand sum over the new nodes of that level and their count;
    the estimate at step h = 2^-level is scale * h times the running sum."""
    running = 0.0 + 0.0j
    prev = None
    value = 0.0 + 0.0j
    err = math.inf
    evals = 0
    level = 0
    for level in range(max_levels + 1):
        total, count = level_sum(level)
        running = running + total
        evals += count
        value = running * (2.0 ** (-level) * scale)
        if prev is not None and level >= 3:
            err = abs(value - prev)
            if err <= tol:
                break
        prev = value
    err = max(err, 4.0 * _EPS * abs(value))
    return QuadResult(value=complex(value), err=float(err),
                      levels=level, evals=evals)


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              tol: float = 1e-11, max_levels: int = 11) -> QuadResult:
    """Integrate f over the finite interval [a, b].

    Abscissas approach the endpoints double-exponentially, so moderate
    integrable endpoint singularities (x^p with p >= -1/2, logarithms) are
    handled at full accuracy.  Deeper algebraic singularities lose mass to
    the binary64 endpoint resolution; the evaluator module peels those off
    analytically before calling this rule.
    """
    if not b > a:
        raise ValueError("tanh_sinh requires b > a")

    def level_sum(level: int) -> tuple[complex, int]:
        x, w = _ts_table(a, b, level)
        return (f(x) * w).sum(), x.size

    # dx/dt = (b-a) w / 2 since sig'(t) = (pi/4) cosh t / cosh^2 v
    return _refine(level_sum, 0.5 * (b - a), tol, max_levels)


def exp_sinh(f: Callable[[np.ndarray], np.ndarray], a: float,
             tol: float = 1e-11, max_levels: int = 11) -> QuadResult:
    """Integrate f over [a, inf) for integrands with (at least) exponential
    decay."""
    def level_sum(level: int) -> tuple[complex, int]:
        offset, w = _es_level_nodes(level)
        return (f(a + offset) * w).sum(), offset.size

    return _refine(level_sum, 1.0, tol, max_levels)
