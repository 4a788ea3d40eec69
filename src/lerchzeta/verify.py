"""Named verification suites: each runs a batch of checks with pinned
tolerances and returns structured results.  The suites take no arguments:
every route runs at its default tol of 1e-10.  The CLI `verify` subcommand
and the acceptance tests both drive these.

Suites:
  fe          phi_integral vs the exponential-sum functional equations on
              the sigma x a grid crossed with z in {1, -1, i, 1/2,
              e^{2 pi i/3}}, residual <= 1e-6 per cell; conjugation sanity
              of the z != 1 sum.
  signs       zeta(sigma,a) keeps one sign on (-1,0) x [b-,1/2] (positive)
              and on (-1,0) x [b+,1] (negative), every value above its own
              error estimate; both signs occur between the bands.
  kernels     truncation of the partial-fraction kernel expansions at least
              halves when N doubles (envelope over a window of N, since the
              pointwise error oscillates under its O(1/N) bound); the
              power/Mellin contour identity at three reference w.
  identities  the six L/zeta/polylog relations at sigma = 2.5 and 1.5 for
              q = 3, 4; L(2, chi_4) against the direct series with its
              residue-class tails, within 1e-13; sign constancy of
              L(sigma, chi) on (-1,0) for the real primitive characters;
              Gauss-sum moduli.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evaluate import phi_integral
from .functional_eq import (phi_fe_rhs, verify_kernel_expansion_z1,
                            verify_kernel_expansion_zne1, verify_mellin_identity,
                            zeta_fe_rhs)
from .identities import (builtin_characters, dirichlet_L, dirichlet_L_series,
                         gauss_sum, verify_six_relations)
from .zeros import B2_ROOT_LOWER, B2_ROOT_UPPER

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names"]

FE_SIGMAS = (-0.9, -0.7, -0.5, -0.3, -0.1)
FE_AS = tuple(round(0.1 * k, 1) for k in range(1, 10))
FE_ZS = (
    ("z=1", complex(1.0, 0.0)),
    ("z=-1", complex(-1.0, 0.0)),
    ("z=i", complex(0.0, 1.0)),
    ("z=0.5", complex(0.5, 0.0)),
    ("z=exp(2pi*i/3)", cmath.exp(2j * math.pi / 3)),
)
MELLIN_WS = (2j * math.pi, -2j * math.pi, 2j * math.pi + math.log(0.5))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}: measured={self.measured:.3e} bound={self.bound:.3e}"
        return out + (f"  ({self.note})" if self.note else "")


def suite_fe() -> list[CheckResult]:
    results = []
    for zname, z in FE_ZS:
        worst = 0.0
        for sig in FE_SIGMAS:
            for a in FE_AS:
                lhs = phi_integral(sig, a, z).value
                if z == 1:
                    rhs = zeta_fe_rhs(sig, a).value
                else:
                    rhs = phi_fe_rhs(sig, a, z).value
                worst = max(worst, abs(lhs - rhs))
        results.append(CheckResult(f"functional equation, {zname}",
                                   worst <= 1e-6, worst, 1e-6))
    # conjugation: replacing z by conj(z) conjugates every summand
    worst = 0.0
    for (sig, a, z) in ((-0.5, 0.3, complex(0.0, 1.0)),
                        (-0.7, 0.6, cmath.exp(2j * math.pi / 3)),
                        (-0.3, 0.8, complex(0.4, -0.7))):
        v = phi_fe_rhs(sig, a, z).value
        vc = phi_fe_rhs(sig, a, z.conjugate()).value
        worst = max(worst, abs(vc - v.conjugate()))
    results.append(CheckResult("functional equation conjugation symmetry",
                               worst <= 1e-10, worst, 1e-10))
    return results


def suite_signs() -> list[CheckResult]:
    sig_grid = np.linspace(-0.95, -0.05, 10)
    results = []
    for band, a_lo, a_hi, want in (("lower", B2_ROOT_LOWER, 0.5, 1.0),
                                   ("upper", B2_ROOT_UPPER, 1.0, -1.0)):
        a_grid = np.linspace(a_lo, a_hi, 10)
        margin = math.inf
        for a in a_grid:
            for sig in sig_grid:
                res = phi_integral(sig, a, 1.0)
                margin = min(margin, want * res.value.real - res.abs_err_estimate)
        results.append(CheckResult(
            f"zeta sign constancy, {band} band "
            f"({'> 0' if want > 0 else '< 0'})",
            margin > 0.0, margin, 0.0,
            note="min over 10x10 grid of sign*value - err"))
    # between the bands both signs occur as sigma sweeps (a = 0.6)
    vals = [phi_integral(s, 0.6, 1.0).value.real
            for s in sig_grid]
    vals += [0.5 - 0.6, -0.5 * (0.6 ** 2 - 0.6 + 1.0 / 6.0)]  # sigma = 0, -1
    has_both = (min(vals) < 0.0) and (max(vals) > 0.0)
    results.append(CheckResult("both signs between the bands (a = 0.6)",
                               has_both, float(min(vals) * max(vals)), 0.0,
                               note="product of extremes must be < 0"))
    return results


def _envelope_err(expansion, n: int) -> float:
    """Largest |partial sum - kernel| over the truncations m = n-7..n, where
    expansion(m) returns that pair."""
    return max(abs(s - ref) for s, ref in map(expansion, range(n - 7, n + 1)))


def suite_kernels() -> list[CheckResult]:
    results = []
    # doubling N must at least halve the truncation error (20% slack);
    # measured on a window envelope because the pointwise error oscillates
    min_ratio = 2.0 / 1.2
    worst = math.inf
    for a, x in ((0.5, 1.0), (0.25, 0.1), (0.3, 1.0), (0.9, 2.0), (0.123, 0.7)):
        expansion = partial(verify_kernel_expansion_z1, a, x)
        worst = min(worst, _envelope_err(expansion, 2 ** 12)
                    / _envelope_err(expansion, 2 ** 13))
    results.append(CheckResult(
        "kernel expansion decay (z = 1), envelope ratio N -> 2N",
        worst >= min_ratio, worst, min_ratio,
        note="ratio must be at least 2/1.2; measured ~4 (N^-2 envelope)"))
    worst = math.inf
    for a, z, x in ((0.5, complex(-1.0), 1.0),
                    (0.5, complex(0.0, 1.0), 1.0),
                    (0.25, complex(0.5), 0.3),
                    (0.8, cmath.exp(2j * math.pi / 3), 1.5),
                    (0.35, complex(0.0, -0.9), 0.7)):
        expansion = partial(verify_kernel_expansion_zne1, a, z, x)
        worst = min(worst, _envelope_err(expansion, 2 ** 12)
                    / _envelope_err(expansion, 2 ** 13))
    results.append(CheckResult(
        "kernel expansion decay (z != 1), envelope ratio N -> 2N",
        worst >= min_ratio, worst, min_ratio))
    worst = 0.0
    for w in MELLIN_WS:
        lhs, rhs = verify_mellin_identity(-0.5, w)
        worst = max(worst, abs(lhs - rhs))
    results.append(CheckResult("power/Mellin contour identity, three w",
                               worst <= 1e-6, worst, 1e-6))
    return results


def suite_identities() -> list[CheckResult]:
    results = []
    # sigma = 1.5 is where the direct series converge slowest
    for sigma in (2.5, 1.5):
        worst = max(verify_six_relations(sigma, q).max_residual
                    for q in (3, 4))
        results.append(CheckResult(
            f"six relations, sigma = {sigma}, q in {{3,4}}",
            worst <= 1e-12, worst, 1e-12))
    chi4 = builtin_characters(4)[1]
    # the direct series 1 - 1/9 + 1/25 - ... with its Euler-Maclaurin tail
    # per residue class as the oracle
    diff = abs(dirichlet_L(2.0, chi4).value - dirichlet_L_series(2.0, chi4))
    results.append(CheckResult("L(2, chi_4) = Catalan constant",
                               diff <= 1e-13, diff, 1e-13))
    for q, idx in ((4, 1), (3, 1)):
        chi = builtin_characters(q)[idx]
        vals = [dirichlet_L(float(s), chi).value.real
                for s in np.linspace(-0.9, -0.1, 9)]
        ok = all(v > 0 for v in vals) or all(v < 0 for v in vals)
        results.append(CheckResult(
            f"L(sigma, {chi.label}) sign-constant on (-1,0)",
            ok, min(abs(v) for v in vals), 0.0,
            note="min |L| over the sigma grid"))
    worst = 0.0
    for q in (3, 4):
        for chi in builtin_characters(q):
            if chi.primitive:
                g = abs(gauss_sum(chi.conjugate()))
                worst = max(worst, abs(g - math.sqrt(q)))
    results.append(CheckResult("|G(chi~)| = sqrt(q) for primitive built-ins",
                               worst <= 1e-12, worst, 1e-12))
    return results


SUITES = {
    "fe": suite_fe,
    "signs": suite_signs,
    "kernels": suite_kernels,
    "identities": suite_identities,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [res for suite in SUITES.values() for res in suite()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SUITES[name]()
