"""Dirichlet L-functions from Hurwitz zeta values, polylogarithms at roots
of unity, Gauss sums, and the linear relations tying the three together.

With chi a character mod q, G_r(chi) = sum_n chi(n) e^{2pi i r n/q}, and
Li_s(e^{2pi i r/q}) = sum_{n>=1} e^{2pi i r n/q} n^{-s}, the implemented
relations are

  R1  L(s,chi)        = q^{-s} sum_{r=1}^q chi(r) zeta(s, r/q)
  R2  zeta(s, r/q)    = q^s/phi(q) sum_{chi mod q} conj(chi(r)) L(s,chi)
                        (gcd(r,q) = 1)
  R3  zeta(s, r/q)    = q^{s-1} sum_{k=1}^q e^{-2pi i k r/q} Li_s(e^{2pi i k/q})
  R4  Li_s(e^{2pi i r/q}) = q^{-s} sum_{n=1}^q e^{2pi i r n/q} zeta(s, n/q)
  R5  L(s,chi)        = (1/G_1(conj chi)) sum_{r=1}^q conj(chi(r))
                        Li_s(e^{2pi i r/q})            (primitive chi)
  R6  Li_s(e^{2pi i r/q}) = sum_{g | q} g^{-s} (1/phi(q/g))
                        sum_{chi mod q/g} G_r(conj chi) L(s,chi)

R3 carries the factor q^{s-1} (orthogonality fixes the normalisation), R5
needs primitivity (the n with gcd(n,q) > 1 only drop out of the twisted sum
then), and R6 sums over the divisor levels because the character layer at
modulus q only reproduces the n coprime to q; the g > 1 levels restore the
remaining terms.  R1 and R4 hold for every character/index.  All six are
exact identities; verify_six_relations computes each side independently
(direct series or Euler-Maclaurin) and reports the residuals.

The direct series of a period-q coefficient sequence is sum_r c_r S_r over
the residue-class sums S_r = sum_{n = r mod q} n^{-sigma}: one vector of
n^{-sigma}, n <= N = 4096, is summed class by class, and each class gets
the Euler-Maclaurin tail of its own arithmetic progression.  Principal
characters, and zeta itself (Li at r = q), are period-q sequences too, so
every L and Li of modulus q reads the same q class sums.  The first
Euler-Maclaurin term left out of a class tail is at most

  (|B_4|/4!) sigma(sigma+1)(sigma+2) q^{-sigma} (N/q)^{-sigma-3},

about 2e-15 for sigma > 1 and q <= 4.  The class sums of the last three
(sigma, q) are kept, so one call of verify_six_relations raises n^{-sigma}
once per modulus it reads: q and the levels q/g of R6.

Characters are explicit value tables.  Built-ins cover moduli 1..4 (the
real primitive cases plus the principal characters needed by R2/R6); any
other character is a CharacterTable(q, values), checked by validate().
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum, gcd

import numpy as np

from .errors import DomainError, PoleError
from .evaluate import EvalResult, Method, hurwitz_em

__all__ = [
    "CharacterTable",
    "SixRelationsReport",
    "builtin_characters",
    "gauss_sum",
    "dirichlet_L",
    "dirichlet_L_series",
    "polylog_series",
    "lerch_from_hurwitz",
    "verify_six_relations",
]

_SERIES_TERMS = 4096        # terms of the direct L and polylog series
_CHI_TOL = 1e-12            # slack of the character axioms on caller tables


def _unit_root(num: int, den: int) -> complex:
    """e^{2 pi i num/den} with the exponent reduced mod den first."""
    k = num % den
    if k == 0:
        return complex(1.0, 0.0)
    return cmath.exp(2j * math.pi * k / den)


def euler_phi(q: int) -> int:
    return sum(1 for n in range(1, q + 1) if gcd(n, q) == 1)


def _divisors(q: int) -> list[int]:
    return [d for d in range(1, q + 1) if q % d == 0]


@dataclass(frozen=True)
class CharacterTable:
    """A Dirichlet character mod q as the explicit value table chi(1)..chi(q)."""

    q: int
    values: tuple[complex, ...]
    primitive: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError("modulus must be >= 1")
        if len(self.values) != self.q:
            raise DomainError("value table must have exactly q entries")

    def chi(self, n: int) -> complex:
        return self.values[(n - 1) % self.q]

    def conjugate(self) -> "CharacterTable":
        return CharacterTable(self.q, tuple(v.conjugate() for v in self.values),
                              self.primitive, self.label + "~")

    @property
    def is_principal(self) -> bool:
        return all(v == 1 for n, v in enumerate(self.values, start=1)
                   if gcd(n, self.q) == 1)

    def validate(self) -> None:
        """Character axioms: chi(n) = 0 iff gcd(n,q) > 1, unit modulus on
        units, complete multiplicativity.  Raises DomainError on failure."""
        for n in range(1, self.q + 1):
            v = self.chi(n)
            if gcd(n, self.q) > 1:
                if v != 0:
                    raise DomainError(f"chi({n}) must vanish (gcd > 1)")
            elif abs(abs(v) - 1.0) > _CHI_TOL:
                raise DomainError(f"|chi({n})| = {abs(v)} is not 1")
        if self.chi(1) != 1:
            raise DomainError("chi(1) must equal 1")
        for m in range(1, self.q + 1):
            for n in range(1, self.q + 1):
                if abs(self.chi(m) * self.chi(n) - self.chi(m * n)) > _CHI_TOL:
                    raise DomainError(
                        f"multiplicativity fails at ({m},{n}) mod {self.q}")


_BUILTIN: dict[int, tuple[CharacterTable, ...]] = {
    1: (CharacterTable(1, (1,), primitive=True, label="principal mod 1"),),
    2: (CharacterTable(2, (1, 0), primitive=False, label="principal mod 2"),),
    3: (CharacterTable(3, (1, 1, 0), primitive=False, label="principal mod 3"),
        CharacterTable(3, (1, -1, 0), primitive=True, label="quadratic mod 3"),),
    4: (CharacterTable(4, (1, 0, 1, 0), primitive=False, label="principal mod 4"),
        CharacterTable(4, (1, 0, -1, 0), primitive=True, label="quadratic mod 4"),),
}


def builtin_characters(q: int) -> tuple[CharacterTable, ...]:
    """The full character group mod q for q in {1,2,3,4}."""
    if q not in _BUILTIN:
        raise DomainError(f"character tables are built in only for q in "
                          f"{sorted(_BUILTIN)}, got {q}")
    return _BUILTIN[q]


def gauss_sum(chi: CharacterTable, r: int = 1) -> complex:
    """G_r(chi) = sum_{n=1}^q chi(n) e^{2 pi i r n / q}.

    For primitive chi and gcd(r,q) = 1 this equals chi~(r) G_1(chi) and has
    modulus sqrt(q)."""
    terms = [chi.chi(n) * _unit_root(r * n, chi.q) for n in range(1, chi.q + 1)]
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


# --------------------------------------------------------------------------
# L-functions and polylogarithms
# --------------------------------------------------------------------------

def _hurwitz_combination(sigma: float, weights: Sequence[complex]) -> EvalResult:
    """q^{-sigma} sum_{n=1}^q w_n zeta(sigma, n/q) with q = len(weights),
    from Euler-Maclaurin components.  The error adds the estimates of the
    components with w_n != 0; those weights have unit modulus."""
    if sigma == 1.0:
        raise PoleError("the zeta(s, n/q) components have their pole at s = 1")
    q = len(weights)
    parts = [hurwitz_em(sigma, n / q) for n in range(1, q + 1)]
    terms = [w * p.value for w, p in zip(weights, parts)]
    scale = q ** (-sigma)
    value = scale * complex(fsum(t.real for t in terms),
                            fsum(t.imag for t in terms))
    err = scale * fsum(p.abs_err_estimate
                       for w, p in zip(weights, parts) if w != 0)
    return EvalResult(value, err, Method.EULER_MACLAURIN)


@functools.lru_cache(maxsize=3)
def _residue_sums(sigma: float, q: int) -> tuple[float, ...]:
    """The class sums S_r = sum_{n = r mod q} n^{-sigma}, r = 1..q, sigma > 1:
    one vector of n^{-sigma}, n <= N = 4096, reduced class by class, plus
    each class's Euler-Maclaurin tail past N,

        q^{-s} [x^{1-s}/(s-1) + x^{-s}/2 + s x^{-s-1}/12],  x = n_r/q,

    with n_r the first n > N in the class.  The next term, which is left
    out, is at most (|B_4|/4!) s(s+1)(s+2) q^{-s} (N/q)^{-s-3}: about
    2e-15 for s > 1 and q <= 4.  Three (sigma, q) are kept, the divisors
    of the largest built-in modulus: verify_six_relations reads the sums
    mod q for every character and Li of modulus q, and mod q/g for the
    characters of each level g of R6."""
    powers = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    np.power(powers, -sigma, out=powers)
    sums = []
    for r in range(1, q + 1):
        x = (_SERIES_TERMS + 1 + (r - _SERIES_TERMS - 1) % q) / q
        tail = q ** (-sigma) * (x ** (1.0 - sigma) / (sigma - 1.0)
                                + 0.5 * x ** (-sigma)
                                + sigma * x ** (-sigma - 1.0) / 12.0)
        sums.append(float(np.sum(powers[r - 1::q])) + tail)
    return tuple(sums)


def _periodic_series(sigma: float, coeffs: Sequence[complex]) -> complex:
    """sum_{n>=1} c_n n^{-sigma} with c_n = coeffs[(n-1) % q], q = len(coeffs),
    as sum_r c_r S_r over the tail-corrected class sums."""
    sums = _residue_sums(sigma, len(coeffs))
    terms = [complex(c) * s for c, s in zip(coeffs, sums)]
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def dirichlet_L(sigma: float, chi: CharacterTable) -> EvalResult:
    """L(sigma, chi) = q^{-sigma} sum_r chi(r) zeta(sigma, r/q), the Hurwitz
    combination, with Euler-Maclaurin components.  Valid for real
    sigma != 1 (at sigma = 1 the individual zeta terms blow up even when
    the combination stays finite)."""
    return _hurwitz_combination(float(sigma), chi.values)


def dirichlet_L_series(sigma: float, chi: CharacterTable) -> complex:
    """Direct-series oracle for L(sigma, chi), sigma > 1, independent of the
    Hurwitz machinery: sum_r chi(r) S_r over the class sums S_r of
    n^{-sigma} mod q (N = 4096 terms in all, each class with its own
    Euler-Maclaurin tail).  Principal characters are no exception.  What
    is left out is the next Euler-Maclaurin term, at most
    (|B_4|/4!) sigma(sigma+1)(sigma+2) q^{-sigma} (N/q)^{-sigma-3} per
    class."""
    sigma = float(sigma)
    if not sigma > 1.0:
        raise DomainError("the direct L series needs sigma > 1")
    return _periodic_series(sigma, chi.values)


def polylog_series(sigma: float, r: int, q: int) -> complex:
    """Direct-series oracle for Li_sigma(e^{2 pi i r/q}), sigma > 1:
    sum_k e^{2 pi i r k/q} S_k over the class sums mod q, with the
    truncation of dirichlet_L_series.  For q | r every coefficient is 1,
    and the sum is zeta(sigma) as the fsum of the q class sums."""
    sigma = float(sigma)
    if not sigma > 1.0:
        raise DomainError("the direct polylog series needs sigma > 1")
    if q < 1 or not 1 <= r <= q:
        raise DomainError("need 1 <= r <= q")
    return _periodic_series(sigma, [_unit_root(r * k, q) for k in range(1, q + 1)])


def lerch_from_hurwitz(sigma: float, r: int, q: int) -> EvalResult:
    """Li_sigma(e^{2 pi i r/q}) = q^{-sigma} sum_{n=1}^q e^{2 pi i r n/q}
    zeta(sigma, n/q)  (relation R4), Euler-Maclaurin components.

    Valid for real sigma != 1 when q does not divide r (the component poles
    cancel); for q | r this is zeta(sigma) and needs sigma > 1."""
    sigma = float(sigma)
    if q < 1 or not 1 <= r <= q:
        raise DomainError("need 1 <= r <= q")
    if r % q == 0 and sigma < 1.0:
        raise DomainError("e^{2 pi i r/q} = 1 gives zeta(sigma), divergent "
                          "for sigma < 1")
    return _hurwitz_combination(
        sigma, [_unit_root(r * n, q) for n in range(1, q + 1)])


# --------------------------------------------------------------------------
# the six relations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SixRelationsReport:
    sigma: float
    q: int
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_six_relations(sigma: float, q: int) -> SixRelationsReport:
    """Evaluate every side of R1..R6 independently and report the residuals.

    zeta values come from Euler-Maclaurin; L and Li values from their direct
    series (sigma > 1 required).  Supported moduli are the built-in 1..4
    (R6 additionally needs the character groups of all divisors of q).
    """
    sigma = float(sigma)
    if not sigma > 1.0:
        raise DomainError("verify_six_relations needs sigma > 1")
    chars = builtin_characters(q)
    phi_q = euler_phi(q)

    zs = {r: hurwitz_em(sigma, r / q).value.real for r in range(1, q + 1)}
    # every character at every level q/g, each summed once; R1, R2 and R5
    # read the level g = 1, R6 all of them
    Ls = {c.label: dirichlet_L_series(sigma, c)
          for g in _divisors(q) for c in builtin_characters(q // g)}
    Lis = {k: polylog_series(sigma, k, q) for k in range(1, q + 1)}

    r1 = max(abs(Ls[c.label]
                 - q ** (-sigma) * sum(c.chi(r) * zs[r] for r in range(1, q + 1)))
             for c in chars)
    r2 = max(abs(zs[r] - q ** sigma / phi_q
                 * sum(c.chi(r).conjugate() * Ls[c.label] for c in chars))
             for r in range(1, q + 1) if gcd(r, q) == 1)
    r3 = max(abs(zs[r] - q ** (sigma - 1.0)
                 * sum(_unit_root(-k * r, q) * Lis[k] for k in range(1, q + 1)))
             for r in range(1, q + 1))
    r4 = max(abs(Lis[r] - q ** (-sigma)
                 * sum(_unit_root(r * n, q) * zs[n] for n in range(1, q + 1)))
             for r in range(1, q + 1))
    prim = [c for c in chars if c.primitive]
    r5 = max(abs(Ls[c.label]
                 - sum(c.chi(r).conjugate() * Lis[r] for r in range(1, q + 1))
                 / gauss_sum(c.conjugate()))
             for c in prim) if prim else 0.0

    def reconstructed_li(r: int) -> complex:
        total = 0.0 + 0.0j
        for g in _divisors(q):
            qq = q // g
            for c in builtin_characters(qq):
                total += (g ** (-sigma) / euler_phi(qq)
                          * gauss_sum(c.conjugate(), r) * Ls[c.label])
        return total

    r6 = max(abs(Lis[r] - reconstructed_li(r)) for r in range(1, q + 1))

    residuals = {
        "L_from_hurwitz": float(r1),
        "hurwitz_from_L": float(r2),
        "hurwitz_from_polylog": float(r3),
        "polylog_from_hurwitz": float(r4),
        "L_from_polylog": float(r5),
        "polylog_from_L": float(r6),
    }
    return SixRelationsReport(sigma=sigma, q=q, residuals=residuals)
