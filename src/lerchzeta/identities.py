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

Characters are explicit value tables.  Built-ins cover moduli 1..4 (the
real primitive cases plus the principal characters needed by R2/R6);
arbitrary tables can be loaded from CSV.
"""
from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from math import fsum, gcd
from pathlib import Path

import numpy as np

from .errors import DomainError, PoleError
from .evaluate import EvalResult, Method, hurwitz_em

__all__ = [
    "CharacterTable",
    "SixRelationsReport",
    "builtin_characters",
    "load_character_csv",
    "gauss_sum",
    "dirichlet_L",
    "dirichlet_L_series",
    "polylog_series",
    "lerch_from_hurwitz",
    "verify_six_relations",
]

_SERIES_TERMS = 200_000     # terms of the direct L and polylog series
_CHI_TOL = 1e-12            # slack of the character axioms on CSV values


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


def load_character_csv(path: str | Path) -> CharacterTable:
    """Load a character table from CSV: header line "q=<modulus>", then rows
    "n, re, im".  The table is validated before being returned."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and row[0].strip()]
    if not rows or not rows[0][0].strip().startswith("q="):
        raise DomainError("character CSV must start with a 'q=<modulus>' header")
    q = int(rows[0][0].strip()[2:])
    values: list[complex] = [complex(0.0)] * q
    seen = [False] * q
    for row in rows[1:]:
        n = int(row[0])
        if not 1 <= n <= q:
            raise DomainError(f"row index {n} outside 1..{q}")
        values[n - 1] = complex(float(row[1]), float(row[2]))
        seen[n - 1] = True
    if not all(seen):
        raise DomainError("character CSV must define chi(n) for every n in 1..q")
    table = CharacterTable(q, tuple(values), label=f"csv:{path.name}")
    table.validate()
    return table


def gauss_sum(chi: CharacterTable, r: int = 1) -> complex:
    """G_r(chi) = sum_{n=1}^q chi(n) e^{2 pi i r n / q}.

    For primitive chi and gcd(r,q) = 1 this equals chi~(r) G_1(chi) and has
    modulus sqrt(q)."""
    return complex(fsum((chi.chi(n) * _unit_root(r * n, chi.q)).real
                        for n in range(1, chi.q + 1)),
                   fsum((chi.chi(n) * _unit_root(r * n, chi.q)).imag
                        for n in range(1, chi.q + 1)))


# --------------------------------------------------------------------------
# L-functions and polylogarithms
# --------------------------------------------------------------------------

def dirichlet_L(sigma: float, chi: CharacterTable) -> EvalResult:
    """L(sigma, chi) = q^{-sigma} sum_r chi(r) zeta(sigma, r/q), the Hurwitz
    combination, with Euler-Maclaurin components.  Valid for real
    sigma != 1 (at sigma = 1 the individual zeta terms blow up even when
    the combination stays finite)."""
    sigma = float(sigma)
    if sigma == 1.0:
        raise PoleError("the zeta(s, r/q) components have their pole at s = 1")
    q = chi.q
    parts = [hurwitz_em(sigma, r / q) for r in range(1, q + 1)]
    scale = q ** (-sigma)
    value = scale * complex(
        fsum((chi.chi(r) * parts[r - 1].value).real for r in range(1, q + 1)),
        fsum((chi.chi(r) * parts[r - 1].value).imag for r in range(1, q + 1)))
    err = scale * fsum(abs(chi.chi(r)) * parts[r - 1].abs_err_estimate
                       for r in range(1, q + 1))
    return EvalResult(value, err, Method.EULER_MACLAURIN)


def _zeta_series_direct(sigma: float) -> float:
    """sum_m m^{-sigma} (sigma > 1) by plain summation plus the elementary
    integral tail  M^{1-s}/(s-1) - M^{-s}/2 + s M^{-s-1}/12."""
    m = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    partial = float(np.sum(m ** (-sigma)))
    M = float(_SERIES_TERMS)
    tail = (M ** (1.0 - sigma) / (sigma - 1.0) - 0.5 * M ** (-sigma)
            + sigma * M ** (-sigma - 1.0) / 12.0)
    return partial + tail


def _mobius(n: int) -> int:
    m, out = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def dirichlet_L_series(sigma: float, chi: CharacterTable) -> complex:
    """Direct-series oracle for L(sigma, chi), sigma > 1, independent of the
    Hurwitz machinery.

    Non-principal characters: plain truncation at N = 200000 terms (bounded
    character sums give a tail below q N^{-sigma}).  Principal characters
    have a non-oscillating tail, handled through L(s,chi0) =
    sum_{d|q} mu(d) d^{-s} zeta(s) with the zeta factor from the
    tail-corrected plain sum."""
    sigma = float(sigma)
    if not sigma > 1.0:
        raise DomainError("the direct L series needs sigma > 1")
    q = chi.q
    if chi.is_principal:
        zeta_val = _zeta_series_direct(sigma)
        factor = fsum(_mobius(d) * d ** (-sigma) for d in _divisors(q))
        return complex(factor * zeta_val, 0.0)
    n = np.arange(1, _SERIES_TERMS + 1)
    table = np.array([chi.chi(k) for k in range(1, q + 1)], dtype=complex)
    chin = np.tile(table, _SERIES_TERMS // q + 1)[:_SERIES_TERMS]
    terms = chin * n.astype(float) ** (-sigma)
    return complex(np.sum(terms.real), np.sum(terms.imag))


def polylog_series(sigma: float, r: int, q: int) -> complex:
    """Direct-series oracle for Li_sigma(e^{2 pi i r/q}), sigma > 1, from
    N = 200000 terms.

    q | r reduces to the zeta sum (tail-corrected); otherwise the root-of-
    unity phases are tiled exactly and the oscillating tail is below
    2 N^{-sigma}/|1 - e^{2 pi i r/q}|."""
    sigma = float(sigma)
    if not sigma > 1.0:
        raise DomainError("the direct polylog series needs sigma > 1")
    if q < 1 or not 1 <= r <= q:
        raise DomainError("need 1 <= r <= q")
    if r % q == 0:
        return complex(_zeta_series_direct(sigma), 0.0)
    n = np.arange(1, _SERIES_TERMS + 1)
    phases = np.array([_unit_root(r * k, q) for k in range(1, q + 1)])
    zn = np.tile(phases, _SERIES_TERMS // q + 1)[:_SERIES_TERMS]
    terms = zn * n.astype(float) ** (-sigma)
    return complex(np.sum(terms.real), np.sum(terms.imag))


def lerch_from_hurwitz(sigma: float, r: int, q: int) -> EvalResult:
    """Li_sigma(e^{2 pi i r/q}) = q^{-sigma} sum_{n=1}^q e^{2 pi i r n/q}
    zeta(sigma, n/q)  (relation R4), Euler-Maclaurin components.

    Valid for real sigma != 1 when q does not divide r (the component poles
    cancel); for q | r this is zeta(sigma) and needs sigma > 1."""
    sigma = float(sigma)
    if q < 1 or not 1 <= r <= q:
        raise DomainError("need 1 <= r <= q")
    if sigma == 1.0:
        raise PoleError("the zeta(s, n/q) components have their pole at s = 1")
    if r % q == 0 and sigma < 1.0:
        raise DomainError("e^{2 pi i r/q} = 1 gives zeta(sigma), divergent "
                          "for sigma < 1")
    parts = [hurwitz_em(sigma, n / q) for n in range(1, q + 1)]
    scale = q ** (-sigma)
    terms = [_unit_root(r * n, q) * parts[n - 1].value for n in range(1, q + 1)]
    value = scale * complex(fsum(t.real for t in terms),
                            fsum(t.imag for t in terms))
    err = scale * fsum(p.abs_err_estimate for p in parts)
    return EvalResult(value, err, Method.EULER_MACLAURIN)


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
    Ls = {c.label: dirichlet_L_series(sigma, c) for c in chars}
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
                          * gauss_sum(c.conjugate(), r)
                          * dirichlet_L_series(sigma, c))
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
