"""Cross-validate the kernel integrals against the functional equations.

On -1 < sigma < 0 the same value is reachable two unrelated ways: a
Mellin-type kernel integral, and an exponential sum at the reflected
argument (with Abel-accelerated tails).  Agreement to ~1e-15 across the
grid is strong evidence both implementations are right.
"""
import cmath
import math

import lerchzeta as lz

zs = [1.0 + 0j, -1.0 + 0j, 1j, 0.5 + 0j, cmath.exp(2j * math.pi / 3)]
sigmas = [-0.9, -0.5, -0.1]

print(f"{'z':>22} {'sigma':>6} {'integral':>24} {'exp-sum':>24} {'|diff|':>9}")
for z in zs:
    for sigma in sigmas:
        a = 0.4
        if z == 1:
            lhs = lz.hurwitz_integral_neg(sigma, a).value
            rhs = lz.zeta_fe_rhs(sigma, a).value
        else:
            lhs = lz.phi_integral_neg(sigma, a, z).value
            rhs = lz.phi_fe_rhs(sigma, a, z).value
        print(f"{str(z):>22} {sigma:>6} {lhs.real:>24.16f} {rhs.real:>24.16f}"
              f" {abs(lhs - rhs):>9.1e}")

print()
print("the contour identity behind the z != 1 proof, at w = 2 pi i + log z:")
for w in (2j * math.pi, -2j * math.pi, 2j * math.pi + math.log(0.5)):
    lhs, rhs = lz.verify_mellin_identity(-0.5, w)
    print(f"  w = {w}: quadrature {lhs:.12f}  closed form {rhs:.12f}"
          f"  |diff| {abs(lhs - rhs):.1e}")

print()
print("zeta exp-sum at sigma=-0.5: its claimed error, and its distance to "
      "Euler-Maclaurin")
print("(the distance is bounded by the two claims together; the EM claim is "
      "the larger):")
for a in (0.05, 0.3, 0.5, 0.9):
    fe = lz.zeta_fe_rhs(-0.5, a)
    em = lz.hurwitz_em(-0.5, a)
    print(f"  a={a:<4}: exp-sum claims {fe.abs_err_estimate:.2e}   "
          f"|exp-sum - EM| {abs(fe.value.real - em.value.real):.2e}   "
          f"EM claims {em.abs_err_estimate:.2e}")
