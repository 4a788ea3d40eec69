"""Dirichlet L-functions, polylogarithms at roots of unity, and the exact
linear relations connecting them to Hurwitz zeta values at rationals.
"""
import math

import lerchzeta as lz

chi4 = lz.builtin_characters(4)[1]
chi3 = lz.builtin_characters(3)[1]

print("L(2, chi_4) is Catalan's constant:")
print("  via Hurwitz zeta:", lz.dirichlet_L(2.0, chi4).value.real)
print("  via direct series:", lz.dirichlet_L_series(2.0, chi4).real)
print()

print("Gauss sums of the real primitive characters:")
for chi in (chi3, chi4):
    g = lz.gauss_sum(chi.conjugate())
    print(f"  {chi.label}: G = {g:.12f}, |G| = {abs(g):.12f} (sqrt(q) = "
          f"{math.sqrt(chi.q):.12f})")
print()

print("polylogarithm at i from Hurwitz values: Li_s(i) = i Phi(s, 1, i)")
li = lz.lerch_from_hurwitz(0.5, 1, 4).value
phi = lz.phi_integral(0.5, 1.0, 1j).value
print(f"  lerch_from_hurwitz : {li:.15f}")
print(f"  i * kernel integral: {1j * phi:.15f}")
print()

print("all six relations at sigma = 2.5:")
for q in (3, 4):
    rep = lz.verify_six_relations(2.5, q)
    print(f"  q = {q}:")
    for name, residual in rep.residuals.items():
        print(f"    {name:<22} residual {residual:.2e}")
print()

print("L(sigma, chi) for real primitive chi never vanishes on (-1,0):")
for sigma in (-0.9, -0.5, -0.1):
    v3 = lz.dirichlet_L(sigma, chi3).value.real
    v4 = lz.dirichlet_L(sigma, chi4).value.real
    print(f"  sigma={sigma:+.1f}:  L(chi_3) = {v3:+.6f}   L(chi_4) = {v4:+.6f}")
