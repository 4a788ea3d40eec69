"""Evaluate Phi(sigma, a, z) a few ways and watch the routes agree.

Phi(sigma, a, z) = sum_{n>=0} z^n (n+a)^{-sigma} converges only for
sigma > 1 on the unit circle, yet the evaluator returns values on
(-1,0) u (0,1) as well: those come from kernel integral representations.
Every result carries the route that produced it and an error estimate.
"""
import lerchzeta as lz

print("zeta(2) three ways")
res = lz.phi_series(2.0, 1.0, 1.0, tol=1e-6)   # the tail decays like 1/N
print(f"  series          : {res.value.real:.15f}  (err ~ {res.abs_err_estimate:.1e})")
print("  euler-maclaurin :", lz.hurwitz_em(2.0, 1.0).value.real)
print("  pi^2/6          :", 3.141592653589793 ** 2 / 6)
print()

print("zeta(-1/2) - no convergent series exists here")
res = lz.phi_integral(-0.5, 1.0, 1.0)
print(f"  kernel integral : {res.value.real:.15f}  (err ~ {res.abs_err_estimate:.1e})")
res = lz.hurwitz_em(-0.5, 1.0)
print(f"  euler-maclaurin : {res.value.real:.15f}  (err ~ {res.abs_err_estimate:.1e})")
print()

print("Phi(-1/2, 1/2, i): a genuinely complex value on the unit circle")
res = lz.evaluate(-0.5, 0.5, 1j)
print(f"  dispatcher chose {res.method}: {res.value:.15f}")
rhs = lz.phi_fe_rhs(-0.5, 0.5, 1j)
print(f"  exponential sums: {rhs.value:.15f}")
print(f"  |difference|    : {abs(res.value - rhs.value):.2e}")
print()

print("closed forms at sigma = 0 and -1 are exact:")
for a, z in ((0.3, 1.0 + 0j), (0.5, -1.0 + 0j), (0.25, 0.5j)):
    v0 = lz.special_value(0, a, z)
    v1 = lz.special_value(-1, a, z)
    print(f"  a={a:4}  z={z}:  Phi(0)={v0}  Phi(-1)={v1}")
