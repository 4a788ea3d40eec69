"""Map where sigma -> Phi(sigma, a, z) keeps away from zero on (-1,0).

Non-vanishing holds exactly on
  z = 1        and a in [b-, 1/2] u [b+, 1],   b-+ = (3 -+ sqrt3)/6
  z in [-1,1)  and (1-z)(1-a) <= 1
  z non-real
and everywhere else a real zero exists.  The scanner double-checks the
classifier: it scans the sign of a Chebyshev proxy of sigma -> Phi on
[-1, 0], anchored by the exact closed forms at sigma = 0 and sigma = -1,
and checks each crossing on Phi itself: a sign change of Phi within
tol/2 of it, or else bisection on Phi.
"""
import numpy as np

import lerchzeta as lz

tol = 1e-8

print(f"b- = {lz.B2_ROOT_LOWER:.6f}   b+ = {lz.B2_ROOT_UPPER:.6f}")
print()
print("z = 1: verdict and located zeros while a sweeps (0,1]")
print(f"{'a':>5} {'verdict':>12} {'zeros found':>30}")
for a in np.arange(0.05, 1.001, 0.05):
    a = round(float(a), 2)
    verdict = lz.classify(a, 1.0)
    rep = lz.scan_zeros(a, 1.0, tol=tol)
    roots = ", ".join(f"{r:.4f}" for r in rep.roots) or "-"
    print(f"{a:>5} {verdict.tag:>12} {roots:>30}")

print()
print("z = -1: the zero appears exactly when (1-z)(1-a) = 2(1-a) > 1, i.e. a < 1/2")
for a in (0.1, 0.3, 0.49, 0.51, 0.75, 1.0):
    verdict = lz.classify(a, -1.0)
    rep = lz.scan_zeros(a, -1.0, tol=tol)
    print(f"  a={a:<5} {verdict.tag:<12} brackets={rep.n_brackets}  "
          f"Phi(-1)={rep.value_at_neg_one:+.4f}  Phi(0)={rep.value_at_zero:+.4f}")

print()
print("non-real z: the imaginary part never vanishes, whatever a")
for theta in (0.5, 2.0, 4.0):
    m = lz.check_case3(0.37, 0.95, theta, tol=tol)
    print(f"  theta={theta}: min |Im Phi| over sigma grid = {m:.4f}")
