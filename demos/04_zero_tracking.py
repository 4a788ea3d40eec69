"""Track the real zero of sigma -> zeta(sigma, a) through (-1,0) as a moves.

Below a = b- the Hurwitz zeta has (at least) one real zero in (-1,0); it
slides toward -1 as a approaches b- from below and the non-vanishing band
begins.  Between 1/2 and b+ a zero lives again.  The emitted table is
ready for plotting (two columns per located zero).
"""
import numpy as np

import lerchzeta as lz

tol = 1e-8

print("# a  sigma_star  |zeta(sigma_star, a)|")
for a in np.arange(0.02, 0.99, 0.02):
    a = round(float(a), 2)
    rep = lz.scan_zeros(a, 1.0, tol=tol)
    for root, res in zip(rep.roots, rep.residuals):
        print(f"{a:.2f}  {root:+.8f}  {res:.1e}")

print()
print("# same for z = -1 (zero exists iff a < 1/2)")
for a in np.arange(0.05, 0.50, 0.05):
    a = round(float(a), 2)
    rep = lz.scan_zeros(a, -1.0, tol=tol)
    for root, res in zip(rep.roots, rep.residuals):
        print(f"{a:.2f}  {root:+.8f}  {res:.1e}")
