#!/usr/bin/env python3
"""Classical buckling load of the axially compressed cylinder.

Minimizes the two-term load surface lambda*(h; m, n) over integer wavenumber
pairs and compares the result with the closed form 2 mu h sqrt((Lambda+1)/3).
The minimizing modes trace the circle h (Lambda+2)(n^2 + m_hat^2)^2
= 4 m_hat^2 sqrt(3 (Lambda+1)).
"""

import math

from cylshell import koiter
from cylshell.material import ShellGeometry, derive_material


def main():
    material = derive_material(E=1.0, nu=0.3)
    L = math.pi

    print(f"mu = {material.mu:.6f}, Lambda = {material.Lambda:.3f}")
    print()
    print(f"{'h':>10} {'m*':>5} {'n*':>5} {'lambda_hat':>14} "
          f"{'closed form':>14} {'excess':>10} {'residual':>10}")
    for h in (1e-2, 1e-3, 1e-4):
        geometry = ShellGeometry(h=h, L=L)
        res = koiter.minimize_load(geometry, material)
        excess = res.lambda_hat / res.closed_form - 1.0
        print(f"{h:10.1e} {res.m_star:5d} {res.n_star:5d} "
              f"{res.lambda_hat:14.6e} {res.closed_form:14.6e} "
              f"{excess:10.2e} {res.circle_residual:10.2e}")

    geometry = ShellGeometry(h=1e-4, L=L)
    print()
    print("circle wavenumbers n(m) at h = 1e-4 "
          f"(M(h) = {koiter.max_circle_m(geometry, material.Lambda)}):")
    for m in (1, 2, 5, 20, 80, 176):
        n = koiter.koiter_circle_n(m, geometry, material.Lambda)
        lam = koiter.lambda_star(geometry, material, m, n)
        print(f"  m = {m:4d}  n = {n:4d}  lambda* = {lam:.6e}")


if __name__ == "__main__":
    main()
