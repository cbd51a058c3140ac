#!/usr/bin/env python3
"""Clamped bottom edge: the two-mode family still attains the classical load.

With u = 0 on the bottom edge the single Fourier modes are inadmissible, but
superposing axial wavenumbers (m, m+2) with matched amplitudes satisfies the
clamped conditions exactly.  Along m(h) = round(h^(-alpha)), 0 < alpha < 1/2,

    K0 / (2 mu h sqrt((Lambda+1)/3))  ->  1,

with the finite-m excess (2 + a + 1/a)/4 - 1, a = ((m+2)/m)^2, decaying like
h^(2 alpha).
"""

import math

from cylshell import fixedbc
from cylshell.material import derive_material


def main():
    L = math.pi
    material = derive_material(E=1.0, nu=0.3)

    for alpha in (0.2, 0.25, 0.3):
        report = fixedbc.fixedbc_limit([1e-4, 1e-5, 1e-6], alpha, L, material)
        print(f"alpha = {alpha}:")
        print(f"{'h':>10} {'m':>5} {'n':>5} {'ratio':>12} {'finite-m limit':>16}")
        for row in report.rows:
            print(f"{row.h:10.1e} {row.m:5d} {row.n:5d} {row.ratio:12.8f} "
                  f"{fixedbc.limit_expression(row.m):16.8f}")
        fit = report.excess_fit()
        print(f"excess exponent: {fit.exponent:.4f}  (expected {2 * alpha:.2f})")
        print()


if __name__ == "__main__":
    main()
