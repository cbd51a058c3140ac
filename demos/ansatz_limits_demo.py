#!/usr/bin/env python3
"""Optimal bending ansatz: exact limits and stress-dependent scaling.

The compactly supported bump phi, compressed circumferentially by
n_h = floor(h^(-1/4)), generates displacement fields whose gradient and
strain norms attain the Korn-constant scaling:

    h^(1/4)  ||grad U^h||^2  ->  2 ||phi_,eee||^2,
    h^(-5/4) ||e(U^h)||^2    ->  ||phi_,zz||^2 + ||phi_,eeee||^2 / 12.

The stability/compressiveness ratio of the same family scales as h under
perfect axial compression, as h^(5/4) for a shear imperfection paired with
a circumferentially skewed bump, and as h^(3/2) for a hoop imperfection.
"""

import math

import numpy as np

from cylshell import ansatz
from cylshell.material import (derive_material, hoop_imperfection, perfect_stress,
                               shear_imperfection)


def main():
    L = math.pi
    material = derive_material(E=1.0, nu=0.3)
    bump = ansatz.BumpProfile(eta0=1.0, L=L)

    h_limits = [3.0**-4, 5.0**-4, 10.0**-4]
    report = ansatz.verify_limits(bump, h_limits)
    print("normalized limits (should approach 1 from above):")
    print(f"{'h':>12} {'grad / limit':>14} {'strain / limit':>15}")
    for (h, _), g, s in zip(report["gradient"].points,
                            report["gradient"].normalized,
                            report["strain"].normalized):
        print(f"{h:12.3e} {g:14.6f} {s:15.6f}")
    print()

    h_sweep = [1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4]
    comp = ansatz.component_scalings(bump, h_sweep)
    print("gradient-component group rates:")
    for name, target in ansatz.COMPONENT_EXPONENTS.items():
        print(f"  {name:14s}: fitted {comp[name].fit.exponent:8.4f}"
              f"  (expected {target:+.2f})")
    print()

    print("stability/compressiveness ratio S/C:")
    cases = [
        ("perfect", bump, perfect_stress(), 1.0),
        ("shear", ansatz.BumpProfile(eta0=1.0, L=L, skew=-1.0),
         shear_imperfection(np.cos), 1.25),
        ("hoop", bump, hoop_imperfection(), 1.5),
    ]
    for name, b, stress, target in cases:
        rep = ansatz.compressiveness_scaling(b, h_sweep, material, stress)
        print(f"  {name:8s}: fitted {rep['ratio'].fit.exponent:8.4f}"
              f"  (expected {target:.2f})")


if __name__ == "__main__":
    main()
