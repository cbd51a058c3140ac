"""Optimal bending ansatz and its scaling laws.

A compactly supported bump phi(eta, z) is compressed circumferentially by
n_h = floor(h^(-1/4)) and turned into the mid-surface profile family

    f_r = -phi^h_,theta theta,   f_theta = phi^h_,theta,   f_z = -phi^h_,z,

each a ``CompressedBump`` (a derivative offset and a factor of phi^h), whose
U(f) field U^h on the shell ShellGeometry(h, L) of the bump's own axial
length L realizes the h^(3/2) Korn-constant scaling:

    lim h^(1/4) ||grad U^h||^2 = 2 ||phi_,eta eta eta||^2,
    lim h^(-5/4) ||e(U^h)||^2  = ||phi_,zz||^2 + (1/12) ||phi_,eta eta eta eta||^2.

(The off-diagonal (r, theta) block of grad U^h is exactly antisymmetric, so
both entries carry the leading term; hence the factor 2.)  The gradient
components fall into korn's component groups, and each group's squared norm
scales as h to korn's exponent + 5/4, so U^h attains every Korn-type bound:
rthr as h^(-1/4), urrzzr as h^(1/4) (||U_r||^2 is part of urrzzr), thzzth as
h^(3/4) and ththzz as h^(5/4).  The stability/compressiveness
ratio of U^h scales as h for perfect axial compression, as h^(5/4) for a
shear-imperfection weight paired with a circumferentially skewed bump, and
as h^(3/2) for a hoop-imperfection weight.
"""

from dataclasses import dataclass, field as dc_field
import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyint, polymul, polyval

from cylshell import korn
from cylshell.errors import ParameterError
from cylshell.material import ShellGeometry, shell_sweep
from cylshell.fields import (COMPONENT_GROUPS, DisplacementField, cylindrical_gradient,
                             functionals, gradient, norm_terms, volume_grid)
from cylshell.scaling import ScalingFit, fit_exponent


@dataclass(frozen=True)
class BumpProfile:
    """Compactly supported C^4 bump phi(eta, z) on (-eta0, eta0) x (0, L).

    The base shape is (1 - (eta/eta0)^2)^5 (z(L-z)/L^2)^5; a nonzero ``skew``
    adds the non-separable tilt factor (1 + skew (eta/eta0)(z/L)), which
    leaves the support and the C^4 regularity untouched.  Internally the bump
    is a sum of separable polynomial terms, so every squared-derivative
    integral is an exact polynomial integral.  The coefficient arrays of each
    (d_eta, d_z) derivative are computed once, on first use.  L is admitted in
    [1e-12, 1e12]: the terms carry powers of 1/L up to the 11th, and past
    about 1e+-15 their squared integrals lose all digits (NaN at L = 1e-16).
    """

    eta0: float
    L: float
    skew: float = 0.0
    terms: tuple = dc_field(default=None, init=False)
    _derivs: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.eta0 < math.pi:
            raise ParameterError(f"eta0 must lie in (0, pi), got {self.eta0}")
        if not 1e-12 <= self.L <= 1e12:
            raise ParameterError(f"L must lie in [1e-12, 1e12], got {self.L}")
        if not math.isfinite(self.skew):
            raise ParameterError(f"skew must be finite, got {self.skew}")
        P = Polynomial([1.0, 0.0, -1.0 / self.eta0**2]) ** 5
        Z = Polynomial([0.0, 1.0 / self.L, -1.0 / self.L**2]) ** 5
        terms = [(P, Z)]
        if self.skew != 0.0:
            eta_p = Polynomial([0.0, 1.0 / self.eta0])
            z_p = Polynomial([0.0, 1.0 / self.L])
            terms.append((self.skew * (P * eta_p), Z * z_p))
        object.__setattr__(self, "terms", tuple(terms))

    def _derivative(self, d_eta, d_z):
        """(eta, z) coefficient arrays of each term's (d_eta, d_z) derivative."""
        key = (d_eta, d_z)
        if key not in self._derivs:
            self._derivs[key] = tuple((polyder(P.coef, d_eta), polyder(Z.coef, d_z))
                                      for P, Z in self.terms)
        return self._derivs[key]

    def __call__(self, eta, z, d_eta=0, d_z=0):
        eta = np.asarray(eta, dtype=float)
        z = np.asarray(z, dtype=float)
        inside = (np.abs(eta) < self.eta0) & (z > 0.0) & (z < self.L)
        out = np.zeros(np.broadcast(eta, z).shape)
        for P, Z in self._derivative(d_eta, d_z):
            out = out + polyval(eta, P) * polyval(z, Z)
        return np.where(inside, out, 0.0)

    def norm_sq(self, d_eta=0, d_z=0):
        """Exact integral of (d^a_eta d^b_z phi)^2 over the support."""
        terms = self._derivative(d_eta, d_z)
        total = 0.0
        for Pi, Zi in terms:
            for Pj, Zj in terms:
                qe = polyint(polymul(Pi, Pj))
                qz = polyint(polymul(Zi, Zj))
                total += (float(polyval(self.eta0, qe) - polyval(-self.eta0, qe))
                          * float(polyval(self.L, qz) - polyval(0.0, qz)))
        return total

    def gradient_limit(self):
        """Limit of h^(1/4) ||grad U^h||^2: both off-diagonal (r, theta)
        entries carry phi_,eta eta eta, hence the factor 2."""
        return 2.0 * self.norm_sq(3, 0)

    def strain_limit(self):
        """Limit of h^(-5/4) ||e(U^h)||^2."""
        return self.norm_sq(0, 2) + self.norm_sq(4, 0) / 12.0


@dataclass(frozen=True)
class CompressedBump:
    """c d^d_th_theta d^d_z_z phi^h, phi^h(theta, z) = phi(n_h theta, z) 2 pi-periodic in theta."""

    bump: BumpProfile
    n_h: int
    d_th: int
    d_z: int
    c: float

    def __call__(self, theta, z, dth=0, dz=0):
        theta = np.asarray(theta, dtype=float)
        wrapped = np.mod(theta + math.pi, 2.0 * math.pi) - math.pi
        dth, dz = dth + self.d_th, dz + self.d_z
        return self.c * (self.n_h**dth * self.bump(self.n_h * wrapped, z, dth, dz))


# least admitted h: the integrands carry r - 1 = O(h) on nodes near r = 1, so
# the norms lose about eps / h relative; at the exact n^-4 points the
# normalized limits are off by 1.4e-6 at h = 1e-8 and 1.4e-4 at 1e-12, and
# read 0 at 1e-16
H_MIN = 1e-12


def wavenumber(h):
    """n_h = floor(h^(-1/4)), with a guard against floating-point floor slip
    for h of the exact form n^(-4); h is admitted in [H_MIN, 1)."""
    if not H_MIN <= h < 1.0:
        raise ParameterError(f"h must lie in [{H_MIN:g}, 1) for the ansatz, got {h}")
    return int(math.floor(h**-0.25 + 1e-9))


@dataclass(frozen=True)
class AnsatzField:
    """The bending ansatz at thickness h: field, bump, support."""

    h: float
    n_h: int
    bump: BumpProfile
    field: object

    @property
    def support(self):
        """Theta interval carrying the compressed bump."""
        half = self.bump.eta0 / self.n_h
        return (-half, half)


def build_ansatz(h, bump):
    """Bending ansatz U^h from the compressed bump at thickness h, on the shell
    ShellGeometry(h, bump.L)."""
    n_h = wavenumber(h)
    field = DisplacementField(CompressedBump(bump, n_h, 2, 0, -1.0),
                              CompressedBump(bump, n_h, 1, 0, 1.0),
                              CompressedBump(bump, n_h, 0, 1, -1.0), bc_tag="fixed_bottom")
    return AnsatzField(h=h, n_h=n_h, bump=bump, field=field)


def ansatz_grid(ansatz):
    """Volume quadrature of the ansatz's shell restricted to the bump's theta support.

    8 radial, 16 theta and 16 axial Gauss nodes.  On the support every
    partial of U^h is a polynomial of degree <= 10 + (skew != 0) in theta and
    in z, so a product of two, times the shear weight's extra z factor, has
    degree <= 23, which n >= 12 Gauss nodes integrate exactly (n nodes: degree
    2n - 1).  16 nodes also resolve the shear weight's cos theta, to 4e-12 of
    the integral of its integrand's absolute value (5e-9 at 12 nodes, h = 0.5).
    The 1/r factors are not polynomial and keep 8 radial nodes.
    """
    return volume_grid(ShellGeometry(ansatz.h, ansatz.bump.L), n_r=8, n_th=16, n_z=16,
                       theta_interval=ansatz.support)


@dataclass(frozen=True)
class QuantityTable:
    """One scaling quantity: (h, value) rows, normalized values, fit, target."""

    points: tuple
    normalized: tuple = ()
    fit: ScalingFit = None
    target: float = None


def _sweep(bump, h_list, quantity):
    """(h, quantity(ansatz, ansatz_grid(ansatz))) for each h, largest h first; every
    ansatz is built, and so every h checked, before the first quantity."""
    built = [build_ansatz(geo.h, bump) for geo in shell_sweep(h_list, bump.L)]
    return [(ans.h, quantity(ans, ansatz_grid(ans))) for ans in built]


def verify_limits(bump, h_list):
    """Gradient and strain norms of U^h against their exact bump limits.

    Reports h^(1/4) ||grad U^h||^2 normalized by 2 ||phi_,eta eta eta||^2 and
    h^(-5/4) ||e(U^h)||^2 normalized by ||phi_,zz||^2 + ||phi_,eeee||^2 / 12.
    """
    def norms(ans, grid):
        g = gradient(ans.field, grid.R, grid.TH, grid.Z)
        return {name: sum(w * grid.norm_sq(t) for w, t in norm_terms(kind, g))
                for name, kind in (("gradient", "grad"), ("strain", "strain"))}

    rows = _sweep(bump, h_list, norms)
    return {name: QuantityTable(tuple((h, vals[name]) for h, vals in rows),
                                tuple(h**power * vals[name] / target for h, vals in rows),
                                target=target)
            for name, target, power in (("gradient", bump.gradient_limit(), 0.25),
                                        ("strain", bump.strain_limit(), -1.25))}


# h-exponents of korn's component groups on U^h: korn's exponent + 5/4, since
# ||e(U^h)||^2 ~ h^(5/4), so U^h attains each Korn-type bound
COMPONENT_EXPONENTS = {name: e + 1.25 for name, e in korn.COMPONENT_EXPONENTS.items()}


def component_scalings(bump, h_list):
    """Fitted h-exponents of the squared norms of korn's component groups."""
    def groups(ans, grid):
        p = ans.field.partials(grid.R, grid.TH, grid.Z)
        g = {**cylindrical_gradient(p, grid.R), "ur": p["ur"]}
        return {name: sum(w * grid.norm_sq(t) for w, t in norm_terms(f"component:{name}", g))
                for name in COMPONENT_GROUPS}

    rows = _sweep(bump, h_list, groups)
    pts = {name: tuple((h, vals[name]) for h, vals in rows) for name in COMPONENT_EXPONENTS}
    return {name: QuantityTable(pts[name], fit=fit_exponent(pts[name], min_points=2),
                                target=target) for name, target in COMPONENT_EXPONENTS.items()}


def compressiveness_scaling(bump, h_list, material, stress):
    """Fitted exponent of the stability/compressiveness ratio of U^h.

    Points with non-positive compressiveness are reported in the ``excluded``
    table instead of entering the fit.
    """
    rows = _sweep(bump, h_list,
                  lambda ans, grid: functionals(ans.field, stress, material, grid))
    pts = tuple((h, val.S / val.C) for h, val in rows if val.C > 0.0)
    excluded = tuple((h, val.C) for h, val in rows if val.C <= 0.0)
    fit = fit_exponent(pts, min_points=3) if len(pts) >= 3 else None
    return {"ratio": QuantityTable(pts, fit=fit), "excluded": QuantityTable(excluded)}
