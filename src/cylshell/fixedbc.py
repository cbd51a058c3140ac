"""Fixed-bottom buckling-mode family.

With the bottom edge clamped (u = 0 at z = 0) the problem no longer
diagonalizes in the axial Fourier index, but a two-mode superposition of
axial wavenumbers (m, m+2) satisfies the clamped boundary conditions exactly
while staying asymptotically optimal.  The radial profile

    phi_r = (sin(m_hat z)/m_hat - sin((m+2)_hat z)/(m+2)_hat) cos(n theta)

vanishes together with its z-derivative at z = 0; the tangential profiles
carry the membrane-optimal coefficients, with a single axial coefficient
T(m, n) shared by the two modes so that the clamped-edge Fourier constraints
hold exactly.  On this family

    K0 / (2 mu h sqrt((Lambda+1)/3))  ->  (2 + a + 1/a)/4,
    a = ((m+2)/m)^2,

so any m(h) -> infinity with m(h) sqrt(h) -> 0 attains the classical load in
the limit.  The module provides the mode constructor and its K0 by exact
per-mode Fourier algebra, which the h-sweep uses; the tests check that K0
against the full functional family by volume quadrature.
"""

from dataclasses import dataclass
import math

import numpy as np

from cylshell.errors import ParameterError
# functional_family and volume_grid are not used here; they stay importable
# from this module because perfbench/spans.py wraps them under these names
from cylshell.fields import SumSurface, from_midsurface, functional_family, volume_grid  # noqa: F401
from cylshell.koiter import (circle_n_real, classical_load, max_circle_m,
                             optimal_tangential, real_profiles, reduced_forms)
from cylshell.material import shell_sweep
from cylshell.scaling import fit_exponent


def circle_wavenumber(m, geometry, Lambda):
    """Nearest integer to the circle wavenumber n for axial mode m.

    The two-mode family straddles (m, m+2), so the nearest circle point
    balances the pair better than rounding down; the rounded-down variant
    systematically overweights the membrane energy of the m+2 mode.
    """
    return int(round(circle_n_real(m, geometry, Lambda)))


def t_coefficient(m, n, geometry, Lambda):
    """Axial-profile coefficient shared by the two modes.

    T(m, n) = -f_z*/m_hat, f_z* the membrane optimum at f_r = 1; in the regime
    n >> m_hat it agrees with the leading-order 1/n^2 to relative O(m_hat^2 / n^2).
    """
    if n < 1:
        raise ParameterError("t_coefficient requires n >= 1")
    m_hat = math.pi * m / geometry.L
    return -optimal_tangential(1, m_hat, n, Lambda)[1] / m_hat


def mode_amplitudes(m, n, geometry, Lambda):
    """Complex Fourier amplitudes (f_r, f_theta, f_z) of the two active z-modes.

    Returns {m: (...), m+2: (...)} in the convention u = Re(f e^{i n theta}).
    The radial amplitudes +-1/k_hat satisfy the clamped-edge constraint
    sum k f_r(k) = 0; the common axial coefficient T(m, n) enforces
    sum f_z(k) = 0; f_theta is the membrane minimizer at those amplitudes.
    """
    T = t_coefficient(m, n, geometry, Lambda)
    Lp2 = Lambda + 2.0
    out = {}
    for k, sign in ((m, 1.0), (m + 2, -1.0)):
        k_hat = math.pi * k / geometry.L
        f_r = sign / k_hat
        f_z = -sign * T
        f_t = 1j * n * (Lp2 * f_r - (Lambda + 1.0) * k_hat * f_z) / (Lp2 * n**2 + k_hat**2)
        out[k] = (f_r, f_t, f_z)
    return out


def mode_profiles(m, n, geometry, Lambda):
    """Real mid-surface profiles (f_r, f_theta, f_z) of the two-mode family."""
    parts = [real_profiles(n, math.pi * k / geometry.L, *amps)
             for k, amps in mode_amplitudes(m, n, geometry, Lambda).items()]
    return tuple(SumSurface(p) for p in zip(*parts))


def _admissible_n(m, geometry, Lambda, n):
    """The family's n for axial mode m (circle wavenumber unless given)."""
    if m < 1:
        raise ParameterError("fixedbc mode requires m >= 1")
    M = max_circle_m(geometry, Lambda)
    if m + 2 > M:
        raise ParameterError(
            f"m + 2 = {m + 2} exceeds the largest circle mode M(h) = {M}")
    if n is None:
        n = circle_wavenumber(m, geometry, Lambda)
    if n < 1:
        raise ParameterError(f"family requires n >= 1, got n = {n}")
    return n


def fixedbc_mode(m, geometry, material, n=None):
    """Clamped-bottom displacement field for base axial wavenumber m.

    The field is of the U(f) form; u_z = 0 at z = 0 for every r because
    phi_z(0) = 0 and phi_r'(0) = 0.
    """
    n = _admissible_n(m, geometry, material.Lambda, n)
    f_r, f_t, f_z = mode_profiles(m, n, geometry, material.Lambda)
    return from_midsurface(f_r, f_t, f_z, bc_tag="fixed_bottom")


def mode_k0_algebraic(m, geometry, material, n=None):
    """K0 of the two-mode family by pure per-mode Fourier algebra.

    The z-modes are orthogonal on [0, L], so the quadratic forms are the sums
    of the per-mode forms at the complex amplitudes.  Exact up to rounding,
    in O(1) work and memory at any h.
    """
    Lam = material.Lambda
    n = _admissible_n(m, geometry, Lam, n)
    amps = mode_amplitudes(m, n, geometry, Lam)
    k_hat = math.pi * np.array(list(amps)) / geometry.L
    f_r, f_t, f_z = (np.array(c) for c in zip(*amps.values()))
    forms = reduced_forms(k_hat, n, Lam, f_r, f_t, f_z)
    return material.mu * (forms.Q0 + geometry.h**2 / 12.0 * forms.Q1) / forms.B


def classical_ratio(m, geometry, material, n=None):
    """K0(mode) / (2 mu h sqrt((Lambda+1)/3)), K0 by per-mode Fourier algebra."""
    return mode_k0_algebraic(m, geometry, material, n=n) / classical_load(geometry, material)


def limit_expression(m):
    """Finite-m value of the h -> 0 ratio: (2 + a + 1/a)/4 with a = ((m+2)/m)^2."""
    a = ((m + 2.0) / m) ** 2
    return (2.0 + a + 1.0 / a) / 4.0


@dataclass(frozen=True)
class LimitRow:
    h: float
    m: int
    n: int
    ratio: float


@dataclass(frozen=True)
class LimitReport:
    """h-sweep of the classical-load ratio for m(h) = round(h^{-alpha})."""

    alpha: float
    rows: tuple

    @property
    def points(self):
        return tuple((row.h, row.ratio) for row in self.rows)

    def excess_fit(self):
        """Fitted h-exponent of ratio - 1 (decays like m(h)^{-2} ~ h^{2 alpha})."""
        pts = [(row.h, row.ratio - 1.0) for row in self.rows if row.ratio > 1.0]
        return fit_exponent(pts, min_points=min(4, len(pts)))


def wavenumber(h, alpha):
    """m(h) = round(h^{-alpha}), clipped to m >= 1."""
    if not 0.0 < alpha < 0.5:
        raise ParameterError(
            f"alpha = {alpha} outside (0, 1/2): m(h) must diverge with m sqrt(h) -> 0")
    return max(1, int(round(h**-alpha)))


def fixedbc_limit(h_list, alpha, L, material):
    """Ratio table K0 / (2 mu h sqrt((Lambda+1)/3)) along an h-sweep.

    The shell at each h has axial length L.  The table converges to 1 from
    above as h -> 0 for any alpha in (0, 1/2).
    """
    rows = []
    for geo in shell_sweep(h_list, L):
        m = wavenumber(geo.h, alpha)
        n = circle_wavenumber(m, geo, material.Lambda)
        rows.append(LimitRow(h=geo.h, m=m, n=n, ratio=classical_ratio(m, geo, material, n=n)))
    return LimitReport(alpha=alpha, rows=tuple(rows))
