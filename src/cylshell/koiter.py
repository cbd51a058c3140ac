"""Per-Fourier-mode buckling algebra.

For a single mode (m, n) with m_hat = pi m / L the reduced quadratic forms
Q0, Q1, Q1*, B act on the complex radial amplitudes (f_r, f_theta, f_z).
Minimizing Q0 over the tangential amplitudes in closed form yields the
two-term load surface

    lambda*(h; m, n) = mu [ 4 m_hat^2 (Lambda+1) / ((Lambda+2)(n^2+m_hat^2)^2)
                          + h^2 (Lambda+2)(m_hat^2+n^2)^2 / (12 m_hat^2) ],

whose minimum over real wavenumbers is 2 mu h sqrt((Lambda+1)/3), attained on
the Koiter circle n^2 + m_hat^2 = 2 k m_hat, k = (3(Lambda+1))^(1/4) / sqrt(h(Lambda+2)).
The integer minimization, the circle wavenumber map n(m), and the explicit
buckling-mode construction live here.
"""

from dataclasses import dataclass
import math

import numpy as np

from cylshell.errors import ParameterError
from cylshell.fields import TrigSurface, combine_q, from_midsurface


@dataclass(frozen=True)
class ReducedForms:
    Q0: float
    Q1: float
    Q1star: float
    B: float


def reduced_forms(m_hat, n, Lambda, f_r, f_t=0.0, f_z=0.0):
    """Reduced quadratic forms at complex mode amplitudes.

    Over arrays of axial modes each mode's forms are combined, then summed.
    The common Fourier normalization (pi L / 2 per mode) is dropped; it
    cancels in every ratio formed from these.
    """
    i = 1j
    q0_parts = {"trace": abs(i * n * f_t - m_hat * f_z + f_r) ** 2,
                "hoop": abs(i * n * f_t + f_r) ** 2,
                "axial": m_hat**2 * abs(f_z) ** 2,
                "shear": abs(i * n * f_z + m_hat * f_t) ** 2}
    q1_parts = {"trace": abs((m_hat**2 + n**2) * f_r + i * n * f_t) ** 2,
                "hoop": abs(n**2 * f_r + i * n * f_t) ** 2,
                "axial": m_hat**4 * abs(f_r) ** 2,
                "shear": m_hat**2 * abs(f_t - 2.0 * i * n * f_r) ** 2}
    Q1star = (Lambda + 2.0) * (m_hat**2 + n**2) ** 2 * abs(f_r) ** 2
    B = m_hat**2 * abs(f_r) ** 2
    return ReducedForms(Q0=float(np.sum(combine_q(q0_parts, Lambda))),
                        Q1=float(np.sum(combine_q(q1_parts, Lambda))),
                        Q1star=float(np.sum(Q1star)), B=float(np.sum(B)))


def optimal_tangential(f_r, m_hat, n, Lambda):
    """Minimizer (f_theta*, f_z*) of Q0 over the tangential amplitudes.

    Q0 there is q0_at_optimum(f_r, m_hat, n, Lambda).
    """
    if m_hat == 0 and n == 0:
        raise ParameterError("optimal tangential amplitudes undefined at m_hat = n = 0")
    den = (Lambda + 2.0) * (n**2 + m_hat**2) ** 2
    f_t = 1j * n * f_r * ((3.0 * Lambda + 4.0) * m_hat**2 + (Lambda + 2.0) * n**2) / den
    f_z = m_hat * f_r * (Lambda * m_hat**2 - (Lambda + 2.0) * n**2) / den
    return f_t, f_z


def _membrane_term(m_hat, n, Lambda):
    """Membrane part of lambda*/mu; Q0 at the membrane optimum is |f_r|^2 m_hat^2 times it."""
    return 4.0 * m_hat**2 * (Lambda + 1.0) / ((Lambda + 2.0) * (n**2 + m_hat**2) ** 2)


def q0_at_optimum(f_r, m_hat, n, Lambda):
    return abs(f_r) ** 2 * m_hat**2 * _membrane_term(m_hat, n, Lambda)


def lambda_star(geometry, material, m, n):
    """The two-term load surface lambda*(h; m, n) (with the mu prefactor).

    Broadcasts over array-valued m and n.
    """
    if np.any(np.asarray(m) < 1):
        raise ParameterError("lambda* requires m >= 1 (B vanishes at m = 0)")
    h, Lam = geometry.h, material.Lambda
    m_hat = math.pi * m / geometry.L
    bending = h**2 * (Lam + 2.0) * (m_hat**2 + n**2) ** 2 / (12.0 * m_hat**2)
    return material.mu * (_membrane_term(m_hat, n, Lam) + bending)


def classical_load(geometry, material):
    """Continuum minimum of the load surface: 2 mu h sqrt((Lambda+1)/3)."""
    return 2.0 * material.mu * geometry.h * math.sqrt((material.Lambda + 1.0) / 3.0)


def _circle_radius(geometry, Lambda):
    """k of the Koiter circle n^2 + m_hat^2 = 2 k m_hat."""
    return (3.0 * (Lambda + 1.0)) ** 0.25 / math.sqrt(geometry.h * (Lambda + 2.0))


def circle_residual(geometry, Lambda, m, n):
    """Relative defect of (m, n) from the Koiter circle."""
    m_hat = math.pi * m / geometry.L
    target = (2.0 * _circle_radius(geometry, Lambda) * m_hat) ** 2
    return abs((n**2 + m_hat**2) ** 2 - target) / target


def max_circle_m(geometry, Lambda):
    """M(h): largest m on the Koiter circle."""
    return int(math.floor(2.0 * _circle_radius(geometry, Lambda) * geometry.L / math.pi))


def _circle_radicand(m, geometry, Lambda):
    """n^2 on the Koiter circle for axial mode m; negative past M(h).

    Broadcasts over array-valued m.
    """
    m_hat = math.pi * m / geometry.L
    return m_hat * (2.0 * _circle_radius(geometry, Lambda) - m_hat)


def circle_n_real(m, geometry, Lambda):
    """Real circumferential wavenumber on the Koiter circle for axial mode m."""
    radicand = _circle_radicand(m, geometry, Lambda)
    if radicand < 0:
        raise ParameterError(
            f"m={m} lies outside the Koiter circle (m > M(h) = "
            f"{max_circle_m(geometry, Lambda)})")
    return math.sqrt(radicand)


def koiter_circle_n(m, geometry, Lambda):
    """n(m): circumferential wavenumber on the Koiter circle for axial mode m."""
    return int(math.floor(circle_n_real(m, geometry, Lambda)))


@dataclass(frozen=True)
class KoiterResult:
    lambda_hat: float
    m_star: int
    n_star: int
    circle_residual: float
    closed_form: float


def minimize_load(geometry, material, m_max=None, n_max=None):
    """Integer minimization of lambda*(h; m, n) over 1 <= m <= m_max, 0 <= n <= n_max.

    m_max defaults to 2 M(h); n_max=None means no cap on n.  For fixed m the
    surface is mu (a/s^2 + b s^2) in s = n^2 + m_hat^2, unimodal in n with its
    minimum on the Koiter circle n = n_c(m), so only n = 0, floor(n_c) and
    floor(n_c) + 1 (clipped to n_max) are evaluated.  Ties break toward the
    smallest m, then the smallest n.  The result always sits above the
    continuum lower bound 2 mu h sqrt((Lambda+1)/3).
    """
    h, Lam = geometry.h, material.Lambda
    M = max_circle_m(geometry, Lam)
    if M < 1:
        raise ParameterError(f"h={h} too large: M(h) = {M} < 1, no circle modes")
    if m_max is None:
        m_max = 2 * M
    if m_max < 1 or (n_max is not None and n_max < 0):
        raise ParameterError(f"empty search window: m_max={m_max}, n_max={n_max}")

    ms = np.arange(1, m_max + 1, dtype=float)
    n_c = np.floor(np.sqrt(np.maximum(_circle_radicand(ms, geometry, Lam), 0.0)))
    # m-major, ascending n within each m: the first argmin keeps the tie-break
    ns = np.stack([np.zeros_like(n_c), n_c, n_c + 1.0], axis=1)
    if n_max is not None:
        ns = np.minimum(ns, n_max)
    lam = lambda_star(geometry, material, ms[:, None], ns)
    flat = int(np.argmin(lam))
    m_star = flat // ns.shape[1] + 1
    n_star = int(ns.flat[flat])
    return KoiterResult(
        lambda_hat=float(lam.flat[flat]), m_star=m_star, n_star=n_star,
        circle_residual=circle_residual(geometry, Lam, m_star, n_star),
        closed_form=classical_load(geometry, material))


def mode_amplitudes(m, n, geometry, material):
    """Complex amplitudes (f_r, f_theta, f_z) of the explicit buckling mode.

    The tangential amplitudes are the exact membrane minimizers at the
    integer wavenumbers, so K* of the mode equals lambda*(h; m, n) exactly.
    """
    f_t, f_z = optimal_tangential(1.0 + 0.0j, math.pi * m / geometry.L, n,
                                  material.Lambda)
    return 1.0 + 0.0j, f_t, f_z


def display_amplitudes(m, n, geometry, material):
    """Circle-substituted mode amplitudes.

    Same as mode_amplitudes except the denominator (n^2+m_hat^2)^2 of the
    tangential pair is replaced through the circle by (2 k m_hat)^2.  Exact
    on the circle of classical modes; at the floored integer n the
    substitution is off by O(circle residual), which the membrane form
    amplifies, so these serve only as a near-circle consistency oracle.
    """
    m_hat = math.pi * m / geometry.L
    k = _circle_radius(geometry, material.Lambda)
    scale = (n**2 + m_hat**2) ** 2 / (2.0 * k * m_hat) ** 2
    f_r, f_t, f_z = mode_amplitudes(m, n, geometry, material)
    return f_r, scale * f_t, scale * f_z


def real_profiles(n, k_hat, f_r, f_t, f_z):
    """Real mid-surface profiles of u = Re(f e^{i n theta}) at axial wavenumber k_hat.

    The real parts of f_r and f_z pair with cos(n theta), Im(f_theta) with
    -sin(n theta); f_r and f_theta carry sin(k_hat z), f_z carries cos(k_hat z).
    """
    return (TrigSurface("cos", n, "sin", k_hat, amp=complex(f_r).real),
            TrigSurface("sin", n, "sin", k_hat, amp=-complex(f_t).imag),
            TrigSurface("cos", n, "cos", k_hat, amp=complex(f_z).real))


def buckling_mode(m, geometry, material, n=None):
    """Explicit buckling-mode displacement field for axial wavenumber m.

    Real form of the mode amplitudes: f_r = sin(m_hat z) cos(n theta) with the
    closed-form tangential coefficients; returned as the U(f) field.
    """
    if n is None:
        n = koiter_circle_n(m, geometry, material.Lambda)
    if m < 1:
        raise ParameterError("buckling mode requires m >= 1")
    f_r, f_t, f_z = real_profiles(n, math.pi * m / geometry.L,
                                  *mode_amplitudes(m, n, geometry, material))
    return from_midsurface(f_r, f_t, f_z, bc_tag="average_top")
