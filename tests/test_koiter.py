"""Per-mode buckling algebra: load surface, circle, explicit modes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylshell import koiter
from cylshell.errors import ParameterError
from cylshell.fields import functional_family, volume_grid
from cylshell.material import ShellGeometry, derive_material

from shell_bc import verify_bc


def test_classical_load_closed_form(mat, geo_thin):
    # 2 mu h sqrt((Lambda+1)/3) at E=1, nu=0.3, h=1e-4
    val = koiter.classical_load(geo_thin, mat)
    assert val == pytest.approx(7.022084070579054e-05, rel=1e-12)


def test_lambda_star_reference_value(mat, geo_thin):
    assert koiter.lambda_star(geo_thin, mat, 1, 13) == pytest.approx(
        7.044413127241846e-05, rel=1e-12)


def test_lambda_star_requires_axial_mode(mat, geo_thin):
    with pytest.raises(ParameterError):
        koiter.lambda_star(geo_thin, mat, 0, 13)


def test_circle_wavenumbers(mat, geo_thin):
    assert koiter.koiter_circle_n(1, geo_thin, mat.Lambda) == 13
    assert koiter.max_circle_m(geo_thin, mat.Lambda) == 176
    with pytest.raises(ParameterError):
        koiter.koiter_circle_n(200, geo_thin, mat.Lambda)


@pytest.mark.parametrize("m", [0, -3])
def test_nonpositive_axial_mode_named_first(mat, geo_thin, m):
    # m < 1 is reported as such, not as a mode outside the Koiter circle
    with pytest.raises(ParameterError, match=rf"m={m} must be >= 1"):
        koiter.circle_n_real(m, geo_thin, mat.Lambda)
    with pytest.raises(ParameterError, match=rf"m={m} must be >= 1"):
        koiter.buckling_mode(m, geo_thin, mat)
    with pytest.raises(ParameterError, match=rf"m={m} must be >= 1"):
        koiter.buckling_mode(m, geo_thin, mat, n=13)
    # checked before the circle target, which vanishes at m = 0
    with pytest.raises(ParameterError, match=rf"m={m} must be >= 1"):
        koiter.circle_residual(geo_thin, mat.Lambda, m, 13)


@pytest.mark.parametrize("nu", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-6])
def test_circle_is_the_load_minimum(nu, h):
    # on the one circle n^2 + m_hat^2 = 2 k m_hat the load surface equals the
    # classical load, the residual vanishes, and the radicand turns negative
    # exactly past M(h)
    mat = derive_material(1.0, nu)
    geo = ShellGeometry(h=h, L=math.pi)
    M = koiter.max_circle_m(geo, mat.Lambda)
    for m in (1, M // 2, M):
        n = koiter.circle_n_real(m, geo, mat.Lambda)
        assert koiter.lambda_star(geo, mat, m, n) == pytest.approx(
            koiter.classical_load(geo, mat), rel=1e-12)
        assert koiter.circle_residual(geo, mat.Lambda, m, n) <= 1e-12
    assert koiter._circle_radicand(M + 1, geo, mat.Lambda) < 0.0 \
        <= koiter._circle_radicand(M, geo, mat.Lambda)


def q0_at_optimum(f_r, m_hat, n, Lambda):
    """Oracle: Q0 at the membrane optimum, |f_r|^2 m_hat^2 times the membrane
    term of lambda*/mu."""
    return abs(f_r) ** 2 * m_hat**2 * koiter._membrane_term(m_hat, n, Lambda)


def test_optimal_tangential_minimizes_membrane(mat):
    # brute-force 2-D minimization over (Im f_t, Re f_z) at a few triples
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    for _ in range(5):
        m_hat = rng.uniform(0.5, 6.0)
        n = rng.integers(0, 12)
        f_t, f_z = koiter.optimal_tangential(1.0 + 0.0j, m_hat, n, mat.Lambda)

        def q0(x):
            return koiter.reduced_forms(m_hat, n, mat.Lambda, 1.0 + 0.0j,
                                        1j * x[0], x[1]).Q0

        res = minimize(q0, [0.0, 0.0], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        assert res.x[0] == pytest.approx(f_t.imag, abs=1e-6)
        assert res.x[1] == pytest.approx(f_z.real, abs=1e-6)
        assert q0([f_t.imag, f_z.real]) == pytest.approx(
            q0_at_optimum(1.0, m_hat, n, mat.Lambda), rel=1e-12)


def test_optimal_tangential_degenerate(mat):
    with pytest.raises(ParameterError):
        koiter.optimal_tangential(1.0, 0.0, 0, mat.Lambda)


def test_lambda_star_matches_reduced_forms(mat, geo_thin):
    # mu (Q0_opt + h^2/12 Q1*) / B at unit radial amplitude
    m, n = 2, 17
    m_hat = math.pi * m / geo_thin.L
    f_t, f_z = koiter.optimal_tangential(1.0 + 0.0j, m_hat, n, mat.Lambda)
    forms = koiter.reduced_forms(m_hat, n, mat.Lambda, 1.0 + 0.0j, f_t, f_z)
    val = mat.mu * (forms.Q0 + geo_thin.h**2 / 12.0 * forms.Q1star) / forms.B
    assert val == pytest.approx(koiter.lambda_star(geo_thin, mat, m, n), rel=1e-12)


def test_minimize_load_reference(mat, geo_thin):
    res = koiter.minimize_load(geo_thin, mat)
    assert (res.m_star, res.n_star) == (124, 81)
    assert res.lambda_hat == pytest.approx(7.022084073031715e-05, rel=1e-12)
    assert 0.0 <= res.lambda_hat / res.closed_form - 1.0 <= 0.02
    assert res.circle_residual <= 0.05


def dense_minimize_load(geometry, material, m_max=None, n_max=None):
    """Exhaustive search of the (m_max, n_max + 1) grid: the oracle.

    The default n_max is at least twice every circle wavenumber n_c(m),
    m <= m_max (for L = pi), so it never binds the unimodal n-direction.
    """
    h, Lam = geometry.h, material.Lambda
    if m_max is None:
        m_max = 2 * koiter.max_circle_m(geometry, Lam)
    if n_max is None:
        n_max = int(math.ceil(
            2.0 * (4.0 * math.sqrt(3.0 * (Lam + 1.0)) / (h * (Lam + 2.0))) ** 0.25
            * math.sqrt(m_max)))
    ms = np.arange(1, m_max + 1, dtype=float)[:, None]
    ns = np.arange(0, n_max + 1, dtype=float)[None, :]
    lam = koiter.lambda_star(geometry, material, ms, ns)
    flat = int(np.argmin(lam))
    return flat // (n_max + 1) + 1, flat % (n_max + 1), float(lam.flat[flat])


@pytest.mark.parametrize("h, m_max, n_max", [
    (1e-2, None, None), (10**-2.5, None, None), (1e-3, None, None),
    (10**-3.5, None, None), (1e-4, None, None), (1e-5, None, None),
    (1e-4, 100, 60), (1e-4, 30, 200), (1e-4, 1, 10), (1e-4, 500, 5),
    (1e-3, 7, 0), (1e-3, 200, None),
])
def test_minimize_load_matches_dense_grid(mat, h, m_max, n_max):
    geo = ShellGeometry(h=h, L=math.pi)
    res = koiter.minimize_load(geo, mat, m_max=m_max, n_max=n_max)
    m, n, lam = dense_minimize_load(geo, mat, m_max=m_max, n_max=n_max)
    assert (res.m_star, res.n_star) == (m, n)
    assert res.lambda_hat == pytest.approx(lam, rel=1e-12)


def test_minimize_load_deep_h(mat):
    # at h <= 1e-8 the excess over the closed form is at rounding level,
    # of either sign, so the band is absolute
    geo = ShellGeometry(h=1e-9, L=math.pi)
    res = koiter.minimize_load(geo, mat)
    assert abs(res.lambda_hat / res.closed_form - 1.0) <= 1e-12


def test_minimize_load_memory(mat):
    geo = ShellGeometry(h=1e-6, L=math.pi)
    tracemalloc.start()
    try:
        koiter.minimize_load(geo, mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_minimize_load_window_cap(mat):
    # the default window 2 M(h) at L = pi passes the cap at h = 1e-12 (it is
    # not run here: about 0.5 GB) and not at 1e-13; a window over the cap,
    # default or given, is rejected before any array is made
    def window(h):
        return 2 * koiter.max_circle_m(ShellGeometry(h, math.pi), mat.Lambda)

    assert window(1e-12) <= koiter.MAX_WINDOW < window(1e-13)
    tracemalloc.start()
    try:
        for geo, m_max in ((ShellGeometry(1e-13, math.pi), None),
                           (ShellGeometry(1e-4, math.pi), koiter.MAX_WINDOW + 1)):
            with pytest.raises(ParameterError, match="exceeds 4000000"):
                koiter.minimize_load(geo, mat, m_max=m_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_extreme_lengths_are_parameter_errors(mat):
    # m_hat^2 underflows at L = 1e300, and M(h) overflows a float at h =
    # 1e-300, L = 1e300: parameter errors, not a division by zero or an
    # int() of infinity
    geo = ShellGeometry(1e-4, 1e300)
    with pytest.raises(ParameterError, match="too long"):
        koiter.lambda_star(geo, mat, 1, 0)
    with pytest.raises(ParameterError, match="exceeds 2\\^53"):
        koiter.max_circle_m(ShellGeometry(1e-300, 1e300), mat.Lambda)
    assert koiter.lambda_star(ShellGeometry(1e-4, 1e70), mat, 1, 0) < math.inf


def test_minimize_load_rejects_thick_shell(mat):
    geo = ShellGeometry(h=0.9, L=0.05)
    with pytest.raises(ParameterError):
        koiter.minimize_load(geo, mat)


@given(m=st.integers(min_value=1, max_value=170),
       n=st.integers(min_value=0, max_value=300))
@settings(max_examples=80, deadline=None)
def test_load_surface_dominates_classical(m, n):
    mat = derive_material(1.0, 0.3)
    geo = ShellGeometry(h=1e-4, L=math.pi)
    assert koiter.lambda_star(geo, mat, m, n) >= koiter.classical_load(geo, mat)


def mode_kstar_algebraic(m, n, geometry, material):
    """Oracle: K* of the explicit mode by pure per-mode algebra."""
    m_hat = math.pi * m / geometry.L
    f_r, f_t, f_z = koiter.mode_amplitudes(m, n, geometry, material)
    forms = koiter.reduced_forms(m_hat, n, material.Lambda, f_r, f_t, f_z)
    return material.mu * (forms.Q0 + geometry.h**2 / 12.0 * forms.Q1star) / forms.B


def test_buckling_mode_bc_and_kstar(mat, geo_thin):
    n = 13
    field = koiter.buckling_mode(1, geo_thin, mat, n=n)
    assert verify_bc(field, geo_thin)
    grid = volume_grid(geo_thin, n_r=4, n_th=2 * n + 7, n_z=24)
    fam = functional_family(field, mat, geo_thin, grid)
    lam = koiter.lambda_star(geo_thin, mat, 1, n)
    assert fam["Kstar"] == pytest.approx(lam, rel=1e-8)
    assert fam["Kstar"] == pytest.approx(
        mode_kstar_algebraic(1, n, geo_thin, mat), rel=1e-8)


def test_mode_kstar_amplitude_invariance(mat, geo_thin):
    # K* is a quotient of quadratics: scaling the amplitudes cancels
    m, n = 1, 13
    m_hat = math.pi * m / geo_thin.L
    base = mode_kstar_algebraic(m, n, geo_thin, mat)
    f_t, f_z = koiter.optimal_tangential(3.7 + 0.0j, m_hat, n, mat.Lambda)
    forms = koiter.reduced_forms(m_hat, n, mat.Lambda, 3.7 + 0.0j, f_t, f_z)
    scaled = mat.mu * (forms.Q0 + geo_thin.h**2 / 12.0 * forms.Q1star) / forms.B
    assert scaled == pytest.approx(base, rel=1e-12)


def display_amplitudes(m, n, geometry, material):
    """Circle-substituted mode amplitudes.

    Same as mode_amplitudes except the denominator (n^2+m_hat^2)^2 of the
    tangential pair is replaced through the circle by (2 k m_hat)^2.  Exact
    on the circle of classical modes; at the floored integer n the
    substitution is off by O(circle residual), which the membrane form
    amplifies, so these serve only as a near-circle consistency oracle.
    """
    m_hat = math.pi * m / geometry.L
    k = koiter._circle_radius(geometry, material.Lambda)
    scale = (n**2 + m_hat**2) ** 2 / (2.0 * k * m_hat) ** 2
    f_r, f_t, f_z = koiter.mode_amplitudes(m, n, geometry, material)
    return f_r, scale * f_t, scale * f_z


def test_display_amplitudes_exact_on_circle(mat, geo_thin):
    # with n on the continuum circle the circle-substituted coefficients
    # coincide with the exact membrane minimizers
    m_hat = math.pi / geo_thin.L
    radicand = 2.0 * m_hat * (3.0 * (mat.Lambda + 1.0)) ** 0.25 \
        / math.sqrt(geo_thin.h * (mat.Lambda + 2.0)) - m_hat**2
    n_circle = math.sqrt(radicand)
    exact = koiter.mode_amplitudes(1, n_circle, geo_thin, mat)
    disp = display_amplitudes(1, n_circle, geo_thin, mat)
    for a, d in zip(exact, disp):
        assert abs(a - d) <= 1e-12 * max(abs(a), 1e-300)
