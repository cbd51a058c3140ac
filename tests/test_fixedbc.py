"""Clamped-bottom two-mode family and its classical-load limit."""

import math
import tracemalloc

import pytest

from cylshell import fixedbc
from cylshell.errors import ParameterError
from cylshell.fields import functional_family, verify_bc, volume_grid
from cylshell.koiter import classical_load
from cylshell.material import ShellGeometry

L = math.pi


def constraint_sums(m, n, geometry, Lambda):
    """Oracle: the two Fourier constraint sums of the clamped bottom edge.

    Sum of k_hat * f_r(k) and sum of f_z(k) over the active modes; both
    vanish identically for this family.
    """
    amps = fixedbc.mode_amplitudes(m, n, geometry, Lambda)
    s_r = sum(k * amps[k][0] for k in amps) * math.pi / geometry.L
    s_z = sum(amps[k][2] for k in amps)
    return s_r, s_z


def gamma(m, n, geometry, Lambda):
    """Leading-order tangential coefficient 1/m_hat + Lambda m_hat / ((Lambda+2) n^2)."""
    m_hat = math.pi * m / geometry.L
    return 1.0 / m_hat + Lambda * m_hat / ((Lambda + 2.0) * n**2)


def simplified_amplitudes(m, n, geometry, Lambda):
    """Oracle: leading-order amplitudes with gamma(k, n) and 1/n^2 coefficients.

    Agrees with mode_amplitudes to relative O(m_hat^2 / n^2), but the
    membrane excess it carries decays only like h^{1/4}, so the modes use
    the full coefficients.
    """
    out = {}
    for k, sign in ((m, 1.0), (m + 2, -1.0)):
        k_hat = math.pi * k / geometry.L
        out[k] = (sign / k_hat,
                  sign * 1j * gamma(k, n, geometry, Lambda) / n,
                  -sign / n**2)
    return out


def mode_functionals(m, n, geometry, material):
    """Oracle: the full functional family {K, K1, K0, K*} of the mode by volume quadrature.

    The grid integrates the (m+2)-mode products exactly: theta products have
    frequency <= 2n (uniform rule exact below the node count), z products
    reach frequency 2 pi (m+2)/L (an oversized Gauss rule), and the radial
    rule has 4 Gauss nodes.  It grows like n m, so the h-sweep uses the
    per-mode algebra instead.
    """
    field = fixedbc.fixedbc_mode(m, geometry, material, n=n)
    grid = volume_grid(geometry, n_r=4, n_th=2 * n + 5, n_z=3 * (m + 2) + 12)
    return functional_family(field, material, geometry, grid)


def test_wavenumber_map():
    assert fixedbc.wavenumber(1e-4, 0.25) == 10
    assert fixedbc.wavenumber(1e-6, 0.25) == 32
    assert fixedbc.wavenumber(0.5, 0.25) == 1  # clipped to m >= 1
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ParameterError):
            fixedbc.wavenumber(1e-4, alpha)


def test_circle_wavenumber_rounds_to_nearest(mat, geo_thin):
    assert fixedbc.circle_wavenumber(10, geo_thin, mat.Lambda) == 41
    with pytest.raises(ParameterError):
        fixedbc.circle_wavenumber(500, geo_thin, mat.Lambda)


def test_constraint_sums_vanish(mat, geo_thin):
    s_r, s_z = constraint_sums(10, 41, geo_thin, mat.Lambda)
    assert s_r == 0.0
    assert s_z == 0.0


def test_mode_satisfies_clamped_bc(mat):
    geo = ShellGeometry(h=1e-3, L=L)
    field = fixedbc.fixedbc_mode(3, geo, mat)
    assert field.bc_tag == "fixed_bottom"
    assert verify_bc(field, geo)


def test_mode_rejects_out_of_circle(mat):
    geo = ShellGeometry(h=1e-2, L=L)  # M(h) = 17 here
    with pytest.raises(ParameterError):
        fixedbc.fixedbc_mode(17, geo, mat)
    with pytest.raises(ParameterError):
        fixedbc.classical_ratio(17, geo, mat)


def test_simplified_amplitudes_are_leading_order(mat, geo_thin):
    # relative deviation of the leading-order coefficients is O(m_hat^2/n^2)
    m, n = 10, 41
    full = fixedbc.mode_amplitudes(m, n, geo_thin, mat.Lambda)
    simp = simplified_amplitudes(m, n, geo_thin, mat.Lambda)
    for k in (m, m + 2):
        bound = 3.0 * (math.pi * k / L) ** 2 / n**2
        for a, b in zip(full[k], simp[k]):
            assert abs(a - b) <= bound * abs(a) + 1e-300, (k, a, b)


def test_t_coefficient_limit(mat, geo_thin):
    T = fixedbc.t_coefficient(10, 41, geo_thin, mat.Lambda)
    assert T == pytest.approx(1.0 / 41**2, rel=0.15)


def test_quadrature_matches_fourier_algebra(mat):
    # the volume-quadrature K0 is an independent oracle for the algebra
    for h, m, n, rel in ((1e-4, 10, 41, 1e-10), (1e-6, 32, 236, 1e-9)):
        geo = ShellGeometry(h=h, L=L)
        rq = mode_functionals(m, n, geo, mat)["K0"] / classical_load(geo, mat)
        assert rq == pytest.approx(fixedbc.classical_ratio(m, geo, mat, n=n), rel=rel)


def test_limit_expression():
    assert fixedbc.limit_expression(10) == pytest.approx((2.0 + 1.44 + 1.0 / 1.44) / 4.0)
    # large m: the two modes merge and the ratio tends to 1
    assert fixedbc.limit_expression(10**6) == pytest.approx(1.0, abs=1e-5)


def test_ratio_reference_values(mat):
    report = fixedbc.fixedbc_limit([1e-4, 1e-5, 1e-6], 0.25, L, mat)
    ratios = {row.h: row.ratio for row in report.rows}
    assert ratios[1e-4] == pytest.approx(1.027444058235132, rel=1e-9)
    assert ratios[1e-5] == pytest.approx(1.009350755035927, rel=1e-9)
    assert ratios[1e-6] == pytest.approx(1.0033203423546768, rel=1e-9)


def test_ratio_near_finite_m_limit(mat, geo_thin):
    # at h = 1e-4 the m = 10 ratio sits close to its finite-m limit value
    ratio = fixedbc.classical_ratio(10, geo_thin, mat)
    assert ratio == pytest.approx(fixedbc.limit_expression(10), abs=0.01)


def test_excess_decays_like_h_to_two_alpha(mat):
    report = fixedbc.fixedbc_limit([1e-4, 1e-5, 1e-6], 0.25, L, mat)
    fit = report.excess_fit()
    assert fit.exponent == pytest.approx(0.5, abs=0.1)


def test_limit_memory(mat):
    # the algebra needs O(1) memory per h; the volume quadrature allocated
    # about 178 MB at h = 1e-7
    tracemalloc.start()
    try:
        report = fixedbc.fixedbc_limit([1e-7], 0.25, L, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.rows[0].m, report.rows[0].n) == (56, 557)
    assert peak < 5 * 2**20

