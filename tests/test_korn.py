"""Korn constants and gradient-component bounds on the thin cylinder."""

import ast
import builtins
import collections
import functools
import math
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from numpy.polynomial import Polynomial

from cylshell import blas, korn
from cylshell.errors import ParameterError, SolverError
from cylshell.fields import (GRAD_KEYS, STRAIN_KEYS, STRAIN_WEIGHT, TrigSurface,
                             cylindrical_gradient, gradient, symmetrize, volume_grid)
from cylshell.material import ShellGeometry


def bisect_min_eigenvalue(pair, tol=1e-10):
    """Determinant-free oracle: largest lam with S - lam M positive semidefinite.

    Bisection on the Cholesky feasibility of S - lam M; independent of the
    QR/SVD path used by min_rayleigh.
    """
    S, M = pair.C_num.T @ pair.C_num, pair.C_den.T @ pair.C_den
    rng = np.random.default_rng(0)
    hi = min(float(v @ S @ v / (v @ M @ v))
             for v in rng.standard_normal((5, S.shape[0])))
    lo = 0.0

    def feasible(lam):
        try:
            np.linalg.cholesky(S - lam * M)
            return True
        except np.linalg.LinAlgError:
            return False

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def fd_radial_grid(geometry, N):
    """Oracle grid: uniform nodes on I_h, second-order differences, trapezoid weights."""
    a, b = geometry.I_h
    nodes = np.linspace(a, b, N)
    dr = nodes[1] - nodes[0]
    D = np.zeros((N, N))
    for i in range(1, N - 1):
        D[i, i - 1], D[i, i + 1] = -0.5 / dr, 0.5 / dr
    D[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / dr
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / dr
    w = np.full(N, dr)
    w[0] = w[-1] = dr / 2.0
    return korn.RadialGrid(nodes=nodes, D=D, weights=w)


def per_mode_forms(m, n, geometry, grid, numerator="strain", denominator="grad"):
    """Oracle: one mode's forms from its 12 operator partials, built by hstack.

    The partials of (u_r, u_theta, u_z) are the value, d/dr through D,
    d/dtheta as (-n, +n, -n) and d/dz as (+m_hat, +m_hat, -m_hat) times the
    value; the operators are weighted by sqrt(W) key by key.
    """
    N, r = grid.N, grid.nodes
    m_hat = math.pi * m / geometry.L
    I, Z = np.eye(N), np.zeros((N, N))
    p = {}
    for j, (c, d_th, d_z) in enumerate((("ur", -n, m_hat), ("ut", n, m_hat),
                                        ("uz", -n, -m_hat))):
        F = np.hstack([I if k == j else Z for k in range(3)])
        p.update({c: F, c + "_r": np.hstack([grid.D if k == j else Z for k in range(3)]),
                  c + "_t": d_th * F, c + "_z": d_z * F})
    ops = {**cylindrical_gradient(p, r[:, None]), "ur": p["ur"]}
    ang = math.pi if n >= 1 else 2.0 * math.pi
    sqw = np.sqrt(grid.weights * r * (ang * (geometry.L / 2.0)))
    ops = {key: sqw[:, None] * op for key, op in ops.items()}
    return korn._form_rows(numerator, ops), korn._form_rows(denominator, ops)


def stacked_forms(grid, modes, geometry, numerator="strain", denominator="grad"):
    """(C_num, C_den) of a stack of modes: ``_form_rows`` of ``_mode_operators``."""
    ops = korn._mode_operators(grid, modes, geometry)
    return korn._form_rows(numerator, ops), korn._form_rows(denominator, ops)


FORM_PAIRS = [("strain", "grad")] + [(f"component:{group}", "strain")
                                     for group in korn.COMPONENT_GROUPS]


class RadialPolynomialField:
    """Oracle field u_c = p_c(r) s_c(theta, z) with polynomial radial profiles.

    Quadratic p_c lie outside the U(f) fields of ``cylshell.fields``;
    ``gradient`` reads only ``partials``.
    """

    def __init__(self, profiles, angular):
        self.profiles, self.angular = profiles, angular

    def partials(self, r, theta, z):
        out = {}
        for c, p, s in zip(("ur", "ut", "uz"), self.profiles, self.angular):
            out.update({c: p(r) * s(theta, z), c + "_r": p.deriv()(r) * s(theta, z),
                        c + "_t": p(r) * s(theta, z, 1, 0), c + "_z": p(r) * s(theta, z, 0, 1)})
        return out


def random_form_pair(rng, d):
    """Small random sqrt(W)-weighted row-stack pair with SPD denominator."""
    A_s = np.vstack([rng.standard_normal((d + 2, d)), np.zeros((1, d))])
    A_m = rng.standard_normal((d + 3, d)) + np.vstack([2.0 * np.eye(d),
                                                       np.zeros((3, d))])
    sqw = np.sqrt(rng.uniform(0.5, 1.5, d + 3))[:, None]
    return korn.QuadraticFormPair(C_num=sqw * A_s, C_den=sqw * A_m)


def test_cheb_grid_integrates_and_differentiates():
    geo = ShellGeometry(h=0.2, L=1.0)
    grid = korn.radial_grid(geo, N=16)
    r = grid.nodes
    # Clenshaw-Curtis integrates polynomials of moderate degree exactly
    assert float(grid.weights @ r**6) == pytest.approx(
        (geo.r_outer**7 - geo.r_inner**7) / 7.0, rel=1e-12)
    # spectral differentiation of r^5 is exact
    assert grid.D @ r**5 == pytest.approx(5.0 * r**4, rel=1e-10)


def test_fd_grid_differentiates_linear():
    geo = ShellGeometry(h=0.2, L=1.0)
    grid = fd_radial_grid(geo, N=21)
    assert grid.D @ grid.nodes == pytest.approx(np.ones(21), rel=1e-10)
    assert float(np.sum(grid.weights)) == pytest.approx(geo.h, rel=1e-12)


def test_mode_forms_match_field_quadrature(geo_thick):
    # the operator table (signs, 1/r factors, the pi L / 2 mode normalization)
    # against fields.gradient and symmetrize on the same Fourier mode, with
    # quadratic radial profiles that the collocation grid represents exactly
    m, n = 2, 3
    grid = korn.radial_grid(geo_thick, N=16)
    pair = korn.assemble_mode_forms(m, n, geo_thick, grid)
    m_hat = math.pi * m / geo_thick.L
    x = Polynomial([-1.0, 1.0]) / geo_thick.h          # (r - 1) / h
    profiles = [0.3 - 1.2 * x + 0.7 * x**2, 1.1 + 0.4 * x - 0.9 * x**2,
                -0.5 + 0.8 * x + 1.3 * x**2]
    angular = [TrigSurface("cos", n, "sin", m_hat), TrigSurface("sin", n, "sin", m_hat),
               TrigSurface("cos", n, "cos", m_hat)]
    field = RadialPolynomialField(profiles, angular)
    quad = volume_grid(geo_thick, n_r=8, n_th=16, n_z=24)
    g = gradient(field, quad.R, quad.TH, quad.Z)
    e = symmetrize(g)
    strain_sq = sum(STRAIN_WEIGHT[k] * quad.norm_sq(e[k]) for k in STRAIN_KEYS)
    grad_sq = sum(quad.norm_sq(g[k]) for k in GRAD_KEYS)
    v = np.concatenate([p(grid.nodes) for p in profiles])
    y_num, y_den = pair.C_num @ v, pair.C_den @ v
    assert float(y_num @ y_num) == pytest.approx(strain_sq, rel=1e-10)
    assert float(y_den @ y_den) == pytest.approx(grad_sq, rel=1e-10)


@pytest.mark.parametrize("grid_kind", ["cheb8", "cheb32", "fd"])
def test_mode_forms_match_per_mode_oracle(grid_kind):
    # the affine table gives every mode, alone or in a stack, the bits of
    # the per-mode construction; L is not a multiple of pi, so m_hat rounds
    geo = ShellGeometry(h=10**-2.5, L=1.3)
    grid = (fd_radial_grid(geo, 24) if grid_kind == "fd"
            else korn.radial_grid(geo, N=int(grid_kind[4:])))
    stack = [(3, 0), (12, 40), (1, 5)]
    for forms in FORM_PAIRS:
        for m, n in stack:
            pair = korn.assemble_mode_forms(m, n, geo, grid, *forms)
            C_num, C_den = per_mode_forms(m, n, geo, grid, *forms)
            assert np.array_equal(pair.C_num, C_num) and np.array_equal(pair.C_den, C_den)
        stacked = stacked_forms(grid, stack, geo, *forms)
        for k, (m, n) in enumerate(stack):
            C_num, C_den = per_mode_forms(m, n, geo, grid, *forms)
            assert np.array_equal(stacked[0][k], C_num) and np.array_equal(stacked[1][k], C_den)


def test_grid_builds_its_operator_table_once(geo_thick, monkeypatch):
    # the table is built on the grid's first use and kept: a second
    # assemble_mode_forms, or a stack of modes, on the same grid reuses it
    calls = []
    build = korn._operator_table

    def spy(grid):
        calls.append(grid)
        return build(grid)

    monkeypatch.setattr(korn, "_operator_table", spy)
    grid = korn.radial_grid(geo_thick, N=8)
    first = korn.assemble_mode_forms(1, 5, geo_thick, grid)
    second = korn.assemble_mode_forms(1, 5, geo_thick, grid)
    korn._mode_operators(grid, [(2, 3), (4, 0)], geo_thick)
    assert len(calls) == 1 and calls[0] is grid
    assert np.array_equal(first.C_num, second.C_num)
    assert np.array_equal(first.C_den, second.C_den)


def test_min_rayleigh_against_bisection_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        pair = random_form_pair(rng, int(rng.integers(3, 8)))
        value, v = korn.min_rayleigh(pair)
        assert value == pytest.approx(bisect_min_eigenvalue(pair), rel=1e-8)
        # the reported eigenvector attains the reported quotient
        assert pair.quotient(v) == pytest.approx(value, rel=1e-10)


def test_max_rayleigh_dominates_min():
    rng = np.random.default_rng(5)
    pair = random_form_pair(rng, 6)
    lo, _ = korn.min_rayleigh(pair)
    hi, _ = korn.max_rayleigh(pair)
    assert hi >= lo


def test_lapack_failure_is_solver_error():
    # gesdd did not converge on this Korn pencil when B came from a
    # triangular solve (numpy 2.4.6 with OpenBLAS 0.3.31); with B from
    # np.linalg.solve it converges.  The test now pins the pencil's minimum
    # quotient and checks that the returned vector attains it; the gesvd
    # retry is covered by test_svd_retries_with_gesvd and
    # tests/test_cli.py::test_korn_lapack_failure_exits_3
    geo = ShellGeometry(h=0.00032834327807543967, L=math.pi)
    pair = korn.assemble_mode_forms(33, 13, geo, korn.radial_grid(geo, N=32))
    value, v = korn.min_rayleigh(pair)
    assert value == pytest.approx(3.03403575603e-4, rel=1e-9)
    assert value == pair.quotient(v)


def triangular_reduction(pair, index):
    """Oracle: the QR/SVD reduction with scipy's triangular solves."""
    R = np.linalg.qr(pair.C_den, mode="r")
    B = scipy.linalg.solve_triangular(R, pair.C_num.T, lower=False, trans="T").T
    _, _, Vt = np.linalg.svd(B, full_matrices=False)
    v = scipy.linalg.solve_triangular(R, Vt[-1 if index == 0 else 0], lower=False)
    return pair.quotient(v)


def test_solve_pencil_matches_triangular_reduction():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pair = random_form_pair(rng, int(rng.integers(3, 8)))
        assert korn.min_rayleigh(pair)[0] == pytest.approx(
            triangular_reduction(pair, 0), rel=1e-12)
        assert korn.max_rayleigh(pair)[0] == pytest.approx(
            triangular_reduction(pair, -1), rel=1e-12)


def test_svd_retries_with_gesvd(monkeypatch):
    pair = random_form_pair(np.random.default_rng(3), 6)
    expected = [korn.min_rayleigh(pair)[0], korn.max_rayleigh(pair)[0]]

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    got = [korn.min_rayleigh(pair)[0], korn.max_rayleigh(pair)[0]]
    assert got == pytest.approx(expected, rel=1e-12)


def test_residual_gate_is_relative_to_the_largest_singular_value():
    # a pencil whose quotients span 1e14: its minimum is a backward-stable
    # answer that the absolute gate res <= 1e-8 max(1, lam) rejected
    rng = np.random.default_rng(8)
    U, _ = np.linalg.qr(rng.standard_normal((12, 8)))
    V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s = np.logspace(6, -1, 8)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 8)))
    pair = korn.QuadraticFormPair(C_num=U @ np.diag(s) @ V.T, C_den=Q)
    B = np.linalg.solve(np.linalg.qr(Q, mode="r").T, pair.C_num.T).T
    _, sB, Vt = np.linalg.svd(B)
    lam = sB[-1] ** 2
    assert sB[0] ** 2 / lam >= 1e10
    assert np.linalg.norm(B.T @ (B @ Vt[-1]) - lam * Vt[-1]) > 1e-8 * max(1.0, lam)
    assert korn.min_rayleigh(pair)[0] == pytest.approx(s[-1] ** 2, rel=1e-6)


def test_residual_gate_rejects_a_perturbed_vector(monkeypatch):
    pair = random_form_pair(np.random.default_rng(9), 6)
    svd = korn._svd

    def perturbed(B):
        s, Vt = svd(B)
        Vt = Vt.copy()
        Vt[:, -1] += 1e-6 * Vt[:, 0]
        Vt[:, -1] /= np.linalg.norm(Vt[:, -1], axis=-1, keepdims=True)
        return s, Vt

    monkeypatch.setattr(korn, "_svd", perturbed)
    with pytest.raises(SolverError, match="residual"):
        korn.min_rayleigh(pair)


def test_residual_gate_rejects_a_nan_residual(monkeypatch):
    # an SVD that returns NaNs instead of failing: a NaN residual fails the
    # gate rather than passing it
    pair = random_form_pair(np.random.default_rng(9), 6)
    svd = korn._svd

    def nan_values(B):
        s, Vt = svd(B)
        return np.full_like(s, math.nan), Vt

    monkeypatch.setattr(korn, "_svd", nan_values)
    with pytest.raises(SolverError, match="residual"):
        korn.min_rayleigh(pair)


def test_stack_falls_back_pencil_by_pencil():
    # gesdd does not converge on the Korn pencil (45, 13) at h = 1e-4, N = 32,
    # alone or in a stack; the stack is then solved one pencil at a time
    geo = ShellGeometry(h=1e-4, L=math.pi)
    grid = korn.radial_grid(geo, N=32)
    modes = [(44, 13), (45, 13), (46, 13)]
    C_num, C_den = stacked_forms(grid, modes, geo)
    single = [korn.min_rayleigh(korn.assemble_mode_forms(m, n, geo, grid))[0]
              for m, n in modes]
    assert [value for value, _ in korn._solve_stack(C_num, C_den, 1)] == single


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pencil_is_solver_error(bad):
    # a NaN or inf in C_num reaches the SVD through B; it fails there, on
    # every retry, and comes out as a SolverError, not a bare ValueError
    pair = random_form_pair(np.random.default_rng(6), 5)
    C_num = pair.C_num.copy()
    C_num[2, 1] = bad
    for solve in (korn.min_rayleigh, korn.max_rayleigh):
        with pytest.raises(SolverError):
            solve(korn.QuadraticFormPair(C_num=C_num, C_den=pair.C_den))


def test_rank_deficient_member_of_a_stack_is_solver_error():
    rng = np.random.default_rng(4)
    pairs = [random_form_pair(rng, 5) for _ in range(3)]
    C_num = np.array([p.C_num for p in pairs])
    C_den = np.array([p.C_den for p in pairs])
    C_den[1][:, 2] = 0.0
    with pytest.raises(SolverError, match="rank-deficient"):
        korn._solve_stack(C_num, C_den, 1)


def test_korn_constant_reference(geo_thick):
    res = korn.korn_constant(geo_thick)
    assert (res.m, res.n) == (1, 5)
    assert res.value == pytest.approx(1.3852221157721682e-04, rel=1e-9)
    assert not res.on_boundary


@pytest.mark.parametrize("h", [1e-4, 1e-5, 1e-6, 1e-7])
def test_korn_constant_matches_reduced_model(h):
    # thin-shell reduction of mode (1, n) at L = pi: K ~ (h^2 n^4/12 + 1/n^4)/(2 n^2),
    # minimized over integer n; the scan exceeds it by about 0.2 h^(1/2)
    res = korn.korn_constant(ShellGeometry(h, math.pi), N=16)
    oracle = min((h**2 * n**4 / 12.0 + 1.0 / n**4) / (2.0 * n**2) for n in range(1, 1000))
    assert res.m == 1
    assert res.value == pytest.approx(oracle, rel=5e-3)


def test_korn_constant_fd_cross_check(geo_thick):
    # first-order nodal scheme converges to the spectral value
    cheb = korn.radial_grid(geo_thick, N=32)
    fd = fd_radial_grid(geo_thick, N=128)
    v_cheb = korn.min_rayleigh(korn.assemble_mode_forms(1, 5, geo_thick, cheb))[0]
    v_fd = korn.min_rayleigh(korn.assemble_mode_forms(1, 5, geo_thick, fd))[0]
    assert v_fd == pytest.approx(v_cheb, rel=1e-3)


def test_korn_quotient_bounded_by_one(geo_thick):
    # ||e||^2 <= ||grad u||^2 pointwise, so every mode quotient is in (0, 1]
    grid = korn.radial_grid(geo_thick, N=16)
    for m, n in ((1, 0), (1, 5), (3, 2)):
        pair = korn.assemble_mode_forms(m, n, geo_thick, grid)
        val = korn.min_rayleigh(pair)[0]
        assert 0.0 < val <= 1.0 + 1e-12


def test_assemble_mode_forms_rejects_a_grid_of_another_shell():
    # the forms take their radii from the grid: the mode (1, 5) of h = 0.1
    # gives 1.05e-2 on its own grid, and gave 1.39e-4 on the grid of h = 0.01
    geo = ShellGeometry(h=0.1, L=math.pi)
    own = korn.assemble_mode_forms(1, 5, geo, korn.radial_grid(geo, N=16))
    assert korn.min_rayleigh(own)[0] == pytest.approx(1.0494825529780882e-2, rel=1e-9)
    other = korn.radial_grid(ShellGeometry(h=0.01, L=math.pi), N=16)
    with pytest.raises(ParameterError, match="not the I_h"):
        korn.assemble_mode_forms(1, 5, geo, other)
    # the oracle's uniform grid lies on I_h too
    korn.assemble_mode_forms(1, 5, geo, fd_radial_grid(geo, N=21))


@pytest.mark.parametrize("modes", [[(1, 3), (0, 3)], [(0, 3), (1, 3)], [(2, 1), (-1, 4)]])
def test_mode_forms_reject_non_axial_modes(geo_thick, modes):
    # every mode of a stack is checked, not only the first: a stack has one
    # set of columns and one mode normalization, so m = 0 cannot ride along
    grid = korn.radial_grid(geo_thick, N=8)
    bad = next(m for m, _ in modes if m < 1)
    with pytest.raises(ParameterError, match=f"m={bad} must be >= 1"):
        korn._mode_operators(grid, modes, geo_thick)
    with pytest.raises(ParameterError, match=f"m={bad} must be >= 1"):
        korn.assemble_mode_forms(bad, 3, geo_thick, grid)


@pytest.mark.parametrize("n", [0, 3])
def test_m0_mode_quotients_by_quadrature(geo_thick, n):
    # the values the module docstring gives for leaving m = 0 out of the
    # scans: u = (0, 0, p(r) cos(n theta)) has only the gradient entries zr
    # and zt, so its Korn quotient is 1/2, ththzz and rthr vanish, and
    # urrzzr and thzzth are at most 2
    x = Polynomial([-1.0, 1.0]) / geo_thick.h          # (r - 1) / h
    zero = Polynomial([0.0])
    quad = volume_grid(geo_thick, n_r=8, n_th=16, n_z=8)
    for p in (0.4 + 1.3 * x - 0.8 * x**2, x**3 - 0.5 * x):
        field = RadialPolynomialField(
            [zero, zero, p], [TrigSurface()] * 2 + [TrigSurface("cos", n)])
        parts = field.partials(quad.R, quad.TH, quad.Z)
        g = {**cylindrical_gradient(parts, quad.R), "ur": parts["ur"]}
        e = symmetrize(g)
        strain_sq = sum(STRAIN_WEIGHT[k] * quad.norm_sq(e[k]) for k in STRAIN_KEYS)
        grad_sq = sum(quad.norm_sq(g[k]) for k in GRAD_KEYS)
        assert strain_sq / grad_sq == pytest.approx(0.5, rel=1e-12)
        groups = {name: sum(quad.norm_sq(g[k]) for k in keys) / strain_sq
                  for name, keys in korn.COMPONENT_GROUPS.items()}
        assert groups["ththzz"] == 0.0 and groups["rthr"] == 0.0
        assert groups["urrzzr"] <= 2.0 * (1.0 + 1e-12)
        assert groups["thzzth"] <= 2.0 * (1.0 + 1e-12)


def test_component_bound_reference_values(geo_thick):
    expected = {
        "ththzz": (1.0, 5e-12),
        "rthr": (6.907263900e+03, 1e-8),
        "urrzzr": (5.382924480e+02, 1e-8),
        "thzzth": (2.089076709e+01, 1e-8),
    }
    for group, (value, rel) in expected.items():
        res = korn.component_bound(geo_thick, group)
        assert res.value == pytest.approx(value, rel=rel), group


def test_component_bound_unknown_group(geo_thick, monkeypatch):
    # the group is checked with the scan window, before any grid or bound
    monkeypatch.setattr(korn, "radial_grid", None)
    monkeypatch.setattr(korn, "_component_bound", None)
    with pytest.raises(ParameterError, match="choose from .*'rthr'"):
        korn.component_bound(geo_thick, "offdiag")
    with pytest.raises(ParameterError, match="choose from .*'rthr'"):
        korn.scan_window(geo_thick, "offdiag")


@pytest.mark.parametrize("group, floor", [(None, 1e-10), ("rthr", 1e-10),
                                          ("urrzzr", 1e-5), ("thzzth", 1e-5)],
                         ids=["korn", "rthr", "urrzzr", "thzzth"])
def test_scan_admitted_mhat_h_range(group, floor, monkeypatch):
    # pi h / L (m_hat h of m = 1) must be at least 1e-10, and 1e-5 for the
    # urrzzr and thzzth groups; the check comes before any grid is built
    def scan(geo, **kw):
        if group is None:
            return korn.korn_constant(geo, **kw)
        return korn.component_bound(geo, group, **kw)

    h = 1e-2
    L = math.pi * h / floor
    assert scan(ShellGeometry(h=h, L=L * (1 - 1e-12)), m_max=3, n_max=3, N=8).value > 0
    monkeypatch.setattr(korn, "radial_grid", None)
    for L in (L * (1 + 1e-12), 1e12, 1e300):
        with pytest.raises(ParameterError, match="pi h / L"):
            scan(ShellGeometry(h=h, L=L), m_max=3, n_max=3, N=8)


@pytest.mark.parametrize("group", [None, "rthr"], ids=["korn", "rthr"])
def test_scan_admitted_window(group, monkeypatch):
    # a window of at most MAX_SCAN_MODES modes m_max (n_max + 1), and
    # pi m_max / L at most 1e75, where the Korn model's m_hat^4 is finite;
    # both are checked before any grid or model array is made
    def scan(geo, **kw):
        if group is None:
            return korn.korn_constant(geo, **kw)
        return korn.component_bound(geo, group, **kw)

    geo = ShellGeometry(h=1e-2, L=math.pi)
    assert korn.scan_window(geo, None, 1, korn.MAX_SCAN_MODES - 1) == (1, korn.MAX_SCAN_MODES - 1)
    L = math.pi * 3 / 1e75
    assert scan(ShellGeometry(h=1e-2, L=L * (1 + 1e-12)), m_max=3, n_max=3, N=8).value > 0
    monkeypatch.setattr(korn, "radial_grid", None)
    monkeypatch.setattr(korn, "_korn_model", None)
    with pytest.raises(ParameterError, match="modes exceeds 1000000"):
        scan(geo, m_max=2, n_max=korn.MAX_SCAN_MODES // 2)
    for L in (L * (1 - 1e-12), 5e-77, 1e-100):
        with pytest.raises(ParameterError, match="pi m_max / L"):
            scan(ShellGeometry(h=1e-2, L=L), m_max=3, n_max=3, N=8)


def test_radial_grid_admits_at_most_512_nodes(geo_thick, monkeypatch):
    assert korn.radial_grid(geo_thick, N=korn.MAX_RADIAL_N).N == 512
    # rejected before any grid, the coarse 8-node one included, is built
    monkeypatch.setattr(korn, "_cheb_lobatto", None)
    for scan in (korn.korn_constant, lambda geo, **kw: korn.component_bound(geo, "rthr", **kw)):
        with pytest.raises(ParameterError, match="N=513"):
            scan(geo_thick, m_max=3, n_max=3, N=513)


def test_unknown_form_kind(geo_thick):
    grid = korn.radial_grid(geo_thick, N=8)
    with pytest.raises(ParameterError):
        korn.assemble_mode_forms(1, 1, geo_thick, grid, "curl")


def exhaustive_scan(quotient, m_max, n_max, maximize):
    """Extremum of quotient(m, n) over the whole window, smallest (m, n) on ties."""
    sign = -1.0 if maximize else 1.0
    best = min(((m, n) for m in range(1, m_max + 1) for n in range(n_max + 1)),
               key=lambda mn: sign * quotient(*mn))
    return best, quotient(*best)


@pytest.mark.parametrize("kind", ["korn", "rthr", "urrzzr", "thzzth", "ththzz"])
def test_scan_matches_exhaustive_grid(geo_thick, kind):
    # the screen gives the extremum of a solve of every mode of the full
    # 30 x 31 window at h = 1e-2; ththzz ties at 1 on many modes, so only its
    # value is compared
    N = 16
    grid = korn.radial_grid(geo_thick, N=N)
    m_max, n_max = korn.scan_window(geo_thick)
    assert (m_max, n_max) == (30, 30)
    if kind == "korn":
        res = korn.korn_constant(geo_thick, N=N)
        forms, solve, maximize = ("strain", "grad"), korn.min_rayleigh, False
    else:
        res = korn.component_bound(geo_thick, kind, N=N)
        forms, solve, maximize = (f"component:{kind}", "strain"), korn.max_rayleigh, True

    def quotient(m, n):
        return solve(korn.assemble_mode_forms(m, n, geo_thick, grid, *forms))[0]

    (m, n), value = exhaustive_scan(quotient, m_max, n_max, maximize)
    if kind != "ththzz":
        assert (res.m, res.n) == (m, n)
    assert res.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("kind", ["korn", "rthr", "urrzzr", "thzzth", "ththzz"])
def test_stacked_scan_matches_per_mode_scan(geo_thick, kind):
    # the screen's stacked solves pick the same modes, with the same bits,
    # as one per-mode solve of the oracle forms each
    N = 16
    grids = {n_r: korn.radial_grid(geo_thick, N=n_r) for n_r in (N, korn._COARSE_N)}
    if kind == "korn":
        res = korn.korn_constant(geo_thick, N=N)
        forms, solve, sign = ("strain", "grad"), korn.min_rayleigh, 1.0
        bound = functools.partial(korn._korn_bound, geo_thick)
    else:
        res = korn.component_bound(geo_thick, kind, N=N)
        forms, solve, sign = (f"component:{kind}", "strain"), korn.max_rayleigh, -1.0
        bound = functools.partial(korn._component_bound, geo_thick, kind)

    def quotients(n_r, modes):
        return [solve(korn.QuadraticFormPair(*per_mode_forms(m, n, geo_thick, grids[n_r],
                                                             *forms)))[0]
                for m, n in modes]

    m_max, n_max = korn.scan_window(geo_thick)
    assert res == korn._guarded_scan(quotients, bound, sign, N, m_max, n_max)


@pytest.mark.parametrize("h, L, N", [(1e-2, math.pi, 16), (1e-3, math.pi, 16), (0.1, 1.0, 8)])
def test_scan_takes_any_rows_of_the_mode_operators(h, L, N):
    # the scan solves whatever pencil its rows make of the operators: the
    # greatest grad/strain quotient, under the upper bound 1 / _korn_bound,
    # is 1/K at the Korn scan's mode, after as many solves
    geo = ShellGeometry(h, L)
    m_max, n_max = korn.scan_window(geo)
    res = korn._scan(geo, lambda ops: (korn._form_rows("grad", ops),
                                       korn._form_rows("strain", ops)),
                     lambda m, n: tuple(1.0 / x for x in korn._korn_bound(geo, m, n)),
                     -1.0, m_max, n_max, N)
    ref = korn.korn_constant(geo, N=N)
    assert (res.m, res.n, res.evaluations) == (ref.m, ref.n, ref.evaluations)
    assert res.value * ref.value == pytest.approx(1.0, abs=1e-13)


def test_scan_walks_at_N_when_the_grids_disagree():
    # a maximum: the 8-node quotients peak at (10, 10) and the 16-node ones
    # at (14, 12), under an upper bound valid on both grids; the gap at the
    # coarse screen's mode fails the guard, and the screen at N gives the
    # N-grid maximum
    def quotients(n_r, modes):
        m0, n0 = (10, 10) if n_r == korn._COARSE_N else (14, 12)
        return [1.0 / (1.0 + (m - m0) ** 2 + (n - n0) ** 2) for m, n in modes]

    def bound(m, n):
        model = 1.0 / (1.0 + ((m - 12) ** 2 + (n - 11) ** 2) / 4.0)
        return 3.0 * model, model

    res = korn._guarded_scan(quotients, bound, -1.0, 16, 40, 40)
    assert (res.m, res.n, res.value) == (14, 12, 1.0)
    assert res.walked_at_N and res.resolution_gap == pytest.approx(20.0, rel=1e-12)
    assert not res.on_boundary and res.bound_ratio == 2.25     # 1 / model(14, 12)


def test_thick_short_shell_walks_at_N():
    # at L = 0.1, h = 0.5 the 8-node grid is off by 20% at the coarse
    # screen's mode (1, 5), on the search boundary; the guard sends the
    # screen back to N = 32, which ends at (1, 0)
    res = korn.korn_constant(ShellGeometry(h=0.5, L=0.1), N=32)
    assert (res.m, res.n, res.value) == (1, 0, 0.24690377334287106)
    assert res.walked_at_N and res.resolution_gap > 1e-6
    assert not res.on_boundary


def test_thin_shell_scan_solves_once_at_N(monkeypatch):
    # at h = 1e-4 the screen runs on 8 nodes, and its argmin is the one
    # solve at N = 32
    calls = []
    scan = korn._guarded_scan

    def spy(quotients, *args):
        def counted(n_r, modes):
            calls.append((n_r, len(modes)))
            return quotients(n_r, modes)
        return scan(counted, *args)

    monkeypatch.setattr(korn, "_guarded_scan", spy)
    res = korn.korn_constant(ShellGeometry(h=1e-4, L=math.pi))
    assert [call for call in calls if call[0] != korn._COARSE_N] == [(32, 1)]
    assert not res.walked_at_N and res.resolution_gap <= 1e-6


def test_screen_sweeps_the_bound_once(monkeypatch):
    # each screen evaluates the bound once over the window, _BOUND_BLOCK
    # modes at a time: the thin Korn scan's one screen evaluates each of its
    # 10 blocks once, and a scan that runs again at N evaluates its one block
    # twice; the bound's other calls check solved modes, at most _STACK at once
    blocks = collections.Counter()
    scan = korn._guarded_scan

    def spy(quotients, bound, *args):
        def counted(m, n):
            if np.size(m) > korn._STACK:
                blocks[int(m[0]), int(n[0])] += 1
            return bound(m, n)
        return scan(quotients, counted, *args)

    monkeypatch.setattr(korn, "_guarded_scan", spy)
    for geo, count, sweeps in ((ShellGeometry(h=1e-4, L=math.pi), 10, 1),
                               (ShellGeometry(h=0.5, L=0.1), 1, 2)):
        blocks.clear()
        res = korn.korn_constant(geo)
        assert res.walked_at_N == (sweeps == 2)
        m_max, n_max = korn.scan_window(geo)
        starts = range(0, m_max * (n_max + 1), korn._BOUND_BLOCK)
        assert len(starts) == count
        assert blocks == {(s // (n_max + 1) + 1, s % (n_max + 1)): sweeps for s in starts}


@pytest.mark.parametrize("scan", [
    lambda: korn.korn_constant(ShellGeometry(h=1e-4, L=math.pi)),
    lambda: korn.component_bound(ShellGeometry(h=0.5, L=0.01), "thzzth", N=32),
    lambda: korn.korn_constant(ShellGeometry(h=0.5, L=0.1)),
], ids=["korn-thin", "thzzth-n0-ties", "korn-walked-at-N"])
def test_scan_is_independent_of_the_bound_block(scan, monkeypatch):
    # blocks of 7 modes split the window (and the n = 0 ties of the thzzth
    # maximum, whose key is -bound) across block edges; one block spans it:
    # the seed's tie-break and the screen's order do not depend on the edges
    results = []
    for block in (7, korn.MAX_SCAN_MODES):
        monkeypatch.setattr(korn, "_BOUND_BLOCK", block)
        results.append(scan())
    assert results[0] == results[1]


def test_scan_memory():
    # the operator table at N = 32, one stack of coarse pencils and the
    # screen's key of each of the window's 90,300 modes (0.69 MiB)
    tracemalloc.start()
    try:
        korn.korn_constant(ShellGeometry(h=1e-4, L=math.pi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# (h, L) grid of the Korn bound check: h >= 1e-2 up to thick shells, from
# short to long
BOUND_GRID = [(h, L) for h in (1e-2, 0.1, 0.5, 0.99)
              for L in (0.01, 0.1, 0.3, math.pi, 100.0, 1000.0)]
# (h, L, N, keep) of the bound check: the exhaustive 8-node windows of
# BOUND_GRID, and the window modes for which keep(n, t) holds, t the thinness
BOUND_CASES = [(h, L, 8, None) for h, L in BOUND_GRID] + [
    # the thin regime's least quotient/model, 0.667 at (45, 0)
    (1e-3, 100.0, 8, lambda n, t: n == 0),
    # around t = 1/2, where the factor changes, on a window reaching t = 1;
    # its least thin quotient/model is 0.972, at (47, 88) and t = 0.49999
    (1e-3, 0.3, 8, lambda n, t: abs(t - 0.5) <= 0.05),
    # the grid of the rerun at N of a shell whose scan reruns there
    (0.1, math.pi, 32, None),
]


def window_quotients(geo, group, N, keep=None):
    """The modes (m, n) of the default window of the Korn scan (group None)
    or of a component scan for which keep(n, t) holds, t the thinness, and
    their quotients on N nodes, solved in stacks."""
    m_max, n_max = korn.scan_window(geo, group)
    forms, sign = ((("strain", "grad"), 1) if group is None
                   else ((f"component:{group}", "strain"), -1))
    grid = korn.radial_grid(geo, N=N)
    m, n = np.divmod(np.arange(m_max * (n_max + 1)), n_max + 1)
    m += 1
    if keep is not None:
        kept = keep(n, geo.h * np.hypot(n, geo.axial_wavenumber(m)))
        m, n = m[kept], n[kept]
    modes = list(zip(m.tolist(), n.tolist()))
    return m, n, np.array([v for i in range(0, len(modes), 64)
                           for v, _ in korn._solve_stack(
                               *stacked_forms(grid, modes[i:i + 64], geo, *forms), sign)])


def test_korn_model_bounds_every_mode():
    # every mode checked, solved in stacks, has a quotient of at least its
    # ``_korn_bound``, the factor of its thinness times its model: the
    # screen's bound
    worst = (math.inf, None)
    for h, L, N, keep in BOUND_CASES:
        geo = ShellGeometry(h, L)
        m, n, values = window_quotients(geo, None, N, keep)
        ratios = values / korn._korn_bound(geo, m, n)[0]
        k = int(np.argmin(ratios))
        worst = min(worst, (float(ratios[k]), (h, L, N, (int(m[k]), int(n[k])))))
    assert worst[0] >= 1.0, worst


# (h, L, keep) of the component bound check: the exhaustive 8-node windows of
# the h = 1e-2 and 0.1 rows of BOUND_GRID, and the modes n <= 3 of a thin
# long shell, where thzzth's quotient/bound would be 1.28 at (1, 2) without
# the factor (n^2 / (n^2 - 1))^2 of its share
COMPONENT_BOUND_CASES = [(h, L, None) for h, L in BOUND_GRID if h <= 0.1] + [
    (1e-3, 100.0, lambda n, t: n <= 3)]


def test_component_models_bound_every_mode():
    # every mode checked has a component quotient of at most its
    # ``_component_bound``, the group's share over the Korn bound: the
    # screen's bound
    worst = (0.0, None)
    for h, L, keep in COMPONENT_BOUND_CASES:
        geo = ShellGeometry(h, L)
        for group in ("rthr", "urrzzr", "thzzth"):
            m, n, values = window_quotients(geo, group, 8, keep)
            ratios = values / korn._component_bound(geo, group, m, n)[0]
            k = int(np.argmax(ratios))
            worst = max(worst, (float(ratios[k]), (h, L, group, (int(m[k]), int(n[k])))))
    assert worst[0] <= 1.0, worst


# (h, L, N, keep) of the thzzth cap check: the exhaustive 8-node windows of
# BOUND_GRID, a 16- and a 32-node window, and the modes n <= 3 of a thin shell
THZZTH_CAP_CASES = [(h, L, 8, None) for h, L in BOUND_GRID] + [
    (1e-2, math.pi, 16, None), (0.1, math.pi, 32, None),
    (1e-4, math.pi, 8, lambda n, t: n <= 3)]


def test_thzzth_cap_bounds_every_mode():
    # every mode checked has a thzzth quotient of at most ``_thzzth_cap``,
    # and the cap is sharp: every window's n = 0 column reaches 2 to
    # _BOUND_SLACK, and the thin shell's mode (1, 1) 0.9999 of its cap
    for h, L, N, keep in THZZTH_CAP_CASES:
        geo = ShellGeometry(h, L)
        m, n, values = window_quotients(geo, "thzzth", N, keep)
        ratios = values / korn._thzzth_cap(geo, m, n)
        k = int(np.argmax(ratios))
        assert ratios[k] <= 1.0, (h, L, N, (int(m[k]), int(n[k])))
        assert values[n == 0].max() == pytest.approx(2.0, rel=korn._BOUND_SLACK), (h, L, N)
    # the last case is the thin shell's
    assert float(ratios[(m == 1) & (n == 1)][0]) >= 0.9999


def test_screen_rejects_a_mode_below_its_bound():
    # quotients equal to the model but a tenth of it at (1, 6), a mode the
    # screen solves: a failed bound, not an answer; so is 0.6 of it, above
    # the factor 1/2 of thin n = 0 modes but below the 3/4 of this thin mode
    geo = ShellGeometry(h=1e-2, L=math.pi)
    model = functools.partial(korn._korn_model, geo)
    for scale in (0.1, 0.6):
        def quotients(n_r, modes):
            return [float(model(m, n)) * (scale if (m, n) == (1, 6) else 1.0)
                    for m, n in modes]

        with pytest.raises(SolverError, match=r"bound fails at mode \(1, 6\) on 8 nodes: "
                                              r"quotient/model = %g < 0.75" % scale):
            korn._guarded_scan(quotients, functools.partial(korn._korn_bound, geo), 1.0,
                               16, 30, 30)


def test_screen_finds_an_isolated_minimum():
    # quotients equal to the model but for a dip at (1, 7), within the bound
    # and outside the 5x5 neighbourhood of the model's argmin (1, 3), where a
    # local search stops: the screen solves the dip and returns it, on both
    # grids
    geo = ShellGeometry(h=0.1, L=math.pi)
    model = functools.partial(korn._korn_model, geo)
    bound = functools.partial(korn._korn_bound, geo)
    res = korn._guarded_scan(lambda n_r, modes: [float(model(*mn)) for mn in modes],
                             bound, 1.0, 16, 30, 30)
    assert (res.m, res.n) == (1, 3)
    dip = 0.9 * float(model(1, 3))
    assert float(bound(1, 7)[0]) < dip

    def quotients(n_r, modes):
        return [dip if (m, n) == (1, 7) else float(model(m, n)) for m, n in modes]

    res = korn._guarded_scan(quotients, bound, 1.0, 16, 30, 30)
    assert (res.m, res.n, res.value) == (1, 7, dip)
    assert not res.walked_at_N and res.resolution_gap == 0.0


def test_screen_orders_the_window_by_the_bound():
    # the mode (40, 0) has the window's largest model but one of its least
    # bounds, as a thick mode can among thin ones: in the order of the bound
    # the screen solves it in its second stack, after (2, 0) has lowered the
    # cut to 5, and the bound 6 of the modes 17 to 32 then ends the screen;
    # in the order of the model those would end it before (40, 0)
    def bound(m, n):
        return np.select([m == 1, m <= 16, m <= 32, m == 40], [0.1, 1.0, 6.0, 4.0], 100.0), m * 1.0

    def quotients(n_r, modes):
        return [{1: 10.0, 2: 5.0, 40: 4.5}.get(m, 200.0) for m, n in modes]

    res = korn._guarded_scan(quotients, bound, 1.0, 16, 40, 0)
    assert (res.m, res.n, res.value) == (40, 0, 4.5)
    assert res.evaluations == korn._STACK + 2 and res.screened_out == 40 - 17


def test_korn_scan_solve_count():
    # the screen solves 8 of the window's 90,300 modes on 8 nodes at
    # h = 1e-4 and 43 of 262,656 at h = 1e-7, and its argmin once at N = 32
    # (with the factor 0.15 on every mode it solved 147 and 824, with 1/2 on
    # every thin mode 15 and 79); every mode it solves is thin with n >= 1,
    # so the least quotient/model is at least the thin factor, and at most
    # that of the argmin at N
    for h, most in ((1e-4, 12), (1e-7, 55)):
        geo = ShellGeometry(h=h, L=math.pi)
        res = korn.korn_constant(geo)
        assert res.evaluations <= most
        m_max, n_max = korn.scan_window(geo)
        assert res.screened_out == m_max * (n_max + 1) - (res.evaluations - 1)
        at_argmin = res.value / float(korn._korn_model(geo, res.m, res.n))
        assert korn._THIN_BOUND_FACTOR <= res.bound_ratio <= at_argmin


def test_component_scan_solve_count():
    # solves on 8 nodes and at N = 32 together, at h = 1e-2 and 1e-3 (L = pi):
    # rthr 4 and 5, urrzzr 18 and 57, thzzth 2 and 4, ththzz 2 and 2; thzzth
    # also at h = 1e-4 and 1e-5, 5 and 8 (without its cap thzzth solved 65,
    # 193, 593 and 1,009, nearly all in its n <= 1 columns); the greatest
    # quotient/model of the solved modes is at least that of the argmin and
    # at most the argmin's bound/model
    most = {"rthr": (6, 7), "urrzzr": (23, 72), "thzzth": (3, 5, 7, 10), "ththzz": (2, 2)}
    for group, limits in most.items():
        for h, limit in zip((1e-2, 1e-3, 1e-4, 1e-5), limits):
            geo = ShellGeometry(h=h, L=math.pi)
            m_max, n_max = korn.scan_window(geo)
            res = korn.component_bound(geo, group)
            assert res.evaluations <= limit, (h, group)
            assert res.screened_out == m_max * (n_max + 1) - (res.evaluations - 1)
            upper, model = korn._component_bound(geo, group, res.m, res.n)
            assert res.value / float(model) <= res.bound_ratio <= float(upper / model)


def test_ththzz_scan_stops_at_the_known_bound():
    # ththzz <= 1 on every mode, and its screen stops at its first mode, the
    # model's extreme (1, 0), within 1e-12 of 1: one solve on 8 nodes and one
    # at N = 32; the stop passes the resolution guard, the two grids agreeing
    # to 2e-12
    for h in (1e-2, 1e-4):
        res = korn.component_bound(ShellGeometry(h, math.pi), "ththzz")
        assert res.value == pytest.approx(1.0, rel=5e-12) and res.value <= 1.0 + 1e-9
        assert (res.m, res.n) == (1, 0)
        assert res.evaluations == 2 and not res.walked_at_N
        assert res.resolution_gap <= 2e-12


def test_scan_ties_go_to_the_smallest_mode():
    # keys within _BOUND_SLACK relative of the best are ties: (1, 0) wins
    # over (3, 0), which is larger by 2 ulp, and over (4, 0), on the edge
    def quotients(n_r, modes):
        return [{(1, 0): 2.0, (3, 0): 2.0 + 4.4e-16, (4, 0): 2.0 + 2.2e-16}.get(mn, 1.0)
                for mn in modes]

    def bound(m, n):
        three = np.full(np.broadcast(m, n).shape, 3.0)
        return three, three

    res = korn._guarded_scan(quotients, bound, -1.0, 8, 4, 4)
    assert (res.m, res.n, res.value, res.on_boundary) == (1, 0, 2.0, False)


def test_thzzth_n0_ties_stay_off_the_window_edge():
    # on short or thick shells thzzth's n = 0 column equals 2 to rounding;
    # the tie rule reports (1, 0), not a mode on the window's edge
    for h, L, N in ((0.5, 0.01, 32), (0.99, 0.01, 16)):
        res = korn.component_bound(ShellGeometry(h, L), "thzzth", N=N)
        assert (res.m, res.n, res.on_boundary) == (1, 0, False)
        assert res.value == pytest.approx(2.0, rel=korn._BOUND_SLACK)


def test_scan_stops_at_a_known_extremum_on_both_grids():
    # under the upper bound 1 of every mode, (1, 1) reaches it on 8 nodes
    # only: the coarse screen stops there, in its first stack, and the guard
    # sends it to N, where it stops at (3, 2), the 13th mode in its order,
    # leaving the rest of the window unsolved
    def quotients(n_r, modes):
        return [1.0 if (m, n) == (3, 2) or (m, n) == (1, 1) and n_r == korn._COARSE_N
                else 0.5 for m, n in modes]

    def bound(m, n):
        one = np.ones(np.broadcast(m, n).shape)
        return one, one

    res = korn._guarded_scan(quotients, bound, -1.0, 16, 4, 4)
    assert (res.m, res.n, res.value) == (3, 2, 1.0)
    assert res.walked_at_N and res.resolution_gap == 1.0
    assert res.evaluations == korn._STACK + 13 and res.screened_out == 20 - 13


def fake_openblas(threads):
    state = {"threads": threads}
    return blas.OpenBLAS(lambda: state["threads"],
                         lambda count: state.update(threads=count))


@pytest.fixture
def openblas_at_two_threads():
    """numpy's OpenBLAS at 2 threads, put back to its own count afterwards."""
    lib = blas.numpy_openblas()
    if lib is None:
        pytest.skip("numpy is not on OpenBLAS")
    before = lib.get_num_threads()
    lib.set_num_threads(2)
    yield lib
    lib.set_num_threads(before)


def spy_svd_threads(monkeypatch, lib):
    """Record the thread counts of lib at every SVD inside the pencil solver."""
    seen = set()
    svd = korn._svd

    def spy(B):
        seen.add(lib.get_num_threads())
        return svd(B)

    monkeypatch.setattr(korn, "_svd", spy)
    return seen


def test_single_thread_blas_in_scan(geo_thick, monkeypatch, openblas_at_two_threads):
    # numpy's OpenBLAS is on one thread while a scan solves, and back at its
    # own count afterwards
    lib = openblas_at_two_threads
    seen = spy_svd_threads(monkeypatch, lib)
    korn.korn_constant(geo_thick, m_max=3, n_max=3, N=8)
    assert seen == {1}
    assert lib.get_num_threads() == 2


def test_single_thread_blas_in_one_pencil_solve(geo_thick, monkeypatch):
    # min_rayleigh and max_rayleigh outside any scan pin the library too; a
    # fake one at 4 threads stands in for a host whose own already runs on one
    lib = fake_openblas(4)
    monkeypatch.setattr(blas, "numpy_openblas", lambda: lib)
    seen = spy_svd_threads(monkeypatch, lib)
    grid = korn.radial_grid(geo_thick, N=16)
    korn.min_rayleigh(korn.assemble_mode_forms(1, 5, geo_thick, grid))
    korn.max_rayleigh(korn.assemble_mode_forms(1, 5, geo_thick, grid, "component:rthr",
                                               "strain"))
    assert seen == {1}
    assert lib.get_num_threads() == 4


def test_single_thread_blas_without_proc(geo_thick, monkeypatch, openblas_at_two_threads):
    # the library is found through numpy's LAPACK extension, not by reading
    # /proc/self/maps, so the pin holds where /proc is missing
    open_ = open

    def open_without_proc(file, *args, **kwargs):
        if file == "/proc/self/maps":
            raise OSError("no /proc")
        return open_(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_without_proc)
    blas.numpy_openblas.cache_clear()
    lib = openblas_at_two_threads
    seen = spy_svd_threads(monkeypatch, lib)
    korn.min_rayleigh(korn.assemble_mode_forms(1, 5, geo_thick,
                                               korn.radial_grid(geo_thick, N=16)))
    assert seen == {1}
    assert lib.get_num_threads() == 2


def test_single_thread_blas_only_in_the_pencil_solver():
    # the pin is entered in one place, korn._solve_stack, so no caller of
    # the solver has to enter it
    src = pathlib.Path(korn.__file__).parent
    users = set()
    for path in sorted(set(src.glob("*.py")) - {src / "blas.py"}):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                names = ([alias.name for alias in node.names]
                         if isinstance(node, ast.ImportFrom) else
                         [getattr(node, "id", None), getattr(node, "attr", None)])
                if "single_thread_blas" in names:
                    users.add((path.name, "import" if isinstance(node, ast.ImportFrom)
                               else getattr(top, "name", None)))
    assert users == {("korn.py", "import"), ("korn.py", "_solve_stack")}


def test_single_thread_blas_restores_after_exception(monkeypatch):
    lib = fake_openblas(4)
    monkeypatch.setattr(blas, "numpy_openblas", lambda: lib)
    with blas.single_thread_blas():
        assert lib.get_num_threads() == 1
    assert lib.get_num_threads() == 4
    with pytest.raises(ZeroDivisionError):
        with blas.single_thread_blas():
            assert lib.get_num_threads() == 1
            1 / 0
    assert lib.get_num_threads() == 4


def test_single_thread_blas_restores_at_last_exit(monkeypatch):
    lib = fake_openblas(4)
    monkeypatch.setattr(blas, "numpy_openblas", lambda: lib)
    with blas.single_thread_blas():
        with blas.single_thread_blas():
            assert lib.get_num_threads() == 1
        assert lib.get_num_threads() == 1
    assert lib.get_num_threads() == 4

    entered, release = threading.Event(), threading.Event()

    def scan():
        with blas.single_thread_blas():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=scan)
    worker.start()
    try:
        assert entered.wait(10)
        with blas.single_thread_blas():
            assert lib.get_num_threads() == 1
        assert lib.get_num_threads() == 1        # the other thread is still inside
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert lib.get_num_threads() == 4


def test_single_thread_blas_without_openblas(monkeypatch, openblas_at_two_threads):
    # numpy on another BLAS: its LAPACK extension resolves no OpenBLAS thread
    # functions, and the pin leaves every thread count alone
    real = openblas_at_two_threads
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: object())
    blas.numpy_openblas.cache_clear()
    try:
        with blas.single_thread_blas():
            assert blas.numpy_openblas() is None
            assert real.get_num_threads() == 2
    finally:
        blas.numpy_openblas.cache_clear()
    assert real.get_num_threads() == 2
