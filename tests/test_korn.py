"""Korn constants and gradient-component bounds on the thin cylinder."""

import ast
import builtins
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
        stacked = korn._mode_forms(grid, stack, geo, *forms)
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
    korn._mode_forms(grid, [(2, 3), (4, 0)], geo_thick, "strain", "grad")
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


def test_stack_falls_back_pencil_by_pencil():
    # gesdd does not converge on the Korn pencil (45, 13) at h = 1e-4, N = 32,
    # alone or in a stack; the stack is then solved one pencil at a time
    geo = ShellGeometry(h=1e-4, L=math.pi)
    grid = korn.radial_grid(geo, N=32)
    modes = [(44, 13), (45, 13), (46, 13)]
    C_num, C_den = korn._mode_forms(grid, modes, geo, "strain", "grad")
    single = [korn.min_rayleigh(korn.assemble_mode_forms(m, n, geo, grid))[0]
              for m, n in modes]
    assert [value for value, _ in korn._solve_stack(C_num, C_den, 0)] == single


def test_rank_deficient_member_of_a_stack_is_solver_error():
    rng = np.random.default_rng(4)
    pairs = [random_form_pair(rng, 5) for _ in range(3)]
    C_num = np.array([p.C_num for p in pairs])
    C_den = np.array([p.C_den for p in pairs])
    C_den[1][:, 2] = 0.0
    with pytest.raises(SolverError, match="rank-deficient"):
        korn._solve_stack(C_num, C_den, 0)


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


@pytest.mark.parametrize("modes", [[(1, 3), (0, 3)], [(0, 3), (1, 3)], [(2, 1), (-1, 4)]])
def test_mode_forms_reject_non_axial_modes(geo_thick, modes):
    # every mode of a stack is checked, not only the first: a stack has one
    # set of columns and one mode normalization, so m = 0 cannot ride along
    grid = korn.radial_grid(geo_thick, N=8)
    bad = next(m for m, _ in modes if m < 1)
    with pytest.raises(ParameterError, match=f"m={bad} must be >= 1"):
        korn._mode_forms(grid, modes, geo_thick, "strain", "grad")
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
    # the group is checked where the form rows are built, before any solve
    def solve(*args):
        raise AssertionError("solved before the group was checked")

    monkeypatch.setattr(korn, "_solve_stack", solve)
    with pytest.raises(ParameterError, match="choose from .*'rthr'"):
        korn.component_bound(geo_thick, "offdiag")


@pytest.mark.parametrize("scan", [korn.korn_constant,
                                  lambda geo, **kw: korn.component_bound(geo, "rthr", **kw)],
                         ids=["korn", "rthr"])
def test_scan_admitted_mhat_h_range(scan, monkeypatch):
    # pi h / L (m_hat h of m = 1) must be at least 1e-10; the check comes
    # before any grid is built
    h = 1e-2
    L = math.pi * h / korn._MHAT_H_MIN
    assert scan(ShellGeometry(h=h, L=L * (1 - 1e-12)), m_max=3, n_max=3, N=8).value > 0
    monkeypatch.setattr(korn, "radial_grid", None)
    for L in (L * (1 + 1e-12), 1e12, 1e300):
        with pytest.raises(ParameterError, match="pi h / L"):
            scan(ShellGeometry(h=h, L=L), m_max=3, n_max=3, N=8)


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
    # the ladder-then-walk heuristic finds the extremum of the full 30 x 31
    # window at h = 1e-2, not just a local one; ththzz ties at 1 on many
    # modes, so only its value is compared
    N = 16
    grid = korn.radial_grid(geo_thick, N=N)
    m_max, n_max = korn._scan_caps(geo_thick, None, None)
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
    # the ladder's stacked solves pick the same modes, with the same bits,
    # as one per-mode solve of the oracle forms each
    N = 16
    grids = {n_r: korn.radial_grid(geo_thick, N=n_r) for n_r in (N, korn._LADDER_N)}
    if kind == "korn":
        res = korn.korn_constant(geo_thick, N=N)
        forms, solve, maximize = ("strain", "grad"), korn.min_rayleigh, False
    else:
        res = korn.component_bound(geo_thick, kind, N=N)
        forms, solve, maximize = (f"component:{kind}", "strain"), korn.max_rayleigh, True

    def quotients(n_r, modes):
        return [solve(korn.QuadraticFormPair(*per_mode_forms(m, n, geo_thick, grids[n_r],
                                                             *forms)))[0]
                for m, n in modes]

    m_max, n_max = korn._scan_caps(geo_thick, None, None)
    assert res == korn._scan_extremize(quotients, N, m_max, n_max, maximize)


def test_scan_walk_stops_on_ties():
    # a plateau whose quotients differ only in the last bits: the walk stays
    # at the ladder's pick (45, 33) instead of following rounding to (47, 33);
    # 182 ladder solves on 8 nodes, 24 more for its 5x5 neighbourhood, and,
    # as no neighbour falls short by the guard's margin, the neighbourhood
    # again on 16 nodes
    def quotients(n_r, modes):
        return [1.0 - 2.0**-52 * (abs(m - 47) + abs(n - 33)) for m, n in modes]

    res = korn._scan_extremize(quotients, 16, 60, 60, True)
    assert (res.m, res.n) == (45, 33)
    assert res.evaluations == 182 + 24 + 25
    assert res.walked_at_N and res.resolution_gap == 0.0


def test_scan_walks_at_N_when_the_grids_disagree():
    # the 8-node quotients have their minimum at (10, 10) and the 16-node
    # ones at (14, 12): the gap at the coarse walk's mode fails the guard,
    # and the walk at N from the ladder's pick gives the N-grid minimum
    def quotients(n_r, modes):
        m0, n0 = (10, 10) if n_r == korn._LADDER_N else (14, 12)
        return [1.0 + (m - m0) ** 2 + (n - n0) ** 2 for m, n in modes]

    res = korn._scan_extremize(quotients, 16, 40, 40, False)
    assert (res.m, res.n, res.value) == (14, 12, 1.0)
    assert res.walked_at_N and res.resolution_gap == 20.0 / 21.0
    assert not res.on_boundary


def test_thick_short_shell_walks_at_N():
    # at L = 0.1, h = 0.5 the 8-node grid is off by 20% at the coarse
    # walk's mode, which would end at (1, 5) on the search boundary; the
    # guard sends the walk back to N = 32, which ends at (1, 0)
    res = korn.korn_constant(ShellGeometry(h=0.5, L=0.1), N=32)
    assert (res.m, res.n, res.value) == (1, 0, 0.24690377334287106)
    assert res.walked_at_N and res.resolution_gap > 1e-6
    assert not res.on_boundary


def test_thin_shell_scan_solves_once_at_N(monkeypatch):
    # at h = 1e-4 the ladder and the walk run on 8 nodes, and the walk's
    # mode is the one solve at N = 32
    calls = []
    scan = korn._scan_extremize

    def spy(quotients, *args):
        def counted(n_r, modes):
            calls.append((n_r, len(modes)))
            return quotients(n_r, modes)
        return scan(counted, *args)

    monkeypatch.setattr(korn, "_scan_extremize", spy)
    res = korn.korn_constant(ShellGeometry(h=1e-4, L=math.pi))
    assert [call for call in calls if call[0] != korn._LADDER_N] == [(32, 1)]
    assert not res.walked_at_N and res.resolution_gap <= 1e-6


def test_scan_memory():
    # the operator table at N = 32 and one stack of ladder pencils
    tracemalloc.start()
    try:
        korn.korn_constant(ShellGeometry(h=1e-4, L=math.pi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


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
